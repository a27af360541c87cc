//! Differential proptests pinning the bit-packed `Dataset` storage against
//! an unpacked `Vec<Vec<u32>>` shadow mirror under every constructing and
//! row-rearranging operation: `new`, `push_row`, `select`, `take_rows`,
//! `filter_rows` and `bootstrap_sample`.
//!
//! The domains deliberately include the packing edge cases: cardinality-1
//! attributes (width 0, no words stored), widths that divide 64 unevenly
//! (cardinality 3 → 2 bits, 17 → 5 bits), power-of-two boundaries (16, 64,
//! 65) and empty datasets. RNG-driven operations run the packed dataset and
//! the mirror from *cloned* seeded generators, so any divergence in RNG
//! consumption order would also fail the comparison.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synrd_data::{Attribute, Dataset, Domain};

/// Cardinalities chosen to stress the packing (see module docs).
fn card_strategy() -> impl Strategy<Value = usize> {
    const CARDS: [usize; 11] = [1, 2, 3, 4, 5, 6, 16, 17, 64, 65, 100];
    (0usize..CARDS.len()).prop_map(|i| CARDS[i])
}

/// A random domain shape and a matching column-major mirror (0–200 rows,
/// including the empty dataset).
fn shape_and_mirror() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<u32>>)> {
    proptest::collection::vec(card_strategy(), 1..=5).prop_flat_map(|shape| {
        let row = shape
            .iter()
            .map(|&card| 0u32..card as u32)
            .collect::<Vec<_>>();
        let rows = proptest::collection::vec(row, 0..=200);
        (Just(shape), rows)
    })
}

fn domain_of(shape: &[usize]) -> Domain {
    Domain::new(
        shape
            .iter()
            .enumerate()
            .map(|(i, &card)| Attribute::ordinal(format!("a{i}"), card))
            .collect(),
    )
}

/// Column-major mirror of a row-major sample.
fn columns_of(shape: &[usize], rows: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut cols = vec![Vec::with_capacity(rows.len()); shape.len()];
    for row in rows {
        for (c, &v) in cols.iter_mut().zip(row) {
            c.push(v);
        }
    }
    cols
}

proptest! {
    /// `Dataset::new` packs exactly the columns it was given: `to_columns`,
    /// per-cell `get`/`value`, and the row cursor all reproduce the mirror.
    #[test]
    fn new_round_trips((shape, rows) in shape_and_mirror()) {
        let cols = columns_of(&shape, &rows);
        let ds = Dataset::new(domain_of(&shape), cols.clone()).unwrap();
        prop_assert_eq!(ds.n_rows(), rows.len());
        prop_assert_eq!(ds.to_columns(), cols.clone());
        for (a, col) in cols.iter().enumerate() {
            let packed = ds.packed_column(a).unwrap();
            prop_assert_eq!(packed.len(), col.len());
            for (r, &want) in col.iter().enumerate() {
                prop_assert_eq!(packed.get(r), want);
                prop_assert_eq!(ds.value(r, a).unwrap(), want);
                prop_assert_eq!(ds.row(r).get(a), want);
            }
        }
    }

    /// Row-by-row `push_row` produces the same packed words as bulk `new`
    /// (canonical padding makes this `==` on the whole dataset).
    #[test]
    fn push_row_matches_bulk_pack((shape, rows) in shape_and_mirror()) {
        let bulk = Dataset::new(domain_of(&shape), columns_of(&shape, &rows)).unwrap();
        let mut pushed = Dataset::with_capacity(domain_of(&shape), rows.len());
        for row in &rows {
            pushed.push_row(row).unwrap();
        }
        prop_assert_eq!(bulk, pushed);
    }

    /// `select` mirrors column picking (order-preserving, clone-backed).
    #[test]
    fn select_matches_mirror(
        (shape, rows) in shape_and_mirror(),
        pick_seed in proptest::collection::vec(0usize..5, 1..=3),
    ) {
        let cols = columns_of(&shape, &rows);
        let ds = Dataset::new(domain_of(&shape), cols.clone()).unwrap();
        // Distinct in-range attribute picks (validate_attr_set rejects dups).
        let mut picks: Vec<usize> = pick_seed.iter().map(|&p| p % shape.len()).collect();
        picks.sort_unstable();
        picks.dedup();
        let selected = ds.select(&picks).unwrap();
        let expect: Vec<Vec<u32>> = picks.iter().map(|&a| cols[a].clone()).collect();
        prop_assert_eq!(selected.to_columns(), expect);
    }

    /// `take_rows` (with repeats) re-packs exactly the gathered codes.
    #[test]
    fn take_rows_matches_mirror(
        (shape, rows) in shape_and_mirror(),
        idx_seed in proptest::collection::vec(0usize..1000, 0..=300),
    ) {
        prop_assume!(!rows.is_empty());
        let cols = columns_of(&shape, &rows);
        let ds = Dataset::new(domain_of(&shape), cols.clone()).unwrap();
        let idx: Vec<usize> = idx_seed.iter().map(|&i| i % rows.len()).collect();
        let taken = ds.take_rows(&idx);
        let expect: Vec<Vec<u32>> = cols
            .iter()
            .map(|col| idx.iter().map(|&r| col[r]).collect())
            .collect();
        prop_assert_eq!(taken.n_rows(), idx.len());
        prop_assert_eq!(taken.to_columns(), expect);
    }

    /// Streaming `filter_rows` == mirror row filtering (same predicate on
    /// the first attribute), including when nothing or everything matches.
    #[test]
    fn filter_rows_matches_mirror((shape, rows) in shape_and_mirror(), code in 0u32..4) {
        let cols = columns_of(&shape, &rows);
        let ds = Dataset::new(domain_of(&shape), cols.clone()).unwrap();
        let filtered = ds.filter_rows(|r| r.get(0) % 4 == code);
        let keep: Vec<usize> = cols[0]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c % 4 == code)
            .map(|(r, _)| r)
            .collect();
        let expect: Vec<Vec<u32>> = cols
            .iter()
            .map(|col| keep.iter().map(|&r| col[r]).collect())
            .collect();
        prop_assert_eq!(filtered.n_rows(), keep.len());
        prop_assert_eq!(filtered.to_columns(), expect);
    }

    /// `bootstrap_sample` consumes the RNG exactly as the pre-packing
    /// implementation did (one `gen_range` per drawn row) and packs the
    /// gathered codes faithfully — checked with a cloned generator.
    #[test]
    fn bootstrap_matches_mirror((shape, rows) in shape_and_mirror(), seed in 0u64..1000) {
        prop_assume!(!rows.is_empty());
        let cols = columns_of(&shape, &rows);
        let ds = Dataset::new(domain_of(&shape), cols.clone()).unwrap();
        let n = rows.len().min(97);
        let mut rng = StdRng::seed_from_u64(seed);
        let bs = ds.bootstrap_sample(n, &mut rng);
        let mut shadow_rng = StdRng::seed_from_u64(seed);
        let idx: Vec<usize> = (0..n).map(|_| shadow_rng.gen_range(0..rows.len())).collect();
        let expect: Vec<Vec<u32>> = cols
            .iter()
            .map(|col| idx.iter().map(|&r| col[r]).collect())
            .collect();
        prop_assert_eq!(bs.to_columns(), expect);
        // Both consumed identically many draws.
        prop_assert_eq!(rng.gen::<u64>(), shadow_rng.gen::<u64>());
    }

    /// `value_counts` (u64 accumulation) == a mirror histogram, and the
    /// streaming reads (`for_each_code`, `decode_into`) agree with `get`.
    #[test]
    fn value_counts_and_streams_match_mirror((shape, rows) in shape_and_mirror()) {
        let cols = columns_of(&shape, &rows);
        let ds = Dataset::new(domain_of(&shape), cols.clone()).unwrap();
        let mut scratch = Vec::new();
        for (a, col) in cols.iter().enumerate() {
            let mut expect = vec![0.0f64; shape[a]];
            for &c in col {
                expect[c as usize] += 1.0;
            }
            prop_assert_eq!(ds.value_counts(a).unwrap(), expect);
            let packed = ds.packed_column(a).unwrap();
            let mut streamed = Vec::with_capacity(col.len());
            packed.for_each_code(|c| streamed.push(c));
            prop_assert_eq!(&streamed, col);
            packed.decode_into(&mut scratch);
            prop_assert_eq!(&scratch, col);
        }
    }
}
