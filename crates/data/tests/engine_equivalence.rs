//! Differential proptests pinning the marginal engine against the naive
//! oracle (`Marginal::count_naive` / `project_naive`): kernel-vs-naive
//! count equivalence, fused-batch equivalence (including the bit-packing
//! edge cases), stride-walking projection equivalence, and
//! parallel-vs-sequential bit-identity of the chunked sweep.
//!
//! Every comparison is exact (`==` on the `f64` count vectors, via
//! `Marginal: PartialEq`): the engine counts in `u64` and converts once,
//! which must equal the naive kernel's repeated `+= 1.0` bit for bit.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use synrd_data::engine::count_marginal_chunked;
use synrd_data::{Attribute, Dataset, Domain, Marginal, MarginalEngine, DEFAULT_CELL_LIMIT};

/// Strategy: a random domain (1–5 attributes, cardinalities 1–6 — including
/// the degenerate cardinality-1 case) and a matching dataset of 0–300 rows
/// (including the empty dataset).
fn domain_and_rows() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<u32>>)> {
    proptest::collection::vec(1usize..=6, 1..=5).prop_flat_map(|shape| {
        let row = shape
            .iter()
            .map(|&card| 0u32..card as u32)
            .collect::<Vec<_>>();
        let rows = proptest::collection::vec(row, 0..=300);
        (Just(shape), rows)
    })
}

fn build_dataset(shape: &[usize], rows: &[Vec<u32>]) -> Dataset {
    let attrs = shape
        .iter()
        .enumerate()
        .map(|(i, &card)| Attribute::ordinal(format!("a{i}"), card))
        .collect();
    let mut ds = Dataset::with_capacity(Domain::new(attrs), rows.len());
    for row in rows {
        ds.push_row(row).expect("codes in range by construction");
    }
    ds
}

/// Every non-empty subset of the attribute indices (domains here have ≤ 5
/// attributes, so this is at most 31 sets).
fn all_subsets(d: usize) -> Vec<Vec<usize>> {
    (1u32..(1 << d))
        .map(|mask| (0..d).filter(|&a| mask & (1 << a) != 0).collect())
        .collect()
}

/// Strategy variant with cardinalities chosen to stress the bit-packing:
/// constant columns (width 0), widths that divide 64 unevenly (3, 17 → 2
/// and 5 bits), and power-of-two boundaries (16, 64). Fewer attributes so
/// the full joint stays under the cell limit.
fn wide_domain_and_rows() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<u32>>)> {
    const CARDS: [usize; 10] = [1, 2, 3, 4, 5, 6, 16, 17, 64, 65];
    let card = (0usize..CARDS.len()).prop_map(|i| CARDS[i]);
    proptest::collection::vec(card, 1..=3).prop_flat_map(|shape| {
        let row = shape
            .iter()
            .map(|&card| 0u32..card as u32)
            .collect::<Vec<_>>();
        let rows = proptest::collection::vec(row, 0..=300);
        (Just(shape), rows)
    })
}

proptest! {
    /// Engine kernel == naive per-row counter, for every attribute subset.
    #[test]
    fn engine_count_matches_naive((shape, rows) in domain_and_rows()) {
        let ds = build_dataset(&shape, &rows);
        for attrs in all_subsets(shape.len()) {
            let fast = Marginal::count(&ds, &attrs).unwrap();
            let naive = Marginal::count_naive(&ds, &attrs).unwrap();
            prop_assert!(fast == naive, "attrs {:?}", attrs);
        }
    }

    /// The fused multi-marginal sweep answers exactly what per-set counting
    /// answers, in request order.
    #[test]
    fn count_many_matches_naive((shape, rows) in domain_and_rows()) {
        let ds = build_dataset(&shape, &rows);
        let sets = all_subsets(shape.len());
        let mut engine = MarginalEngine::new(&ds);
        let batch = engine.count_many(&sets).unwrap();
        prop_assert_eq!(batch.len(), sets.len());
        for (attrs, fast) in sets.iter().zip(batch) {
            let naive = Marginal::count_naive(&ds, attrs).unwrap();
            prop_assert!(fast == naive, "attrs {:?}", attrs);
        }
    }

    /// Chunk-parallel counting is bit-identical to the sequential pass:
    /// per-chunk `u64` partials merged by integer addition cannot differ
    /// from one accumulator, whatever the chunking or thread count.
    #[test]
    fn parallel_count_is_bit_identical(
        (shape, rows) in domain_and_rows(),
        chunk in 1usize..=64,
        threads in 2usize..=8,
    ) {
        let ds = build_dataset(&shape, &rows);
        let all: Vec<usize> = (0..shape.len()).collect();
        let sequential =
            count_marginal_chunked(&ds, &all, DEFAULT_CELL_LIMIT, usize::MAX).unwrap();
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let chunked = pool.install(|| {
            count_marginal_chunked(&ds, &all, DEFAULT_CELL_LIMIT, chunk).unwrap()
        });
        prop_assert_eq!(sequential, chunked);
    }

    /// Stride-walking projection == the per-cell decode/re-encode oracle,
    /// for arbitrary (possibly reordered or duplicated) keep positions.
    #[test]
    fn project_matches_naive(
        (shape, rows) in domain_and_rows(),
        keep_seed in proptest::collection::vec(0usize..5, 0..=4),
    ) {
        let ds = build_dataset(&shape, &rows);
        let all: Vec<usize> = (0..shape.len()).collect();
        let joint = Marginal::count(&ds, &all).unwrap();
        let keep: Vec<usize> = keep_seed.iter().map(|&k| k % shape.len()).collect();
        let fast = joint.project(&keep).unwrap();
        let naive = joint.project_naive(&keep).unwrap();
        prop_assert!(fast == naive, "keep {:?}", keep);
    }

    /// The packed block-decode kernels == the naive per-row counter on a
    /// fused batch over the bit-packing edge cases: constant columns,
    /// widths that divide 64 unevenly and power-of-two boundaries.
    #[test]
    fn packed_kernel_matches_naive_on_wide_domains((shape, rows) in wide_domain_and_rows()) {
        let ds = build_dataset(&shape, &rows);
        let sets = all_subsets(shape.len());
        let mut engine = MarginalEngine::new(&ds);
        let packed = engine.count_many(&sets).unwrap();
        for (attrs, fast) in sets.iter().zip(packed) {
            let naive = Marginal::count_naive(&ds, attrs).unwrap();
            prop_assert!(fast == naive, "attrs {:?}", attrs);
        }
    }

    /// The engine cache never changes answers: a second pass over the same
    /// sets returns identical tables.
    #[test]
    fn cache_hits_are_identical((shape, rows) in domain_and_rows()) {
        let ds = build_dataset(&shape, &rows);
        let sets = all_subsets(shape.len());
        let mut engine = MarginalEngine::new(&ds);
        let first = engine.count_many(&sets).unwrap();
        let second = engine.count_many(&sets).unwrap();
        prop_assert_eq!(first, second);
        // Second pass was served entirely from the cache.
        prop_assert!(engine.cache().hits() >= sets.len() as u64 * 2);
        prop_assert_eq!(engine.cache().misses(), sets.len() as u64);
    }
}
