//! Differential proptests pinning the batched clique-major sampler against
//! the retained per-row oracle ([`NaiveSampler`]): bit-identity of
//! the sampled codes on random junction trees — including cardinality-1
//! attributes, all-zero-mass separator groups (the uniform-fallback path)
//! and `n = 0` rows — plus chunk-parallel vs sequential bit-identity,
//! mirroring `crates/data/tests/engine_equivalence.rs` on the counting side.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use synrd_pgm::{
    estimate, EstimationOptions, JunctionTree, NaiveSampler, NoisyMeasurement, TreeSampler,
};

/// A random domain (including cardinality-1 attributes), random pair/triple
/// attribute sets over it, and a pool of raw probability mass values with a
/// hard zero for every fifth-ish cell (so whole separator configurations
/// land on zero mass and exercise the uniform fallback).
fn random_problem() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<usize>>, Vec<f64>)> {
    proptest::collection::vec(1usize..=4, 3..=7).prop_flat_map(|shape| {
        (
            Just(shape),
            proptest::collection::vec((0usize..100, 0usize..100, 0usize..100), 1..=8),
            proptest::collection::vec(
                (0u8..=4, 0.0f64..3.0).prop_map(|(k, v)| if k == 0 { 0.0 } else { v }),
                2048..=2048,
            ),
        )
            .prop_map(|(shape, seeds, vals)| {
                let d = shape.len();
                let sets: Vec<Vec<usize>> = seeds
                    .iter()
                    .map(|&(a, b, c)| {
                        let mut v = vec![a % d, b % d, c % d];
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                (shape, sets, vals)
            })
    })
}

/// Raw per-clique probability tables carved out of the value pool. Entire
/// separator groups go to zero whenever the pool's zero runs line up, which
/// is exactly the degenerate case `from_probabilities` exists to inject.
fn tables_for(tree: &JunctionTree, pool: &[f64]) -> Vec<Vec<f64>> {
    let mut offset = 0usize;
    tree.cliques()
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let cells: usize = tree.clique_shape(i).iter().product();
            let vals: Vec<f64> = (0..cells)
                .map(|k| pool[(offset + k) % pool.len()])
                .collect();
            offset += cells;
            vals
        })
        .collect()
}

proptest! {
    /// Batched clique-major sampling ≡ the per-row oracle, bit for bit, on
    /// random junction trees with raw (partially zero-mass) probability
    /// tables, for every row count including zero.
    #[test]
    fn batched_matches_naive_bitwise(
        (shape, sets, vals) in random_problem(),
        n in 0usize..=200,
        seed in 0u64..1_000,
    ) {
        let tree = JunctionTree::build(&shape, &sets, 1 << 16).unwrap();
        let tables = tables_for(&tree, &vals);
        let sampler = TreeSampler::from_probabilities(&tree, &tables).unwrap();
        let oracle = NaiveSampler::from_probabilities(&tree, &tables).unwrap();
        let batched = sampler.sample_columns(n, &mut StdRng::seed_from_u64(seed));
        let naive = oracle.sample_columns(n, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(batched, naive);
    }

    /// Chunk-parallel sampling is bit-identical to the sequential pass:
    /// chunks index the shared pre-drawn uniform buffer by integer row
    /// index, so stitching their blocks in chunk order cannot differ from
    /// one sequential sweep, whatever the chunking or thread count.
    #[test]
    fn parallel_sampling_is_bit_identical(
        (shape, sets, vals) in random_problem(),
        n in 0usize..=300,
        seed in 0u64..1_000,
        chunk in 1usize..=64,
        threads in 2usize..=8,
    ) {
        let tree = JunctionTree::build(&shape, &sets, 1 << 16).unwrap();
        let sampler = TreeSampler::from_probabilities(&tree, &tables_for(&tree, &vals)).unwrap();
        let sequential = sampler.sample_columns(n, &mut StdRng::seed_from_u64(seed));
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let chunked = pool.install(|| {
            sampler.sample_columns_chunked(n, &mut StdRng::seed_from_u64(seed), chunk)
        });
        prop_assert_eq!(sequential, chunked);
    }
}

/// The end-to-end production path — mirror-descent fit, then batched
/// sampling — agrees with the oracle bit for bit (the proptests above feed
/// raw tables; this one goes through `estimate` like the synthesizers do).
#[test]
fn fitted_model_sampling_matches_naive() {
    let domain = vec![3usize, 2, 4, 2, 1];
    let mut ms = Vec::new();
    for a in 0..domain.len() - 1 {
        let cells = domain[a] * domain[a + 1];
        ms.push(NoisyMeasurement {
            attrs: vec![a, a + 1],
            values: (0..cells).map(|k| 40.0 + 13.0 * (k as f64).sin()).collect(),
            sigma: 2.0,
        });
    }
    let model = estimate(
        &domain,
        &ms,
        EstimationOptions {
            iterations: 30,
            initial_step: 1.0,
            cell_limit: 1 << 21,
            fit_threads: 1,
        },
    )
    .unwrap();
    let sampler = TreeSampler::new(&model).unwrap();
    let oracle = NaiveSampler::new(&model).unwrap();
    for seed in [1u64, 17, 4242] {
        let batched = sampler.sample_columns(5_000, &mut StdRng::seed_from_u64(seed));
        let naive = oracle.sample_columns(5_000, &mut StdRng::seed_from_u64(seed));
        assert_eq!(batched, naive, "seed {seed}");
    }
}

/// A separator configuration with zero mass in every member cell must
/// resolve through the uniform fallback identically on both paths (and
/// produce in-range codes).
#[test]
fn zero_mass_group_hits_uniform_fallback_identically() {
    // Pair cliques {0,1} and {1,2} share separator {1}; attribute 1's
    // code 1 never receives mass in the second clique, so its separator
    // group in that clique is all-zero.
    let shape = vec![2usize, 2, 3];
    let tree = JunctionTree::build(&shape, &[vec![0, 1], vec![1, 2]], 1 << 8).unwrap();
    let mut tables: Vec<Vec<f64>> = Vec::new();
    for c in 0..tree.cliques().len() {
        let cells: usize = tree.clique_shape(c).iter().product();
        let attrs = &tree.cliques()[c];
        let table: Vec<f64> = (0..cells)
            .map(|cell| {
                if attrs.as_slice() == [1, 2] {
                    // Row-major over (attr 1, attr 2): zero out attr1 = 1.
                    if cell / 3 == 1 {
                        0.0
                    } else {
                        1.0 + cell as f64
                    }
                } else {
                    1.0 + cell as f64
                }
            })
            .collect();
        tables.push(table);
    }
    let sampler = TreeSampler::from_probabilities(&tree, &tables).unwrap();
    let oracle = NaiveSampler::from_probabilities(&tree, &tables).unwrap();
    let batched = sampler.sample_columns(4_000, &mut StdRng::seed_from_u64(8));
    let naive = oracle.sample_columns(4_000, &mut StdRng::seed_from_u64(8));
    assert_eq!(batched, naive);
    // The fallback actually fired: attr 1 takes code 1 sometimes (the
    // first clique gives it mass), and those rows still get valid attr-2
    // codes from the uniform fallback.
    let ones = (0..4_000).filter(|&r| batched[1][r] == 1).count();
    assert!(ones > 0, "separator code 1 never sampled");
    assert!(batched[2].iter().all(|&c| c < 3));
}
