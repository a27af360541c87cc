//! Calibration determinism: the workspace-based [`calibrate_into`] path
//! must produce **bit-identical** beliefs to the naive oracle
//! ([`calibrate_naive`]) on randomized junction trees, and the
//! mirror-descent loop must perform zero factor-buffer allocations per
//! iteration after warm-up.

use proptest::prelude::*;
use synrd_pgm::{
    calibrate, calibrate_into, calibrate_naive, estimate, estimate_naive, factor_buffer_allocs,
    CalibratedTree, CalibrationWorkspace, EstimationOptions, Factor, JunctionTree,
    NoisyMeasurement, CLIQUE_CELL_LIMIT,
};

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A random domain, a random set of pair/triple measurements over it, and
/// random (occasionally -inf) clique potential values.
fn random_problem() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<usize>>, Vec<f64>)> {
    proptest::collection::vec(2usize..=4, 3..=7).prop_flat_map(|shape| {
        (
            Just(shape),
            proptest::collection::vec((0usize..100, 0usize..100, 0usize..100), 1..=8),
            // Potential raw material: enough values for any clique layout;
            // sparse -inf cells exercise the degenerate-normalize path.
            proptest::collection::vec(
                (0u8..=19, -3.0f64..3.0).prop_map(
                    |(k, v)| {
                        if k == 0 {
                            f64::NEG_INFINITY
                        } else {
                            v
                        }
                    },
                ),
                4096..=4096,
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

/// Clique potentials carved deterministically out of the raw value pool.
fn potentials_for(tree: &JunctionTree, pool: &[f64]) -> Vec<Factor> {
    let mut offset = 0usize;
    tree.cliques()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let cshape = tree.clique_shape(i).to_vec();
            let cells: usize = cshape.iter().product();
            let vals: Vec<f64> = (0..cells)
                .map(|k| pool[(offset + k) % pool.len()])
                .collect();
            offset += cells;
            Factor::from_log_values(c.clone(), cshape, vals).unwrap()
        })
        .collect()
}

proptest! {
    /// Workspace calibration ≡ the naive oracle calibration, bit for bit,
    /// on random junction trees — including workspace reuse across
    /// potentials of the same tree.
    #[test]
    fn calibrate_matches_naive_bitwise((shape, sets, vals) in random_problem()) {
        let tree = JunctionTree::build(&shape, &sets, 1 << 16).unwrap();
        let pots = potentials_for(&tree, &vals);

        let naive = calibrate_naive(&tree, &pots).unwrap();
        let fresh = calibrate(&tree, &pots).unwrap();

        let mut ws = CalibrationWorkspace::new(&tree).unwrap();
        let mut reused = CalibratedTree::default();
        // Calibrate twice through the same workspace: the second pass must
        // not be perturbed by leftover message/belief state.
        calibrate_into(&pots, &mut ws, &mut reused).unwrap();
        calibrate_into(&pots, &mut ws, &mut reused).unwrap();

        for (c, want) in naive.beliefs.iter().enumerate() {
            prop_assert!(
                bits_eq(fresh.beliefs[c].log_values(), want.log_values()),
                "fresh calibrate diverged from naive at clique {c}:\n  \
                 stride: {:?}\n  naive:  {:?}",
                fresh.beliefs[c].log_values(), want.log_values()
            );
            prop_assert!(
                bits_eq(reused.beliefs[c].log_values(), want.log_values()),
                "workspace-reuse calibrate diverged from naive at clique {c}"
            );
        }
    }
}

proptest! {
    /// Full mirror descent ≡ the naive oracle estimation, bit for bit:
    /// same beliefs on random noisy measurement sets.
    #[test]
    fn estimate_matches_naive_bitwise(
        (shape, sets, vals) in random_problem(),
        iters in 1usize..=12,
    ) {
        let measurements: Vec<NoisyMeasurement> = sets
            .iter()
            .enumerate()
            .map(|(i, attrs)| {
                let cells: usize = attrs.iter().map(|&a| shape[a]).product();
                NoisyMeasurement {
                    attrs: attrs.clone(),
                    values: (0..cells)
                        .map(|k| 50.0 * vals[(i * 31 + k) % vals.len()].clamp(-3.0, 3.0).abs())
                        .collect(),
                    sigma: 1.0 + i as f64,
                }
            })
            .collect();
        let opts = EstimationOptions {
            iterations: iters,
            fit_threads: 1,
        };
        let fast = estimate(&shape, &measurements, opts).unwrap();
        let naive = estimate_naive(&shape, &measurements, opts).unwrap();
        for (c, (a, b)) in fast
            .calibrated()
            .beliefs
            .iter()
            .zip(&naive.calibrated().beliefs)
            .enumerate()
        {
            prop_assert!(
                bits_eq(a.log_values(), b.log_values()),
                "estimate diverged from naive at clique {}:\n  stride: {:?}\n  naive:  {:?}",
                c, a.log_values(), b.log_values()
            );
        }
    }
}

proptest! {
    /// A full descent is bit-identical at every fit-thread count: the loss
    /// pass marginalizes targets into disjoint buffers and keeps the loss
    /// reduction chain sequential, so chunking must never change a bit.
    /// Odd counts (3, 7) catch remainder-chunk ordering bugs.
    #[test]
    fn estimate_is_bit_identical_across_fit_threads(
        (shape, sets, vals) in random_problem(),
        iters in 1usize..=10,
        threads in (0usize..3).prop_map(|i| [2usize, 3, 7][i]),
    ) {
        let measurements: Vec<NoisyMeasurement> = sets
            .iter()
            .enumerate()
            .map(|(i, attrs)| {
                let cells: usize = attrs.iter().map(|&a| shape[a]).product();
                NoisyMeasurement {
                    attrs: attrs.clone(),
                    values: (0..cells)
                        .map(|k| 50.0 * vals[(i * 31 + k) % vals.len()].clamp(-3.0, 3.0).abs())
                        .collect(),
                    sigma: 1.0 + i as f64,
                }
            })
            .collect();
        let opts = EstimationOptions {
            iterations: iters,
            fit_threads: 1,
        };
        let sequential = estimate(&shape, &measurements, opts).unwrap();
        let parallel = estimate(
            &shape,
            &measurements,
            EstimationOptions { fit_threads: threads, ..opts },
        )
        .unwrap();
        for (c, (a, b)) in parallel
            .calibrated()
            .beliefs
            .iter()
            .zip(&sequential.calibrated().beliefs)
            .enumerate()
        {
            prop_assert!(
                bits_eq(a.log_values(), b.log_values()),
                "fit_threads={} diverged from sequential at clique {}",
                threads, c
            );
        }
    }
}

/// The lee2021 MST model at quick scale: nine attributes of 120, 120,
/// 100 ×5, 60 and 60 values, the tree's eight pairs and all nine one-way
/// marginals, with noisy counts (some negative).
fn lee2021_mst_measurements() -> (Vec<usize>, Vec<NoisyMeasurement>) {
    let domain = vec![120usize, 120, 100, 100, 100, 100, 100, 60, 60];
    let pairs = [
        [0, 1],
        [0, 3],
        [0, 5],
        [0, 6],
        [1, 2],
        [1, 7],
        [1, 8],
        [4, 6],
    ];
    let sets = pairs
        .iter()
        .map(|p| p.to_vec())
        .chain((0..9).map(|a| vec![a]));
    let ms = sets
        .enumerate()
        .map(|(i, attrs)| {
            let cells: usize = attrs.iter().map(|&a| domain[a]).product();
            NoisyMeasurement {
                values: (0..cells)
                    .map(|k| 30.0 + 40.0 * ((k * 7 + i) as f64 * 0.13).sin())
                    .collect(),
                sigma: 3.0 + i as f64,
                attrs,
            }
        })
        .collect();
    (domain, ms)
}

/// Mirror descent at lee2021's widths ≡ the naive oracle, bit for bit, at
/// one and two fit threads. The tree's cliques hold 7,200–14,400 cells
/// under a degree-6 root, so messages, beliefs, target marginals and the
/// gradient lift all run over long stride-0 and stride-1 runs.
#[test]
fn estimate_matches_naive_bitwise_at_lee2021_widths() {
    let (domain, ms) = lee2021_mst_measurements();
    let sets: Vec<Vec<usize>> = ms.iter().map(|m| m.attrs.clone()).collect();
    let tree = JunctionTree::build(&domain, &sets, CLIQUE_CELL_LIMIT).unwrap();
    let cells: Vec<usize> = (0..tree.cliques().len())
        .map(|c| tree.clique_shape(c).iter().product())
        .collect();
    assert_eq!(cells.iter().min(), Some(&7_200));
    assert_eq!(cells.iter().max(), Some(&14_400));
    let degree = (0..cells.len()).map(|c| tree.neighbors(c).len()).max();
    assert_eq!(degree, Some(6));

    let opts = EstimationOptions {
        iterations: 3,
        fit_threads: 1,
    };
    let naive = estimate_naive(&domain, &ms, opts).unwrap();
    for fit_threads in [1, 2] {
        let fast = estimate(
            &domain,
            &ms,
            EstimationOptions {
                fit_threads,
                ..opts
            },
        )
        .unwrap();
        let pairs = fast
            .calibrated()
            .beliefs
            .iter()
            .zip(&naive.calibrated().beliefs);
        for (c, (a, b)) in pairs.enumerate() {
            assert!(
                bits_eq(a.log_values(), b.log_values()),
                "fit_threads={fit_threads}: estimate diverged from naive at clique {c}"
            );
        }
    }
}

/// Chain measurements over a small domain (the shape of the MST hot path).
fn chain_measurements() -> (Vec<usize>, Vec<NoisyMeasurement>) {
    let domain = vec![3usize, 2, 4, 2];
    let mut ms = Vec::new();
    for a in 0..domain.len() - 1 {
        let cells = domain[a] * domain[a + 1];
        ms.push(NoisyMeasurement {
            attrs: vec![a, a + 1],
            values: (0..cells).map(|k| 40.0 + 13.0 * (k as f64).sin()).collect(),
            sigma: 2.0,
        });
    }
    (domain, ms)
}

/// The acceptance criterion of the stride-kernel rewrite: once the
/// estimation buffers are warm, *extra mirror-descent iterations allocate
/// no factor buffers at all*. Doubling the iteration count must leave the
/// thread-local allocation counter delta exactly unchanged.
#[test]
fn mirror_descent_iterations_allocate_nothing_after_warmup() {
    let (domain, ms) = chain_measurements();
    let run = |iterations: usize| -> u64 {
        let opts = EstimationOptions {
            iterations,
            fit_threads: 1,
        };
        let before = factor_buffer_allocs();
        let model = estimate(&domain, &ms, opts).unwrap();
        let after = factor_buffer_allocs();
        // Keep the model alive through the measurement so drops can't hide
        // allocator traffic (the counter only tracks allocations anyway).
        assert!(!model.calibrated().beliefs.is_empty());
        after - before
    };
    // Warm up thread-local state, then compare 30 vs 120 iterations.
    run(1);
    let short = run(30);
    let long = run(120);
    assert_eq!(
        short, long,
        "mirror-descent iterations performed factor-buffer allocations \
         (30 iters: {short} allocs, 120 iters: {long} allocs)"
    );
}

/// Same property through the public sampling entry point used by the
/// synthesizers: fit + sampler construction allocates a fixed number of
/// factor buffers regardless of iteration count.
#[test]
fn fit_allocations_are_independent_of_iteration_count() {
    let (domain, ms) = chain_measurements();
    let allocs_at = |iters: usize| -> u64 {
        let opts = EstimationOptions {
            iterations: iters,
            fit_threads: 1,
        };
        let before = factor_buffer_allocs();
        let model = estimate(&domain, &ms, opts).unwrap();
        let sampler = synrd_pgm::TreeSampler::new(&model).unwrap();
        let _ = sampler;
        factor_buffer_allocs() - before
    };
    allocs_at(1);
    assert_eq!(allocs_at(20), allocs_at(80));
}
