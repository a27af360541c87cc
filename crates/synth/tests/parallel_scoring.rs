//! The parallel exponential-mechanism scoring paths (AIM candidate
//! utilities, MST edge scores) must be **bit-identical** to the sequential
//! ones: `map_scores` collects per-candidate results in the pinned
//! candidate order and every candidate's arithmetic is independent, so
//! thread count and schedule have nothing to perturb. These tests drive
//! the exact production scoring functions over an engine-cached candidate
//! pool, sequentially and under explicit thread pools, and compare the
//! score vectors bit for bit — plus an end-to-end fit determinism check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;
use synrd_data::{Attribute, Dataset, Domain, Marginal, MarginalEngine};
use synrd_dp::Privacy;
use synrd_synth::{aim_candidate_score, map_scores, mst_edge_score, Aim, Mst, Synthesizer};

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A mildly correlated 6-attribute dataset (15 candidate pairs).
fn data(n: usize) -> Dataset {
    let domain = Domain::new(vec![
        Attribute::binary("a"),
        Attribute::ordinal("b", 3),
        Attribute::binary("c"),
        Attribute::ordinal("d", 4),
        Attribute::binary("e"),
        Attribute::ordinal("f", 3),
    ]);
    let mut rng = StdRng::seed_from_u64(21);
    let mut ds = Dataset::with_capacity(domain, n);
    for _ in 0..n {
        let a = u32::from(rng.gen::<f64>() < 0.5);
        let b = (a + u32::from(rng.gen::<f64>() < 0.4)).min(2);
        let c = if rng.gen::<f64>() < 0.8 { a } else { 1 - a };
        let d: u32 = rng.gen_range(0..4);
        let e = u32::from(rng.gen::<f64>() < 0.3);
        let f = (d % 3 + u32::from(rng.gen::<f64>() < 0.2)).min(2);
        ds.push_row(&[a, b, c, d, e, f]).unwrap();
    }
    ds
}

/// All attribute pairs of the dataset.
fn pairs(d: usize) -> Vec<Vec<usize>> {
    (0..d)
        .flat_map(|a| ((a + 1)..d).map(move |b| vec![a, b]))
        .collect()
}

#[test]
fn mst_edge_scores_parallel_bitwise_equal_sequential() {
    let ds = data(4_000);
    let d = ds.n_attrs();
    let n = ds.n_rows() as f64;
    let mut engine = MarginalEngine::new(&ds);
    engine.prefetch(&pairs(d)).unwrap();
    let one_way: Vec<Vec<f64>> = (0..d)
        .map(|a| Marginal::count(&ds, &[a]).unwrap().normalized())
        .collect();
    let edges: Vec<(usize, usize)> = (0..d)
        .flat_map(|a| ((a + 1)..d).map(move |b| (a, b)))
        .collect();
    let engine_ref = &engine;
    let one_way_ref = &one_way;
    let score = |&(a, b): &(usize, usize)| {
        let joint = engine_ref.peek(&[a, b]).expect("prefetched");
        Ok(mst_edge_score(joint, &one_way_ref[a], &one_way_ref[b], n))
    };
    let sequential = map_scores(&edges, false, score).unwrap();
    for threads in [2usize, 4, 8] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let parallel = pool.install(|| map_scores(&edges, true, score).unwrap());
        assert!(
            bits_eq(&sequential, &parallel),
            "MST edge scores diverged at {threads} threads"
        );
    }
}

#[test]
fn aim_candidate_scores_parallel_bitwise_equal_sequential() {
    let ds = data(4_000);
    let d = ds.n_attrs();
    let mut engine = MarginalEngine::new(&ds);
    let cand = pairs(d);
    engine.prefetch(&cand).unwrap();
    // A fitted model over the one-way marginals, like AIM's warm start.
    let measurements: Vec<synrd_pgm::NoisyMeasurement> = (0..d)
        .map(|a| synrd_pgm::NoisyMeasurement {
            attrs: vec![a],
            values: Marginal::count(&ds, &[a]).unwrap().counts().to_vec(),
            sigma: 1.5,
        })
        .collect();
    let shape: Vec<usize> = ds.domain().shape();
    let model = synrd_pgm::estimate(
        &shape,
        &measurements,
        synrd_pgm::EstimationOptions {
            iterations: 25,
            fit_threads: 1,
        },
    )
    .unwrap();
    let engine_ref = &engine;
    let model_ref = &model;
    let score = |attrs: &Vec<usize>| {
        let true_counts = engine_ref.peek(attrs).expect("prefetched");
        let probs = model_ref.marginal_or_independent(attrs)?;
        Ok(aim_candidate_score(true_counts, &probs, 7.3))
    };
    let sequential = map_scores(&cand, false, score).unwrap();
    for threads in [2usize, 4, 8] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let parallel = pool.install(|| map_scores(&cand, true, score).unwrap());
        assert!(
            bits_eq(&sequential, &parallel),
            "AIM candidate scores diverged at {threads} threads"
        );
    }
}

/// End to end: a whole fit + sample is bit-identical under 1 thread and
/// under an 8-thread pool — the parallel scoring (and the parallel batched
/// sampling) cannot leak schedule into the synthesis.
#[test]
fn fits_are_bit_identical_across_thread_counts() {
    let ds = data(3_000);
    let run = |threads: usize| -> (Dataset, Dataset) {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let privacy = Privacy::approx(1.0, 1e-9).unwrap();
            let mut mst = Mst::default();
            mst.fit(&ds, privacy, 11).unwrap();
            let mut aim = Aim::default();
            aim.fit(&ds, privacy, 11).unwrap();
            (
                mst.sample(20_000, 5).unwrap(),
                aim.sample(20_000, 5).unwrap(),
            )
        })
    };
    let (mst_seq, aim_seq) = run(1);
    let (mst_par, aim_par) = run(8);
    assert_eq!(mst_seq, mst_par, "MST output depends on thread count");
    assert_eq!(aim_seq, aim_par, "AIM output depends on thread count");
}
