//! The fitted-state sampler cache (PGM synthesizers) must be invisible in
//! the outputs and visible in the construction counter: repeated `sample`
//! calls build the flattened `TreeSampler` tables at most once per fitted
//! model, and every draw is bit-identical to the old rebuild-per-draw
//! behavior.
//!
//! Both tests build samplers, and the construction counter is process-wide,
//! so they serialize on a mutex: the oracle's samplers would otherwise land
//! in the other test's delta.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use synrd_data::{Attribute, Dataset, Domain};
use synrd_dp::{derive_seed, Privacy};
use synrd_pgm::{samplers_built, TreeSampler};
use synrd_synth::{Aim, Mst, PrivMrf, Synthesizer};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn chain_data(n: usize) -> Dataset {
    let domain = Domain::new(vec![
        Attribute::binary("a"),
        Attribute::binary("b"),
        Attribute::binary("c"),
    ]);
    let mut rng = StdRng::seed_from_u64(3);
    let mut ds = Dataset::with_capacity(domain, n);
    for _ in 0..n {
        let a = u32::from(rng.gen::<f64>() < 0.5);
        let b = if rng.gen::<f64>() < 0.9 { a } else { 1 - a };
        let c = if rng.gen::<f64>() < 0.9 { b } else { 1 - b };
        ds.push_row(&[a, b, c]).unwrap();
    }
    ds
}

fn columns(ds: &Dataset) -> Vec<Vec<u32>> {
    (0..ds.n_attrs())
        .map(|a| ds.decode_column(a).unwrap())
        .collect()
}

/// Bit-identity: the cached sampler must reproduce the retired
/// rebuild-per-draw loop exactly, bootstrap draw by bootstrap draw.
#[test]
fn cached_sampler_is_bit_identical_to_rebuild_per_draw() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let data = chain_data(3_000);
    let mut synth = Mst::default();
    synth
        .fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 11)
        .unwrap();
    let model = synth.model().unwrap();
    for draw_seed in [0u64, 1, 2, 7, 123] {
        // The old per-draw path: a fresh sampler for every bootstrap draw.
        let oracle = TreeSampler::new(model).unwrap();
        let mut rng = StdRng::seed_from_u64(derive_seed(draw_seed, "mst-sample"));
        let expected = oracle.sample_columns(data.n_rows(), &mut rng);
        let got = synth.sample(data.n_rows(), draw_seed).unwrap();
        assert_eq!(columns(&got), expected, "draw seed {draw_seed}");
    }
}

/// At-most-once construction, for each of the three PGM synthesizers.
#[test]
fn repeated_draws_construct_the_sampler_at_most_once() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let data = chain_data(2_000);
    let synths: Vec<Box<dyn Synthesizer>> = vec![
        Box::new(Aim::default()),
        Box::new(Mst::default()),
        Box::new(PrivMrf::default()),
    ];
    for mut synth in synths {
        let name = synth.name();
        synth
            .fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 5)
            .unwrap();
        let before = samplers_built();
        let first = synth.sample(500, 41).unwrap();
        for seed in 42..46 {
            synth.sample(500, seed).unwrap();
        }
        let built = samplers_built() - before;
        assert_eq!(built, 1, "{name}: five draws must build one sampler");
        // Same seed replays to the same rows through the cached sampler.
        let replay = synth.sample(500, 41).unwrap();
        assert_eq!(columns(&first), columns(&replay), "{name}");
    }
}
