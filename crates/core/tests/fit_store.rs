//! The grid's [`FitStore`] hook: fits are keyed by dataset *content*, so
//! two papers over the same generated dataset share every
//! `(synthesizer, ε, seed)` fit — and serving a fit from the store must not
//! change a single bit of any report.
//!
//! Every test counts fits through its own store: the grid saves each fit
//! it performs, so a run that adds no saves performed no fits. (The
//! process-wide `fits_performed()` counter would also see the fits of
//! sibling tests running concurrently in this binary.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use synrd::benchmark::{run_paper_with_stores, BenchmarkConfig, CoreBudget, FitStore};
use synrd::finding::{Check, Finding, FindingType};
use synrd::Publication;
use synrd_data::{Attribute, BenchmarkDataset, Dataset, Domain};
use synrd_synth::{FittedState, SynthKind};

/// `(dataset digest, synth name, ε bits, seed index)` — a fit's identity.
type FitKey = (u64, &'static str, u64, usize);

/// In-memory fit store with hit/store counters.
#[derive(Default)]
struct MemFitStore {
    fits: Mutex<HashMap<FitKey, FittedState>>,
    hits: AtomicU64,
    stores: AtomicU64,
}

impl MemFitStore {
    /// `(saves, hits)` so far: every fit the grid performs is saved.
    fn counts(&self) -> (u64, u64) {
        (
            self.stores.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        )
    }
}

impl FitStore for MemFitStore {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        let key = (dataset_digest, kind.name(), epsilon.to_bits(), seed_index);
        let state = self.fits.lock().unwrap().get(&key).cloned();
        if state.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        state
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        let key = (dataset_digest, kind.name(), epsilon.to_bits(), seed_index);
        self.fits.lock().unwrap().insert(key, state.clone());
        self.stores.fetch_add(1, Ordering::Relaxed);
    }
}

/// A store that serves deliberately wrong-variant states: restore must
/// fail, and the grid must silently refit instead of erroring.
struct SabotagedStore(MemFitStore);

impl FitStore for SabotagedStore {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        self.0
            .load(dataset_digest, kind, epsilon, seed_index)
            .map(|state| match state {
                // Swap variants: hand PGM methods a GEM-shaped husk.
                FittedState::Pgm { domain, .. } => FittedState::Gem {
                    domain,
                    model: synrd_synth::GemState { logits: vec![] },
                },
                other => other,
            })
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        self.0
            .save(dataset_digest, kind, epsilon, seed_index, state);
    }
}

fn shared_dataset(n: usize, seed: u64) -> Dataset {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let domain = Domain::new(vec![
        Attribute::binary("x"),
        Attribute::binary("y"),
        Attribute::ordinal("z", 3),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(domain, n);
    for _ in 0..n {
        let x = u32::from(rng.gen::<f64>() < 0.4);
        let y = if rng.gen::<f64>() < 0.8 { x } else { 1 - x };
        let z = rng.gen_range(0..3);
        ds.push_row(&[x, y, z]).unwrap();
    }
    ds
}

/// Two papers over the *same* generated dataset, asking different
/// questions of it (different findings, different benchmark ids).
struct MeanPaper;
struct ProportionPaper;

impl Publication for MeanPaper {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Saw2018
    }

    fn generate(&self, n: usize, seed: u64) -> Dataset {
        shared_dataset(n, seed)
    }

    fn findings(&self) -> Vec<Finding> {
        vec![Finding::new(
            1,
            "mean of z",
            FindingType::DescriptiveStatistics,
            Check::Tolerance { alpha: 0.5 },
            Box::new(|ds| Ok(vec![ds.mean_of(2).unwrap_or(0.0)])),
        )]
    }
}

impl Publication for ProportionPaper {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Jeong2021
    }

    fn generate(&self, n: usize, seed: u64) -> Dataset {
        shared_dataset(n, seed)
    }

    fn findings(&self) -> Vec<Finding> {
        vec![Finding::new(
            1,
            "x proportion",
            FindingType::DescriptiveStatistics,
            Check::Tolerance { alpha: 0.5 },
            Box::new(|ds| Ok(vec![ds.mean_of(0).unwrap_or(0.0)])),
        )]
    }
}

fn config() -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![1.0],
        seeds: 2,
        bootstraps: 2,
        data_scale: 0.01,
        min_rows: 600,
        data_seed: 7,
        threads: 1,
        fit_timeout: None,
        synthesizers: vec![SynthKind::Mst, SynthKind::Gem],
    }
}

#[test]
fn papers_sharing_a_dataset_share_every_fit() {
    let config = config();
    let store = MemFitStore::default();
    let expected_fits = (config.seeds * config.synthesizers.len() * config.epsilons.len()) as u64;

    // Baseline (no stores): the numbers every cached run must reproduce.
    let baseline_a = run_paper_with_stores(&MeanPaper, &config, None, None).unwrap();
    let baseline_b = run_paper_with_stores(&ProportionPaper, &config, None, None).unwrap();

    // Cold paper A: every (synth, ε, seed) fit happens once and is stored.
    let report_a = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(store.counts(), (expected_fits, 0), "cold run fits");

    // Paper B shares the dataset: zero fits, everything served.
    let report_b = run_paper_with_stores(&ProportionPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(
        store.counts(),
        (expected_fits, expected_fits),
        "shared-dataset paper must refit nothing"
    );

    // Warm rerun of paper A: zero fits too.
    let report_a_warm = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(
        store.counts(),
        (expected_fits, 2 * expected_fits),
        "warm rerun fits"
    );

    // Served fits change nothing: bit-identical to the store-free runs.
    assert!(report_a.bitwise_eq(&baseline_a));
    assert!(report_a_warm.bitwise_eq(&baseline_a));
    assert!(report_b.bitwise_eq(&baseline_b));
}

#[test]
fn fit_cache_hits_across_fit_thread_counts() {
    // The intra-fit thread allowance is throughput-only and deliberately
    // absent from both `FittedState` and the fit-cache key: fits are
    // bit-identical at any thread count, so a store populated by a
    // sequential run must serve a multi-threaded run (and vice versa) with
    // zero refits and bit-identical reports. The config's two cells give
    // each fit 1 thread at `threads: 1` and 4 at `threads: 8`; MST spends
    // them in mirror descent.
    let config = config();
    assert_eq!(CoreBudget::from_config(&config).fit_threads(2), 1);
    let store = MemFitStore::default();
    let expected_fits = (config.seeds * config.synthesizers.len() * config.epsilons.len()) as u64;

    let seq_report = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(store.counts(), (expected_fits, 0));

    let mt_config = BenchmarkConfig {
        threads: 8,
        ..config
    };
    assert_eq!(CoreBudget::from_config(&mt_config).fit_threads(2), 4);
    let mt_report = run_paper_with_stores(&MeanPaper, &mt_config, None, Some(&store)).unwrap();
    assert_eq!(
        store.counts(),
        (expected_fits, expected_fits),
        "sequential fits must serve a 4-thread run"
    );
    assert!(
        mt_report.bitwise_eq(&seq_report),
        "served fits must be thread-count-independent bit for bit"
    );

    // And the reverse direction from a cold store: a 4-thread cold run must
    // produce bitwise the same states the sequential run stored.
    let cold_mt = MemFitStore::default();
    let cold_report = run_paper_with_stores(&MeanPaper, &mt_config, None, Some(&cold_mt)).unwrap();
    assert!(cold_report.bitwise_eq(&seq_report));
    let seq_fits = store.fits.lock().unwrap();
    let mt_fits = cold_mt.fits.lock().unwrap();
    assert_eq!(seq_fits.len(), mt_fits.len());
    for (key, state) in seq_fits.iter() {
        let other = &mt_fits[key];
        assert!(
            format!("{state:?}") == format!("{other:?}"),
            "fitted state for {key:?} differs across fit-thread counts"
        );
    }
}

#[test]
fn unrestorable_states_degrade_to_refits() {
    let config = config();
    let store = SabotagedStore(MemFitStore::default());
    let baseline = run_paper_with_stores(&MeanPaper, &config, None, None).unwrap();
    let cold = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    let (cold_saves, _) = store.0.counts();

    // Warm rerun: MST states come back variant-swapped and fail to
    // restore, so MST refits (and saves again); GEM states are untouched
    // and serve.
    let warm = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    let mst_fits = (config.seeds * config.epsilons.len()) as u64;
    assert_eq!(
        store.0.counts().0 - cold_saves,
        mst_fits,
        "only the sabotaged synthesizer refits"
    );
    assert!(cold.bitwise_eq(&baseline));
    assert!(warm.bitwise_eq(&baseline));
}
