//! End-to-end determinism of the persistent store:
//!
//! 1. a sharded run (n = 3) whose shard stores are merged via
//!    `merge_shard_dirs` assembles reports **bit-identical** to a
//!    monolithic `run_paper`, and
//! 2. a cache-warm rerun reproduces the cold run exactly while performing
//!    **zero** synthesizer fits (asserted via the grid's fit counter).
//!
//! The two tests share the process-wide fit counter, so they serialize on
//! a mutex rather than racing each other's deltas.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;
use synrd::benchmark::{
    assemble_report, fits_performed, run_grid_sharded_with_stores, run_paper_with_stores,
    BenchmarkConfig, Shard,
};
use synrd::publication::{publication_by_id, Publication};
use synrd_store::{merge_shard_dirs, DiskCellCache};
use synrd_synth::SynthKind;

static FIT_COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// A tiny-but-real grid: 2 papers × 2 synthesizers × 3 ε = 12 cells.
fn mini_config() -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![0.5, 1.0, std::f64::consts::E],
        seeds: 1,
        bootstraps: 2,
        data_scale: 0.05,
        min_rows: 800,
        data_seed: 99,
        threads: 4,
        fit_threads: None,
        fit_timeout: Some(Duration::from_secs(300)),
        restrict_privmrf: true,
        synthesizers: vec![SynthKind::Mst, SynthKind::Gem],
    }
}

fn papers() -> Vec<Box<dyn Publication>> {
    ["fruiht2018", "pierce2019"]
        .iter()
        .map(|id| publication_by_id(id).expect("registered paper"))
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synrd-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_run_merges_bitwise_identical_to_monolithic() {
    let _guard = FIT_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = mini_config();
    let papers = papers();

    // Monolithic reference run, no store involved.
    let monolithic: Vec<_> = papers
        .iter()
        .map(|p| run_paper_with_stores(p.as_ref(), &config, None, None).expect("monolithic run"))
        .collect();

    // Three shards into three independent store directories.
    const N: usize = 3;
    let shard_dirs: Vec<PathBuf> = (0..N).map(|i| scratch_dir(&format!("shard{i}"))).collect();
    let mut owned_total = 0;
    let mut computed_total = 0;
    for (i, dir) in shard_dirs.iter().enumerate() {
        let cache = DiskCellCache::open(dir, &config).expect("open shard store");
        let summary = run_grid_sharded_with_stores(
            &papers,
            &config,
            &cache,
            None,
            Shard::new(i, N).expect("valid shard"),
        )
        .expect("shard run");
        assert_eq!(summary.cells_total, 12);
        assert_eq!(summary.cells_cached, 0, "fresh stores cannot have hits");
        assert_eq!(summary.cells_owned, summary.cells_computed);
        owned_total += summary.cells_owned;
        computed_total += summary.cells_computed;
    }
    // The shards partition the global cell list exactly.
    assert_eq!(owned_total, 12);
    assert_eq!(computed_total, 12);

    // Merge the shard stores and assemble reports purely from cached
    // cells: no fits may happen during assembly.
    let merged_dir = scratch_dir("merged");
    let merged = merge_shard_dirs(&shard_dirs, &merged_dir, &config).expect("merge");
    let fits_before_assembly = fits_performed();
    for (paper, reference) in papers.iter().zip(&monolithic) {
        let assembled = assemble_report(paper.as_ref(), &config, &merged)
            .expect("every cell must be present after merging all shards");
        assert!(
            assembled.bitwise_eq(reference),
            "merged {} differs from monolithic run",
            reference.paper_id
        );
    }
    assert_eq!(
        fits_performed(),
        fits_before_assembly,
        "assembly must be fit-free"
    );

    // Dropping any one shard must leave a hole that assembly reports.
    let partial_dir = scratch_dir("partial");
    let partial = merge_shard_dirs(&shard_dirs[..N - 1], &partial_dir, &config).expect("merge");
    let err = papers
        .iter()
        .find_map(|p| assemble_report(p.as_ref(), &config, &partial).err())
        .expect("a missing shard must surface as a missing cell");
    assert!(err.to_string().contains("missing"), "{err}");

    for dir in shard_dirs.iter().chain([&merged_dir, &partial_dir]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn warm_cache_rerun_is_exact_and_fit_free() {
    let _guard = FIT_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = mini_config();
    let paper = publication_by_id("fruiht2018").expect("registered paper");
    let dir = scratch_dir("warm");

    // Cold run: populates the store and must actually fit synthesizers.
    let cache = DiskCellCache::open(&dir, &config).expect("open store");
    let fits_before_cold = fits_performed();
    let cold =
        run_paper_with_stores(paper.as_ref(), &config, Some(&cache), None).expect("cold run");
    let cold_fits = fits_performed() - fits_before_cold;
    assert!(cold_fits > 0, "cold run must fit synthesizers");
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.stats().stores, 6, "2 synths × 3 eps cells stored");

    // Warm rerun through a fresh handle: zero fits, bit-identical report.
    let warm_cache = DiskCellCache::open(&dir, &config).expect("reopen store");
    let fits_before_warm = fits_performed();
    let warm =
        run_paper_with_stores(paper.as_ref(), &config, Some(&warm_cache), None).expect("warm run");
    assert_eq!(
        fits_performed() - fits_before_warm,
        0,
        "warm-cache rerun must perform zero synthesizer fits"
    );
    assert!(
        warm.bitwise_eq(&cold),
        "cache-served report differs from computed report"
    );
    assert_eq!(warm_cache.stats().hits, 6);
    assert_eq!(warm_cache.stats().misses, 0);

    // A changed config must miss and recompute (fits again).
    let mut changed = mini_config();
    changed.data_seed += 1;
    let changed_cache = DiskCellCache::open(&dir, &changed).expect("reopen for new config");
    let fits_before_changed = fits_performed();
    let _ = run_paper_with_stores(paper.as_ref(), &changed, Some(&changed_cache), None)
        .expect("changed run");
    assert!(
        fits_performed() > fits_before_changed,
        "a changed config fingerprint must invalidate the cache"
    );
    assert_eq!(changed_cache.stats().hits, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
