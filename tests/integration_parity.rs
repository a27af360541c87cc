//! End-to-end epistemic-parity runs on a reduced grid: the full pipeline
//! from data generation through synthesis to parity scoring and reporting.

use std::time::Duration;
use synrd::benchmark::{run_paper, BenchmarkConfig, CellStatus};
use synrd::parity::{aggregate, paper_summary};
use synrd::publication::publication_by_id;
use synrd::report::render_fig3_block;
use synrd_synth::SynthKind;

/// A tiny-but-real configuration: 2 ε values, 2 seeds, 2 draws, 2 synths.
fn mini_config() -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![1.0, std::f64::consts::E],
        seeds: 2,
        bootstraps: 2,
        data_scale: 0.05,
        min_rows: 1_500,
        data_seed: 99,
        threads: 4,
        fit_timeout: Some(Duration::from_secs(300)),
        synthesizers: vec![SynthKind::Mst, SynthKind::Gem],
    }
}

#[test]
fn parity_pipeline_on_fruiht() {
    let paper = publication_by_id("fruiht2018").unwrap();
    let config = mini_config();
    let report = run_paper(paper.as_ref(), &config).unwrap();

    assert_eq!(report.cells.len(), 2); // 2 synthesizers
    assert_eq!(report.cells[0].len(), 2); // 2 epsilons
    assert_eq!(report.findings.len(), 6);

    for row in &report.cells {
        for cell in row {
            assert_eq!(cell.status, CellStatus::Ok);
            for &p in &cell.parity {
                assert!((0.0..=1.0).contains(&p), "parity out of range: {p}");
            }
        }
    }
    // Fruiht is one of the papers where every synthesizer achieves high
    // parity in the paper; MST at ε=e should be near-perfect here too.
    let mst_cell = &report.cells[0][1];
    assert!(
        mst_cell.mean_parity() > 0.7,
        "MST parity on Fruiht = {:.3}",
        mst_cell.mean_parity()
    );

    // Control row: resampling the real data must reproduce nearly all
    // findings (the paper reports >97% of findings at 100%).
    let control_mean: f64 = report.control.iter().sum::<f64>() / report.control.len() as f64;
    assert!(control_mean > 0.8, "control mean = {control_mean:.3}");

    // Rendering must include every row and the control.
    let text = render_fig3_block(&report);
    assert!(text.contains("MST"));
    assert!(text.contains("GEM"));
    assert!(text.contains("bootstrap"));
}

#[test]
fn aggregation_produces_fig4_series() {
    let config = mini_config();
    let reports: Vec<_> = ["fruiht2018", "pierce2019"]
        .iter()
        .map(|id| {
            let paper = publication_by_id(id).unwrap();
            run_paper(paper.as_ref(), &config).unwrap()
        })
        .collect();
    let agg = aggregate(&reports).unwrap();
    assert_eq!(agg.epsilons.len(), 2);
    assert_eq!(agg.parity.len(), 2); // 2 synthesizers
    for (_, series) in &agg.parity {
        for v in series {
            assert!(v.is_finite());
            assert!((0.0..=1.0).contains(v));
        }
    }
    let summary = paper_summary(&reports[0]);
    assert_eq!(summary.len(), 2);
}

#[test]
fn parallel_grid_is_bitwise_identical_to_sequential() {
    // The tentpole determinism guarantee: every trial seed is a word of the
    // cell's (master, paper, synth, ε) ChaCha8 keystream, so the rayon grid
    // must reproduce the sequential grid bit-for-bit, regardless of worker
    // count or scheduling. `threads: 4` builds a 4-worker pool inside
    // run_paper, so the parallel path genuinely multi-threads even on a
    // single-CPU machine.
    let paper = publication_by_id("fruiht2018").unwrap();
    let config = BenchmarkConfig {
        seeds: 1,
        bootstraps: 2,
        min_rows: 1_000,
        ..mini_config()
    };
    let sequential = run_paper(
        paper.as_ref(),
        &BenchmarkConfig {
            threads: 1,
            ..config.clone()
        },
    )
    .unwrap();
    let parallel = run_paper(
        paper.as_ref(),
        &BenchmarkConfig {
            threads: 4,
            ..config.clone()
        },
    )
    .unwrap();
    assert!(
        parallel.bitwise_eq(&sequential),
        "parallel grid diverged from sequential:\n  sequential: {:?}\n  parallel: {:?}",
        sequential.cells,
        parallel.cells,
    );
    // And a second parallel run reproduces the first exactly (no hidden
    // entropy anywhere in the pipeline).
    let again = run_paper(
        paper.as_ref(),
        &BenchmarkConfig {
            threads: 4,
            ..config
        },
    )
    .unwrap();
    assert!(again.bitwise_eq(&parallel));
}

#[test]
fn cells_use_distinct_seed_streams() {
    // Regression test for the seed-sharing bug where every (synth, ε) cell
    // reused the same fit seed: the keystreams of two different cells must
    // differ in their first trial seed.
    use synrd_dp::grid_seed;
    let a = grid_seed(99, "fruiht2018", "MST", 1.0, 0);
    let b = grid_seed(99, "fruiht2018", "MST", std::f64::consts::E, 0);
    let c = grid_seed(99, "fruiht2018", "GEM", 1.0, 0);
    let d = grid_seed(99, "saw2018", "MST", 1.0, 0);
    assert_ne!(a, b, "epsilon must decorrelate cell seeds");
    assert_ne!(a, c, "synthesizer must decorrelate cell seeds");
    assert_ne!(a, d, "paper must decorrelate cell seeds");
}

#[test]
fn privmrf_restriction_skips_off_epsilon_cells() {
    let paper = publication_by_id("saw2018").unwrap();
    let config = BenchmarkConfig {
        synthesizers: vec![SynthKind::PrivMrf],
        epsilons: vec![(-2.0f64).exp(), 1.0],
        seeds: 1,
        bootstraps: 1,
        data_scale: 0.05,
        min_rows: 1_000,
        ..mini_config()
    };
    let report = run_paper(paper.as_ref(), &config).unwrap();
    assert_eq!(report.cells[0][0].status, CellStatus::Skipped);
    assert_eq!(report.cells[0][1].status, CellStatus::Ok);
}

#[test]
fn infeasible_cells_are_crosshatched_not_fatal() {
    let paper = publication_by_id("jeong2021").unwrap();
    let config = BenchmarkConfig {
        synthesizers: vec![SynthKind::Mst],
        epsilons: vec![1.0],
        seeds: 1,
        bootstraps: 1,
        data_scale: 0.05,
        min_rows: 800,
        ..mini_config()
    };
    let report = run_paper(paper.as_ref(), &config).unwrap();
    assert!(matches!(
        report.cells[0][0].status,
        CellStatus::Infeasible(_)
    ));
    let text = render_fig3_block(&report);
    assert!(text.contains('/'), "crosshatch missing:\n{text}");
}
