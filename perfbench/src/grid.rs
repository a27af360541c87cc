//! The grid workloads: sweeps through `run_paper_with_stores` with a
//! `DiskCellCache` and a `DiskFitCache`, the way `fig3 --out-dir` runs them
//! (a fresh sweep writes cells through `WriteOnly` and shares fits through
//! `SessionFits`; a re-analysis reads both stores as `--resume` does).

use crate::stats::median;
use crate::trace::{self, Span};
use crate::wrap::{Counts, Probe, ProbedCells, ProbedFits, ProbedPublication};
use crate::{dir_bytes, Args, Outcome};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use synrd::benchmark::{
    fits_performed, rows_sampled, run_paper_with_stores, BenchmarkConfig, CellStatus, CellStore,
    FitStore, PaperReport,
};
use synrd::{publication_by_id, Publication};
use synrd_store::{fnv1a64, hex16, DiskCellCache, DiskFitCache, JsonCodec, SessionFits, WriteOnly};
use synrd_synth::SynthKind;

/// Worker threads of every grid workload, fixed so a run does the same work
/// on any host.
pub const THREADS: usize = 2;

/// One grid workload.
pub struct GridSpec {
    pub papers: &'static [&'static str],
    pub synthesizers: &'static [SynthKind],
    /// ε values as powers of e.
    pub epsilon_exponents: &'static [i32],
    pub seeds: usize,
    pub bootstraps: usize,
    /// Re-analysis: set-up fills the fit store with a sweep at this many
    /// bootstraps, and the timed sweep reruns every cell at `bootstraps`
    /// with every fit loaded from disk.
    pub warm_from: Option<usize>,
    /// Digest of the reports at seed 0 (`fit_seconds` zeroed).
    pub pinned_digest: u64,
    /// Seconds one sweep takes on a 2-core host: a run makes
    /// `--seconds / sweep_s` sweeps (at least two), the same number on every
    /// build of the program.
    pub sweep_s: f64,
}

/// A first sweep over four small papers into a fresh store: many short,
/// fit-dominated cells, each fit with a one-thread allowance. assari2019 is
/// left out because its finding 7 fails to converge on some synthetic draws,
/// which would count as failed operations; PrivMRF because its fit time
/// swings up to eightfold with the data seed (0.5–4.4 s on pierce2019),
/// which alone spread wall time by a quarter across seeds.
pub const GRID_COLD: GridSpec = GridSpec {
    papers: &["saw2018", "fruiht2018", "pierce2019", "iverson2021"],
    synthesizers: &[
        SynthKind::Aim,
        SynthKind::Mst,
        SynthKind::PrivBayes,
        SynthKind::PateCtgan,
        SynthKind::Gem,
    ],
    epsilon_exponents: &[-2, 0, 2],
    seeds: 1,
    bootstraps: 2,
    warm_from: None,
    pinned_digest: 0x00b5_79d8_e4c1_0643,
    sweep_s: 6.5,
};

/// One lee2021 cell, so the whole two-core budget goes into each fit over
/// lee2021's wide attributes (60–120 bins, pair cliques of up to 14 400
/// cells). MST rather than AIM: one AIM fit on lee2021 takes about 85 s on a
/// 2-core host, longer than a benchmark run may take.
pub const FIT_WIDE: GridSpec = GridSpec {
    papers: &["lee2021"],
    synthesizers: &[SynthKind::Mst],
    epsilon_exponents: &[0],
    seeds: 2,
    bootstraps: 5,
    warm_from: None,
    pinned_digest: 0x158e_80b4_d7f6_5e54,
    sweep_s: 3.5,
};

/// Re-analysis of jeong2021 and fairman2019 after B changes: every fit is
/// loaded, so finding evaluation and sampling dominate. Only the two
/// synthesizers feasible on both datasets: an infeasible cell stores no fit,
/// so a re-analysis would attempt it again.
pub const GRID_WARM: GridSpec = GridSpec {
    papers: &["jeong2021", "fairman2019"],
    synthesizers: &[SynthKind::PateCtgan, SynthKind::Gem],
    epsilon_exponents: &[-1, 1],
    seeds: 1,
    bootstraps: 10,
    warm_from: Some(1),
    pinned_digest: 0x500a_03b4_d488_ef5c,
    sweep_s: 5.0,
};

pub fn config(spec: &GridSpec, seed: u64, bootstraps: usize) -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: spec
            .epsilon_exponents
            .iter()
            .map(|&k| f64::from(k).exp())
            .collect(),
        seeds: spec.seeds,
        bootstraps,
        data_seed: crate::data_seed(seed),
        threads: THREADS,
        synthesizers: spec.synthesizers.to_vec(),
        ..BenchmarkConfig::quick()
    }
}

/// Canonical-JSON digest of a sweep's reports with `fit_seconds` zeroed.
pub fn reports_digest(reports: &[PaperReport]) -> u64 {
    let mut text = String::new();
    for report in reports {
        let mut report = report.clone();
        for cell in report.cells.iter_mut().flatten() {
            cell.fit_seconds = 0.0;
        }
        text.push_str(&report.to_json_text());
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// What one sweep did.
pub struct Sweep {
    pub reports: Vec<PaperReport>,
    pub paper_errors: u64,
    pub paper_secs: Vec<f64>,
    pub wall: f64,
    pub fits: u64,
    pub disk_fit_misses: u64,
    pub rows: u64,
    pub counts: Counts,
    pub cell_secs: Vec<f64>,
    pub spans: Option<Vec<Span>>,
}

impl Sweep {
    fn timed_out(&self) -> u64 {
        self.reports
            .iter()
            .flat_map(|r| r.cells.iter().flatten())
            .filter(|c| c.status == CellStatus::TimedOut)
            .count() as u64
    }

    /// (attempted, failed): papers, cells and synthetic evaluations.
    pub fn operations(&self) -> (u64, u64) {
        let c = &self.counts;
        let attempted =
            self.paper_secs.len() as u64 + Counts::get(&c.cells) + Counts::get(&c.evals);
        let failed = self.paper_errors + self.timed_out() + Counts::get(&c.eval_errors);
        (attempted, failed)
    }
}

/// Run every paper of `spec` once, with stores under `cells_dir` and
/// `fits_dir`. `resume` reads both stores; otherwise cells are write-only
/// and fits are shared within the sweep only.
pub fn sweep(
    spec: &GridSpec,
    config: &BenchmarkConfig,
    cells_dir: &Path,
    fits_dir: &Path,
    resume: bool,
    traced: bool,
) -> Result<Sweep, String> {
    let cells = DiskCellCache::open(cells_dir, config).map_err(|e| format!("cell store: {e}"))?;
    let fits = DiskFitCache::open(fits_dir, config).map_err(|e| format!("fit store: {e}"))?;
    let probe = Arc::new(if traced {
        Probe::traced()
    } else {
        Probe::default()
    });
    let write_only = WriteOnly(&cells);
    let session = SessionFits::new(&fits);
    let (cell_store, fit_store): (&dyn CellStore, &dyn FitStore) = if resume {
        (&cells, &fits)
    } else {
        (&write_only, &session)
    };
    let probed_cells = ProbedCells {
        inner: cell_store,
        probe: &probe,
    };
    let probed_fits = ProbedFits {
        inner: fit_store,
        probe: &probe,
    };
    let papers: Vec<ProbedPublication> = spec
        .papers
        .iter()
        .map(|id| {
            let paper = publication_by_id(id).ok_or_else(|| format!("unknown paper '{id}'"))?;
            Ok(ProbedPublication::new(paper, Arc::clone(&probe)))
        })
        .collect::<Result<_, String>>()?;

    let (fits_before, rows_before) = (fits_performed(), rows_sampled());
    let started = Instant::now();
    let mut reports = Vec::new();
    let mut paper_secs = Vec::new();
    let mut paper_errors = 0;
    for paper in &papers {
        let t = Instant::now();
        if let Some(tracer) = &probe.tracer {
            tracer.open("core.paper", "", None);
        }
        let result = run_paper_with_stores(paper, config, Some(&probed_cells), Some(&probed_fits));
        if let Some(tracer) = &probe.tracer {
            tracer.close("core.paper");
        }
        paper_secs.push(t.elapsed().as_secs_f64());
        match result {
            Ok(report) => {
                let _ = cells.write_report(&report);
                reports.push(report);
            }
            Err(e) => {
                eprintln!("{} failed: {e}", paper.name());
                paper_errors += 1;
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let (fits_done, rows) = (fits_performed() - fits_before, rows_sampled() - rows_before);
    drop(papers);
    let probe = Arc::try_unwrap(probe)
        .ok()
        .expect("every publication wrapper was dropped");
    Ok(Sweep {
        reports,
        paper_errors,
        paper_secs,
        wall,
        fits: fits_done,
        disk_fit_misses: fits.stats().misses,
        rows,
        counts: probe.counts,
        cell_secs: probe.cell_secs.into_inner().expect("cell times poisoned"),
        spans: probe.tracer.map(trace::Tracer::finish),
    })
}

/// Set-up of one repetition: for a fresh sweep, generate each paper's real
/// dataset; for a re-analysis, fill a fit store under `dir` with a sweep.
fn set_up(spec: &GridSpec, seed: u64, dir: &Path) -> Result<(), String> {
    match spec.warm_from {
        None => {
            let config = config(spec, seed, spec.bootstraps);
            for id in spec.papers {
                let paper = publication_by_id(id).ok_or_else(|| format!("unknown paper '{id}'"))?;
                let data =
                    paper.generate(config.rows_for(paper.dataset().paper_n()), config.data_seed);
                std::hint::black_box(data.content_digest());
            }
            Ok(())
        }
        Some(bootstraps) => {
            let config = config(spec, seed, bootstraps);
            let filled = sweep(spec, &config, dir, dir, false, false)?;
            if filled.paper_errors > 0 {
                return Err("set-up sweep failed".to_string());
            }
            Ok(())
        }
    }
}

pub fn run(spec: &GridSpec, args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fit_root = crate::repeat_setup(args, work, &mut out, |dir| set_up(spec, args.seed, dir))?;
    let config = config(spec, args.seed, spec.bootstraps);
    let warm = spec.warm_from.is_some();

    let mut run_sweep = |i: usize, traced: bool| -> Result<Sweep, String> {
        let dir = work.join(format!("sweep{i}"));
        let fits_dir = if warm {
            fit_root.as_path()
        } else {
            dir.as_path()
        };
        let s = sweep(spec, &config, &dir, fits_dir, warm, traced)?;
        let (attempted, failed) = s.operations();
        out.attempted += attempted;
        out.failed += failed;
        if warm && (s.fits != 0 || s.disk_fit_misses != 0 || Counts::get(&s.counts.fit_misses) != 0)
        {
            out.fail_gate(format!(
                "re-analysis fitted: {} fits, {} fit-store misses",
                s.fits, s.disk_fit_misses
            ));
        }
        out.fit_store_bytes = dir_bytes(&fits_dir.join("fits"));
        if !warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(s)
    };

    let sweeps: Vec<Sweep> = if args.trace {
        // Untraced sweeps on both sides of the traced one, so the overhead
        // is not confounded with the process warming up.
        let before = run_sweep(0, false)?;
        let traced = run_sweep(1, true)?;
        let after = run_sweep(2, false)?;
        let same = before.reports.len() == traced.reports.len()
            && before
                .reports
                .iter()
                .zip(&traced.reports)
                .all(|(a, b)| a.bitwise_eq(b));
        if !same {
            out.fail_gate("traced reports differ from untraced ones".to_string());
        }
        out.metric(
            "trace.overhead_s",
            traced.wall - (before.wall + after.wall) / 2.0,
        );
        let spans = traced.spans.as_deref().expect("traced sweep has spans");
        layer_metrics(&mut out, spans, &traced);
        vec![before, traced, after]
    } else {
        let count = ((args.seconds as f64 / spec.sweep_s).round() as usize).max(2);
        (0..count)
            .map(|i| run_sweep(i, false))
            .collect::<Result<_, _>>()?
    };

    let digests: Vec<u64> = sweeps.iter().map(|s| reports_digest(&s.reports)).collect();
    if digests.iter().any(|&d| d != digests[0]) {
        out.fail_gate("sweeps of one run disagree".to_string());
    }
    out.note(format!(
        "report digest {} (seed {})",
        hex16(digests[0]),
        args.seed
    ));
    if args.seed == 0 && digests[0] != spec.pinned_digest {
        out.fail_gate(format!(
            "report digest {} differs from the pinned {}",
            hex16(digests[0]),
            hex16(spec.pinned_digest)
        ));
    }

    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall).collect();
    let cell_secs: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.cell_secs.iter().copied())
        .collect();
    let medians: Vec<f64> = sweeps.iter().map(|s| median(&s.cell_secs)).collect();
    let tails: Vec<f64> = sweeps
        .iter()
        .map(|s| slowest_tenth_mean(&s.cell_secs))
        .collect();
    let cells = Counts::get(&sweeps[0].counts.cells) as f64;
    // Every grid cell fits or loads its models before its draws, so every
    // cell is a first touch. A sweep has too few cells for a p99, so the
    // tail is the mean of its slowest tenth: the stragglers that set when
    // their papers finish, averaged so one cell's hiccup does not set it.
    // Both percentiles are taken per sweep and then medianed over sweeps,
    // so a sweep slowed by the host as a whole does not move them.
    let mean = cell_secs.iter().sum::<f64>() / cell_secs.len().max(1) as f64;
    out.metric("wall_s", median(&walls));
    out.metric("latency_p50_ms", median(&medians) * 1e3);
    out.metric("latency_p99_ms", median(&tails) * 1e3);
    out.metric("throughput_rps", cells / median(&walls));
    out.metric("first_touch_mean_ms", mean * 1e3);
    out.note(format!(
        "sweep walls {walls:.3?} s; cell latency over n={} cells; tail = mean of the \
         slowest tenth of each sweep's cells {tails:.3?} s",
        cell_secs.len()
    ));
    out.fit_threads = synrd::benchmark::CoreBudget::from_config(&config)
        .fit_threads(config.synthesizers.len() * config.epsilons.len());
    Ok(out)
}

/// Mean of the slowest tenth of `secs` (at least one value).
fn slowest_tenth_mean(secs: &[f64]) -> f64 {
    let mut sorted = secs.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = sorted.len().div_ceil(10).max(1);
    sorted.iter().take(k).sum::<f64>() / k as f64
}

/// Per-layer metrics of a traced sweep.
fn layer_metrics(out: &mut Outcome, spans: &[Span], sweep: &Sweep) {
    let selfs = trace::self_times(spans);
    out.metric("synth.fit_s", trace::total(spans, "synth.fit"));
    out.metric("synth.fits", trace::count(spans, "synth.fit") as f64);
    out.metric("synth.fit_max_s", trace::longest(spans, "synth.fit"));
    for kind in SynthKind::ALL {
        let secs: f64 = spans
            .iter()
            .filter(|s| s.name == "synth.fit" && s.label == kind.name())
            .map(Span::duration)
            .sum();
        out.metric(format!("synth.fit_s.{}", kind.name()), secs);
    }

    let (mut serial, mut idle) = (0.0, 0.0);
    for paper in spans.iter().filter(|s| s.name == "core.paper") {
        let cells: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "core.cell" && s.start >= paper.start && s.end <= paper.end)
            .collect();
        let first = cells.iter().map(|c| c.start).fold(paper.end, f64::min);
        let last = cells.iter().map(|c| c.end).fold(first, f64::max);
        let busy: f64 = cells.iter().map(|c| c.duration()).sum();
        serial += first - paper.start;
        idle += THREADS as f64 * (last - first) - busy;
    }
    out.metric("core.serial_s", serial);
    out.metric("core.cell_busy_s", trace::total(spans, "core.cell"));
    out.metric("core.cell_max_s", trace::longest(spans, "core.cell"));
    out.metric("core.idle_core_s", idle);

    let c = &sweep.counts;
    out.metric("finding.eval_s", trace::total(spans, "finding.eval"));
    out.metric("finding.evals", Counts::get(&c.evals) as f64);
    out.metric("finding.eval_errors", Counts::get(&c.eval_errors) as f64);
    out.metric("finding.control_s", trace::total(spans, "finding.control"));

    let draw = trace::total_self(spans, &selfs, "synth.draw");
    out.metric("synth.draw_s", draw);
    out.metric("synth.rows_sampled", sweep.rows as f64);
    out.metric(
        "synth.rows_per_s",
        if draw > 0.0 {
            sweep.rows as f64 / draw
        } else {
            0.0
        },
    );

    out.metric("store.fit_load_s", trace::total(spans, "store.fit_load"));
    out.metric("store.fit_hits", Counts::get(&c.fit_hits) as f64);
    out.metric("store.fit_misses", Counts::get(&c.fit_misses) as f64);
    out.metric("store.fit_save_s", trace::total(spans, "store.fit_save"));
    out.metric("store.fit_saves", Counts::get(&c.fit_saves) as f64);
    out.metric("store.cell_save_s", trace::total(spans, "store.cell_save"));
    out.metric("data.generate_s", trace::total(spans, "data.generate"));
    out.spans = spans.to_vec();
}

#[cfg(test)]
mod tests {
    use super::slowest_tenth_mean;

    #[test]
    fn tail_is_the_mean_of_the_slowest_tenth() {
        let secs: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(slowest_tenth_mean(&secs), 57.5);
        // Fewer than ten cells: the slowest one.
        assert_eq!(slowest_tenth_mean(&[2.0, 5.0, 1.0]), 5.0);
        assert_eq!(slowest_tenth_mean(&[3.0; 11]), 3.0);
    }
}
