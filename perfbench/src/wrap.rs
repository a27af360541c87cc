//! Wrappers around the seams the grid driver already calls: a
//! [`Publication`] whose findings time the inner evaluation, a [`CellStore`]
//! whose `load`/`save` mark a cell's start and end, and a [`FitStore`] where
//! a `load` miss followed by `save` brackets one fit.
//!
//! The wrappers always count (synthetic evaluations and their errors, cells,
//! fit-store traffic) and time each cell, because failure accounting and the
//! per-cell latency need those in every run; they record spans only when the
//! probe carries a tracer. They pass
//! every call through unchanged, so a wrapped run reports exactly what an
//! unwrapped one does.

use crate::trace::Tracer;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use synrd::benchmark::{CellOutcome, CellStore, FitStore};
use synrd::{Finding, Publication};
use synrd_data::{BenchmarkDataset, Dataset};
use synrd_synth::{FittedState, SynthKind};

thread_local! {
    /// When the grid cell this thread is running started (between the cell
    /// store's `load` miss and its `save`); evaluations inside a cell run on
    /// synthetic data.
    static CELL_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Counts gathered by the wrappers of one run.
#[derive(Debug, Default)]
pub struct Counts {
    pub cells: AtomicU64,
    pub evals: AtomicU64,
    pub eval_errors: AtomicU64,
    pub fit_hits: AtomicU64,
    pub fit_misses: AtomicU64,
    pub fit_saves: AtomicU64,
}

impl Counts {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the wrappers of one run report into.
#[derive(Default)]
pub struct Probe {
    pub tracer: Option<Tracer>,
    pub counts: Counts,
    /// Wall-clock seconds of every computed cell.
    pub cell_secs: Mutex<Vec<f64>>,
    next_cell: AtomicU64,
}

impl Probe {
    pub fn traced() -> Probe {
        Probe {
            tracer: Some(Tracer::default()),
            ..Probe::default()
        }
    }

    fn span<R>(&self, name: &'static str, label: &'static str, body: impl FnOnce() -> R) -> R {
        match &self.tracer {
            Some(t) => {
                t.open(name, label, None);
                let out = body();
                t.close(name);
                out
            }
            None => body(),
        }
    }
}

/// A publication whose data generation and finding evaluations are observed.
pub struct ProbedPublication {
    inner: Box<dyn Publication>,
    probe: Arc<Probe>,
}

impl ProbedPublication {
    pub fn new(inner: Box<dyn Publication>, probe: Arc<Probe>) -> ProbedPublication {
        ProbedPublication { inner, probe }
    }
}

impl Publication for ProbedPublication {
    fn dataset(&self) -> BenchmarkDataset {
        self.inner.dataset()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn findings(&self) -> Vec<Finding> {
        self.inner
            .findings()
            .into_iter()
            .map(|inner| {
                let (id, name, kind, check) = (inner.id, inner.name, inner.kind, inner.check);
                let probe = Arc::clone(&self.probe);
                Finding::new(
                    id,
                    name,
                    kind,
                    check,
                    Box::new(move |data: &Dataset| {
                        let synthetic = CELL_START.with(Cell::get).is_some();
                        let span = if synthetic {
                            "finding.eval"
                        } else {
                            "finding.control"
                        };
                        let out = probe.span(span, "", || inner.evaluate(data));
                        if synthetic {
                            Counts::bump(&probe.counts.evals);
                            if out.is_err() {
                                Counts::bump(&probe.counts.eval_errors);
                            }
                        }
                        out
                    }),
                )
            })
            .collect()
    }

    fn visual(&self) -> Option<synrd::VisualFinding> {
        self.inner.visual()
    }

    fn generate(&self, n: usize, seed: u64) -> Dataset {
        self.probe
            .span("data.generate", "", || self.inner.generate(n, seed))
    }
}

/// A cell store whose `load` opens a cell and whose `save` closes it.
pub struct ProbedCells<'a> {
    pub inner: &'a dyn CellStore,
    pub probe: &'a Probe,
}

impl CellStore for ProbedCells<'_> {
    fn load(&self, paper_id: &str, kind: SynthKind, epsilon: f64) -> Option<CellOutcome> {
        CELL_START.with(|c| c.set(Some(Instant::now())));
        let id = self.probe.next_cell.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.probe.tracer {
            t.open("core.cell", kind.name(), Some(id));
        }
        let hit = self.inner.load(paper_id, kind, epsilon);
        if hit.is_some() {
            CELL_START.with(|c| c.set(None));
            if let Some(t) = &self.probe.tracer {
                t.close("core.cell");
            }
        }
        hit
    }

    fn save(&self, paper_id: &str, kind: SynthKind, epsilon: f64, cell: &CellOutcome) {
        if let Some(t) = &self.probe.tracer {
            t.close_above("core.cell");
        }
        self.probe.span("store.cell_save", kind.name(), || {
            self.inner.save(paper_id, kind, epsilon, cell)
        });
        if let Some(t) = &self.probe.tracer {
            t.close("core.cell");
        }
        if let Some(start) = CELL_START.with(Cell::take) {
            let secs = start.elapsed().as_secs_f64();
            self.probe
                .cell_secs
                .lock()
                .expect("cell times poisoned")
                .push(secs);
        }
        Counts::bump(&self.probe.counts.cells);
    }
}

/// A fit store where a `load` miss opens a fit span and `save` closes it;
/// the time from a fit's end (or a load hit) to the next boundary is the
/// seed's draws.
pub struct ProbedFits<'a> {
    pub inner: &'a dyn FitStore,
    pub probe: &'a Probe,
}

impl FitStore for ProbedFits<'_> {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        if let Some(t) = &self.probe.tracer {
            t.close_above("core.cell");
        }
        let state = self.probe.span("store.fit_load", kind.name(), || {
            self.inner.load(dataset_digest, kind, epsilon, seed_index)
        });
        let (counter, next) = match state {
            Some(_) => (&self.probe.counts.fit_hits, "synth.draw"),
            None => (&self.probe.counts.fit_misses, "synth.fit"),
        };
        Counts::bump(counter);
        if let Some(t) = &self.probe.tracer {
            t.open(next, kind.name(), None);
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
        if let Some(t) = &self.probe.tracer {
            t.close_above("core.cell");
        }
        self.probe.span("store.fit_save", kind.name(), || {
            self.inner
                .save(dataset_digest, kind, epsilon, seed_index, state)
        });
        Counts::bump(&self.probe.counts.fit_saves);
        if let Some(t) = &self.probe.tracer {
            t.open("synth.draw", kind.name(), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use synrd::benchmark::{run_paper_with_stores, BenchmarkConfig};
    use synrd::publication_by_id;

    struct NoCells;

    impl CellStore for NoCells {
        fn load(&self, _: &str, _: SynthKind, _: f64) -> Option<CellOutcome> {
            None
        }

        fn save(&self, _: &str, _: SynthKind, _: f64, _: &CellOutcome) {}
    }

    type FitKey = (u64, &'static str, u64, usize);

    #[derive(Default)]
    struct MemFits(Mutex<HashMap<FitKey, FittedState>>);

    impl FitStore for MemFits {
        fn load(&self, digest: u64, kind: SynthKind, eps: f64, seed: usize) -> Option<FittedState> {
            let map = self.0.lock().expect("fit map poisoned");
            map.get(&(digest, kind.name(), eps.to_bits(), seed))
                .cloned()
        }

        fn save(&self, digest: u64, kind: SynthKind, eps: f64, seed: usize, state: &FittedState) {
            let mut map = self.0.lock().expect("fit map poisoned");
            map.insert((digest, kind.name(), eps.to_bits(), seed), state.clone());
        }
    }

    fn tiny() -> BenchmarkConfig {
        BenchmarkConfig {
            epsilons: vec![1.0],
            seeds: 2,
            bootstraps: 1,
            data_scale: 0.01,
            min_rows: 300,
            threads: 2,
            synthesizers: vec![SynthKind::Mst, SynthKind::PrivBayes],
            ..BenchmarkConfig::quick()
        }
    }

    #[test]
    fn wrapped_run_reports_exactly_what_an_unwrapped_one_does() {
        let config = tiny();
        let paper = publication_by_id("saw2018").expect("registered paper");
        let plain = run_paper_with_stores(
            paper.as_ref(),
            &config,
            Some(&NoCells),
            Some(&MemFits::default()),
        )
        .expect("unwrapped run");

        let probe = Arc::new(Probe::traced());
        let wrapped = ProbedPublication::new(paper, Arc::clone(&probe));
        let fits = MemFits::default();
        let cells = ProbedCells {
            inner: &NoCells,
            probe: &probe,
        };
        let probed_fits = ProbedFits {
            inner: &fits,
            probe: &probe,
        };
        for pass in 0..2 {
            let report = run_paper_with_stores(&wrapped, &config, Some(&cells), Some(&probed_fits))
                .expect("wrapped run");
            assert!(plain.bitwise_eq(&report), "pass {pass} differs");
        }
        drop(wrapped);
        let probe = Arc::try_unwrap(probe).ok().expect("wrappers dropped");
        let c = &probe.counts;
        // Two cells per pass, two fits per cell: the first pass fits and
        // saves, the second loads every fit.
        assert_eq!(Counts::get(&c.cells), 4);
        assert_eq!(Counts::get(&c.fit_misses), 4);
        assert_eq!(Counts::get(&c.fit_saves), 4);
        assert_eq!(Counts::get(&c.fit_hits), 4);
        assert!(Counts::get(&c.evals) > 0);
        assert_eq!(probe.cell_secs.lock().expect("cell times").len(), 4);

        let spans = probe.tracer.expect("traced probe").finish();
        let named = |n: &str| spans.iter().filter(|s| s.name == n).count();
        assert_eq!(named("core.cell"), 4);
        assert_eq!(named("synth.fit"), 4);
        assert_eq!(named("synth.draw"), 8);
        assert_eq!(named("data.generate"), 2);
        let by_id: HashMap<u64, &crate::trace::Span> = spans.iter().map(|s| (s.id, s)).collect();
        for s in spans.iter().filter(|s| s.name == "finding.eval") {
            let parent = by_id[&s.parent.expect("evaluation inside a draw")];
            assert_eq!(parent.name, "synth.draw");
        }
        assert_eq!(Counts::get(&c.evals) as usize, named("finding.eval"));
    }
}
