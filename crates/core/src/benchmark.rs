//! The benchmark driver: the k-seeds × B-bootstraps × ε-grid × synthesizer
//! evaluation loop of §4.2/§7, parallelized over (synthesizer, ε) cells
//! with rayon.
//!
//! Every trial seed is a word of a ChaCha8 keystream — see
//! [`synrd_dp::grid_seed`]. Fit seeds are keyed by
//! `(master seed, dataset content digest, synthesizer, ε)`: a fitted model
//! is a pure function of the data it saw, never of which paper asked, so
//! papers sharing a dataset share fits (and the fit cache can serve one
//! paper's fit to another bit-for-bit). Draw seeds stay keyed by
//! `(master seed, paper, synthesizer, ε)`. Either way a cell's outcome is
//! a pure function of its identity: the parallel grid is byte-identical to
//! the sequential one (asserted by `PaperReport::bitwise_eq` in the
//! integration tests), and any sub-grid rerun reproduces the full run's
//! numbers exactly.

use crate::error::{Result, SynrdError};
use crate::finding::FindingType;
use crate::publication::Publication;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use synrd_dp::grid_seed;
use synrd_synth::{FitContext, FittedState, SynthError, SynthKind, Synthesizer};

/// Process-wide count of synthesizer fits performed by the grid driver.
///
/// Purely observational: the determinism/caching tests assert that a
/// warm-cache rerun performs *zero* fits by reading this counter before and
/// after a run. Fits performed outside the grid (e.g. `fig1`'s single
/// visual-finding fit) are not counted.
static GRID_FITS: AtomicU64 = AtomicU64::new(0);

/// Total synthesizer fits the grid driver has performed in this process.
pub fn fits_performed() -> u64 {
    GRID_FITS.load(Ordering::Relaxed)
}

// The sampling-side mirror of the fit counter (total rows generated across
// every synthesizer), re-exported so grid telemetry and tests read all
// process counters from one place.
pub use synrd_synth::rows_sampled;

/// The paper's ε grid: e⁻³, e⁻², e⁻¹, e⁰, e¹, e².
pub fn paper_epsilons() -> Vec<f64> {
    (-3..=2).map(|k| (k as f64).exp()).collect()
}

/// Execution configuration.
///
/// The ML backend is deliberately *not* a field here: backends are
/// bit-identical, so every grid fit runs on the `auto` backend its
/// [`FitContext`] picks, and the config fingerprint — and therefore every
/// cached fit and result digest — stays backend-free.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// ε values to sweep.
    pub epsilons: Vec<f64>,
    /// Training seeds per (synth, ε) cell (paper: k = 10).
    pub seeds: usize,
    /// Sample draws per trained synthesizer (paper: B = 25).
    pub bootstraps: usize,
    /// Multiplier on each paper's sample size (1.0 = paper scale).
    pub data_scale: f64,
    /// Floor on the scaled sample size.
    pub min_rows: usize,
    /// Seed of the "real" data generation.
    pub data_seed: u64,
    /// Worker threads for the cell grid.
    pub threads: usize,
    /// Intra-fit thread allowance per cell, spent by mirror descent (AIM,
    /// MST, PrivMRF): `None` derives it from the core budget
    /// (`threads / live cells`, floored at 1), `Some(n)` pins it.
    ///
    /// Throughput-only, like the ML backend: every fit is bit-identical at
    /// any thread count, so this never enters the config fingerprint, the
    /// fit-cache fingerprint, or any fitted state.
    pub fit_threads: Option<usize>,
    /// Per-fit wall-clock budget (the paper's 6-hour rule); exceeding it on
    /// the first seed crosshatches the cell.
    pub fit_timeout: Option<Duration>,
    /// Restrict PrivMRF to ε = e⁰ (the paper: "too slow to be viable; we
    /// report results only for ε = e⁰").
    pub restrict_privmrf: bool,
    /// Synthesizers to run.
    pub synthesizers: Vec<SynthKind>,
}

impl BenchmarkConfig {
    /// Laptop-scale defaults: 1/10 sample sizes with a floor of 2500 rows
    /// (rare-outcome findings such as Assari's 4% mortality need enough
    /// events to be stable even under the bootstrap control), k = 3, B = 5.
    pub fn quick() -> BenchmarkConfig {
        BenchmarkConfig {
            epsilons: paper_epsilons(),
            seeds: 3,
            bootstraps: 5,
            data_scale: 0.1,
            min_rows: 2_500,
            data_seed: 20230531,
            threads: available_threads(),
            fit_threads: None,
            fit_timeout: Some(Duration::from_secs(300)),
            restrict_privmrf: true,
            synthesizers: SynthKind::ALL.to_vec(),
        }
    }

    /// The paper's full protocol: k = 10, B = 25, paper sample sizes.
    pub fn paper() -> BenchmarkConfig {
        BenchmarkConfig {
            seeds: 10,
            bootstraps: 25,
            data_scale: 1.0,
            fit_timeout: Some(Duration::from_secs(6 * 3600)),
            ..BenchmarkConfig::quick()
        }
    }

    /// Scaled sample size for a paper: `scale × n`, floored at `min_rows`
    /// but never exceeding the paper's own sample size (small papers run at
    /// full size rather than being upsampled).
    pub fn rows_for(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.data_scale).round() as usize)
            .max(self.min_rows)
            .min(paper_n)
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// Two-level core budget: the grid spends `config.threads` workers on
/// concurrent cells (level 1), and each in-flight cell receives an intra-fit
/// thread allowance carved from the same pool (level 2), which mirror
/// descent spends on its loss passes (AIM, MST, PrivMRF). With fewer cells
/// than cores the leftover cores go into those fits; with at least as many
/// cells as cores (the default 36-cell paper on at most 16 workers) every
/// fit gets one thread.
///
/// The allowance is a pure function of the config shape and the batch size —
/// never of scheduling — and intra-fit parallelism is bit-identical at any
/// thread count, so the budget can only change wall-clock time, never
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreBudget {
    total: usize,
    fixed: Option<usize>,
}

impl CoreBudget {
    /// Budget for a run: `config.threads` cores, with `config.fit_threads`
    /// optionally pinning the per-fit allowance.
    pub fn from_config(config: &BenchmarkConfig) -> CoreBudget {
        CoreBudget {
            total: config.threads.max(1),
            fixed: config.fit_threads,
        }
    }

    /// Per-fit thread allowance when `cells` cells are in the batch: the
    /// pinned count if one was configured, otherwise
    /// `total / min(total, cells)` floored at 1 (cells beyond the worker
    /// count queue rather than run, so they never dilute the allowance).
    pub fn fit_threads(&self, cells: usize) -> usize {
        match self.fixed {
            Some(n) => n.max(1),
            None => (self.total / self.total.min(cells).max(1)).max(1),
        }
    }
}

/// Why a cell has no parity numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// Parity computed normally.
    Ok,
    /// The synthesizer declined the dataset (domain too large etc.).
    Infeasible(String),
    /// The first fit exceeded the wall-clock budget.
    TimedOut,
    /// Excluded by configuration (e.g. PrivMRF off-ε cells).
    Skipped,
}

/// Result of one (synthesizer, ε) cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Parity per finding: fraction of (seed × draw) trials reproducing it.
    pub parity: Vec<f64>,
    /// Variance over seeds of the per-seed parity, per finding.
    pub seed_variance: Vec<f64>,
    /// Cell status.
    pub status: CellStatus,
    /// Wall-clock seconds of the first fit (0 when not fitted).
    pub fit_seconds: f64,
}

impl CellOutcome {
    fn unavailable(status: CellStatus, findings: usize, fit_seconds: f64) -> CellOutcome {
        CellOutcome {
            parity: vec![f64::NAN; findings],
            seed_variance: vec![f64::NAN; findings],
            status,
            fit_seconds,
        }
    }

    /// Mean parity over findings (NaN when unavailable).
    pub fn mean_parity(&self) -> f64 {
        mean_finite(&self.parity)
    }

    /// Mean seed-variance over findings.
    pub fn mean_variance(&self) -> f64 {
        mean_finite(&self.seed_variance)
    }

    /// Exact equality of the statistical payload, comparing floats by bit
    /// pattern (so NaN cells from skipped / infeasible statuses compare
    /// equal rather than poisoning the comparison). `fit_seconds` is
    /// wall-clock telemetry, not a statistic, and is deliberately excluded.
    pub fn bitwise_eq(&self, other: &CellOutcome) -> bool {
        bits_eq(&self.parity, &other.parity)
            && bits_eq(&self.seed_variance, &other.seed_variance)
            && self.status == other.status
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn mean_finite(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// Everything Figure 3 needs for one paper.
#[derive(Debug, Clone)]
pub struct PaperReport {
    /// Machine id of the paper (e.g. "saw2018").
    pub paper_id: &'static str,
    /// Citation-style name.
    pub paper_name: &'static str,
    /// (id, name, type) per finding, in id order.
    pub findings: Vec<(u32, &'static str, FindingType)>,
    /// ε grid used.
    pub epsilons: Vec<f64>,
    /// Synthesizers, row order of `cells`.
    pub synthesizers: Vec<SynthKind>,
    /// `cells[synth][eps]`.
    pub cells: Vec<Vec<CellOutcome>>,
    /// "real, bootstrap" control row: per-finding parity under resampling
    /// of the real data.
    pub control: Vec<f64>,
    /// Rows of real data used.
    pub n_rows: usize,
}

impl PaperReport {
    /// Exact equality of everything the report *claims* — findings, grid
    /// layout, per-cell parity/variance/status (bit-for-bit on floats) and
    /// the control row. Per-cell `fit_seconds` timing telemetry is excluded.
    /// This is what the parallel-vs-sequential determinism test asserts.
    pub fn bitwise_eq(&self, other: &PaperReport) -> bool {
        self.paper_id == other.paper_id
            && self.paper_name == other.paper_name
            && self.findings == other.findings
            && bits_eq(&self.epsilons, &other.epsilons)
            && self.synthesizers == other.synthesizers
            && self.cells.len() == other.cells.len()
            && self.cells.iter().zip(&other.cells).all(|(row_a, row_b)| {
                row_a.len() == row_b.len() && row_a.iter().zip(row_b).all(|(a, b)| a.bitwise_eq(b))
            })
            && bits_eq(&self.control, &other.control)
            && self.n_rows == other.n_rows
    }
}

/// A persistent store the grid driver consults before fitting a cell and
/// writes back into afterwards.
///
/// Implementations (e.g. `synrd-store`'s content-addressed disk cache) are
/// responsible for keying cells by everything that determines their outcome
/// *besides* the coordinates passed here — i.e. the [`BenchmarkConfig`]
/// fingerprint. A cell is a pure function of
/// `(config fingerprint, paper id, synthesizer, ε)`, so a correct store
/// makes reruns incremental without changing a single bit of the results.
///
/// Both methods are best-effort: `load` returning `None` means "compute it",
/// and `save` failures must not fail the run (implementations should count
/// them instead).
pub trait CellStore: Sync {
    /// A previously stored outcome for this cell, if any.
    fn load(&self, paper_id: &str, kind: SynthKind, epsilon: f64) -> Option<CellOutcome>;

    /// Persist a freshly computed outcome for this cell.
    fn save(&self, paper_id: &str, kind: SynthKind, epsilon: f64, cell: &CellOutcome);
}

/// A persistent store of *fitted models*, consulted before every individual
/// fit the way [`CellStore`] is consulted before every cell.
///
/// Fits are keyed by the **dataset content digest**
/// ([`synrd_data::Dataset::content_digest`]), not by paper id: a fitted
/// model is a pure function of `(data, privacy, fit seed)`, and fit seeds
/// are themselves dataset-keyed, so two papers over the same generated
/// dataset share every fit. Implementations key on everything else that
/// determines the fit (the master seed) internally.
///
/// Both methods are best-effort: `load` returning `None` (including for
/// corrupt or truncated entries) means "fit it", and `save` failures must
/// not fail the run.
pub trait FitStore: Sync {
    /// A previously stored fit for this coordinate, if any.
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState>;

    /// Persist a freshly fitted model for this coordinate.
    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    );
}

/// One shard of a distributed grid run: this invocation owns every global
/// cell index `g` with `g % count == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Shard `index` of `count`.
    ///
    /// # Errors
    /// `count` must be at least 1 and `index < count`.
    pub fn new(index: usize, count: usize) -> Result<Shard> {
        if count == 0 || index >= count {
            return Err(SynrdError::Config(format!(
                "invalid shard {index}/{count}: need 0 <= index < count"
            )));
        }
        Ok(Shard { index, count })
    }

    /// This shard's index.
    pub fn index(self) -> usize {
        self.index
    }

    /// Total number of shards.
    pub fn count(self) -> usize {
        self.count
    }

    /// Whether this shard owns global cell index `g`.
    pub fn owns(self, g: usize) -> bool {
        g % self.count == self.index
    }
}

/// What a sharded run did — how the global cell list split and how much of
/// this shard's share was already in the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Cells in the full (paper × synthesizer × ε) grid.
    pub cells_total: usize,
    /// Cells owned by this shard.
    pub cells_owned: usize,
    /// Owned cells computed (and stored) by this invocation.
    pub cells_computed: usize,
    /// Owned cells already present in the store.
    pub cells_cached: usize,
}

/// Per-paper ground truth shared by every execution mode: the generated
/// real dataset, the findings, and their statistics on the real data.
struct PaperGround {
    /// The paper's benchmark id — the draw-seed and cell-store key component.
    paper_id: &'static str,
    real: synrd_data::Dataset,
    findings: Vec<crate::finding::Finding>,
    real_stats: Vec<Vec<f64>>,
    n: usize,
    /// Content digest of `real` — the fit-seed/fit-cache key component.
    dataset_digest: u64,
    /// The digest as the string keying the fit-seed keystream.
    dataset_key: String,
}

/// Generate the real data and evaluate every finding on it.
///
/// # Errors
/// Every finding must evaluate (finitely) on the real data — a paper whose
/// ground truth is undefined cannot be scored for parity.
fn ground_truth(paper: &dyn Publication, config: &BenchmarkConfig) -> Result<PaperGround> {
    let n = config.rows_for(paper.dataset().paper_n());
    let real = paper.generate(n, config.data_seed);
    let findings = paper.findings();
    let mut real_stats = Vec::with_capacity(findings.len());
    for f in &findings {
        let stats = f.evaluate(&real)?;
        if stats.iter().any(|v| !v.is_finite()) {
            return Err(SynrdError::UndefinedStatistic {
                finding: f.id,
                reason: "non-finite statistic on real data".to_string(),
            });
        }
        real_stats.push(stats);
    }
    let dataset_digest = real.content_digest();
    Ok(PaperGround {
        paper_id: paper.dataset().id(),
        real,
        findings,
        real_stats,
        n,
        dataset_digest,
        dataset_key: format!("ds-{dataset_digest:016x}"),
    })
}

/// Execute `f` over `coords`, parallel when `config.threads > 1`, containing
/// worker panics as a per-paper error so a multi-paper sweep can keep going
/// (fig3/fig4 print-and-continue). Each cell's seeds come from its own
/// ChaCha8 keystream, so the schedule cannot influence the numbers;
/// `config.threads <= 1` forces the sequential path (used by tests to
/// assert bitwise equality with the parallel one).
fn execute_cells<F>(
    coords: &[(usize, usize)],
    config: &BenchmarkConfig,
    f: F,
) -> Result<Vec<CellOutcome>>
where
    F: Fn(&(usize, usize)) -> CellOutcome + Sync,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if config.threads > 1 {
            rayon::ThreadPoolBuilder::new()
                .num_threads(config.threads)
                .build()
                .expect("thread pool construction cannot fail")
                .install(|| coords.par_iter().map(&f).collect())
        } else {
            coords.iter().map(&f).collect()
        }
    }))
    .map_err(|payload| {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        SynrdError::Config(format!("worker thread panicked: {detail}"))
    })
}

/// The full (synth, ε) coordinate list in row-major order.
fn full_grid(config: &BenchmarkConfig) -> Vec<(usize, usize)> {
    (0..config.synthesizers.len())
        .flat_map(|s| (0..config.epsilons.len()).map(move |e| (s, e)))
        .collect()
}

/// Shape row-major outcomes into the `cells[synth][eps]` matrix.
fn into_rows(outcomes: Vec<CellOutcome>, config: &BenchmarkConfig) -> Vec<Vec<CellOutcome>> {
    if config.epsilons.is_empty() {
        vec![Vec::new(); config.synthesizers.len()]
    } else {
        outcomes
            .chunks(config.epsilons.len())
            .map(<[CellOutcome]>::to_vec)
            .collect()
    }
}

fn report_from(
    paper: &dyn Publication,
    config: &BenchmarkConfig,
    ground: &PaperGround,
    control: Vec<f64>,
    cells: Vec<Vec<CellOutcome>>,
) -> PaperReport {
    PaperReport {
        paper_id: paper.dataset().id(),
        paper_name: paper.name(),
        findings: ground
            .findings
            .iter()
            .map(|f| (f.id, f.name, f.kind))
            .collect(),
        epsilons: config.epsilons.clone(),
        synthesizers: config.synthesizers.clone(),
        cells,
        control,
        n_rows: ground.n,
    }
}

/// Run the full grid for one publication.
///
/// # Errors
/// Fails if a finding cannot be evaluated on the *real* data (that would
/// make parity meaningless); synthetic-side failures are folded into parity.
pub fn run_paper(paper: &dyn Publication, config: &BenchmarkConfig) -> Result<PaperReport> {
    run_paper_with_stores(paper, config, None, None)
}

/// [`run_paper`] with optional persistent stores. Each cell is looked up in
/// `store` before it runs and written back after; inside every cell that
/// runs, each individual fit is looked up in `fits` before fitting and
/// written back after. Results are bit-identical with and without either
/// store: every cell is a pure function of
/// `(master seed, paper, synthesizer, ε)` via [`synrd_dp::grid_seed`].
/// Fits are keyed by dataset content, so papers sharing a dataset and run
/// over one fit store fit each `(synthesizer, ε, seed)` once.
///
/// # Errors
/// Same contract as [`run_paper`].
pub fn run_paper_with_stores(
    paper: &dyn Publication,
    config: &BenchmarkConfig,
    store: Option<&dyn CellStore>,
    fits: Option<&dyn FitStore>,
) -> Result<PaperReport> {
    let ground = ground_truth(paper, config)?;

    // Control row: nonparametric bootstrap of the real data through the
    // same pipeline (in place of the paper's Bayesian-bootstrap control; see
    // the README's "Departures from the paper").
    let control = control_row(paper, &ground, config)?;

    let grid = full_grid(config);
    let fit_threads = CoreBudget::from_config(config).fit_threads(grid.len());
    let cell = grid_cell(&ground, config, store, store, fits, fit_threads);
    let outcomes = execute_cells(&grid, config, cell)?;
    let cells = into_rows(outcomes, config);
    Ok(report_from(paper, config, &ground, control, cells))
}

/// Compute (and persist) only the cells owned by `shard` out of the global
/// (paper × synthesizer × ε) cell list, in the fixed order given by
/// `papers`. Owned cells already present in the store are not recomputed,
/// and papers with nothing left to compute generate no data. Each computed
/// cell's fits go through `fits` as in [`run_paper_with_stores`].
///
/// Global cell indices are
/// `paper_index · (S·E) + synth_index · E + eps_index`, so the partition is
/// a pure function of `(shard, papers order, config shape)`: every cell is
/// owned by exactly one of the `n` shards, and merging the `n` shard stores
/// yields the complete grid (see `synrd-store`'s merge + `assemble_report`).
///
/// # Errors
/// Ground-truth failures propagate, as do worker panics.
pub fn run_grid_sharded_with_stores(
    papers: &[Box<dyn Publication>],
    config: &BenchmarkConfig,
    store: &dyn CellStore,
    fits: Option<&dyn FitStore>,
    shard: Shard,
) -> Result<ShardSummary> {
    let per_paper = config.synthesizers.len() * config.epsilons.len();
    let mut summary = ShardSummary {
        cells_total: per_paper * papers.len(),
        ..ShardSummary::default()
    };
    for (p_idx, paper) in papers.iter().enumerate() {
        let paper_id = paper.dataset().id();
        let owned: Vec<(usize, usize)> = full_grid(config)
            .into_iter()
            .filter(|&(s, e)| shard.owns(p_idx * per_paper + s * config.epsilons.len() + e))
            .collect();
        let owned_count = owned.len();
        summary.cells_owned += owned_count;
        let todo: Vec<(usize, usize)> = owned
            .into_iter()
            .filter(|&(s, e)| {
                store
                    .load(paper_id, config.synthesizers[s], config.epsilons[e])
                    .is_none()
            })
            .collect();
        summary.cells_cached += owned_count - todo.len();
        if todo.is_empty() {
            continue;
        }
        // Data generation and ground truth are only paid for papers that
        // actually have work in this shard.
        let ground = ground_truth(paper.as_ref(), config)?;
        let fit_threads = CoreBudget::from_config(config).fit_threads(todo.len());
        let cell = grid_cell(&ground, config, None, Some(store), fits, fit_threads);
        summary.cells_computed += execute_cells(&todo, config, cell)?.len();
    }
    Ok(summary)
}

/// Rebuild a full [`PaperReport`] purely from stored cells plus the
/// (deterministic, fit-free) ground truth and control row — the merge step
/// after sharded runs. Bit-identical to a monolithic [`run_paper`] under
/// the same config.
///
/// # Errors
/// Every cell of the grid must be present in the store; a missing cell
/// names its coordinates (usually a shard that has not run or a config
/// fingerprint mismatch).
pub fn assemble_report(
    paper: &dyn Publication,
    config: &BenchmarkConfig,
    store: &dyn CellStore,
) -> Result<PaperReport> {
    let ground = ground_truth(paper, config)?;
    let control = control_row(paper, &ground, config)?;
    let paper_id = paper.dataset().id();
    let mut cells: Vec<Vec<CellOutcome>> = Vec::with_capacity(config.synthesizers.len());
    for &kind in &config.synthesizers {
        let mut row = Vec::with_capacity(config.epsilons.len());
        for &epsilon in &config.epsilons {
            let cell = store.load(paper_id, kind, epsilon).ok_or_else(|| {
                SynrdError::Config(format!(
                    "cell missing from store: {paper_id} / {} / eps={epsilon} \
                     (did every shard run under this exact config? note that \
                     timed-out cells are never persisted — rerun the owning \
                     shard with a larger fit budget)",
                    kind.name()
                ))
            })?;
            row.push(cell);
        }
        cells.push(row);
    }
    Ok(report_from(paper, config, &ground, control, cells))
}

/// The per-cell work of every grid path: serve cell `(s_idx, e_idx)` from
/// `cached` when it holds it, otherwise run it and save it to `store`.
///
/// The sharded path passes no `cached` store: it has already filtered out
/// stored cells, before generating any data, and a second load would only
/// count a second miss per cell.
fn grid_cell<'a>(
    ground: &'a PaperGround,
    config: &'a BenchmarkConfig,
    cached: Option<&'a dyn CellStore>,
    store: Option<&'a dyn CellStore>,
    fits: Option<&'a dyn FitStore>,
    fit_threads: usize,
) -> impl Fn(&(usize, usize)) -> CellOutcome + Sync + 'a {
    move |&(s_idx, e_idx)| {
        let kind = config.synthesizers[s_idx];
        let epsilon = config.epsilons[e_idx];
        let paper_id = ground.paper_id;
        if let Some(hit) = cached.and_then(|st| st.load(paper_id, kind, epsilon)) {
            return hit;
        }
        let out = run_cell(ground, config, kind, epsilon, fits, fit_threads);
        if let Some(st) = store {
            st.save(paper_id, kind, epsilon, &out);
        }
        out
    }
}

/// One (synthesizer, ε) cell: k fits × B draws.
///
/// Fit `seed_idx` takes word `seed_idx` of the
/// `(master, dataset digest, synth, ε)` keystream — dataset-keyed, so the
/// fit (and the fit cache) is blind to which paper asked. Draw `b` of fit
/// `seed_idx` takes word `k + seed_idx·B + b` of the
/// `(master, paper, synth, ε)` keystream — so fit seeds do not depend on
/// `B`, and no seed is shared across cells.
///
/// With a [`FitStore`], each fit is looked up before fitting (a hit skips
/// the fit entirely and does not count in [`fits_performed`]) and written
/// back after; outcomes are bit-identical either way.
fn run_cell(
    ground: &PaperGround,
    config: &BenchmarkConfig,
    kind: SynthKind,
    epsilon: f64,
    fits: Option<&dyn FitStore>,
    fit_threads: usize,
) -> CellOutcome {
    let PaperGround {
        paper_id,
        real,
        findings,
        real_stats,
        ..
    } = ground;
    // The paper: "PrivMRF was too slow to be viable; we report results only
    // for ε = e⁰".
    if config.restrict_privmrf && kind == SynthKind::PrivMrf && (epsilon - 1.0).abs() > 1e-9 {
        return CellOutcome::unavailable(CellStatus::Skipped, findings.len(), 0.0);
    }
    let privacy = kind.native_privacy(epsilon, real.n_rows());
    let mut per_seed_parity: Vec<Vec<f64>> = Vec::with_capacity(config.seeds);
    let mut first_fit_seconds = 0.0f64;

    for seed_idx in 0..config.seeds {
        let started = Instant::now();
        // Fit-cache lookup first: a usable stored fit skips the fit (and
        // the fit counter) entirely. A state that fails to restore is
        // treated as a miss — the refit below overwrites it.
        let restored: Option<Box<dyn Synthesizer>> = fits
            .and_then(|fs| fs.load(ground.dataset_digest, kind, epsilon, seed_idx))
            .and_then(|state| {
                let mut synth = kind.build();
                synth.restore_state(state).ok().map(|()| synth)
            });
        let freshly_fitted = restored.is_none();
        let synth = match restored {
            Some(synth) => synth,
            None => {
                let mut synth = kind.build();
                let fit_seed = grid_seed(
                    config.data_seed,
                    &ground.dataset_key,
                    kind.name(),
                    epsilon,
                    seed_idx as u64,
                );
                GRID_FITS.fetch_add(1, Ordering::Relaxed);
                let ctx = FitContext::with_threads(fit_threads);
                match synth.fit_with(real, privacy, fit_seed, ctx) {
                    Ok(()) => {}
                    Err(SynthError::Infeasible { reason }) => {
                        return CellOutcome::unavailable(
                            CellStatus::Infeasible(reason),
                            findings.len(),
                            started.elapsed().as_secs_f64(),
                        );
                    }
                    Err(_) => {
                        // Non-feasibility fit failure: count as zero parity
                        // for this seed rather than crashing the grid.
                        per_seed_parity.push(vec![0.0; findings.len()]);
                        continue;
                    }
                }
                synth
            }
        };
        let fit_seconds = started.elapsed().as_secs_f64();
        if seed_idx == 0 {
            first_fit_seconds = fit_seconds;
            if let Some(budget) = config.fit_timeout {
                if fit_seconds > budget.as_secs_f64() {
                    return CellOutcome::unavailable(
                        CellStatus::TimedOut,
                        findings.len(),
                        fit_seconds,
                    );
                }
            }
        }
        // Persist only after the timeout verdict: a cell that times out is
        // not cached (matching the cell cache's TimedOut rule), so its fit
        // must not be served to future runs either.
        if freshly_fitted {
            if let Some(fs) = fits {
                if let Some(state) = synth.fitted_state() {
                    fs.save(ground.dataset_digest, kind, epsilon, seed_idx, &state);
                }
            }
        }

        let mut holds = vec![0.0f64; findings.len()];
        for b in 0..config.bootstraps {
            let draw_seed = grid_seed(
                config.data_seed,
                paper_id,
                kind.name(),
                epsilon,
                (config.seeds + seed_idx * config.bootstraps + b) as u64,
            );
            let Ok(sample) = synth.sample(real.n_rows(), draw_seed) else {
                continue; // counts as not reproduced for every finding
            };
            for (fi, finding) in findings.iter().enumerate() {
                let reproduced = match finding.evaluate(&sample) {
                    Ok(stats) => finding.reproduced(&real_stats[fi], &stats),
                    Err(_) => false,
                };
                if reproduced {
                    holds[fi] += 1.0;
                }
            }
        }
        per_seed_parity.push(holds.iter().map(|h| h / config.bootstraps as f64).collect());
    }
    let k = per_seed_parity.len().max(1) as f64;
    let parity: Vec<f64> = (0..findings.len())
        .map(|fi| per_seed_parity.iter().map(|s| s[fi]).sum::<f64>() / k)
        .collect();
    let seed_variance: Vec<f64> = (0..findings.len())
        .map(|fi| {
            let mean = parity[fi];
            per_seed_parity
                .iter()
                .map(|s| (s[fi] - mean).powi(2))
                .sum::<f64>()
                / k
        })
        .collect();
    CellOutcome {
        parity,
        seed_variance,
        status: CellStatus::Ok,
        fit_seconds: first_fit_seconds,
    }
}

/// The "real, bootstrap" control row.
fn control_row(
    _paper: &dyn Publication,
    ground: &PaperGround,
    config: &BenchmarkConfig,
) -> Result<Vec<f64>> {
    let PaperGround {
        real,
        findings,
        real_stats,
        ..
    } = ground;
    let replicates = (config.bootstraps * config.seeds.max(1)).max(10);
    let mut rng = synrd_dp::rng_for(config.data_seed, "bootstrap-control");
    let mut holds = vec![0.0f64; findings.len()];
    for _ in 0..replicates {
        let resample = real.bootstrap_sample(real.n_rows(), &mut rng);
        for (fi, finding) in findings.iter().enumerate() {
            let reproduced = match finding.evaluate(&resample) {
                Ok(stats) => finding.reproduced(&real_stats[fi], &stats),
                Err(_) => false,
            };
            if reproduced {
                holds[fi] += 1.0;
            }
        }
    }
    Ok(holds.iter().map(|h| h / replicates as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_grid_matches_paper() {
        let eps = paper_epsilons();
        assert_eq!(eps.len(), 6);
        assert!((eps[3] - 1.0).abs() < 1e-12); // e^0
        assert!((eps[4] - std::f64::consts::E).abs() < 1e-12);
    }

    #[test]
    fn config_scaling() {
        let config = BenchmarkConfig::quick();
        assert_eq!(config.rows_for(293_581), 29_358);
        assert_eq!(config.rows_for(20_000), 2_500); // floor
        assert_eq!(config.rows_for(1_762), 1_762); // never upsampled

        let paper = BenchmarkConfig::paper();
        assert_eq!(paper.rows_for(293_581), 293_581);
        assert_eq!(paper.seeds, 10);
        assert_eq!(paper.bootstraps, 25);
    }

    #[test]
    fn mean_parity_skips_nan() {
        let cell = CellOutcome {
            parity: vec![1.0, f64::NAN, 0.5],
            seed_variance: vec![0.0, f64::NAN, 0.0],
            status: CellStatus::Ok,
            fit_seconds: 0.0,
        };
        assert!((cell.mean_parity() - 0.75).abs() < 1e-12);
    }

    /// A stand-in paper whose finding evaluates fine on real data (ground
    /// truth + control) but panics inside the grid, to exercise the
    /// panic-containment contract of `run_paper`.
    struct PanickyPaper;

    impl crate::publication::Publication for PanickyPaper {
        fn dataset(&self) -> synrd_data::BenchmarkDataset {
            synrd_data::BenchmarkDataset::Saw2018
        }

        fn generate(&self, n: usize, seed: u64) -> synrd_data::Dataset {
            use rand::{Rng, SeedableRng};
            let domain = synrd_data::Domain::new(vec![
                synrd_data::Attribute::binary("x"),
                synrd_data::Attribute::binary("y"),
            ]);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut ds = synrd_data::Dataset::with_capacity(domain, n);
            for _ in 0..n {
                let x = u32::from(rng.gen::<f64>() < 0.5);
                let y = if rng.gen::<f64>() < 0.8 { x } else { 1 - x };
                ds.push_row(&[x, y]).unwrap();
            }
            ds
        }

        fn findings(&self) -> Vec<crate::finding::Finding> {
            use std::sync::atomic::{AtomicUsize, Ordering};
            // run_paper evaluates on real data once for ground truth and
            // `max(bootstraps × seeds, 10)` times for the control row, all
            // before the grid; with seeds = bootstraps = 1 that is 11 calls.
            // Call 12 is the first grid cell.
            const PRE_GRID_CALLS: usize = 11;
            let calls = AtomicUsize::new(0);
            vec![crate::finding::Finding::new(
                1,
                "panics inside the grid",
                FindingType::DescriptiveStatistics,
                crate::finding::Check::Tolerance { alpha: 0.5 },
                Box::new(move |ds| {
                    if calls.fetch_add(1, Ordering::Relaxed) >= PRE_GRID_CALLS {
                        panic!("boom in cell");
                    }
                    Ok(vec![ds.mean_of(0).unwrap_or(0.0)])
                }),
            )]
        }
    }

    #[test]
    fn grid_panic_is_an_error_not_an_abort() {
        // A panic in one cell must come back as Err so a multi-paper sweep
        // (fig3/fig4 print-and-continue) survives — on both grid paths. Two
        // cells, so the 4-thread run really spawns workers, and the error
        // must carry the cell's own panic message.
        for threads in [1usize, 4] {
            let config = BenchmarkConfig {
                epsilons: vec![1.0, 2.0],
                seeds: 1,
                bootstraps: 1,
                data_scale: 0.01,
                min_rows: 400,
                data_seed: 5,
                threads,
                fit_threads: None,
                fit_timeout: None,
                restrict_privmrf: true,
                synthesizers: vec![SynthKind::Mst],
            };
            let err =
                run_paper(&PanickyPaper, &config).expect_err("cell panic must surface as an error");
            assert!(
                err.to_string().contains("boom in cell"),
                "unexpected error ({threads} threads): {err}"
            );
        }
    }
}
