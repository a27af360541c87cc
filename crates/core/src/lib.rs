//! # synrd — epistemic parity as an evaluation metric for differential privacy
//!
//! A Rust reproduction of Rosenblatt et al., *"Epistemic Parity:
//! Reproducibility as an Evaluation Metric for Differential Privacy"*
//! (VLDB 2023) — the SynRD benchmark.
//!
//! The benchmark asks: **would a published paper's conclusions change had
//! the authors used DP synthetic data?** It answers by re-running each
//! paper's findings on synthetic data from six state-of-the-art DP
//! synthesizers and measuring the fraction of trials in which each finding
//! survives (its *epistemic parity*).
//!
//! ```no_run
//! use synrd::benchmark::{run_paper, BenchmarkConfig};
//! use synrd::publication::publication_by_id;
//! use synrd::report::render_fig3_block;
//!
//! let paper = publication_by_id("saw2018").expect("registered paper");
//! let config = BenchmarkConfig::quick();
//! let report = run_paper(paper.as_ref(), &config).expect("benchmark run");
//! println!("{}", render_fig3_block(&report));
//! ```
//!
//! Modules:
//! * [`finding`] — findings as computable statistics + checks (§4.1);
//! * [`publication`] / [`papers`] — the eight benchmark papers (§5.2);
//! * [`benchmark`] — the k × B × ε × synthesizer grid driver (§4.2);
//! * [`parity`] — aggregation into the Figure 4 series;
//! * [`visual`] — qualitative visual findings (Figure 1, §7.2);
//! * [`report`] — text renderings of Figures 3/4 and Tables 1/2.

pub mod benchmark;
pub mod error;
pub mod finding;
pub mod papers;
pub mod parity;
pub mod publication;
pub mod report;
pub mod visual;

pub use benchmark::{
    assemble_report, fits_performed, paper_epsilons, run_grid_sharded_with_stores, run_paper,
    run_paper_with_stores, BenchmarkConfig, CellOutcome, CellStatus, CellStore, FitStore,
    PaperReport, Shard, ShardSummary,
};
pub use error::{Result, SynrdError};
pub use finding::{Check, Finding, FindingType};
pub use parity::{aggregate, never_reproduced, paper_summary, AggregateSeries};
pub use publication::{all_publications, publication_by_id, Publication};
pub use visual::VisualFinding;
