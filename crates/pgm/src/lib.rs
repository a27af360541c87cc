//! # synrd-pgm — discrete graphical-model substrate (Private-PGM work-alike)
//!
//! MST, AIM and PrivMRF all parameterize a synthetic distribution through a
//! graphical model estimated from noisy marginals (McKenna et al.'s
//! Private-PGM). This crate provides that machinery from scratch:
//!
//! * [`factor`] — log-space factors with stride-kernel broadcast products and
//!   marginalization (no union scope is ever materialized on the hot path);
//! * [`junction_tree`] — min-fill triangulation + maximal cliques + maximum
//!   spanning tree with the running-intersection property;
//! * [`inference`] — Shafer–Shenoy calibration, allocation-free after
//!   warm-up via a [`workspace::CalibrationWorkspace`] built for the tree;
//! * [`estimation`] — mirror-descent fitting of clique potentials to noisy
//!   marginal measurements, with backtracking line search: [`estimate`],
//!   the one estimator, builds one workspace per fit and marginalizes each
//!   calibration once;
//! * [`sampling`] — batched, clique-major ancestral sampling from the
//!   calibrated tree (bit-identical to the retained per-row oracle), and
//!   [`assemble_chunks`], the one chunk-and-stitch harness every
//!   synthesizer's row generation runs through;
//! * [`spanning_tree`] — Kruskal maximum spanning tree / union-find (also
//!   used directly by the MST synthesizer);
//! * [`workspace`] — the scratch arena bound to one junction tree, which
//!   every calibration of that tree reuses.
//!
//! Each kernel keeps one naive oracle, compiled in every build: the
//! original allocate-per-operation factor algebra
//! ([`Factor::naive_multiply`], [`Factor::naive_marginalize_keep`],
//! [`Factor::expand`]), the calibration and mirror descent built on it
//! ([`calibrate_naive`], [`estimate_naive`]) and the per-row
//! [`NaiveSampler`]. The stride kernels, the workspace calibration and the
//! batched sampler are proven **bit-identical** to them by the proptests in
//! `tests/factor_equivalence.rs`, `tests/calibration_determinism.rs` and
//! `tests/sampling_equivalence.rs`.

#![allow(clippy::needless_range_loop)] // indexed loops are the clearer idiom in numeric kernels
pub mod error;
pub mod estimation;
pub mod factor;
pub mod inference;
pub mod junction_tree;
pub mod sampling;
pub mod spanning_tree;
pub mod workspace;

pub use error::{PgmError, Result};
pub use estimation::{
    estimate, estimate_naive, EstimationOptions, FittedModel, NoisyMeasurement, CLIQUE_CELL_LIMIT,
};
pub use factor::{factor_buffer_allocs, log_sum_exp, Factor};
pub use inference::{calibrate, calibrate_into, calibrate_naive, CalibratedTree};
pub use junction_tree::JunctionTree;
pub use sampling::{
    assemble_chunks, rows_sampled, samplers_built, search_cumulative, NaiveSampler, TreeSampler,
};
pub use spanning_tree::{maximum_spanning_tree, UnionFind};
pub use workspace::CalibrationWorkspace;
