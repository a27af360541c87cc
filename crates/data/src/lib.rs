//! # synrd-data — tabular substrate for the SynRD epistemic-parity benchmark
//!
//! This crate provides everything the benchmark needs to represent and probe
//! discrete tabular data:
//!
//! * [`Attribute`] / [`Domain`] — fully discretized schemas (the encoding all
//!   marginal-based DP synthesizers consume);
//! * [`Dataset`] — column-major, bit-packed code storage (see
//!   [`PackedColumn`]), with projection, filtering and resampling;
//! * [`Marginal`] — dense contingency tables with mixed-radix indexing, plus
//!   empirical [`mutual_information`];
//! * [`MarginalEngine`] — the batched, cached, parallel counting engine the
//!   synthesizer selection loops run on (see `engine`);
//! * [`metafeatures`] — the Table 1 dataset characterization (outliers,
//!   mutual information, skewness, sparsity);
//! * [`generators`] — deterministic synthetic populations standing in for the
//!   eight restricted-access ICPSR paper datasets and the UCI Adult/Mushroom
//!   comparison datasets (see the README's "Departures from the paper").

pub mod attribute;
pub mod dataset;
pub mod digest;
pub mod domain;
pub mod engine;
pub mod error;
pub mod generators;
pub mod marginal;
pub mod metafeatures;
pub mod packed;

pub use attribute::{AttrKind, Attribute};
pub use dataset::{Dataset, RowRef};
pub use digest::{fnv1a64, Fnv1a};
pub use domain::Domain;
pub use engine::{marginal_counts_performed, MarginalCache, MarginalEngine};
pub use error::{DataError, Result};
pub use generators::BenchmarkDataset;
pub use marginal::{mutual_information, Marginal, DEFAULT_CELL_LIMIT};
pub use metafeatures::{meta_features, MeanStd, MetaFeatures};
pub use packed::PackedColumn;
