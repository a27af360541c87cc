//! # synrd-store — the persistent result store
//!
//! PR 1 made every grid cell a pure function of
//! `(master seed, paper, synthesizer, ε)` via `synrd_dp::grid_seed`; this
//! crate turns that purity into infrastructure:
//!
//! * [`json`] / [`parse`](mod@parse) — a hand-rolled, dependency-free **canonical
//!   JSON** writer and recursive-descent parser (the build environment has
//!   no crates.io, so no serde). Floats round-trip bit-for-bit, including
//!   the NaN/∞ values of crosshatched cells; equal values always serialize
//!   to equal bytes.
//! * [`codec`] — the [`JsonCodec`] encoders of [`synrd::CellOutcome`],
//!   [`synrd::PaperReport`], [`synrd::AggregateSeries`] and
//!   [`synrd::BenchmarkConfig`]. Only what the store reads back also
//!   decodes ([`JsonDecode`]): the cell outcome and the fitted state.
//!   Reports, `config.json` and `fig4_series.json` are written and never
//!   read back.
//! * [`fitted`] — the codec of [`synrd_synth::FittedState`]: one document
//!   per fit that states each fact once. The state's domain fixes every
//!   cardinality, so no belief, table or output layout repeats it.
//! * [`store`] — [`store::DiskStore`], one content-addressed on-disk store
//!   with two keyspaces under the same `--out-dir`: finished cells
//!   ([`DiskCellCache`], a [`synrd::CellStore`]) and fitted states keyed by
//!   dataset content ([`DiskFitCache`], a [`synrd::benchmark::FitStore`]),
//!   so the grid never reruns a cell or refits a model a run already
//!   stored. A store is read directly (`--resume`) or through a
//!   [`Session`] that serves back only what this handle wrote.
//!   [`merge_shard_dirs`] recombines sharded runs into a store that
//!   [`synrd::benchmark::assemble_report`] rebuilds full reports from,
//!   bit-identical to a monolithic run.
//!
//! The intended flow for incremental / distributed evaluation:
//!
//! ```text
//! machine i of n:  fig3 --out-dir shard-i --resume --shard i/n
//! anywhere:        fig3 --out-dir merged --merge-shards shard-0,...,shard-n-1
//! rerun anytime:   fig3 --out-dir merged --resume        # zero fits
//! ```

pub mod codec;
pub mod digest;
pub mod fitted;
pub mod json;
pub mod parse;
pub mod store;

pub use codec::{JsonCodec, JsonDecode};
pub use digest::{fnv1a64, hex16, Fnv1a};
pub use json::JsonValue;
pub use parse::parse;
/// The [`Session`] view under its cell-store name: write-only in effect.
pub use store::Session as WriteOnly;
/// The [`Session`] view under its fit-store name.
pub use store::Session as SessionFits;
pub use store::{
    cell_digest, config_fingerprint, fit_digest, fit_fingerprint, merge_shard_dirs, CacheStats,
    Cells, DiskCellCache, DiskFitCache, DiskStore, Fits, Keyspace, Session,
};

use std::fmt;

/// Everything that can go wrong reading a store.
#[derive(Debug)]
pub enum StoreError {
    /// The text is not valid (canonical-dialect) JSON.
    Parse {
        /// Byte offset of the first problem.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON is well-formed but does not have the expected shape.
    Codec(String),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            StoreError::Codec(message) => write!(f, "JSON shape error: {message}"),
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
