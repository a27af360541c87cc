//! # synrd-ml — ML substrate for classifier-based findings
//!
//! Jeong et al. train three model families (logistic regression — provided
//! by `synrd-stats` — random forest, and a linear SVC) and compare fairness
//! metrics across racial groups. This crate supplies:
//!
//! * [`tree`] / [`forest`] — CART decision trees and bagged random forests;
//! * [`svm`] — linear SVC (Pegasos SGD on the hinge loss);
//! * [`metrics`](mod@metrics) — accuracy / FPR / FNR / predicted-base-rate, per group;
//! * [`split`] — train/test splitting;
//! * [`nn`] — a compact MLP with manual backprop and Adam, the neural
//!   substrate of the PATECTGAN synthesizer.

#![allow(clippy::needless_range_loop)] // indexed loops are the clearer idiom in numeric kernels
pub mod backend;
pub mod error;
pub mod forest;
pub mod metrics;
pub mod nn;
pub mod split;
pub mod svm;
pub mod tree;

pub use backend::Backend;
pub use error::{MlError, Result};
pub use forest::{ForestOptions, RandomForest};
pub use metrics::{group_metrics, metrics, Metrics};
pub use nn::{Activation, BatchWorkspace, DenseState, ForwardCache, Mlp, MlpState};
pub use split::train_test_split;
pub use svm::{LinearSvc, SvcOptions};
pub use tree::{DecisionTree, TreeOptions};
