//! Error taxonomy for the ML substrate.

use std::fmt;

/// Errors from model training and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Features and labels disagree in length.
    LengthMismatch { left: usize, right: usize },
    /// Not enough rows to train or split.
    TooFewRows { needed: usize, got: usize },
    /// Labels must be 0/1.
    NonBinaryLabel(f64),
    /// Rows have inconsistent feature counts.
    RaggedFeatures,
    /// A hyperparameter is out of range.
    InvalidParameter { name: &'static str, value: f64 },
    /// A serialized network snapshot contains no layers.
    EmptyNetwork,
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            MlError::TooFewRows { needed, got } => {
                write!(f, "too few rows: needed {needed}, got {got}")
            }
            MlError::NonBinaryLabel(v) => write!(f, "labels must be 0/1, got {v}"),
            MlError::RaggedFeatures => write!(f, "rows have inconsistent feature counts"),
            MlError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            MlError::EmptyNetwork => write!(f, "network snapshot has no layers"),
        }
    }
}

impl std::error::Error for MlError {}

/// Convenience alias used throughout the ML crate.
pub type Result<T> = std::result::Result<T, MlError>;

/// Validate a supervised dataset: consistent feature arity, binary labels.
pub(crate) fn validate_xy(x: &[Vec<f64>], y: &[f64]) -> Result<usize> {
    if x.len() != y.len() {
        return Err(MlError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.is_empty() {
        return Err(MlError::TooFewRows { needed: 1, got: 0 });
    }
    let d = x[0].len();
    if x.iter().any(|r| r.len() != d) {
        return Err(MlError::RaggedFeatures);
    }
    if let Some(&bad) = y.iter().find(|&&v| v != 0.0 && v != 1.0) {
        return Err(MlError::NonBinaryLabel(bad));
    }
    Ok(d)
}
