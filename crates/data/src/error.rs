//! Error taxonomy for the data substrate.

use std::fmt;

/// Errors produced by dataset construction, projection, and marginal counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// An attribute name was looked up that does not exist in the domain.
    UnknownAttribute(String),
    /// An attribute index was out of bounds for the domain.
    AttributeIndexOutOfBounds { index: usize, len: usize },
    /// A code was out of range for the attribute's cardinality.
    CodeOutOfRange {
        attribute: String,
        code: u32,
        cardinality: usize,
    },
    /// A row had the wrong number of cells for the domain.
    RowArity { expected: usize, got: usize },
    /// Columns of a dataset had inconsistent lengths.
    RaggedColumns,
    /// A marginal over the requested attributes would be too large to materialize.
    MarginalTooLarge { cells: u128, limit: usize },
    /// Two marginals disagreed on shape where a cell-wise comparison was
    /// required (e.g. [`crate::Marginal::l1_distance`]).
    ShapeMismatch { left: Vec<usize>, right: Vec<usize> },
    /// The requested attribute set was empty where at least one attribute is required.
    EmptyAttributeSet,
    /// An attribute was repeated in a set that requires distinct attributes.
    DuplicateAttribute(usize),
    /// Numeric interpretation was requested for an attribute without one.
    NotNumeric(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            DataError::AttributeIndexOutOfBounds { index, len } => {
                write!(
                    f,
                    "attribute index {index} out of bounds for domain of {len}"
                )
            }
            DataError::CodeOutOfRange {
                attribute,
                code,
                cardinality,
            } => write!(
                f,
                "code {code} out of range for attribute `{attribute}` (cardinality {cardinality})"
            ),
            DataError::RowArity { expected, got } => {
                write!(f, "row has {got} cells, domain expects {expected}")
            }
            DataError::RaggedColumns => write!(f, "dataset columns have inconsistent lengths"),
            DataError::MarginalTooLarge { cells, limit } => {
                write!(
                    f,
                    "marginal would have {cells} cells, over the limit of {limit}"
                )
            }
            DataError::ShapeMismatch { left, right } => {
                write!(f, "marginal shapes differ: {left:?} vs {right:?}")
            }
            DataError::EmptyAttributeSet => write!(f, "attribute set must be non-empty"),
            DataError::DuplicateAttribute(idx) => {
                write!(f, "attribute index {idx} repeated in attribute set")
            }
            DataError::NotNumeric(name) => {
                write!(f, "attribute `{name}` has no numeric interpretation")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// Convenience alias used throughout the data crate.
pub type Result<T> = std::result::Result<T, DataError>;
