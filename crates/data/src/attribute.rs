//! Attribute descriptions: every variable in SynRD is discrete.
//!
//! The marginal-based synthesizers in the paper (MST, AIM, PrivMRF, PrivBayes)
//! operate on fully discretized data; continuous variables in the source
//! studies are binned once by the study generators, so the "real" analysis and
//! the synthetic analysis share exactly the same encoding.

use crate::error::{DataError, Result};

/// How the codes of an attribute should be interpreted by statistics code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Unordered categories (race, region, ...). No numeric interpretation by
    /// default; means over these are meaningless.
    Categorical,
    /// Ordered categories with a numeric score per code (Likert scales, binned
    /// continuous variables, counts).
    Ordinal,
    /// Two categories, conventionally 0 = no / 1 = yes. Numeric value is the
    /// code itself, so the mean is a proportion.
    Binary,
}

/// A single discrete variable: its name, category labels, and (optionally) the
/// numeric value each code maps to when the variable is used in arithmetic
/// (means, regressions, correlations).
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    name: String,
    kind: AttrKind,
    categories: Vec<String>,
    /// `numeric_values[code]` is the numeric interpretation of `code`.
    /// `None` means "use the code itself" for ordinal/binary attributes and
    /// "no numeric interpretation" for categorical ones.
    numeric_values: Option<Vec<f64>>,
}

impl Attribute {
    /// An unordered categorical attribute with the given labels.
    pub fn categorical(name: impl Into<String>, categories: Vec<String>) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Categorical,
            categories,
            numeric_values: None,
        }
    }

    /// Convenience: categorical attribute from `&str` labels.
    pub fn categorical_from(name: impl Into<String>, categories: &[&str]) -> Self {
        Self::categorical(name, categories.iter().map(|s| s.to_string()).collect())
    }

    /// An ordered attribute whose numeric value is the code itself
    /// (0, 1, 2, ...). Suitable for counts and Likert scales.
    pub fn ordinal(name: impl Into<String>, cardinality: usize) -> Self {
        let categories = (0..cardinality).map(|i| i.to_string()).collect();
        Attribute {
            name: name.into(),
            kind: AttrKind::Ordinal,
            categories,
            numeric_values: None,
        }
    }

    /// An ordered attribute with explicit numeric scores per code, e.g. bin
    /// midpoints of a binned continuous variable.
    pub fn ordinal_scored(name: impl Into<String>, scores: Vec<f64>) -> Self {
        let categories = scores.iter().map(|v| format!("{v}")).collect();
        Attribute {
            name: name.into(),
            kind: AttrKind::Ordinal,
            categories,
            numeric_values: Some(scores),
        }
    }

    /// A binned continuous attribute: `bins` equal-width bins covering
    /// `[lo, hi]`, scored at bin midpoints.
    pub fn binned(name: impl Into<String>, lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "binned attribute needs at least one bin");
        assert!(hi > lo, "binned attribute needs hi > lo");
        let width = (hi - lo) / bins as f64;
        let scores = (0..bins).map(|i| lo + width * (i as f64 + 0.5)).collect();
        Self::ordinal_scored(name, scores)
    }

    /// A yes/no attribute; code 1 means "yes".
    pub fn binary(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Binary,
            categories: vec!["no".to_string(), "yes".to_string()],
            numeric_values: None,
        }
    }

    /// Reassemble an attribute from its serialized parts — the inverse of
    /// [`Attribute::categories`] / [`Attribute::numeric_values`], used by
    /// the fit-cache codec to round-trip domains exactly.
    ///
    /// # Errors
    /// [`DataError::CodeOutOfRange`] when `categories` is empty or
    /// `numeric_values` does not align with the categories one-to-one.
    pub fn from_parts(
        name: impl Into<String>,
        kind: AttrKind,
        categories: Vec<String>,
        numeric_values: Option<Vec<f64>>,
    ) -> Result<Self> {
        let name = name.into();
        if categories.is_empty() {
            return Err(DataError::CodeOutOfRange {
                attribute: name,
                code: 0,
                cardinality: 0,
            });
        }
        if let Some(values) = &numeric_values {
            if values.len() != categories.len() {
                return Err(DataError::CodeOutOfRange {
                    attribute: name,
                    code: values.len() as u32,
                    cardinality: categories.len(),
                });
            }
        }
        Ok(Attribute {
            name,
            kind,
            categories,
            numeric_values,
        })
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Category labels, code order.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Explicit per-code numeric scores, when set (see
    /// [`Attribute::numeric`] for the interpretation of `None`).
    pub fn numeric_values(&self) -> Option<&[f64]> {
        self.numeric_values.as_deref()
    }

    /// Interpretation of the codes.
    pub fn kind(&self) -> AttrKind {
        self.kind
    }

    /// Number of categories (domain size of this attribute).
    pub fn cardinality(&self) -> usize {
        self.categories.len()
    }

    /// Label for a code, if in range.
    pub fn label(&self, code: u32) -> Option<&str> {
        self.categories.get(code as usize).map(|s| s.as_str())
    }

    /// Whether this attribute participates in numeric statistics
    /// (means, skewness, outlier counting). Categorical attributes do not.
    pub fn is_numeric(&self) -> bool {
        !matches!(self.kind, AttrKind::Categorical)
    }

    /// Numeric value of a code.
    ///
    /// # Errors
    /// Returns [`DataError::NotNumeric`] for categorical attributes and
    /// [`DataError::CodeOutOfRange`] for out-of-range codes.
    pub fn numeric(&self, code: u32) -> Result<f64> {
        if !self.is_numeric() {
            return Err(DataError::NotNumeric(self.name.clone()));
        }
        if code as usize >= self.cardinality() {
            return Err(DataError::CodeOutOfRange {
                attribute: self.name.clone(),
                code,
                cardinality: self.cardinality(),
            });
        }
        Ok(match &self.numeric_values {
            Some(values) => values[code as usize],
            None => f64::from(code),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_has_no_numeric_interpretation() {
        let race = Attribute::categorical_from("race", &["white", "black", "hispanic"]);
        assert_eq!(race.cardinality(), 3);
        assert!(!race.is_numeric());
        assert!(matches!(race.numeric(0), Err(DataError::NotNumeric(_))));
        assert_eq!(race.label(2), Some("hispanic"));
    }

    #[test]
    fn ordinal_defaults_to_code_values() {
        let likert = Attribute::ordinal("agreement", 5);
        assert_eq!(likert.numeric(3).unwrap(), 3.0);
        assert!(likert.numeric(5).is_err());
    }

    #[test]
    fn binned_scores_are_midpoints() {
        let age = Attribute::binned("age", 0.0, 100.0, 10);
        assert_eq!(age.cardinality(), 10);
        assert!((age.numeric(0).unwrap() - 5.0).abs() < 1e-12);
        assert!((age.numeric(9).unwrap() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn binary_mean_is_proportion() {
        let b = Attribute::binary("obese");
        assert_eq!(b.cardinality(), 2);
        assert_eq!(b.numeric(1).unwrap(), 1.0);
        assert_eq!(b.label(0), Some("no"));
    }
}
