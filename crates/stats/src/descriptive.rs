//! Descriptive statistics: means, variances and quantiles.
//!
//! These back the paper's *Descriptive Statistics* finding type (8 findings,
//! including the hard ones #4 and #39).

use crate::error::{Result, StatsError};

/// Arithmetic mean; NaN on empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Unbiased sample variance (n−1 denominator).
///
/// # Errors
/// [`StatsError::TooFewObservations`] with fewer than 2 values.
pub fn variance(values: &[f64]) -> Result<f64> {
    if values.len() < 2 {
        return Err(StatsError::TooFewObservations {
            needed: 2,
            got: values.len(),
        });
    }
    let m = mean(values);
    Ok(values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64)
}

/// Linear-interpolation quantile (type 7). Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] * (1.0 - (pos - lo as f64)) + sorted[hi] * (pos - lo as f64)
    }
}

/// Median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&v) - 2.5).abs() < 1e-12);
        assert!((variance(&v).unwrap() - 5.0 / 3.0).abs() < 1e-12);
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((iqr(&v) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn too_few_observations() {
        assert!(matches!(
            variance(&[1.0]),
            Err(StatsError::TooFewObservations { .. })
        ));
    }
}
