//! The two-proportion z-test.
//!
//! Findings in the benchmark papers frequently assert that a gap is
//! "statistically significant"; `examples/false_discovery.rs` instantiates
//! that language with this test.

use crate::error::{Result, StatsError};
use crate::special::normal_cdf;

/// Outcome of a two-sided test.
#[derive(Debug, Clone, Copy)]
pub struct TestResult {
    /// The z statistic.
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl TestResult {
    /// Significance at a level.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Two-proportion z-test (pooled variance).
///
/// # Errors
/// Zero-sized groups.
pub fn two_proportion_z(p1: f64, n1: usize, p2: f64, n2: usize) -> Result<TestResult> {
    if n1 == 0 || n2 == 0 {
        return Err(StatsError::TooFewObservations {
            needed: 1,
            got: n1.min(n2),
        });
    }
    let (n1f, n2f) = (n1 as f64, n2 as f64);
    let pooled = (p1 * n1f + p2 * n2f) / (n1f + n2f);
    let se = (pooled * (1.0 - pooled) * (1.0 / n1f + 1.0 / n2f)).sqrt();
    let z = if se > 0.0 { (p1 - p2) / se } else { 0.0 };
    Ok(TestResult {
        statistic: z,
        p_value: 2.0 * (1.0 - normal_cdf(z.abs())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportion_test_detects_gap() {
        let t = two_proportion_z(0.30, 2000, 0.20, 2000).unwrap();
        assert!(t.significant(0.001), "p = {}", t.p_value);
        let null = two_proportion_z(0.25, 500, 0.25, 500).unwrap();
        assert!(!null.significant(0.05));
    }

    #[test]
    fn input_validation() {
        assert!(two_proportion_z(0.5, 0, 0.5, 10).is_err());
    }
}
