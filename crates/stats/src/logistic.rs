//! Logistic regression via iteratively reweighted least squares (IRLS),
//! with a small L2 ridge for separation-prone synthetic data.
//!
//! Backs the odds-ratio findings (Assari & Bazargan, Fairman) and serves as
//! one of Jeong et al.'s three classifiers.

use crate::error::{Result, StatsError};
use crate::linalg::{inverse_spd, solve_spd, Matrix};

/// A fitted logistic model (coefficients on the logit scale).
#[derive(Debug, Clone)]
pub struct LogisticFit {
    /// Coefficients, in design-column order (index 0 = intercept when the
    /// design was built with [`Matrix::design_with_intercept`]).
    pub coefficients: Vec<f64>,
    /// Wald standard errors.
    pub std_errors: Vec<f64>,
    /// IRLS iterations used.
    pub iterations: usize,
    /// Observations.
    pub n: usize,
}

impl LogisticFit {
    /// Predicted probabilities for a design matrix.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok(x.matvec(&self.coefficients)?
            .into_iter()
            .map(|eta| 1.0 / (1.0 + (-eta).exp()))
            .collect())
    }
}

/// Options for the IRLS fit.
#[derive(Debug, Clone, Copy)]
pub struct LogisticOptions {
    /// Maximum IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the max coefficient change.
    pub tol: f64,
    /// L2 ridge added to the information matrix (guards against separation,
    /// common on small noisy synthetic subsets).
    pub ridge: f64,
}

impl Default for LogisticOptions {
    fn default() -> Self {
        LogisticOptions {
            max_iter: 60,
            tol: 1e-8,
            ridge: 1e-6,
        }
    }
}

/// Fit P(y=1|x) = σ(Xβ) by ridge-stabilized IRLS.
///
/// # Errors
/// Dimension errors, non-0/1 responses, or no convergence.
pub fn logistic(x: &Matrix, y: &[f64], options: LogisticOptions) -> Result<LogisticFit> {
    let n = x.n_rows();
    let k = x.n_cols();
    if y.len() != n {
        return Err(StatsError::LengthMismatch {
            left: y.len(),
            right: n,
        });
    }
    if n <= k {
        return Err(StatsError::TooFewObservations {
            needed: k + 1,
            got: n,
        });
    }
    for &v in y {
        if v != 0.0 && v != 1.0 {
            return Err(StatsError::InvalidParameter {
                name: "response",
                value: v,
            });
        }
    }

    let mut beta = vec![0.0; k];
    let mut iterations = 0;
    for iter in 0..options.max_iter {
        iterations = iter + 1;
        let eta = x.matvec(&beta)?;
        let mu: Vec<f64> = eta.iter().map(|e| 1.0 / (1.0 + (-e).exp())).collect();
        // IRLS weights w = μ(1−μ), clamped away from zero to keep the
        // information matrix well-conditioned under separation.
        let w: Vec<f64> = mu.iter().map(|m| (m * (1.0 - m)).max(1e-10)).collect();
        // Working response z = η + (y − μ)/w.
        let z: Vec<f64> = (0..n).map(|i| eta[i] + (y[i] - mu[i]) / w[i]).collect();

        let mut info = x.gram(Some(&w))?;
        for j in 0..k {
            info.set(j, j, info.at(j, j) + options.ridge);
        }
        let rhs = x.gram_rhs(&z, Some(&w))?;
        let new_beta = solve_spd(&info, &rhs)?;

        let delta = beta
            .iter()
            .zip(&new_beta)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        beta = new_beta;
        if delta < options.tol {
            // Standard errors from the final information matrix.
            let cov = inverse_spd(&info)?;
            let std_errors = (0..k).map(|j| cov.at(j, j).max(0.0).sqrt()).collect();
            return Ok(LogisticFit {
                coefficients: beta,
                std_errors,
                iterations,
                n,
            });
        }
    }
    Err(StatsError::NoConvergence { iterations })
}

/// Convenience: logistic regression of binary `y` on predictor columns with
/// an intercept, default options.
pub fn logistic_columns(columns: &[Vec<f64>], y: &[f64]) -> Result<LogisticFit> {
    let x = Matrix::design_with_intercept(columns)?;
    logistic(&x, y, LogisticOptions::default())
}

/// Unadjusted odds ratio from a 2×2 table with Haldane–Anscombe 0.5
/// correction: OR = (a·d)/(b·c) over exposure × outcome counts.
pub fn odds_ratio_2x2(
    exposed_yes: f64,
    exposed_no: f64,
    unexposed_yes: f64,
    unexposed_no: f64,
) -> f64 {
    let (a, b, c, d) = (
        exposed_yes + 0.5,
        exposed_no + 0.5,
        unexposed_yes + 0.5,
        unexposed_no + 0.5,
    );
    (a * d) / (b * c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_planted_logit() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 20_000;
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let y: Vec<f64> = x1
            .iter()
            .map(|&x| {
                let p = 1.0 / (1.0 + (-(-0.5 + 1.5 * x)).exp());
                f64::from(rng.gen::<f64>() < p)
            })
            .collect();
        let fit = logistic_columns(&[x1], &y).unwrap();
        assert!(
            (fit.coefficients[0] + 0.5).abs() < 0.08,
            "{:?}",
            fit.coefficients
        );
        assert!(
            (fit.coefficients[1] - 1.5).abs() < 0.12,
            "{:?}",
            fit.coefficients
        );
        assert!(fit.coefficients[1] / fit.std_errors[1] > 10.0, "Wald z");
    }

    #[test]
    fn survives_perfect_separation_via_ridge() {
        // x < 0 => y = 0, x > 0 => y = 1 (perfectly separable).
        let x: Vec<f64> = (-10..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| f64::from(v > 0.0)).collect();
        let fit = logistic_columns(&[x], &y);
        // Must not blow up; the ridge bounds the coefficients.
        let fit = fit.unwrap();
        assert!(fit.coefficients[1].is_finite());
        assert!(fit.coefficients[1] > 0.0);
    }

    #[test]
    fn predictions_are_probabilities() {
        let x: Vec<f64> = (0..100).map(|i| i as f64 / 50.0 - 1.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| f64::from(v > 0.1)).collect();
        let design = Matrix::design_with_intercept(&[x]).unwrap();
        let fit = logistic(&design, &y, LogisticOptions::default()).unwrap();
        for p in fit.predict_proba(&design).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn rejects_non_binary_response() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert!(matches!(
            logistic_columns(&[x], &[0.0, 1.0, 2.0, 0.0]),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn odds_ratio_2x2_direction() {
        // Exposure strongly associated with outcome.
        let or = odds_ratio_2x2(90.0, 10.0, 30.0, 70.0);
        assert!(or > 10.0);
        // Null association ~ 1.
        let null = odds_ratio_2x2(50.0, 50.0, 50.0, 50.0);
        assert!((null - 1.0).abs() < 0.05);
    }
}
