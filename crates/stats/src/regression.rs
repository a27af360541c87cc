//! Ordinary least squares via the normal equations.
//!
//! Backs the paper's *Regression Between-Coefficients*, *Fixed Coefficient
//! (Sign)*, *Coefficient Difference* and *Causal Paths* finding types.

use crate::error::{Result, StatsError};
use crate::linalg::{inverse_spd, solve_spd, Matrix};

/// A fitted linear model. Coefficient 0 is the intercept when the design was
/// built with [`Matrix::design_with_intercept`].
#[derive(Debug, Clone)]
pub struct LinearFit {
    /// Estimated coefficients, in design-column order.
    pub coefficients: Vec<f64>,
    /// Standard errors of the coefficients (classical, homoscedastic).
    pub std_errors: Vec<f64>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Residual variance (SSR / (n − k)).
    pub residual_variance: f64,
    /// Observations used.
    pub n: usize,
}

impl LinearFit {
    /// t statistic of coefficient `j`.
    pub fn t_stat(&self, j: usize) -> f64 {
        self.coefficients[j] / self.std_errors[j]
    }
}

/// Fit y = Xβ by OLS.
///
/// # Errors
/// Dimension mismatches, or an unresolvably singular Gram matrix.
pub fn ols(x: &Matrix, y: &[f64]) -> Result<LinearFit> {
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
    let gram = x.gram(None)?;
    let rhs = x.gram_rhs(y, None)?;
    let coefficients = solve_spd(&gram, &rhs)?;

    // Residuals and fit quality.
    let fitted = x.matvec(&coefficients)?;
    let ybar = y.iter().sum::<f64>() / n as f64;
    let mut ssr = 0.0;
    let mut sst = 0.0;
    for r in 0..n {
        ssr += (y[r] - fitted[r]).powi(2);
        sst += (y[r] - ybar).powi(2);
    }
    let residual_variance = ssr / (n - k) as f64;
    let cov = inverse_spd(&gram)?;
    let std_errors = (0..k)
        .map(|j| (residual_variance * cov.at(j, j)).max(0.0).sqrt())
        .collect();
    let r_squared = if sst > 0.0 { 1.0 - ssr / sst } else { 0.0 };

    Ok(LinearFit {
        coefficients,
        std_errors,
        r_squared,
        residual_variance,
        n,
    })
}

/// Convenience: OLS of `y` on predictor columns with an intercept.
pub fn ols_columns(columns: &[Vec<f64>], y: &[f64]) -> Result<LinearFit> {
    let x = Matrix::design_with_intercept(columns)?;
    ols(&x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_known_coefficients() {
        // y = 2 + 3·x, exactly.
        let xcol: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = xcol.iter().map(|x| 2.0 + 3.0 * x).collect();
        let fit = ols_columns(&[xcol], &y).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[1] - 3.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn multivariate_with_noise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let n = 5000;
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let x2: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.5 * x1[i] - 1.5 * x2[i] + 0.1 * (rng.gen::<f64>() - 0.5))
            .collect();
        let fit = ols_columns(&[x1, x2], &y).unwrap();
        assert!((fit.coefficients[1] - 0.5).abs() < 0.01);
        assert!((fit.coefficients[2] + 1.5).abs() < 0.01);
        // t statistics should be overwhelming.
        assert!(fit.t_stat(1).abs() > 50.0);
    }

    #[test]
    fn rejects_underdetermined() {
        let x = Matrix::design_with_intercept(&[vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            ols(&x, &[1.0, 2.0]),
            Err(StatsError::TooFewObservations { .. })
        ));
    }
}
