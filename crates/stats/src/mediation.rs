//! Moderation and mediation analysis in the Preacher & Hayes (PROCESS) style,
//! approximated with OLS — the paper's own reproduction of Fruiht & Chan used
//! the same approximation since the original R macro's exact output was
//! unavailable (see the README's "Departures from the paper").

use crate::error::Result;
use crate::linalg::Matrix;
use crate::regression::{ols, LinearFit};

/// Result of a moderation analysis y ~ x + m + x·m (+ covariates).
#[derive(Debug, Clone)]
pub struct Moderation {
    /// Effect of x at m = 0.
    pub direct: f64,
    /// Effect of the moderator at x = 0.
    pub moderator: f64,
    /// Interaction coefficient (the moderation effect).
    pub interaction: f64,
    /// t statistic of the interaction.
    pub interaction_t: f64,
    /// Full fit for further inspection.
    pub fit: LinearFit,
}

/// Fit y ~ x + m + x·m + covariates and report the interaction structure.
pub fn moderation(y: &[f64], x: &[f64], m: &[f64], covariates: &[Vec<f64>]) -> Result<Moderation> {
    let interaction_col: Vec<f64> = x.iter().zip(m).map(|(a, b)| a * b).collect();
    let mut columns: Vec<Vec<f64>> = vec![x.to_vec(), m.to_vec(), interaction_col];
    columns.extend(covariates.iter().cloned());
    let design = Matrix::design_with_intercept(&columns)?;
    let fit = ols(&design, y)?;
    Ok(Moderation {
        direct: fit.coefficients[1],
        moderator: fit.coefficients[2],
        interaction: fit.coefficients[3],
        interaction_t: fit.t_stat(3),
        fit,
    })
}

/// Result of a simple mediation analysis x → mediator → y.
#[derive(Debug, Clone, Copy)]
pub struct Mediation {
    /// a path: effect of x on the mediator.
    pub a_path: f64,
    /// b path: effect of the mediator on y, controlling for x.
    pub b_path: f64,
    /// Direct effect c′ of x on y, controlling for the mediator.
    pub direct: f64,
    /// Indirect effect a·b.
    pub indirect: f64,
    /// Sobel z statistic for the indirect effect.
    pub sobel_z: f64,
}

/// Baron–Kenny / Sobel mediation: fits mediator ~ x and y ~ x + mediator.
pub fn mediation(y: &[f64], x: &[f64], mediator: &[f64]) -> Result<Mediation> {
    let design_a = Matrix::design_with_intercept(&[x.to_vec()])?;
    let fit_a = ols(&design_a, mediator)?;
    let (a, sa) = (fit_a.coefficients[1], fit_a.std_errors[1]);

    let design_b = Matrix::design_with_intercept(&[x.to_vec(), mediator.to_vec()])?;
    let fit_b = ols(&design_b, y)?;
    let direct = fit_b.coefficients[1];
    let (b, sb) = (fit_b.coefficients[2], fit_b.std_errors[2]);

    let sobel_se = (b * b * sa * sa + a * a * sb * sb).sqrt();
    let indirect = a * b;
    Ok(Mediation {
        a_path: a,
        b_path: b,
        direct,
        indirect,
        sobel_z: if sobel_se > 0.0 {
            indirect / sobel_se
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise(rng: &mut StdRng) -> f64 {
        rng.gen::<f64>() - 0.5
    }

    #[test]
    fn moderation_recovers_interaction() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 4000;
        let x: Vec<f64> = (0..n).map(|_| f64::from(rng.gen::<bool>())).collect();
        let m: Vec<f64> = (0..n).map(|_| f64::from(rng.gen::<bool>())).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.8 * x[i] + 0.5 * m[i] - 0.4 * x[i] * m[i] + noise(&mut rng))
            .collect();
        let result = moderation(&y, &x, &m, &[]).unwrap();
        assert!((result.direct - 0.8).abs() < 0.05);
        assert!((result.interaction + 0.4).abs() < 0.08);
        assert!(result.interaction_t < -4.0);
    }

    #[test]
    fn mediation_recovers_indirect_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 4000;
        let x: Vec<f64> = (0..n).map(|_| f64::from(rng.gen::<bool>())).collect();
        // x -> m with a = 0.9; m -> y with b = 0.7; direct c' = 0.2.
        let m: Vec<f64> = x.iter().map(|&xi| 0.9 * xi + noise(&mut rng)).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 0.2 * x[i] + 0.7 * m[i] + noise(&mut rng))
            .collect();
        let result = mediation(&y, &x, &m).unwrap();
        assert!((result.a_path - 0.9).abs() < 0.05);
        assert!((result.b_path - 0.7).abs() < 0.05);
        assert!((result.direct - 0.2).abs() < 0.05);
        assert!((result.indirect - 0.63).abs() < 0.07);
        assert!(result.sobel_z > 5.0);
    }
}
