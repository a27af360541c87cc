//! The base DP mechanisms: Laplace, Gaussian, and the exponential mechanism
//! via the Gumbel trick.
//!
//! All samplers take an explicit RNG so callers control determinism; privacy
//! parameters are translated to noise scales by [`crate::budget`].

use crate::budget::{gaussian_sigma, laplace_scale};
use crate::error::{DpError, Result};
use rand::Rng;

/// One standard-normal draw (Box–Muller; `rand` core has no normal sampler
/// and we avoid the extra `rand_distr` dependency).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut u1: f64 = rng.gen();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One standard Laplace draw (location 0, scale 1) via inverse CDF.
pub fn standard_laplace<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u uniform in (-0.5, 0.5]; sign(u) * ln(1 - 2|u|) inverts the CDF.
    let u: f64 = rng.gen::<f64>() - 0.5;
    let magnitude = -(1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln();
    magnitude * u.signum()
}

/// One standard Gumbel draw (location 0, scale 1).
pub fn standard_gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut u: f64 = rng.gen();
    while u <= f64::MIN_POSITIVE {
        u = rng.gen();
    }
    -(-u.ln()).ln()
}

/// Add ε-DP Laplace noise (L1 sensitivity `sensitivity`) to every entry of
/// `values` in place.
pub fn laplace_mechanism<R: Rng + ?Sized>(
    values: &mut [f64],
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> Result<()> {
    let b = laplace_scale(sensitivity, epsilon)?;
    for v in values {
        *v += b * standard_laplace(rng);
    }
    Ok(())
}

/// Add ρ-zCDP Gaussian noise (L2 sensitivity `sensitivity`) to every entry of
/// `values` in place. Returns the σ used (the estimation code needs it to
/// weight measurements).
pub fn gaussian_mechanism<R: Rng + ?Sized>(
    values: &mut [f64],
    sensitivity: f64,
    rho: f64,
    rng: &mut R,
) -> Result<f64> {
    let sigma = gaussian_sigma(sensitivity, rho)?;
    for v in values {
        *v += sigma * standard_normal(rng);
    }
    Ok(sigma)
}

/// Exponential mechanism: select the index of one candidate with probability
/// ∝ exp(ε·score / (2·sensitivity)). Implemented with the Gumbel-max trick,
/// which is exactly equivalent and needs no normalization.
///
/// # Errors
/// [`DpError::EmptyCandidates`] if `scores` is empty, and parameter errors.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    scores: &[f64],
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> Result<usize> {
    if scores.is_empty() {
        return Err(DpError::EmptyCandidates);
    }
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(DpError::InvalidParameter {
            name: "epsilon",
            value: epsilon,
        });
    }
    if !(sensitivity.is_finite() && sensitivity > 0.0) {
        return Err(DpError::InvalidParameter {
            name: "sensitivity",
            value: sensitivity,
        });
    }
    let scale = epsilon / (2.0 * sensitivity);
    let mut best = 0usize;
    let mut best_value = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        let value = s * scale + standard_gumbel(rng);
        if value > best_value {
            best_value = value;
            best = i;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_noise_is_centered_with_correct_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_laplace(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 2.0).abs() < 0.1, "var = {var}"); // Var(Lap(1)) = 2
    }

    #[test]
    fn gaussian_mechanism_reports_sigma() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut values = vec![100.0; 10_000];
        let sigma = gaussian_mechanism(&mut values, 1.0, 0.5, &mut rng).unwrap();
        assert!((sigma - 1.0).abs() < 1e-12);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 100.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn exponential_mechanism_prefers_high_scores() {
        let mut rng = StdRng::seed_from_u64(4);
        let scores = [0.0, 0.0, 10.0, 0.0];
        let mut hits = 0;
        for _ in 0..1000 {
            if exponential_mechanism(&scores, 1.0, 2.0, &mut rng).unwrap() == 2 {
                hits += 1;
            }
        }
        assert!(hits > 950, "hits = {hits}");
    }

    #[test]
    fn exponential_mechanism_is_random_at_tiny_epsilon() {
        let mut rng = StdRng::seed_from_u64(5);
        let scores = [0.0, 0.0, 10.0, 0.0];
        let mut hits = 0;
        for _ in 0..4000 {
            if exponential_mechanism(&scores, 1.0, 1e-6, &mut rng).unwrap() == 2 {
                hits += 1;
            }
        }
        // Near-uniform: expect ~1000 of 4000.
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn empty_candidates_error() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            exponential_mechanism(&[], 1.0, 1.0, &mut rng),
            Err(DpError::EmptyCandidates)
        ));
    }
}
