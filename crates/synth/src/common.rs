//! Shared helpers for the synthesizers.

use crate::error::{Result, SynthError};
use crate::FittedState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, MarginalEngine};
use synrd_dp::{derive_seed, gaussian_mechanism, gaussian_sigma};
use synrd_pgm::{FittedModel, NoisyMeasurement};

/// Count the marginal of `attrs` through the fit's [`MarginalEngine`] (a
/// cache hit when a selection loop already scored the set), add ρ-zCDP
/// Gaussian noise (L2 sensitivity 1 for a disjoint histogram) to a copy of
/// the true counts, and package it for PGM estimation.
pub(crate) fn measure_gaussian(
    engine: &mut MarginalEngine<'_>,
    attrs: &[usize],
    rho: f64,
    rng: &mut StdRng,
) -> Result<NoisyMeasurement> {
    let marginal = engine.count(attrs)?;
    let mut values = marginal.counts().to_vec();
    let sigma = gaussian_mechanism(&mut values, 1.0, rho, rng)?;
    Ok(NoisyMeasurement {
        attrs: attrs.to_vec(),
        values,
        sigma,
    })
}

/// The σ a Gaussian measurement at budget ρ would carry (for planning).
pub(crate) fn planned_sigma(rho: f64) -> f64 {
    gaussian_sigma(1.0, rho).unwrap_or(f64::INFINITY)
}

/// Assemble a dataset from sampled columns over a cloned domain.
pub(crate) fn dataset_from_columns(domain: &Domain, columns: Vec<Vec<u32>>) -> Result<Dataset> {
    Ok(Dataset::new(domain.clone(), columns)?)
}

/// Export helper shared by the three PGM-backed synthesizers.
pub(crate) fn pgm_state(fitted: &Option<(Domain, FittedModel)>) -> Option<FittedState> {
    fitted.as_ref().map(|(domain, model)| FittedState::Pgm {
        domain: domain.clone(),
        model: model.clone(),
    })
}

/// Sampling shared by the three PGM-backed synthesizers: `n` rows from the
/// fitted model's cached sampler, whose flattened tables are built on the
/// first draw and reused by every later one. `tag` names the synthesizer's
/// sampling stream for [`derive_seed`].
pub(crate) fn pgm_sample(
    fitted: &Option<(Domain, FittedModel)>,
    n: usize,
    seed: u64,
    tag: &str,
) -> Result<Dataset> {
    let (domain, model) = fitted.as_ref().ok_or(SynthError::NotFitted)?;
    let sampler = model.sampler()?;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, tag));
    let columns = sampler.sample_columns(n, &mut rng);
    dataset_from_columns(domain, columns)
}

/// Restore helper shared by the three PGM-backed synthesizers: accept only
/// the [`FittedState::Pgm`] variant and require the model's junction tree
/// to live over exactly the declared domain.
pub(crate) fn restore_pgm(name: &'static str, state: FittedState) -> Result<(Domain, FittedModel)> {
    match state {
        FittedState::Pgm { domain, model } => {
            if model.tree().domain_shape() != domain.shape().as_slice() {
                return Err(SynthError::StateMismatch {
                    reason: format!(
                        "{name}: junction tree over shape {:?} does not match domain shape {:?}",
                        model.tree().domain_shape(),
                        domain.shape()
                    ),
                });
            }
            Ok((domain, model))
        }
        other => Err(SynthError::StateMismatch {
            reason: format!("{name}: expected pgm state, got {}", other.variant()),
        }),
    }
}

/// Guard on the total domain size, modeling the scalability ceiling of the
/// reference implementations (the paper's 6-hour crosshatch cells). AIM,
/// MST, PrivMRF and PrivBayes refuse a domain of more than 1e25 cells.
pub(crate) fn check_domain_limit(domain: &Domain, name: &str) -> Result<()> {
    const DOMAIN_LIMIT: f64 = 1e25;
    let size = domain.size();
    if size > DOMAIN_LIMIT {
        return Err(SynthError::Infeasible {
            reason: format!(
                "{name}: domain size {size:.2e} exceeds the tractable limit {DOMAIN_LIMIT:.0e}"
            ),
        });
    }
    Ok(())
}
