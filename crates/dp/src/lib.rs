//! # synrd-dp — differential privacy primitives
//!
//! The privacy substrate shared by all six synthesizers:
//!
//! * [`budget`] — (ε,δ)-DP / ρ-zCDP accounting with the Bun–Steinke
//!   conversions the paper uses to put all mechanisms on one ε axis;
//! * [`mechanisms`] — Laplace, Gaussian and the exponential mechanism
//!   (Gumbel trick);
//! * [`rng`] — deterministic seed derivation so every experiment is
//!   reproducible bit-for-bit from a single master seed.

pub mod budget;
pub mod error;
pub mod mechanisms;
pub mod rng;

pub use budget::{
    delta_for_n, exponential_epsilon, exponential_rho, gaussian_sigma, laplace_scale, Accountant,
    Privacy,
};
pub use error::{DpError, Result};
pub use mechanisms::{
    exponential_mechanism, gaussian_mechanism, laplace_mechanism, standard_gumbel,
    standard_laplace, standard_normal,
};
pub use rng::{derive_seed, grid_rng, grid_seed, rng_for};
