//! # synrd-synth — six differentially private data synthesizers
//!
//! The evaluation subjects of the epistemic-parity benchmark, all behind the
//! [`Synthesizer`] trait:
//!
//! | Kind | Family | Native guarantee |
//! |---|---|---|
//! | [`Mst`] | marginals + Private-PGM | (ε,δ)-DP |
//! | [`PrivBayes`] | Bayesian network | (ε,0)-DP |
//! | [`Aim`] | workload-aware marginals + Private-PGM | ρ-zCDP |
//! | [`PrivMrf`] | selected marginals + Private-PGM | (ε,δ)-DP |
//! | [`PateCtgan`] | conditional GAN with PATE | (ε,δ)-DP |
//! | [`Gem`] | generative network, adaptive measurements | ρ-zCDP |
//!
//! All synthesizers are deterministic functions of `(data, privacy, seed)`.
//! PGM-based methods refuse domains past their tractable limit with
//! [`SynthError::Infeasible`], modeling Figure 3's crosshatch cells.

#![allow(clippy::needless_range_loop)] // indexed loops are the clearer idiom in numeric kernels
pub mod aim;
mod common;
pub mod error;
pub mod gem;
pub mod mst;
pub mod patectgan;
pub mod privbayes;
pub mod privmrf;
pub mod scoring;
pub mod workload;

pub use aim::Aim;
pub use error::{Result, SynthError};
pub use gem::{Gem, GemState};
pub use mst::Mst;
pub use patectgan::PateCtgan;
pub use privbayes::{BayesNode, PrivBayes};
pub use privmrf::PrivMrf;
pub use scoring::{aim_candidate_score, map_scores, mst_edge_score};
pub use workload::all_pairs;
// The sampling-side process counter (mirror of the grid fit counter and the
// marginal counting counter), re-exported so the grid driver and tests can
// read it without a direct synrd-pgm dependency.
pub use synrd_pgm::rows_sampled;
// The ML backend (`cpu | simd`, and the `auto` default), re-exported so
// callers can name a backend for [`FitContext::backend`] without a direct
// synrd-ml dependency.
pub use synrd_ml::backend as ml_backend;

use synrd_data::{Dataset, Domain};
use synrd_dp::{delta_for_n, Privacy};
use synrd_ml::{Backend, MlpState};
use synrd_pgm::FittedModel;

/// Execution context for one fit: resource knobs that change throughput but
/// never results. Mirror descent pins its reduction orders and both ML
/// backends are bit-identical, so a fit is **bit-identical under any
/// context** — which is why it never appears in [`FittedState`] or any
/// cache fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitContext {
    /// Worker threads for mirror descent's loss passes, the one intra-fit
    /// parallel path (AIM, MST, PrivMRF). The other three synthesizers run
    /// on the calling thread. `1` runs fully sequential.
    pub threads: usize,
    /// Backend for the batched ML kernels (PATE-CTGAN's generator and
    /// student). Every constructor picks the `auto` selection; tests set
    /// it to pin a backend.
    pub backend: Backend,
}

impl Default for FitContext {
    /// Sequential, on the `auto` backend.
    fn default() -> FitContext {
        FitContext::with_threads(1)
    }
}

impl FitContext {
    /// A context with an explicit thread allowance (clamped to at least 1)
    /// on the `auto` backend.
    pub fn with_threads(threads: usize) -> FitContext {
        FitContext {
            threads: threads.max(1),
            backend: Backend::default(),
        }
    }
}

/// A serializable snapshot of a fitted synthesizer — everything `sample`
/// needs, as plain data, with none of the training-time machinery.
///
/// The fit cache persists these between runs and the serve mode answers
/// sampling requests from them; round-tripping a state through
/// [`Synthesizer::fitted_state`] / [`Synthesizer::restore_state`] must
/// reproduce every subsequent draw bit-for-bit.
#[derive(Debug, Clone)]
pub enum FittedState {
    /// The Private-PGM methods (AIM, MST, PrivMRF): a calibrated
    /// junction-tree model over the fitted domain.
    Pgm {
        /// Domain the model was fitted on.
        domain: Domain,
        /// Calibrated junction-tree beliefs.
        model: FittedModel,
    },
    /// PrivBayes: the ancestral network of noisy CPTs, in sampling order.
    PrivBayes {
        /// Domain the network was fitted on.
        domain: Domain,
        /// Network nodes in ancestral (topological) order.
        nodes: Vec<BayesNode>,
    },
    /// GEM: mixture-of-products logits.
    Gem {
        /// Domain the mixture was fitted on.
        domain: Domain,
        /// Mixture logits.
        model: GemState,
    },
    /// PATECTGAN: the generator network. Its input width is the latent
    /// dimension; its output is one softmax block per attribute of the
    /// domain, in domain order.
    PateCtgan {
        /// Domain the generator was fitted on.
        domain: Domain,
        /// Generator MLP weights, biases and output activation.
        generator: MlpState,
    },
}

impl FittedState {
    /// The domain this state was fitted on.
    pub fn domain(&self) -> &Domain {
        match self {
            FittedState::Pgm { domain, .. }
            | FittedState::PrivBayes { domain, .. }
            | FittedState::Gem { domain, .. }
            | FittedState::PateCtgan { domain, .. } => domain,
        }
    }

    /// Short variant tag (used in error messages and serialized keys).
    pub fn variant(&self) -> &'static str {
        match self {
            FittedState::Pgm { .. } => "pgm",
            FittedState::PrivBayes { .. } => "privbayes",
            FittedState::Gem { .. } => "gem",
            FittedState::PateCtgan { .. } => "patectgan",
        }
    }
}

/// A DP data synthesizer: fit a private model, then sample synthetic rows.
pub trait Synthesizer: Send + Sync {
    /// Fit the model on `data` under `privacy`, deterministically in `seed`,
    /// with an explicit execution context. The context is a throughput knob
    /// only — the fitted model is bit-identical at any `ctx.threads` and on
    /// any `ctx.backend`.
    ///
    /// # Errors
    /// [`SynthError::Infeasible`] when the dataset is outside the method's
    /// tractable regime (Figure 3 crosshatch), or an underlying error.
    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()>;

    /// [`fit_with`] under the default context ([`FitContext::default`]:
    /// sequential, on the `auto` backend).
    ///
    /// # Errors
    /// Same contract as [`fit_with`].
    ///
    /// [`fit_with`]: Synthesizer::fit_with
    fn fit(&mut self, data: &Dataset, privacy: Privacy, seed: u64) -> Result<()> {
        self.fit_with(data, privacy, seed, FitContext::default())
    }

    /// Sample `n` synthetic rows. Requires a prior successful [`fit`].
    ///
    /// [`fit`]: Synthesizer::fit
    fn sample(&self, n: usize, seed: u64) -> Result<Dataset>;

    /// Export the fitted model as plain serializable state. `None` when not
    /// fitted.
    fn fitted_state(&self) -> Option<FittedState>;

    /// Replace any prior fit with a previously exported state, so that
    /// subsequent [`sample`] calls replay exactly as on the fitting process.
    ///
    /// # Errors
    /// [`SynthError::StateMismatch`] when `state` is another synthesizer's
    /// variant or internally inconsistent.
    ///
    /// [`sample`]: Synthesizer::sample
    fn restore_state(&mut self, state: FittedState) -> Result<()>;
}

/// Identifier for the six synthesizers (Figure 3/4 row order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthKind {
    Aim,
    PrivMrf,
    Mst,
    PrivBayes,
    PateCtgan,
    Gem,
}

impl SynthKind {
    /// All six, in the paper's figure order.
    pub const ALL: [SynthKind; 6] = [
        SynthKind::Aim,
        SynthKind::PrivMrf,
        SynthKind::Mst,
        SynthKind::PrivBayes,
        SynthKind::PateCtgan,
        SynthKind::Gem,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SynthKind::Aim => "AIM",
            SynthKind::PrivMrf => "PrivMRF",
            SynthKind::Mst => "MST",
            SynthKind::PrivBayes => "PrivBayes",
            SynthKind::PateCtgan => "PATECTGAN",
            SynthKind::Gem => "GEM",
        }
    }

    /// Inverse of [`SynthKind::name`]: resolve a display name (as it appears
    /// in figures and in serialized reports) back to the kind.
    pub fn from_name(name: &str) -> Option<SynthKind> {
        SynthKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Build a fresh, unfitted synthesizer. The paper runs every method at
    /// its authors' recommended defaults, so each method's settings are
    /// constants of its module.
    pub fn build(self) -> Box<dyn Synthesizer> {
        match self {
            SynthKind::Aim => Box::new(Aim::default()),
            SynthKind::PrivMrf => Box::new(PrivMrf::default()),
            SynthKind::Mst => Box::new(Mst::default()),
            SynthKind::PrivBayes => Box::new(PrivBayes::default()),
            SynthKind::PateCtgan => Box::new(PateCtgan::default()),
            SynthKind::Gem => Box::new(Gem::default()),
        }
    }

    /// The privacy statement this synthesizer natively provides when the
    /// benchmark dials in a nominal ε (the paper's common ε axis, §3):
    /// zCDP methods get the ρ whose (ε,δ) conversion matches, pure-DP
    /// methods get (ε,0), the rest get (ε,δ) with δ cryptographically small
    /// in `n`.
    pub fn native_privacy(self, epsilon: f64, n: usize) -> Privacy {
        let delta = delta_for_n(n);
        match self {
            SynthKind::PrivBayes => Privacy::Pure { epsilon },
            SynthKind::Aim | SynthKind::Gem => Privacy::Zcdp {
                rho: Privacy::Approx { epsilon, delta }.to_zcdp_rho(),
            },
            _ => Privacy::Approx { epsilon, delta },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synrd_data::{Attribute, Domain, Marginal};

    /// A small correlated dataset every synthesizer should roughly capture.
    fn correlated_data(n: usize, seed: u64) -> Dataset {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let domain = Domain::new(vec![
            Attribute::binary("x"),
            Attribute::binary("y"),
            Attribute::ordinal("z", 4),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::with_capacity(domain, n);
        for _ in 0..n {
            let x = u32::from(rng.gen::<f64>() < 0.3);
            // y strongly tracks x.
            let y = if rng.gen::<f64>() < 0.85 { x } else { 1 - x };
            let z = if x == 1 {
                rng.gen_range(2..4)
            } else {
                rng.gen_range(0..2)
            };
            ds.push_row(&[x, y, z]).unwrap();
        }
        ds
    }

    #[test]
    fn all_synthesizers_fit_and_sample() {
        let data = correlated_data(3000, 1);
        for kind in SynthKind::ALL {
            let mut synth = kind.build();
            let privacy = kind.native_privacy(std::f64::consts::E, data.n_rows());
            synth
                .fit(&data, privacy, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let sample = synth.sample(2000, 3).unwrap();
            assert_eq!(sample.n_rows(), 2000, "{}", kind.name());
            assert_eq!(sample.domain(), data.domain(), "{}", kind.name());
        }
    }

    #[test]
    fn sampling_before_fit_errors() {
        for kind in SynthKind::ALL {
            let synth = kind.build();
            assert!(matches!(synth.sample(10, 1), Err(SynthError::NotFitted)));
        }
    }

    #[test]
    fn marginal_methods_preserve_one_way_marginals() {
        let data = correlated_data(5000, 2);
        let real_x = data.mean_of(0).unwrap();
        for kind in [
            SynthKind::Mst,
            SynthKind::Aim,
            SynthKind::PrivMrf,
            SynthKind::PrivBayes,
        ] {
            let mut synth = kind.build();
            synth
                .fit(&data, kind.native_privacy(std::f64::consts::E, 5000), 11)
                .unwrap();
            let sample = synth.sample(5000, 5).unwrap();
            let synth_x = sample.mean_of(0).unwrap();
            assert!(
                (synth_x - real_x).abs() < 0.06,
                "{}: {synth_x:.3} vs {real_x:.3}",
                kind.name()
            );
        }
    }

    #[test]
    fn mst_preserves_pair_correlation() {
        let data = correlated_data(8000, 3);
        let mut synth = Mst::default();
        synth
            .fit(
                &data,
                SynthKind::Mst.native_privacy(std::f64::consts::E, 8000),
                13,
            )
            .unwrap();
        let sample = synth.sample(8000, 17).unwrap();
        let real = Marginal::count(&data, &[0, 1]).unwrap();
        let fake = Marginal::count(&sample, &[0, 1]).unwrap();
        let l1 = real.l1_distance(&fake).unwrap();
        assert!(l1 < 0.12, "pair L1 = {l1:.4}");
    }

    #[test]
    fn pgm_methods_refuse_huge_domains() {
        // 26 attributes of cardinality 10 => a 1e26-cell domain, one order
        // of magnitude past the 1e25 limit.
        let attrs: Vec<Attribute> = (0..26)
            .map(|i| Attribute::ordinal(format!("a{i}"), 10))
            .collect();
        let domain = Domain::new(attrs);
        let mut ds = Dataset::with_capacity(domain, 64);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let mut row = vec![0u32; 26];
        for _ in 0..64 {
            for c in row.iter_mut() {
                *c = rng.gen_range(0..10);
            }
            ds.push_row(&row).unwrap();
        }
        // MST's own case is `mst::tests::domain_limit_respected`.
        for kind in [SynthKind::Aim, SynthKind::PrivMrf, SynthKind::PrivBayes] {
            let mut synth = kind.build();
            let err = synth.fit(&ds, kind.native_privacy(1.0, 64), 1).unwrap_err();
            assert!(
                matches!(&err, SynthError::Infeasible { reason } if reason.contains("1e25")),
                "{}: {err}",
                kind.name()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = correlated_data(2000, 5);
        for kind in [SynthKind::Mst, SynthKind::Gem] {
            let privacy = kind.native_privacy(1.0, 2000);
            let mut s1 = kind.build();
            s1.fit(&data, privacy, 42).unwrap();
            let a = s1.sample(500, 9).unwrap();
            let mut s2 = kind.build();
            s2.fit(&data, privacy, 42).unwrap();
            let b = s2.sample(500, 9).unwrap();
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn every_fit_is_identical_across_backends_and_thread_counts() {
        // A fit's context changes throughput, never the fitted state or a
        // sampled row: every synthesizer on every backend this CPU runs,
        // at one and three threads, must match the sequential `Backend::Cpu`
        // fit.
        let data = correlated_data(1_500, 6);
        for kind in SynthKind::ALL {
            let privacy = kind.native_privacy(std::f64::consts::E, data.n_rows());
            // The fitted state by its `Debug` text (shortest round-trip
            // floats, so equal text means equal bits) and one sample.
            let fit = |ctx: FitContext| {
                let mut synth = kind.build();
                synth.fit_with(&data, privacy, 11, ctx).unwrap();
                let state = format!("{:?}", synth.fitted_state().unwrap());
                (state, synth.sample(400, 3).unwrap())
            };
            let (state, sample) = fit(FitContext {
                threads: 1,
                backend: Backend::Cpu,
            });
            for backend in ml_backend::registered_backends() {
                for threads in [1, 3] {
                    let (got_state, got_sample) = fit(FitContext { threads, backend });
                    let at = format!("{} on {} at {threads} threads", kind.name(), backend.name());
                    assert!(got_state == state, "{at}: fitted state differs");
                    assert_eq!(got_sample, sample, "{at}: sample differs");
                }
            }
        }
    }
}
