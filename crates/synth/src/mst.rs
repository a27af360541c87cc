//! MST (McKenna, Miklau & Sheldon 2021): the NIST-winning marginal-based
//! synthesizer.
//!
//! Three phases, each receiving ⅓ of the zCDP budget:
//!
//! 1. measure all 1-way marginals with the Gaussian mechanism;
//! 2. privately select a maximum spanning tree over attributes, where each
//!    Kruskal acceptance is an exponential-mechanism draw over the remaining
//!    cross-component edges, scored by the L1 gap between the true pair
//!    counts and the independent approximation implied by phase 1;
//! 3. measure the 2-way marginals on the selected tree edges, then fit a
//!    Private-PGM model and sample.

use crate::common::{
    check_domain_limit, dataset_from_columns, measure_gaussian, pgm_state, restore_pgm,
};
use crate::error::{Result, SynthError};
use crate::scoring::{map_scores, mst_edge_score, parallel_scoring};
use crate::workload::all_pairs;
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, Marginal, MarginalEngine};
use synrd_dp::{derive_seed, exponential_epsilon, exponential_mechanism, Accountant, Privacy};
use synrd_pgm::{estimate, EstimationOptions, FittedModel, UnionFind};

/// Configuration for [`Mst`].
#[derive(Debug, Clone, Copy)]
pub struct MstOptions {
    /// Mirror-descent iterations for the final PGM fit.
    pub estimation_iterations: usize,
    /// Maximum clique cells in the junction tree.
    pub cell_limit: usize,
    /// Largest domain size the fit will attempt (Figure 3 feasibility model).
    pub domain_limit: f64,
}

impl Default for MstOptions {
    fn default() -> Self {
        MstOptions {
            estimation_iterations: 150,
            cell_limit: 1 << 21,
            domain_limit: 1e25,
        }
    }
}

/// The MST synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Mst {
    options: MstOptions,
    fitted: Option<(Domain, FittedModel)>,
}

impl Mst {
    /// MST with custom options.
    pub fn with_options(options: MstOptions) -> Mst {
        Mst {
            options,
            fitted: None,
        }
    }

    /// The selected tree edges (available after fit, for diagnostics).
    pub fn model(&self) -> Option<&FittedModel> {
        self.fitted.as_ref().map(|(_, m)| m)
    }
}

impl Synthesizer for Mst {
    fn name(&self) -> &'static str {
        "MST"
    }

    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        check_domain_limit(data.domain(), self.options.domain_limit, "MST")?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "mst-fit"));
        let mut accountant = Accountant::new(privacy);
        let total = accountant.total();
        let d = data.n_attrs();

        // One marginal engine per fit: phase 2 counts all O(d²) pairwise
        // joints in fused sweeps, and phase 3's tree-edge measurements are
        // then pure cache hits.
        let mut engine = MarginalEngine::new(data);

        // Phase 1: all 1-way marginals at rho/3.
        let rho_one = total / 3.0 / d as f64;
        let mut measurements = Vec::with_capacity(2 * d);
        let mut one_way_probs: Vec<Vec<f64>> = Vec::with_capacity(d);
        for a in 0..d {
            accountant.spend(rho_one)?;
            let m = measure_gaussian(&mut engine, &[a], rho_one, &mut rng)?;
            let marg = Marginal::from_counts(
                vec![a],
                vec![data.domain().cardinality(a)?],
                m.values.clone(),
            )?;
            one_way_probs.push(marg.normalized());
            measurements.push(m);
        }

        // Phase 2: private maximum spanning tree (rho/3 across d-1 picks).
        // All pairwise joints are counted in one fused sweep over the data.
        let n = data.n_rows() as f64;
        let pair_sets: Vec<Vec<usize>> = all_pairs(data.domain())
            .into_iter()
            .map(|q| q.attrs)
            .collect();
        engine.prefetch(&pair_sets)?;
        // L1 gap between true pair counts and the independent approximation
        // from the (noisy, already-paid-for) 1-ways — pure reads of the
        // prefetched joints, scored in parallel with the reduction order
        // pinned to edge order (bit-identical to the sequential loop).
        let edges: Vec<(usize, usize)> = (0..d)
            .flat_map(|a| ((a + 1)..d).map(move |b| (a, b)))
            .collect();
        let engine_ref = &engine;
        let one_way_ref = &one_way_probs;
        let scores = map_scores(&edges, parallel_scoring(edges.len()), |&(a, b)| {
            let recounted;
            let joint = match engine_ref.peek(&[a, b]) {
                Some(m) => m,
                None => {
                    // Evicted under a tight cache budget: recount outside
                    // the engine (same kernel, same counts).
                    recounted = Marginal::count(engine_ref.dataset(), &[a, b])?;
                    &recounted
                }
            };
            Ok(mst_edge_score(joint, &one_way_ref[a], &one_way_ref[b], n))
        })?;
        let edge_scores: Vec<(usize, usize, f64)> = edges
            .iter()
            .zip(scores)
            .map(|(&(a, b), s)| (a, b, s))
            .collect();
        let picks = d.saturating_sub(1).max(1);
        let rho_select = total / 3.0 / picks as f64;
        let eps_edge = exponential_epsilon(rho_select)?;
        let mut uf = UnionFind::new(d);
        let mut tree_edges: Vec<(usize, usize)> = Vec::with_capacity(picks);
        for _ in 0..picks {
            let candidates: Vec<usize> = (0..edge_scores.len())
                .filter(|&i| {
                    let (a, b, _) = edge_scores[i];
                    uf.find(a) != uf.find(b)
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            accountant.spend(rho_select)?;
            let scores: Vec<f64> = candidates.iter().map(|&i| edge_scores[i].2).collect();
            // Sensitivity 2: one record moves at most 2 units of L1 count gap.
            let chosen = exponential_mechanism(&scores, 2.0, eps_edge, &mut rng)?;
            let (a, b, _) = edge_scores[candidates[chosen]];
            uf.union(a, b);
            tree_edges.push((a, b));
        }

        // Phase 3: 2-way marginals on the tree edges with the remainder.
        let rho_pair = accountant.remaining() / tree_edges.len().max(1) as f64;
        for &(a, b) in &tree_edges {
            accountant.spend(rho_pair)?;
            measurements.push(measure_gaussian(&mut engine, &[a, b], rho_pair, &mut rng)?);
        }

        let model = estimate(
            &data.domain().shape(),
            &measurements,
            EstimationOptions {
                iterations: self.options.estimation_iterations,
                cell_limit: self.options.cell_limit,
                fit_threads: ctx.threads.max(1),
            },
        )?;
        self.fitted = Some((data.domain().clone(), model));
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, model) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        // Built once per fitted model, reused across bootstrap draws.
        let sampler = model.sampler()?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "mst-sample"));
        let columns = sampler.sample_columns(n, &mut rng);
        dataset_from_columns(domain, columns)
    }

    fn fitted_state(&self) -> Option<FittedState> {
        pgm_state(&self.fitted)
    }

    fn restore_state(&mut self, state: FittedState) -> Result<()> {
        self.fitted = Some(restore_pgm("MST", state)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use synrd_data::Attribute;

    fn chain_data(n: usize) -> Dataset {
        // 0 -> 1 -> 2 chain with strong links; MST should recover the chain.
        let domain = Domain::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut ds = Dataset::with_capacity(domain, n);
        for _ in 0..n {
            let a = u32::from(rng.gen::<f64>() < 0.5);
            let b = if rng.gen::<f64>() < 0.9 { a } else { 1 - a };
            let c = if rng.gen::<f64>() < 0.9 { b } else { 1 - b };
            ds.push_row(&[a, b, c]).unwrap();
        }
        ds
    }

    #[test]
    fn preserves_chain_correlations_at_moderate_eps() {
        let data = chain_data(6_000);
        let mut synth = Mst::default();
        synth
            .fit(&data, Privacy::approx(2.0, 1e-9).unwrap(), 5)
            .unwrap();
        let sample = synth.sample(6_000, 7).unwrap();
        let agree = |ds: &Dataset, x: usize, y: usize| {
            let cx = ds.decode_column(x).unwrap();
            let cy = ds.decode_column(y).unwrap();
            cx.iter().zip(&cy).filter(|(a, b)| a == b).count() as f64 / cx.len() as f64
        };
        // Direct edges near 0.9 agreement; transitive pair near 0.82.
        assert!(agree(&sample, 0, 1) > 0.8, "ab = {}", agree(&sample, 0, 1));
        assert!(agree(&sample, 1, 2) > 0.8, "bc = {}", agree(&sample, 1, 2));
        assert!(agree(&sample, 0, 2) > 0.72, "ac = {}", agree(&sample, 0, 2));
    }

    #[test]
    fn budget_overdraft_is_impossible() {
        // Even with a tiny budget the three-way split must never overdraft.
        let data = chain_data(500);
        let mut synth = Mst::default();
        synth
            .fit(&data, Privacy::approx(0.01, 1e-9).unwrap(), 5)
            .unwrap();
        assert!(synth.model().is_some());
    }

    #[test]
    fn domain_limit_respected() {
        let data = chain_data(100);
        let mut synth = Mst::with_options(MstOptions {
            domain_limit: 4.0, // below the 8-cell domain
            ..MstOptions::default()
        });
        assert!(matches!(
            synth.fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 5),
            Err(SynthError::Infeasible { .. })
        ));
    }
}
