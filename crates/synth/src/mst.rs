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

use crate::common::{check_domain_limit, measure_gaussian, pgm_sample, pgm_state, restore_pgm};
use crate::error::Result;
use crate::scoring::{map_scores, mst_edge_score, parallel_scoring};
use crate::workload::all_pairs;
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, Marginal, MarginalEngine};
use synrd_dp::{derive_seed, exponential_epsilon, exponential_mechanism, Accountant, Privacy};
use synrd_pgm::{estimate, EstimationOptions, FittedModel, UnionFind};

/// Mirror-descent iterations for the final PGM fit.
const ESTIMATION_ITERATIONS: usize = 150;

/// The MST synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Mst {
    fitted: Option<(Domain, FittedModel)>,
}

impl Synthesizer for Mst {
    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        check_domain_limit(data.domain(), "MST")?;
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
        let pair_sets = all_pairs(data.domain());
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
                iterations: ESTIMATION_ITERATIONS,
                fit_threads: ctx.threads.max(1),
            },
        )?;
        self.fitted = Some((data.domain().clone(), model));
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        pgm_sample(&self.fitted, n, seed, "mst-sample")
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
    use crate::error::SynthError;
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
        assert!(synth.fitted.is_some());
    }

    #[test]
    fn domain_limit_respected() {
        // 26 attributes of cardinality 10 => a 1e26-cell domain, one order
        // of magnitude past the 1e25 limit.
        let domain = Domain::new(
            (0..26)
                .map(|i| Attribute::ordinal(format!("a{i}"), 10))
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut data = Dataset::with_capacity(domain, 64);
        let mut row = vec![0u32; 26];
        for _ in 0..64 {
            for c in row.iter_mut() {
                *c = rng.gen_range(0..10);
            }
            data.push_row(&row).unwrap();
        }
        let mut synth = Mst::default();
        let err = synth
            .fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 5)
            .unwrap_err();
        assert!(
            matches!(&err, SynthError::Infeasible { reason } if reason.contains("1e25")),
            "{err}"
        );
        assert!(synth.fitted.is_none());
    }
}
