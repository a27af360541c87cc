//! AIM (McKenna, Mullins, Sheldon & Miklau 2022): adaptive, iterative,
//! workload-aware synthesis under ρ-zCDP.
//!
//! Each round refits the Private-PGM model to the measurements so far, then
//! spends a slice of the budget to (a) select — via the exponential
//! mechanism — the workload marginal whose measurement is expected to
//! improve the model the most, net of the noise it would add, and (b)
//! measure it with the Gaussian mechanism. Candidates that would blow up
//! the junction tree are excluded, which is what limits AIM on wide-domain
//! data.

use crate::common::{
    check_domain_limit, measure_gaussian, pgm_sample, pgm_state, planned_sigma, restore_pgm,
};
use crate::error::{Result, SynthError};
use crate::scoring::{aim_candidate_score, map_scores, parallel_scoring};
use crate::workload::{all_pairs_under, WorkloadQuery};
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, Marginal, MarginalEngine};
use synrd_dp::{derive_seed, exponential_epsilon, exponential_mechanism, Accountant, Privacy};
use synrd_pgm::{estimate, EstimationOptions, FittedModel, JunctionTree, CLIQUE_CELL_LIMIT};

/// Select-measure rounds.
const ROUNDS: usize = 12;
/// Mirror-descent iterations per intermediate refit.
const REFIT_ITERATIONS: usize = 40;
/// Mirror-descent iterations for the final fit.
const FINAL_ITERATIONS: usize = 150;

/// The AIM synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Aim {
    fitted: Option<(Domain, FittedModel)>,
}

impl Synthesizer for Aim {
    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        check_domain_limit(data.domain(), "AIM")?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "aim-fit"));
        let mut accountant = Accountant::new(privacy);
        let total = accountant.total();
        let d = data.n_attrs();
        let shape = data.domain().shape();

        // One marginal engine per fit: the true data never changes during a
        // fit, so every candidate the round loop scores is counted at most
        // once and served from the cache thereafter.
        let mut engine = MarginalEngine::new(data);

        // Initialization: all 1-way marginals with 10% of the budget.
        let rho_init = 0.10 * total / d as f64;
        let mut measurements = Vec::with_capacity(d + ROUNDS);
        for a in 0..d {
            accountant.spend(rho_init)?;
            measurements.push(measure_gaussian(&mut engine, &[a], rho_init, &mut rng)?);
        }
        let fit_threads = ctx.threads.max(1);
        let est_opts = move |iterations: usize| EstimationOptions {
            iterations,
            fit_threads,
        };

        // Workload: all pairs that fit the cell limit.
        let workload: Vec<WorkloadQuery> = all_pairs_under(data.domain(), CLIQUE_CELL_LIMIT);
        if workload.is_empty() {
            return Err(SynthError::Infeasible {
                reason: "AIM: no workload query fits the clique cell limit".to_string(),
            });
        }

        // Rounds: half of each round's slice selects, half measures.
        let rounds = ROUNDS.min(workload.len());
        // Round 0 scores every workload query, so warm the cache for the
        // whole pool in one fused sweep over the data; later rounds are pure
        // cache hits.
        if rounds > 0 {
            let sets: Vec<Vec<usize>> = workload.iter().map(|q| q.attrs.clone()).collect();
            engine.prefetch(&sets)?;
        }
        let mut chosen_sets: Vec<Vec<usize>> = Vec::with_capacity(rounds + 1);
        // Candidates proven intractable are never re-probed: adding a chosen
        // set only adds edges to the moral graph, so the minimum-size
        // triangulation only grows as the fit proceeds. (The min-fill
        // *heuristic* is not strictly monotone, so in principle a doomed
        // candidate could luck into a smaller tree after more sets are
        // chosen; we accept that cliff-edge case to avoid rebuilding the
        // tree for every doomed candidate every round.)
        let mut infeasible = vec![false; workload.len()];
        for round in 0..rounds {
            let remaining = accountant.remaining();
            if remaining <= 1e-12 {
                break;
            }
            let rho_round = remaining / (rounds - round) as f64;
            let rho_select = rho_round / 2.0;
            let rho_measure = rho_round / 2.0;
            let sigma_next = planned_sigma(rho_measure);

            // Candidate gathering (sequential: the junction-tree probe
            // mutates the `chosen_sets` scratch). The round-0 prefetch
            // already counted every workload marginal, so no per-candidate
            // count is needed here — under a cache budget too small for
            // the workload, the scoring fallback recounts exactly once per
            // round instead of twice.
            let mut cand: Vec<&WorkloadQuery> = Vec::new();
            for (qi, q) in workload.iter().enumerate() {
                if infeasible[qi] || chosen_sets.iter().any(|s| s == &q.attrs) {
                    continue;
                }
                // Junction-tree guard: adding this set must stay tractable.
                // `chosen_sets` doubles as the scratch — push the candidate,
                // probe, pop — instead of cloning the whole set list per
                // candidate per round.
                chosen_sets.push(q.attrs.clone());
                let feasible = JunctionTree::build(&shape, &chosen_sets, CLIQUE_CELL_LIMIT).is_ok();
                chosen_sets.pop();
                if !feasible {
                    infeasible[qi] = true;
                    continue;
                }
                cand.push(q);
            }
            if cand.is_empty() {
                break;
            }
            // Refit just before scoring, its only reader. Every round that
            // scores measures one more set, so each refit is fresh, and no
            // refit follows the last measurement: the final fit below
            // starts again from uniform potentials. Estimation draws no
            // randomness, so where the refit runs does not change the fit.
            let model = estimate(&shape, &measurements, est_opts(REFIT_ITERATIONS))?;
            // Candidate scores: workload error of the current model minus
            // the expected noise cost of measuring (AIM's utility
            // function). Pure reads of the cached marginals and the fitted
            // model, fanned out with a pinned reduction order — parallel
            // scores are bit-identical to sequential ones.
            let engine_ref = &engine;
            let scores = map_scores(&cand, parallel_scoring(cand.len()), |q| {
                let recounted;
                let true_counts = match engine_ref.peek(&q.attrs) {
                    Some(m) => m,
                    None => {
                        // Evicted under a tight cache budget: recount
                        // outside the engine (same kernel, same counts).
                        recounted = Marginal::count(engine_ref.dataset(), &q.attrs)?;
                        &recounted
                    }
                };
                let model_probs = model.marginal_or_independent(&q.attrs)?;
                Ok(aim_candidate_score(
                    true_counts,
                    &model_probs,
                    sigma_next,
                    q.weight,
                ))
            })?;
            accountant.spend(rho_select)?;
            let eps_select = exponential_epsilon(rho_select)?;
            // Sensitivity: one record shifts a pair's L1 error by ≤ 2.
            let pick = exponential_mechanism(&scores, 2.0, eps_select, &mut rng)?;
            let attrs = cand[pick].attrs.clone();

            accountant.spend(rho_measure)?;
            measurements.push(measure_gaussian(
                &mut engine,
                &attrs,
                rho_measure,
                &mut rng,
            )?);
            chosen_sets.push(attrs);
        }

        // Final, longer fit.
        let model = estimate(&shape, &measurements, est_opts(FINAL_ITERATIONS))?;
        self.fitted = Some((data.domain().clone(), model));
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        pgm_sample(&self.fitted, n, seed, "aim-sample")
    }

    fn fitted_state(&self) -> Option<FittedState> {
        pgm_state(&self.fitted)
    }

    fn restore_state(&mut self, state: FittedState) -> Result<()> {
        self.fitted = Some(restore_pgm("AIM", state)?);
        Ok(())
    }
}
