//! PrivMRF (Cai, Lei, Wei & Xiao 2021): Markov-random-field synthesis with
//! principled marginal selection.
//!
//! PrivMRF's contribution is *which* marginals to measure: they must be
//! low-dimensional, keep the graph of marginals small, and keep the junction
//! tree's domain from blowing up. We implement that selection as a greedy
//! loop over candidate 2- and 3-way marginals ranked by mutual-information
//! scores, accepting a candidate only if the resulting junction tree stays
//! under the cell limit — then measure everything with the Gaussian
//! mechanism and fit Private-PGM.

use crate::common::{check_domain_limit, measure_gaussian, pgm_sample, pgm_state, restore_pgm};
use crate::error::{Result, SynthError};
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, MarginalEngine};
use synrd_dp::{derive_seed, exponential_epsilon, exponential_mechanism, Accountant, Privacy};
use synrd_pgm::{estimate, EstimationOptions, FittedModel, JunctionTree, CLIQUE_CELL_LIMIT};

/// Maximum number of selected marginals (beyond the 1-ways).
const MAX_MARGINALS: usize = 24;
/// Maximum cells per candidate marginal ("low-dimensional" criterion).
const MARGINAL_CELL_LIMIT: u128 = 1 << 16;
/// Mirror-descent iterations for the final fit.
const ESTIMATION_ITERATIONS: usize = 150;

/// The PrivMRF synthesizer.
#[derive(Debug, Clone, Default)]
pub struct PrivMrf {
    fitted: Option<(Domain, FittedModel)>,
}

impl Synthesizer for PrivMrf {
    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        check_domain_limit(data.domain(), "PrivMRF")?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "privmrf-fit"));
        let mut accountant = Accountant::new(privacy);
        let total = accountant.total();
        let d = data.n_attrs();
        let shape = data.domain().shape();
        let n = data.n_rows() as f64;

        // One marginal engine per fit: the MI scoring below reuses every
        // pair joint it counts (the triple scores revisit pairs the pair
        // loop already counted).
        let mut engine = MarginalEngine::new(data);

        // 1-way marginals with 15% of the budget.
        let rho_one = 0.15 * total / d as f64;
        let mut measurements = Vec::with_capacity(d + MAX_MARGINALS);
        for a in 0..d {
            accountant.spend(rho_one)?;
            measurements.push(measure_gaussian(&mut engine, &[a], rho_one, &mut rng)?);
        }

        // Candidate pool: all pairs under the marginal cell limit, plus the
        // triples formed by the strongest pair and a third attribute. All
        // eligible pair joints are counted in one fused sweep.
        let mut eligible_pairs: Vec<Vec<usize>> = Vec::new();
        for a in 0..d {
            for b in (a + 1)..d {
                if data.domain().cells(&[a, b])? > MARGINAL_CELL_LIMIT {
                    continue;
                }
                eligible_pairs.push(vec![a, b]);
            }
        }
        engine.prefetch(&eligible_pairs)?;
        let mut candidates: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut best_pair: Option<(usize, usize, f64)> = None;
        for pair in &eligible_pairs {
            let (a, b) = (pair[0], pair[1]);
            let mi = engine.mutual_information(a, b)?;
            candidates.push((vec![a, b], n * mi));
            if best_pair.is_none_or(|(_, _, m)| mi > m) {
                best_pair = Some((a, b, mi));
            }
        }
        if let Some((a, b, _)) = best_pair {
            // The triple scores look up joints keyed `[a, c]` / `[b, c]` in
            // call order; the cache key is order-sensitive, so prefetch
            // exactly those keys in one fused sweep (where `c < a` these are
            // new tables, not the `[min, max]` pairs counted above).
            let mut thirds: Vec<usize> = Vec::new();
            let mut mi_pairs: Vec<Vec<usize>> = Vec::new();
            for c in 0..d {
                if c == a || c == b {
                    continue;
                }
                let mut attrs = vec![a, b, c];
                attrs.sort_unstable();
                if data.domain().cells(&attrs)? > MARGINAL_CELL_LIMIT {
                    continue;
                }
                thirds.push(c);
                mi_pairs.push(vec![a, c]);
                mi_pairs.push(vec![b, c]);
            }
            engine.prefetch(&mi_pairs)?;
            for &c in &thirds {
                let mut attrs = vec![a, b, c];
                attrs.sort_unstable();
                let score =
                    n * (engine.mutual_information(a, c)? + engine.mutual_information(b, c)?);
                candidates.push((attrs, score));
            }
        }
        if candidates.is_empty() {
            return Err(SynthError::Infeasible {
                reason: "PrivMRF: no marginal fits the low-dimensionality criterion".to_string(),
            });
        }

        // Greedy private selection: 15% of the budget over the picks,
        // 70% over the measurements.
        let picks = MAX_MARGINALS.min(candidates.len());
        let rho_pick = 0.15 * total / picks as f64;
        let rho_measure = 0.70 * total / picks as f64;
        let eps_pick = exponential_epsilon(rho_pick)?;
        let sensitivity = n.max(2.0).ln() + 1.0; // MI-score sensitivity proxy
        let mut chosen: Vec<Vec<usize>> = Vec::with_capacity(picks);
        for _ in 0..picks {
            // Filter: distinct from chosen, junction tree stays tractable.
            let viable: Vec<usize> = (0..candidates.len())
                .filter(|&i| {
                    let attrs = &candidates[i].0;
                    if chosen.iter().any(|c| c == attrs) {
                        return false;
                    }
                    let mut sets = chosen.clone();
                    sets.push(attrs.clone());
                    JunctionTree::build(&shape, &sets, CLIQUE_CELL_LIMIT).is_ok()
                })
                .collect();
            if viable.is_empty() {
                break;
            }
            accountant.spend(rho_pick)?;
            let scores: Vec<f64> = viable.iter().map(|&i| candidates[i].1).collect();
            let pick = exponential_mechanism(&scores, sensitivity, eps_pick, &mut rng)?;
            let attrs = candidates[viable[pick]].0.clone();
            accountant.spend(rho_measure)?;
            measurements.push(measure_gaussian(
                &mut engine,
                &attrs,
                rho_measure,
                &mut rng,
            )?);
            chosen.push(attrs);
        }

        let model = estimate(
            &shape,
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
        pgm_sample(&self.fitted, n, seed, "privmrf-sample")
    }

    fn fitted_state(&self) -> Option<FittedState> {
        pgm_state(&self.fitted)
    }

    fn restore_state(&mut self, state: FittedState) -> Result<()> {
        self.fitted = Some(restore_pgm("PrivMRF", state)?);
        Ok(())
    }
}
