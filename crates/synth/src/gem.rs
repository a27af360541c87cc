//! GEM (Liu, Vietri & Wu 2021): generative networks with the Adaptive
//! Measurements framework under ρ-zCDP.
//!
//! GEM iteratively (1) privately selects the workload query where the
//! current generator errs most, (2) measures it with Gaussian noise, and
//! (3) gradient-updates the generator to match all noisy measurements so
//! far. Our generator is a uniform mixture of K product distributions with
//! per-attribute softmax logits — the same model family GEM's neural
//! network parameterizes, with fully analytic gradients. Because it never
//! materializes anything larger than a pair marginal, GEM runs on domains
//! that defeat every PGM-based method (e.g. Jeong et al.'s 1e43).
//!
//! A fit takes up to 2,040 Adam steps, and the trainer computes each
//! step's shared values once: one softmax table, shaped like the logits,
//! holds the softmax of every (component, attribute), and each measurement's
//! residual `2·w·(μ − y)` is computed once, not once per component. Round
//! scoring reads one table per round and `sample` one per call. Every value
//! keeps the operations and the order of the per-component formulation that
//! `train_naive` retains as the test oracle, so fits are bit-identical to it
//! (see `train`).
//!
//! GEM ignores its `FitContext`: the analytic trainer contains no GEMM, so
//! the ML backend has no effect, and it runs on the calling thread.

use crate::common::{dataset_from_columns, measure_gaussian};
use crate::error::{Result, SynthError};
use crate::workload::all_pairs;
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, MarginalEngine};
use synrd_dp::{derive_seed, exponential_epsilon, exponential_mechanism, Accountant, Privacy};
use synrd_pgm::{assemble_chunks, search_cumulative, NoisyMeasurement};

/// Mixture components.
const MIXTURE: usize = 24;
/// Select-measure rounds.
const ROUNDS: usize = 16;
/// Gradient steps after each new measurement.
const GRAD_STEPS: usize = 120;
/// Adam learning rate on the logits.
const LEARNING_RATE: f64 = 0.08;

/// Serializable GEM generator state: the mixture logits, which are all
/// `sample` reads. Shape `[component][attribute][code]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GemState {
    /// Mixture logits.
    pub logits: Vec<Vec<Vec<f64>>>,
}

/// Mixture-of-products generator parameters with their Adam state, for
/// training.
#[derive(Debug, Clone)]
struct GemModel {
    /// logits[k][attr][code].
    logits: Vec<Vec<Vec<f64>>>,
    /// Adam moments, same shape.
    m: Vec<Vec<Vec<f64>>>,
    v: Vec<Vec<Vec<f64>>>,
    step: usize,
}

impl GemModel {
    /// Initialize with small random logits: starting every component at the
    /// same point would give all of them identical gradients forever and
    /// collapse the mixture to a single product distribution (independence),
    /// losing all pair structure.
    fn new<R: Rng + ?Sized>(k: usize, shape: &[usize], rng: &mut R) -> GemModel {
        let zeros: Vec<Vec<f64>> = shape.iter().map(|&c| vec![0.0; c]).collect();
        let logits = (0..k)
            .map(|_| {
                shape
                    .iter()
                    .map(|&c| (0..c).map(|_| rng.gen::<f64>() * 1.6 - 0.8).collect())
                    .collect()
            })
            .collect();
        GemModel {
            logits,
            m: vec![zeros.clone(); k],
            v: vec![zeros; k],
            step: 0,
        }
    }
}

/// Check that `logits` holds at least one component and that every
/// component matches `shape` (the domain's per-attribute cardinalities).
fn check_logits(logits: &[Vec<Vec<f64>>], shape: &[usize]) -> std::result::Result<(), String> {
    if logits.is_empty() {
        return Err("empty mixture".to_string());
    }
    for (comp, per_attr) in logits.iter().enumerate() {
        if per_attr.len() != shape.len() {
            return Err(format!(
                "component {comp} covers {} attributes, domain has {}",
                per_attr.len(),
                shape.len()
            ));
        }
        for (a, (per_code, &card)) in per_attr.iter().zip(shape).enumerate() {
            if per_code.len() != card {
                return Err(format!(
                    "component {comp} attribute {a} has {} codes, domain has {card}",
                    per_code.len()
                ));
            }
        }
    }
    Ok(())
}

/// Refill `table` with the softmax of every (component, attribute) of
/// `logits`, reusing its allocations: each row's max-shifted exponentials
/// divided by their sum. The table has the logits' shape.
fn softmax_table(logits: &[Vec<Vec<f64>>], table: &mut Vec<Vec<Vec<f64>>>) {
    logits.clone_into(table);
    for p in table.iter_mut().flatten() {
        let max = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in p.iter_mut() {
            *v = (*v - max).exp();
        }
        let total: f64 = p.iter().sum();
        for v in p.iter_mut() {
            *v /= total;
        }
    }
}

/// Model marginal over 1 or 2 attributes (probability space), read off a
/// softmax table into `out`: each cell sums its per-component terms in
/// ascending component order.
fn table_marginal(probs: &[Vec<Vec<f64>>], attrs: &[usize], out: &mut Vec<f64>) {
    let kk = probs.len() as f64;
    out.clear();
    match attrs {
        [a] => {
            out.resize(probs[0][*a].len(), 0.0);
            for comp in probs {
                for (o, p) in out.iter_mut().zip(&comp[*a]) {
                    *o += p / kk;
                }
            }
        }
        [a, b] => {
            let cb = probs[0][*b].len();
            out.resize(probs[0][*a].len() * cb, 0.0);
            for comp in probs {
                let pb = &comp[*b];
                for (i, &x) in comp[*a].iter().enumerate() {
                    for (o, &y) in out[i * cb..(i + 1) * cb].iter_mut().zip(pb) {
                        *o += x * y / kk;
                    }
                }
            }
        }
        _ => unreachable!("GEM measures only 1- and 2-way marginals"),
    }
}

/// The GEM synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Gem {
    fitted: Option<(Domain, GemState)>,
}

impl Synthesizer for Gem {
    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        _ctx: FitContext,
    ) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "gem-fit"));
        let mut accountant = Accountant::new(privacy);
        let total = accountant.total();
        let d = data.n_attrs();
        let shape = data.domain().shape();
        let n = data.n_rows() as f64;

        // One marginal engine per fit: every adaptive round re-scores the
        // whole workload against the same true counts, so each pair is
        // counted once and cached.
        let mut engine = MarginalEngine::new(data);

        // Warm start: all 1-way marginals on 20% of the budget.
        let rho_one = 0.20 * total / d as f64;
        let mut measured: Vec<(NoisyMeasurement, f64)> = Vec::new(); // (measurement, weight)
        for a in 0..d {
            accountant.spend(rho_one)?;
            let m = measure_gaussian(&mut engine, &[a], rho_one, &mut rng)?;
            let w = 1.0 / m.sigma.powi(2);
            measured.push((m, w));
        }

        let workload = all_pairs(data.domain());
        if workload.is_empty() {
            return Err(SynthError::Infeasible {
                reason: "GEM: empty workload (single-attribute domain)".to_string(),
            });
        }
        let mut model = GemModel::new(MIXTURE, &shape, &mut rng);
        train(&mut model, &measured, n, GRAD_STEPS, LEARNING_RATE);

        // Adaptive rounds on the remaining 80%. Round 0 scores every pair,
        // so count the whole workload in one fused sweep up front.
        let rounds = ROUNDS.min(workload.len());
        if rounds > 0 {
            let sets: Vec<Vec<usize>> = workload.iter().map(|q| q.attrs.clone()).collect();
            engine.prefetch(&sets)?;
        }
        let mut chosen: Vec<Vec<usize>> = Vec::new();
        let mut probs: Vec<Vec<Vec<f64>>> = Vec::new();
        let mut model_probs: Vec<f64> = Vec::new();
        for round in 0..rounds {
            let remaining = accountant.remaining();
            if remaining <= 1e-12 {
                break;
            }
            let rho_round = remaining / (rounds - round) as f64;
            let (rho_select, rho_measure) = (rho_round / 2.0, rho_round / 2.0);

            // Score candidates by the generator's L1 error on true counts.
            // The model is fixed while scoring, so every candidate's
            // marginal is read off one softmax table per round.
            softmax_table(&model.logits, &mut probs);
            let mut cands: Vec<&Vec<usize>> = Vec::new();
            let mut scores: Vec<f64> = Vec::new();
            for q in &workload {
                if chosen.contains(&q.attrs) {
                    continue;
                }
                let true_counts = engine.count(&q.attrs)?;
                table_marginal(&probs, &q.attrs, &mut model_probs);
                let l1: f64 = true_counts
                    .counts()
                    .iter()
                    .zip(&model_probs)
                    .map(|(&c, &p)| (c - n * p).abs())
                    .sum();
                cands.push(&q.attrs);
                scores.push(l1);
            }
            if cands.is_empty() {
                break;
            }
            accountant.spend(rho_select)?;
            let eps_select = exponential_epsilon(rho_select)?;
            let pick = exponential_mechanism(&scores, 2.0, eps_select, &mut rng)?;
            let attrs = cands[pick].clone();

            accountant.spend(rho_measure)?;
            let m = measure_gaussian(&mut engine, &attrs, rho_measure, &mut rng)?;
            let w = 1.0 / m.sigma.powi(2);
            measured.push((m, w));
            chosen.push(attrs);
            train(&mut model, &measured, n, GRAD_STEPS, LEARNING_RATE);
        }

        let logits = model.logits;
        self.fitted = Some((data.domain().clone(), GemState { logits }));
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, state) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "gem-sample"));
        let d = domain.len();
        let kk = state.logits.len();
        let cums = cumulative_tables(&state.logits);
        // Pre-draw the mixture-component pick and the per-attribute
        // uniforms of every row in the exact row-major order the per-row
        // sampler consumed them, so the chunked node-major pass below is
        // bit-identical to it.
        let mut comps: Vec<u32> = Vec::with_capacity(n);
        let mut uniforms: Vec<f64> = Vec::with_capacity(n * d);
        for _ in 0..n {
            comps.push(rng.gen_range(0..kk) as u32);
            for _ in 0..d {
                uniforms.push(rng.gen());
            }
        }
        // Node-major batched sampling over a chunk of rows: resolve one
        // attribute across the chunk off its precomputed per-component
        // cumulative tables. Each row reads only its own pre-drawn
        // randomness, so the harness's parallel pass is bit-identical to
        // the sequential one.
        let sample_chunk = |lo: usize, hi: usize| -> Vec<Vec<u32>> {
            (0..d)
                .map(|a| {
                    (lo..hi)
                        .map(|r| {
                            let cum = &cums[comps[r] as usize][a];
                            search_cumulative(cum, uniforms[r * d + a]) as u32
                        })
                        .collect()
                })
                .collect()
        };
        let columns = assemble_chunks(n, d, sample_chunk);
        dataset_from_columns(domain, columns)
    }

    fn fitted_state(&self) -> Option<FittedState> {
        self.fitted
            .as_ref()
            .map(|(domain, state)| FittedState::Gem {
                domain: domain.clone(),
                model: state.clone(),
            })
    }

    fn restore_state(&mut self, state: FittedState) -> Result<()> {
        match state {
            FittedState::Gem { domain, model } => {
                check_logits(&model.logits, &domain.shape()).map_err(|reason| {
                    SynthError::StateMismatch {
                        reason: format!("GEM: {reason}"),
                    }
                })?;
                self.fitted = Some((domain, model));
                Ok(())
            }
            other => Err(SynthError::StateMismatch {
                reason: format!("GEM: expected gem state, got {}", other.variant()),
            }),
        }
    }
}

/// Per-component, per-attribute cumulative probability tables (unnormalized
/// tails exactly as the per-row sampler accumulated them): the softmax
/// table of `logits`, prefix-summed in place.
fn cumulative_tables(logits: &[Vec<Vec<f64>>]) -> Vec<Vec<Vec<f64>>> {
    let mut cums = Vec::new();
    softmax_table(logits, &mut cums);
    for c in cums.iter_mut().flatten() {
        let mut acc = 0.0;
        for v in c.iter_mut() {
            acc += *v;
            *v = acc;
        }
    }
    cums
}

#[cfg(test)]
impl Gem {
    /// The original per-row sampler, retained as the differential oracle
    /// for the node-major batched path.
    fn sample_naive(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, state) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "gem-sample"));
        let d = domain.len();
        let kk = state.logits.len();
        let cums = cumulative_tables(&state.logits);
        let mut columns = vec![vec![0u32; n]; d];
        for r in 0..n {
            let k = rng.gen_range(0..kk);
            for (a, col) in columns.iter_mut().enumerate() {
                let u: f64 = rng.gen();
                col[r] = search_cumulative(&cums[k][a], u) as u32;
            }
        }
        dataset_from_columns(domain, columns)
    }
}

/// Adam on the mixture logits against all measurements so far.
///
/// The trainer is analytic (no GEMM) and runs on the calling thread. Each
/// step first computes what no component's gradient depends on:
///
/// * `probs`, the softmax of every (component, attribute) of the pre-step
///   logits, which the model marginals, the gradients and the softmax chain
///   of the Adam step all read;
/// * each measurement's residual `2·w·(μ − y)` against the model marginal.
///
/// A component's one-way gradient then adds the shared residual. Its pair
/// gradient takes dot products of residual rows with the component's `pb`,
/// plus column sums against its `pa`, added row by row into one reused
/// buffer. The table, the residuals and the column buffer are held across
/// steps.
///
/// Every value keeps the operations and the order of the per-component
/// formulation retained as `train_naive`, so the fit is bit-identical to it:
/// the softmax is a pure function of the logits, and only the Adam step
/// changes them; each residual is the same left-to-right product that
/// formulation computed inside every component's loop; every dot product
/// runs over ascending columns and every column sum over ascending rows;
/// and every gradient cell adds its measurements' terms in ascending
/// measurement order.
fn train(
    model: &mut GemModel,
    measured: &[(NoisyMeasurement, f64)],
    n: f64,
    steps: usize,
    lr: f64,
) {
    let kf = model.logits.len() as f64;
    let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8f64);
    // Normalize weights so the learning rate is scale-free.
    let wsum: f64 = measured.iter().map(|(_, w)| *w).sum::<f64>().max(1e-12);
    // Gradient arena wrt probabilities, hoisted out of the step loop and
    // zeroed in place: allocating `mixture × d` nested Vecs per step made
    // the trainer allocation-bound at high step counts.
    let mut grad_p: Vec<Vec<Vec<f64>>> = model
        .logits
        .iter()
        .map(|comp| comp.iter().map(|l| vec![0.0; l.len()]).collect())
        .collect();
    // Measurement weights and proportion targets are step-invariant.
    let prepared: Vec<(&NoisyMeasurement, f64, Vec<f64>)> = measured
        .iter()
        .map(|(meas, w)| (meas, w / wsum, meas.values.iter().map(|v| v / n).collect()))
        .collect();
    // The softmax table, the residuals and the column sums are refilled in
    // place every step.
    let mut probs: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut resid: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut col: Vec<f64> = Vec::new();

    for _ in 0..steps {
        model.step += 1;
        let t = model.step as f64;
        // Adam bias-correction scalars hoisted to once per step; `powf` is
        // deterministic, so dividing by the precomputed corrections is
        // bit-identical to recomputing them per parameter.
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);

        softmax_table(&model.logits, &mut probs);
        for ((meas, w, target), r) in prepared.iter().zip(resid.iter_mut()) {
            table_marginal(&probs, &meas.attrs, r);
            for (r, y) in r.iter_mut().zip(target) {
                *r = 2.0 * w * (*r - y);
            }
        }

        // Accumulate gradients wrt probabilities, one component at a time.
        for (comp, probs_k) in grad_p.iter_mut().zip(&probs) {
            for g in comp.iter_mut() {
                g.fill(0.0);
            }
            for ((meas, _, _), r) in prepared.iter().zip(&resid) {
                match meas.attrs.as_slice() {
                    [a] => {
                        for (g, r) in comp[*a].iter_mut().zip(r) {
                            *g += r / kf;
                        }
                    }
                    [a, b] => {
                        let (pa, pb) = (&probs_k[*a], &probs_k[*b]);
                        let cb = pb.len();
                        col.clear();
                        col.resize(cb, 0.0);
                        for ((i, &pai), ga) in pa.iter().enumerate().zip(comp[*a].iter_mut()) {
                            let row = &r[i * cb..(i + 1) * cb];
                            let mut acc = 0.0;
                            for (&rij, &pbj) in row.iter().zip(pb) {
                                acc += rij * pbj;
                            }
                            *ga += acc / kf;
                            for (c, &rij) in col.iter_mut().zip(row) {
                                *c += rij * pai;
                            }
                        }
                        for (gb, c) in comp[*b].iter_mut().zip(&col) {
                            *gb += c / kf;
                        }
                    }
                    _ => {}
                }
            }
        }

        // Chain through softmax and apply Adam, element-wise per component.
        for (((logits_k, m_k), v_k), (grad_k, probs_k)) in model
            .logits
            .iter_mut()
            .zip(model.m.iter_mut())
            .zip(model.v.iter_mut())
            .zip(grad_p.iter().zip(&probs))
        {
            for ((((logits, m), v), gp), p) in logits_k
                .iter_mut()
                .zip(m_k.iter_mut())
                .zip(v_k.iter_mut())
                .zip(grad_k)
                .zip(probs_k)
            {
                let dot: f64 = p.iter().zip(gp).map(|(x, y)| x * y).sum();
                for ((((l, m), v), &gpu), &pu) in logits
                    .iter_mut()
                    .zip(m.iter_mut())
                    .zip(v.iter_mut())
                    .zip(gp)
                    .zip(p)
                {
                    let g = pu * (gpu - dot);
                    *m = b1 * *m + (1.0 - b1) * g;
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    *l -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
impl GemModel {
    /// Per-component softmax probabilities for one attribute.
    fn probs(&self, k: usize, attr: usize) -> Vec<f64> {
        softmax(&self.logits[k][attr])
    }

    /// Model marginal over 1 or 2 attributes (probability space).
    fn marginal(&self, attrs: &[usize]) -> Vec<f64> {
        let kk = self.logits.len() as f64;
        match attrs {
            [a] => {
                let card = self.logits[0][*a].len();
                let mut out = vec![0.0; card];
                for k in 0..self.logits.len() {
                    for (o, p) in out.iter_mut().zip(self.probs(k, *a)) {
                        *o += p / kk;
                    }
                }
                out
            }
            [a, b] => {
                let ca = self.logits[0][*a].len();
                let cb = self.logits[0][*b].len();
                let mut out = vec![0.0; ca * cb];
                for k in 0..self.logits.len() {
                    let pa = self.probs(k, *a);
                    let pb = self.probs(k, *b);
                    for (i, &x) in pa.iter().enumerate() {
                        for (j, &y) in pb.iter().enumerate() {
                            out[i * cb + j] += x * y / kk;
                        }
                    }
                }
                out
            }
            _ => unreachable!("GEM measures only 1- and 2-way marginals"),
        }
    }
}

#[cfg(test)]
fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / total).collect()
}

/// The per-component trainer, retained as the differential oracle for
/// [`train`]: every component recomputes the softmaxes it reads and every
/// measurement's residual inside its own gradient loop.
#[cfg(test)]
fn train_naive(
    model: &mut GemModel,
    measured: &[(NoisyMeasurement, f64)],
    n: f64,
    steps: usize,
    lr: f64,
) {
    let kf = model.logits.len() as f64;
    let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8f64);
    // Normalize weights so the learning rate is scale-free.
    let wsum: f64 = measured.iter().map(|(_, w)| *w).sum::<f64>().max(1e-12);
    // Gradient arena wrt probabilities, hoisted out of the step loop and
    // zeroed in place: allocating `mixture × d` nested Vecs per step made
    // the trainer allocation-bound at high step counts.
    let mut grad_p: Vec<Vec<Vec<f64>>> = model
        .logits
        .iter()
        .map(|comp| comp.iter().map(|l| vec![0.0; l.len()]).collect())
        .collect();
    // Measurement weights and proportion targets are step-invariant.
    let prepared: Vec<(&NoisyMeasurement, f64, Vec<f64>)> = measured
        .iter()
        .map(|(meas, w)| (meas, w / wsum, meas.values.iter().map(|v| v / n).collect()))
        .collect();

    for _ in 0..steps {
        model.step += 1;
        let t = model.step as f64;
        // Adam bias-correction scalars hoisted to once per step; `powf` is
        // deterministic, so dividing by the precomputed corrections is
        // bit-identical to recomputing them per parameter.
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);

        // Model marginals once per measurement per step (pure reads of the
        // pre-step model, shared by every component's gradient).
        let mps: Vec<Vec<f64>> = prepared
            .iter()
            .map(|(meas, _, _)| model.marginal(&meas.attrs))
            .collect();

        // Accumulate gradients wrt probabilities, one component at a time;
        // every cell sums its measurement contributions in ascending
        // measurement order.
        for (k, comp) in grad_p.iter_mut().enumerate() {
            for g in comp.iter_mut() {
                g.fill(0.0);
            }
            for ((meas, w, target), mp) in prepared.iter().zip(&mps) {
                match meas.attrs.as_slice() {
                    [a] => {
                        for (v, g) in comp[*a].iter_mut().enumerate() {
                            *g += 2.0 * w * (mp[v] - target[v]) / kf;
                        }
                    }
                    [a, b] => {
                        let cb = model.logits[0][*b].len();
                        let pa = model.probs(k, *a);
                        let pb = model.probs(k, *b);
                        for (i, ga) in comp[*a].iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for (j, &pbj) in pb.iter().enumerate() {
                                acc += 2.0 * w * (mp[i * cb + j] - target[i * cb + j]) * pbj;
                            }
                            *ga += acc / kf;
                        }
                        for (j, gb) in comp[*b].iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for (i, &pai) in pa.iter().enumerate() {
                                acc += 2.0 * w * (mp[i * cb + j] - target[i * cb + j]) * pai;
                            }
                            *gb += acc / kf;
                        }
                    }
                    _ => {}
                }
            }
        }

        // Chain through softmax and apply Adam, element-wise per component.
        for (((logits_k, m_k), v_k), grad_k) in model
            .logits
            .iter_mut()
            .zip(model.m.iter_mut())
            .zip(model.v.iter_mut())
            .zip(grad_p.iter())
        {
            for a in 0..logits_k.len() {
                let p = softmax(&logits_k[a]);
                let gp = &grad_k[a];
                let dot: f64 = p.iter().zip(gp).map(|(x, y)| x * y).sum();
                for u in 0..p.len() {
                    let g = p[u] * (gp[u] - dot);
                    let m = &mut m_k[a][u];
                    let v = &mut v_k[a][u];
                    *m = b1 * *m + (1.0 - b1) * g;
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    logits_k[a][u] -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use synrd_data::Attribute;

    fn correlated(n: usize) -> Dataset {
        let domain = Domain::new(vec![Attribute::binary("x"), Attribute::ordinal("y", 3)]);
        let mut rng = StdRng::seed_from_u64(6);
        let mut ds = Dataset::with_capacity(domain, n);
        for _ in 0..n {
            let x = u32::from(rng.gen::<f64>() < 0.4);
            let y = if x == 1 {
                2
            } else {
                u32::from(rng.gen::<f64>() < 0.5)
            };
            ds.push_row(&[x, y]).unwrap();
        }
        ds
    }

    #[test]
    fn mixture_learns_pair_structure() {
        let data = correlated(5_000);
        let mut synth = Gem::default();
        synth.fit(&data, Privacy::zcdp(2.0).unwrap(), 3).unwrap();
        let sample = synth.sample(5_000, 5).unwrap();
        // P(y = 2 | x = 1) must stay dominant.
        let x1 = sample.filter_rows(|r| r.get(0) == 1);
        let p = x1.proportion(1, 2).unwrap();
        assert!(p > 0.7, "p(y=2|x=1) = {p:.3}");
    }

    #[test]
    fn one_way_marginals_match_under_generous_budget() {
        let data = correlated(5_000);
        let mut synth = Gem::default();
        synth.fit(&data, Privacy::zcdp(4.0).unwrap(), 7).unwrap();
        let sample = synth.sample(5_000, 9).unwrap();
        let real = data.mean_of(0).unwrap();
        let got = sample.mean_of(0).unwrap();
        assert!((real - got).abs() < 0.05, "{got} vs {real}");
    }

    #[test]
    fn batched_sample_matches_naive() {
        let data = correlated(2_000);
        let mut synth = Gem::default();
        synth.fit(&data, Privacy::zcdp(1.0).unwrap(), 5).unwrap();
        // In a 4-thread pool, 20,000 rows take the harness's parallel
        // chunk path on any host.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for (n, seed) in [(0usize, 1u64), (1, 2), (513, 3), (20_000, 4)] {
            let batched = pool.install(|| synth.sample(n, seed)).unwrap();
            let naive = synth.sample_naive(n, seed).unwrap();
            assert_eq!(batched, naive, "n = {n}");
        }
    }

    #[test]
    fn runs_on_single_pair_workload() {
        // Smallest possible multi-attribute domain.
        let data = correlated(800);
        let mut synth = Gem::default();
        synth.fit(&data, Privacy::zcdp(0.5).unwrap(), 1).unwrap();
        assert_eq!(synth.sample(100, 1).unwrap().n_rows(), 100);
    }

    /// Rows over `cards` whose codes move together, so pair marginals are
    /// far from independent.
    fn linked(cards: &[usize], n: usize, seed: u64) -> Dataset {
        let attrs = cards
            .iter()
            .enumerate()
            .map(|(a, &c)| Attribute::ordinal(format!("a{a}"), c))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::with_capacity(Domain::new(attrs), n);
        for _ in 0..n {
            let u: f64 = rng.gen();
            let row: Vec<u32> = cards
                .iter()
                .map(|&c| {
                    let jitter: f64 = rng.gen::<f64>() * 0.2;
                    (((u + jitter) * c as f64) as usize).min(c - 1) as u32
                })
                .collect();
            ds.push_row(&row).unwrap();
        }
        ds
    }

    fn state_bits(model: &GemModel) -> (Vec<u64>, usize) {
        let bits = [&model.logits, &model.m, &model.v]
            .into_iter()
            .flatten()
            .flatten()
            .flatten()
            .map(|x| x.to_bits())
            .collect();
        (bits, model.step)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn train_matches_naive() {
        let cases = [
            ("correlated", correlated(600)),
            ("120/60/7", linked(&[120, 60, 7], 600, 3)),
            ("cardinality 1", linked(&[7, 1, 3, 2], 400, 4)),
        ];
        for (name, data) in cases {
            let d = data.n_attrs();
            let n = data.n_rows() as f64;
            let mut engine = MarginalEngine::new(&data);
            let mut rng = StdRng::seed_from_u64(11);
            let mut measured = Vec::new();
            for a in 0..d {
                let m = measure_gaussian(&mut engine, &[a], 0.5, &mut rng).unwrap();
                let w = 1.0 / m.sigma.powi(2);
                measured.push((m, w));
            }
            let pairs = all_pairs(data.domain());
            let mut pending = Vec::new();
            for q in &pairs {
                let m = measure_gaussian(&mut engine, &q.attrs, 2.0, &mut rng).unwrap();
                let w = 1.0 / m.sigma.powi(2);
                pending.push((m, w));
            }
            // The last pair joins between the two calls, so the step counter
            // and the Adam moments carry over into a longer measurement list.
            let last = pending.pop().unwrap();
            measured.extend(pending);

            let mut fast = GemModel::new(6, &data.domain().shape(), &mut rng);
            let mut naive = fast.clone();
            train(&mut fast, &measured, n, 9, 0.1);
            train_naive(&mut naive, &measured, n, 9, 0.1);
            assert_eq!(state_bits(&fast), state_bits(&naive), "{name}, first call");
            measured.push(last);
            train(&mut fast, &measured, n, 9, 0.1);
            train_naive(&mut naive, &measured, n, 9, 0.1);
            assert_eq!(state_bits(&fast), state_bits(&naive), "{name}, second call");
            assert_eq!(fast.step, 18);

            // Round scoring and sampling read the same softmax table.
            let mut probs = Vec::new();
            softmax_table(&fast.logits, &mut probs);
            let mut out = Vec::new();
            let singles: Vec<Vec<usize>> = (0..d).map(|a| vec![a]).collect();
            for attrs in singles.iter().chain(pairs.iter().map(|q| &q.attrs)) {
                table_marginal(&probs, attrs, &mut out);
                assert_eq!(bits(&out), bits(&fast.marginal(attrs)), "{name} {attrs:?}");
            }
            let cums = cumulative_tables(&fast.logits);
            for (k, per_attr) in cums.iter().enumerate() {
                for (a, cum) in per_attr.iter().enumerate() {
                    let mut want = fast.probs(k, a);
                    let mut acc = 0.0;
                    for v in want.iter_mut() {
                        acc += *v;
                        *v = acc;
                    }
                    assert_eq!(bits(cum), bits(&want), "{name} component {k} attr {a}");
                }
            }
        }
    }
}
