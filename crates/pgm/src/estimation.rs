//! Mirror-descent estimation of a graphical model from noisy marginal
//! measurements — the Private-PGM work-alike at the heart of MST, AIM and
//! PrivMRF.
//!
//! Given noisy counts `y_S ≈ n·μ_S(θ) + N(0, σ_S²)` over attribute sets S,
//! we fit clique log-potentials θ to minimize the weighted squared loss
//! `L(θ) = Σ_S ‖μ_S(θ) − y_S/n̂‖² / (2·(σ_S/n̂)²)`, using the mirror-descent
//! update of McKenna et al.: the loss gradient in marginal space is lifted
//! onto the containing clique's potential, with a backtracking step size.
//!
//! [`estimate`] is the one production estimator. Its descent loop is
//! allocation-free after warm-up: potentials, the backtracking proposal,
//! gradients, per-measurement marginal/probability buffers, one
//! [`CalibrationWorkspace`] for the fit's junction tree and both
//! calibrated-tree buffers are set up once, stride plans map measurement
//! scopes onto their cliques, and every iteration reuses them through
//! [`calibrate_into`]. Each backtracking trial runs a loss pass, which
//! marginalizes every measurement target of the trial's calibration; each
//! iteration starts with a gradient pass, which reads the marginals the
//! accepted trial's loss pass left, so every calibration is marginalized
//! once. All arithmetic is performed in the same per-cell order as
//! [`estimate_naive`], the original allocate-per-operation implementation,
//! so fitted models are bit-identical to it (pinned by
//! `tests/calibration_determinism.rs` and the report-digest integration
//! test).

use crate::error::{PgmError, Result};
use crate::factor::{
    bcast_add, bcast_assign, marg_finish, marg_max, marg_sum, note_buffer_alloc,
    probabilities_into_slice, Factor, StridePlan,
};
use crate::inference::{calibrate_into, CalibratedTree};
use crate::junction_tree::JunctionTree;
use crate::sampling::TreeSampler;
use crate::workspace::CalibrationWorkspace;
use rayon::prelude::*;
use std::sync::OnceLock;

/// One noisy marginal measurement.
#[derive(Debug, Clone)]
pub struct NoisyMeasurement {
    /// Sorted attribute ids.
    pub attrs: Vec<usize>,
    /// Noisy cell counts (may be negative after noising).
    pub values: Vec<f64>,
    /// Standard deviation of the additive noise (in count units).
    pub sigma: f64,
}

/// Initial mirror-descent step size, before it is divided by the total
/// target weight; backtracking tunes it from there.
const INITIAL_STEP: f64 = 1.0;

/// Largest clique, in cells, that [`estimate`] builds a junction tree with.
/// AIM's workload and the AIM and PrivMRF selection probes test candidates
/// against the same limit, so every selected set stays estimable.
pub const CLIQUE_CELL_LIMIT: usize = 1 << 21;

/// Options for [`estimate`].
#[derive(Debug, Clone, Copy)]
pub struct EstimationOptions {
    /// Mirror-descent iterations.
    pub iterations: usize,
    /// Worker threads for the intra-fit parallel phases (target
    /// marginalization in the loss pass, the per-clique lift in the
    /// gradient pass). Every reduction order is pinned, so fitted models
    /// are **bit-identical at any thread count**; `1` runs every phase on
    /// the calling thread.
    pub fit_threads: usize,
}

/// A fitted graphical model: junction tree + calibrated beliefs, plus the
/// lazily built (and then cached) row sampler.
#[derive(Debug)]
pub struct FittedModel {
    tree: JunctionTree,
    calibrated: CalibratedTree,
    /// Flattened cumulative/guide/emit sampling tables, built on the first
    /// `sampler()` call and reused across every bootstrap draw thereafter.
    /// A pure function of `(tree, calibrated)`, so it is never serialized
    /// and a clone restarts empty.
    sampler: OnceLock<TreeSampler>,
}

impl Clone for FittedModel {
    fn clone(&self) -> FittedModel {
        FittedModel {
            tree: self.tree.clone(),
            calibrated: self.calibrated.clone(),
            // Carry an already built sampler over (cheap relative to
            // rebuilding); an unbuilt one stays unbuilt.
            sampler: match self.sampler.get() {
                Some(s) => OnceLock::from(s.clone()),
                None => OnceLock::new(),
            },
        }
    }
}

impl FittedModel {
    /// Assemble a model from restored parts (the fit-cache decoding path):
    /// one log-value vector per clique of `tree`, in clique order, each
    /// becoming the belief over its clique.
    ///
    /// # Errors
    /// [`PgmError::ShapeMismatch`] when the vectors do not match the tree's
    /// cliques (count, or a vector's length against its clique's cells).
    pub fn from_parts(tree: JunctionTree, log_values: Vec<Vec<f64>>) -> Result<FittedModel> {
        if log_values.len() != tree.cliques().len() {
            return Err(PgmError::ShapeMismatch {
                cells: tree.cliques().len(),
                values: log_values.len(),
            });
        }
        let beliefs = log_values
            .into_iter()
            .enumerate()
            .map(|(c, values)| {
                Factor::from_log_values(
                    tree.cliques()[c].clone(),
                    tree.clique_shape(c).to_vec(),
                    values,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(FittedModel {
            tree,
            calibrated: CalibratedTree { beliefs },
            sampler: OnceLock::new(),
        })
    }

    /// The cached row sampler, built on first use. Construction is a
    /// deterministic function of the fitted model, so the cached sampler
    /// produces bit-identical draws to a freshly built one — pinned by the
    /// `sampler_cache` tests in `synrd-synth`.
    ///
    /// # Errors
    /// Sampler construction errors (inconsistent beliefs) on the first call.
    pub fn sampler(&self) -> Result<&TreeSampler> {
        if let Some(s) = self.sampler.get() {
            return Ok(s);
        }
        let built = TreeSampler::new(self)?;
        // A racing builder may have won; `get_or_init` keeps exactly one.
        Ok(self.sampler.get_or_init(|| built))
    }

    /// The junction tree structure.
    pub fn tree(&self) -> &JunctionTree {
        &self.tree
    }

    /// Calibrated beliefs.
    pub fn calibrated(&self) -> &CalibratedTree {
        &self.calibrated
    }

    /// Model marginal probabilities over `attrs` if covered by a clique;
    /// falls back to a product of single-attribute marginals otherwise
    /// (the independence approximation, used by AIM's candidate scoring for
    /// not-yet-measured pairs).
    pub fn marginal_or_independent(&self, attrs: &[usize]) -> Result<Vec<f64>> {
        match self.calibrated.marginal(&self.tree, attrs) {
            Ok(m) => Ok(m),
            Err(PgmError::UncoveredMeasurement { .. }) => {
                let mut out = vec![1.0f64];
                for &a in attrs {
                    let single = self.calibrated.marginal(&self.tree, &[a])?;
                    let mut next = Vec::with_capacity(out.len() * single.len());
                    for &p in &out {
                        for &q in &single {
                            next.push(p * q);
                        }
                    }
                    out = next;
                }
                Ok(out)
            }
            Err(e) => Err(e),
        }
    }
}

/// A measurement resolved against the junction tree, with its reusable
/// buffers: noisy target proportions, the stride plan between the
/// measurement scope and its containing clique, and scratch for the model
/// marginal / probabilities / marginal-space gradient.
struct Target {
    clique: usize,
    proportions: Vec<f64>,
    weight: f64, // 1 / (2 sigma_prop^2)
    /// Stride plan embedding the measurement scope in the clique scope
    /// (marginalize down for the loss, broadcast up for the gradient).
    plan: StridePlan,
    /// Model log-marginal over the measurement scope.
    marg: Vec<f64>,
    /// Model probabilities over the measurement scope, as the last loss
    /// pass left them.
    probs: Vec<f64>,
    /// Marginal-space gradient `2·w·(μ − y/n̂)`.
    grad: Vec<f64>,
}

/// Marginalize one target's belief onto its measurement scope and refresh
/// its probabilities, using the target's own disjoint `(maxes, sums)`
/// scratch pair. The per-cell operation sequence is exactly the historical
/// shared-scratch loop — only the buffer identity differs — so every
/// chunking of the targets produces bit-identical `marg`/`probs`.
fn marginalize_target(cal: &CalibratedTree, t: &mut Target, mx: &mut [f64], sm: &mut [f64]) {
    let belief = &cal.beliefs[t.clique];
    if t.plan.is_identity() {
        // Measurement scope == clique scope: the marginal is the belief.
        t.marg.copy_from_slice(belief.log_values());
    } else {
        mx.fill(f64::NEG_INFINITY);
        sm.fill(0.0);
        marg_max(belief.log_values(), mx, &t.plan);
        marg_sum(belief.log_values(), mx, sm, &t.plan);
        marg_finish(mx, sm, &mut t.marg);
    }
    probabilities_into_slice(&t.marg, &mut t.probs);
}

/// Lift one clique's marginal-space gradients onto its potential buffer,
/// applying the clique's targets in ascending target index — the order the
/// historical single-pass loop produced (assign first, add the rest).
fn lift_clique_grad(grad: &mut Factor, idxs: &[usize], targets: &[Target]) {
    let g = grad.log_values_mut();
    for (pos, &ti) in idxs.iter().enumerate() {
        let t = &targets[ti];
        if pos == 0 {
            bcast_assign(g, &t.grad, &t.plan);
        } else {
            bcast_add(g, &t.grad, &t.plan);
        }
    }
}

/// Loss pass: the measurement loss of calibration `cal`, leaving each
/// target's model probabilities in its `probs` for the gradient pass.
///
/// Targets marginalize in contiguous chunks, one per worker of the
/// installed pool; each target owns `marg`, `probs` and its slice of
/// `scratch` (two floats per measurement cell), so the chunking cannot
/// change a bit. The loss is then one floating-point chain in target
/// order, which fixes it at every thread count.
fn loss_pass(cal: &CalibratedTree, targets: &mut [Target], scratch: &mut [f64]) -> f64 {
    let chunk = targets.len().div_ceil(rayon::current_num_threads());
    let mut jobs: Vec<(&mut [Target], &mut [f64])> = Vec::new();
    let mut rest = scratch;
    for tc in targets.chunks_mut(chunk) {
        let need: usize = tc.iter().map(|t| 2 * t.marg.len()).sum();
        let (sc, r) = std::mem::take(&mut rest).split_at_mut(need);
        rest = r;
        jobs.push((tc, sc));
    }
    jobs.into_par_iter().for_each(|(tc, sc)| {
        let mut rest = sc;
        for t in tc {
            let cells = t.marg.len();
            let (mx, r) = rest.split_at_mut(cells);
            let (sm, r) = r.split_at_mut(cells);
            rest = r;
            marginalize_target(cal, t, mx, sm);
        }
    });

    let mut loss = 0.0;
    for t in targets.iter() {
        for (p, y) in t.probs.iter().zip(&t.proportions) {
            let diff = p - y;
            loss += t.weight * diff * diff;
        }
    }
    loss
}

/// Gradient pass: each target's marginal-space gradient, from the
/// probabilities the last loss pass left, lifted onto the potential of
/// every clique that holds a target. Cliques lift in parallel, each into
/// its own buffer; within a clique, targets apply in ascending index.
fn gradient_pass(targets: &mut [Target], clique_targets: &[Vec<usize>], grads: &mut [Factor]) {
    for t in targets.iter_mut() {
        for ((g, p), y) in t.grad.iter_mut().zip(&t.probs).zip(&t.proportions) {
            let diff = p - y;
            *g = 2.0 * t.weight * diff;
        }
    }
    let targets: &[Target] = targets;
    let jobs: Vec<(&Vec<usize>, &mut Factor)> = clique_targets
        .iter()
        .zip(grads.iter_mut())
        .filter(|(idxs, _)| !idxs.is_empty())
        .collect();
    jobs.into_par_iter()
        .for_each(|(idxs, grad)| lift_clique_grad(grad, idxs, targets));
}

/// Estimate a model from noisy measurements over `domain_shape`.
///
/// Every allocation happens before the first iteration: potentials, the
/// backtracking proposal, gradients, per-target buffers, one
/// [`CalibrationWorkspace`] for the fit's junction tree and both calibrated
/// buffers. Each calibration is marginalized once: the loss pass of the
/// accepted trial leaves the target marginals that the next gradient pass
/// reads. Both passes run inside one pool of `options.fit_threads` workers.
///
/// # Errors
/// [`PgmError::NoMeasurements`] without input; construction errors from the
/// junction tree (e.g. a measurement forcing an oversized clique).
pub fn estimate(
    domain_shape: &[usize],
    measurements: &[NoisyMeasurement],
    options: EstimationOptions,
) -> Result<FittedModel> {
    if measurements.is_empty() {
        return Err(PgmError::NoMeasurements);
    }
    // n̂: inverse-variance weighted mean of the measurement totals.
    let mut num = 0.0;
    let mut den = 0.0;
    for m in measurements {
        let total: f64 = m.values.iter().sum();
        let w = 1.0 / m.sigma.max(1e-9).powi(2);
        num += w * total;
        den += w;
    }
    let n_estimate = (num / den).max(1.0);

    let sets: Vec<Vec<usize>> = measurements.iter().map(|m| m.attrs.clone()).collect();
    let tree = JunctionTree::build(domain_shape, &sets, CLIQUE_CELL_LIMIT)?;

    // Assign measurements to containing cliques; precompute targets as
    // noisy *proportions* with proportion-space noise std, plus the stride
    // plan and scratch each target reuses every iteration.
    let mut targets = Vec::with_capacity(measurements.len());
    for m in measurements {
        let clique =
            tree.containing_clique(&m.attrs)
                .ok_or_else(|| PgmError::UncoveredMeasurement {
                    attrs: m.attrs.clone(),
                })?;
        let shape: Vec<usize> = m.attrs.iter().map(|&a| domain_shape[a]).collect();
        let plan = StridePlan::embed(
            &m.attrs,
            &shape,
            &tree.cliques()[clique],
            tree.clique_shape(clique),
        )?;
        let cells = plan.small_cells();
        // A truncated/oversized value vector would otherwise zip silently
        // against the model marginal and fit with unconstrained cells (the
        // original path errored when lifting the gradient).
        if m.values.len() != cells {
            return Err(PgmError::ShapeMismatch {
                cells,
                values: m.values.len(),
            });
        }
        let sigma_prop = (m.sigma / n_estimate).max(1e-9);
        targets.push(Target {
            clique,
            proportions: m.values.iter().map(|v| v / n_estimate).collect(),
            weight: 1.0 / (2.0 * sigma_prop * sigma_prop),
            plan,
            marg: vec![0.0; cells],
            probs: vec![0.0; cells],
            grad: vec![0.0; cells],
        });
    }

    // Clique → targets map for the gradient lift (ascending target index
    // within each clique, the order the loss pass pins). A clique without
    // targets gets no gradient, so the descent never moves its potential.
    let mut clique_targets: Vec<Vec<usize>> = vec![Vec::new(); tree.cliques().len()];
    for (i, t) in targets.iter().enumerate() {
        clique_targets[t.clique].push(i);
    }

    // Initialize potentials to uniform; pre-size the proposal, gradient and
    // marginalization buffers (end of warm-up — the loop allocates nothing).
    let mut theta: Vec<Factor> = tree
        .cliques()
        .iter()
        .enumerate()
        .map(|(i, c)| Factor::uniform(c.clone(), tree.clique_shape(i).to_vec()))
        .collect::<Result<_>>()?;
    let mut proposal = theta.clone();
    let mut grads: Vec<Factor> = theta.clone();
    note_buffer_alloc(); // per-target (maxes, sums) marginalization scratch
    let mut scratch = vec![0.0; targets.iter().map(|t| 2 * t.marg.len()).sum()];
    let mut ws = CalibrationWorkspace::new(&tree)?;
    let mut cal = CalibratedTree::default();
    let mut trial = CalibratedTree::default();

    // Normalize gradient magnitude: weights scale like n̂²/σ², so scale the
    // step by the total weight to start in a sane region.
    let weight_scale: f64 = targets.iter().map(|t| t.weight).sum::<f64>().max(1.0);
    let mut step = INITIAL_STEP / weight_scale;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(options.fit_threads.max(1))
        .build()
        .expect("fit thread pool");
    pool.install(|| -> Result<()> {
        calibrate_into(&theta, &mut ws, &mut cal)?;
        let mut loss = loss_pass(&cal, &mut targets, &mut scratch);
        for _ in 0..options.iterations {
            // The targets hold the marginals of `cal`: the loss pass that
            // priced it left them there.
            gradient_pass(&mut targets, &clique_targets, &mut grads);
            // Backtracking: shrink the step until the loss decreases.
            let mut accepted = false;
            for _ in 0..24 {
                for (c, (pr, th)) in proposal.iter_mut().zip(&theta).enumerate() {
                    pr.copy_values_from(th);
                    if !clique_targets[c].is_empty() {
                        for (tv, gv) in pr.log_values_mut().iter_mut().zip(grads[c].log_values()) {
                            *tv -= step * gv;
                        }
                    }
                }
                calibrate_into(&proposal, &mut ws, &mut trial)?;
                let new_loss = loss_pass(&trial, &mut targets, &mut scratch);
                if new_loss <= loss {
                    std::mem::swap(&mut theta, &mut proposal);
                    std::mem::swap(&mut cal, &mut trial);
                    loss = new_loss;
                    step *= 1.25; // expand after success
                    accepted = true;
                    break;
                }
                step *= 0.5;
            }
            if !accepted {
                break; // converged to numerical precision
            }
        }
        Ok(())
    })?;

    Ok(FittedModel {
        tree,
        calibrated: cal,
        sampler: OnceLock::new(),
    })
}

// ---------------------------------------------------------------------------
// Naive reference estimation — the differential-testing oracle.
// ---------------------------------------------------------------------------

/// The original allocate-per-operation mirror descent, built on the naive
/// factor algebra and [`crate::inference::calibrate_naive`]. Retained
/// verbatim as the bit-identity oracle for [`estimate`]
/// (see `tests/calibration_determinism.rs`).
pub fn estimate_naive(
    domain_shape: &[usize],
    measurements: &[NoisyMeasurement],
    options: EstimationOptions,
) -> Result<FittedModel> {
    use crate::inference::calibrate_naive;

    if measurements.is_empty() {
        return Err(PgmError::NoMeasurements);
    }
    // n̂: inverse-variance weighted mean of the measurement totals.
    let mut num = 0.0;
    let mut den = 0.0;
    for m in measurements {
        let total: f64 = m.values.iter().sum();
        let w = 1.0 / m.sigma.max(1e-9).powi(2);
        num += w * total;
        den += w;
    }
    let n_estimate = (num / den).max(1.0);

    let sets: Vec<Vec<usize>> = measurements.iter().map(|m| m.attrs.clone()).collect();
    let tree = JunctionTree::build(domain_shape, &sets, CLIQUE_CELL_LIMIT)?;

    struct NaiveTarget {
        clique: usize,
        attrs: Vec<usize>,
        proportions: Vec<f64>,
        weight: f64,
    }
    let mut targets = Vec::with_capacity(measurements.len());
    for m in measurements {
        let clique =
            tree.containing_clique(&m.attrs)
                .ok_or_else(|| PgmError::UncoveredMeasurement {
                    attrs: m.attrs.clone(),
                })?;
        let sigma_prop = (m.sigma / n_estimate).max(1e-9);
        targets.push(NaiveTarget {
            clique,
            attrs: m.attrs.clone(),
            proportions: m.values.iter().map(|v| v / n_estimate).collect(),
            weight: 1.0 / (2.0 * sigma_prop * sigma_prop),
        });
    }

    let mut theta: Vec<Factor> = tree
        .cliques()
        .iter()
        .enumerate()
        .map(|(i, c)| Factor::uniform(c.clone(), tree.clique_shape(i).to_vec()))
        .collect::<Result<_>>()?;

    let loss_and_grad = |cal: &CalibratedTree,
                         want_grad: bool|
     -> Result<(f64, Vec<Option<Factor>>)> {
        let mut loss = 0.0;
        let mut grads: Vec<Option<Factor>> = vec![None; tree.cliques().len()];
        for t in &targets {
            let model = cal.beliefs[t.clique].naive_marginalize_keep(&t.attrs)?;
            let probs = model.probabilities();
            let mut g = Vec::with_capacity(probs.len());
            for (p, y) in probs.iter().zip(&t.proportions) {
                let diff = p - y;
                loss += t.weight * diff * diff;
                g.push(2.0 * t.weight * diff);
            }
            if want_grad {
                let shape: Vec<usize> = t.attrs.iter().map(|&a| domain_shape[a]).collect();
                let gf = Factor::from_log_values(t.attrs.clone(), shape, g)?;
                let expanded = gf.expand(
                    tree.cliques()[t.clique].as_slice(),
                    tree.clique_shape(t.clique),
                )?;
                grads[t.clique] = Some(match grads[t.clique].take() {
                    None => expanded,
                    Some(mut acc) => {
                        for (a, b) in acc.log_values_mut().iter_mut().zip(expanded.log_values()) {
                            *a += b;
                        }
                        acc
                    }
                });
            }
        }
        Ok((loss, grads))
    };

    let weight_scale: f64 = targets.iter().map(|t| t.weight).sum::<f64>().max(1.0);
    let mut step = INITIAL_STEP / weight_scale;
    let mut cal = calibrate_naive(&tree, &theta)?;
    let (mut loss, _) = loss_and_grad(&cal, false)?;

    for _ in 0..options.iterations {
        let (_, grads) = loss_and_grad(&cal, true)?;
        let mut accepted = false;
        for _ in 0..24 {
            let mut proposal = theta.clone();
            for (th, g) in proposal.iter_mut().zip(&grads) {
                if let Some(g) = g {
                    for (tv, gv) in th.log_values_mut().iter_mut().zip(g.log_values()) {
                        *tv -= step * gv;
                    }
                }
            }
            let new_cal = calibrate_naive(&tree, &proposal)?;
            let (new_loss, _) = loss_and_grad(&new_cal, false)?;
            if new_loss <= loss {
                theta = proposal;
                cal = new_cal;
                loss = new_loss;
                step *= 1.25;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            break;
        }
    }

    Ok(FittedModel {
        tree,
        calibrated: cal,
        sampler: OnceLock::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTIONS: EstimationOptions = EstimationOptions {
        iterations: 120,
        fit_threads: 1,
    };

    /// Noiseless measurements must be recovered almost exactly.
    #[test]
    fn recovers_exact_marginals_without_noise() {
        // Two correlated binary attributes plus an independent third.
        // Joint counts for (0,1): strong diagonal.
        let domain = vec![2usize, 2, 3];
        let m01 = NoisyMeasurement {
            attrs: vec![0, 1],
            values: vec![400.0, 100.0, 100.0, 400.0],
            sigma: 1.0,
        };
        let m2 = NoisyMeasurement {
            attrs: vec![2],
            values: vec![500.0, 300.0, 200.0],
            sigma: 1.0,
        };
        let model = estimate(&domain, &[m01, m2], OPTIONS).unwrap();

        let got01 = model.marginal_or_independent(&[0, 1]).unwrap();
        for (g, e) in got01.iter().zip(&[0.4, 0.1, 0.1, 0.4]) {
            assert!((g - e).abs() < 0.01, "{got01:?}");
        }
        let got2 = model.marginal_or_independent(&[2]).unwrap();
        for (g, e) in got2.iter().zip(&[0.5, 0.3, 0.2]) {
            assert!((g - e).abs() < 0.01, "{got2:?}");
        }
    }

    #[test]
    fn chain_measurements_propagate_correlation() {
        // (0,1) correlated, (1,2) correlated => model implies (0,2)
        // correlation through the chain.
        let domain = vec![2usize, 2, 2];
        let strong = vec![450.0, 50.0, 50.0, 450.0];
        let ms = vec![
            NoisyMeasurement {
                attrs: vec![0, 1],
                values: strong.clone(),
                sigma: 1.0,
            },
            NoisyMeasurement {
                attrs: vec![1, 2],
                values: strong,
                sigma: 1.0,
            },
        ];
        let model = estimate(&domain, &ms, OPTIONS).unwrap();
        // p(0=0,2=0) should exceed independence (0.25): chain correlation.
        let m02 = model.marginal_or_independent(&[0, 2]).unwrap();
        // attrs (0,2) are not in one clique -> independence fallback would
        // give exactly 0.25; the calibrated model is only reachable through
        // cliques, so check the implied correlation through sampling instead
        // is done in sampling tests. Here check coverage marginals agree.
        assert!((m02.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let m1 = model.marginal_or_independent(&[1]).unwrap();
        assert!((m1[0] - 0.5).abs() < 0.02);
    }

    #[test]
    fn noisy_measurements_are_denoised_toward_consistency() {
        // The same marginal measured twice with disagreeing noise: the model
        // must settle between them.
        let domain = vec![2usize];
        let ms = vec![
            NoisyMeasurement {
                attrs: vec![0],
                values: vec![600.0, 400.0],
                sigma: 10.0,
            },
            NoisyMeasurement {
                attrs: vec![0],
                values: vec![640.0, 360.0],
                sigma: 10.0,
            },
        ];
        let model = estimate(&domain, &ms, OPTIONS).unwrap();
        let m = model.marginal_or_independent(&[0]).unwrap();
        assert!(m[0] > 0.58 && m[0] < 0.66, "{m:?}");
    }

    #[test]
    fn no_measurements_is_an_error() {
        assert!(matches!(
            estimate(&[2, 2], &[], OPTIONS),
            Err(PgmError::NoMeasurements)
        ));
    }

    #[test]
    fn wrong_value_count_is_an_error() {
        // 2x2 scope but only 3 values: must error, not fit with a silently
        // unconstrained cell.
        let bad = NoisyMeasurement {
            attrs: vec![0, 1],
            values: vec![10.0; 3],
            sigma: 1.0,
        };
        assert!(matches!(
            estimate(&[2, 2], &[bad], OPTIONS),
            Err(PgmError::ShapeMismatch {
                cells: 4,
                values: 3
            })
        ));
    }

    /// A full descent at every fit-thread count must be bit-identical to the
    /// sequential fit — odd counts catch remainder-chunk order bugs.
    #[test]
    fn fit_threads_are_bit_identical() {
        let domain = vec![3usize, 2, 4, 2, 3];
        let mut ms = Vec::new();
        // Overlapping pairs plus singletons: several cliques, several
        // targets per clique, ragged target sizes.
        for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (3, 4), (0, 4)] {
            let cells = domain[a] * domain[b];
            ms.push(NoisyMeasurement {
                attrs: vec![a.min(b), a.max(b)],
                values: (0..cells).map(|i| 40.0 + 13.0 * i as f64).collect(),
                sigma: 3.0,
            });
        }
        for a in 0..domain.len() {
            ms.push(NoisyMeasurement {
                attrs: vec![a],
                values: (0..domain[a]).map(|i| 250.0 - 20.0 * i as f64).collect(),
                sigma: 5.0,
            });
        }
        let opts = EstimationOptions {
            iterations: 40,
            fit_threads: 1,
        };
        let baseline = estimate(&domain, &ms, opts).unwrap();
        for threads in [2usize, 3, 7] {
            let model = estimate(
                &domain,
                &ms,
                EstimationOptions {
                    fit_threads: threads,
                    ..opts
                },
            )
            .unwrap();
            assert_eq!(
                model.calibrated().beliefs,
                baseline.calibrated().beliefs,
                "fit_threads={threads} changed the fitted beliefs"
            );
        }
    }
}
