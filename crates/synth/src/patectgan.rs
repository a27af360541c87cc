//! PATECTGAN (Rosenblatt et al. 2020): a conditional tabular GAN whose
//! discriminator is privatized with PATE.
//!
//! **Simulation note** (README, "Departures from the paper"): the
//! reference implementation is a full CTGAN on GPU with data-dependent PATE
//! accounting. We reproduce its architecture class at laptop scale: an MLP
//! generator emitting one softmax block per attribute, an ensemble of
//! logistic *teacher* discriminators on disjoint data partitions, and an
//! MLP *student* discriminator trained only on generator samples labeled by
//! Laplace-noised teacher votes. A share of the budget additionally buys
//! noisy 1-way histograms used as a moment-matching loss (the role CTGAN's
//! conditional sampling plays in the original). The properties the
//! benchmark depends on survive the simulation: deep-learning based,
//! ε-insensitive, weaker than PGM methods on low-dimensional data, able to
//! fit arbitrarily large domains.
//!
//! **Training is minibatch-batched**: each round draws all `BATCH` latents
//! up front, runs one batched generator forward, one batched student
//! BCE step, and one batched generator update — one matrix-matrix pass per
//! layer via `synrd-ml`'s [`BatchWorkspace`] kernels instead of `BATCH`
//! per-example passes (gradients are summed over the round's samples and
//! applied as a single Adam step per network per round). Both training
//! workspaces run on the fit's `FitContext::backend` (the SIMD kernels
//! when the CPU supports them); both backends are bit-identical, so the
//! fitted state is the same regardless. The per-example formulation of the
//! same semantics is retained under `cfg(test)` (`fit_naive`) as a
//! differential oracle; `fit` must reproduce its fitted state bit-for-bit.
//!
//! **Sampling is row-tiled**: `sample` pre-draws every row's latent and
//! uniforms in the per-row order, then runs the generator and the
//! inverse-CDF decode over fixed tiles of `SAMPLE_TILE_ROWS` rows, so a
//! large request's activations stay cache-sized instead of growing with the
//! request. The per-row sampler is retained under `cfg(test)`
//! (`sample_naive`); `sample` must reproduce its output bit-for-bit.

use crate::common::{dataset_from_columns, measure_gaussian};
use crate::error::{Result, SynthError};
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, MarginalEngine};
use synrd_dp::{derive_seed, standard_laplace, standard_normal, Accountant, Privacy};
use synrd_ml::{Activation, BatchWorkspace, Mlp};
use synrd_pgm::assemble_chunks;

/// Number of PATE teachers (clamped to the row count at fit time so every
/// teacher owns at least one row).
const TEACHERS: usize = 8;
/// Adversarial training rounds; each round is one minibatch Adam step for
/// the generator and the student.
const ROUNDS: usize = 120;
/// Fake samples per round (the minibatch size).
const BATCH: usize = 48;
/// Latent dimension.
const Z_DIM: usize = 16;
/// Hidden width for generator and student.
const HIDDEN: usize = 64;
/// Adam learning rate for generator and student. The round loop takes one
/// minibatch step per round, so this is tuned for `ROUNDS` total steps (not
/// `ROUNDS × BATCH` as the per-example loop once was).
const LEARNING_RATE: f64 = 1e-2;

/// Rows per generator pass in [`PateCtgan::sample`]. A pass sizes its
/// workspace arenas to the rows it covers: 10,000 rows of lee2021's
/// 860-wide one-hot output take about 287 MB, which the GEMM and the decode
/// would stream from memory, while a tile's arenas are re-read from cache.
/// Tiles of 64 to 512 rows time the same on lee2021. The tile size has no
/// effect on the sampled codes.
const SAMPLE_TILE_ROWS: usize = 256;

/// The PATECTGAN synthesizer.
#[derive(Default)]
pub struct PateCtgan {
    fitted: Option<Fitted>,
}

struct Fitted {
    domain: Domain,
    generator: Mlp,
    blocks: Vec<(usize, usize)>, // (offset, cardinality) per attribute
    z_dim: usize,
}

/// One-hot encode a row of codes into `out` given attribute blocks.
fn one_hot(codes: &[u32], blocks: &[(usize, usize)], out: &mut [f64]) {
    out.iter_mut().for_each(|v| *v = 0.0);
    for (a, &(offset, _)) in blocks.iter().enumerate() {
        out[offset + codes[a] as usize] = 1.0;
    }
}

/// Per-block softmax of generator logits into `out` (same length).
fn block_softmax_into(logits: &[f64], blocks: &[(usize, usize)], out: &mut [f64]) {
    for &(offset, card) in blocks {
        let slice = &logits[offset..offset + card];
        let max = slice.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for (i, &l) in slice.iter().enumerate() {
            let e = (l - max).exp();
            out[offset + i] = e;
            total += e;
        }
        for v in &mut out[offset..offset + card] {
            *v /= total;
        }
    }
}

/// Allocating wrapper around [`block_softmax_into`], used by the retained
/// per-row sampling oracle.
#[cfg(test)]
fn block_softmax(logits: &[f64], blocks: &[(usize, usize)]) -> Vec<f64> {
    let mut out = vec![0.0f64; logits.len()];
    block_softmax_into(logits, blocks, &mut out);
    out
}

/// Chain a gradient wrt softmax probabilities back through each block
/// softmax into logit space: `dl_dlogit[v] = p[v] * (g[v] - <p, g>)`.
fn block_softmax_chain(soft: &[f64], g: &[f64], blocks: &[(usize, usize)], out: &mut [f64]) {
    for &(off, card) in blocks {
        let p = &soft[off..off + card];
        let gb = &g[off..off + card];
        let dot: f64 = p.iter().zip(gb).map(|(x, y)| x * y).sum();
        for v in 0..card {
            out[off + v] = p[v] * (gb[v] - dot);
        }
    }
}

/// Everything `fit` builds before the round loop: budget split, one-hot
/// layout, moment targets, teacher ensemble, and the two MLPs. Shared
/// between the batched round loop and the per-example oracle so both
/// consume the RNG identically and differ only in their MLP calls.
struct FitState {
    blocks: Vec<(usize, usize)>,
    onehot_dim: usize,
    moment_targets: Vec<Vec<f64>>,
    vote_scale: f64,
    n: usize,
    per_teacher: usize,
    perm: Vec<usize>,
    /// Teacher logistic weights over one-hot features (bias-augmented).
    teacher_w: Vec<Vec<f64>>,
    /// One-hot encodings of teacher rows, cached across rounds: teachers
    /// redraw rows from their (fixed) partitions every round, so the
    /// per-draw zero-fill + re-encode of the full one-hot buffer was pure
    /// churn. Filled lazily, so memory is bounded by the rows actually
    /// drawn, not by n.
    onehot_cache: Vec<Option<Box<[f64]>>>,
    codes: Vec<u32>,
    generator: Mlp,
    student: Mlp,
}

impl FitState {
    /// One SGD step per teacher on (its real row = 1, the fake sample = 0),
    /// then the Laplace-noised PATE vote on the fake sample; returns the
    /// noisy label the student trains on.
    fn teacher_step_and_vote(&mut self, data: &Dataset, soft: &[f64], rng: &mut StdRng) -> f64 {
        let teachers = self.teacher_w.len();
        for (t, w) in self.teacher_w.iter_mut().enumerate() {
            // Partition t owns perm[lo..hi]; the last partition absorbs the
            // n % teachers leftover rows instead of silently dropping them.
            let lo = t * self.per_teacher;
            let hi = if t + 1 == teachers {
                self.n
            } else {
                lo + self.per_teacher
            };
            let row_idx = self.perm[lo + rng.gen_range(0..hi - lo)];
            if self.onehot_cache[row_idx].is_none() {
                let row = data.row(row_idx);
                for (a, c) in self.codes.iter_mut().enumerate() {
                    *c = row.get(a);
                }
                let mut enc = vec![0.0f64; self.onehot_dim];
                one_hot(&self.codes, &self.blocks, &mut enc);
                self.onehot_cache[row_idx] = Some(enc.into_boxed_slice());
            }
            let real_onehot = self.onehot_cache[row_idx].as_deref().expect("just filled");
            logistic_sgd_step(w, real_onehot, 1.0, 0.05);
            logistic_sgd_step(w, soft, 0.0, 0.05);
        }
        let votes_fake: f64 = self
            .teacher_w
            .iter()
            .map(|w| f64::from(logistic_score(w, soft) < 0.5))
            .sum();
        let noisy = votes_fake + self.vote_scale * standard_laplace(rng);
        if noisy > teachers as f64 / 2.0 {
            0.0 // majority says fake
        } else {
            1.0
        }
    }

    fn new(data: &Dataset, privacy: Privacy, rng: &mut StdRng) -> Result<FitState> {
        let mut accountant = Accountant::new(privacy);
        let total = accountant.total();
        let d = data.n_attrs();
        let n = data.n_rows();
        if n == 0 {
            return Err(SynthError::Infeasible {
                reason: "PATECTGAN: cannot fit an empty dataset".to_string(),
            });
        }

        // Attribute one-hot layout.
        let mut blocks = Vec::with_capacity(d);
        let mut offset = 0usize;
        for a in 0..d {
            let card = data.domain().cardinality(a)?;
            blocks.push((offset, card));
            offset += card;
        }
        let onehot_dim = offset;

        // 30% of budget: noisy 1-way histograms for the moment loss.
        let mut engine = MarginalEngine::new(data);
        let rho_one = 0.30 * total / d as f64;
        let mut moment_targets: Vec<Vec<f64>> = Vec::with_capacity(d);
        for a in 0..d {
            accountant.spend(rho_one)?;
            let m = measure_gaussian(&mut engine, &[a], rho_one, rng)?;
            let clamped: Vec<f64> = m.values.iter().map(|&v| v.max(0.0)).collect();
            let total_mass: f64 = clamped.iter().sum::<f64>().max(1e-9);
            moment_targets.push(clamped.into_iter().map(|v| v / total_mass).collect());
        }

        // Remaining 70%: the PATE adversarial phase. Laplace vote noise at
        // scale 2/ε_round per aggregated round query (basic composition).
        let rho_pate = accountant.spend_all();
        let eps_pate = (2.0 * rho_pate).sqrt(); // zCDP -> pure-DP lower bound scale
        let eps_round = eps_pate / ROUNDS as f64;
        let vote_scale = 2.0 / eps_round.max(1e-6);

        // Disjoint teacher partitions. Clamp the ensemble to the row count
        // so every teacher owns at least one row — a 3-row dataset must fit
        // cleanly rather than panic on an empty partition.
        let teachers = TEACHERS.min(n).max(1);
        let mut perm: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        perm.shuffle(rng);
        let per_teacher = n / teachers;

        let teacher_w = vec![vec![0.0f64; onehot_dim + 1]; teachers];

        let mut generator = Mlp::new(&[Z_DIM, HIDDEN, onehot_dim], Activation::Linear, rng);
        generator.learning_rate = LEARNING_RATE;
        let mut student = Mlp::new(&[onehot_dim, HIDDEN, 1], Activation::Sigmoid, rng);
        student.learning_rate = LEARNING_RATE;

        Ok(FitState {
            blocks,
            onehot_dim,
            moment_targets,
            vote_scale,
            n,
            per_teacher,
            perm,
            teacher_w,
            onehot_cache: vec![None; n],
            codes: vec![0u32; d],
            generator,
            student,
        })
    }
}

impl Synthesizer for PateCtgan {
    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "patectgan-fit"));
        let mut state = FitState::new(data, privacy, &mut rng)?;
        let od = state.onehot_dim;
        let mut gen_ws = BatchWorkspace::with_backend(ctx.backend);
        let mut student_ws = BatchWorkspace::with_backend(ctx.backend);
        let mut zs = vec![0.0f64; BATCH * Z_DIM];
        let mut softs = vec![0.0f64; BATCH * od];
        let mut labels = vec![0.0f64; BATCH];
        let mut dl_dy = vec![0.0f64; BATCH];
        let mut dl_dsoft = Vec::new();
        let mut dl_dlogits = vec![0.0f64; BATCH * od];
        for _ in 0..ROUNDS {
            // --- Generator minibatch (soft probabilities per sample). ---
            for z in zs.iter_mut() {
                *z = standard_normal(&mut rng);
            }
            state.generator.forward_batch(&zs, BATCH, &mut gen_ws);
            for (soft, logits) in softs.chunks_mut(od).zip(gen_ws.output().chunks(od)) {
                block_softmax_into(logits, &state.blocks, soft);
            }

            // --- Teachers: SGD steps + one noisy PATE vote per sample. ---
            for (r, label) in labels.iter_mut().enumerate() {
                *label = state.teacher_step_and_vote(data, &softs[r * od..(r + 1) * od], &mut rng);
            }

            // --- Student: one minibatch BCE step on the noisy labels. ---
            state.student.forward_batch(&softs, BATCH, &mut student_ws);
            for ((dy, &y), &label) in dl_dy.iter_mut().zip(student_ws.output()).zip(labels.iter()) {
                let y = y.clamp(1e-9, 1.0 - 1e-9);
                // d(BCE)/dy; the sigmoid chain multiplies by y(1-y).
                *dy = (y - label) / (y * (1.0 - y));
            }
            state.student.backward_apply_batch(&mut student_ws, &dl_dy);

            // --- Generator: fool the updated student + match noisy moments. ---
            state.student.forward_batch(&softs, BATCH, &mut student_ws);
            for (dy, &y) in dl_dy.iter_mut().zip(student_ws.output()) {
                let y = y.clamp(1e-6, 1.0 - 1e-6);
                *dy = -1.0 / y; // d(-ln y)/dy
            }
            state
                .student
                .input_gradient_batch(&mut student_ws, &dl_dy, &mut dl_dsoft);
            for r in 0..BATCH {
                let soft = &softs[r * od..(r + 1) * od];
                let dls = &mut dl_dsoft[r * od..(r + 1) * od];
                // Moment-matching loss: ||soft_block - target||² per attr.
                for (a, &(off, card)) in state.blocks.iter().enumerate() {
                    for v in 0..card {
                        dls[off + v] += 2.0 * (soft[off + v] - state.moment_targets[a][v]);
                    }
                }
                block_softmax_chain(
                    soft,
                    dls,
                    &state.blocks,
                    &mut dl_dlogits[r * od..(r + 1) * od],
                );
            }
            state
                .generator
                .backward_apply_batch(&mut gen_ws, &dl_dlogits);
        }

        self.fitted = Some(Fitted {
            domain: data.domain().clone(),
            generator: state.generator,
            blocks: state.blocks,
            z_dim: Z_DIM,
        });
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        let fitted = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "patectgan-sample"));
        let d = fitted.domain.len();
        let zd = fitted.z_dim;
        // Pre-draw each row's latent vector and per-attribute uniforms in
        // the exact row-major order the per-row sampler consumed them
        // (`standard_normal`'s rare rejection retries stay inside the
        // sequential pre-draw, so the stream cannot desynchronize).
        let mut latents: Vec<f64> = Vec::with_capacity(n * zd);
        let mut uniforms: Vec<f64> = Vec::with_capacity(n * d);
        for _ in 0..n {
            for _ in 0..zd {
                latents.push(standard_normal(&mut rng));
            }
            for _ in 0..d {
                uniforms.push(rng.gen());
            }
        }
        // Batched generator forward passes: chunked over rows and
        // rayon-parallel, and within a chunk one GEMM per layer per
        // `SAMPLE_TILE_ROWS` rows, decoded while the tile's logits are in
        // cache. Each row reads only its own pre-drawn randomness and its
        // own row of the output block, so the tiled parallel pass is
        // bit-identical to the sequential per-row one.
        let onehot_dim: usize = fitted.blocks.iter().map(|&(_, card)| card).sum();
        let sample_chunk = |lo: usize, hi: usize| -> Vec<Vec<u32>> {
            let mut cols = vec![Vec::with_capacity(hi - lo); d];
            let mut ws = BatchWorkspace::new();
            let mut soft = vec![0.0f64; onehot_dim];
            for tile_lo in (lo..hi).step_by(SAMPLE_TILE_ROWS) {
                let tile_hi = (tile_lo + SAMPLE_TILE_ROWS).min(hi);
                fitted.generator.forward_batch(
                    &latents[tile_lo * zd..tile_hi * zd],
                    tile_hi - tile_lo,
                    &mut ws,
                );
                for (i, logits) in ws.output().chunks(onehot_dim.max(1)).enumerate() {
                    let r = tile_lo + i;
                    block_softmax_into(logits, &fitted.blocks, &mut soft);
                    for (a, &(off, card)) in fitted.blocks.iter().enumerate() {
                        let mut t = uniforms[r * d + a];
                        let mut code = card - 1;
                        for v in 0..card {
                            t -= soft[off + v];
                            if t < 0.0 {
                                code = v;
                                break;
                            }
                        }
                        cols[a].push(code as u32);
                    }
                }
            }
            cols
        };
        let columns = assemble_chunks(n, d, sample_chunk);
        dataset_from_columns(&fitted.domain, columns)
    }

    fn fitted_state(&self) -> Option<FittedState> {
        self.fitted.as_ref().map(|f| FittedState::PateCtgan {
            domain: f.domain.clone(),
            generator: f.generator.export_state(),
            blocks: f.blocks.clone(),
            z_dim: f.z_dim,
        })
    }

    fn restore_state(&mut self, state: FittedState) -> Result<()> {
        let mismatch = |reason: String| SynthError::StateMismatch {
            reason: format!("PATECTGAN: {reason}"),
        };
        match state {
            FittedState::PateCtgan {
                domain,
                generator,
                blocks,
                z_dim,
            } => {
                // Blocks must tile the one-hot vector in domain order.
                if blocks.len() != domain.len() {
                    return Err(mismatch(format!(
                        "{} blocks for {} attributes",
                        blocks.len(),
                        domain.len()
                    )));
                }
                let mut expected_offset = 0usize;
                for (a, &(offset, card)) in blocks.iter().enumerate() {
                    let domain_card = domain.cardinality(a)?;
                    if offset != expected_offset || card != domain_card {
                        return Err(mismatch(format!(
                            "block {a} is ({offset}, {card}), expected ({expected_offset}, {domain_card})"
                        )));
                    }
                    expected_offset += card;
                }
                let onehot_dim = expected_offset;
                let input = generator.layers.first().map(|l| l.input);
                let output = generator.layers.last().map(|l| l.output);
                if input != Some(z_dim) || output != Some(onehot_dim) {
                    return Err(mismatch(format!(
                        "generator maps {input:?} -> {output:?}, expected Some({z_dim}) -> Some({onehot_dim})"
                    )));
                }
                let generator = Mlp::from_state(generator)
                    .map_err(|e| mismatch(format!("generator state: {e}")))?;
                self.fitted = Some(Fitted {
                    domain,
                    generator,
                    blocks,
                    z_dim,
                });
                Ok(())
            }
            other => Err(mismatch(format!(
                "expected patectgan state, got {}",
                other.variant()
            ))),
        }
    }
}

#[cfg(test)]
impl PateCtgan {
    /// Per-example formulation of [`PateCtgan::fit`]: the identical round
    /// semantics (one minibatch Adam step per network per round) realized
    /// as loops over the retained per-example MLP calls, consuming the RNG
    /// in the same order. The batched `fit` must reproduce this fitted
    /// state bit-for-bit.
    fn fit_naive(&mut self, data: &Dataset, privacy: Privacy, seed: u64) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "patectgan-fit"));
        let mut state = FitState::new(data, privacy, &mut rng)?;
        let od = state.onehot_dim;
        for _ in 0..ROUNDS {
            let mut zs = vec![0.0f64; BATCH * Z_DIM];
            for z in zs.iter_mut() {
                *z = standard_normal(&mut rng);
            }
            let gen_caches = state.generator.forward_batch_naive(&zs, BATCH);
            let mut softs = vec![0.0f64; BATCH * od];
            for (soft, cache) in softs.chunks_mut(od).zip(&gen_caches) {
                block_softmax_into(cache.output(), &state.blocks, soft);
            }

            let mut labels = vec![0.0f64; BATCH];
            for (r, label) in labels.iter_mut().enumerate() {
                *label = state.teacher_step_and_vote(data, &softs[r * od..(r + 1) * od], &mut rng);
            }

            let student_caches = state.student.forward_batch_naive(&softs, BATCH);
            let mut dl_dy = vec![0.0f64; BATCH];
            for ((dy, cache), &label) in dl_dy.iter_mut().zip(&student_caches).zip(labels.iter()) {
                let y = cache.output()[0].clamp(1e-9, 1.0 - 1e-9);
                *dy = (y - label) / (y * (1.0 - y));
            }
            state
                .student
                .backward_apply_batch_naive(&student_caches, &dl_dy);

            let student_caches = state.student.forward_batch_naive(&softs, BATCH);
            for (dy, cache) in dl_dy.iter_mut().zip(&student_caches) {
                let y = cache.output()[0].clamp(1e-6, 1.0 - 1e-6);
                *dy = -1.0 / y;
            }
            let mut dl_dsoft = state
                .student
                .input_gradient_batch_naive(&student_caches, &dl_dy);
            let mut dl_dlogits = vec![0.0f64; BATCH * od];
            for r in 0..BATCH {
                let soft = &softs[r * od..(r + 1) * od];
                let dls = &mut dl_dsoft[r * od..(r + 1) * od];
                for (a, &(off, card)) in state.blocks.iter().enumerate() {
                    for v in 0..card {
                        dls[off + v] += 2.0 * (soft[off + v] - state.moment_targets[a][v]);
                    }
                }
                block_softmax_chain(
                    soft,
                    dls,
                    &state.blocks,
                    &mut dl_dlogits[r * od..(r + 1) * od],
                );
            }
            state
                .generator
                .backward_apply_batch_naive(&gen_caches, &dl_dlogits);
        }

        self.fitted = Some(Fitted {
            domain: data.domain().clone(),
            generator: state.generator,
            blocks: state.blocks,
            z_dim: Z_DIM,
        });
        Ok(())
    }

    /// The original per-row sampler, retained as the differential oracle
    /// for the batched forward-pass path.
    fn sample_naive(&self, n: usize, seed: u64) -> Result<Dataset> {
        let fitted = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "patectgan-sample"));
        let d = fitted.domain.len();
        let mut columns = vec![Vec::with_capacity(n); d];
        for _ in 0..n {
            let z: Vec<f64> = (0..fitted.z_dim)
                .map(|_| standard_normal(&mut rng))
                .collect();
            let logits = fitted.generator.forward_batch_naive(&z, 1);
            let soft = block_softmax(logits[0].output(), &fitted.blocks);
            for (a, &(off, card)) in fitted.blocks.iter().enumerate() {
                let mut t = rng.gen::<f64>();
                let mut code = card - 1;
                for v in 0..card {
                    t -= soft[off + v];
                    if t < 0.0 {
                        code = v;
                        break;
                    }
                }
                columns[a].push(code as u32);
            }
        }
        dataset_from_columns(&fitted.domain, columns)
    }
}

/// One SGD step of logistic regression with L2 on bias-augmented weights.
fn logistic_sgd_step(w: &mut [f64], x: &[f64], target: f64, lr: f64) {
    let y = logistic_score(w, x);
    let err = y - target;
    let bias_idx = w.len() - 1;
    for (wi, &xi) in w[..bias_idx].iter_mut().zip(x) {
        *wi -= lr * (err * xi + 1e-4 * *wi);
    }
    w[bias_idx] -= lr * err;
}

/// Logistic score with trailing bias weight.
fn logistic_score(w: &[f64], x: &[f64]) -> f64 {
    let bias_idx = w.len() - 1;
    let z: f64 = w[..bias_idx].iter().zip(x).map(|(a, b)| a * b).sum::<f64>() + w[bias_idx];
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synrd_data::Attribute;

    fn toy_data(n: usize) -> Dataset {
        let domain = Domain::new(vec![Attribute::binary("x"), Attribute::ordinal("y", 3)]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut ds = Dataset::with_capacity(domain, n);
        for _ in 0..n {
            let x = u32::from(rng.gen::<f64>() < 0.4);
            let y = if x == 1 { 2 } else { rng.gen_range(0..2) };
            ds.push_row(&[x, y]).unwrap();
        }
        ds
    }

    #[test]
    fn batched_sample_matches_naive() {
        let data = toy_data(1_200);
        let mut synth = PateCtgan::default();
        synth
            .fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 3)
            .unwrap();
        // In a 4-thread pool, 20,000 rows run the harness's parallel chunk
        // path on any host, with a ragged last chunk and a ragged last tile.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for (n, seed) in [(0usize, 1u64), (1, 2), (311, 3), (20_000, 4)] {
            let batched = pool.install(|| synth.sample(n, seed)).unwrap();
            let naive = synth.sample_naive(n, seed).unwrap();
            assert_eq!(batched, naive, "n = {n}");
        }

        // A 187-wide one-hot output sampled at either side of one and two
        // tile edges.
        let domain = Domain::new(vec![
            Attribute::ordinal("a", 120),
            Attribute::ordinal("b", 60),
            Attribute::ordinal("c", 7),
        ]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut wide = Dataset::with_capacity(domain, 600);
        for _ in 0..600 {
            let a: u32 = rng.gen_range(0..120);
            let b = (a / 2 + rng.gen_range(0..3u32)).min(59);
            wide.push_row(&[a, b, a % 7]).unwrap();
        }
        let mut synth = PateCtgan::default();
        synth
            .fit(&wide, Privacy::approx(1.0, 1e-9).unwrap(), 9)
            .unwrap();
        let t = SAMPLE_TILE_ROWS;
        for (n, seed) in [(t - 1, 5u64), (t, 6), (t + 1, 7), (2 * t + 1, 8)] {
            let batched = synth.sample(n, seed).unwrap();
            let naive = synth.sample_naive(n, seed).unwrap();
            assert_eq!(batched, naive, "n = {n} over the wide domain");
        }
    }

    #[test]
    fn batched_fit_matches_per_example_oracle() {
        let data = toy_data(300);
        let privacy = Privacy::approx(1.0, 1e-9).unwrap();
        let mut batched = PateCtgan::default();
        batched.fit(&data, privacy, 7).unwrap();
        let mut naive = PateCtgan::default();
        naive.fit_naive(&data, privacy, 7).unwrap();
        let (b, n) = (batched.fitted.unwrap(), naive.fitted.unwrap());
        // The whole generator: weights, Adam moments, step counter and
        // learning rate.
        assert_eq!(
            b.generator, n.generator,
            "batched round loop must reproduce the per-example oracle bit-for-bit"
        );
        assert_eq!(b.blocks, n.blocks);
    }

    #[test]
    fn three_row_fit_returns_cleanly() {
        // Regression: used to panic with gen_range(0..0) whenever
        // n < teachers (per_teacher = 0). Teachers are clamped to n now.
        let data = toy_data(3);
        assert!(TEACHERS > data.n_rows());
        let mut synth = PateCtgan::default();
        synth
            .fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 11)
            .unwrap();
        let sample = synth.sample(50, 12).unwrap();
        assert_eq!(sample.n_rows(), 50);
    }

    #[test]
    fn leftover_rows_fold_into_last_partition() {
        // 10 rows across 8 teachers: partitions of 1,1,1,1,1,1,1,3 — all
        // rows reachable, nothing dropped. Fit must succeed and stay in
        // bounds.
        let data = toy_data(10);
        assert_eq!(data.n_rows() % TEACHERS, 2);
        let mut synth = PateCtgan::default();
        synth
            .fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 13)
            .unwrap();
        assert!(synth.fitted.is_some());
    }

    #[test]
    fn empty_dataset_is_infeasible() {
        let data = toy_data(0);
        let mut synth = PateCtgan::default();
        let err = synth
            .fit(&data, Privacy::approx(1.0, 1e-9).unwrap(), 1)
            .unwrap_err();
        assert!(matches!(err, SynthError::Infeasible { .. }), "{err}");
    }
}
