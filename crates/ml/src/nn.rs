//! A compact multilayer perceptron with manual backpropagation and Adam.
//!
//! This is the neural substrate for the PATECTGAN synthesizer (generator and
//! student discriminator). It supports ReLU hidden layers, configurable
//! output activation, and minibatch training against either squared error
//! or binary cross-entropy.
//!
//! # Batched kernels
//!
//! The hot paths are the batched passes — [`Mlp::forward_batch`],
//! [`Mlp::backward_apply_batch`], [`Mlp::input_gradient_batch`] — which
//! execute one matrix-matrix pass per layer over row-major `[batch × dim]`
//! activation arenas held in a reusable [`BatchWorkspace`] (zero-alloc after
//! warm-up) and route every GEMM through the workspace's [`Backend`]:
//! [`BatchWorkspace::new`] takes the `auto` selection (the SIMD kernels
//! when the CPU supports them), and [`BatchWorkspace::with_backend`] takes
//! one explicitly, as PATE-CTGAN's fit does with its `FitContext`'s
//! backend.
//!
//! The reduction order is pinned: each output cell sums its dot product in
//! ascending index order, and batch gradients accumulate example-major. A
//! batched pass is therefore **bit-identical** to the per-example
//! formulation of the same minibatch step — forward/input-gradient per row,
//! gradients accumulated across rows in row order, one Adam update — which
//! is retained as the differential oracle ([`Mlp::forward_batch_naive`],
//! [`Mlp::backward_apply_batch_naive`], [`Mlp::input_gradient_batch_naive`]).
//! Note the minibatch semantics: `backward_apply_batch` takes **one** Adam
//! step from the summed batch gradient; it is not a loop of sequential
//! per-example Adam steps.

use crate::backend::{self, Backend};
use crate::error::{MlError, Result};
use rand::Rng;

/// Output-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity output (regression / logits).
    Linear,
    /// Elementwise logistic (probabilities).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// One dense layer.
#[derive(Debug, Clone)]
struct Dense {
    input: usize,
    output: usize,
    // Row-major weights [output x input].
    w: Vec<f64>,
    b: Vec<f64>,
    // Adam state.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new<R: Rng + ?Sized>(input: usize, output: usize, rng: &mut R) -> Dense {
        // He initialization for ReLU nets.
        let scale = (2.0 / input.max(1) as f64).sqrt();
        let w = (0..input * output)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            input,
            output,
            w,
            b: vec![0.0; output],
            mw: vec![0.0; input * output],
            vw: vec![0.0; input * output],
            mb: vec![0.0; output],
            vb: vec![0.0; output],
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.output {
            let row = &self.w[o * self.input..(o + 1) * self.input];
            let v: f64 = row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + self.b[o];
            out.push(v);
        }
    }
}

/// MLP with ReLU hidden layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    output_activation: Activation,
    step: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

/// Serializable snapshot of one dense layer: weights, biases, and the full
/// Adam moment state (so a restored network resumes training exactly where
/// the exported one stopped).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseState {
    /// Input dimension.
    pub input: usize,
    /// Output dimension.
    pub output: usize,
    /// Row-major weights `[output x input]`.
    pub w: Vec<f64>,
    /// Biases, one per output.
    pub b: Vec<f64>,
    /// Adam first moment of the weights.
    pub mw: Vec<f64>,
    /// Adam second moment of the weights.
    pub vw: Vec<f64>,
    /// Adam first moment of the biases.
    pub mb: Vec<f64>,
    /// Adam second moment of the biases.
    pub vb: Vec<f64>,
}

/// Serializable snapshot of a full [`Mlp`] — the unit the fit cache
/// round-trips for the PATECTGAN generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpState {
    /// Layer snapshots, input-to-output order.
    pub layers: Vec<DenseState>,
    /// Output-layer activation.
    pub output_activation: Activation,
    /// Adam step counter.
    pub step: u64,
    /// Adam learning rate.
    pub learning_rate: f64,
}

/// Per-example caches captured on the forward pass for backprop, used only
/// by the differential oracle.
pub struct ForwardCache {
    /// Pre-activation values per layer.
    pre: Vec<Vec<f64>>,
    /// Post-activation values per layer (index 0 = input).
    post: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// The network output recorded by this forward pass.
    pub fn output(&self) -> &[f64] {
        self.post.last().expect("forward pass recorded layers")
    }
}

/// Reusable arenas for the batched passes: row-major `[batch × dim]`
/// activation blocks per layer plus delta and gradient scratch, all
/// recycled across calls so the training hot loop is zero-alloc after the
/// first round. A workspace holds the forward caches
/// [`Mlp::backward_apply_batch`] and [`Mlp::input_gradient_batch`] consume,
/// so each network being trained needs its own workspace. It also carries
/// the [`Backend`] the batched passes execute on, fixed at construction.
#[derive(Debug)]
pub struct BatchWorkspace {
    /// Backend for the batched passes.
    backend: Backend,
    /// Worker-thread allowance for the per-layer GEMMs. Layers whose
    /// multiply-add count clears [`backend::gemm_threads`]'s threshold fan
    /// out over this many workers; results are bit-identical at any count,
    /// so the allowance (like the backend) never reaches a fitted state.
    threads: usize,
    batch: usize,
    /// Post-activation arenas: `post[0]` is the input block
    /// `[batch × input]`, `post[l + 1]` holds layer `l`'s activations.
    post: Vec<Vec<f64>>,
    /// Pre-activation arenas, one per layer (for the ReLU backward mask).
    pre: Vec<Vec<f64>>,
    /// Delta arena for the layer currently being backpropagated.
    delta: Vec<f64>,
    /// Delta arena for the next-lower layer (swap partner).
    delta_prev: Vec<f64>,
    /// Weight-gradient accumulator, sized to the largest layer.
    gw: Vec<f64>,
    /// Bias-gradient accumulator, sized to the widest layer.
    gb: Vec<f64>,
}

impl Default for BatchWorkspace {
    fn default() -> BatchWorkspace {
        BatchWorkspace::new()
    }
}

impl BatchWorkspace {
    /// Fresh, empty workspace on the `auto` backend
    /// ([`Backend::default`]); arenas are sized lazily on first use.
    pub fn new() -> BatchWorkspace {
        BatchWorkspace::with_backend(Backend::default())
    }

    /// Fresh, empty workspace pinned to an explicit backend.
    pub fn with_backend(backend: Backend) -> BatchWorkspace {
        BatchWorkspace {
            backend,
            threads: 1,
            batch: 0,
            post: Vec::new(),
            pre: Vec::new(),
            delta: Vec::new(),
            delta_prev: Vec::new(),
            gw: Vec::new(),
            gb: Vec::new(),
        }
    }

    /// Set the worker-thread allowance for the batched passes (`0` and `1`
    /// both mean sequential). Purely a throughput knob: every thread count
    /// produces bit-identical results.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The rows recorded by the last [`Mlp::forward_batch`] call.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The `[batch × output]` block produced by the last
    /// [`Mlp::forward_batch`] call.
    pub fn output(&self) -> &[f64] {
        self.post.last().map_or(&[], Vec::as_slice)
    }

    /// Size every arena for `net` at `batch` rows. `Vec::resize` only
    /// reallocates on growth, so repeated rounds at a fixed shape reuse the
    /// same buffers.
    fn ensure(&mut self, net: &Mlp, batch: usize) {
        self.batch = batch;
        let layers = net.layers.len();
        self.post.resize_with(layers + 1, Vec::new);
        self.pre.resize_with(layers, Vec::new);
        self.post[0].resize(batch * net.input_size(), 0.0);
        let mut max_dim = net.input_size();
        for (li, layer) in net.layers.iter().enumerate() {
            self.pre[li].resize(batch * layer.output, 0.0);
            self.post[li + 1].resize(batch * layer.output, 0.0);
            max_dim = max_dim.max(layer.output);
        }
        let max_w = net
            .layers
            .iter()
            .map(|l| l.input * l.output)
            .max()
            .unwrap_or(0);
        self.delta.resize(batch * max_dim, 0.0);
        self.delta_prev.resize(batch * max_dim, 0.0);
        self.gw.resize(max_w, 0.0);
        self.gb.resize(max_dim, 0.0);
    }
}

/// Chain an output-space gradient through the output activation:
/// `delta[c] = g(dl_dout[c], y[c])`, per-cell identical to the per-example
/// backward pass.
fn output_delta(activation: Activation, y: &[f64], dl_dout: &[f64], delta: &mut [f64]) {
    match activation {
        Activation::Linear => delta.copy_from_slice(dl_dout),
        Activation::Sigmoid => {
            for ((d, &y), &g) in delta.iter_mut().zip(y).zip(dl_dout) {
                *d = g * y * (1.0 - y);
            }
        }
        Activation::Tanh => {
            for ((d, &y), &g) in delta.iter_mut().zip(y).zip(dl_dout) {
                *d = g * (1.0 - y * y);
            }
        }
    }
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[8, 32, 32, 4]`.
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        output_activation: Activation,
        rng: &mut R,
    ) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            output_activation,
            step: 0,
            learning_rate: 1e-3,
        }
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.layers.first().map_or(0, |l| l.input)
    }

    /// Output dimension.
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, |l| l.output)
    }

    /// Batched forward pass over `batch` row-major examples (`xs` is
    /// `[batch × input]`), leaving activations in `ws` (read the output via
    /// [`BatchWorkspace::output`]). One GEMM per layer on the workspace's
    /// backend; bit-identical to a per-example loop on any backend.
    pub fn forward_batch(&self, xs: &[f64], batch: usize, ws: &mut BatchWorkspace) {
        debug_assert_eq!(xs.len(), batch * self.input_size());
        ws.ensure(self, batch);
        ws.post[0].copy_from_slice(xs);
        for (li, layer) in self.layers.iter().enumerate() {
            let threads = backend::gemm_threads(ws.threads, batch * layer.input * layer.output);
            backend::forward_gemm_mt(
                ws.backend,
                threads,
                batch,
                layer.input,
                layer.output,
                &layer.w,
                &layer.b,
                &ws.post[li],
                &mut ws.pre[li],
            );
            let last = li + 1 == self.layers.len();
            let pre = &ws.pre[li];
            let post = &mut ws.post[li + 1];
            if last {
                match self.output_activation {
                    Activation::Linear => post.copy_from_slice(pre),
                    Activation::Sigmoid => {
                        for (y, v) in post.iter_mut().zip(pre) {
                            *y = 1.0 / (1.0 + (-v).exp());
                        }
                    }
                    Activation::Tanh => {
                        for (y, v) in post.iter_mut().zip(pre) {
                            *y = v.tanh();
                        }
                    }
                }
            } else {
                for (y, v) in post.iter_mut().zip(pre) {
                    *y = v.max(0.0); // ReLU
                }
            }
        }
    }

    /// One minibatch Adam step from an output-space gradient block
    /// (`dl_dout` is `[batch × output]`, ∂loss/∂output *after* the output
    /// activation) against the forward pass recorded in `ws`: per-example
    /// deltas are chained layer by layer, weight/bias gradients are
    /// accumulated example-major across the batch, and a **single** Adam
    /// update is applied. An empty batch is a no-op (no step). Bit-identical
    /// to the per-example accumulation oracle (`backward_apply_batch_naive`).
    pub fn backward_apply_batch(&mut self, ws: &mut BatchWorkspace, dl_dout: &[f64]) {
        let backend = ws.backend;
        let batch = ws.batch;
        debug_assert_eq!(dl_dout.len(), batch * self.output_size());
        if batch == 0 || self.layers.is_empty() {
            return;
        }
        self.step += 1;
        let t = self.step as f64;
        let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8f64);
        // Bias-correction scalars hoisted to once per step: `powf` is
        // deterministic, so this is bit-identical to recomputing them per
        // parameter.
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.learning_rate;

        let last = self.layers.len() - 1;
        let n_last = batch * self.layers[last].output;
        output_delta(
            self.output_activation,
            &ws.post[last + 1],
            dl_dout,
            &mut ws.delta[..n_last],
        );

        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let (n_in, n_out) = (batch * layer.input, batch * layer.output);
            let wlen = layer.input * layer.output;
            let threads = backend::gemm_threads(ws.threads, batch * layer.input * layer.output);
            // Gradient wrt this layer's inputs (for the layer below), from
            // the pre-update weights.
            if li > 0 {
                backend::input_grad_gemm_mt(
                    backend,
                    threads,
                    batch,
                    layer.input,
                    layer.output,
                    &layer.w,
                    &ws.delta[..n_out],
                    &mut ws.delta_prev[..n_in],
                );
            }
            // Example-major batch gradients, then one Adam update.
            backend::weight_grad_gemm_mt(
                backend,
                threads,
                batch,
                layer.input,
                layer.output,
                &ws.post[li],
                &ws.delta[..n_out],
                &mut ws.gw[..wlen],
                &mut ws.gb[..layer.output],
            );
            let layer = &mut self.layers[li];
            // Element-wise Adam on the backend too: same per-element
            // operation sequence on every backend, so still bit-identical.
            backend.adam_update(
                lr,
                b1,
                b2,
                eps,
                bc1,
                bc2,
                &ws.gw[..wlen],
                &mut layer.mw,
                &mut layer.vw,
                &mut layer.w,
            );
            backend.adam_update(
                lr,
                b1,
                b2,
                eps,
                bc1,
                bc2,
                &ws.gb[..layer.output],
                &mut layer.mb,
                &mut layer.vb,
                &mut layer.b,
            );
            if li > 0 {
                // Chain through the ReLU of the hidden layer below.
                let pre = &ws.pre[li - 1];
                for (d, p) in ws.delta_prev[..n_in].iter_mut().zip(&pre[..n_in]) {
                    *d = if *p > 0.0 { *d } else { 0.0 };
                }
                std::mem::swap(&mut ws.delta, &mut ws.delta_prev);
            }
        }
    }

    /// Batched gradient of the loss with respect to the *inputs*, given an
    /// output-space gradient block. Does not update weights — used to train
    /// an upstream generator against this network (GAN-style). Writes the
    /// `[batch × input]` block into `dx` (resized); bit-identical to a
    /// per-example loop.
    pub fn input_gradient_batch(
        &self,
        ws: &mut BatchWorkspace,
        dl_dout: &[f64],
        dx: &mut Vec<f64>,
    ) {
        let batch = ws.batch;
        debug_assert_eq!(dl_dout.len(), batch * self.output_size());
        dx.clear();
        dx.resize(batch * self.input_size(), 0.0);
        if batch == 0 || self.layers.is_empty() {
            return;
        }
        let last = self.layers.len() - 1;
        let n_last = batch * self.layers[last].output;
        output_delta(
            self.output_activation,
            &ws.post[last + 1],
            dl_dout,
            &mut ws.delta[..n_last],
        );
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let (n_in, n_out) = (batch * layer.input, batch * layer.output);
            let threads = backend::gemm_threads(ws.threads, batch * layer.input * layer.output);
            backend::input_grad_gemm_mt(
                ws.backend,
                threads,
                batch,
                layer.input,
                layer.output,
                &layer.w,
                &ws.delta[..n_out],
                &mut ws.delta_prev[..n_in],
            );
            if li == 0 {
                dx.copy_from_slice(&ws.delta_prev[..n_in]);
            } else {
                let pre = &ws.pre[li - 1];
                for (d, p) in ws.delta_prev[..n_in].iter_mut().zip(&pre[..n_in]) {
                    *d = if *p > 0.0 { *d } else { 0.0 };
                }
                std::mem::swap(&mut ws.delta, &mut ws.delta_prev);
            }
        }
    }

    /// Snapshot the full network state (weights + Adam moments) for
    /// serialization.
    pub fn export_state(&self) -> MlpState {
        MlpState {
            layers: self
                .layers
                .iter()
                .map(|l| DenseState {
                    input: l.input,
                    output: l.output,
                    w: l.w.clone(),
                    b: l.b.clone(),
                    mw: l.mw.clone(),
                    vw: l.vw.clone(),
                    mb: l.mb.clone(),
                    vb: l.vb.clone(),
                })
                .collect(),
            output_activation: self.output_activation,
            step: self.step as u64,
            learning_rate: self.learning_rate,
        }
    }

    /// Rebuild a network from an exported snapshot. Inverse of
    /// [`Mlp::export_state`]: `from_state(net.export_state())` predicts
    /// bit-identically to `net`.
    ///
    /// # Errors
    /// [`MlError::EmptyNetwork`] when the snapshot has no layers;
    /// [`MlError::LengthMismatch`] when a layer's buffers disagree with its
    /// declared dimensions or adjacent layers do not chain.
    pub fn from_state(state: MlpState) -> Result<Mlp> {
        if state.layers.is_empty() {
            return Err(MlError::EmptyNetwork);
        }
        let mut prev_output = state.layers[0].input;
        let mut layers = Vec::with_capacity(state.layers.len());
        for s in state.layers {
            let weight_len = s.input * s.output;
            for (len, expected) in [
                (s.w.len(), weight_len),
                (s.mw.len(), weight_len),
                (s.vw.len(), weight_len),
                (s.b.len(), s.output),
                (s.mb.len(), s.output),
                (s.vb.len(), s.output),
                (s.input, prev_output),
            ] {
                if len != expected {
                    return Err(MlError::LengthMismatch {
                        left: len,
                        right: expected,
                    });
                }
            }
            prev_output = s.output;
            layers.push(Dense {
                input: s.input,
                output: s.output,
                w: s.w,
                b: s.b,
                mw: s.mw,
                vw: s.vw,
                mb: s.mb,
                vb: s.vb,
            });
        }
        Ok(Mlp {
            layers,
            output_activation: state.output_activation,
            step: state.step as usize,
            learning_rate: state.learning_rate,
        })
    }
}

// ---------------------------------------------------------------------------
// The per-example formulation of the batched passes: the differential
// oracle for the batched kernels.
// ---------------------------------------------------------------------------

impl Mlp {
    /// Forward pass on one example, recording activations for backprop.
    fn forward_one(&self, x: &[f64]) -> ForwardCache {
        debug_assert_eq!(x.len(), self.input_size());
        let mut post = vec![x.to_vec()];
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut buffer = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(post.last().expect("non-empty"), &mut buffer);
            pre.push(buffer.clone());
            let last = li + 1 == self.layers.len();
            let activated: Vec<f64> = if last {
                match self.output_activation {
                    Activation::Linear => buffer.clone(),
                    Activation::Sigmoid => {
                        buffer.iter().map(|v| 1.0 / (1.0 + (-v).exp())).collect()
                    }
                    Activation::Tanh => buffer.iter().map(|v| v.tanh()).collect(),
                }
            } else {
                buffer.iter().map(|v| v.max(0.0)).collect() // ReLU
            };
            post.push(activated);
        }
        ForwardCache { pre, post }
    }

    /// Per-example gradient of the loss with respect to the *input*, given
    /// an output-space gradient. Does not update weights.
    fn input_gradient_one(&self, cache: &ForwardCache, dl_dout: &[f64]) -> Vec<f64> {
        let last = self.layers.len() - 1;
        let mut delta = vec![0.0f64; self.layers[last].output];
        output_delta(
            self.output_activation,
            &cache.post[last + 1],
            dl_dout,
            &mut delta,
        );
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let mut dl_dx = vec![0.0f64; layer.input];
            for o in 0..layer.output {
                let row = &layer.w[o * layer.input..(o + 1) * layer.input];
                for (dx, &w) in dl_dx.iter_mut().zip(row) {
                    *dx += delta[o] * w;
                }
            }
            if li > 0 {
                delta = dl_dx
                    .iter()
                    .zip(&cache.pre[li - 1])
                    .map(|(&g, &p)| if p > 0.0 { g } else { 0.0 })
                    .collect();
            } else {
                return dl_dx;
            }
        }
        Vec::new()
    }

    /// Per-example formulation of [`Mlp::forward_batch`]: one forward pass
    /// per row. Differential oracle only.
    pub fn forward_batch_naive(&self, xs: &[f64], batch: usize) -> Vec<ForwardCache> {
        let input = self.input_size();
        debug_assert_eq!(xs.len(), batch * input);
        (0..batch)
            .map(|r| self.forward_one(&xs[r * input..(r + 1) * input]))
            .collect()
    }

    /// Per-example formulation of [`Mlp::backward_apply_batch`]: the delta
    /// chain of every example is computed against the *same* pre-update
    /// weights, weight/bias gradients are accumulated example-major, then
    /// one Adam step is applied. The batched path must match this
    /// bit-for-bit. An empty batch is a no-op.
    pub fn backward_apply_batch_naive(&mut self, caches: &[ForwardCache], dl_dout: &[f64]) {
        let out = self.output_size();
        debug_assert_eq!(dl_dout.len(), caches.len() * out);
        if caches.is_empty() || self.layers.is_empty() {
            return;
        }
        self.step += 1;
        let t = self.step as f64;
        let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8f64);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.learning_rate;

        let mut gws: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.input * l.output])
            .collect();
        let mut gbs: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.output]).collect();
        let last = self.layers.len() - 1;
        for (e, cache) in caches.iter().enumerate() {
            let grad = &dl_dout[e * out..(e + 1) * out];
            let mut delta = vec![0.0f64; self.layers[last].output];
            output_delta(
                self.output_activation,
                &cache.post[last + 1],
                grad,
                &mut delta,
            );
            for li in (0..self.layers.len()).rev() {
                let layer = &self.layers[li];
                let mut dl_dx = vec![0.0f64; layer.input];
                for o in 0..layer.output {
                    let row = &layer.w[o * layer.input..(o + 1) * layer.input];
                    for (dx, &w) in dl_dx.iter_mut().zip(row) {
                        *dx += delta[o] * w;
                    }
                }
                let input_act = &cache.post[li];
                for o in 0..layer.output {
                    let base = o * layer.input;
                    for i in 0..layer.input {
                        gws[li][base + i] += delta[o] * input_act[i];
                    }
                    gbs[li][o] += delta[o];
                }
                if li > 0 {
                    delta = dl_dx
                        .iter()
                        .zip(&cache.pre[li - 1])
                        .map(|(&g, &p)| if p > 0.0 { g } else { 0.0 })
                        .collect();
                }
            }
        }
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (idx, &g) in gws[li].iter().enumerate() {
                let m = &mut layer.mw[idx];
                let v = &mut layer.vw[idx];
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                layer.w[idx] -= lr * mhat / (vhat.sqrt() + eps);
            }
            for (o, &g) in gbs[li].iter().enumerate() {
                let m = &mut layer.mb[o];
                let v = &mut layer.vb[o];
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                layer.b[o] -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    /// Per-example formulation of [`Mlp::input_gradient_batch`]: one input
    /// gradient per row, concatenated. Differential oracle only.
    pub fn input_gradient_batch_naive(&self, caches: &[ForwardCache], dl_dout: &[f64]) -> Vec<f64> {
        let out = self.output_size();
        debug_assert_eq!(dl_dout.len(), caches.len() * out);
        caches
            .iter()
            .enumerate()
            .flat_map(|(e, cache)| self.input_gradient_one(cache, &dl_dout[e * out..(e + 1) * out]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The network's output on one example (a batch of one).
    fn predict(net: &Mlp, x: &[f64]) -> Vec<f64> {
        let mut ws = BatchWorkspace::new();
        net.forward_batch(x, 1, &mut ws);
        ws.output().to_vec()
    }

    /// One binary-cross-entropy step on one example, for a single sigmoid
    /// output and `target` ∈ {0,1}.
    fn train_bce(net: &mut Mlp, ws: &mut BatchWorkspace, x: &[f64], target: f64) {
        net.forward_batch(x, 1, ws);
        let y = ws.output()[0].clamp(1e-9, 1.0 - 1e-9);
        // d(BCE)/dy = (y - t) / (y(1-y)); the sigmoid chain multiplies by
        // y(1-y), so the composite is the familiar (y - t).
        let grad = [(y - target) / (y * (1.0 - y))];
        net.backward_apply_batch(ws, &grad);
    }

    /// One squared-error step on one example.
    fn train_mse(net: &mut Mlp, ws: &mut BatchWorkspace, x: &[f64], target: &[f64]) {
        net.forward_batch(x, 1, ws);
        let grad: Vec<f64> = ws.output().iter().zip(target).map(|(o, t)| o - t).collect();
        net.backward_apply_batch(ws, &grad);
    }

    #[test]
    fn learns_xor_with_bce() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut net = Mlp::new(&[2, 16, 1], Activation::Sigmoid, &mut rng);
        net.learning_rate = 5e-3;
        let data = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut ws = BatchWorkspace::new();
        for _ in 0..4000 {
            for (x, t) in &data {
                train_bce(&mut net, &mut ws, x, *t);
            }
        }
        for (x, t) in &data {
            let p = predict(&net, x)[0];
            assert!((p - t).abs() < 0.25, "x = {x:?}, p = {p}");
        }
    }

    #[test]
    fn learns_linear_regression_with_mse() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Mlp::new(&[1, 8, 1], Activation::Linear, &mut rng);
        net.learning_rate = 3e-3;
        let mut ws = BatchWorkspace::new();
        for epoch in 0..3000 {
            let x = (epoch % 20) as f64 / 10.0 - 1.0;
            train_mse(&mut net, &mut ws, &[x], &[2.0 * x + 0.5]);
        }
        let p = predict(&net, &[0.3])[0];
        assert!((p - 1.1).abs() < 0.15, "p = {p}");
    }

    #[test]
    fn state_roundtrip_is_exact_and_resumes_training() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut net = Mlp::new(&[2, 6, 1], Activation::Sigmoid, &mut rng);
        net.learning_rate = 4e-3;
        let mut ws = BatchWorkspace::new();
        for _ in 0..50 {
            train_bce(&mut net, &mut ws, &[0.2, 0.8], 1.0);
        }
        let restored = Mlp::from_state(net.export_state()).unwrap();
        let (a, b) = (predict(&net, &[0.3, 0.4]), predict(&restored, &[0.3, 0.4]));
        assert_eq!(a[0].to_bits(), b[0].to_bits(), "prediction must be exact");
        // The Adam state round-trips too: one more identical step on both
        // networks lands on identical weights.
        let mut net2 = restored;
        let mut net1 = net;
        train_bce(&mut net1, &mut ws, &[0.2, 0.8], 0.0);
        train_bce(&mut net2, &mut ws, &[0.2, 0.8], 0.0);
        assert_eq!(net1.export_state(), net2.export_state());
    }

    #[test]
    fn malformed_state_is_rejected() {
        let mut rng = StdRng::seed_from_u64(24);
        let net = Mlp::new(&[2, 3, 1], Activation::Linear, &mut rng);
        let mut state = net.export_state();
        state.layers[0].w.pop();
        assert!(matches!(
            Mlp::from_state(state),
            Err(MlError::LengthMismatch { .. })
        ));
        let mut state = net.export_state();
        state.layers[1].input = 4; // breaks the chain with layer 0
        assert!(matches!(
            Mlp::from_state(state),
            Err(MlError::LengthMismatch { .. })
        ));
        // A layerless snapshot is its own error, not a bogus length report.
        assert!(matches!(
            Mlp::from_state(MlpState {
                layers: vec![],
                output_activation: Activation::Linear,
                step: 0,
                learning_rate: 1e-3,
            }),
            Err(MlError::EmptyNetwork)
        ));
    }

    #[test]
    fn shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(22);
        let net = Mlp::new(&[3, 5, 4], Activation::Tanh, &mut rng);
        assert_eq!(net.input_size(), 3);
        assert_eq!(net.output_size(), 4);
        let out = predict(&net, &[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn batched_forward_matches_per_example() {
        let mut rng = StdRng::seed_from_u64(30);
        let net = Mlp::new(&[3, 7, 5, 2], Activation::Tanh, &mut rng);
        let xs: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut ws = BatchWorkspace::new();
        net.forward_batch(&xs, 4, &mut ws);
        for (r, cache) in net.forward_batch_naive(&xs, 4).iter().enumerate() {
            for (b, n) in ws.output()[r * 2..(r + 1) * 2].iter().zip(cache.output()) {
                assert_eq!(b.to_bits(), n.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut net = Mlp::new(&[2, 4, 1], Activation::Sigmoid, &mut rng);
        let before = net.export_state();
        let mut ws = BatchWorkspace::new();
        net.forward_batch(&[], 0, &mut ws);
        assert!(ws.output().is_empty());
        net.backward_apply_batch(&mut ws, &[]);
        let mut dx = vec![1.0; 3];
        net.input_gradient_batch(&mut ws, &[], &mut dx);
        assert!(dx.is_empty());
        assert_eq!(net.export_state(), before, "no step on an empty batch");
    }

    /// Whole training rounds under a multi-thread allowance are bit-identical
    /// to the sequential workspace — layers sized past the
    /// [`backend::gemm_threads`] gate so the fan-out path actually runs.
    #[test]
    fn batched_training_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(33);
        let net0 = Mlp::new(&[48, 64, 48], Activation::Tanh, &mut rng);
        let batch = 128usize;
        let xs: Vec<f64> = (0..batch * 48).map(|i| (i as f64 * 0.173).sin()).collect();
        let g: Vec<f64> = (0..batch * 48).map(|i| (i as f64 * 0.311).cos()).collect();

        let run = |threads: usize| {
            let mut net = net0.clone();
            let mut ws = BatchWorkspace::new();
            ws.set_threads(threads);
            let mut dx = Vec::new();
            for _ in 0..3 {
                net.forward_batch(&xs, batch, &mut ws);
                net.input_gradient_batch(&mut ws, &g, &mut dx);
                net.backward_apply_batch(&mut ws, &g);
            }
            net.forward_batch(&xs, batch, &mut ws);
            (net.export_state(), ws.output().to_vec(), dx)
        };

        let (state1, out1, dx1) = run(1);
        for threads in [2usize, 3, 7] {
            let (state, out, dx) = run(threads);
            assert_eq!(state, state1, "threads={threads} diverged in weights");
            let same =
                |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same(&out, &out1), "threads={threads} diverged in output");
            assert!(same(&dx, &dx1), "threads={threads} diverged in input grads");
        }
    }

    /// Pins the batch-of-one path the training tests above take to the
    /// per-example step.
    #[test]
    fn batch_of_one_equals_single_example_step() {
        let mut rng = StdRng::seed_from_u64(32);
        let net = Mlp::new(&[3, 6, 2], Activation::Linear, &mut rng);
        let mut batched = net.clone();
        let mut naive = net;
        let x = [0.4, -1.2, 0.9];
        let g = [0.3, -0.7];
        let mut ws = BatchWorkspace::new();
        batched.forward_batch(&x, 1, &mut ws);
        batched.backward_apply_batch(&mut ws, &g);
        let caches = naive.forward_batch_naive(&x, 1);
        naive.backward_apply_batch_naive(&caches, &g);
        assert_eq!(batched.export_state(), naive.export_state());
    }
}
