//! Execution backends for the batched MLP kernels.
//!
//! [`Backend`] names the hardware path that runs the inner loops of the
//! batched [`Mlp`](crate::Mlp) passes: the three GEMM-shaped primitives
//! plus the element-wise Adam update. The synthesizer code only ever talks
//! to `forward_batch` / `backward_apply_batch` / `input_gradient_batch`;
//! those route every matrix-matrix product and optimizer step through a
//! `Backend`. Each primitive has exactly two bodies: the scalar loops of
//! the private `cpu` module ([`Backend::Cpu`]) and the lane-blocked AVX
//! kernels of the `avx` module ([`Backend::Simd`], x86-64 only).
//!
//! # Reduction-order contract
//!
//! Both backends produce **bit-identical** results: each output cell sums
//! its dot product in ascending index order starting from `0.0` (the bias,
//! where present, is added last), and batch-gradient cells accumulate
//! example-major (row `0` first). This is the same pinned-order discipline
//! the stride factor kernels and the marginal engine follow, and it is what
//! lets the differential proptests (`tests/batch_equivalence.rs`) hold for
//! either backend.
//!
//! The AVX kernels honor the contract *by construction*: they vectorize
//! across **independent output cells** — blocks of output neurons in the
//! forward pass, blocks of weight/input columns in the gradient passes — so
//! every SIMD lane replays exactly the scalar ascending-index mul-then-add
//! sequence of one cell. The kernels use explicit `vmulpd`/`vaddpd`
//! intrinsics (never FMA, whose single rounding would diverge from the
//! scalar two-rounding sequence), and ragged edges fall back to the literal
//! scalar loops. The Adam update needs no ordering argument at all: it is
//! element-wise, and `vdivpd`/`vsqrtpd` are IEEE correctly rounded exactly
//! like their scalar counterparts.
//!
//! # Runtime dispatch
//!
//! [`Backend::default`] (the `auto` selection) picks [`Backend::Simd`] when
//! the CPU supports AVX and [`Backend::Cpu`] otherwise, which keeps CPUs
//! without AVX covered; every `Simd` call re-checks AVX before it enters
//! `unsafe` code, so either variant is safe to construct anywhere. A
//! backend is a value, never a process setting: each
//! [`BatchWorkspace`](crate::BatchWorkspace) carries the one it was built
//! with, and a synthesizer fit takes its backend from the `FitContext` it
//! is given. Because the backends are bit-identical, the choice affects
//! throughput only: fitted states, cache fingerprints and golden digests
//! are the same under either backend.

/// The backend that executes the batched MLP kernels: three GEMM-shaped
/// primitives plus the element-wise Adam update, each a method that
/// dispatches on the variant.
///
/// All matrices are row-major `f64` slices: activations are
/// `[batch × dim]`, weights are `[output × input]` (one row per output
/// neuron, matching [`Mlp`](crate::Mlp)'s storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The scalar loops: the only path on CPUs without AVX, and the
    /// reference the AVX kernels must match bit for bit.
    Cpu,
    /// The lane-blocked AVX kernels. On CPUs without AVX (or non-x86-64
    /// targets) every call runs the scalar loops instead.
    Simd,
}

impl Default for Backend {
    /// The `auto` selection: [`Backend::Simd`] when the CPU supports AVX,
    /// [`Backend::Cpu`] otherwise.
    fn default() -> Backend {
        if avx_supported() {
            Backend::Simd
        } else {
            Backend::Cpu
        }
    }
}

/// Whether the AVX kernels can run on this CPU (x86-64 with AVX).
fn avx_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl Backend {
    /// Stable lowercase name (`"cpu"` or `"simd"`), reported by the serve
    /// `stats` response and the perf records.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cpu => "cpu",
            Backend::Simd => "simd",
        }
    }

    /// Dense forward: `y[r][o] = (Σ_i w[o][i] · x[r][i]) + bias[o]`, with
    /// the sum accumulated in ascending `i` and the bias added last —
    /// bit-identical to the per-example forward pass.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_gemm(
        self,
        batch: usize,
        input: usize,
        output: usize,
        w: &[f64],
        bias: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) {
        debug_assert_eq!(w.len(), input * output);
        debug_assert_eq!(bias.len(), output);
        debug_assert_eq!(x.len(), batch * input);
        debug_assert_eq!(y.len(), batch * output);
        #[cfg(target_arch = "x86_64")]
        if self == Backend::Simd && avx_supported() {
            // SAFETY: AVX availability checked above; slice lengths checked
            // against the kernel's indexing contract by the debug asserts
            // and re-asserted inside.
            unsafe { avx::forward_gemm(batch, input, output, w, bias, x, y) };
            return;
        }
        cpu::forward_gemm(batch, input, output, w, bias, x, y);
    }

    /// Gradient with respect to the layer input:
    /// `dx[r][i] = Σ_o delta[r][o] · w[o][i]`, accumulated in ascending `o`
    /// from `0.0` — the order the per-example backward pass uses.
    pub fn input_grad_gemm(
        self,
        batch: usize,
        input: usize,
        output: usize,
        w: &[f64],
        delta: &[f64],
        dx: &mut [f64],
    ) {
        debug_assert_eq!(w.len(), input * output);
        debug_assert_eq!(delta.len(), batch * output);
        debug_assert_eq!(dx.len(), batch * input);
        #[cfg(target_arch = "x86_64")]
        if self == Backend::Simd && avx_supported() {
            // SAFETY: AVX availability checked above; lengths as above.
            unsafe { avx::input_grad_gemm(batch, input, output, w, delta, dx) };
            return;
        }
        cpu::input_grad_gemm(batch, input, output, w, delta, dx);
    }

    /// Batch gradients of the weights and biases, overwriting `gw` / `gb`:
    /// `gw[o][i] = Σ_r delta[r][o] · x[r][i]` and `gb[o] = Σ_r delta[r][o]`,
    /// both accumulated example-major (ascending `r`) from `0.0` — the order
    /// a per-example gradient-accumulation loop produces.
    #[allow(clippy::too_many_arguments)]
    pub fn weight_grad_gemm(
        self,
        batch: usize,
        input: usize,
        output: usize,
        x: &[f64],
        delta: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), batch * input);
        debug_assert_eq!(delta.len(), batch * output);
        debug_assert_eq!(gw.len(), input * output);
        debug_assert_eq!(gb.len(), output);
        #[cfg(target_arch = "x86_64")]
        if self == Backend::Simd && avx_supported() {
            // SAFETY: AVX availability checked above; lengths as above.
            unsafe { avx::weight_grad_gemm(batch, input, output, x, delta, gw, gb) };
            return;
        }
        cpu::weight_grad_gemm(batch, input, output, x, delta, gw, gb);
    }

    /// One Adam update over a parameter block, element `i` of `p` stepped
    /// from gradient `g[i]` with first/second moments `m[i]`/`v[i]` updated
    /// in place (`bc1`/`bc2` are the hoisted `1 - β^t` bias corrections).
    ///
    /// Unlike the GEMMs this is purely **element-wise** — there is no
    /// reduction to order — so the bit-identity contract reduces to
    /// replaying the scalar per-element operation sequence exactly:
    /// `m = β₁·m + (1−β₁)·g`, `v = β₂·v + ((1−β₂)·g)·g`,
    /// `p −= lr·(m/bc1) / (√(v/bc2) + ε)`, each multiply/add/divide/sqrt
    /// its own IEEE-754 rounding (division and square root are correctly
    /// rounded, so vector lanes match scalar exactly; FMA contraction is
    /// again forbidden).
    #[allow(clippy::too_many_arguments)]
    pub fn adam_update(
        self,
        lr: f64,
        b1: f64,
        b2: f64,
        eps: f64,
        bc1: f64,
        bc2: f64,
        g: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        p: &mut [f64],
    ) {
        debug_assert_eq!(g.len(), p.len());
        debug_assert_eq!(m.len(), p.len());
        debug_assert_eq!(v.len(), p.len());
        #[cfg(target_arch = "x86_64")]
        if self == Backend::Simd && avx_supported() {
            // SAFETY: AVX availability checked above; lengths as above.
            unsafe { avx::adam_update(lr, b1, b2, eps, bc1, bc2, g, m, v, p) };
            return;
        }
        cpu::adam_update(lr, b1, b2, eps, bc1, bc2, g, m, v, p);
    }
}

/// The scalar kernels behind [`Backend::Cpu`]: straightforward loops with
/// the reduction orders of the per-example code, one matrix-matrix pass
/// per layer. Slice lengths are checked by the [`Backend`] methods.
mod cpu {
    pub(super) fn forward_gemm(
        batch: usize,
        input: usize,
        output: usize,
        w: &[f64],
        bias: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) {
        // Weight-row stationary: each output neuron's row stays hot while
        // the batch streams past it.
        for o in 0..output {
            let row = &w[o * input..(o + 1) * input];
            let b = bias[o];
            for r in 0..batch {
                let xr = &x[r * input..(r + 1) * input];
                let mut acc = 0.0f64;
                for (wv, xv) in row.iter().zip(xr) {
                    acc += wv * xv;
                }
                y[r * output + o] = acc + b;
            }
        }
    }

    pub(super) fn input_grad_gemm(
        batch: usize,
        input: usize,
        output: usize,
        w: &[f64],
        delta: &[f64],
        dx: &mut [f64],
    ) {
        for r in 0..batch {
            let dxr = &mut dx[r * input..(r + 1) * input];
            dxr.iter_mut().for_each(|v| *v = 0.0);
            for o in 0..output {
                let d = delta[r * output + o];
                let row = &w[o * input..(o + 1) * input];
                for (dst, wv) in dxr.iter_mut().zip(row) {
                    *dst += d * wv;
                }
            }
        }
    }

    pub(super) fn weight_grad_gemm(
        batch: usize,
        input: usize,
        output: usize,
        x: &[f64],
        delta: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
    ) {
        // Gradient-row stationary; the inner accumulation stays ascending
        // in `r` for every (o, i) cell, i.e. example-major.
        for o in 0..output {
            let grow = &mut gw[o * input..(o + 1) * input];
            grow.iter_mut().for_each(|v| *v = 0.0);
            let mut bacc = 0.0f64;
            for r in 0..batch {
                let d = delta[r * output + o];
                let xr = &x[r * input..(r + 1) * input];
                for (g, xv) in grow.iter_mut().zip(xr) {
                    *g += d * xv;
                }
                bacc += d;
            }
            gb[o] = bacc;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn adam_update(
        lr: f64,
        b1: f64,
        b2: f64,
        eps: f64,
        bc1: f64,
        bc2: f64,
        g: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        p: &mut [f64],
    ) {
        for idx in 0..p.len() {
            let g = g[idx];
            let m = &mut m[idx];
            let v = &mut v[idx];
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            p[idx] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// The AVX kernels behind [`Backend::Simd`]. Each vector lane owns one
/// output cell and performs exactly the scalar cell's operation sequence:
/// `acc = 0.0`, then one `vmulpd` + `vaddpd` per ascending reduction index
/// (two roundings, matching the scalar `acc += a * b`; FMA would fuse them
/// into one and diverge), with the bias applied last by a final `vaddpd`.
/// Cells the 4/8-wide blocks cannot cover run the literal scalar remainder
/// loops.
#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_sqrt_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };
    use std::cell::RefCell;

    thread_local! {
        /// Scratch for the `[input × output]` transpose of the forward
        /// weights (so the vector loop reads 4/8 consecutive output columns
        /// per load). Reused across calls: zero-alloc once warm.
        static WT: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }

    /// `y[r][o] = (Σ_i w[o][i]·x[r][i]) + bias[o]`, lanes = output neurons.
    ///
    /// # Safety
    /// Caller must ensure AVX is available and the slice lengths match the
    /// [`Backend`](super::Backend) contract for `(batch, input, output)`.
    pub unsafe fn forward_gemm(
        batch: usize,
        input: usize,
        output: usize,
        w: &[f64],
        bias: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) {
        WT.with(|cell| {
            let mut wt = cell.borrow_mut();
            wt.clear();
            wt.resize(input * output, 0.0);
            for o in 0..output {
                for i in 0..input {
                    wt[i * output + o] = w[o * input + i];
                }
            }
            // SAFETY: forwarded caller contract; `wt` is `input × output`.
            unsafe { forward_kernel(batch, input, output, w, bias, x, y, &wt) }
        });
    }

    /// # Safety
    /// AVX required; `wt` is the `[input × output]` transpose of `w`; slice
    /// lengths per the `Backend` contract.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    unsafe fn forward_kernel(
        batch: usize,
        input: usize,
        output: usize,
        w: &[f64],
        bias: &[f64],
        x: &[f64],
        y: &mut [f64],
        wt: &[f64],
    ) {
        assert_eq!(wt.len(), input * output);
        assert_eq!(bias.len(), output);
        assert!(x.len() >= batch * input && y.len() >= batch * output);
        let wtp = wt.as_ptr();
        let bp = bias.as_ptr();
        let mut ob = 0;
        // Eight output cells per iteration: two independent 4-lane
        // accumulator chains, each replaying the scalar ascending-`i`
        // sequence of its cell. The `ob` column block of `wt` (one or two
        // cache lines per `i`) stays hot across the whole batch.
        while ob + 8 <= output {
            for r in 0..batch {
                let xr = x.as_ptr().add(r * input);
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                for i in 0..input {
                    let xv = _mm256_set1_pd(*xr.add(i));
                    let col = wtp.add(i * output + ob);
                    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(col), xv));
                    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(col.add(4)), xv));
                }
                let yr = y.as_mut_ptr().add(r * output + ob);
                _mm256_storeu_pd(yr, _mm256_add_pd(acc0, _mm256_loadu_pd(bp.add(ob))));
                _mm256_storeu_pd(
                    yr.add(4),
                    _mm256_add_pd(acc1, _mm256_loadu_pd(bp.add(ob + 4))),
                );
            }
            ob += 8;
        }
        if ob + 4 <= output {
            for r in 0..batch {
                let xr = x.as_ptr().add(r * input);
                let mut acc = _mm256_setzero_pd();
                for i in 0..input {
                    let xv = _mm256_set1_pd(*xr.add(i));
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_mul_pd(_mm256_loadu_pd(wtp.add(i * output + ob)), xv),
                    );
                }
                _mm256_storeu_pd(
                    y.as_mut_ptr().add(r * output + ob),
                    _mm256_add_pd(acc, _mm256_loadu_pd(bp.add(ob))),
                );
            }
            ob += 4;
        }
        // Ragged edge: the literal scalar loop for the remaining cells.
        for o in ob..output {
            let row = &w[o * input..(o + 1) * input];
            let b = bias[o];
            for r in 0..batch {
                let xr = &x[r * input..(r + 1) * input];
                let mut acc = 0.0f64;
                for (wv, xv) in row.iter().zip(xr) {
                    acc += wv * xv;
                }
                y[r * output + o] = acc + b;
            }
        }
    }

    /// `dx[r][i] = Σ_o delta[r][o]·w[o][i]`, lanes = input columns.
    ///
    /// # Safety
    /// AVX required; slice lengths per the `Backend` contract.
    #[target_feature(enable = "avx")]
    pub unsafe fn input_grad_gemm(
        batch: usize,
        input: usize,
        output: usize,
        w: &[f64],
        delta: &[f64],
        dx: &mut [f64],
    ) {
        assert_eq!(w.len(), input * output);
        assert!(delta.len() >= batch * output && dx.len() >= batch * input);
        let wp = w.as_ptr();
        let mut ib = 0;
        // Eight input cells per iteration; the `ib` column block of `w`
        // stays hot across the batch while `delta` rows stream past.
        while ib + 8 <= input {
            for r in 0..batch {
                let dr = delta.as_ptr().add(r * output);
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                for o in 0..output {
                    let d = _mm256_set1_pd(*dr.add(o));
                    let row = wp.add(o * input + ib);
                    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d, _mm256_loadu_pd(row)));
                    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d, _mm256_loadu_pd(row.add(4))));
                }
                let dst = dx.as_mut_ptr().add(r * input + ib);
                _mm256_storeu_pd(dst, acc0);
                _mm256_storeu_pd(dst.add(4), acc1);
            }
            ib += 8;
        }
        if ib + 4 <= input {
            for r in 0..batch {
                let dr = delta.as_ptr().add(r * output);
                let mut acc = _mm256_setzero_pd();
                for o in 0..output {
                    let d = _mm256_set1_pd(*dr.add(o));
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_mul_pd(d, _mm256_loadu_pd(wp.add(o * input + ib))),
                    );
                }
                _mm256_storeu_pd(dx.as_mut_ptr().add(r * input + ib), acc);
            }
            ib += 4;
        }
        // Ragged edge: per-cell ascending-`o` accumulation, exactly the
        // scalar order (the `cpu` loop zeroes then `+=`; same sequence).
        for r in 0..batch {
            for i in ib..input {
                let mut acc = 0.0f64;
                for o in 0..output {
                    acc += delta[r * output + o] * w[o * input + i];
                }
                dx[r * input + i] = acc;
            }
        }
    }

    /// `gw[o][i] = Σ_r delta[r][o]·x[r][i]`, `gb[o] = Σ_r delta[r][o]`,
    /// lanes = weight columns; both sums example-major.
    ///
    /// # Safety
    /// AVX required; slice lengths per the `Backend` contract.
    #[target_feature(enable = "avx")]
    pub unsafe fn weight_grad_gemm(
        batch: usize,
        input: usize,
        output: usize,
        x: &[f64],
        delta: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
    ) {
        assert!(x.len() >= batch * input && delta.len() >= batch * output);
        assert!(gw.len() >= input * output && gb.len() >= output);
        let xp = x.as_ptr();
        let mut ib = 0;
        while ib + 8 <= input {
            for o in 0..output {
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                for r in 0..batch {
                    let d = _mm256_set1_pd(delta[r * output + o]);
                    let xr = xp.add(r * input + ib);
                    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d, _mm256_loadu_pd(xr)));
                    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d, _mm256_loadu_pd(xr.add(4))));
                }
                let dst = gw.as_mut_ptr().add(o * input + ib);
                _mm256_storeu_pd(dst, acc0);
                _mm256_storeu_pd(dst.add(4), acc1);
            }
            ib += 8;
        }
        if ib + 4 <= input {
            for o in 0..output {
                let mut acc = _mm256_setzero_pd();
                for r in 0..batch {
                    let d = _mm256_set1_pd(delta[r * output + o]);
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_mul_pd(d, _mm256_loadu_pd(xp.add(r * input + ib))),
                    );
                }
                _mm256_storeu_pd(gw.as_mut_ptr().add(o * input + ib), acc);
            }
            ib += 4;
        }
        // Ragged edge: per-cell ascending-`r` accumulation.
        for o in 0..output {
            for i in ib..input {
                let mut acc = 0.0f64;
                for r in 0..batch {
                    acc += delta[r * output + o] * x[r * input + i];
                }
                gw[o * input + i] = acc;
            }
        }
        // Bias gradients: scalar example-major sweep.
        for o in 0..output {
            let mut bacc = 0.0f64;
            for r in 0..batch {
                bacc += delta[r * output + o];
            }
            gb[o] = bacc;
        }
    }

    /// Element-wise Adam step, four parameters per vector. Every lane runs
    /// the scalar operation sequence verbatim — `vdivpd` / `vsqrtpd` are
    /// IEEE correctly rounded like their scalar forms, and mul/add stay
    /// unfused — so this is bit-identical to the `cpu` loop with no
    /// ordering argument needed (there is no reduction).
    ///
    /// # Safety
    /// AVX required; `g`, `m`, `v` must be at least `p.len()` long.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    pub unsafe fn adam_update(
        lr: f64,
        b1: f64,
        b2: f64,
        eps: f64,
        bc1: f64,
        bc2: f64,
        g: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        p: &mut [f64],
    ) {
        let n = p.len();
        assert!(g.len() >= n && m.len() >= n && v.len() >= n);
        let b1v = _mm256_set1_pd(b1);
        let c1v = _mm256_set1_pd(1.0 - b1);
        let b2v = _mm256_set1_pd(b2);
        let c2v = _mm256_set1_pd(1.0 - b2);
        let bc1v = _mm256_set1_pd(bc1);
        let bc2v = _mm256_set1_pd(bc2);
        let lrv = _mm256_set1_pd(lr);
        let epsv = _mm256_set1_pd(eps);
        let mut i = 0;
        while i + 4 <= n {
            let gv = _mm256_loadu_pd(g.as_ptr().add(i));
            let mv = _mm256_add_pd(
                _mm256_mul_pd(b1v, _mm256_loadu_pd(m.as_ptr().add(i))),
                _mm256_mul_pd(c1v, gv),
            );
            let vv = _mm256_add_pd(
                _mm256_mul_pd(b2v, _mm256_loadu_pd(v.as_ptr().add(i))),
                _mm256_mul_pd(_mm256_mul_pd(c2v, gv), gv),
            );
            _mm256_storeu_pd(m.as_mut_ptr().add(i), mv);
            _mm256_storeu_pd(v.as_mut_ptr().add(i), vv);
            let step = _mm256_div_pd(
                _mm256_mul_pd(lrv, _mm256_div_pd(mv, bc1v)),
                _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vv, bc2v)), epsv),
            );
            _mm256_storeu_pd(
                p.as_mut_ptr().add(i),
                _mm256_sub_pd(_mm256_loadu_pd(p.as_ptr().add(i)), step),
            );
            i += 4;
        }
        // Ragged edge: the literal scalar per-element sequence.
        for idx in i..n {
            let g = g[idx];
            let m = &mut m[idx];
            let v = &mut v[idx];
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            p[idx] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// Every backend the current CPU can execute: [`Backend::Cpu`] always,
/// [`Backend::Simd`] when the CPU supports AVX. Differential tests and
/// benches iterate this list.
pub fn registered_backends() -> Vec<Backend> {
    let mut all = vec![Backend::Cpu];
    if avx_supported() {
        all.push(Backend::Simd);
    }
    all
}

/// Name of the backend `auto` selects on this CPU (`"cpu"` or `"simd"`):
/// the one every fit runs on unless its `FitContext` names another.
pub fn global_name() -> &'static str {
    Backend::default().name()
}

/// The x86-64 feature probes behind the `auto` selection, for
/// diagnostics (`perfgrid` and the CI bench-smoke job print them). Empty on
/// non-x86-64 targets.
pub fn detected_cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic, sign-varied fill so reduction-order bugs cannot cancel.
    fn fill(len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.7310 + phase).sin() * 1.9)
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The four primitives agree bitwise between the two backends across
    /// shapes exercising the 8-wide, 4-wide and scalar remainder paths (on
    /// CPUs without AVX, `Simd` runs the scalar loops and this holds
    /// trivially).
    #[test]
    fn simd_kernels_match_cpu_bitwise() {
        let shapes: [(usize, usize, usize); 8] = [
            (0, 3, 5),
            (1, 1, 1),
            (3, 2, 4),
            (5, 7, 9),
            (4, 8, 8),
            (2, 13, 17),
            (48, 16, 96),
            (6, 5, 21),
        ];
        for (batch, input, output) in shapes {
            let w = fill(input * output, 0.1);
            let bias = fill(output, 0.2);
            let x = fill(batch * input, 0.3);
            let delta = fill(batch * output, 0.4);

            let mut y_cpu = vec![0.0; batch * output];
            let mut y_simd = vec![0.0; batch * output];
            Backend::Cpu.forward_gemm(batch, input, output, &w, &bias, &x, &mut y_cpu);
            Backend::Simd.forward_gemm(batch, input, output, &w, &bias, &x, &mut y_simd);
            assert_eq!(
                bits(&y_cpu),
                bits(&y_simd),
                "forward {batch}x{input}x{output}"
            );

            let mut dx_cpu = vec![0.0; batch * input];
            let mut dx_simd = vec![0.0; batch * input];
            Backend::Cpu.input_grad_gemm(batch, input, output, &w, &delta, &mut dx_cpu);
            Backend::Simd.input_grad_gemm(batch, input, output, &w, &delta, &mut dx_simd);
            assert_eq!(
                bits(&dx_cpu),
                bits(&dx_simd),
                "input_grad {batch}x{input}x{output}"
            );

            let grads = |backend: Backend| {
                let mut gw = vec![0.0; input * output];
                let mut gb = vec![0.0; output];
                backend.weight_grad_gemm(batch, input, output, &x, &delta, &mut gw, &mut gb);
                (bits(&gw), bits(&gb))
            };
            let (gw_cpu, gb_cpu) = grads(Backend::Cpu);
            let (gw_simd, gb_simd) = grads(Backend::Simd);
            assert_eq!(gw_cpu, gw_simd, "weight_grad {batch}x{input}x{output}");
            assert_eq!(gb_cpu, gb_simd, "bias_grad {batch}x{input}x{output}");

            // Adam over the weight-sized block, exercising the 4-wide lanes
            // and the scalar remainder (lengths here are rarely multiples
            // of 4). Gradients span tiny to large magnitudes via `fill`.
            let n = input * output;
            let grad = fill(n, 0.5);
            let (mut m_cpu, mut v_cpu, mut p_cpu) = (
                fill(n, 0.6),
                fill(n, 0.7).iter().map(|x| x * x).collect::<Vec<_>>(),
                fill(n, 0.8),
            );
            let (mut m_simd, mut v_simd, mut p_simd) =
                (m_cpu.clone(), v_cpu.clone(), p_cpu.clone());
            let (bc1, bc2) = (1.0 - 0.9f64.powf(3.0), 1.0 - 0.999f64.powf(3.0));
            Backend::Cpu.adam_update(
                1e-2, 0.9, 0.999, 1e-8, bc1, bc2, &grad, &mut m_cpu, &mut v_cpu, &mut p_cpu,
            );
            Backend::Simd.adam_update(
                1e-2,
                0.9,
                0.999,
                1e-8,
                bc1,
                bc2,
                &grad,
                &mut m_simd,
                &mut v_simd,
                &mut p_simd,
            );
            assert_eq!(bits(&m_cpu), bits(&m_simd), "adam m {n}");
            assert_eq!(bits(&v_cpu), bits(&v_simd), "adam v {n}");
            assert_eq!(bits(&p_cpu), bits(&p_simd), "adam p {n}");
        }
    }

    #[test]
    fn auto_picks_simd_exactly_when_supported() {
        let auto = Backend::default();
        if avx_supported() {
            assert_eq!(auto, Backend::Simd);
        } else {
            assert_eq!(auto, Backend::Cpu);
        }
        assert_eq!(global_name(), auto.name());
    }

    #[test]
    fn registered_backends_starts_with_cpu() {
        let all = registered_backends();
        assert_eq!(all[0], Backend::Cpu);
        assert_eq!(all.len() > 1, avx_supported());
        assert!(all.contains(&Backend::default()));
    }
}
