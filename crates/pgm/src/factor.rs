//! Log-space factors over subsets of a discrete domain.
//!
//! A [`Factor`] stores log-potentials (or log-probabilities) over the cells
//! of an attribute subset, laid out row-major in ascending attribute order.
//! Products are additions in log space; marginalization uses a max-shifted
//! sum-exp per output cell, so calibration stays stable for the very peaked
//! potentials mirror descent produces at low noise.
//!
//! # Stride kernels
//!
//! The hot path (belief propagation inside mirror descent) never
//! materializes a union scope: calibration and the mirror-descent gradient
//! call the slice kernels `bcast_add` and `bcast_assign`, and calibration,
//! the loss pass and [`Factor::marginalize_keep`] call `marg_max` and
//! `marg_sum`. Each kernel walks the larger operand once, run by run, with
//! a precomputed plan (`StridePlan`): a run is a stretch of contiguous big
//! cells that maps to one small cell (stride 0) or to a contiguous stretch
//! of small cells (stride 1), so every kernel is a plain slice loop per run.
//! Every small cell sees the *same floating-point operations in the same
//! order* as in the retained naive expand-then-zip implementations, so
//! results are bit-identical — a property pinned by the differential
//! proptests in `tests/factor_equivalence.rs` and
//! `tests/calibration_determinism.rs`.

use crate::error::{PgmError, Result};
use std::cell::Cell;

/// Row-major strides for a shape.
pub(crate) fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

thread_local! {
    /// Count of factor value-buffer allocations on this thread (factor
    /// construction, factor clones, and workspace buffer growth). Used by
    /// the zero-allocation regression tests and `perfgrid` diagnostics.
    static FACTOR_BUFFER_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Number of factor value-buffer allocations performed by the current
/// thread since it started. Monotone; take deltas around a region to count
/// its allocations. Calibration and estimation are single-threaded per fit,
/// so the counter is a faithful per-fit measure.
pub fn factor_buffer_allocs() -> u64 {
    FACTOR_BUFFER_ALLOCS.with(Cell::get)
}

/// Record one factor-sized buffer allocation (see [`factor_buffer_allocs`]).
pub(crate) fn note_buffer_alloc() {
    FACTOR_BUFFER_ALLOCS.with(|c| c.set(c.get() + 1));
}

/// Precomputed run walk: while iterating the cells of a "big" row-major
/// shape in ascending index order, maintains the corresponding index into a
/// "small" operand whose sorted axes are a subset of the big scope.
///
/// The plan drops the big scope's cardinality-1 axes (they never advance
/// the index) and merges adjacent axes whose small strides chain
/// (`inc[i] == inc[i + 1] · shape[i + 1]`). The innermost merged axis is
/// the *run*: `run_len` consecutive big cells that map either to one small
/// cell (stride 0, the axis is absent from the small scope) or to
/// `run_len` consecutive small cells (stride 1). Because the small axes are
/// sorted, no other stride can arise. The remaining outer axes form a
/// mixed-radix counter that advances once per run: `outer_inc[axis]` is the
/// small stride gained when its digit increments and
/// `outer_wrap[axis] = outer_inc[axis] · outer_shape[axis]` is subtracted
/// when the digit wraps. One plan powers broadcasting (small read while big
/// is written) and marginalization (small written while big is read).
#[derive(Debug, Clone)]
pub(crate) struct StridePlan {
    outer_shape: Vec<usize>,
    outer_inc: Vec<usize>,
    outer_wrap: Vec<usize>,
    run_len: usize,
    /// True when a run maps to consecutive small cells (stride 1); false
    /// when it maps to one small cell (stride 0).
    contiguous: bool,
    big_cells: usize,
    small_cells: usize,
    /// True when the small scope *is* the big scope (index map is identity).
    identity: bool,
}

/// Capacity of the stack counter over the outer axes. Every kept axis has
/// at least two cells, so a plan over a shape whose cell count fits in a
/// `usize` has fewer than 64 axes.
const MAX_AXES: usize = 64;

impl StridePlan {
    /// Plan for embedding `small` (sorted attrs, matching cardinalities)
    /// into `big` (sorted attrs).
    ///
    /// # Errors
    /// [`PgmError::ScopeMismatch`] if `small ⊄ big` or cardinalities differ.
    pub(crate) fn embed(
        small_attrs: &[usize],
        small_shape: &[usize],
        big_attrs: &[usize],
        big_shape: &[usize],
    ) -> Result<StridePlan> {
        let small_strides = strides_of(small_shape);
        let mut inc = vec![0usize; big_attrs.len()];
        let mut si = 0usize;
        for (bi, (&attr, &card)) in big_attrs.iter().zip(big_shape).enumerate() {
            if si < small_attrs.len() && small_attrs[si] == attr {
                if small_shape[si] != card {
                    return Err(PgmError::ScopeMismatch);
                }
                inc[bi] = small_strides[si];
                si += 1;
            }
        }
        if si != small_attrs.len() {
            return Err(PgmError::ScopeMismatch);
        }

        // Fold the axes into (shape, small stride) pairs, outermost first:
        // skip cardinality-1 axes, and merge an axis into its outer
        // neighbour when the neighbour's stride is this axis's stride times
        // its cardinality (both absent, or adjacent in the small scope too).
        let mut axes: Vec<(usize, usize)> = Vec::with_capacity(big_shape.len());
        for (&card, &stride) in big_shape.iter().zip(&inc) {
            if card == 1 {
                continue;
            }
            match axes.last_mut() {
                Some((outer_card, outer_stride)) if *outer_stride == stride * card => {
                    *outer_card *= card;
                    *outer_stride = stride;
                }
                _ => axes.push((card, stride)),
            }
        }
        let big_cells: usize = big_shape.iter().product();
        // No axis left means one cell; a zero cardinality means no run.
        let (run_len, run_stride) = axes.pop().filter(|_| big_cells > 0).unwrap_or((1, 0));
        debug_assert!(
            run_stride <= 1,
            "sorted scopes give stride-0 or stride-1 runs"
        );
        assert!(
            axes.len() <= MAX_AXES,
            "factor rank exceeds the run counter"
        );
        Ok(StridePlan {
            outer_wrap: axes.iter().map(|&(card, stride)| card * stride).collect(),
            outer_shape: axes.iter().map(|&(card, _)| card).collect(),
            outer_inc: axes.iter().map(|&(_, stride)| stride).collect(),
            run_len,
            contiguous: run_stride == 1,
            big_cells,
            small_cells: small_shape.iter().product(),
            // Exact scope equality — the condition the historical identity
            // fast paths used (stride equality alone can misfire on card-1
            // axes, where a recompute is NOT a bitwise no-op:
            // `-0.0 + 0.0 == +0.0`).
            identity: small_attrs == big_attrs,
        })
    }

    /// Cells of the small scope.
    pub(crate) fn small_cells(&self) -> usize {
        self.small_cells
    }

    /// Whether the index map is the identity (small scope == big scope).
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    /// Visit `(big_start, small_start)` for every run in ascending big
    /// order: big cells `big_start..big_start + run_len` map to small cell
    /// `small_start` (stride 0) or to small cells
    /// `small_start..small_start + run_len` (stride 1).
    #[inline]
    fn for_each_run(&self, mut f: impl FnMut(usize, usize)) {
        let k = self.outer_shape.len();
        let mut codes = [0usize; MAX_AXES];
        let mut small = 0usize;
        for big in (0..self.big_cells).step_by(self.run_len) {
            f(big, small);
            for axis in (0..k).rev() {
                codes[axis] += 1;
                small += self.outer_inc[axis];
                if codes[axis] < self.outer_shape[axis] {
                    break;
                }
                codes[axis] = 0;
                small -= self.outer_wrap[axis];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Slice kernels. Each is one loop over the plan's runs with a stride-0 arm
// (one small cell) and a stride-1 arm (a zip over two slices). Runs come in
// ascending big order, so every small cell sees the same floating-point
// operations in the same order as in the naive implementations.
// ---------------------------------------------------------------------------

/// `dst[i] = src[plan(i)]` — broadcast copy (replication over absent axes).
pub(crate) fn bcast_assign(dst: &mut [f64], src: &[f64], plan: &StridePlan) {
    debug_assert_eq!(dst.len(), plan.big_cells);
    debug_assert_eq!(src.len(), plan.small_cells);
    let n = plan.run_len;
    plan.for_each_run(|big, small| {
        let run = &mut dst[big..big + n];
        if plan.contiguous {
            run.copy_from_slice(&src[small..small + n]);
        } else {
            run.fill(src[small]);
        }
    });
}

/// `dst[i] += src[plan(i)]` — in-place log-space product.
pub(crate) fn bcast_add(dst: &mut [f64], src: &[f64], plan: &StridePlan) {
    debug_assert_eq!(dst.len(), plan.big_cells);
    debug_assert_eq!(src.len(), plan.small_cells);
    let n = plan.run_len;
    plan.for_each_run(|big, small| {
        let run = &mut dst[big..big + n];
        if plan.contiguous {
            for (d, &s) in run.iter_mut().zip(&src[small..small + n]) {
                *d += s;
            }
        } else {
            let s = src[small];
            for d in run {
                *d += s;
            }
        }
    });
}

/// Pass 1 of strided marginalization: per-output-cell maximum (for the
/// numerical-stability shift). `maxes` must be pre-filled with `-inf`.
pub(crate) fn marg_max(src: &[f64], maxes: &mut [f64], plan: &StridePlan) {
    debug_assert_eq!(src.len(), plan.big_cells);
    debug_assert_eq!(maxes.len(), plan.small_cells);
    let n = plan.run_len;
    plan.for_each_run(|big, small| {
        let run = &src[big..big + n];
        if plan.contiguous {
            for (m, &lv) in maxes[small..small + n].iter_mut().zip(run) {
                if lv > *m {
                    *m = lv;
                }
            }
        } else {
            let mut m = maxes[small];
            for &lv in run {
                if lv > m {
                    m = lv;
                }
            }
            maxes[small] = m;
        }
    });
}

/// Pass 2: max-shifted sum of exponentials. `sums` must be pre-zeroed.
pub(crate) fn marg_sum(src: &[f64], maxes: &[f64], sums: &mut [f64], plan: &StridePlan) {
    debug_assert_eq!(src.len(), plan.big_cells);
    debug_assert_eq!(sums.len(), plan.small_cells);
    let n = plan.run_len;
    plan.for_each_run(|big, small| {
        let run = &src[big..big + n];
        if plan.contiguous {
            let cells = sums[small..small + n]
                .iter_mut()
                .zip(&maxes[small..small + n]);
            for ((s, &m), &lv) in cells.zip(run) {
                if m.is_finite() {
                    *s += (lv - m).exp();
                }
            }
        } else {
            let m = maxes[small];
            if m.is_finite() {
                let mut s = sums[small];
                for &lv in run {
                    s += (lv - m).exp();
                }
                sums[small] = s;
            }
        }
    });
}

/// Finalize a strided marginalization into log space.
pub(crate) fn marg_finish(maxes: &[f64], sums: &[f64], out: &mut [f64]) {
    for ((&m, &s), o) in maxes.iter().zip(sums).zip(out.iter_mut()) {
        *o = if m.is_finite() && s > 0.0 {
            m + s.ln()
        } else {
            f64::NEG_INFINITY
        };
    }
}

/// Normalize a log-value table in place to log-probabilities; degenerate
/// tables (no finite mass, e.g. every cell `-inf`) fall back to uniform
/// instead of producing all-NaN from the `-inf - -inf` subtraction.
pub(crate) fn normalize_log_values(values: &mut [f64]) {
    let lse = log_sum_exp(values);
    if lse.is_finite() {
        values.iter_mut().for_each(|v| *v -= lse);
    } else {
        let u = -((values.len() as f64).ln());
        values.iter_mut().for_each(|v| *v = u);
    }
}

/// Write linear-space probabilities of a log-value table into `out`
/// (degenerate tables become uniform, mirroring [`normalize_log_values`]).
pub(crate) fn probabilities_into_slice(values: &[f64], out: &mut [f64]) {
    debug_assert_eq!(values.len(), out.len());
    let lse = log_sum_exp(values);
    if !lse.is_finite() {
        out.fill(1.0 / values.len() as f64);
        return;
    }
    for (o, &v) in out.iter_mut().zip(values) {
        *o = (v - lse).exp();
    }
}

/// A factor over sorted, distinct attribute indices of some global domain.
#[derive(Debug, PartialEq)]
pub struct Factor {
    attrs: Vec<usize>,
    shape: Vec<usize>,
    log_values: Vec<f64>,
}

impl Clone for Factor {
    fn clone(&self) -> Factor {
        note_buffer_alloc();
        Factor {
            attrs: self.attrs.clone(),
            shape: self.shape.clone(),
            log_values: self.log_values.clone(),
        }
    }
}

impl Factor {
    /// Uniform (all-zero log) factor.
    ///
    /// # Errors
    /// [`PgmError::UnsortedAttributes`] if `attrs` is not strictly ascending,
    /// or a shape/attr length mismatch.
    pub fn uniform(attrs: Vec<usize>, shape: Vec<usize>) -> Result<Factor> {
        Self::from_log_values(attrs, shape.clone(), vec![0.0; shape.iter().product()])
    }

    /// Build from explicit log values.
    pub fn from_log_values(
        attrs: Vec<usize>,
        shape: Vec<usize>,
        log_values: Vec<f64>,
    ) -> Result<Factor> {
        if attrs.len() != shape.len() {
            return Err(PgmError::ScopeMismatch);
        }
        if !attrs.windows(2).all(|w| w[0] < w[1]) {
            return Err(PgmError::UnsortedAttributes);
        }
        let cells: usize = shape.iter().product();
        if log_values.len() != cells {
            return Err(PgmError::ShapeMismatch {
                cells,
                values: log_values.len(),
            });
        }
        note_buffer_alloc();
        Ok(Factor {
            attrs,
            shape,
            log_values,
        })
    }

    /// Sorted global attribute ids in scope.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// Cardinalities per attribute.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Raw log values.
    pub fn log_values(&self) -> &[f64] {
        &self.log_values
    }

    /// Mutable raw log values.
    pub fn log_values_mut(&mut self) -> &mut [f64] {
        &mut self.log_values
    }

    /// Cell count.
    pub fn n_cells(&self) -> usize {
        self.log_values.len()
    }

    /// Overwrite this factor's values from another factor with the same
    /// scope (no allocation).
    pub fn copy_values_from(&mut self, other: &Factor) {
        debug_assert_eq!(self.attrs, other.attrs);
        self.log_values.copy_from_slice(&other.log_values);
    }

    /// log Σ exp(values) with max shift.
    pub fn log_sum_exp(&self) -> f64 {
        log_sum_exp(&self.log_values)
    }

    /// Normalize in place to a log-probability table. Degenerate tables
    /// (every cell `-inf`, so `log_sum_exp = -inf`) fall back to uniform
    /// rather than producing all-NaN via the `-inf` subtraction.
    pub fn normalize(&mut self) {
        normalize_log_values(&mut self.log_values);
    }

    /// Linear-space probabilities (normalized copy).
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.n_cells()];
        probabilities_into_slice(&self.log_values, &mut out);
        out
    }

    /// Linear-space probabilities written into a caller-provided buffer
    /// (no allocation). `out.len()` must equal [`Factor::n_cells`].
    pub fn probabilities_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_cells(), "probability buffer size");
        probabilities_into_slice(&self.log_values, out);
    }

    /// Marginalize onto a kept subset of global attribute ids (sorted),
    /// summing out the rest in linear space (max-shifted), in one run loop
    /// per pass.
    ///
    /// # Errors
    /// [`PgmError::ScopeMismatch`] if `keep` names an attribute outside the
    /// scope, else [`PgmError::UnsortedAttributes`] if `keep` is not
    /// strictly ascending; both before any cell is read.
    pub fn marginalize_keep(&self, keep: &[usize]) -> Result<Factor> {
        if keep == self.attrs.as_slice() {
            return Ok(self.clone());
        }
        let mut out_shape = Vec::with_capacity(keep.len());
        for &k in keep {
            let p = self.attrs.iter().position(|&a| a == k);
            out_shape.push(self.shape[p.ok_or(PgmError::ScopeMismatch)?]);
        }
        if !keep.windows(2).all(|w| w[0] < w[1]) {
            return Err(PgmError::UnsortedAttributes);
        }
        let plan = StridePlan::embed(keep, &out_shape, &self.attrs, &self.shape)?;
        let out_cells = plan.small_cells();
        let mut maxes = vec![f64::NEG_INFINITY; out_cells];
        let mut sums = vec![0.0f64; out_cells];
        let mut out_logs = vec![0.0f64; out_cells];
        marg_max(&self.log_values, &mut maxes, &plan);
        marg_sum(&self.log_values, &maxes, &mut sums, &plan);
        marg_finish(&maxes, &sums, &mut out_logs);
        Factor::from_log_values(keep.to_vec(), out_shape, out_logs)
    }
}

// ---------------------------------------------------------------------------
// Naive reference implementations — the differential-testing oracle.
//
// These are the original expand-then-zip versions the stride kernels
// replaced. The proptests in `tests/factor_equivalence.rs` (and the
// before/after benches) assert the kernels agree with them bit-for-bit.
// ---------------------------------------------------------------------------

impl Factor {
    /// Expand onto a superset scope `target` (sorted) with `target_shape`.
    /// Cells are replicated over the new axes.
    ///
    /// # Errors
    /// [`PgmError::ScopeMismatch`] if `self.attrs ⊄ target`.
    pub fn expand(&self, target: &[usize], target_shape: &[usize]) -> Result<Factor> {
        if self.attrs == target {
            return Ok(self.clone());
        }
        // Positions of self.attrs within target.
        let mut positions = Vec::with_capacity(self.attrs.len());
        {
            let mut ti = 0usize;
            for (&a, &card) in self.attrs.iter().zip(&self.shape) {
                while ti < target.len() && target[ti] < a {
                    ti += 1;
                }
                if ti >= target.len() || target[ti] != a || target_shape[ti] != card {
                    return Err(PgmError::ScopeMismatch);
                }
                positions.push(ti);
            }
        }
        let src_strides = strides_of(&self.shape);
        let cells: usize = target_shape.iter().product();
        let mut out = vec![0.0f64; cells];
        // Incremental mixed-radix counter over the target cells, with the
        // per-cell linear position scan the stride kernels eliminate.
        let mut codes = vec![0usize; target.len()];
        let mut src_idx = 0usize;
        for slot in out.iter_mut() {
            *slot = self.log_values[src_idx];
            for axis in (0..target.len()).rev() {
                codes[axis] += 1;
                if let Some(pos) = positions.iter().position(|&p| p == axis) {
                    src_idx += src_strides[pos];
                }
                if codes[axis] < target_shape[axis] {
                    break;
                }
                codes[axis] = 0;
                if let Some(pos) = positions.iter().position(|&p| p == axis) {
                    src_idx -= src_strides[pos] * self.shape[pos];
                }
            }
        }
        Factor::from_log_values(target.to_vec(), target_shape.to_vec(), out)
    }

    /// Log-space product over the union scope: expand both operands onto
    /// the union, then zip. `calibrate_naive` is built on it.
    pub fn naive_multiply(&self, other: &Factor) -> Result<Factor> {
        let (union_attrs, union_shape) = union_scope(self, other)?;
        let mut a = self.expand(&union_attrs, &union_shape)?;
        let b = other.expand(&union_attrs, &union_shape)?;
        for (x, y) in a.log_values.iter_mut().zip(b.log_values) {
            *x += y;
        }
        Ok(a)
    }

    /// Original `marginalize_keep`: per-cell division/modulo index mapping.
    pub fn naive_marginalize_keep(&self, keep: &[usize]) -> Result<Factor> {
        if keep == self.attrs.as_slice() {
            return Ok(self.clone());
        }
        let mut keep_pos = Vec::with_capacity(keep.len());
        for &k in keep {
            match self.attrs.iter().position(|&a| a == k) {
                Some(p) => keep_pos.push(p),
                None => return Err(PgmError::ScopeMismatch),
            }
        }
        let out_shape: Vec<usize> = keep_pos.iter().map(|&p| self.shape[p]).collect();
        let out_strides = strides_of(&out_shape);
        let out_cells: usize = out_shape.iter().product();

        // Pass 1: per-output-cell max for numerical stability.
        let mut maxes = vec![f64::NEG_INFINITY; out_cells];
        let mut sums = vec![0.0f64; out_cells];
        let src_strides = strides_of(&self.shape);
        let map_index = |idx: usize| -> usize {
            let mut out_idx = 0usize;
            for (k, &p) in keep_pos.iter().enumerate() {
                let code = (idx / src_strides[p]) % self.shape[p];
                out_idx += code * out_strides[k];
            }
            out_idx
        };
        for (idx, &lv) in self.log_values.iter().enumerate() {
            let o = map_index(idx);
            if lv > maxes[o] {
                maxes[o] = lv;
            }
        }
        for (idx, &lv) in self.log_values.iter().enumerate() {
            let o = map_index(idx);
            if maxes[o].is_finite() {
                sums[o] += (lv - maxes[o]).exp();
            }
        }
        let out_logs = maxes
            .iter()
            .zip(&sums)
            .map(|(&m, &s)| {
                if m.is_finite() && s > 0.0 {
                    m + s.ln()
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        Factor::from_log_values(keep.to_vec(), out_shape, out_logs)
    }
}

/// Union of two factor scopes with consistent cardinalities.
fn union_scope(a: &Factor, b: &Factor) -> Result<(Vec<usize>, Vec<usize>)> {
    let mut attrs = Vec::with_capacity(a.attrs.len() + b.attrs.len());
    let mut shape = Vec::with_capacity(attrs.capacity());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.attrs.len() || j < b.attrs.len() {
        let take_a = j >= b.attrs.len() || (i < a.attrs.len() && a.attrs[i] <= b.attrs[j]);
        if take_a {
            if j < b.attrs.len() && i < a.attrs.len() && a.attrs[i] == b.attrs[j] {
                if a.shape[i] != b.shape[j] {
                    return Err(PgmError::ScopeMismatch);
                }
                j += 1;
            }
            attrs.push(a.attrs[i]);
            shape.push(a.shape[i]);
            i += 1;
        } else {
            attrs.push(b.attrs[j]);
            shape.push(b.shape[j]);
            j += 1;
        }
    }
    Ok((attrs, shape))
}

/// Max-shifted log-sum-exp of a slice.
pub fn log_sum_exp(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + values.iter().map(|v| (v - max).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A factor from non-negative linear-space values (zeros become -inf).
    fn factor(attrs: Vec<usize>, shape: Vec<usize>, vals: Vec<f64>) -> Factor {
        let logs = vals
            .iter()
            .map(|&v| if v > 0.0 { v.ln() } else { f64::NEG_INFINITY })
            .collect();
        Factor::from_log_values(attrs, shape, logs).unwrap()
    }

    #[test]
    fn expand_replicates_over_new_axes() {
        // f(b) over attr 1 expanded to (a=0, b=1).
        let f = factor(vec![1], vec![3], vec![1.0, 2.0, 3.0]);
        let e = f.expand(&[0, 1], &[2, 3]).unwrap();
        let p: Vec<f64> = e.log_values().iter().map(|v| v.exp()).collect();
        assert_eq!(p.len(), 6);
        for row in 0..2 {
            for col in 0..3 {
                assert!((p[row * 3 + col] - (col + 1) as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn multiply_matches_manual_product() {
        let fa = factor(vec![0], vec![2], vec![0.25, 0.75]);
        let fb = factor(vec![1], vec![2], vec![0.5, 0.5]);
        let joint = fa.naive_multiply(&fb).unwrap();
        let p = joint.probabilities();
        assert!((p[0] - 0.125).abs() < 1e-12); // 0.25 * 0.5
        assert!((p[3] - 0.375).abs() < 1e-12); // 0.75 * 0.5
    }

    #[test]
    fn marginalize_inverts_expand() {
        let f = factor(vec![0, 2], vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let m = f.marginalize_keep(&[0]).unwrap();
        let vals: Vec<f64> = m.log_values().iter().map(|v| v.exp()).collect();
        assert!((vals[0] - 6.0).abs() < 1e-9);
        assert!((vals[1] - 15.0).abs() < 1e-9);
        // Keep both -> identity.
        assert_eq!(f.marginalize_keep(&[0, 2]).unwrap(), f);
    }

    #[test]
    fn marginalize_then_multiply_consistency() {
        // p(a,b) -> p(a) * p(b|a)-free check: sum of joint equals sum of marginal.
        let f = factor(vec![0, 1], vec![2, 2], vec![0.1, 0.2, 0.3, 0.4]);
        let ma = f.marginalize_keep(&[0]).unwrap();
        assert!((ma.log_sum_exp() - f.log_sum_exp()).abs() < 1e-12);
    }

    #[test]
    fn normalize_handles_degenerate() {
        let mut f = Factor::from_log_values(vec![0], vec![3], vec![f64::NEG_INFINITY; 3]).unwrap();
        f.normalize();
        let p = f.probabilities();
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_all_neg_inf_degrades_to_uniform_not_nan() {
        // log_sum_exp = -inf; the -inf - -inf subtraction would be NaN.
        for cells in [1usize, 2, 6] {
            let mut f =
                Factor::from_log_values(vec![0], vec![cells], vec![f64::NEG_INFINITY; cells])
                    .unwrap();
            f.normalize();
            for &v in f.log_values() {
                assert!(!v.is_nan(), "normalize produced NaN for {cells} cells");
                assert!((v - (-(cells as f64).ln())).abs() < 1e-12);
            }
            let p = f.probabilities();
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_partial_neg_inf_keeps_zero_mass() {
        // A mixed table must keep its -inf cells at zero probability.
        let mut f =
            Factor::from_log_values(vec![0], vec![3], vec![0.0, f64::NEG_INFINITY, 0.0]).unwrap();
        f.normalize();
        let p = f.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert_eq!(p[1], 0.0);
        assert!(f.log_values().iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn probabilities_into_matches_probabilities() {
        let f = factor(vec![0, 1], vec![2, 2], vec![0.1, 0.2, 0.3, 0.4]);
        let mut buf = vec![0.0; 4];
        f.probabilities_into(&mut buf);
        assert_eq!(buf, f.probabilities());
        // Degenerate input through the buffer path too.
        let g = Factor::from_log_values(vec![0], vec![4], vec![f64::NEG_INFINITY; 4]).unwrap();
        let mut buf = vec![0.0; 4];
        g.probabilities_into(&mut buf);
        assert!(buf.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn scope_errors() {
        let f = factor(vec![0], vec![2], vec![1.0, 1.0]);
        assert!(f.expand(&[1], &[2]).is_err());
        assert!(f.marginalize_keep(&[1]).is_err());
        assert!(
            StridePlan::embed(&[1], &[2], &[0], &[2]).is_err(),
            "not a subset"
        );
        assert!(
            StridePlan::embed(&[0], &[3], &[0], &[2]).is_err(),
            "cardinality"
        );
        assert!(Factor::uniform(vec![1, 0], vec![2, 2]).is_err());
        assert!(Factor::uniform(vec![0, 0], vec![2, 2]).is_err());
    }

    #[test]
    fn plans_drop_unit_axes_and_merge_chained_ones() {
        // Big (a, b, c, d) = (3, 1, 4, 5) with small (a, c): b is dropped,
        // a and c chain (stride 4 = 1 · 4), d is a stride-0 run of 5.
        let plan = StridePlan::embed(&[0, 2], &[3, 4], &[0, 1, 2, 3], &[3, 1, 4, 5]).unwrap();
        assert_eq!(
            (plan.outer_shape.as_slice(), plan.outer_inc.as_slice()),
            (&[12][..], &[1][..])
        );
        assert_eq!((plan.run_len, plan.contiguous), (5, false));
        // Small (c, d) of the same big scope: a is a stride-0 outer axis,
        // b is dropped, and c and d merge into one contiguous run of 20.
        let plan = StridePlan::embed(&[2, 3], &[4, 5], &[0, 1, 2, 3], &[3, 1, 4, 5]).unwrap();
        assert_eq!(
            (plan.outer_shape.as_slice(), plan.outer_inc.as_slice()),
            (&[3][..], &[0][..])
        );
        assert_eq!((plan.run_len, plan.contiguous), (20, true));
        // Every axis of cardinality 1: one stride-0 run of one cell.
        let plan = StridePlan::embed(&[1], &[1], &[0, 1], &[1, 1]).unwrap();
        assert!(plan.outer_shape.is_empty());
        assert_eq!((plan.run_len, plan.contiguous), (1, false));
    }

    #[test]
    fn alloc_counter_tracks_construction_and_clone() {
        let before = factor_buffer_allocs();
        let f = factor(vec![0], vec![2], vec![1.0, 1.0]);
        let _g = f.clone();
        assert!(factor_buffer_allocs() >= before + 2);
    }
}
