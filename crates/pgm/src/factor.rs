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
//! The hot path (belief-propagation inside mirror descent) never
//! materializes a union scope: [`Factor::mul_assign_broadcast`] and
//! [`Factor::div_assign_broadcast`] walk the larger operand once with a
//! precomputed per-axis stride table (`StridePlan`), and
//! [`Factor::marginalize_keep`] accumulates through the same strided walk.
//! Every kernel performs the *same floating-point operations in the same
//! order* as the retained naive expand-then-zip implementations, so results
//! are bit-identical — a property pinned by the differential proptests in
//! `tests/factor_equivalence.rs`.

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

/// Precomputed per-axis stride walk: while iterating the cells of a "big"
/// row-major shape in ascending index order, maintains the corresponding
/// index into a "small" operand whose axes are a subset of the big scope.
///
/// `inc[axis]` is the small-operand stride gained when the big counter's
/// `axis` digit increments (0 for axes absent from the small scope);
/// `wrap[axis] = inc[axis] · big_shape[axis]` is subtracted when the digit
/// wraps. One plan powers broadcasting (small read while big is written)
/// and marginalization (small written while big is read).
#[derive(Debug, Clone)]
pub(crate) struct StridePlan {
    big_shape: Vec<usize>,
    inc: Vec<usize>,
    wrap: Vec<usize>,
    big_cells: usize,
    small_cells: usize,
    /// True when the small scope *is* the big scope (index map is identity).
    identity: bool,
}

/// Stack space for the mixed-radix counter; factor ranks are bounded far
/// below this by the clique cell limit (2^21 cells ⇒ ≤ 21 non-trivial
/// axes). Larger ranks fall back to a heap counter.
const MAX_STACK_AXES: usize = 64;

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
        let mut plan = StridePlan::from_axis_strides(big_shape, inc, small_shape.iter().product());
        // Exact scope equality — the condition the historical identity fast
        // paths used (stride equality alone can misfire on card-1 axes,
        // where a recompute is NOT a bitwise no-op: `-0.0 + 0.0 == +0.0`).
        plan.identity = small_attrs == big_attrs;
        Ok(plan)
    }

    /// Plan from explicit per-big-axis small strides (0 = axis summed out /
    /// replicated). Used directly by `marginalize_keep`, whose `keep` order
    /// need not be sorted.
    pub(crate) fn from_axis_strides(
        big_shape: &[usize],
        inc: Vec<usize>,
        small_cells: usize,
    ) -> StridePlan {
        let wrap: Vec<usize> = inc.iter().zip(big_shape).map(|(&i, &s)| i * s).collect();
        let big_cells = big_shape.iter().product();
        StridePlan {
            big_shape: big_shape.to_vec(),
            inc,
            wrap,
            big_cells,
            small_cells,
            // Callers that can prove exact scope equality set this
            // (see `embed`); raw plans always take the strided walk.
            identity: false,
        }
    }

    /// Cells of the big scope.
    pub(crate) fn big_cells(&self) -> usize {
        self.big_cells
    }

    /// Cells of the small scope.
    pub(crate) fn small_cells(&self) -> usize {
        self.small_cells
    }

    /// Whether the index map is the identity (small scope == big scope).
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    /// Visit `(big_index, small_index)` for every big cell in ascending big
    /// order. Heap-free for ranks up to [`MAX_STACK_AXES`].
    #[inline]
    pub(crate) fn walk(&self, mut f: impl FnMut(usize, usize)) {
        let k = self.big_shape.len();
        if k <= MAX_STACK_AXES {
            let mut codes = [0usize; MAX_STACK_AXES];
            self.walk_with(&mut codes[..k], &mut f);
        } else {
            let mut codes = vec![0usize; k];
            self.walk_with(&mut codes, &mut f);
        }
    }

    #[inline]
    fn walk_with(&self, codes: &mut [usize], f: &mut impl FnMut(usize, usize)) {
        let k = codes.len();
        let mut small = 0usize;
        for big in 0..self.big_cells {
            f(big, small);
            for axis in (0..k).rev() {
                codes[axis] += 1;
                small += self.inc[axis];
                if codes[axis] < self.big_shape[axis] {
                    break;
                }
                codes[axis] = 0;
                small -= self.wrap[axis];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Slice kernels. All iterate the big scope in ascending index order so the
// per-cell operation sequence matches the naive implementations exactly.
// ---------------------------------------------------------------------------

/// `dst[i] = src[plan(i)]` — broadcast copy (replication over absent axes).
pub(crate) fn bcast_assign(dst: &mut [f64], src: &[f64], plan: &StridePlan) {
    debug_assert_eq!(dst.len(), plan.big_cells);
    debug_assert_eq!(src.len(), plan.small_cells);
    if plan.identity {
        dst.copy_from_slice(src);
        return;
    }
    plan.walk(|big, small| dst[big] = src[small]);
}

/// `dst[i] += src[plan(i)]` — in-place log-space product.
pub(crate) fn bcast_add(dst: &mut [f64], src: &[f64], plan: &StridePlan) {
    debug_assert_eq!(dst.len(), plan.big_cells);
    debug_assert_eq!(src.len(), plan.small_cells);
    plan.walk(|big, small| dst[big] += src[small]);
}

/// In-place log-space division with the zero-mass convention:
/// `-inf / -inf := -inf` (zero over zero stays zero mass); division by zero
/// where mass exists yields `+inf`.
pub(crate) fn bcast_div(dst: &mut [f64], src: &[f64], plan: &StridePlan) {
    debug_assert_eq!(dst.len(), plan.big_cells);
    debug_assert_eq!(src.len(), plan.small_cells);
    plan.walk(|big, small| {
        let y = src[small];
        let x = &mut dst[big];
        if y.is_finite() {
            *x -= y;
        } else if x.is_finite() {
            *x = f64::INFINITY;
        }
    });
}

/// Pass 1 of strided marginalization: per-output-cell maximum (for the
/// numerical-stability shift). `maxes` must be pre-filled with `-inf`.
pub(crate) fn marg_max(src: &[f64], maxes: &mut [f64], plan: &StridePlan) {
    debug_assert_eq!(src.len(), plan.big_cells);
    debug_assert_eq!(maxes.len(), plan.small_cells);
    plan.walk(|big, small| {
        let lv = src[big];
        if lv > maxes[small] {
            maxes[small] = lv;
        }
    });
}

/// Pass 2: max-shifted sum of exponentials. `sums` must be pre-zeroed.
pub(crate) fn marg_sum(src: &[f64], maxes: &[f64], sums: &mut [f64], plan: &StridePlan) {
    debug_assert_eq!(src.len(), plan.big_cells);
    debug_assert_eq!(sums.len(), plan.small_cells);
    plan.walk(|big, small| {
        if maxes[small].is_finite() {
            sums[small] += (src[big] - maxes[small]).exp();
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

    /// Build from non-negative linear-space values (zeros become -inf).
    pub fn from_values(attrs: Vec<usize>, shape: Vec<usize>, values: &[f64]) -> Result<Factor> {
        let logs = values
            .iter()
            .map(|&v| if v > 0.0 { v.ln() } else { f64::NEG_INFINITY })
            .collect();
        Self::from_log_values(attrs, shape, logs)
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

    /// In-place log-space product with a factor whose scope is contained in
    /// this one: `self[x] += other[x restricted]`, walking this factor once
    /// with a precomputed stride table. No union scope is materialized.
    ///
    /// # Errors
    /// [`PgmError::ScopeMismatch`] if `other.attrs ⊄ self.attrs`.
    pub fn mul_assign_broadcast(&mut self, other: &Factor) -> Result<()> {
        let plan = StridePlan::embed(&other.attrs, &other.shape, &self.attrs, &self.shape)?;
        bcast_add(&mut self.log_values, &other.log_values, &plan);
        Ok(())
    }

    /// In-place log-space division by a factor whose scope is contained in
    /// this one (zero-mass convention of [`Factor::divide`]).
    ///
    /// # Errors
    /// [`PgmError::ScopeMismatch`] if `other.attrs ⊄ self.attrs`.
    pub fn div_assign_broadcast(&mut self, other: &Factor) -> Result<()> {
        let plan = StridePlan::embed(&other.attrs, &other.shape, &self.attrs, &self.shape)?;
        bcast_div(&mut self.log_values, &other.log_values, &plan);
        Ok(())
    }

    /// Log-space product: scope is the union of both scopes. The result is
    /// assembled with one broadcast copy of `self` plus one broadcast add of
    /// `other` — per cell the same single `a + b` the naive
    /// expand-both-then-zip implementation performs.
    pub fn multiply(&self, other: &Factor) -> Result<Factor> {
        let (union_attrs, union_shape) = union_scope(self, other)?;
        let plan_a = StridePlan::embed(&self.attrs, &self.shape, &union_attrs, &union_shape)?;
        let plan_b = StridePlan::embed(&other.attrs, &other.shape, &union_attrs, &union_shape)?;
        let mut out = vec![0.0f64; plan_a.big_cells()];
        bcast_assign(&mut out, &self.log_values, &plan_a);
        bcast_add(&mut out, &other.log_values, &plan_b);
        Factor::from_log_values(union_attrs, union_shape, out)
    }

    /// Log-space division (used to form conditional distributions).
    /// `-inf / -inf := -inf` (zero over zero stays zero mass).
    ///
    /// # Errors
    /// [`PgmError::ScopeMismatch`] if `other.attrs ⊄ self.attrs`.
    pub fn divide(&self, other: &Factor) -> Result<Factor> {
        let mut out = self.clone();
        out.div_assign_broadcast(other)?;
        Ok(out)
    }

    /// Strided-marginalization plan from this factor's scope onto `keep`
    /// (in `keep` order; unsorted keeps are rejected later by factor
    /// construction, matching the historical behavior).
    fn keep_plan(&self, keep: &[usize]) -> Result<(StridePlan, Vec<usize>)> {
        let mut keep_pos = Vec::with_capacity(keep.len());
        for &k in keep {
            match self.attrs.iter().position(|&a| a == k) {
                Some(p) => keep_pos.push(p),
                None => return Err(PgmError::ScopeMismatch),
            }
        }
        let out_shape: Vec<usize> = keep_pos.iter().map(|&p| self.shape[p]).collect();
        let out_strides = strides_of(&out_shape);
        let mut inc = vec![0usize; self.shape.len()];
        for (k, &p) in keep_pos.iter().enumerate() {
            inc[p] = out_strides[k];
        }
        let plan = StridePlan::from_axis_strides(&self.shape, inc, out_shape.iter().product());
        Ok((plan, out_shape))
    }

    /// Marginalize onto a kept subset of global attribute ids (sorted),
    /// summing out the rest in linear space (max-shifted), in one strided
    /// walk per pass.
    pub fn marginalize_keep(&self, keep: &[usize]) -> Result<Factor> {
        if keep == self.attrs.as_slice() {
            return Ok(self.clone());
        }
        let (plan, out_shape) = self.keep_plan(keep)?;
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

    /// Original `multiply`: expand both operands onto the union, then zip.
    pub fn naive_multiply(&self, other: &Factor) -> Result<Factor> {
        let (union_attrs, union_shape) = union_scope(self, other)?;
        let mut a = self.expand(&union_attrs, &union_shape)?;
        let b = other.expand(&union_attrs, &union_shape)?;
        for (x, y) in a.log_values.iter_mut().zip(b.log_values) {
            *x += y;
        }
        Ok(a)
    }

    /// Original `divide`: expand the divisor onto this scope, then zip.
    pub fn naive_divide(&self, other: &Factor) -> Result<Factor> {
        let b = other.expand(&self.attrs, &self.shape)?;
        let mut out = self.clone();
        for (x, y) in out.log_values.iter_mut().zip(b.log_values) {
            // -inf / -inf := -inf (zero over zero stays zero mass).
            if y.is_finite() {
                *x -= y;
            } else if x.is_finite() {
                *x = f64::INFINITY; // division by zero where mass exists
            }
        }
        Ok(out)
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

    fn factor(attrs: Vec<usize>, shape: Vec<usize>, vals: Vec<f64>) -> Factor {
        Factor::from_values(attrs, shape, &vals).unwrap()
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
        let joint = fa.multiply(&fb).unwrap();
        let p = joint.probabilities();
        assert!((p[0] - 0.125).abs() < 1e-12); // 0.25 * 0.5
        assert!((p[3] - 0.375).abs() < 1e-12); // 0.75 * 0.5
    }

    #[test]
    fn mul_assign_broadcast_matches_multiply() {
        let big = factor(
            vec![0, 1, 2],
            vec![2, 3, 2],
            (1..=12).map(f64::from).collect(),
        );
        let small = factor(vec![0, 2], vec![2, 2], vec![0.5, 1.0, 2.0, 4.0]);
        let via_multiply = big.multiply(&small).unwrap();
        let mut in_place = big.clone();
        in_place.mul_assign_broadcast(&small).unwrap();
        assert_eq!(in_place, via_multiply);
        // A non-subset operand is rejected.
        let outside = factor(vec![3], vec![2], vec![1.0, 1.0]);
        assert!(in_place.mul_assign_broadcast(&outside).is_err());
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
        assert!(Factor::uniform(vec![1, 0], vec![2, 2]).is_err());
        assert!(Factor::uniform(vec![0, 0], vec![2, 2]).is_err());
    }

    #[test]
    fn divide_forms_conditionals() {
        let joint = factor(vec![0, 1], vec![2, 2], vec![0.1, 0.3, 0.2, 0.4]);
        let marg = joint.marginalize_keep(&[0]).unwrap();
        let cond = joint.divide(&marg).unwrap();
        let p: Vec<f64> = cond.log_values().iter().map(|v| v.exp()).collect();
        // p(b|a=0) = [0.25, 0.75].
        assert!((p[0] - 0.25).abs() < 1e-9);
        assert!((p[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn alloc_counter_tracks_construction_and_clone() {
        let before = factor_buffer_allocs();
        let f = factor(vec![0], vec![2], vec![1.0, 1.0]);
        let _g = f.clone();
        assert!(factor_buffer_allocs() >= before + 2);
    }
}
