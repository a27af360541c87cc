//! Marginal (contingency) tables with mixed-radix cell indexing.
//!
//! A [`Marginal`] is the count vector of a subset of attributes — the object
//! every marginal-based synthesizer in the paper measures, noises, and fits
//! to. Cells are laid out row-major over the attribute subset, so the table
//! for attributes `[a, b]` with shapes `[3, 4]` has 12 cells and cell
//! `(i, j)` lives at `i * 4 + j`.
//!
//! Counting from data routes through the engine kernel
//! ([`crate::engine`]): integer accumulators, specialized one/two-way
//! loops, chunk-parallel sweeps. The original per-row counter and the
//! per-cell projection are retained as `count_naive` / `project_naive` —
//! the differential oracle the equivalence proptests pin the kernels
//! against.

use crate::dataset::Dataset;
use crate::domain::validate_attr_set;
use crate::error::{DataError, Result};

/// Default cap on materialized marginal cells (4M cells = 32 MB of `f64`).
pub const DEFAULT_CELL_LIMIT: usize = 1 << 22;

/// Dense count table over a subset of attributes of some parent domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Marginal {
    attrs: Vec<usize>,
    shape: Vec<usize>,
    strides: Vec<usize>,
    counts: Vec<f64>,
}

/// Row-major strides for a shape.
pub(crate) fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

impl Marginal {
    /// Count the marginal of `attrs` over `dataset`, refusing tables larger
    /// than `cell_limit` cells.
    ///
    /// # Errors
    /// [`DataError::MarginalTooLarge`] when over the limit, plus the usual
    /// attribute-set validation errors.
    pub fn from_dataset(dataset: &Dataset, attrs: &[usize], cell_limit: usize) -> Result<Self> {
        crate::engine::count_marginal(dataset, attrs, cell_limit)
    }

    /// Count a marginal using [`DEFAULT_CELL_LIMIT`].
    pub fn count(dataset: &Dataset, attrs: &[usize]) -> Result<Self> {
        Self::from_dataset(dataset, attrs, DEFAULT_CELL_LIMIT)
    }

    /// The original per-row counter: one mixed-radix index rebuilt from
    /// scratch per row with an inner loop over the attribute set. Retained
    /// verbatim as the differential oracle for the engine kernel.
    pub fn from_dataset_naive(
        dataset: &Dataset,
        attrs: &[usize],
        cell_limit: usize,
    ) -> Result<Self> {
        validate_attr_set(dataset.domain().len(), attrs)?;
        let cells = dataset.domain().cells(attrs)?;
        if cells > cell_limit as u128 {
            return Err(DataError::MarginalTooLarge {
                cells,
                limit: cell_limit,
            });
        }
        let shape: Vec<usize> = attrs
            .iter()
            .map(|&a| dataset.domain().cardinality(a))
            .collect::<Result<_>>()?;
        let strides = strides_of(&shape);
        let mut counts = vec![0.0; cells as usize];

        // Hot loop: walk the columns once, accumulating mixed-radix indices
        // (decoded out of the packed store up front — the oracle's counting
        // body is unchanged from the pre-packing layout).
        let cols: Vec<Vec<u32>> = attrs
            .iter()
            .map(|&a| dataset.decode_column(a))
            .collect::<Result<_>>()?;
        for r in 0..dataset.n_rows() {
            let mut idx = 0usize;
            for (k, col) in cols.iter().enumerate() {
                idx += col[r] as usize * strides[k];
            }
            counts[idx] += 1.0;
        }
        Ok(Marginal {
            attrs: attrs.to_vec(),
            shape,
            strides,
            counts,
        })
    }

    /// Naive-oracle counterpart of [`Marginal::count`].
    pub fn count_naive(dataset: &Dataset, attrs: &[usize]) -> Result<Self> {
        Self::from_dataset_naive(dataset, attrs, DEFAULT_CELL_LIMIT)
    }

    /// Build a marginal from raw parts (e.g. after adding noise).
    pub fn from_counts(attrs: Vec<usize>, shape: Vec<usize>, counts: Vec<f64>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if counts.len() != expected || attrs.len() != shape.len() {
            return Err(DataError::RaggedColumns);
        }
        let strides = strides_of(&shape);
        Ok(Marginal {
            attrs,
            shape,
            strides,
            counts,
        })
    }

    /// Parent-domain attribute indices this marginal covers.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// Cardinalities per attribute.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Raw cell counts.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Mutable cell counts (used by mechanisms to add noise in place).
    pub fn counts_mut(&mut self) -> &mut [f64] {
        &mut self.counts
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.counts.len()
    }

    /// Mixed-radix cell index of a code tuple (one code per attribute, in
    /// this marginal's attribute order).
    pub fn index_of(&self, codes: &[u32]) -> usize {
        debug_assert_eq!(codes.len(), self.shape.len());
        codes
            .iter()
            .zip(&self.strides)
            .map(|(&c, &s)| c as usize * s)
            .sum()
    }

    /// Inverse of [`Marginal::index_of`].
    pub fn codes_of(&self, mut index: usize) -> Vec<u32> {
        let mut codes = vec![0u32; self.shape.len()];
        for (k, &s) in self.strides.iter().enumerate() {
            codes[k] = (index / s) as u32;
            index %= s;
        }
        codes
    }

    /// Probability-normalized copy (cells clamped at zero first, uniform if
    /// the table is all-zero — the convention the synthesizers need after
    /// noising).
    pub fn normalized(&self) -> Vec<f64> {
        let mut probs: Vec<f64> = self.counts.iter().map(|&c| c.max(0.0)).collect();
        let total: f64 = probs.iter().sum();
        if total <= 0.0 {
            let u = 1.0 / probs.len() as f64;
            probs.iter_mut().for_each(|p| *p = u);
        } else {
            probs.iter_mut().for_each(|p| *p /= total);
        }
        probs
    }

    /// Sum out all attributes except those at `keep_positions` (positions
    /// into this marginal's attribute list, preserving order).
    ///
    /// Walks the source table once with an incremental odometer: the
    /// projected index is updated per step from a precomputed per-dimension
    /// stride map, so no code vector is allocated per cell (the cost that
    /// made `mutual_information` allocation-bound). Cells are visited in the
    /// same row-major order as the naive per-cell decode, so the summed
    /// `f64` counts are bit-identical to [`Marginal::project_naive`].
    pub fn project(&self, keep_positions: &[usize]) -> Result<Marginal> {
        for &p in keep_positions {
            if p >= self.shape.len() {
                return Err(DataError::AttributeIndexOutOfBounds {
                    index: p,
                    len: self.shape.len(),
                });
            }
        }
        let new_attrs: Vec<usize> = keep_positions.iter().map(|&p| self.attrs[p]).collect();
        let new_shape: Vec<usize> = keep_positions.iter().map(|&p| self.shape[p]).collect();
        let new_strides = strides_of(&new_shape);
        let mut new_counts = vec![0.0; new_shape.iter().product()];
        // Per source dimension: how much the projected index moves when that
        // dimension's code increments (summed, so repeated keep positions
        // contribute exactly as the naive decode does).
        let d = self.shape.len();
        let mut proj_stride = vec![0usize; d];
        for (k, &p) in keep_positions.iter().enumerate() {
            proj_stride[p] += new_strides[k];
        }
        let mut codes = vec![0usize; d];
        let mut new_idx = 0usize;
        for &c in &self.counts {
            new_counts[new_idx] += c;
            // Odometer increment, last dimension fastest (row-major).
            for k in (0..d).rev() {
                codes[k] += 1;
                new_idx += proj_stride[k];
                if codes[k] < self.shape[k] {
                    break;
                }
                codes[k] = 0;
                new_idx -= self.shape[k] * proj_stride[k];
            }
        }
        Marginal::from_counts(new_attrs, new_shape, new_counts)
    }

    /// The original projection: decode every cell index into a code vector,
    /// re-encode under the kept positions. Differential oracle for
    /// [`Marginal::project`].
    pub fn project_naive(&self, keep_positions: &[usize]) -> Result<Marginal> {
        for &p in keep_positions {
            if p >= self.shape.len() {
                return Err(DataError::AttributeIndexOutOfBounds {
                    index: p,
                    len: self.shape.len(),
                });
            }
        }
        let new_attrs: Vec<usize> = keep_positions.iter().map(|&p| self.attrs[p]).collect();
        let new_shape: Vec<usize> = keep_positions.iter().map(|&p| self.shape[p]).collect();
        let new_strides = strides_of(&new_shape);
        let mut new_counts = vec![0.0; new_shape.iter().product()];
        for (idx, &c) in self.counts.iter().enumerate() {
            let codes = self.codes_of(idx);
            let mut new_idx = 0usize;
            for (k, &p) in keep_positions.iter().enumerate() {
                new_idx += codes[p] as usize * new_strides[k];
            }
            new_counts[new_idx] += c;
        }
        Marginal::from_counts(new_attrs, new_shape, new_counts)
    }

    /// L1 distance between the normalized distributions of two same-shape
    /// marginals (total variation distance × 2).
    ///
    /// # Errors
    /// [`DataError::ShapeMismatch`] when the tables disagree on shape — the
    /// cell-wise difference is meaningless then, and the old silent zip
    /// truncation under-reported the distance.
    pub fn l1_distance(&self, other: &Marginal) -> Result<f64> {
        if self.shape != other.shape {
            return Err(DataError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let a = self.normalized();
        let b = other.normalized();
        Ok(a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum())
    }
}

/// Empirical mutual information (nats) of a 2-way marginal: the shared
/// computation behind [`mutual_information`] and
/// [`crate::engine::MarginalEngine::mutual_information`].
pub(crate) fn mi_from_joint(joint: &Marginal) -> Result<f64> {
    let pa = joint.project(&[0])?.normalized();
    let pb = joint.project(&[1])?.normalized();
    let pj = joint.normalized();
    let card_b = joint.shape()[1];
    let mut mi = 0.0;
    for (idx, &pxy) in pj.iter().enumerate() {
        if pxy <= 0.0 {
            continue;
        }
        let x = idx / card_b;
        let y = idx % card_b;
        let px = pa[x];
        let py = pb[y];
        if px > 0.0 && py > 0.0 {
            mi += pxy * (pxy / (px * py)).ln();
        }
    }
    // Clamp tiny negative rounding noise.
    Ok(mi.max(0.0))
}

/// Empirical mutual information (nats) between two attributes of a dataset.
///
/// `I(X;Y) = Σ p(x,y) ln( p(x,y) / (p(x) p(y)) )`, the quantity MST,
/// PrivBayes and PrivMRF use to score candidate pairs, and the Table 1
/// meta-feature.
pub fn mutual_information(dataset: &Dataset, a: usize, b: usize) -> Result<f64> {
    let joint = Marginal::count(dataset, &[a, b])?;
    mi_from_joint(&joint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::domain::Domain;

    fn toy() -> Dataset {
        let domain = Domain::new(vec![Attribute::binary("x"), Attribute::ordinal("y", 3)]);
        Dataset::new(domain, vec![vec![0, 0, 1, 1, 1, 0], vec![0, 1, 2, 2, 1, 0]]).unwrap()
    }

    #[test]
    fn counts_and_indexing_round_trip() {
        let m = Marginal::count(&toy(), &[0, 1]).unwrap();
        assert_eq!(m.n_cells(), 6);
        assert_eq!(m.total(), 6.0);
        // (x=1, y=2) appears twice.
        assert_eq!(m.counts()[m.index_of(&[1, 2])], 2.0);
        for idx in 0..m.n_cells() {
            assert_eq!(m.index_of(&m.codes_of(idx)), idx);
        }
    }

    #[test]
    fn count_matches_naive_oracle() {
        let ds = toy();
        for attrs in [vec![0], vec![1], vec![0, 1], vec![1, 0]] {
            assert_eq!(
                Marginal::count(&ds, &attrs).unwrap(),
                Marginal::count_naive(&ds, &attrs).unwrap()
            );
        }
    }

    #[test]
    fn projection_matches_direct_count() {
        let ds = toy();
        let joint = Marginal::count(&ds, &[0, 1]).unwrap();
        let via_project = joint.project(&[1]).unwrap();
        let direct = Marginal::count(&ds, &[1]).unwrap();
        assert_eq!(via_project.counts(), direct.counts());
        assert_eq!(via_project.attrs(), &[1]);
    }

    #[test]
    fn projection_matches_naive_including_duplicates() {
        let ds = toy();
        let joint = Marginal::count(&ds, &[0, 1]).unwrap();
        for keep in [vec![], vec![0], vec![1], vec![0, 1], vec![1, 0], vec![0, 0]] {
            let fast = joint.project(&keep).unwrap();
            let naive = joint.project_naive(&keep).unwrap();
            assert_eq!(fast, naive, "keep {keep:?}");
        }
    }

    #[test]
    fn normalization_handles_noise_artifacts() {
        let mut m = Marginal::count(&toy(), &[0]).unwrap();
        m.counts_mut()[0] = -5.0; // as if noised below zero
        let p = m.normalized();
        assert_eq!(p[0], 0.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        let zero = Marginal::from_counts(vec![0], vec![4], vec![0.0; 4]).unwrap();
        assert_eq!(zero.normalized(), vec![0.25; 4]);
    }

    #[test]
    fn l1_distance_rejects_shape_mismatch() {
        let a = Marginal::from_counts(vec![0], vec![4], vec![1.0; 4]).unwrap();
        let b = Marginal::from_counts(vec![0], vec![3], vec![1.0; 3]).unwrap();
        assert!(matches!(
            a.l1_distance(&b),
            Err(DataError::ShapeMismatch { .. })
        ));
        // Same shape still works and is symmetric.
        let c = Marginal::from_counts(vec![0], vec![4], vec![0.0, 2.0, 1.0, 1.0]).unwrap();
        let d1 = a.l1_distance(&c).unwrap();
        let d2 = c.l1_distance(&a).unwrap();
        assert!((d1 - d2).abs() < 1e-15);
        assert!(d1 > 0.0);
    }

    #[test]
    fn mi_zero_for_independent_and_high_for_copies() {
        // y is a deterministic function of x => I(X;Y) = H(X).
        let domain = Domain::new(vec![Attribute::binary("x"), Attribute::binary("y")]);
        let col: Vec<u32> = (0..1000).map(|i| (i % 2) as u32).collect();
        let ds = Dataset::new(domain.clone(), vec![col.clone(), col.clone()]).unwrap();
        let mi = mutual_information(&ds, 0, 1).unwrap();
        assert!((mi - (2.0f64).ln()).abs() < 1e-9, "mi = {mi}");

        // Independent columns => MI near zero.
        let other: Vec<u32> = (0..1000).map(|i| ((i / 2) % 2) as u32).collect();
        let ds2 = Dataset::new(domain, vec![col, other]).unwrap();
        let mi2 = mutual_information(&ds2, 0, 1).unwrap();
        assert!(mi2.abs() < 1e-6, "mi2 = {mi2}");
    }

    #[test]
    fn rejects_oversized_marginals() {
        let ds = toy();
        assert!(matches!(
            Marginal::from_dataset(&ds, &[0, 1], 4),
            Err(DataError::MarginalTooLarge { .. })
        ));
        assert!(matches!(
            Marginal::from_dataset_naive(&ds, &[0, 1], 4),
            Err(DataError::MarginalTooLarge { .. })
        ));
    }
}
