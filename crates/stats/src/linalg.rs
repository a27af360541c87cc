//! Dense linear algebra: just enough for regression via normal equations.
//!
//! The largest systems in the benchmark are the one-hot designs of Jeong et
//! al. (~300 columns), for which Cholesky on the Gram matrix is fast and
//! stable with a small ridge.

use crate::error::{Result, StatsError};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build a design matrix from columns (each a predictor), prepending an
    /// intercept column of ones.
    pub fn design_with_intercept(columns: &[Vec<f64>]) -> Result<Matrix> {
        let n = columns.first().map_or(0, Vec::len);
        for c in columns {
            if c.len() != n {
                return Err(StatsError::LengthMismatch {
                    left: n,
                    right: c.len(),
                });
            }
        }
        let cols = columns.len() + 1;
        let mut m = Matrix::zeros(n, cols);
        for r in 0..n {
            m.set(r, 0, 1.0);
            for (j, c) in columns.iter().enumerate() {
                m.set(r, j + 1, c[r]);
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Gram matrix XᵀWX for optional per-row weights W (identity if `None`).
    pub fn gram(&self, weights: Option<&[f64]>) -> Result<Matrix> {
        if let Some(w) = weights {
            if w.len() != self.rows {
                return Err(StatsError::LengthMismatch {
                    left: w.len(),
                    right: self.rows,
                });
            }
        }
        let k = self.cols;
        let mut g = Matrix::zeros(k, k);
        for r in 0..self.rows {
            let w = weights.map_or(1.0, |w| w[r]);
            let row = self.row(r);
            for i in 0..k {
                let wi = w * row[i];
                // Symmetric: fill upper triangle, mirror after.
                for j in i..k {
                    g.data[i * k + j] += wi * row[j];
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                g.data[i * k + j] = g.data[j * k + i];
            }
        }
        Ok(g)
    }

    /// XᵀWy for optional weights.
    pub fn gram_rhs(&self, y: &[f64], weights: Option<&[f64]>) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(StatsError::LengthMismatch {
                left: y.len(),
                right: self.rows,
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let w = weights.map_or(1.0, |w| w[r]);
            let row = self.row(r);
            let wy = w * y[r];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += wy * x;
            }
        }
        Ok(out)
    }

    /// X·v.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(StatsError::LengthMismatch {
                left: v.len(),
                right: self.cols,
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }
}

/// Cholesky decomposition of a symmetric positive-definite matrix,
/// returning the lower factor L with A = L·Lᵀ.
///
/// # Errors
/// [`StatsError::SingularMatrix`] when a pivot is non-positive.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.n_rows();
    if a.n_cols() != n {
        return Err(StatsError::DimensionMismatch {
            rows: a.n_rows(),
            cols: a.n_cols(),
            expected: n * n,
        });
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.at(i, j);
            for k in 0..j {
                sum -= l.at(i, k) * l.at(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(StatsError::SingularMatrix);
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.at(j, j));
            }
        }
    }
    Ok(l)
}

/// Solve A·x = b for symmetric positive-definite A via Cholesky, retrying
/// with an escalating ridge (A + λI) when A is numerically singular —
/// the standard stabilization for collinear one-hot designs.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.n_rows();
    if b.len() != n {
        return Err(StatsError::LengthMismatch {
            left: b.len(),
            right: n,
        });
    }
    let mean_diag: f64 = (0..n).map(|i| a.at(i, i)).sum::<f64>() / n.max(1) as f64;
    let mut ridge = 0.0;
    for attempt in 0..6 {
        let mut work = a.clone();
        if ridge > 0.0 {
            for i in 0..n {
                work.set(i, i, work.at(i, i) + ridge);
            }
        }
        match cholesky(&work) {
            Ok(l) => return Ok(cholesky_solve(&l, b)),
            Err(_) if attempt < 5 => {
                ridge = if ridge == 0.0 {
                    1e-10 * mean_diag.max(1e-12)
                } else {
                    ridge * 100.0
                };
            }
            Err(e) => return Err(e),
        }
    }
    Err(StatsError::SingularMatrix)
}

/// Solve L·Lᵀ·x = b given the lower Cholesky factor.
fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.n_rows();
    // Forward solve L·y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.at(i, k) * y[k];
        }
        y[i] = sum / l.at(i, i);
    }
    // Back solve Lᵀ·x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l.at(k, i) * x[k];
        }
        x[i] = sum / l.at(i, i);
    }
    x
}

/// Inverse of a symmetric positive-definite matrix (for coefficient
/// standard errors). Solves against the identity column by column.
pub fn inverse_spd(a: &Matrix) -> Result<Matrix> {
    let n = a.n_rows();
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e.iter_mut().for_each(|v| *v = 0.0);
        e[j] = 1.0;
        let col = solve_spd(a, &e)?;
        for i in 0..n {
            inv.set(i, j, col[i]);
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from row-major data.
    fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    #[test]
    fn cholesky_round_trip() {
        // A = Lref·Lrefᵀ for a known L.
        let a = from_rows(2, 2, vec![4.0, 2.0, 2.0, 5.0]);
        let l = cholesky(&a).unwrap();
        assert!((l.at(0, 0) - 2.0).abs() < 1e-12);
        assert!((l.at(1, 0) - 1.0).abs() < 1e-12);
        assert!((l.at(1, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_solves() {
        let a = from_rows(2, 2, vec![4.0, 2.0, 2.0, 5.0]);
        let x = solve_spd(&a, &[10.0, 13.0]).unwrap();
        // 4x + 2y = 10, 2x + 5y = 13 => x = 1.5, y = 2.
        assert!((x[0] - 1.5).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_spd_survives_collinearity_with_ridge() {
        // Perfectly collinear columns: rank 1.
        let a = from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let x = solve_spd(&a, &[2.0, 2.0]).unwrap();
        // Any solution with x0 + x1 ≈ 2 is acceptable under ridge.
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3, "{x:?}");
    }

    #[test]
    fn gram_matches_manual() {
        let x = from_rows(3, 2, vec![1.0, 2.0, 1.0, 3.0, 1.0, 4.0]);
        let g = x.gram(None).unwrap();
        assert!((g.at(0, 0) - 3.0).abs() < 1e-12);
        assert!((g.at(0, 1) - 9.0).abs() < 1e-12);
        assert!((g.at(1, 1) - 29.0).abs() < 1e-12);
        let rhs = x.gram_rhs(&[1.0, 2.0, 3.0], None).unwrap();
        assert!((rhs[0] - 6.0).abs() < 1e-12);
        assert!((rhs[1] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_spd_inverts() {
        let a = from_rows(2, 2, vec![4.0, 2.0, 2.0, 5.0]);
        let inv = inverse_spd(&a).unwrap();
        // A * A^-1 = I.
        for i in 0..2 {
            for j in 0..2 {
                let v: f64 = (0..2).map(|k| a.at(i, k) * inv.at(k, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn design_with_intercept_shapes() {
        let m = Matrix::design_with_intercept(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.row(0), &[1.0, 1.0, 3.0]);
    }
}
