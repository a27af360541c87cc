//! Correlation measures: Pearson and Spearman (average-rank ties).

use crate::error::{Result, StatsError};

/// Pearson product-moment correlation.
///
/// # Errors
/// Length mismatch or fewer than 2 points. Returns 0 when either variable is
/// constant (the convention the findings code relies on for noisy synthetic
/// data where a column can collapse).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::TooFewObservations {
            needed: 2,
            got: x.len(),
        });
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return Ok(0.0);
    }
    Ok((cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0))
}

/// Average ranks (1-based) with ties sharing the mean rank.
pub fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite values"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Ties i..=j share the average rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on average ranks, so ties are handled
/// exactly).
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    pearson(&ranks(x), &ranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_and_constant() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
        let c = [5.0; 4];
        assert_eq!(pearson(&x, &c).unwrap(), 0.0);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v: &f64| v.exp()).collect(); // monotone
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        // Pearson is below 1 for the same data.
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn length_mismatch_errors() {
        assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
        assert!(spearman(&[1.0], &[1.0, 2.0]).is_err());
    }
}
