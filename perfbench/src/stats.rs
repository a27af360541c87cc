//! Order statistics for reported timings.
//!
//! A tail percentile is only reported when at least ten samples lie beyond
//! it; with fewer samples the benchmark falls back to the largest percentile
//! that has that support (or the maximum) and says so.

/// Percentiles the rule may report, in basis points (5000 = p50).
const LADDER_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples strictly beyond the nearest-rank percentile `bp` of `n` samples.
fn beyond(n: usize, bp: u64) -> usize {
    let n = n as u64;
    let rank = (bp * n).div_ceil(10_000);
    (n - rank) as usize
}

/// The highest ladder percentile (in basis points) with at least ten of `n`
/// samples beyond it, or `None` when even p50 lacks that support.
pub fn tail_percentile_bp(n: usize) -> Option<u64> {
    LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| beyond(n, bp) >= 10)
}

/// Nearest-rank percentile `bp` (basis points) of ascending `sorted`.
pub fn percentile(sorted: &[f64], bp: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (bp * sorted.len() as u64).div_ceil(10_000).max(1);
    sorted[(rank - 1) as usize]
}

/// A requested percentile under the support rule: the percentile itself when
/// ten samples lie beyond it, else the highest supported one (the maximum
/// when none is), with the basis points actually reported.
pub fn supported_percentile(sorted: &[f64], bp: u64) -> (f64, u64) {
    match tail_percentile_bp(sorted.len()) {
        Some(tail) => {
            let used = bp.min(tail);
            (percentile(sorted, used), used)
        }
        None => (*sorted.last().expect("non-empty samples"), 10_000),
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile_bp(19), None);
        assert_eq!(tail_percentile_bp(20), Some(5_000));
        assert_eq!(tail_percentile_bp(99), Some(5_000));
        assert_eq!(tail_percentile_bp(100), Some(9_000));
        assert_eq!(tail_percentile_bp(999), Some(9_000));
        assert_eq!(tail_percentile_bp(1_000), Some(9_900));
        assert_eq!(tail_percentile_bp(10_000), Some(9_990));
        assert_eq!(tail_percentile_bp(100_000), Some(9_999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 5_000), 500.0);
        assert_eq!(percentile(&sorted, 9_900), 990.0);
        assert_eq!(percentile(&sorted, 10_000), 1_000.0);
        assert_eq!(supported_percentile(&sorted, 9_900), (990.0, 9_900));
        // 500 samples support p90 (50 beyond) but not p99 (5 beyond).
        assert_eq!(supported_percentile(&sorted[..500], 9_900), (450.0, 9_000));
        // Too few samples for any percentile: the maximum, flagged as p100.
        assert_eq!(supported_percentile(&sorted[..5], 9_900), (5.0, 10_000));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
