//! The nearest-rank percentile used by the harness.

/// Percentile via **nearest-rank** on a copy of the data (p in 0..=100):
/// with `n` values the rank is `k = ceil(p/100 · n)` clamped to `[1, n]`,
/// and the answer is the `k`-th smallest value. This is the textbook
/// nearest-rank definition and matches the telemetry histogram's quantile
/// exactly (the old `round(p/100 · (n-1))` interpolation index disagreed
/// with it at small `n` — e.g. p95 of 10 samples picked the 9th value,
/// not the 10th).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in metrics"));
    let n = sorted.len();
    let k = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[k - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// The small-n cases where the old `round(p/100·(n-1))` index
    /// disagreed with nearest-rank: the k-th smallest value with
    /// `k = ceil(p/100 · n)`, never an interpolated neighbour.
    #[test]
    fn percentile_is_nearest_rank_at_small_n() {
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        // k = ceil(5.0) = 5 → the 5th smallest (the old index picked 6.0).
        assert_eq!(percentile(&v, 50.0), 5.0);
        // k = ceil(9.5) = 10 → the maximum.
        assert_eq!(percentile(&v, 95.0), 10.0);
        let w = [1.0, 2.0, 3.0, 4.0];
        // k = ceil(1.0) = 1 → the minimum (the old index picked 2.0).
        assert_eq!(percentile(&w, 25.0), 1.0);
        assert_eq!(percentile(&w, 75.0), 3.0);
        // A single sample is every percentile.
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
