//! Order statistics over raw samples.

/// Nearest-rank percentile (`k = ceil(p/100 · n)`, the same rank
/// definition `seldel-telemetry` histograms and `seldel-sim` use).
/// Sorts `samples` in place.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 100]`.
pub fn percentile<T: Copy + PartialOrd>(samples: &mut [T], p: f64) -> T {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile rank out of range");
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are comparable numbers"));
    let k = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[k.clamp(1, samples.len()) - 1]
}

/// [`percentile`] of a copy, for samples that must keep their order.
pub fn percentile_of<T: Copy + PartialOrd>(samples: &[T], p: f64) -> T {
    percentile(&mut samples.to_vec(), p)
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), 50);
        assert_eq!(percentile(&mut s, 99.0), 99);
        assert_eq!(percentile(&mut s, 100.0), 100);
        assert_eq!(percentile(&mut s, 0.5), 1);
        // k = ceil(0.9 * 7) = 7 -> the largest of seven.
        assert_eq!(percentile(&mut [7, 1, 3, 5, 2, 6, 4], 90.0), 7);
        assert_eq!(percentile(&mut [42], 50.0), 42);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
