//! Order statistics used by every metric: percentiles, medians, geomeans,
//! and the "ten samples beyond" rule for tail percentiles.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` ascending. Timings are never NaN, so total order holds.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// The `q`-quantile of an unsorted sample; 0 for an empty one, so a layer
/// that saw no work reports 0 instead of aborting the run.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, q)
}

/// The median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Whether at least ten of `n` samples lie beyond the `q`-quantile — the
/// condition under which a tail percentile is worth reporting.
pub fn ten_beyond(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// Relative difference `|a − b| / min(|a|, |b|)`; 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_and_quantile_sort_their_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 1.0), 3.0);
    }

    #[test]
    fn geomean_weights_systems_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 needs 1000 samples to leave ten beyond it; p90 needs 100.
        assert!(!ten_beyond(999, 0.99));
        assert!(ten_beyond(1000, 0.99));
        assert!(ten_beyond(100, 0.9));
        assert!(!ten_beyond(99, 0.9));
    }

    #[test]
    fn rel_diff_is_symmetric_and_handles_zero() {
        assert!((rel_diff(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(110.0, 100.0), rel_diff(100.0, 110.0));
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
