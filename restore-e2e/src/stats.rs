//! Order statistics for the report: medians, percentiles and the
//! quartiles the acceptance rule is stated in.

/// Sort a sample ascending. Timings are never NaN, so the total order is
/// only there to satisfy the type.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Percentile `p` in 0..=1 of an ascending sample, by linear
/// interpolation between the two nearest ranks. Panics on an empty
/// sample: every caller has at least one operation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them, because that is the
/// function the acceptance rule for this benchmark names. A sample of
/// one has no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let x = sorted(values.to_vec());
    let n = x.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (x[0], x[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert!((percentile(&s, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 7.0]), 4.0);
    }

    /// Values checked against CPython: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quartiles(&five), (15.0, 45.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }
}
