//! Order statistics over small sample sets.

/// Sorts ascending; NaN never occurs in measured values.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    v
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The time an undisturbed sample takes: the lower decile.
///
/// The hosts this runs on step their speed by up to 3× for seconds at a
/// time (a 20 ms job measured 60 ms for 190 consecutive jobs, then
/// 20 ms again). The median of a 10 s run follows those steps; the
/// lower decile does not, as long as a tenth of the samples ran
/// undisturbed. It moves with the code exactly as the median does.
pub fn undisturbed(values: &[f64]) -> f64 {
    percentile(values, 10.0)
}

/// Linearly interpolated percentile `p` in `0..=100`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so spreads printed here are
/// the spreads an outside checker sees. Both equal the single value
/// when there are fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may be negative or exceed 4 after clamping `j`, as in
        // the Python original: the cut then extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
