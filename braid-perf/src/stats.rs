//! Order statistics shared by the runner and `compare`.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `p`-quantile (0 < p < 1) by nearest rank, refused when fewer than
/// [`MIN_BEYOND`] samples lie above it: a tail read from a handful of
/// samples is noise, not a percentile.
pub fn percentile_checked(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..1.0).contains(&p) {
        return None;
    }
    let s = sorted(xs);
    let rank = ((p * s.len() as f64).ceil() as usize).max(1);
    (s.len() - rank >= MIN_BEYOND).then(|| s[rank - 1])
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads `compare` prints match those computed in Python.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly 10 beyond it: allowed.
        assert_eq!(percentile_checked(&xs, 0.90), Some(90.0));
        // p99 of 100 samples has 1 beyond it: refused.
        assert_eq!(percentile_checked(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_checked(&many, 0.99), Some(990.0));
        assert_eq!(percentile_checked(&many, 0.995), None);
        assert_eq!(percentile_checked(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }}
