//! Order statistics over repeated timings.

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the
/// spread printed here is the spread the acceptance check computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let n = s.len() as f64;
    let at = |q: f64| {
        let pos = q * (n + 1.0);
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// The highest of p90 / p99 / p99.9 that has at least ten samples
/// strictly beyond it, as `(quantile, value)`; `None` when even p90
/// lacks them (fewer than 100 samples). A tail read off fewer samples
/// is one or two outliers, not a percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    [0.999, 0.99, 0.9].into_iter().find_map(|q| {
        // Nearest-rank: the value at 1-based rank ceil(q * n).
        let rank = ((q * n as f64).ceil() as usize).max(1);
        (rank <= n && n - rank >= 10).then(|| (q, s[rank - 1]))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_quartiles_follow_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&ramp(99)), None, "p90 of 99 has only 9 beyond");
        assert_eq!(tail(&ramp(100)), Some((0.9, 90.0)));
        assert_eq!(
            tail(&ramp(999)),
            Some((0.9, 900.0)),
            "p99 of 999 has 9 beyond"
        );
        assert_eq!(tail(&ramp(1000)), Some((0.99, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((0.999, 9990.0)));
    }
}
