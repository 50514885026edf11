//! Order statistics for the reports: medians, interpolated percentiles,
//! the quartiles the acceptance check uses, and the tail-percentile rule.

/// Sorts a copy of `xs` (NaN-free by construction of every caller).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (0..=1) of `xs` by linear interpolation between the
/// closest ranks; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// First, second and third quartiles, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads printed here match the ones the acceptance check computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentile ladder the tail rule climbs.
const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.995, 0.999];

/// Samples a tail percentile must leave beyond it before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it (by nearest rank: `n - ceil(p * n)` samples are larger), or
/// `None` when even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&p| {
        // p * 1000 is an integer for every ladder entry, so this ceil is
        // exact.
        let milli = (p * 1000.0).round() as usize;
        let rank = (milli * n).div_ceil(1000);
        n.saturating_sub(rank) >= TAIL_MIN_BEYOND
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert!((percentile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None, "9 beyond the median");
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5), "p90 leaves only 9");
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }
}
