//! Order statistics shared by the workloads and the comparison report.

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; with fewer, the value is set by a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0–100] among `n` samples:
/// the smallest rank with at least `p`% of the samples at or below it.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), p) < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The median (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it. `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile with Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so the comparison report reads the same spread the acceptance rule
/// does. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        // `j` is clamped into 1..n-1 as Python does for small samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Mean of `total` over `count` operations, 0 when nothing was counted.
pub fn per_op(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, 9 beyond — not reportable.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        // 1000 samples: rank 990, exactly 10 beyond — reportable.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(450), 90.0), Some(405.0));
    }

    #[test]
    fn median_is_reportable_from_twenty_samples() {
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: Python
        // extrapolates past the data for tiny samples, and so do we.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
