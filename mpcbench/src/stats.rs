//! Order statistics over timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The value at percentile `pct` (nearest rank, 1-based `ceil(pct% * n)`).
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty() && (1..=100).contains(&pct));
    let v = sorted(values);
    let rank = (pct as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0);
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lowest median over all windows of `len` consecutive values that
/// start at a multiple of `period` — the quietest stretch of a series of
/// cycle times (see `e2e::best_over_windows` for why). A series shorter
/// than `len` counts as one window.
pub fn quietest_median(values: &[f64], period: usize, len: usize) -> f64 {
    let len = len.min(values.len());
    (0..=values.len() - len)
        .step_by(period)
        .map(|start| median(&values[start..start + len]))
        .fold(f64::INFINITY, f64::min)
}

/// The highest whole percentile (at least the median) that still has ten
/// samples beyond it; `None` when fewer than twenty samples exist. A tail
/// percentile resting on a handful of samples is noise, so reports state
/// this next to the fixed `cycle_p90_ms`.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&pct| samples - (pct as usize * samples).div_ceil(100).max(1) >= 10)
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2);
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 90), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quietest_median_slides_over_aligned_windows() {
        assert_eq!(
            quietest_median(&[9.0, 8.0, 3.0, 5.0, 4.0, 9.0, 9.0], 1, 3),
            4.0
        );
        // With period 2 a window may not start on the quiet pair itself.
        assert_eq!(quietest_median(&[9.0, 1.0, 1.0, 9.0], 1, 2), 1.0);
        assert_eq!(quietest_median(&[9.0, 1.0, 1.0, 9.0], 2, 2), 5.0);
        assert_eq!(quietest_median(&[2.0, 6.0], 1, 8), 4.0);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(99), Some(89));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(5000), Some(99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }
}
