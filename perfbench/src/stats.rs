//! Order statistics for latency samples.

/// Median (mean of the two middle values for an even count); 0.0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Samples in one window of [`tail`] (its percentile is then p90). Wider
/// windows (200, p95) let the moments the shared host ran slow set the
/// tail: over five seeds of an earlier open-loop serve-short it spread 48%.
pub const TAIL_WINDOW: usize = 100;

/// The tail of a run's samples `v`, in the order they completed: the run
/// is cut into consecutive windows of [`TAIL_WINDOW`] samples (the last one
/// takes the remainder, so a run of fewer than two windows is one window),
/// each window's [`window_tail`] is taken, and the median window is
/// reported as `(percentile, value)`.
///
/// The value beyond which only ten samples of a whole run lie is set by the
/// run's few worst moments; the median over windows keeps one stall or one
/// burst of arrivals from setting the run's tail on its own.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let windows = (v.len() / TAIL_WINDOW).max(1);
    let tails: Vec<(f64, f64)> = (0..windows)
        .map(|k| {
            let end = if k + 1 == windows {
                v.len()
            } else {
                (k + 1) * TAIL_WINDOW
            };
            window_tail(&v[k * TAIL_WINDOW..end])
        })
        .collect();
    let pct: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let val: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (median(&pct), median(&val))
}

/// The highest percentile of `v` that still has [`TAIL_BEYOND`] samples
/// above it, as `(percentile, value)`. With too few samples for that, the
/// maximum is reported at percentile 100.
pub fn window_tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (100.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (100.0, s[n - 1]);
    }
    let rank = n - TAIL_BEYOND;
    (100.0 * rank as f64 / n as f64, s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = window_tail(&v);
        assert_eq!(pct, 90.0);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(window_tail(&[5.0, 7.0]), (100.0, 7.0));
        assert_eq!(tail(&v), (90.0, 90.0), "a short run is one window");
    }

    #[test]
    fn tail_is_the_median_window() {
        // Four windows; one holds a stall far above the others.
        let mut v: Vec<f64> = (0..4 * TAIL_WINDOW)
            .map(|i| (i % TAIL_WINDOW) as f64)
            .collect();
        v[TAIL_WINDOW + 50..]
            .iter_mut()
            .take(20)
            .for_each(|x| *x = 1e6);
        assert_eq!(tail(&v), (90.0, 89.0));
    }
}
