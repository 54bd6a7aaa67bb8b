//! Order statistics for the reported metrics.

/// Percentiles the benchmark may report, highest first.
const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    sorted_percentile(&v, p)
}

fn rank(n: usize, p: f64) -> usize {
    // The small offset keeps ranks exact where p% of n is a whole number
    // that floating point overshoots (99.9% of 10000).
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest reportable percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn the_chosen_percentile_really_has_ten_beyond() {
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let x = percentile(&v, p);
                let above = v.iter().filter(|&&s| s > x).count();
                assert!(above >= MIN_BEYOND, "n={n} p={p} above={above}");
            }
        }
    }

    #[test]
    fn nearest_rank_and_median() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
