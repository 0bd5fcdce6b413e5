//! Latency summaries: the median and the tail percentile rule.

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples for even `n`).
    pub p50: f64,
    /// The value at [`tail_rank`].
    pub tail: f64,
    /// The percentile `tail` sits at: the share of samples at or below it.
    pub tail_pct: f64,
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// 0-based rank, in ascending order, of the reported tail sample: the
/// highest rank with at least 10 samples beyond it. Runs too short for that
/// rule to land above the median report the upper middle sample instead.
pub fn tail_rank(n: usize) -> usize {
    n.saturating_sub(11).max(n / 2).min(n.saturating_sub(1))
}

/// Summarize a latency sample (`None` when empty).
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = tail_rank(n);
    Some(Summary {
        n,
        p50: median(&sorted),
        tail: sorted[rank],
        tail_pct: 100.0 * (rank + 1) as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_at_least_ten_samples_beyond() {
        for n in 21..2000 {
            let values: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let s = summarize(&values).unwrap();
            let beyond = values.iter().filter(|&&v| v > s.tail).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond the tail");
            // and it is the highest such percentile
            assert_eq!(beyond, 10, "n={n}: tail is not the highest valid rank");
            assert!(s.tail >= s.p50);
        }
    }

    #[test]
    fn short_runs_report_the_median_as_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, 2.0));
        assert_eq!(tail_rank(12), 6);
        assert_eq!(tail_rank(21), 10);
        assert_eq!(tail_rank(1), 0);
        assert_eq!(tail_rank(0), 0);
    }

    #[test]
    fn tail_percentile_is_labelled() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!(s.tail, 89.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.p50, 49.5);
    }
}
