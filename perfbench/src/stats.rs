//! Order statistics shared by every workload.

/// Percentiles the tail rule may pick, highest last.
const TAIL_LADDER: [f64; 3] = [90.0, 95.0, 99.0];

/// Samples a reported tail percentile must leave strictly above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of `sorted`, which must be
/// sorted ascending and non-empty: the smallest sample with at least
/// `p%` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (nearest rank; 0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(xs), 50.0)
}

/// Splits `xs` into as many consecutive windows of at least `min`
/// samples as it holds, the last taking the remainder; a sample shorter
/// than `min` is one window.
pub fn windows(xs: &[f64], min: usize) -> Vec<&[f64]> {
    let k = (xs.len() / min.max(1)).max(1);
    let size = xs.len() / k;
    (0..k)
        .map(|i| {
            let end = if i + 1 == k { xs.len() } else { (i + 1) * size };
            &xs[i * size..end]
        })
        .collect()
}

/// The highest percentile of [`TAIL_LADDER`], at most `cap`, that
/// leaves at least [`TAIL_MIN_BEYOND`] samples above its nearest rank
/// among `n` samples, or `None` when even the lowest rung would not.
///
/// A workload caps the percentile at the one its usual sample size
/// supports, so a faster or slower program, which takes more or fewer
/// samples in the same time, is not reported at a different percentile.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// A tail statistic: which percentile the sample supports, its value,
/// and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (0 when the sample supports none).
    pub percentile: f64,
    /// Its value; the maximum when the sample supports no ladder rung.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The tail of `xs` by the rule of [`tail_percentile`]. A sample too
/// small for any rung reports its maximum under percentile 100.
pub fn tail(xs: &[f64], cap: f64) -> Tail {
    let s = sorted(xs);
    match (tail_percentile(s.len(), cap), s.last()) {
        (Some(p), _) => Tail {
            percentile: p,
            value: percentile_sorted(&s, p),
            samples: s.len(),
        },
        (None, Some(&max)) => Tail {
            percentile: 100.0,
            value: max,
            samples: s.len(),
        },
        (None, None) => Tail {
            percentile: 0.0,
            value: 0.0,
            samples: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 5.0);
        assert_eq!(percentile_sorted(&xs, 90.0), 9.0);
        assert_eq!(percentile_sorted(&xs, 91.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples sits at rank 90: exactly 10 beyond.
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        // 99 samples: p90's rank is 90, leaving only 9 beyond.
        assert_eq!(tail_percentile(99, 99.0), None);
        // p95 needs 200 samples, p99 needs 1000.
        assert_eq!(tail_percentile(199, 99.0), Some(90.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // The ladder stops at p99 however large the sample.
        assert_eq!(tail_percentile(1_000_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn windows_hold_at_least_min_samples() {
        let xs: Vec<f64> = (0..250).map(f64::from).collect();
        let w = windows(&xs, 100);
        assert_eq!(
            w.iter().map(|w| w.len()).collect::<Vec<_>>(),
            vec![125, 125]
        );
        assert_eq!(w[1][0], 125.0);
        let ys: Vec<f64> = (0..399).map(f64::from).collect();
        let w = windows(&ys, 100);
        assert_eq!(
            w.iter().map(|w| w.len()).collect::<Vec<_>>(),
            vec![133, 133, 133]
        );
        assert_eq!(windows(&xs[..40], 100).len(), 1);
        assert_eq!(windows(&[], 100), vec![&[] as &[f64]]);
    }

    #[test]
    fn tail_rule_respects_the_cap() {
        assert_eq!(tail_percentile(5000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(5000, 95.0), Some(95.0));
        // The cap never lifts a sample past what it supports.
        assert_eq!(tail_percentile(150, 99.0), Some(90.0));
        assert_eq!(tail_percentile(99, 90.0), None);
    }

    #[test]
    fn tail_reports_value_and_count() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!(
            t,
            Tail {
                percentile: 95.0,
                value: 190.0,
                samples: 200
            }
        );
        // The chosen rank always leaves at least ten samples above it.
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        let small = tail(&[4.0, 9.0, 2.0], 99.0);
        assert_eq!(
            small,
            Tail {
                percentile: 100.0,
                value: 9.0,
                samples: 3
            }
        );
        assert_eq!(tail(&[], 99.0).samples, 0);
    }
}
