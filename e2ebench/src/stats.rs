//! Order statistics of latency samples.

/// Median (mean of the two middle values for an even count); NaN for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

/// Nearest-rank position (1-based) of the `p`-th percentile of `n`
/// samples: `ceil(p · n / 100)`, at least 1.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Samples that lie beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest whole percentile with at least ten samples beyond it —
/// the most extreme tail `n` samples can resolve — or `None` below 11
/// samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99).rev().find(|&p| beyond(n, p) >= 10)
}

/// Nearest-rank `p`-th percentile.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(tail_percentile(99), Some(89));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(beyond(100, 90), 10);
        assert!(tail_percentile(1000).unwrap() >= 99);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        for n in 0..=11 {
            let expect = if n == 11 { Some(9) } else { None };
            assert_eq!(tail_percentile(n), expect, "n = {n}");
        }
        for n in 11..500 {
            let p = tail_percentile(n).expect("at least 11 samples");
            assert!(beyond(n, p) >= 10);
            if p < 99 {
                assert!(beyond(n, p + 1) < 10, "n = {n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50), 50.0);
        assert_eq!(percentile(&values, 90), 90.0);
        assert_eq!(percentile(&values[..1], 90), 1.0);
    }
}
