//! Order statistics for the benchmark's reported timings.
//!
//! A tail percentile is only reported where the sample backs it: the rule
//! is "the highest percentile with at least [`TAIL_MIN`] samples beyond it",
//! and every reported percentile carries its sample count.

use std::time::Duration;

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_MIN: usize = 10;

/// Percentiles the tail rule may fall back to, highest first.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank quantile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Nearest-rank quantile of `v` (sorted copy; NaN-free input).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    s[rank(s.len(), q)]
}

/// Median of `v` (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds in milliseconds.
pub fn ns_ms(ns: f64) -> f64 {
    ns / 1e6
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A tail percentile as reported: the percentile actually used and its
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
}

impl Tail {
    /// Whether the requested percentile had enough samples beyond it.
    pub fn backed(&self, requested: f64) -> bool {
        self.q >= requested
    }
}

/// The requested percentile `q`, or the highest lower ladder percentile
/// that still has [`TAIL_MIN`] samples beyond it (the median as the floor).
pub fn tail(v: &[f64], q: f64) -> Tail {
    let n = v.len();
    let used = std::iter::once(q)
        .chain(LADDER.into_iter().filter(|&l| l < q))
        .find(|&l| beyond(n, l) >= TAIL_MIN)
        .unwrap_or(0.50);
    Tail {
        q: used,
        value: quantile(v, used),
    }
}

/// Smallest sample count for which percentile `q` is reportable.
pub fn min_samples_for(q: f64) -> usize {
    (1..100_000)
        .find(|&n| beyond(n, q) >= TAIL_MIN)
        .expect("percentile below 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(min_samples_for(0.90), 100);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.50), 20);
        let t = tail(&ramp(100), 0.90);
        assert_eq!((t.q, t.value), (0.90, 90.0));
        assert_eq!(beyond(100, 0.90), 10);
        assert!(t.backed(0.90));
    }

    #[test]
    fn too_few_samples_fall_back_down_the_ladder() {
        // 99 samples leave only 9 beyond p90: the rule drops to p75.
        let t = tail(&ramp(99), 0.90);
        assert_eq!(t.q, 0.75);
        assert_eq!(t.value, 75.0);
        assert!(!t.backed(0.90));
        assert!(beyond(99, 0.75) >= TAIL_MIN);
        // Tiny samples floor at the median rather than claim a tail.
        let t = tail(&ramp(5), 0.90);
        assert_eq!((t.q, t.value), (0.50, 3.0));
    }

    #[test]
    fn reported_tail_always_has_enough_samples_beyond_it() {
        for n in 20..400 {
            let t = tail(&ramp(n), 0.90);
            assert!(beyond(n, t.q) >= TAIL_MIN, "n={n} q={}", t.q);
            let above = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert_eq!(above, beyond(n, t.q), "n={n}");
        }
    }

    #[test]
    fn median_and_quantile_ignore_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(mean(&v), 3.0);
    }
}
