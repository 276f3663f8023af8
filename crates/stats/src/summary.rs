//! Online summary statistics (Welford) and percentile helpers.

use serde::{Deserialize, Serialize};

/// Online count/mean/min/max accumulator (Welford's running mean), merged
/// across threads by the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator (Chan's parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile of a slice (linear interpolation between closest ranks).
/// Returns `None` for an empty slice or a non-finite `q`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !q.is_finite() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// 99.9th percentile of a slice — the deep-tail quantile recorded by the
/// scenario benches.  Linear interpolation between closest ranks, like
/// [`percentile`]: with fewer than 1000 samples the rank position lands
/// between the two largest observations, so the result clamps into
/// `[second-largest, max]` instead of indexing out of bounds.  `None` on
/// an empty slice.
pub fn p999(values: &[f64]) -> Option<f64> {
    percentile(values, 0.999)
}

/// The latency quantiles every scenario record carries: median, tail and
/// deep tail plus the extremes and the sample count they came from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailSummary {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations summarised.
    pub count: usize,
}

/// Summarises a latency sample into its [`TailSummary`] with one sort.
/// `None` on an empty slice.
pub fn tail_summary(values: &[f64]) -> Option<TailSummary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    };
    Some(TailSummary {
        p50: at(0.5),
        p99: at(0.99),
        p999: at(0.999),
        min: sorted[0],
        max: *sorted.last().expect("non-empty"),
        count: sorted.len(),
    })
}

/// Arithmetic mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_closed_form() {
        let mut s = OnlineStats::new();
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for &x in &xs {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let empty = OnlineStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, f64::NAN), None);
    }

    #[test]
    fn mean_of_slice() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn p999_clamps_on_short_and_tied_inputs() {
        // Seeded xorshift so the property sweep replays exactly without a
        // rand dependency in this crate.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let len = (next() % 1499 + 1) as usize; // 1..=1499, mostly < 1000
                                                    // Tie-heavy: values drawn from a tiny integer palette.
            let palette = next() % 5 + 1;
            let xs: Vec<f64> = (0..len).map(|_| (next() % palette) as f64).collect();
            let t = tail_summary(&xs).expect("non-empty");
            let sorted = {
                let mut s = xs.clone();
                s.sort_by(|a, b| a.partial_cmp(b).unwrap());
                s
            };
            assert_eq!(t.count, len, "case {case}");
            assert_eq!(p999(&xs), Some(t.p999), "case {case}");
            assert_eq!(percentile(&xs, 0.5), Some(t.p50), "case {case}");
            // Quantiles are ordered and bounded by the extremes.
            assert!(
                t.min <= t.p50 && t.p50 <= t.p99 && t.p99 <= t.p999 && t.p999 <= t.max,
                "case {case}: unordered quantiles {t:?}"
            );
            assert_eq!(t.min, sorted[0], "case {case}");
            assert_eq!(t.max, *sorted.last().unwrap(), "case {case}");
            // Under 1000 samples the 99.9th rank position sits between the
            // two largest observations — it must clamp there, never index
            // past the end.
            if (2..1000).contains(&len) {
                assert!(
                    t.p999 >= sorted[len - 2],
                    "case {case}: p999 {} below second-largest {}",
                    t.p999,
                    sorted[len - 2]
                );
            }
        }
        // Degenerate inputs.
        assert_eq!(p999(&[]), None);
        assert_eq!(p999(&[7.5]), Some(7.5));
        assert_eq!(tail_summary(&[]), None);
        let ones = [1.0; 10];
        let t = tail_summary(&ones).unwrap();
        assert_eq!((t.p50, t.p99, t.p999, t.max), (1.0, 1.0, 1.0, 1.0));
    }
}
