//! Tail quantiles of a latency sample.

use serde::{Deserialize, Serialize};

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
/// Quantiles interpolate linearly between closest ranks: with fewer than
/// 1000 samples the 99.9th rank position lands between the two largest
/// observations, so `p999` clamps into `[second-largest, max]` instead of
/// indexing out of bounds.  `None` on an empty slice.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Closest-rank linear interpolation over a sorted sample, written
    /// apart from `tail_summary` so its quantiles have something to match.
    fn reference(sorted: &[f64], q: f64) -> f64 {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos as usize;
        let hi = (lo + 1).min(sorted.len() - 1);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let t = tail_summary(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(t.p50, 2.5);
        assert!((t.p99 - 3.97).abs() < 1e-12, "{t:?}");
        assert!((t.p999 - 3.997).abs() < 1e-12, "{t:?}");
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
            for (q, got) in [(0.5, t.p50), (0.99, t.p99), (0.999, t.p999)] {
                let want = reference(&sorted, q);
                assert!(
                    (got - want).abs() < 1e-9,
                    "case {case}: q{q} {got} vs {want}"
                );
            }
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
        assert_eq!(tail_summary(&[7.5]).map(|t| t.p999), Some(7.5));
        assert_eq!(tail_summary(&[]), None);
        let ones = [1.0; 10];
        let t = tail_summary(&ones).unwrap();
        assert_eq!((t.p50, t.p99, t.p999, t.max), (1.0, 1.0, 1.0, 1.0));
    }
}
