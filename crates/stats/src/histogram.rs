//! Integer histograms.
//!
//! Figure 5 of the paper is a histogram of Voronoi out-degrees.  The
//! histogram here is deliberately simple, deterministic and serialisable so
//! that the `figures` binary can dump it as CSV.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Exact histogram over non-negative integer observations (e.g. out-degree,
/// hop counts).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IntHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl IntHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations equal to `value`.
    fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.counts.iter().map(|(&v, &c)| v as f64 * c as f64).sum();
        sum / self.total as f64
    }

    /// The most frequent value (smallest one on ties), if any.
    pub fn mode(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&v, _)| v)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the recorded values, if any.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen > rank {
                return Some(v);
            }
        }
        self.max()
    }

    /// Dense `(value, count)` rows from 0 to the maximum recorded value —
    /// the exact series plotted in Figure 5.
    pub fn dense_rows(&self) -> Vec<(u64, u64)> {
        match self.max() {
            None => Vec::new(),
            Some(max) => (0..=max).map(|v| (v, self.count(v))).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_histogram_basics() {
        let mut h = IntHistogram::new();
        for v in [3, 3, 5, 7, 3, 5] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(4), 0);
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.mode(), Some(3));
        assert!((h.mean() - 26.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn int_histogram_quantiles() {
        let mut h = IntHistogram::new();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(99));
        assert_eq!(IntHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn int_histogram_dense_rows() {
        let mut h = IntHistogram::new();
        for v in [1, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.dense_rows(), vec![(0, 0), (1, 1), (2, 0), (3, 3)]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn int_histogram_empty() {
        let h = IntHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), None);
        assert_eq!(h.mode(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.dense_rows().is_empty());
    }
}
