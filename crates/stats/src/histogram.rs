//! Integer and fixed-width histograms.
//!
//! Figure 5 of the paper is a histogram of Voronoi out-degrees; Figure 8's
//! analysis also relies on distributions of per-object quantities.  The
//! histograms here are deliberately simple, deterministic and serialisable so
//! that the figure binaries can dump them as CSV.

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

    /// Records `n` observations of `value`.
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations equal to `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
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

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Dense `(value, count)` rows from 0 to the maximum recorded value —
    /// the exact series plotted in Figure 5.
    pub fn dense_rows(&self) -> Vec<(u64, u64)> {
        match self.max() {
            None => Vec::new(),
            Some(max) => (0..=max).map(|v| (v, self.count(v))).collect(),
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &IntHistogram) {
        for (v, c) in other.iter() {
            self.record_n(v, c);
        }
    }
}

/// Fixed-width histogram over `f64` observations in `[lo, hi)`.
///
/// Out-of-range observations are clamped into the first/last bin so that no
/// sample is silently dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedHistogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    total: u64,
}

impl FixedHistogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "a histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        FixedHistogram {
            lo,
            hi,
            bins: vec![0; bins],
            total: 0,
        }
    }

    /// Records one observation (clamped into range).
    pub fn record(&mut self, value: f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = ((value - self.lo) / width).floor();
        let idx = (idx.max(0.0) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lower edge of bin `i`.
    fn bin_lo(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + width * i as f64
    }

    /// `(bin_low_edge, count)` rows.
    pub fn rows(&self) -> Vec<(f64, u64)> {
        (0..self.bins.len())
            .map(|i| (self.bin_lo(i), self.bins[i]))
            .collect()
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
        assert_eq!(h.min(), Some(3));
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
    fn int_histogram_dense_rows_and_merge() {
        let mut a = IntHistogram::new();
        a.record(1);
        a.record(3);
        let mut b = IntHistogram::new();
        b.record_n(3, 2);
        a.merge(&b);
        assert_eq!(a.dense_rows(), vec![(0, 0), (1, 1), (2, 0), (3, 3)]);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn int_histogram_empty() {
        let h = IntHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mode(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.dense_rows().is_empty());
    }

    #[test]
    fn fixed_histogram_binning() {
        let mut h = FixedHistogram::new(0.0, 1.0, 4);
        for &v in &[0.0, 0.1, 0.3, 0.6, 0.99, -5.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.bins, [3, 1, 1, 2]);
        assert_eq!(h.bin_lo(2), 0.5);
        assert_eq!(h.rows().len(), 4);
    }

    #[test]
    #[should_panic]
    fn fixed_histogram_zero_bins_panics() {
        FixedHistogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = IntHistogram::new();
        h.record_n(4, 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.count(4), 0);
    }
}
