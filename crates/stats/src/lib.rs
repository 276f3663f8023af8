//! # voronet-stats
//!
//! Exact integer histograms (the overlay's degree and view-size
//! distributions, Figure 5) and the tail quantiles of a latency sample,
//! which the lossy-cluster gates read.

#![warn(missing_docs)]

mod histogram;
mod summary;

pub use histogram::IntHistogram;
pub use summary::{tail_summary, TailSummary};
