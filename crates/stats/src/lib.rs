//! # voronet-stats
//!
//! Exact integer histograms (the overlay's degree and view-size
//! distributions, Figure 5) and the tail quantiles the scenario tests
//! record.

#![warn(missing_docs)]

mod histogram;
mod summary;

pub use histogram::IntHistogram;
pub use summary::{tail_summary, TailSummary};
