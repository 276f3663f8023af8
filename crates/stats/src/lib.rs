//! # voronet-stats
//!
//! Exact integer histograms: the overlay's degree and view-size
//! distributions (Figure 5).

#![warn(missing_docs)]

mod histogram;

pub use histogram::IntHistogram;
