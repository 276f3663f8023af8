//! # voronet-sim
//!
//! Message-level accounting and network latency for the VoroNet
//! evaluation.
//!
//! The original paper evaluates the protocol "by simulation" with an
//! unreleased ad-hoc simulator; every reported metric is a *logical* count
//! (greedy-routing hops, per-operation message counts, view sizes).  This
//! crate holds what the overlay and its transports share of that:
//!
//! * [`TrafficStats`] — the accounting structure the overlay layer fills
//!   in while executing the protocol;
//! * [`TransportStats`] — the counters every transport of `voronet-net`
//!   keeps;
//! * [`NetworkModel`] — pluggable latency (fixed, uniform or heavy-tailed),
//!   deterministic per seed, behind `voronet-net`'s simulated hub.  It
//!   loses nothing: every lost frame, crash or partition comes from
//!   `voronet-net`'s fault layer.

#![warn(missing_docs)]

pub mod metrics;
pub mod network;

pub use metrics::{MessageKind, TrafficStats, TransportStats};
pub use network::{LatencyModel, NetworkModel, SimTime};
