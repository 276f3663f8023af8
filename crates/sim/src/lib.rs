//! # voronet-sim
//!
//! Message-level simulation substrate for the VoroNet evaluation.
//!
//! The original paper evaluates the protocol "by simulation" with an
//! unreleased ad-hoc simulator; every reported metric is a *logical* count
//! (greedy-routing hops, per-operation message counts, view sizes).  This
//! crate provides the equivalent substrate and extends it into a real
//! per-node asynchronous runtime:
//!
//! * [`EventQueue`] — deterministic discrete-event scheduler, delivering
//!   in `(time, scheduling order)`;
//! * [`Runtime`] — per-node message-passing runtime: live-node registry,
//!   typed envelopes, control events, delivery accounting;
//! * [`NetworkModel`] — pluggable network conditions (fixed/uniform/
//!   heavy-tailed latency, iid loss, partition windows), deterministic per
//!   seed;
//! * [`Scenario`] / [`ScenarioBuilder`] — scripted workloads of interleaved
//!   joins, departures, routes and queries;
//! * [`TrafficStats`], [`RouteStats`] — the accounting structures the
//!   overlay layer fills in while executing the protocol.

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod network;
pub mod runtime;
pub mod scenario;

pub use event::{EventQueue, SimTime};
pub use metrics::{MessageKind, NodeId, RouteStats, TrafficStats, TransportStats};
pub use network::{Delivery, LatencyModel, NetworkModel, PartitionWindow};
pub use runtime::{Delivered, DeliveryStats, Envelope, Runtime};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioOp};
