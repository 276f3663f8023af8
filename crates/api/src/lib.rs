//! # voronet-api
//!
//! The backend-agnostic overlay API of the VoroNet reproduction: one
//! stable client surface over every protocol engine.
//!
//! The paper defines a single protocol — join, leave, greedy/long-link
//! routing, range queries — and the workspace executes it two ways: the
//! synchronous [`VoroNet`](voronet_core::VoroNet) fast path
//! ([`SyncEngine`]) and, at the message level, `voronet-net`'s
//! `InlineCluster` — a driver and hosts exchanging wire frames.  This
//! crate makes them interchangeable:
//!
//! * [`Overlay`] — the engine-agnostic trait (insert / remove / route /
//!   query / snapshot / stats), dyn-compatible so callers hold a
//!   `Box<dyn Overlay>`;
//! * [`Op`] / [`OpResult`] — typed batched operations:
//!   [`Overlay::apply_batch`] is the throughput lever (interleaved walks
//!   for each run of routes on the sync engine, one shared pump for each
//!   run of routes on the cluster);
//! * [`OverlayBuilder`] — fluent construction: provisioned population,
//!   seed, long-link count, attribute domain;
//! * [`VoronetError`] — the one error taxonomy (re-exported from
//!   `voronet-core`, whose concrete methods return it too);
//! * [`resolve_workload`] — binds the index-named batch scripts of
//!   `voronet-workloads` to a concrete engine.
//!
//! ```
//! use voronet_api::{Op, Overlay, OverlayBuilder};
//! use voronet_geom::Point2;
//!
//! let mut net = OverlayBuilder::new(100).seed(1).build_sync();
//! let a = net.insert(Point2::new(0.2, 0.2)).unwrap().id;
//! let b = net.insert(Point2::new(0.9, 0.7)).unwrap().id;
//!
//! // Single-operation form …
//! assert_eq!(net.route_between(a, b).unwrap().owner, b);
//!
//! // … and the batched form every engine accepts.
//! let results = net.apply_batch(&[
//!     Op::Insert { position: Point2::new(0.4, 0.6) },
//!     Op::RouteBetween { from: b, to: a },
//! ]);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod ops;
pub mod overlay;
pub mod sync_engine;
pub mod workload;

pub use builder::OverlayBuilder;
pub use ops::{
    DeleteOutcome, GetOutcome, InsertOutcome, Op, OpResult, OverlayStats, PublishOutcome,
    PutOutcome, QueryOutcome, RemoveOutcome, RouteOutcome, ServiceOp, ServiceResult,
    SubscribeOutcome, UnsubscribeOutcome,
};
pub use overlay::Overlay;
pub use sync_engine::SyncEngine;
pub use workload::resolve_workload;

// The error taxonomy lives in `voronet-core` (the overlay itself reports
// through it); re-exported here because it is part of the API surface.
pub use voronet_core::{ErrorKind, VoronetError};
