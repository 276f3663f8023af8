//! # voronet-services
//!
//! Geo-scoped services riding the VoroNet overlay: region pub/sub and a
//! coordinate-keyed KV store, layered over any [`Overlay`] engine.
//!
//! The paper's overlay gives every object a Voronoi cell in the
//! attribute space and makes three primitives cheap: greedy routing to
//! the cell owner of any point (Theorem 1), area floods over a
//! rectangle, and complete neighbourhood views.  This crate turns those
//! primitives into services:
//!
//! * **Region pub/sub** — an object subscribes to a rectangle of the
//!   attribute space; a publish into a region floods it with the same
//!   machinery as a range query and delivers to every subscriber whose
//!   region intersects and whose coordinates the flood reached.
//!   Per-topic sequence numbers (a topic *is* its rectangle, identified
//!   bit-exactly — [`topic_key`]) make re-deliveries detectable.
//! * **Coordinate-keyed KV** — a key hashes deterministically to a home
//!   coordinate ([`key_point`]); the live object owning that
//!   coordinate's Voronoi cell stores the entry, its Voronoi neighbours
//!   are the replica set, and churn hands ownership off so a `get`
//!   routed to the key point keeps finding the value.
//!
//! The layer is an engine wrapper, [`ServiceEngine`], implementing
//! [`Overlay`] itself: service ops execute purely through trait calls
//! (`route`, `range`, `snapshot`), so any two engines that agree on
//! protocol results agree bit-for-bit on service results — exactly the
//! property the differential testkit pins down.
//!
//! ```
//! use voronet_api::{Op, Overlay, OverlayBuilder, OpResult, ServiceOp, ServiceResult};
//! use voronet_geom::{Point2, Rect};
//! use voronet_services::ServiceEngine;
//!
//! let mut net = ServiceEngine::new(OverlayBuilder::new(64).seed(7).build_sync());
//! let a = net.insert(Point2::new(0.2, 0.2)).unwrap().id;
//! let b = net.insert(Point2::new(0.8, 0.8)).unwrap().id;
//!
//! // KV: the key's home coordinate decides placement, not the caller.
//! net.apply(&Op::Service(ServiceOp::KvPut { from: a, key: 42, value: 7 }));
//! let got = net.apply(&Op::Service(ServiceOp::KvGet { from: b, key: 42 }));
//! match got {
//!     OpResult::Service(ServiceResult::Got(g)) => assert_eq!(g.value, Some(7)),
//!     other => panic!("{other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod keys;
pub mod state;

pub use engine::ServiceEngine;
pub use keys::{key_point, topic_key};
pub use state::{KvEntry, ServiceState, ServiceStats};

// Service ops and results are part of the API surface; re-export for
// callers that only depend on this crate.
pub use voronet_api::{Overlay, ServiceOp, ServiceResult};

/// The overlay API this crate layers over, for crates that reach it through
/// this one (`voronet-net` implements [`Overlay`] for its in-process
/// cluster without a manifest edge of its own).
pub use voronet_api as api;
