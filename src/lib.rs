//! # voronet
//!
//! Facade crate for the VoroNet reproduction — *VoroNet: A scalable object
//! network based on Voronoi tessellations* (Beaumont, Kermarrec, Marchal,
//! Rivière, IPDPS 2007).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! re-exports them so applications can depend on a single name:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`geom`] | robust predicates, incremental Delaunay/Voronoi |
//! | [`stats`] | integer histograms |
//! | [`workloads`] | object distributions, query generators, batched op scripts |
//! | [`sim`] | traffic accounting and deterministic network models |
//! | [`core`] | the VoroNet overlay itself, plus the paper's Algorithm 5 |
//! | [`api`] | the backend-agnostic [`Overlay`](api::Overlay) trait, batched ops, `OverlayBuilder`, unified errors |
//! | [`services`] | geo-scoped services over any overlay: region pub/sub and coordinate-keyed KV |
//! | [`net`] | the wire codec, pluggable transports (vnet/UDP/TCP) and the driver/host cluster behind `voronet-node`, which is also the message-level `Overlay` engine |
//! | `voronet-bench` | the paper's evaluation: figure drivers, Kleinberg grid, log–log fit, series export, the `figures` binary (dev-only, not re-exported) |
//! | `voronet-testkit` | differential oracle fuzzing of every engine, shrinking reproducers (dev-only, not re-exported) |
//!
//! Applications program against the [`api::Overlay`] trait and pick an
//! engine: the synchronous fast path, or the message-level cluster
//! ([`net::InlineCluster`]: a driver and hosts exchanging wire frames on
//! one thread).  The program below runs unchanged on
//! `Box::new(InlineCluster::start(3, builder.config()))`;
//! `examples/engines.rs` runs one batch on both, and on a lossy cluster.
//!
//! ```
//! use voronet::prelude::*;
//!
//! let builder = OverlayBuilder::new(100).seed(1);
//! let mut net: Box<dyn Overlay> = Box::new(builder.build_sync());
//! let a = net.insert(Point2::new(0.2, 0.2)).unwrap().id;
//! let b = net.insert(Point2::new(0.9, 0.7)).unwrap().id;
//! assert_eq!(net.route_between(a, b).unwrap().owner, b);
//! ```

#![warn(missing_docs)]

pub use voronet_api as api;
pub use voronet_core as core;
pub use voronet_geom as geom;
pub use voronet_net as net;
pub use voronet_services as services;
pub use voronet_sim as sim;
pub use voronet_stats as stats;
pub use voronet_workloads as workloads;

/// Commonly used items, re-exported for `use voronet::prelude::*`.
pub mod prelude {
    pub use voronet_api::{
        ErrorKind, Op, OpResult, Overlay, OverlayBuilder, ServiceOp, ServiceResult, SyncEngine,
        VoronetError,
    };
    pub use voronet_core::{
        radius_query, range_query, FrozenView, JoinReport, LeaveReport, ObjectId, ObjectView,
        RouteReport, RouteScratch, SnapshotStats, ViewRefresh, VoroNet, VoroNetConfig,
    };
    pub use voronet_geom::{Point2, Rect, Triangulation};
    pub use voronet_net::InlineCluster;
    pub use voronet_services::{key_point, ServiceEngine};
    pub use voronet_stats::IntHistogram;
    pub use voronet_workloads::{
        Distribution, OpBatchGenerator, OpMix, PointGenerator, QueryGenerator,
    };
}
