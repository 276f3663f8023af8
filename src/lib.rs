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
//! | [`stats`] | histograms, regressions, series export |
//! | [`workloads`] | object distributions, query generators, batched op scripts |
//! | [`sim`] | discrete-event scheduler, per-node async runtime, network models, traffic accounting |
//! | [`core`] | the VoroNet overlay itself, plus its message-driven execution |
//! | [`api`] | the backend-agnostic [`Overlay`](api::Overlay) trait, batched ops, `OverlayBuilder`, unified errors |
//! | [`services`] | geo-scoped services over any overlay: region pub/sub and coordinate-keyed KV |
//! | [`net`] | the wire codec, pluggable transports (vnet/UDP/TCP) and the driver/host cluster behind `voronet-node` |
//! | `voronet-smallworld` | Kleinberg grid baseline for the routing ablation (dev-only, not re-exported) |
//! | `voronet-testkit` | differential oracle fuzzing of every engine, shrinking reproducers (dev-only, not re-exported) |
//!
//! Applications program against the [`api::Overlay`] trait and pick an
//! engine (synchronous fast path or the message-driven runtime) with the
//! [`api::OverlayBuilder`]:
//!
//! ```
//! use voronet::prelude::*;
//!
//! let mut net = OverlayBuilder::new(100).seed(1).build_sync();
//! let a = net.insert(Point2::new(0.2, 0.2)).unwrap().id;
//! let b = net.insert(Point2::new(0.9, 0.7)).unwrap().id;
//! assert_eq!(net.route_between(a, b).unwrap().owner, b);
//!
//! // The same program runs unchanged on the asynchronous engine:
//! let mut net: Box<dyn Overlay> = OverlayBuilder::new(100)
//!     .seed(1)
//!     .engine(EngineKind::Async)
//!     .build();
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
        AsyncEngine, EngineKind, ErrorKind, Op, OpResult, Overlay, OverlayBuilder, ServiceOp,
        ServiceResult, SyncEngine, VoronetError,
    };
    pub use voronet_core::{
        radius_query, range_query, FrozenView, JoinReport, LeaveReport, ObjectId, ObjectView,
        RouteReport, RouteScratch, SnapshotStats, ViewRefresh, VoroNet, VoroNetConfig,
    };
    pub use voronet_geom::{Point2, Rect, Triangulation};
    pub use voronet_services::{key_point, ServiceEngine};
    pub use voronet_stats::{IntHistogram, Series};
    pub use voronet_workloads::{
        Distribution, OpBatchGenerator, OpMix, PointGenerator, QueryGenerator,
    };
}
