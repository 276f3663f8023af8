//! # voronet-core
//!
//! The VoroNet object overlay (Beaumont, Kermarrec, Marchal, Rivière —
//! *VoroNet: A scalable object network based on Voronoi tessellations*,
//! IPDPS 2007): application objects are peers of a 2-D attribute space,
//! linked according to the Voronoi tessellation of the object set plus
//! Kleinberg-style long-range links, giving `O(log² N)` greedy routing for
//! arbitrary (including heavily skewed) object distributions.
//!
//! * [`VoroNet`] — the overlay: decentralised join ([`VoroNet::insert`]),
//!   departure ([`VoroNet::remove`]), greedy routing
//!   ([`VoroNet::route_to_point`]) and query handling, with per-message
//!   traffic accounting;
//! * [`VoroNetConfig`] — `N_max`, the number of long links and `d_min`;
//! * [`queries`] — range and radius queries (the paper's perspectives);
//! * [`protocol`] — the paper's Algorithm 5 forwarding loop, with its stop
//!   condition and the Lemma 4 check.
//!
//! The protocol at the message level — hosts exchanging wire frames over
//! a transport — is `voronet-net`'s cluster.
//!
//! ```
//! use voronet_core::{VoroNet, VoroNetConfig};
//! use voronet_geom::Point2;
//!
//! let mut net = VoroNet::new(VoroNetConfig::new(1_000).with_seed(7));
//! let a = net.insert(Point2::new(0.1, 0.2)).unwrap().id;
//! let b = net.insert(Point2::new(0.8, 0.9)).unwrap().id;
//! let route = net.route_between(a, b).unwrap();
//! assert_eq!(route.owner, b);
//! ```

#![warn(missing_docs)]

mod arena;
pub mod config;
pub mod dynamic;
pub mod error;
pub mod object;
pub mod overlay;
pub mod protocol;
pub mod queries;
pub mod snapshot;

pub use config::{DminRule, VoroNetConfig};
pub use dynamic::{adapt_nmax, AdaptationPolicy, AdaptationReport, RefreshStrategy};
pub use error::{ErrorKind, VoronetError};
pub use object::{BackLink, LinkIndex, LongLink, ObjectId, ObjectView, ViewRef};
pub use overlay::{InvariantAudit, JoinReport, LeaveReport, RouteReport, VoroNet};
pub use protocol::{algorithm5_route, Algorithm5Report, StopReason};
pub use queries::{
    radius_query, radius_query_in, range_query, range_query_in, segment_query, AreaQueryReport,
    SegmentQueryReport,
};
pub use snapshot::{FrozenView, RouteScratch, SnapshotStats, TrafficDelta, ViewRefresh};
