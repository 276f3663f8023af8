//! Typed batched operations and their results.
//!
//! A batch is a slice of [`Op`]s handed to
//! [`Overlay::apply_batch`](crate::Overlay::apply_batch); every operation
//! produces exactly one [`OpResult`] at the same index, so submitters can
//! correlate without bookkeeping.  Batching is the throughput lever of the
//! API: engines amortise per-operation overhead (buffer reuse on the
//! synchronous engine, one quiescence round for a whole run of routes on
//! the asynchronous one) without changing operation semantics.

use voronet_core::queries::AreaQueryReport;
use voronet_core::{ObjectId, ObjectView, VoronetError};
use voronet_geom::{Point2, Rect};
use voronet_workloads::{RadiusQuery, RangeQuery};

/// Outcome of a successful insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Identifier assigned to the new object.
    pub id: ObjectId,
}

/// Outcome of a successful removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveOutcome {
    /// The object that departed.
    pub id: ObjectId,
}

/// Outcome of a successful route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Object owning the Voronoi region of the target point.
    pub owner: ObjectId,
    /// Forwarding steps taken.
    pub hops: u32,
}

/// Outcome of a successful area (range or radius) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Objects matching the query predicate, sorted by id.
    pub matches: Vec<ObjectId>,
    /// Objects visited by the flood phase (the query's load footprint).
    pub visited: usize,
    /// Hops of the initial greedy route towards the queried area.
    pub routing_hops: u32,
    /// Messages exchanged during the flood phase.
    pub flood_messages: u64,
}

impl From<AreaQueryReport> for QueryOutcome {
    fn from(r: AreaQueryReport) -> Self {
        QueryOutcome {
            matches: r.matches,
            visited: r.visited,
            routing_hops: r.routing_hops,
            flood_messages: r.flood_messages,
        }
    }
}

/// One geo-scoped service operation: region pub/sub or coordinate-keyed
/// KV, executed by the service layer (`voronet-services`) over any
/// engine.  Payloads are fixed-size tokens (`u64`), keeping the op
/// `Copy` like every other [`Op`] and trivially wire-encodable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceOp {
    /// Register (or replace) `id`'s interest in publishes whose region
    /// intersects `region`.
    Subscribe {
        /// The subscribing object.
        id: ObjectId,
        /// The spatial region of interest.
        region: Rect,
    },
    /// Drop `id`'s subscription.
    Unsubscribe {
        /// The unsubscribing object.
        id: ObjectId,
    },
    /// Publish `payload` to every subscriber resolvable inside `region`
    /// (delivery rides the area-flood machinery).
    Publish {
        /// The publishing object.
        from: ObjectId,
        /// The target region — the topic.
        region: Rect,
        /// Opaque payload token.
        payload: u64,
    },
    /// Store `value` under `key` at the owner of the key's coordinate.
    KvPut {
        /// The requesting object (route origin).
        from: ObjectId,
        /// The key; hashes deterministically to a coordinate.
        key: u64,
        /// The value token to store.
        value: u64,
    },
    /// Look `key` up at the owner of its coordinate.
    KvGet {
        /// The requesting object (route origin).
        from: ObjectId,
        /// The key to resolve.
        key: u64,
    },
    /// Delete `key` from the owner of its coordinate.
    KvDelete {
        /// The requesting object (route origin).
        from: ObjectId,
        /// The key to delete.
        key: u64,
    },
}

/// Outcome of a successful [`ServiceOp::Subscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeOutcome {
    /// The subscriber.
    pub id: ObjectId,
    /// True when an earlier subscription of the same object was replaced.
    pub replaced: bool,
}

/// Outcome of a successful [`ServiceOp::Unsubscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsubscribeOutcome {
    /// The unsubscribing object.
    pub id: ObjectId,
    /// True when a subscription actually existed.
    pub existed: bool,
}

/// Outcome of a successful [`ServiceOp::Publish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Per-topic sequence number assigned to this publish.
    pub seq: u64,
    /// Subscribers the publish reached (sorted by id): interested in the
    /// region *and* resolvable by the area flood.
    pub delivered: Vec<ObjectId>,
    /// Interested subscribers the flood could not reach (sorted by id):
    /// their own coordinates lie outside the published region.
    pub missed: Vec<ObjectId>,
    /// Hops of the initial greedy route towards the region.
    pub routing_hops: u32,
    /// Objects visited by the resolution flood.
    pub visited: usize,
    /// Messages exchanged during the flood.
    pub flood_messages: u64,
}

/// Outcome of a successful [`ServiceOp::KvPut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// The object owning the key's Voronoi cell — the storing node.
    pub owner: ObjectId,
    /// The owner's Voronoi neighbours holding replicas (sorted by id).
    pub replicas: Vec<ObjectId>,
    /// True when an existing entry was overwritten.
    pub replaced: bool,
    /// Hops of the greedy route to the owner.
    pub hops: u32,
}

/// Outcome of a successful [`ServiceOp::KvGet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOutcome {
    /// The object owning the key's Voronoi cell.
    pub owner: ObjectId,
    /// The stored value, `None` when the key is absent at the owner.
    pub value: Option<u64>,
    /// Hops of the greedy route to the owner.
    pub hops: u32,
}

/// Outcome of a successful [`ServiceOp::KvDelete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// The object owning the key's Voronoi cell.
    pub owner: ObjectId,
    /// True when an entry existed and was removed.
    pub existed: bool,
    /// Hops of the greedy route to the owner.
    pub hops: u32,
}

/// The success payload of an [`Op::Service`], one variant per
/// [`ServiceOp`] family.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResult {
    /// A [`ServiceOp::Subscribe`] succeeded.
    Subscribed(SubscribeOutcome),
    /// A [`ServiceOp::Unsubscribe`] completed.
    Unsubscribed(UnsubscribeOutcome),
    /// A [`ServiceOp::Publish`] resolved its subscribers.
    Published(PublishOutcome),
    /// A [`ServiceOp::KvPut`] stored its entry.
    Put(PutOutcome),
    /// A [`ServiceOp::KvGet`] resolved (hit or miss).
    Got(GetOutcome),
    /// A [`ServiceOp::KvDelete`] completed.
    Deleted(DeleteOutcome),
}

/// Aggregate counters every engine exposes through
/// [`Overlay::stats`](crate::Overlay::stats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayStats {
    /// Live objects.
    pub population: usize,
    /// Protocol messages recorded since construction.
    pub messages: u64,
    /// Routes completed through this engine.
    pub routes_completed: u64,
    /// Mean hop count of the completed routes (0.0 when none completed).
    pub mean_route_hops: f64,
}

/// One operation of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Publish a new object.
    Insert {
        /// Attribute coordinates of the new object.
        position: Point2,
    },
    /// Gracefully remove an object.
    Remove {
        /// The departing object.
        id: ObjectId,
    },
    /// Greedy-route from an object towards an arbitrary target point.
    Route {
        /// Source object.
        from: ObjectId,
        /// Target point.
        target: Point2,
    },
    /// Greedy-route between two objects.
    RouteBetween {
        /// Source object.
        from: ObjectId,
        /// Destination object.
        to: ObjectId,
    },
    /// Rectangular range query.
    Range {
        /// Issuing object.
        from: ObjectId,
        /// The queried rectangle.
        query: RangeQuery,
    },
    /// Radius (disk) query.
    Radius {
        /// Issuing object.
        from: ObjectId,
        /// The queried disk.
        query: RadiusQuery,
    },
    /// Capture an object's view snapshot.
    Snapshot {
        /// The object whose view is captured.
        id: ObjectId,
    },
    /// A geo-scoped service operation (pub/sub or KV), executed by the
    /// service layer wrapped around the engine.
    Service(ServiceOp),
}

/// The result of one [`Op`], at the same batch index.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// An [`Op::Insert`] succeeded.
    Inserted(InsertOutcome),
    /// An [`Op::Remove`] succeeded.
    Removed(RemoveOutcome),
    /// An [`Op::Route`] / [`Op::RouteBetween`] completed.
    Routed(RouteOutcome),
    /// An [`Op::Range`] / [`Op::Radius`] completed.
    Queried(QueryOutcome),
    /// An [`Op::Snapshot`] succeeded (boxed: views are large relative to
    /// the other outcomes).
    Snapshotted(Box<ObjectView>),
    /// An [`Op::Service`] succeeded.
    Service(ServiceResult),
    /// The operation failed.
    Failed(VoronetError),
}

impl OpResult {
    /// True when the operation succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self, OpResult::Failed(_))
    }

    /// The error of a failed operation.
    pub fn err(&self) -> Option<&VoronetError> {
        match self {
            OpResult::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// The route outcome, when this is [`OpResult::Routed`].
    pub fn as_routed(&self) -> Option<&RouteOutcome> {
        match self {
            OpResult::Routed(r) => Some(r),
            _ => None,
        }
    }

    /// The insert outcome, when this is [`OpResult::Inserted`].
    pub fn as_inserted(&self) -> Option<&InsertOutcome> {
        match self {
            OpResult::Inserted(r) => Some(r),
            _ => None,
        }
    }
}
