//! The backend-agnostic [`Overlay`] trait.

use crate::ops::{
    InsertOutcome, Op, OpResult, OverlayStats, QueryOutcome, RemoveOutcome, RouteOutcome,
};
use voronet_core::{ErrorKind, ObjectId, ObjectView, SnapshotStats, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_workloads::{RadiusQuery, RangeQuery};

/// One VoroNet overlay, whichever engine executes it.
///
/// The trait captures the protocol surface of the paper — publish
/// ([`Overlay::insert`]), withdraw ([`Overlay::remove`]), greedy routing
/// ([`Overlay::route`]), area queries ([`Overlay::range`],
/// [`Overlay::radius`]) and view inspection ([`Overlay::snapshot`]) — plus
/// the batched submission form ([`Overlay::apply_batch`]) that
/// throughput-oriented callers use.  Every error is a [`VoronetError`];
/// engine-specific failure modes (an operation lost to a lossy network)
/// map onto its kinds instead of inventing new types.
///
/// The trait is dyn-compatible: workloads, benches and tests hold a
/// `Box<dyn Overlay>` and never name an engine.  Implementations exist for
/// the synchronous [`SyncEngine`](crate::SyncEngine) and for
/// `voronet-net`'s `InlineCluster`, which runs the protocol at the message
/// level (a driver and hosts exchanging wire frames, lossy or not); the
/// service layer's `ServiceEngine` wraps either.  Any future engine
/// (sharded, multi-threaded, remote) plugs in by implementing this trait.
pub trait Overlay {
    /// Short engine identifier ("sync", "cluster", …) for reports and test
    /// labels.
    fn engine_name(&self) -> &'static str;

    /// The overlay configuration.
    fn config(&self) -> &VoroNetConfig;

    /// Number of live objects.
    fn len(&self) -> usize;

    /// True when the overlay holds no object.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` is a live object.
    fn contains(&self, id: ObjectId) -> bool;

    /// Coordinates of a live object.
    fn coords(&self, id: ObjectId) -> Option<Point2>;

    /// The `index`-th live object in the engine's dense sampling order
    /// (`index < len()`) — O(1) uniform sampling without materialising the
    /// id list.
    fn id_at(&self, index: usize) -> Option<ObjectId>;

    /// All live object ids, in dense sampling order.
    fn ids(&self) -> Vec<ObjectId> {
        (0..self.len()).filter_map(|i| self.id_at(i)).collect()
    }

    /// Publishes a new object at `position`.
    fn insert(&mut self, position: Point2) -> Result<InsertOutcome, VoronetError>;

    /// Gracefully removes a live object.
    fn remove(&mut self, id: ObjectId) -> Result<RemoveOutcome, VoronetError>;

    /// Greedy-routes from `from` towards an arbitrary target point,
    /// returning the owner of the target's Voronoi region.
    fn route(&mut self, from: ObjectId, target: Point2) -> Result<RouteOutcome, VoronetError>;

    /// Greedy-routes between two live objects.
    fn route_between(
        &mut self,
        from: ObjectId,
        to: ObjectId,
    ) -> Result<RouteOutcome, VoronetError> {
        let target = self
            .coords(to)
            .ok_or_else(|| VoronetError::new(ErrorKind::UnknownObject(to)))?;
        self.route(from, target)
    }

    /// Executes a rectangular range query issued by `from`.
    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError>;

    /// Executes a radius (disk) query issued by `from`.
    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError>;

    /// The complete view a live object maintains (Section 3.1 of the
    /// paper), as an owned snapshot.
    fn snapshot(&self, id: ObjectId) -> Result<ObjectView, VoronetError>;

    /// Aggregate engine counters.
    fn stats(&self) -> OverlayStats;

    /// Snapshot-maintenance economics: how an engine that serves reads
    /// from a frozen view kept it current (reused / delta-patched /
    /// rebuilt).  These describe the execution strategy, not the protocol,
    /// so they live outside [`Overlay::stats`] — engines with different
    /// view policies still agree on protocol counters.  Engines that walk
    /// the live overlay, [`SyncEngine`](crate::SyncEngine) among them,
    /// report the all-zero default.
    fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats::default()
    }

    /// Verifies the engine's structural invariants (used by tests and
    /// debugging; engines may run the non-exhaustive variant).
    fn verify_invariants(&self) -> Result<(), VoronetError>;

    /// Applies one operation.
    fn apply(&mut self, op: &Op) -> OpResult {
        match *op {
            Op::Insert { position } => match self.insert(position) {
                Ok(r) => OpResult::Inserted(r),
                Err(e) => OpResult::Failed(e),
            },
            Op::Remove { id } => match self.remove(id) {
                Ok(r) => OpResult::Removed(r),
                Err(e) => OpResult::Failed(e),
            },
            Op::Route { from, target } => match self.route(from, target) {
                Ok(r) => OpResult::Routed(r),
                Err(e) => OpResult::Failed(e),
            },
            Op::RouteBetween { from, to } => match self.route_between(from, to) {
                Ok(r) => OpResult::Routed(r),
                Err(e) => OpResult::Failed(e),
            },
            Op::Range { from, query } => match self.range(from, query) {
                Ok(r) => OpResult::Queried(r),
                Err(e) => OpResult::Failed(e),
            },
            Op::Radius { from, query } => match self.radius(from, query) {
                Ok(r) => OpResult::Queried(r),
                Err(e) => OpResult::Failed(e),
            },
            Op::Snapshot { id } => match self.snapshot(id) {
                Ok(v) => OpResult::Snapshotted(Box::new(v)),
                Err(e) => OpResult::Failed(e),
            },
            // Service semantics live in the service layer
            // (`voronet-services`), which wraps an engine and intercepts
            // these before they ever reach a bare engine.
            Op::Service(_) => OpResult::Failed(VoronetError::new(ErrorKind::Unsupported)),
        }
    }

    /// Applies a batch of operations, returning one result per operation at
    /// the same index.  The default implementation applies them in order;
    /// engines override it to amortise work across the batch (the cluster
    /// pumps a run of consecutive routes together, so their waits under
    /// loss overlap).
    fn apply_batch(&mut self, ops: &[Op]) -> Vec<OpResult> {
        ops.iter().map(|op| self.apply(op)).collect()
    }
}
