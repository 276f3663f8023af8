//! The VoroNet overlay: object views, decentralised join/leave and the
//! bookkeeping behind them.
//!
//! This module is the executable form of Sections 3 and 4 of the paper:
//!
//! * each published object maintains its Voronoi neighbours `vn(o)` (derived
//!   from the shared Delaunay triangulation, exactly as each node's local
//!   view would be), its close neighbours `cn(o)` within `d_min`, its
//!   long-range links `LRn(o)` chosen by `Choose-LRT` (Algorithm 3) and the
//!   back-long-range pointers `BLRn(o)`;
//! * [`VoroNet::insert`] implements `AddObject`/`AddVoronoiRegion`
//!   (Algorithm 1): greedy routing to the region owner, insertion, close
//!   neighbour discovery through Lemma 1, back-long-range handover and
//!   long-link establishment (Algorithm 2);
//! * [`VoroNet::remove`] implements `RemoveVoronoiRegion`: neighbourhood
//!   notification and long-link delegation to the new region owners;
//! * every protocol message is counted in a [`TrafficStats`] so the
//!   maintenance-cost claims of Section 4.2 can be measured.
//!
//! Simulation note: the paper evaluates the protocol with a message-level
//! simulator; the metrics it reports (hops, view sizes, message counts)
//! depend only on the overlay state and the algorithms, which is what this
//! implementation reproduces.  The fictive-object dance of Algorithm 1
//! (inserting and immediately removing `z = DistanceToRegion(x)`) exists to
//! make the final ownership resolution purely local; its observable effect —
//! at most a constant number of extra local steps at the end of a route — is
//! folded into the plain greedy walk used here and documented in DESIGN.md.

use crate::arena::{Objects, RoutingRows};
use crate::config::VoroNetConfig;
use crate::error::{ErrorKind, VoronetError};
use crate::object::{BackLink, LinkIndex, LongLink, ObjectId, ObjectView, ViewRef};
use crate::snapshot::{ChangeLog, ChangeRecord, FrozenView, RouteScratch, TrafficDelta};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet_geom::{greedy_descent, greedy_next, InsertError, Point2, Triangulation, VertexId};
use voronet_sim::{MessageKind, TrafficStats};
use voronet_stats::IntHistogram;

/// Outcome of a greedy route (Section 3.2 / Algorithm 5).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    /// Object owning the Voronoi region of the target point.
    pub owner: ObjectId,
    /// Number of logical hops (forwarding steps) taken.
    pub hops: u32,
    /// The objects traversed, starting at the source and ending at the
    /// owner.
    pub path: Vec<ObjectId>,
}

/// Outcome of an object insertion (Algorithm 1 + Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// Identifier assigned to the new object.
    pub id: ObjectId,
    /// Hops of the greedy route that located the region owner.
    pub routing_hops: u32,
    /// Hops spent establishing the long-range links (Algorithm 2 routes).
    pub long_link_hops: u32,
    /// Total protocol messages generated by the insertion (routing included).
    pub messages: u64,
}

/// Outcome of an object departure (`RemoveVoronoiRegion`).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaveReport {
    /// Long-range links that had to be delegated to a neighbour.
    pub delegated_links: usize,
    /// Total protocol messages generated by the departure.
    pub messages: u64,
}

/// A fully decentralisable VoroNet overlay simulated in one address space.
/// Cloning snapshots the complete overlay state (tessellation, views, RNG).
#[derive(Clone)]
pub struct VoroNet {
    config: VoroNetConfig,
    tri: Triangulation,
    /// Per-object state in columns keyed by vertex (see [`Objects`]).
    objects: Objects,
    /// Each object's greedy candidates, keyed by its vertex: what the live
    /// walk reads (see [`VoroNet::route_to_point_in`]), and the only store
    /// of the close sets.
    rows: RoutingRows,
    /// Buffers of a join or a departure, kept for their capacity.
    work: WriteScratch,
    next_id: u64,
    rng: StdRng,
    traffic: TrafficStats,
    /// Snapshot epoch: bumped once per topology mutation (insert, remove,
    /// long-link refresh, close-neighbour prune).
    epoch: u64,
    /// Journal of recent mutations, enabling [`FrozenView::refresh`] to
    /// delta-patch instead of rebuilding.
    changes: ChangeLog,
    /// Route buffers of [`VoroNet::insert_from`] and
    /// [`VoroNet::route_to_point`], kept so a join's two routes run on warmed
    /// buffers (see [`VoroNet::with_scratch`]).
    scratch: RouteScratch,
    /// Joins since the vertices were last renumbered (see `renumber`).
    joins_since_renumber: usize,
}

/// The overlay renumbers its vertices along the Hilbert curve once the
/// joins since the last renumbering reach `1 / RENUMBER_FRACTION` of the
/// live count.  Only joins count: a join takes a fresh or recycled vertex
/// id anywhere in space, while a departure only leaves a hole.  Growth by
/// factors of 9/8 keeps the total work at ~9 vertex moves per object.
const RENUMBER_FRACTION: usize = 8;

/// Walks [`VoroNet::route_batch_in`] keeps in flight at once.
const LANES: usize = 8;

/// One walk in flight in [`VoroNet::route_batch_in`]: its job, where it
/// stands, its squared distance to the target, its hops so far and the
/// row of its vertex.
#[derive(Debug, Clone, Copy, Default)]
struct Lane<'a> {
    job: usize,
    target: Point2,
    at: VertexId,
    d: f64,
    hops: u32,
    row: &'a [VertexId],
}

/// The working buffers of [`VoroNet::insert`] and [`VoroNet::remove`]:
/// taken out for the call and put back empty, so they keep their capacity
/// and a clone of the overlay copies nothing.
#[derive(Debug, Clone, Default)]
struct WriteScratch {
    /// The joiner's or the departing object's Voronoi fan.
    fan: Vec<VertexId>,
    /// Close-set candidates of a join; the close set of a departure.
    near: Vec<VertexId>,
    /// Back links handed over to a joiner.
    taken: Vec<BackLink>,
}

impl WriteScratch {
    fn clear(&mut self) {
        self.fan.clear();
        self.near.clear();
        self.taken.clear();
    }
}

impl VoroNet {
    /// Creates an empty overlay.
    pub fn new(config: VoroNetConfig) -> Self {
        VoroNet {
            config,
            tri: Triangulation::new(config.domain),
            objects: Objects::new(config.long_links),
            rows: RoutingRows::default(),
            work: WriteScratch::default(),
            next_id: 0,
            rng: StdRng::seed_from_u64(config.seed),
            traffic: TrafficStats::new(),
            epoch: 0,
            changes: ChangeLog::default(),
            scratch: RouteScratch::new(),
            joins_since_renumber: 0,
        }
    }

    /// The overlay configuration.
    pub fn config(&self) -> &VoroNetConfig {
        &self.config
    }

    /// The close-neighbour radius in use.
    pub fn dmin(&self) -> f64 {
        self.config.dmin()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the overlay holds no object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` is a live object.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.vertex_of(id).is_some()
    }

    /// Coordinates of a live object.
    pub fn coords(&self, id: ObjectId) -> Option<Point2> {
        self.objects.vertex_of(id).map(|v| self.tri.point(v))
    }

    /// Iterator over live object ids (dense sampling order).
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.ids()
    }

    /// The id the next successful insertion will be assigned.  Ids are
    /// allocated monotonically and only consumed by *successful* joins, so
    /// an external reference model (e.g. the differential oracle in
    /// `voronet-testkit`) can predict every assigned id from this hook and
    /// the op sequence alone.
    pub fn next_object_id(&self) -> u64 {
        self.next_id
    }

    /// The `idx`-th live object in the overlay's internal dense order
    /// (`idx < len()`) — O(1) uniform sampling without collecting the ids.
    /// The order is deterministic for a given operation sequence but
    /// changes on removals (swap-remove).
    pub fn id_at(&self, idx: usize) -> Option<ObjectId> {
        self.objects.id_at(idx)
    }

    /// Accumulated protocol traffic since construction (or the last
    /// [`VoroNet::reset_traffic`]).
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Clears the traffic counters.
    pub fn reset_traffic(&mut self) {
        self.traffic.reset();
    }

    /// Read access to the underlying Delaunay triangulation (used by the
    /// range-query extension and by tests).
    pub fn triangulation(&self) -> &Triangulation {
        &self.tri
    }

    /// Triangulation vertex currently representing an object.
    pub fn vertex_of(&self, id: ObjectId) -> Option<VertexId> {
        self.objects.vertex_of(id)
    }

    /// Records `n` protocol messages of `kind` sent by a `&mut self`
    /// query built on top of the overlay (the segment-query flood of
    /// [`crate::queries`]).
    pub(crate) fn record_messages(&mut self, kind: MessageKind, n: u64) {
        self.traffic.add(kind, n);
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// The vertex of a live object, the one way an [`ObjectId`] from
    /// outside enters the overlay.
    fn vertex(&self, id: ObjectId) -> Result<VertexId, VoronetError> {
        self.objects
            .vertex_of(id)
            .ok_or_else(|| VoronetError::unknown(id))
    }

    /// The close set of the object at `v`, as vertices in ascending
    /// object-id order: the segment of its row between the fan and the
    /// long links.
    fn close(&self, v: VertexId) -> &[VertexId] {
        let tail = self.rows.parts(v).1;
        &tail[..tail.len() - self.objects.row_link_count(v)]
    }

    /// Collects the Voronoi neighbours `vn(o)` into `out` (cleared first) —
    /// allocation-free once `out` has warmed up.
    pub fn voronoi_neighbours_into(
        &self,
        id: ObjectId,
        out: &mut Vec<ObjectId>,
    ) -> Result<(), VoronetError> {
        let vr = self.view_ref(id)?;
        out.clear();
        out.extend(vr.voronoi_neighbours());
        Ok(())
    }

    /// Voronoi neighbours `vn(o)`.
    pub fn voronoi_neighbours(&self, id: ObjectId) -> Result<Vec<ObjectId>, VoronetError> {
        Ok(self.view_ref(id)?.voronoi_neighbours().collect())
    }

    /// Close neighbours `cn(o)` (objects within `d_min`).
    pub fn close_neighbours(&self, id: ObjectId) -> Result<Vec<ObjectId>, VoronetError> {
        Ok(self.view_ref(id)?.close_neighbours().collect())
    }

    /// Long-range links of an object, borrowed from the link column.
    pub fn long_links(&self, id: ObjectId) -> Result<&[LongLink], VoronetError> {
        Ok(self.objects.long(self.vertex(id)?))
    }

    /// Borrowed, zero-copy view of an object's state (Section 3.1) — the
    /// form every routing path consumes.
    pub fn view_ref(&self, id: ObjectId) -> Result<ViewRef<'_>, VoronetError> {
        let vertex = self.vertex(id)?;
        Ok(ViewRef {
            id,
            vertex,
            close: self.close(vertex),
            long: self.objects.long(vertex),
            back_long: self.objects.back(vertex),
            tri: &self.tri,
            objects: &self.objects,
        })
    }

    /// The complete view an object maintains (Section 3.1), materialised as
    /// an owned [`ObjectView`].  Use [`VoroNet::view_ref`] unless the view
    /// crosses a serialization or message boundary.
    pub fn view(&self, id: ObjectId) -> Result<ObjectView, VoronetError> {
        Ok(self.view_ref(id)?.to_view())
    }

    /// The object owning the Voronoi region containing `p` (ground truth,
    /// computed on the shared tessellation).
    pub fn owner_of(&self, p: Point2) -> Option<ObjectId> {
        self.tri
            .nearest_vertex(p)
            .and_then(|v| self.objects.object_at(v))
    }

    /// Histogram of Voronoi out-degrees `|vn(o)|` over all objects — the
    /// quantity plotted in Figure 5.
    pub fn degree_histogram(&self) -> IntHistogram {
        let mut h = IntHistogram::new();
        for v in self.objects.vertices() {
            h.record(self.tri.real_degree(v) as u64);
        }
        h
    }

    /// Histogram of total view sizes (`vn + cn + LRn + BLRn`), the O(1)
    /// memory claim of Section 4.1.
    pub fn view_size_histogram(&self) -> IntHistogram {
        let mut h = IntHistogram::new();
        for id in self.objects.ids() {
            if let Ok(v) = self.view_ref(id) {
                h.record(v.size() as u64);
            }
        }
        h
    }

    // ------------------------------------------------------------------
    // Routing rows
    // ------------------------------------------------------------------

    /// Redraws the fan part of the routing rows of `vertices` from the
    /// tessellation; their tails are kept.
    fn rewrite_fans(&mut self, vertices: impl IntoIterator<Item = VertexId>) {
        let tri = &self.tri;
        for v in vertices {
            self.rows
                .rewrite_fan(v, |row| row.extend(tri.real_neighbors_iter(v)));
        }
    }

    /// Enters `u` into the close set of the object at `v`, at its place in
    /// object-id order.
    fn add_close(&mut self, v: VertexId, u: VertexId) {
        let id = self.objects.object(u);
        let at = self
            .close(v)
            .partition_point(|&w| self.objects.object(w) < id);
        self.rows.splice_tail(v, at, 0, [u]);
    }

    /// Takes `u` out of the close set of the object at `v`.
    fn remove_close(&mut self, v: VertexId, u: VertexId) {
        let at = self
            .close(v)
            .iter()
            .position(|&w| w == u)
            .expect("close sets are symmetric");
        self.rows.splice_tail(v, at, 1, []);
    }

    /// Points link `link` of the object at `v` at the object at `to`, and
    /// patches the one row entry the link owns: a link back to the object
    /// itself has none.
    fn retarget(&mut self, v: VertexId, link: LinkIndex, to: VertexId) {
        let me = self.objects.object(v);
        let links = self.objects.long(v);
        let before = links[..link].iter().filter(|l| l.neighbour != me).count();
        let was_in_row = links[link].neighbour != me;
        let at = self.close(v).len() + before;
        self.rows
            .splice_tail(v, at, usize::from(was_in_row), (to != v).then_some(to));
        self.objects.set_neighbour(v, link, self.objects.object(to));
    }

    // ------------------------------------------------------------------
    // Greedy routing
    // ------------------------------------------------------------------

    /// The greedy walk itself (Section 3.2), on `&self`: forward to the
    /// neighbour closest to the target until no neighbour improves, which
    /// happens exactly at the owner of the target's region.  Every
    /// single-route entry point funnels through here;
    /// [`VoroNet::route_batch_in`] walks many at once by the same rule.
    ///
    /// The walk computes into the caller's [`RouteScratch`] (`scratch.path`
    /// cleared and refilled with the objects traversed, and the hop count
    /// *added* to `scratch.delta`'s `RouteForward` count once, when the
    /// walk ends) and touches no overlay state, so any number of routes can
    /// run concurrently over one shared overlay.  Apply the accumulated
    /// delta afterwards with [`VoroNet::apply_traffic`] to get counters
    /// bit-identical to the `&mut self` forms.  Allocation-free on
    /// warmed-up buffers.
    ///
    /// The walk runs in vertex space: one [`greedy_descent`] whose hop
    /// scans the object's routing row — its Voronoi fan, then its close
    /// neighbours, then its long links, as vertex ids — against the
    /// triangulation's point array.  A hop reads one row — one 64-byte slot
    /// at an address computed from the vertex id, unless the row is too
    /// long for it — and a few points; nothing is hashed and no triangle is
    /// walked, and only the objects the path names are read from the vertex
    /// → object column.  Joins and departures keep the rows current (see
    /// [`VoroNet::audit_invariants`]).
    pub fn route_to_point_in(
        &self,
        from: ObjectId,
        target: Point2,
        scratch: &mut RouteScratch,
    ) -> Result<(ObjectId, u32), VoronetError> {
        let RouteScratch { path, delta, .. } = scratch;
        path.clear();
        let start = self.vertex(from)?;
        path.push(from);
        let (_, hops) = greedy_descent(
            (start, self.tri.point(start)),
            target,
            |v| self.rows.of(v).iter().map(|&u| (u, self.tri.point(u))),
            |_, next| path.push(self.objects.object(next)),
        );
        delta.add(MessageKind::RouteForward, u64::from(hops));
        Ok((*path.last().expect("the path starts at the source"), hops))
    }

    /// Greedy route between two existing objects on `&self`; see
    /// [`VoroNet::route_to_point_in`].
    pub fn route_between_in(
        &self,
        from: ObjectId,
        to: ObjectId,
        scratch: &mut RouteScratch,
    ) -> Result<(ObjectId, u32), VoronetError> {
        let target = self.tri.point(self.vertex(to)?);
        let (owner, hops) = self.route_to_point_in(from, target, scratch)?;
        debug_assert_eq!(
            owner, to,
            "a route towards an existing object must terminate at that object"
        );
        Ok((owner, hops))
    }

    /// Greedy walks for a batch of `(from, target)` jobs, on `&self`: one
    /// result per job, in job order, each exactly what
    /// [`VoroNet::route_to_point_in`] returns for it.  The hop counts of
    /// the whole batch are added to `scratch.delta`'s `RouteForward` count
    /// once; a job whose source is not live fails with the single walk's
    /// error and adds nothing.  `scratch.path` is left alone.
    ///
    /// The walks run interleaved: up to eight are in flight, and each
    /// visit makes one hop of one walk, [`greedy_next`] over its row, then
    /// passes to the next walk round-robin.  A walk reads its next row's
    /// slot header as it moves, so that line's load is in flight while the
    /// other walks scan.  On a population whose rows outgrow the cache the
    /// single walk waits on one miss per load; the batch overlaps the misses
    /// of independent walks.  Allocation-free on a warmed-up scratch.
    pub fn route_batch_in<'s>(
        &self,
        jobs: &[(ObjectId, Point2)],
        scratch: &'s mut RouteScratch,
    ) -> impl ExactSizeIterator<Item = Result<(ObjectId, u32), VoronetError>> + 's {
        let RouteScratch { routed, delta, .. } = scratch;
        routed.clear();
        routed.resize(jobs.len(), Ok((ObjectId(0), 0)));
        let mut lanes = [Lane::default(); LANES];
        let (mut live, mut taken, mut hops) = (0, 0, 0u64);
        while live < LANES {
            let Some(lane) = self.next_lane(jobs, &mut taken, routed) else {
                break;
            };
            lanes[live] = lane;
            live += 1;
        }
        let mut i = 0;
        while live > 0 {
            let lane = &mut lanes[i];
            let (next, next_d) = greedy_next(
                lane.target,
                (lane.at, lane.d),
                lane.row.iter().map(|&u| (u, self.tri.point(u))),
            );
            if next != lane.at {
                *lane = Lane {
                    at: next,
                    d: next_d,
                    hops: lane.hops + 1,
                    row: self.rows.of(next),
                    ..*lane
                };
                i += 1;
            } else {
                routed[lane.job] = Ok((self.objects.object(lane.at), lane.hops));
                hops += u64::from(lane.hops);
                if let Some(fresh) = self.next_lane(jobs, &mut taken, routed) {
                    *lane = fresh;
                    i += 1;
                } else {
                    live -= 1;
                    lanes[i] = lanes[live];
                }
            }
            if i >= live {
                i = 0;
            }
        }
        delta.add(MessageKind::RouteForward, hops);
        routed.drain(..)
    }

    /// A walk for the first job from `*taken` on whose source is live;
    /// each job passed over gets its error in `routed`.
    fn next_lane(
        &self,
        jobs: &[(ObjectId, Point2)],
        taken: &mut usize,
        routed: &mut [Result<(ObjectId, u32), VoronetError>],
    ) -> Option<Lane<'_>> {
        while let Some(&(from, target)) = jobs.get(*taken) {
            let job = *taken;
            *taken += 1;
            match self.vertex(from) {
                Ok(at) => {
                    return Some(Lane {
                        job,
                        target,
                        at,
                        d: self.tri.point(at).distance2(target),
                        hops: 0,
                        row: self.rows.of(at),
                    })
                }
                Err(e) => routed[job] = Err(e),
            }
        }
        None
    }

    /// Adds a [`TrafficDelta`]'s counts to the overlay's counters: exactly
    /// the counts its messages would have produced had they been recorded
    /// inline.
    pub fn apply_traffic(&mut self, delta: &TrafficDelta) {
        self.traffic.merge(&delta.0);
    }

    /// Freezes the current routing topology into a [`FrozenView`] — the
    /// reference SoA/CSR snapshot, stamped with the current snapshot
    /// epoch.  After later mutations the view can be brought forward in
    /// O(affected neighbourhoods) with [`FrozenView::refresh`] instead of
    /// re-freezing.
    pub fn freeze(&self) -> FrozenView {
        FrozenView::new(self)
    }

    /// The snapshot epoch: incremented once per topology mutation, so a
    /// [`FrozenView`] whose [`FrozenView::epoch`] matches is exactly
    /// current.
    pub fn snapshot_epoch(&self) -> u64 {
        self.epoch
    }

    /// The journal of recent mutations backing [`FrozenView::refresh`].
    pub(crate) fn change_log(&self) -> &ChangeLog {
        &self.changes
    }

    /// The objects whose view (routing neighbours, Voronoi neighbours or
    /// cell) may differ from what it was at snapshot epoch `epoch`: every
    /// journalled mutation's neighbourhood plus each joiner, with repeats
    /// and since-departed ids left in.  `None` when the journal no longer
    /// reaches back to `epoch`; empty at the current epoch.
    pub fn touched_since(&self, epoch: u64) -> Option<impl Iterator<Item = ObjectId> + '_> {
        let records = self.changes.range(epoch, self.epoch)?;
        Some(records.flat_map(ChangeRecord::touched))
    }

    /// Bumps the snapshot epoch and journals the mutation's dirty set.
    fn log_change(&mut self, rec: ChangeRecord) {
        self.epoch += 1;
        self.changes.push(rec);
    }

    /// The walk with its traffic accounted inline, for the `&mut self`
    /// entry points: `scratch.delta` must be empty on entry and is empty
    /// again on return, `scratch.path` holds the traversal.
    fn route_counted(
        &mut self,
        from: ObjectId,
        target: Point2,
        scratch: &mut RouteScratch,
    ) -> Result<(ObjectId, u32), VoronetError> {
        debug_assert!(scratch.delta.is_empty());
        let routed = self.route_to_point_in(from, target, scratch);
        self.apply_traffic(&scratch.delta);
        scratch.delta.clear();
        routed
    }

    /// Runs `f` with the overlay's own route scratch, taken out for the
    /// call and put back with its capacity and an empty path — so a clone of
    /// the overlay starts with an empty scratch.
    fn with_scratch<R>(&mut self, f: impl FnOnce(&mut Self, &mut RouteScratch) -> R) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = f(self, &mut scratch);
        scratch.path.clear();
        self.scratch = scratch;
        out
    }

    /// Greedy routing from `from` towards an arbitrary target point
    /// (Section 3.2), counted in [`VoroNet::traffic`] and reporting the
    /// traversal.  Hot paths that route repeatedly should prefer the
    /// `&self` [`VoroNet::route_to_point_in`] over a reused scratch.
    pub fn route_to_point(
        &mut self,
        from: ObjectId,
        target: Point2,
    ) -> Result<RouteReport, VoronetError> {
        self.with_scratch(|net, scratch| {
            let (owner, hops) = net.route_counted(from, target, scratch)?;
            Ok(RouteReport {
                owner,
                hops,
                path: scratch.path.clone(),
            })
        })
    }

    /// Greedy route between two existing objects; the metric of Figures 6–8.
    pub fn route_between(
        &mut self,
        from: ObjectId,
        to: ObjectId,
    ) -> Result<RouteReport, VoronetError> {
        let target = self.tri.point(self.vertex(to)?);
        let report = self.route_to_point(from, target)?;
        debug_assert_eq!(
            report.owner, to,
            "a route towards an existing object must terminate at that object"
        );
        Ok(report)
    }

    /// Routes a point query issued by `from` and returns the owner
    /// (Algorithm 4, `HandlingQuery`): one extra message carries the answer
    /// back to the requester.
    pub fn handle_query(
        &mut self,
        from: ObjectId,
        query: Point2,
    ) -> Result<RouteReport, VoronetError> {
        let report = self.route_to_point(from, query)?;
        self.traffic.record(MessageKind::QueryAnswer);
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Long links (Algorithm 3 + Algorithm 2)
    // ------------------------------------------------------------------

    /// Draws a long-link target for an object at `from` (Algorithm 3):
    /// radius `e^a` with `a` uniform in `[ln d_min, ln √2]`, uniform angle.
    /// The target may fall outside the domain.
    fn choose_long_link_target(&mut self, from: Point2) -> Point2 {
        let lo = self.config.dmin().ln();
        let hi = self.config.max_link_radius().ln();
        let a = lo + self.rng.random::<f64>() * (hi - lo);
        let theta = 2.0 * std::f64::consts::PI * self.rng.random::<f64>();
        let r = a.exp();
        Point2::new(from.x + r * theta.cos(), from.y + r * theta.sin())
    }

    /// Aims long link `link` of the object at `v` at `target` and
    /// establishes it (Algorithm 2, `SearchLongLink` /
    /// `EstablishLongLink`).  Returns the number of routing hops spent.
    fn establish_long_link(
        &mut self,
        v: VertexId,
        link: LinkIndex,
        target: Point2,
        scratch: &mut RouteScratch,
    ) -> u32 {
        let id = self.objects.object(v);
        self.objects.set_target(v, link, target);
        let (neighbour, hops) = self
            .route_counted(id, target, scratch)
            .expect("the linking object is live");
        let owner = self.vertex_of(neighbour).expect("route owner is live");
        // The next link's route starts here and scans this one.
        self.retarget(v, link, owner);
        // Register the back pointer even when the owner is the object itself:
        // a later join stealing the target's region must be able to find and
        // take over the link through the usual back-long-range handover.
        self.objects.push_back(
            owner,
            BackLink {
                source: id,
                link,
                target,
            },
        );
        // EstablishLongLink notification + back-link registration.
        self.traffic.add(MessageKind::LongLink, 2);
        hops
    }

    // ------------------------------------------------------------------
    // Insertion (Algorithm 1)
    // ------------------------------------------------------------------

    /// Inserts an object, bootstrapping the join from a uniformly chosen
    /// existing object (any object "known" by the joining node, as the paper
    /// assumes).
    pub fn insert(&mut self, p: Point2) -> Result<JoinReport, VoronetError> {
        let bootstrap = self.draw_bootstrap();
        self.insert_from(p, bootstrap)
    }

    /// Draws a uniformly random live object from the overlay's own RNG — the
    /// bootstrap choice [`VoroNet::insert`] makes.  Returns `None` when the
    /// overlay is empty (the first object needs no bootstrap).
    fn draw_bootstrap(&mut self) -> Option<ObjectId> {
        if self.is_empty() {
            None
        } else {
            self.objects.id_at(self.rng.random_range(0..self.len()))
        }
    }

    /// Inserts an object, starting the owner search from `bootstrap`
    /// (`None` is only valid for the very first object).
    pub fn insert_from(
        &mut self,
        p: Point2,
        bootstrap: Option<ObjectId>,
    ) -> Result<JoinReport, VoronetError> {
        self.with_scratch(|net, scratch| net.join(p, bootstrap, scratch))
    }

    /// Algorithm 1; `scratch` serves the join route and the long-link
    /// routes.
    fn join(
        &mut self,
        p: Point2,
        bootstrap: Option<ObjectId>,
        scratch: &mut RouteScratch,
    ) -> Result<JoinReport, VoronetError> {
        // --- 1. locate the region owner by greedy routing ----------------
        let routed = bootstrap
            .map(|b| {
                self.route_counted(b, p, scratch)
                    .map_err(|_| VoronetError::new(ErrorKind::UnknownBootstrap(b)))
            })
            .transpose()?;
        let routing_hops = routed.map_or(0, |(_, hops)| hops);

        // --- 2. AddVoronoiRegion -----------------------------------------
        // The route ended at the owner of `p`'s region, so `p` lies in or
        // next to that owner's Delaunay fan: point location starts there
        // instead of walking O(√n) triangles from wherever the previous
        // join happened.  The start only shortens the walk — the located
        // triangle, hence the resulting triangulation, is the same.
        let inserted = match routed.and_then(|(owner, _)| self.vertex_of(owner)) {
            Some(near) => self.tri.insert_near(p, near),
            None => self.tri.insert(p),
        };
        let vertex = match inserted {
            Ok(v) => v,
            Err(InsertError::Duplicate(v)) => {
                let existing = self.objects.object(v);
                return Err(VoronetError::new(ErrorKind::DuplicatePosition(existing)));
            }
            Err(InsertError::OutsideDomain) => {
                return Err(VoronetError::new(ErrorKind::OutsideDomain))
            }
            Err(InsertError::NotFinite) => return Err(VoronetError::new(ErrorKind::NotFinite)),
        };
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        self.objects.add(id, vertex, p);
        let mut messages = routing_hops as u64;
        let mut work = std::mem::take(&mut self.work);

        work.fan.extend(self.tri.real_neighbors_iter(vertex));
        // Change-log dirty set: every node whose routing adjacency this
        // join touches.  The Delaunay fan changes are confined to the new
        // vertex's Voronoi neighbours; close links and back-long handover
        // add the nodes collected below.
        let mut dirty: Vec<ObjectId> = work.fan.iter().map(|&u| self.objects.object(u)).collect();
        // The owner sends every (old and new) neighbour its updated region.
        self.traffic
            .add(MessageKind::VoronoiUpdate, dirty.len() as u64);
        messages += dirty.len() as u64;

        // --- 3. close neighbours (Lemma 1) --------------------------------
        // Each Voronoi neighbour reports itself and its close set; every
        // candidate within `d_min` and the joiner enter each other's close
        // set, in ascending id order.
        let dmin = self.config.dmin();
        work.near.extend_from_slice(&work.fan);
        for &u in &work.fan {
            work.near.extend_from_slice(self.close(u));
        }
        let reports = work.fan.len() as u64;
        self.traffic
            .add(MessageKind::CloseNeighbourExchange, reports);
        messages += reports;
        work.near.sort_unstable_by_key(|&u| self.objects.object(u));
        work.near.dedup();
        for &u in &work.near {
            if self.tri.point(u).distance(p) <= dmin {
                self.add_close(u, vertex);
                self.add_close(vertex, u);
                // p declares itself to its new close neighbour.
                self.traffic.record(MessageKind::CloseNeighbourExchange);
                messages += 1;
                dirty.push(self.objects.object(u));
            }
        }

        // --- 4. back-long-range handover -----------------------------------
        // Every Voronoi neighbour u hands over the back links whose target is
        // now closer to p than to u (i.e. whose target p now owns).
        for &u in &work.fan {
            let pu = self.tri.point(u);
            self.objects.hand_over(
                u,
                |bl| bl.target.distance2(p) < bl.target.distance2(pu),
                &mut work.taken,
            );
        }
        for &bl in &work.taken {
            // Notify the link source of its new long-range neighbour.
            let source = self
                .objects
                .vertex_of(bl.source)
                .expect("back links name live sources");
            self.retarget(source, bl.link, vertex);
            dirty.push(bl.source);
            self.objects.push_back(vertex, bl);
            self.traffic.record(MessageKind::LongLink);
            messages += 1;
        }

        // The long-link routes below start at the joiner and cross the fans
        // it re-knit, so those are redrawn first; the tails are patched.
        self.rewrite_fans(work.fan.iter().copied().chain([vertex]));
        work.clear();
        self.work = work;

        // --- 5. long links (Algorithm 3 + Algorithm 2) ---------------------
        let mut long_link_hops = 0u32;
        for link in 0..self.config.long_links {
            let target = self.choose_long_link_target(p);
            let hops = self.establish_long_link(vertex, link, target, scratch);
            long_link_hops += hops;
            messages += hops as u64 + 2;
        }

        self.log_change(ChangeRecord::Insert {
            id,
            x: p.x,
            y: p.y,
            dirty,
        });
        self.joins_since_renumber += 1;
        if self.joins_since_renumber * RENUMBER_FRACTION >= self.len() {
            self.renumber();
        }

        Ok(JoinReport {
            id,
            routing_hops,
            long_link_hops,
            messages,
        })
    }

    /// Renumbers the triangulation's vertices along its Hilbert curve (see
    /// [`Triangulation::renumber`]) and moves the vertex-keyed state with
    /// them: every object column and the routing rows.  A greedy hop then
    /// reads rows and points stored next to the previous hop's, and a write
    /// patches the state of neighbours stored next to each other.
    ///
    /// It changes no view, so it neither bumps the snapshot epoch nor
    /// journals anything: rows keep their scan order (fans start at the
    /// same triangle, tails follow object ids), hence every tie-break,
    /// route, report and message count is what it would have been.
    fn renumber(&mut self) {
        let map = self.tri.renumber();
        self.objects.renumber(&map);
        self.rows.renumber(&map);
        self.joins_since_renumber = 0;
    }

    // ------------------------------------------------------------------
    // Removal (RemoveVoronoiRegion)
    // ------------------------------------------------------------------

    /// Removes an object from the overlay, delegating its responsibilities
    /// to its Voronoi neighbours.
    pub fn remove(&mut self, id: ObjectId) -> Result<LeaveReport, VoronetError> {
        let v = self.vertex(id)?;
        self.objects.unlist(v);
        let mut messages = 0u64;
        let mut work = std::mem::take(&mut self.work);

        // Voronoi neighbours receive the recomputed boundaries.
        work.fan.extend(self.tri.real_neighbors_iter(v));
        self.traffic
            .add(MessageKind::VoronoiUpdate, work.fan.len() as u64);
        messages += work.fan.len() as u64;
        // Change-log dirty set: the Voronoi fan re-knits among vn, close
        // links drop on the close neighbours, and delegated long links
        // retarget at their sources (collected below).  Back-long-pointer
        // moves alone don't enter any adjacency row.
        work.near.extend_from_slice(self.close(v));
        let mut dirty: Vec<ObjectId> = (work.fan.iter().chain(&work.near))
            .map(|&u| self.objects.object(u))
            .collect();

        // Close neighbours are told about the departure.
        for &u in &work.near {
            self.remove_close(u, v);
            self.traffic.record(MessageKind::Departure);
            messages += 1;
        }

        // Forward long links: unregister our back pointers at their targets,
        // each in O(1) at the position the link recorded.
        for link in 0..self.config.long_links {
            let neighbour = self.objects.long(v)[link].neighbour;
            if neighbour == id {
                continue;
            }
            let at = self
                .objects
                .vertex_of(neighbour)
                .expect("long links name live objects");
            self.objects.unregister(v, link, at);
            self.traffic.record(MessageKind::LongLink);
            messages += 1;
        }

        // Back-long-range delegation: each link whose target we owned is
        // handed to the Voronoi neighbour now owning the target (the
        // neighbour closest to the target point).
        let mut delegated = 0usize;
        for bl in self.objects.take_back(v) {
            if bl.source == id {
                continue;
            }
            let new_owner = work
                .fan
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da = self.tri.point(a).distance2(bl.target);
                    da.partial_cmp(&self.tri.point(b).distance2(bl.target))
                        .expect("distances are finite")
                })
                .or_else(|| self.objects.ids().next().and_then(|o| self.vertex_of(o)));
            let Some(new_owner) = new_owner else { continue };
            let source = self
                .objects
                .vertex_of(bl.source)
                .expect("back links name live sources");
            self.retarget(source, bl.link, new_owner);
            dirty.push(bl.source);
            self.objects.push_back(new_owner, bl);
            delegated += 1;
            self.traffic.add(MessageKind::LongLink, 2);
            messages += 2;
        }

        // Finally drop the Voronoi region and free the vertex.
        self.tri
            .remove(v)
            .expect("object vertices are always removable");
        self.rows.clear(v);
        self.objects.forget(v);
        self.rewrite_fans(work.fan.iter().copied());
        work.clear();
        self.work = work;

        self.log_change(ChangeRecord::Remove { id, dirty });

        Ok(LeaveReport {
            delegated_links: delegated,
            messages,
        })
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests, examples, debugging)
    // ------------------------------------------------------------------

    /// Verifies the structural invariants of the overlay:
    ///
    /// * object/vertex cross-references are consistent;
    /// * every object's routing row equals, order included, the row rebuilt
    ///   from the tessellation, the close set recomputed from the points
    ///   (the objects within `d_min`, ascending ids — found on a grid, or
    ///   against every object when `exhaustive` is set, O(n²)) and its long
    ///   links, and no vertex without an object has a row;
    /// * every long-range link points to the object owning its target, and
    ///   its recorded back position holds its back pointer;
    /// * every back-long-range pointer mirrors a forward link recording
    ///   its position.
    ///
    /// Violations are reported as [`VoronetError`] with kind
    /// [`crate::ErrorKind::InvariantViolation`]; the diagnostic is in the
    /// error's context string.
    pub fn check_invariants(&self, exhaustive: bool) -> Result<(), VoronetError> {
        self.audit_invariants(exhaustive).map(|_| ())
    }

    /// Like [`VoroNet::check_invariants`], but reports *how much* was
    /// checked: an [`InvariantAudit`] counting the nodes, links and pairs
    /// the audit actually visited.  Differential test harnesses use the
    /// counts to assert the audit was not vacuous (e.g. `nodes` must equal
    /// the live population) instead of trusting a bare `Ok(())`.
    pub fn audit_invariants(&self, exhaustive: bool) -> Result<InvariantAudit, VoronetError> {
        self.check_invariants_impl(exhaustive)
            .map_err(VoronetError::invariant)
    }

    fn check_invariants_impl(&self, exhaustive: bool) -> Result<InvariantAudit, String> {
        let mut audit = InvariantAudit::default();
        let dmin = self.config.dmin();
        // One cell holding every object makes the referee exhaustive.
        let side = if exhaustive { f64::INFINITY } else { dmin };
        let grid = CloseGrid::new(&self.tri, self.objects.vertices(), side);
        let (mut fan, mut tail) = (Vec::new(), Vec::new());
        for id in self.objects.ids() {
            audit.nodes += 1;
            let v = self
                .objects
                .vertex_of(id)
                .filter(|&v| self.objects.object_at(v) == Some(id));
            let v = v.ok_or_else(|| format!("vertex map for {id} is inconsistent"))?;
            for (link, l) in self.objects.long(v).iter().enumerate() {
                audit.long_links += 1;
                let at = self
                    .objects
                    .vertex_of(l.neighbour)
                    .ok_or_else(|| format!("{id} long link {link} points to a dead object"))?;
                let owner = self
                    .tri
                    .nearest_vertex(l.target)
                    .ok_or_else(|| "owner query on a non-empty overlay failed".to_string())?;
                let d_owner = self.tri.point(owner).distance2(l.target);
                if self.tri.point(at).distance2(l.target) > d_owner + 1e-12 {
                    return Err(format!(
                        "{id} long link {link} points to {} but {} owns the target",
                        l.neighbour,
                        self.objects.object(owner)
                    ));
                }
                let pos = self.objects.back_pos(v, link);
                match self.objects.back(at).get(pos) {
                    Some(bl) if bl.source == id && bl.link == link => {}
                    _ => {
                        return Err(format!(
                            "{id} long link {link} has no back pointer at {pos}"
                        ))
                    }
                }
            }
            for (pos, bl) in self.objects.back(v).iter().enumerate() {
                audit.back_links += 1;
                let mirrored = self.objects.vertex_of(bl.source).is_some_and(|source| {
                    self.objects.long(source)[bl.link].neighbour == id
                        && self.objects.back_pos(source, bl.link) == pos
                });
                if !mirrored {
                    return Err(format!(
                        "back link {pos} at {id} does not mirror link {} of {}",
                        bl.link, bl.source
                    ));
                }
            }
            // The row against its rebuild: the fan from the tessellation,
            // the close set recomputed from the points, the link column.
            fan.clear();
            fan.extend(self.tri.real_neighbors_iter(v));
            tail.clear();
            let tested = grid.close_to(&self.tri, v, dmin, &mut tail);
            audit.pairs += if exhaustive { tested } else { 0 };
            audit.close_links += tail.len();
            tail.sort_unstable_by_key(|&u| self.objects.object(u));
            tail.extend(self.objects.row_links(v));
            let stored = self.rows.parts(v);
            if stored != (&fan[..], &tail[..]) {
                return Err(format!(
                    "routing row of {id} is stale: {stored:?}, rebuilt {:?}",
                    (&fan, &tail)
                ));
            }
            audit.rows += 1;
            audit.longest_row = audit.longest_row.max(fan.len() + tail.len());
        }
        if self.objects.vertices().count() != audit.nodes {
            return Err("the vertex → object column names departed objects".to_string());
        }
        if let Some(v) = self
            .rows
            .non_empty()
            .find(|&v| self.objects.object_at(v).is_none())
        {
            return Err(format!("vertex {v} holds no object but has a routing row"));
        }
        Ok(audit)
    }
}

/// The audit's referee for close sets: every object's vertex bucketed by
/// the grid cell holding its point, cells of side `d_min`, so the objects
/// within `d_min` of a point lie in its cell and the eight around it.
/// Built from the points alone, it recomputes each close set in
/// O(|cn| + log n) without reading the rows it checks.
struct CloseGrid {
    side: f64,
    /// `(cell, vertex)`, sorted: a column of three cells is one run.
    cells: Vec<((i64, i64), VertexId)>,
}

impl CloseGrid {
    fn new(tri: &Triangulation, vertices: impl Iterator<Item = VertexId>, side: f64) -> Self {
        // A hair wider than `d_min`, so rounding never puts two points
        // within `d_min` of each other two cells apart.
        let mut grid = CloseGrid {
            side: side * (1.0 + 1e-6),
            cells: Vec::new(),
        };
        grid.cells = vertices.map(|v| (grid.cell(tri.point(v)), v)).collect();
        grid.cells.sort_unstable();
        grid
    }

    fn cell(&self, p: Point2) -> (i64, i64) {
        let at = |c: f64| (c / self.side).floor() as i64;
        (at(p.x), at(p.y))
    }

    /// Appends every vertex other than `v` whose point lies within `dmin`
    /// of `v`'s, in no particular order; returns how many it tested.
    fn close_to(
        &self,
        tri: &Triangulation,
        v: VertexId,
        dmin: f64,
        out: &mut Vec<VertexId>,
    ) -> usize {
        let p = tri.point(v);
        let (cx, cy) = self.cell(p);
        let mut tested = 0;
        for x in cx - 1..=cx + 1 {
            let lo = self.cells.partition_point(|&(c, _)| c < (x, cy - 1));
            let hi = self.cells.partition_point(|&(c, _)| c <= (x, cy + 1));
            tested += hi - lo;
            let near = self.cells[lo..hi].iter().map(|&(_, u)| u);
            out.extend(near.filter(|&u| u != v && tri.point(u).distance(p) <= dmin));
        }
        tested
    }
}

/// How much work an invariant audit performed (see
/// [`VoroNet::audit_invariants`]).  All counters are numbers of checks
/// actually executed, so a harness can assert an audit covered the whole
/// overlay rather than silently checking nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantAudit {
    /// Live nodes visited (vertex map + view-size checks).
    pub nodes: usize,
    /// Close-neighbour links recomputed from the points and found in the
    /// rows.
    pub close_links: usize,
    /// Long-range links verified (liveness, target ownership, back
    /// pointer).
    pub long_links: usize,
    /// Back-long-range pointers verified against their forward link.
    pub back_links: usize,
    /// Routing rows rebuilt from the tessellation, the points and the
    /// long links and found equal, order included, to the stored row.
    pub rows: usize,
    /// Ordered object pairs tested by the exhaustive O(n²) close-set
    /// reconstruction (0 when `exhaustive` was not requested).
    pub pairs: usize,
    /// Entries of the longest routing row compared.
    pub longest_row: usize,
}

impl std::fmt::Debug for VoroNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoroNet")
            .field("objects", &self.len())
            .field("nmax", &self.config.nmax)
            .field("long_links", &self.config.long_links)
            .finish()
    }
}

/// Builds an overlay of `n` objects drawn from `dist`, re-drawing duplicate
/// positions: the populated overlay the other modules' tests start from
/// (the same points as `voronet-bench`'s `build_overlay`).
#[cfg(test)]
pub(crate) fn build_overlay(
    dist: voronet_workloads::Distribution,
    n: usize,
    config: VoroNetConfig,
) -> (VoroNet, Vec<ObjectId>) {
    let mut net = VoroNet::new(config);
    let mut generator = voronet_workloads::PointGenerator::with_domain(
        dist,
        config.seed ^ 0x9E3779B9,
        config.domain,
    );
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        match net.insert(generator.next_point()) {
            Ok(report) => ids.push(report.id),
            Err(e) if matches!(e.kind(), ErrorKind::DuplicatePosition(_)) => continue,
            Err(e) => panic!("unexpected join failure while building workload: {e}"),
        }
    }
    (net, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VoroNetConfig;
    use crate::snapshot::ViewRefresh;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use voronet_workloads::{Distribution, PointGenerator};

    fn build_random(n: usize, k: usize, seed: u64) -> (VoroNet, Vec<ObjectId>) {
        let cfg = VoroNetConfig::new(n.max(2))
            .with_long_links(k)
            .with_seed(seed);
        let mut net = VoroNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut ids = Vec::new();
        while ids.len() < n {
            let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            match net.insert(p) {
                Ok(r) => ids.push(r.id),
                Err(e) if matches!(e.kind(), ErrorKind::DuplicatePosition(_)) => continue,
                Err(e) => panic!("unexpected join error: {e}"),
            }
        }
        (net, ids)
    }

    #[test]
    fn empty_overlay() {
        let net = VoroNet::new(VoroNetConfig::new(100));
        assert!(net.is_empty());
        assert_eq!(net.len(), 0);
        assert_eq!(net.owner_of(Point2::new(0.5, 0.5)), None);
    }

    #[test]
    fn first_insertion_needs_no_bootstrap() {
        let mut net = VoroNet::new(VoroNetConfig::new(10));
        let r = net.insert(Point2::new(0.5, 0.5)).unwrap();
        assert_eq!(r.routing_hops, 0);
        assert_eq!(net.len(), 1);
        let view = net.view(r.id).unwrap();
        assert!(view.voronoi_neighbours.is_empty());
        assert_eq!(view.long_links.len(), 1);
        assert_eq!(view.long_links[0].neighbour, r.id);
        net.check_invariants(true).unwrap();
    }

    #[test]
    fn insertion_errors() {
        let mut net = VoroNet::new(VoroNetConfig::new(10));
        let a = net.insert(Point2::new(0.25, 0.25)).unwrap().id;
        let kind = |r: Result<JoinReport, VoronetError>| r.unwrap_err().kind().clone();
        assert_eq!(
            kind(net.insert(Point2::new(0.25, 0.25))),
            ErrorKind::DuplicatePosition(a)
        );
        assert_eq!(
            kind(net.insert(Point2::new(2.0, 0.0))),
            ErrorKind::OutsideDomain
        );
        assert_eq!(
            kind(net.insert(Point2::new(f64::NAN, 0.0))),
            ErrorKind::NotFinite
        );
        assert_eq!(
            kind(net.insert_from(Point2::new(0.1, 0.1), Some(ObjectId(999)))),
            ErrorKind::UnknownBootstrap(ObjectId(999))
        );
    }

    /// The bootstrap decides where the region insertion starts its walk,
    /// and nothing else: from every object of a 300-object overlay the same
    /// join yields the same id, the same view of the joiner (fan order
    /// included), the same views around it and the same audit — and the
    /// same errors, `DuplicatePosition` naming the same object.
    #[test]
    fn a_join_does_not_depend_on_its_bootstrap() {
        let (net, ids) = build_random(300, 2, 5);
        let p = Point2::new(0.4321, 0.567);
        let taken = net.coords(ids[17]).unwrap();
        let kind = |r: Result<JoinReport, VoronetError>| r.unwrap_err().kind().clone();
        let mut reference = None;
        for &b in &ids {
            let mut joined = net.clone();
            assert_eq!(
                kind(joined.insert_from(taken, Some(b))),
                ErrorKind::DuplicatePosition(ids[17])
            );
            assert_eq!(
                kind(joined.insert_from(Point2::new(0.5, -0.5), Some(b))),
                ErrorKind::OutsideDomain
            );
            assert_eq!(
                kind(joined.insert_from(Point2::new(0.5, f64::INFINITY), Some(b))),
                ErrorKind::NotFinite
            );
            let id = joined.insert_from(p, Some(b)).unwrap().id;
            let views: Vec<ObjectView> = std::iter::once(id)
                .chain(joined.voronoi_neighbours(id).unwrap())
                .map(|o| joined.view(o).unwrap())
                .collect();
            let outcome = (id, views, joined.audit_invariants(true).unwrap());
            assert_eq!(reference.get_or_insert_with(|| outcome.clone()), &outcome);
        }
    }

    /// `Triangulation::locate_steps` after each of `n` joins of `dist`
    /// points: the join's region insertion is the only walk a join makes.
    fn steps_while_joining(dist: Distribution, n: usize) -> Vec<u64> {
        let mut net = VoroNet::new(VoroNetConfig::new(n).with_seed(7));
        let mut points = PointGenerator::new(dist, 2007);
        (0..n)
            .map(|_| {
                let _ = net.insert(points.next_point());
                net.triangulation().locate_steps()
            })
            .collect()
    }

    fn steps_per_join(steps: &[u64], from: usize, to: usize) -> f64 {
        (steps[to - 1] - steps[from - 1]) as f64 / (to - from) as f64
    }

    /// A join locates its point once: the route finds the owner and the
    /// region insertion walks on from there — a few triangles, where a walk
    /// from wherever the previous join happened crosses ~60 at this size.
    #[test]
    fn join_locates_once() {
        let steps = steps_while_joining(Distribution::Uniform, 3_000);
        let late = steps_per_join(&steps, 2_000, 3_000);
        assert!(late <= 6.0, "{late:.2} triangles walked per join");
    }

    /// The release-size case (CI's net smoke step runs it): the walk does
    /// not grow with the population, uniform or skewed.
    #[test]
    #[ignore = "release-size: cargo test --release -p voronet-core -- --ignored join_locates_once"]
    fn join_locates_once_from_2k_to_50k() {
        for dist in [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }] {
            let steps = steps_while_joining(dist, 50_000);
            let small = steps_per_join(&steps, 2_000, 5_000);
            let large = steps_per_join(&steps, 45_000, 50_000);
            println!("{dist:?}: {small:.2} triangles per join at 2k-5k, {large:.2} at 45k-50k");
            assert!(
                large <= 1.25 * small,
                "{dist:?}: {large:.2} triangles per join at 50k against {small:.2} at 2k-5k"
            );
        }
    }

    /// The paper-scale gate (CI's net smoke step runs it): after a 50 000
    /// object `PowerLaw{5}` build, one hull object holds thousands of back
    /// links (`Choose-LRT` aims about half of all links outside the unit
    /// square); after 20 000 joins and departures every routing row equals
    /// its rebuild, every long link still has exactly one back pointer, and
    /// 2 000 live walks to random points end at the owner a linear scan
    /// picks.
    #[test]
    #[ignore = "release-size: cargo test --release -p voronet-core -- --ignored rows_hold_at_paper_scale"]
    fn rows_hold_at_paper_scale() {
        let n = 50_000;
        let mut net = VoroNet::new(VoroNetConfig::new(n).with_seed(2007));
        let mut points = PointGenerator::new(Distribution::PowerLaw { alpha: 5.0 }, 2007);
        let mut live = Vec::with_capacity(n);
        while live.len() < n {
            live.extend(net.insert(points.next_point()).map(|r| r.id));
        }
        let hub = (net.objects.vertices())
            .map(|v| net.objects.back(v).len())
            .max()
            .unwrap();
        println!("largest back-link list after the build: {hub} links");
        assert!(hub >= 5_000, "largest back-link list {hub}");
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20_000 {
            if rng.random::<bool>() {
                live.extend(net.insert(points.next_point()).map(|r| r.id));
            } else {
                let id = live.swap_remove(rng.random_range(0..live.len()));
                net.remove(id).unwrap();
            }
        }
        let audit = net.audit_invariants(false).unwrap();
        assert_eq!((audit.nodes, audit.rows), (net.len(), net.len()));
        assert_eq!(audit.long_links, net.len() * net.config().long_links);
        assert_eq!(audit.back_links, audit.long_links);
        println!(
            "{} back links for {} live long links after the churn",
            audit.back_links, audit.long_links
        );

        // Greedy routing is exact: each walk ends at the object a linear
        // scan ranks first by `(distance², id)`.
        let placed: Vec<(ObjectId, Point2)> = (live.iter())
            .map(|&id| (id, net.coords(id).unwrap()))
            .collect();
        let mut scratch = RouteScratch::new();
        let mut hops = 0;
        for _ in 0..2_000 {
            let from = live[rng.random_range(0..live.len())];
            let target = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            let (owner, walked) = net.route_to_point_in(from, target, &mut scratch).unwrap();
            let (_, nearest) = (placed.iter())
                .map(|&(id, at)| (at.distance2(target), id))
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap();
            assert_eq!(owner, nearest, "{from} to {target:?}");
            hops += walked;
        }
        assert_eq!(
            scratch.delta.len(),
            hops as usize,
            "one RouteForward per hop"
        );
        println!("{} rows audited, {hops} hops to exact owners", audit.rows);
    }

    /// `count` jobs on `net`: a live source each, and a target that is a
    /// live object's point, a point of `[-0.25, 1.25]²` or, one job in
    /// fifty, `NaN`.
    fn route_jobs(net: &VoroNet, count: usize, seed: u64) -> Vec<(ObjectId, Point2)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<ObjectId> = net.ids().collect();
        (0..count)
            .map(|_| {
                let from = ids[rng.random_range(0..ids.len())];
                let target = match rng.random_range(0..50u32) {
                    0 => Point2::new(f64::NAN, 0.5),
                    1..=24 => net.coords(ids[rng.random_range(0..ids.len())]).unwrap(),
                    _ => Point2::new(rng.random_range(-0.25..1.25), rng.random_range(-0.25..1.25)),
                };
                (from, target)
            })
            .collect()
    }

    /// Walks `jobs` as one batch and one at a time: the same result per
    /// job, in job order, and the same message counts.  Returns the hops.
    fn batch_walks_like_single_walks(net: &VoroNet, jobs: &[(ObjectId, Point2)]) -> u64 {
        let (mut batch, mut single) = (RouteScratch::new(), RouteScratch::new());
        let batched: Vec<_> = net.route_batch_in(jobs, &mut batch).collect();
        assert_eq!(batched.len(), jobs.len());
        let mut hops = 0;
        for (&(from, target), got) in jobs.iter().zip(&batched) {
            let walked = net.route_to_point_in(from, target, &mut single);
            assert_eq!(got, &walked, "{from} towards {target}");
            hops += walked.map_or(0, |(_, h)| u64::from(h));
        }
        assert_eq!(batch.delta, single.delta);
        hops
    }

    /// A batch of walks returns what the single walks return, job by job:
    /// batches shorter and longer than the lanes, departed sources, `NaN`
    /// and far targets, the empty batch.
    #[test]
    fn batched_walks_equal_single_walks() {
        let (mut net, ids) = build_random(600, 2, 17);
        for &gone in &ids[..40] {
            net.remove(gone).unwrap();
        }
        let mut jobs = route_jobs(&net, 2_000, 5);
        for (i, &gone) in ids[..40].iter().enumerate() {
            jobs[i * 37].0 = gone;
        }
        let mut hops = 0;
        let mut rest = &jobs[..];
        for len in (0..).map(|i: usize| [0, 1, 3, LANES, LANES + 1, 97][i % 6]) {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(len.min(rest.len()));
            hops += batch_walks_like_single_walks(&net, batch);
            rest = tail;
        }
        assert!(hops > 10_000, "{hops} hops");
    }

    /// The release-size case (CI's net smoke step runs it), a count and not
    /// a timing: on 50 000 uniform and `PowerLaw{5}` objects, 20 000 walks
    /// in one batch end where the single walks end, after as many hops.
    #[test]
    #[ignore = "release-size: cargo test --release -p voronet-core -- --ignored batched_walks_equal_single_walks_at_50k"]
    fn batched_walks_equal_single_walks_at_50k() {
        let n = 50_000;
        for dist in [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }] {
            let mut net = VoroNet::new(VoroNetConfig::new(n).with_seed(2007));
            let mut points = PointGenerator::new(dist, 2007);
            while net.len() < n {
                let _ = net.insert(points.next_point());
            }
            let hops = batch_walks_like_single_walks(&net, &route_jobs(&net, 20_000, 2007));
            println!("{dist:?}: 20 000 batched walks equal the single walks, {hops} hops");
        }
    }

    /// The median of `|u − v|` over every fan entry `u` of every object's
    /// routing row, `v` the object's own vertex: how far apart in memory a
    /// Voronoi hop's two rows sit.
    fn median_fan_gap(net: &VoroNet) -> u32 {
        let mut gaps: Vec<u32> = (net.objects.vertices())
            .flat_map(|v| net.rows.parts(v).0.iter().map(move |&u| u.abs_diff(v)))
            .collect();
        let mid = gaps.len() / 2;
        *gaps.select_nth_unstable(mid).1
    }

    /// The layout gate (CI's net smoke step runs it), a count rather than a
    /// timing: after a 50 000-object build, uniform and `PowerLaw{5}`, a
    /// Voronoi hop's two rows are at most 1 % of the population apart in
    /// the median, and fewer than an eighth of the objects joined since the
    /// last renumbering.  In insertion order the median gap is about a
    /// third of the population.  The number of rows too long for their
    /// slot is pinned: one uniform row, and the hub-heavy skewed rows.
    #[test]
    #[ignore = "release-size: cargo test --release -p voronet-core -- --ignored vertex_ids_follow_the_curve"]
    fn vertex_ids_follow_the_curve_at_paper_scale() {
        let n = 50_000;
        for (dist, spilled) in [
            (Distribution::Uniform, 1),
            (Distribution::PowerLaw { alpha: 5.0 }, 8_434),
        ] {
            let mut net = VoroNet::new(VoroNetConfig::new(n).with_seed(2007));
            let mut points = PointGenerator::new(dist, 2007);
            while net.len() < n {
                let _ = net.insert(points.next_point());
            }
            let gap = median_fan_gap(&net);
            println!(
                "{dist:?}: median fan gap {gap}, {} joins since the last renumbering, \
                 {} rows spilled",
                net.joins_since_renumber,
                net.rows.spilled()
            );
            assert!(gap as usize * 100 <= n, "{dist:?}: median fan gap {gap}");
            assert!(net.joins_since_renumber * RENUMBER_FRACTION < net.len());
            assert_eq!(net.rows.spilled(), spilled, "{dist:?}: rows spilled");
        }
    }

    /// The overlay renumbers as it grows, from its first join on, and the
    /// audit holds across it.
    #[test]
    fn growth_renumbers() {
        let (net, _) = build_random(1_000, 1, 3);
        assert!(net.joins_since_renumber * RENUMBER_FRACTION < net.len());
        assert!(median_fan_gap(&net) <= 20, "{}", median_fan_gap(&net));
        net.check_invariants(false).unwrap();
        net.triangulation().validate().unwrap();
    }

    /// One step of [`renumbering_changes_no_result`]; indices pick a point
    /// of the pool, a live object or a tie target, modulo their count.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Join(usize),
        Leave(usize),
        Route(usize, usize),
        Query(usize, usize),
        /// Renumbers the second overlay only.
        Renumber,
    }

    fn steps(rng: &mut StdRng, len: usize) -> Vec<Step> {
        (0..len)
            .map(|_| {
                let (i, j) = (
                    rng.random_range(0..usize::MAX),
                    rng.random_range(0..usize::MAX),
                );
                match rng.random_range(0..37u32) {
                    0..=15 => Step::Join(i),
                    16..=21 => Step::Leave(i),
                    22..=26 => Step::Route(i, j),
                    27..=31 => Step::Query(i, j),
                    _ => Step::Renumber,
                }
            })
            .collect()
    }

    /// The point pools of [`renumbering_changes_no_result`]: uniform
    /// floats, and the degenerate families of the triangulation's property
    /// tests — duplicates on a coarse lattice, an exact grid, an exact ring,
    /// collinear rows filled in from their ends, and points exactly on
    /// existing edges.
    fn degenerate_pools() -> Vec<(&'static str, Vec<Point2>)> {
        let mut rng = StdRng::seed_from_u64(0x9001);
        let lattice = (0..100)
            .map(|_| {
                let mut k = || rng.random_range(0..16u32) as f64 / 16.0;
                Point2::new(k(), k())
            })
            .collect();
        let sixteenths = [0, 16, 8, 4, 12, 8, 2, 6, 10, 14, 1, 15, 7, 9, 0];
        let collinear = sixteenths
            .map(|k| Point2::new(k as f64 / 16.0, 0.5))
            .into_iter()
            .chain(sixteenths.map(|k| Point2::new(0.5, k as f64 / 16.0)))
            .collect();
        let on_edges = [
            (0.25, 0.25),
            (0.75, 0.25),
            (0.75, 0.75),
            (0.25, 0.75),
            (0.5, 0.25),
            (0.5, 0.5),
            (0.375, 0.375),
            (0.625, 0.375),
            (0.75, 0.5),
            (0.5, 0.375),
            (0.625, 0.625),
        ]
        .map(|(x, y)| Point2::new(x, y))
        .to_vec();
        let grid = Distribution::Grid {
            side: 8,
            jitter: 0.0,
        };
        let ring = Distribution::Ring { jitter: 0.0 };
        vec![
            (
                "uniform",
                PointGenerator::new(Distribution::Uniform, 7).take_points(100),
            ),
            ("lattice", lattice),
            ("grid", PointGenerator::new(grid, 7).take_points(100)),
            ("ring", PointGenerator::new(ring, 7).take_points(100)),
            ("collinear", collinear),
            ("on-edges", on_edges),
        ]
    }

    /// Applies one step to `net`, updating `live` from its outcome, and
    /// returns that outcome printed (`{:?}` prints every `f64` exactly).
    fn apply(
        net: &mut VoroNet,
        step: Step,
        pool: &[Point2],
        targets: &[Point2],
        live: &mut Vec<ObjectId>,
    ) -> String {
        let pick = |i: usize| live[i % live.len()];
        match step {
            Step::Join(i) => {
                let joined = net.insert(pool[i % pool.len()]);
                live.extend(joined.as_ref().map(|r| r.id));
                format!("{joined:?}")
            }
            Step::Renumber => unreachable!("the caller renumbers"),
            _ if live.is_empty() => String::new(),
            Step::Leave(i) => format!("{:?}", net.remove(live.swap_remove(i % live.len()))),
            Step::Route(i, j) => format!("{:?}", net.route_between(pick(i), pick(j))),
            Step::Query(i, t) => format!(
                "{:?}",
                net.handle_query(pick(i), targets[t % targets.len()])
            ),
        }
    }

    /// Renumbering changes no result.  Two overlays take the same steps;
    /// the second is also renumbered at random points.  After every step
    /// they agree on its report, on `traffic()`, on `touched_since`, on
    /// `owner_of` at tie targets (lattice points and midpoints, often
    /// equidistant from several objects) and on a view; after every
    /// renumbering the audit and `Triangulation::validate` pass, and a
    /// `FrozenView` taken just before it refreshes after a join exactly as
    /// the twin's view does (`Patched`, bar small populations) and routes
    /// like the overlay.
    #[test]
    fn renumbering_changes_no_result() {
        let mut patched = 0;
        for (name, pool) in degenerate_pools() {
            let targets: Vec<Point2> = pool
                .windows(2)
                .map(|w| w[0].midpoint(w[1]))
                .chain((0..64).map(|k| Point2::new((k % 8) as f64 / 8.0, (k / 8) as f64 / 8.0)))
                .collect();
            for seed in 0..6 {
                let case = format!("{name} seed {seed}");
                let mut rng = StdRng::seed_from_u64(seed);
                // `d_min` = 1/(2π) ≈ 0.159, so close sets are large and
                // tie often.
                let cfg = VoroNetConfig::new(2).with_long_links(2).with_seed(seed);
                let (mut plain, mut renumbered) = (VoroNet::new(cfg), VoroNet::new(cfg));
                let (mut live, mut live_too) = (Vec::new(), Vec::new());
                let mut renumbers = 0;
                for (k, step) in steps(&mut rng, 160).into_iter().enumerate() {
                    let at = format!("{case}, step {k} {step:?}");
                    if let Step::Renumber = step {
                        let (mut view, mut twin_view) = (renumbered.freeze(), plain.freeze());
                        renumbered.renumber();
                        renumbers += 1;
                        assert_eq!(
                            renumbered.audit_invariants(true),
                            plain.audit_invariants(true),
                            "{at}"
                        );
                        renumbered.triangulation().validate().unwrap();
                        // One join later, the view taken before the
                        // renumbering refreshes as its twin does, and
                        // routes like the overlay.
                        let p = Point2::new(rng.random(), rng.random());
                        let (mut joined, mut twin) = (renumbered.clone(), plain.clone());
                        assert_eq!(joined.insert(p), twin.insert(p), "{at}");
                        let refresh = view.refresh(&joined);
                        assert_eq!(refresh, twin_view.refresh(&twin), "{at}");
                        patched += usize::from(matches!(refresh, ViewRefresh::Patched { .. }));
                        let (mut a, mut b) = (RouteScratch::new(), RouteScratch::new());
                        for w in joined.ids().collect::<Vec<_>>().windows(2) {
                            let walked = joined.route_between_in(w[0], w[1], &mut a);
                            assert_eq!(walked, view.route_between_in(w[0], w[1], &mut b));
                            assert_eq!(a.path, b.path, "{at}");
                        }
                        continue;
                    }
                    let expected = apply(&mut plain, step, &pool, &targets, &mut live);
                    let got = apply(&mut renumbered, step, &pool, &targets, &mut live_too);
                    assert_eq!(got, expected, "{at}");
                    assert_eq!(live_too, live, "{at}");
                    assert_eq!(renumbered.traffic(), plain.traffic(), "{at}");
                    let since = |net: &VoroNet| {
                        let epoch = net.snapshot_epoch().saturating_sub(3);
                        net.touched_since(epoch).map(Iterator::collect::<Vec<_>>)
                    };
                    assert_eq!(since(&renumbered), since(&plain), "{at}");
                    for t in (0..4).map(|_| targets[rng.random_range(0..targets.len())]) {
                        assert_eq!(renumbered.owner_of(t), plain.owner_of(t), "{at}: {t}");
                    }
                    if let Some(&id) = live.get(k % live.len().max(1)) {
                        assert_eq!(renumbered.view(id), plain.view(id), "{at}");
                    }
                }
                assert!(renumbers > 0, "{case}");
                assert_eq!(
                    renumbered.audit_invariants(true),
                    plain.audit_invariants(true),
                    "{case}"
                );
            }
        }
        assert!(patched >= 100, "only {patched} refreshes patched");
    }

    #[test]
    fn small_overlay_invariants_hold() {
        let (net, _) = build_random(150, 1, 1);
        net.check_invariants(true).unwrap();
        net.triangulation().validate().unwrap();
    }

    #[test]
    fn multi_long_link_invariants_hold() {
        let (net, _) = build_random(120, 4, 2);
        net.check_invariants(true).unwrap();
        for id in net.ids().collect::<Vec<_>>() {
            assert_eq!(net.long_links(id).unwrap().len(), 4);
        }
    }

    #[test]
    fn routing_reaches_the_owner() {
        let (mut net, ids) = build_random(200, 1, 3);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let q = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            let from = ids[rng.random_range(0..ids.len())];
            let owner = net.owner_of(q).unwrap();
            let report = net.route_to_point(from, q).unwrap();
            assert_eq!(
                report.owner, owner,
                "greedy routing must find the region owner"
            );
            assert_eq!(report.path.len() as u32, report.hops + 1);
            assert_eq!(*report.path.first().unwrap(), from);
            assert_eq!(*report.path.last().unwrap(), owner);
        }
    }

    #[test]
    fn routing_between_objects_terminates_at_destination() {
        let (mut net, ids) = build_random(150, 1, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let a = ids[rng.random_range(0..ids.len())];
            let b = ids[rng.random_range(0..ids.len())];
            if a == b {
                continue;
            }
            let r = net.route_between(a, b).unwrap();
            assert_eq!(r.owner, b);
        }
    }

    #[test]
    fn handle_query_counts_an_answer_message() {
        let (mut net, ids) = build_random(30, 1, 6);
        net.reset_traffic();
        let r = net.handle_query(ids[0], Point2::new(0.9, 0.9)).unwrap();
        assert!(net.traffic().count(MessageKind::QueryAnswer) == 1);
        assert!(net.contains(r.owner));
    }

    #[test]
    fn removal_keeps_invariants_and_repairs_long_links() {
        let (mut net, ids) = build_random(150, 2, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let mut live: Vec<ObjectId> = ids.clone();
        for _ in 0..60 {
            let idx = rng.random_range(0..live.len());
            let id = live.swap_remove(idx);
            net.remove(id).unwrap();
        }
        assert_eq!(net.len(), 90);
        net.check_invariants(true).unwrap();
        net.triangulation().validate().unwrap();
        // All remaining long links point to live objects that own their
        // target (already covered by check_invariants, asserted here
        // explicitly for readability).
        for id in net.ids().collect::<Vec<_>>() {
            for l in net.long_links(id).unwrap() {
                assert!(net.contains(l.neighbour));
            }
        }
    }

    #[test]
    fn removal_errors() {
        let mut net = VoroNet::new(VoroNetConfig::new(10));
        assert_eq!(
            net.remove(ObjectId(3)).unwrap_err().kind(),
            &ErrorKind::UnknownObject(ObjectId(3))
        );
        let id = net.insert(Point2::new(0.4, 0.4)).unwrap().id;
        net.remove(id).unwrap();
        assert!(net.is_empty());
        assert_eq!(
            net.remove(id).unwrap_err().kind(),
            &ErrorKind::UnknownObject(id)
        );
    }

    #[test]
    fn churn_insert_remove_interleaved() {
        let cfg = VoroNetConfig::new(200).with_seed(11);
        let mut net = VoroNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(13);
        let mut live: Vec<ObjectId> = Vec::new();
        for step in 0..400 {
            if live.len() < 10 || rng.random::<f64>() < 0.65 {
                let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
                if let Ok(r) = net.insert(p) {
                    live.push(r.id);
                }
            } else {
                let idx = rng.random_range(0..live.len());
                let id = live.swap_remove(idx);
                net.remove(id).unwrap();
            }
            if step % 100 == 99 {
                net.check_invariants(true).unwrap();
            }
        }
        assert_eq!(net.len(), live.len());
        net.check_invariants(true).unwrap();
    }

    #[test]
    fn close_neighbours_match_brute_force_under_clustering() {
        // Cluster many objects inside a d_min-sized disk so that close
        // neighbourhoods are non-trivial, then verify the Lemma 1 based
        // incremental maintenance exhaustively.
        let cfg = VoroNetConfig::new(50).with_seed(21);
        let dmin = cfg.dmin();
        let mut net = VoroNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(22);
        for i in 0..60 {
            let (cx, cy) = if i % 2 == 0 { (0.3, 0.3) } else { (0.7, 0.7) };
            let p = Point2::new(
                cx + (rng.random::<f64>() - 0.5) * dmin * 3.0,
                cy + (rng.random::<f64>() - 0.5) * dmin * 3.0,
            );
            let _ = net.insert(p);
        }
        assert!(net.len() > 40);
        net.check_invariants(true).unwrap();
        // At least some close neighbourhoods must be non-empty for the test
        // to be meaningful.
        let non_empty = net
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .filter(|&&id| !net.close_neighbours(id).unwrap().is_empty())
            .count();
        assert!(
            non_empty > 0,
            "clustered workload should create close pairs"
        );
    }

    /// |cn(o)| is the number of other objects within `d_min` of `o`, i.e.
    /// (local density) · π·d_min² with the density taken over that disk.
    /// Under the input class the paper provisions for — no area denser
    /// than `N_max` objects per unit — that is ≤ 1/(π·N_max) on average
    /// (500 uniform points: none); 500 `PowerLaw{5}` points crowd far past
    /// it at `N_max = 500`.  Pins `(sum, p99, max, objects with |cn| > 0)`
    /// per population.
    #[test]
    fn close_sets_grow_with_local_density() {
        let power_law = Distribution::PowerLaw { alpha: 5.0 };
        for (dist, nmax, pinned) in [
            (power_law, 500, (143_696, 445, 449, 499)),
            (power_law, 50_000, (30, 1, 2, 26)),
            (Distribution::Uniform, 500, (0, 0, 0, 0)),
        ] {
            let mut net = VoroNet::new(VoroNetConfig::new(nmax).with_seed(2007));
            let points = PointGenerator::new(dist, 2007).take_points(500);
            for &p in &points {
                net.insert(p).unwrap();
            }
            let dmin = net.dmin();
            let mut sizes: Vec<usize> = (net.ids())
                .map(|id| {
                    let cn = net.close_neighbours(id).unwrap().len();
                    let at = net.coords(id).unwrap();
                    let within = points.iter().filter(|&&q| q.distance(at) <= dmin);
                    assert_eq!(cn, within.count() - 1, "{dist:?} {nmax}: {id}");
                    cn
                })
                .collect();
            sizes.sort_unstable();
            let sum: usize = sizes.iter().sum();
            let p99 = sizes[sizes.len() * 99 / 100 - 1];
            let nonzero = sizes.iter().filter(|&&c| c > 0).count();
            let max = *sizes.last().unwrap();
            assert_eq!((sum, p99, max, nonzero), pinned, "{dist:?} {nmax}");
        }
    }

    #[test]
    fn long_link_targets_follow_algorithm_3_radius_bounds() {
        let cfg = VoroNetConfig::new(1000).with_seed(31);
        let mut net = VoroNet::new(cfg);
        let origin = Point2::new(0.5, 0.5);
        let dmin = net.dmin();
        let max_r = net.config().max_link_radius();
        for _ in 0..2000 {
            let t = net.choose_long_link_target(origin);
            let r = origin.distance(t);
            assert!(r >= dmin * 0.999, "radius {r} below d_min {dmin}");
            assert!(r <= max_r * 1.001, "radius {r} above sqrt(2)");
        }
    }

    #[test]
    fn long_link_radius_is_log_uniform() {
        // Lemma 2: the radius is log-uniform, so the median radius should be
        // the geometric mean of the bounds.
        let cfg = VoroNetConfig::new(10_000).with_seed(41);
        let mut net = VoroNet::new(cfg);
        let origin = Point2::new(0.5, 0.5);
        let dmin = net.dmin();
        let max_r = net.config().max_link_radius();
        let geo_mean = (dmin * max_r).sqrt();
        let mut below = 0;
        let total = 4000;
        for _ in 0..total {
            let t = net.choose_long_link_target(origin);
            if origin.distance(t) < geo_mean {
                below += 1;
            }
        }
        let frac = below as f64 / total as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "log-uniform radius: expected ~50% below the geometric mean, got {frac}"
        );
    }

    #[test]
    fn view_sizes_stay_small() {
        let (net, _) = build_random(400, 1, 51);
        let h = net.view_size_histogram();
        assert_eq!(h.total(), 400);
        // O(1) views: mean around 6 (Voronoi) + O(1) close + 1 long + O(1)
        // back links; far below any linear growth.
        assert!(h.mean() < 15.0, "mean view size {} too large", h.mean());
        let deg = net.degree_histogram();
        assert!(deg.mean() > 5.0 && deg.mean() < 6.5);
    }

    #[test]
    fn traffic_is_recorded_per_operation() {
        let (mut net, ids) = build_random(50, 1, 61);
        net.reset_traffic();
        let before = net.traffic().total();
        assert_eq!(before, 0);
        let _ = net.insert(Point2::new(0.123, 0.456)).unwrap();
        assert!(net.traffic().count(MessageKind::VoronoiUpdate) > 0);
        assert!(net.traffic().count(MessageKind::LongLink) > 0);
        let t0 = net.traffic().total();
        let _ = net.route_between(ids[0], ids[1]).unwrap();
        assert!(net.traffic().count(MessageKind::RouteForward) > 0 || net.traffic().total() == t0);
    }

    #[test]
    fn reset_traffic_clears_every_kind_and_counting_resumes() {
        let (mut net, ids) = build_random(60, 1, 67);
        for kind in [
            MessageKind::RouteForward,
            MessageKind::VoronoiUpdate,
            MessageKind::CloseNeighbourExchange,
            MessageKind::LongLink,
        ] {
            assert!(net.traffic().count(kind) > 0, "{kind:?} before reset");
        }
        net.remove(ids[7]).unwrap();

        net.reset_traffic();
        assert_eq!(net.traffic(), &TrafficStats::new());
        for kind in MessageKind::ALL {
            assert_eq!(net.traffic().count(kind), 0, "{kind:?} after reset");
        }

        // Counting resumes from zero: a route of `h` hops is `h` forwards
        // and nothing else.
        let report = net.route_between(ids[0], ids[1]).unwrap();
        let mut expected = TrafficStats::new();
        expected.add(MessageKind::RouteForward, u64::from(report.hops));
        assert_eq!(net.traffic(), &expected);

        // A departure's messages all land in `traffic()`, as many as its
        // report counts, and none of them is a forward.
        let total_before = net.traffic().total();
        let leave = net.remove(ids[20]).unwrap();
        assert!(leave.messages > 0);
        assert_eq!(net.traffic().total(), total_before + leave.messages);
        assert_eq!(
            net.traffic().count(MessageKind::RouteForward),
            u64::from(report.hops)
        );
    }

    #[test]
    fn maintenance_cost_is_constant_scale() {
        // The number of non-routing messages per join/leave must not grow
        // with the overlay size (O(1) claim of Section 4.2).
        let mut per_size = Vec::new();
        for &n in &[100usize, 400usize] {
            let (mut net, ids) = build_random(n, 1, 71);
            let mut join_msgs = 0.0;
            let mut trials = 0.0;
            let mut rng = StdRng::seed_from_u64(72);
            for _ in 0..20 {
                let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
                if let Ok(r) = net.insert(p) {
                    // Subtract the routing part, which legitimately grows
                    // (poly-logarithmically) with n.
                    join_msgs += (r.messages as f64) - (r.routing_hops + r.long_link_hops) as f64;
                    trials += 1.0;
                }
            }
            let mut leave_msgs = 0.0;
            for &id in ids.iter().take(20) {
                let rep = net.remove(id).unwrap();
                leave_msgs += rep.messages as f64;
            }
            per_size.push((join_msgs / trials, leave_msgs / 20.0));
        }
        let (j_small, l_small) = per_size[0];
        let (j_large, l_large) = per_size[1];
        assert!(
            j_large < j_small * 2.0 + 10.0,
            "join maintenance should not grow with n: {j_small} -> {j_large}"
        );
        assert!(
            l_large < l_small * 2.0 + 10.0,
            "leave maintenance should not grow with n: {l_small} -> {l_large}"
        );
    }
}
