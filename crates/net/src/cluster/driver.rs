//! The control plane: the authoritative tessellation, view distribution
//! to the hosts, and the overlay operations (membership, routes, area
//! queries, stats) — each one "queue entries, pump, read the replies".

use super::liveness::{FailureDetector, HostState, Liveness};
use super::pump::{Completes, Ladder, PendingTable, RetryPolicy, SYNC_DEADLINE};
use super::services::KvPlacement;
use super::{ClusterError, ClusterStats, HostReport, IdMap, OpOutcome, DRIVER_PEER};
use crate::transport::{PeerId, Transport};
use crate::wire::{EntryList, PointList, PositionList, WireMsg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use voronet_core::{ObjectId, VoroNet, VoroNetConfig, VoronetError};
use voronet_geom::{hilbert_key, voronoi_cell, Point2, Rect};
use voronet_sim::TransportStats;
use voronet_workloads::{RadiusQuery, RangeQuery, WorkloadOp};

/// What was last shipped to a host for one object; views are re-pushed
/// only when this differs from the freshly materialised state.  The hosts
/// of its routing entries and neighbours ride in the frame but are not
/// kept here: an object never moves, so they cannot differ.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ShippedView {
    pub(super) coords: Point2,
    pub(super) routing: Vec<(u64, Point2)>,
    pub(super) vn: Vec<u64>,
    pub(super) cell: Vec<Point2>,
}

/// Where an object was placed at its join, and the sequence number of
/// its last view push.  Kept after the object departs, so its eviction —
/// and a revived host's regeneration — still find its host.
#[derive(Debug, Clone, Copy)]
struct Placed {
    host: PeerId,
    seq: u64,
}

/// The live objects' curve keys ([`hilbert_key`]), each above its
/// object's id so that every entry is distinct, in sorted blocks of fewer
/// than `2 · BLOCK`: a rank is a binary search over the blocks' first
/// entries, a sum of the lengths before and a binary search inside one
/// block, and a join or a departure moves at most one block's entries,
/// where one sorted list would move O(n).  Exact at any skew, where counting keys per bucket
/// of their top bits is not: with a Fenwick tree over the top 14 bits,
/// most of a 2 000-object `PowerLaw{5}` population shared one bucket and
/// the host changed 1 332 times along the curve (46 with exact ranks).
struct CurveRanks {
    blocks: Vec<Vec<u64>>,
}

impl CurveRanks {
    const BLOCK: usize = 512;

    /// The entry of object `id` at `at` in `domain`.
    fn entry(domain: Rect, at: Point2, id: ObjectId) -> u64 {
        u64::from(hilbert_key(domain, at)) << 32 | (id.0 & u64::from(u32::MAX))
    }

    /// The block that holds `entry`, or would: the last one whose first
    /// entry is not above it, else the first.
    fn block_of(&self, entry: u64) -> usize {
        self.blocks
            .partition_point(|block| block[0] <= entry)
            .saturating_sub(1)
    }

    /// Live entries below `entry`.
    fn rank(&self, entry: u64) -> u64 {
        let b = self.block_of(entry);
        let before: usize = self.blocks[..b].iter().map(Vec::len).sum();
        let within = self
            .blocks
            .get(b)
            .map_or(0, |block| block.partition_point(|&e| e < entry));
        (before + within) as u64
    }

    fn insert(&mut self, entry: u64) {
        if self.blocks.is_empty() {
            self.blocks.push(Vec::with_capacity(2 * Self::BLOCK));
            self.blocks[0].push(entry);
            return;
        }
        let b = self.block_of(entry);
        let block = &mut self.blocks[b];
        block.insert(block.partition_point(|&e| e < entry), entry);
        if block.len() == 2 * Self::BLOCK {
            let mut upper = Vec::with_capacity(2 * Self::BLOCK);
            upper.extend(block.drain(Self::BLOCK..));
            self.blocks.insert(b + 1, upper);
        }
    }

    fn remove(&mut self, entry: u64) {
        let b = self.block_of(entry);
        let block = &mut self.blocks[b];
        let at = block.binary_search(&entry).expect("a live entry");
        block.remove(at);
        if block.is_empty() {
            self.blocks.remove(b);
        }
    }
}

/// The cluster controller: authoritative tessellation + view
/// distribution + request/answer correlation.  Generic over the
/// transport, so the same driver runs on vnet, UDP and TCP.
pub struct Driver<T: Transport> {
    pub(super) t: T,
    pub(super) hosts: u64,
    pub(super) net: VoroNet,
    pub(super) shipped: IdMap<u64, ShippedView>,
    /// Every object ever placed, indexed by id (the overlay numbers joins
    /// densely from 0); `load` counts the live ones per host (index
    /// `peer - 1`).
    placed: Vec<Placed>,
    pub(super) load: Vec<u64>,
    /// The live objects' curve keys, for [`Self::place`].
    ranks: CurveRanks,
    /// The overlay epoch up to which every host holds every view and every
    /// KV entry sits where the owner rule puts it; `None` while that is
    /// not known (a write is propagating, or one failed), which makes the
    /// next write reconsider every live object and every key.
    pub(super) synced: Option<u64>,
    pub(super) next_token: u64,
    /// Scratch frame: ops are encoded into it, the pump receives into it.
    pub(super) buf: Vec<u8>,
    pub(super) table: PendingTable,
    /// Subscriptions by object and entries by key, ordered: pushes made
    /// by iterating them come out the same on every run.
    pub(super) subs: BTreeMap<ObjectId, Rect>,
    pub(super) topic_seqs: IdMap<[u64; 4], u64>,
    pub(super) kv: BTreeMap<u64, KvPlacement>,
    /// [`Self::copies_of`] by owner, since the last membership change.
    pub(super) copies: IdMap<u64, Vec<u64>>,
    pub(super) svc_seqs: IdMap<u64, u64>,
    pub(super) kv_seq: u64,
    /// The `(object, key)` KV copies a dead host was told to drop and
    /// never heard: replayed when it comes back with its state.
    pub(super) missed_drops: BTreeSet<(u64, u64)>,
    pub(super) policy: RetryPolicy,
    /// How long a push barrier waits for its acks ([`SYNC_DEADLINE`];
    /// the scripted tests shorten it to run a barrier out).
    pub(super) barrier_deadline: Duration,
    pub(super) jitter_rng: StdRng,
    pub(super) detector: FailureDetector,
    /// Fault counters; [`Self::cluster_stats`] adds the detector's part.
    pub(super) stats: ClusterStats,
}

impl<T: Transport> Driver<T> {
    /// Creates a driver over an already-bound transport (peers must be
    /// registered by the caller) controlling `hosts` host peers.
    pub fn new(transport: T, hosts: u64, config: VoroNetConfig) -> Self {
        let policy = RetryPolicy::default();
        let start = transport.now();
        let detector = FailureDetector::new(hosts, start);
        Driver {
            t: transport,
            hosts,
            net: VoroNet::new(config),
            shipped: IdMap::default(),
            placed: Vec::new(),
            load: vec![0; hosts.max(1) as usize],
            ranks: CurveRanks { blocks: Vec::new() },
            synced: Some(0),
            next_token: 1,
            buf: Vec::new(),
            table: PendingTable::new(start),
            subs: BTreeMap::new(),
            topic_seqs: IdMap::default(),
            kv: BTreeMap::new(),
            copies: IdMap::default(),
            svc_seqs: IdMap::default(),
            kv_seq: 0,
            missed_drops: BTreeSet::new(),
            jitter_rng: StdRng::seed_from_u64(policy.seed),
            policy,
            barrier_deadline: SYNC_DEADLINE,
            detector,
            stats: ClusterStats::default(),
        }
    }

    /// Replaces the retry policy, reseeding the jitter stream.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.jitter_rng = StdRng::seed_from_u64(policy.seed);
        self.policy = policy;
    }

    /// Replaces the failure-detector knobs.
    pub fn set_liveness(&mut self, liveness: Liveness) {
        self.detector.knobs = liveness;
    }

    /// The driver's current liveness verdict about one host.
    pub fn host_state(&self, peer: PeerId) -> HostState {
        self.detector.state(peer)
    }

    /// Liveness states and fault counters.
    pub fn cluster_stats(&self) -> ClusterStats {
        ClusterStats {
            hosts: (1..=self.hosts)
                .map(|peer| (peer, self.host_state(peer)))
                .collect(),
            suspicions: self.detector.suspicions,
            deaths: self.detector.deaths,
            revivals: self.detector.revivals,
            ..self.stats.clone()
        }
    }

    /// Read access to the authoritative overlay.
    pub fn net(&self) -> &VoroNet {
        &self.net
    }

    /// Live population.
    pub fn population(&self) -> usize {
        self.net.len()
    }

    /// The driver endpoint's transport counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.t.stats()
    }

    /// The host peer `id` was placed on at its join (objects never move);
    /// `None` for an id this driver never placed.
    pub fn host_of(&self, id: ObjectId) -> Option<PeerId> {
        let index = usize::try_from(id.0).ok()?;
        self.placed.get(index).map(|p| p.host)
    }

    /// The host of an object the driver placed.
    pub(super) fn host(&self, object: u64) -> PeerId {
        self.placed[object as usize].host
    }

    /// Places the object that just joined at `at` by its rank r along the
    /// Hilbert curve over the domain ([`hilbert_key`]) among the n live
    /// objects: on host `1 + r·K/n`, so each host holds one contiguous
    /// share of the curve and a walk crosses hosts only where it crosses a
    /// share's border.  A host that would then hold more than
    /// ⌈n/K⌉ + ⌊n/K⌋/8 + 8 objects gives the object to the least-loaded
    /// host (ties: the lower peer id) instead.
    fn place(&mut self, id: ObjectId, at: Point2) {
        let hosts = self.load.len() as u64;
        let n = self.net.len() as u64;
        let cap = n.div_ceil(hosts) + n / hosts / 8 + 8;
        let entry = CurveRanks::entry(self.net.config().domain, at, id);
        let mut host = 1 + self.ranks.rank(entry) * hosts / n;
        if self.load[(host - 1) as usize] + 1 > cap {
            host = (1..=hosts)
                .min_by_key(|&h| (self.load[(h - 1) as usize], h))
                .expect("at least one host");
        }
        self.ranks.insert(entry);
        self.load[(host - 1) as usize] += 1;
        assert_eq!(
            id.0,
            self.placed.len() as u64,
            "the overlay numbers joins densely"
        );
        self.placed.push(Placed { host, seq: 0 });
    }

    /// Pumps the table's single queued op and `read`s its answer out of
    /// the completing frame.
    fn pump_one<R>(
        &mut self,
        what: &'static str,
        read: impl Fn(&WireMsg<'_>) -> Option<R>,
    ) -> Result<R, ClusterError> {
        let mut verdict = Err(ClusterError::Timeout(what));
        self.pump(1, &mut |_, done, _| {
            verdict = done.and_then(|msg| read(msg).ok_or(ClusterError::Timeout(what)));
        })?;
        verdict
    }

    /// Pumps every queued push to its ack.  Pushes to a dead host are
    /// dropped; one unacked at the barrier deadline fails the barrier.
    pub(super) fn flush_pushes(&mut self) -> Result<(), ClusterError> {
        let mut barrier = Ok(());
        self.pump(usize::MAX, &mut |_, done, _| {
            if let Err(e @ ClusterError::Timeout(_)) = done {
                barrier = Err(e);
            }
        })?;
        barrier
    }

    /// Queues the request `build` makes of a fresh correlation token for
    /// `object`'s host, to be completed by the answer carrying the token.
    fn queue_request(
        &mut self,
        object: u64,
        what: &'static str,
        ladder: Ladder,
        build: impl FnOnce(u64) -> WireMsg<'static>,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        let peer = self.host(object);
        self.queue(peer, build(token), Completes::Token(token), what, ladder);
    }

    /// Sends one request to `object`'s host and `read`s its token-matched
    /// answer, resending and retrying the same frame per `ladder`.  Fails
    /// fast with [`ClusterError::Unavailable`] when that host is dead —
    /// before sending, or as soon as it is declared so mid-wait.
    pub(super) fn request<R>(
        &mut self,
        object: u64,
        what: &'static str,
        ladder: Ladder,
        build: impl FnOnce(u64) -> WireMsg<'static>,
        read: impl Fn(&WireMsg<'_>) -> Option<R>,
    ) -> Result<R, ClusterError> {
        self.queue_request(object, what, ladder, build);
        self.pump_one(what, read)
    }

    /// A request served from `from_object` whose answer is a route owner
    /// or a match set.
    pub(super) fn query(
        &mut self,
        from_object: u64,
        what: &'static str,
        build: impl FnOnce(u64) -> WireMsg<'static>,
    ) -> Result<OpOutcome, ClusterError> {
        self.request(from_object, what, self.policy.requests(), build, routed)
    }

    /// Materialises the current shippable state of one live object.
    pub(super) fn current_view(&self, id: u64) -> ShippedView {
        let oid = ObjectId(id);
        let view = self.net.view(oid).expect("live object");
        let neighbours = view.routing_neighbours().into_iter();
        let cell = self.net.vertex_of(oid);
        ShippedView {
            coords: view.coords,
            routing: neighbours
                .filter_map(|nb| Some((nb.0, self.net.coords(nb)?)))
                .collect(),
            vn: view.voronoi_neighbours.iter().map(|n| n.0).collect(),
            cell: cell.map_or_else(Vec::new, |v| {
                voronoi_cell(self.net.triangulation(), v).polygon.vertices
            }),
        }
    }

    /// Queues one view-plane push (`ViewUpdate`/`Evict`) of `object`
    /// under its next push sequence number.
    fn queue_view_push<'a>(&mut self, object: u64, build: impl FnOnce(u64) -> WireMsg<'a>) {
        let placed = &mut self.placed[object as usize];
        placed.seq += 1;
        let Placed { host, seq } = *placed;
        self.queue(
            host,
            build(seq),
            Completes::ViewAck(object, seq),
            "view acks",
            self.policy.pushes(self.barrier_deadline),
        );
    }

    /// Pushes view diffs (and the given evictions) to the hosts and
    /// blocks until every push is acked.  The views compared with what was
    /// shipped are the `touched` objects' (live, ascending), or every live
    /// object's when `None`.  A failed barrier forgets what it queued, so
    /// a view that may not have arrived never compares as shipped.
    #[inline(never)]
    fn sync_views(&mut self, evicted: &[u64], touched: Option<&[u64]>) -> Result<(), ClusterError> {
        for &object in evicted {
            self.shipped.remove(&object);
            self.queue_view_push(object, |seq| WireMsg::Evict { object, seq });
        }
        let everyone: Vec<u64>;
        let candidates = match touched {
            Some(touched) => touched,
            None => {
                everyone = self.net.ids().map(|id| id.0).collect();
                &everyone
            }
        };
        let (mut routing_buf, mut vn_buf, mut cell_buf) = (Vec::new(), Vec::new(), Vec::new());
        let mut pushed = Vec::new();
        for &object in candidates {
            let current = self.current_view(object);
            self.stats.view_builds += 1;
            if self.shipped.get(&object) == Some(&current) {
                continue;
            }
            self.stats.view_pushes += 1;
            let routing = current
                .routing
                .iter()
                .map(|&(id, at)| (id, self.host(id), at));
            let routing = EntryList::build(&mut routing_buf, routing);
            // `routing` is sorted by id and holds every neighbour.
            let vn = current.vn.iter().map(|&id| {
                let at = current.routing.binary_search_by_key(&id, |&(r, _)| r);
                u16::try_from(at.expect("a neighbour is a routing entry")).expect("fits a frame")
            });
            let vn = PositionList::build(&mut vn_buf, vn);
            let cell = PointList::build(&mut cell_buf, &current.cell);
            let coords = current.coords;
            self.queue_view_push(object, |seq| WireMsg::ViewUpdate {
                object,
                seq,
                coords,
                routing,
                vn,
                cell,
            });
            self.shipped.insert(object, current);
            pushed.push(object);
        }
        let barrier = self.flush_pushes();
        if barrier.is_err() {
            for object in pushed {
                self.shipped.remove(&object);
            }
        }
        barrier
    }

    /// Carries the overlay mutation just made to the hosts: the changed
    /// views, then the KV entries whose placement moved.  Both look only
    /// at the objects the overlay's journal names since the last write
    /// that got through — and at everyone when there is no such write to
    /// start from or the journal no longer reaches it.
    fn propagate(&mut self, evicted: &[u64]) -> Result<(), ClusterError> {
        // Copies follow the membership and the placement.
        self.copies.clear();
        let touched = self.synced.take().and_then(|epoch| {
            let mut touched: Vec<u64> = self
                .net
                .touched_since(epoch)?
                .filter(|&id| self.net.contains(id))
                .map(|id| id.0)
                .collect();
            touched.sort_unstable();
            touched.dedup();
            Some(touched)
        });
        self.sync_views(evicted, touched.as_deref())?;
        self.rebalance_kv(touched.as_deref())?;
        self.synced = Some(self.net.snapshot_epoch());
        Ok(())
    }

    /// Regenerates hosts that came back from the dead before the next
    /// operation touches them.  Every operation starts here, so the check
    /// inlines to one load and the work stays out of line.
    #[inline]
    pub(super) fn service_revivals(&mut self) -> Result<(), ClusterError> {
        if self.detector.revived.is_empty() {
            return Ok(());
        }
        self.regenerate_revived()
    }

    /// Re-ships each revived host's view snapshots (and evicts stale
    /// ones), then replays its service state from driver control state.
    /// Monotonic push sequences make the replay idempotent for a host that
    /// kept its state and restorative for one that lost it.
    #[cold]
    #[inline(never)]
    fn regenerate_revived(&mut self) -> Result<(), ClusterError> {
        // A failure below leaves the hosts' state unknown.
        let synced = self.synced.take();
        while let Some(peer) = self.detector.revived.pop() {
            // Forget what was shipped to the revived host so sync_views
            // re-pushes every view it must hold, and re-evict departed
            // objects whose eviction it may have missed.
            let placed = &self.placed;
            self.shipped
                .retain(|&object, _| placed[object as usize].host != peer);
            let stale: Vec<u64> = (0..)
                .zip(placed)
                .filter(|&(object, p)| {
                    p.host == peer && p.seq > 0 && !self.net.contains(ObjectId(object))
                })
                .map(|(object, _)| object)
                .collect();
            self.sync_views(&stale, None)?;
            self.replay_services(peer)?;
        }
        self.synced = synced;
        Ok(())
    }

    /// The `index`-th live object, modulo the population, which must not
    /// be empty.
    fn origin(&self, index: usize) -> ObjectId {
        let n = self.net.len();
        self.net.id_at(index % n).expect("index below len")
    }

    /// The start of every id-keyed operation: `None` when `id` is not a
    /// live object, otherwise its raw id once revived hosts are
    /// regenerated.
    pub(super) fn issuer(&mut self, id: ObjectId) -> Result<Option<u64>, ClusterError> {
        if !self.net.contains(id) {
            return Ok(None);
        }
        self.service_revivals()?;
        Ok(Some(id.0))
    }

    /// Inserts an object at `position` into the overlay and synchronises
    /// every affected view.  `Ok(None)` when the overlay rejects the
    /// position (duplicate).
    pub fn insert(&mut self, position: Point2) -> Result<Option<u64>, ClusterError> {
        Ok(self.join(position)?.ok().map(|id| id.0))
    }

    /// [`Self::insert`] keeping the overlay's own rejection: the inner
    /// error is what [`VoroNet::insert`] returned.
    pub(super) fn join(
        &mut self,
        position: Point2,
    ) -> Result<Result<ObjectId, VoronetError>, ClusterError> {
        self.service_revivals()?;
        let report = match self.net.insert(position) {
            Ok(report) => report,
            Err(rejected) => return Ok(Err(rejected)),
        };
        self.place(report.id, position);
        self.propagate(&[])?;
        Ok(Ok(report.id))
    }

    /// Removes `id` and synchronises the survivors' views; the inner error
    /// is what [`VoroNet::remove`] returned (an unknown object, the
    /// population floor).
    pub fn leave(&mut self, id: ObjectId) -> Result<Result<(), VoronetError>, ClusterError> {
        self.service_revivals()?;
        let at = self.net.coords(id);
        if let Err(refused) = self.net.remove(id) {
            return Ok(Err(refused));
        }
        // The departure frees its host's slot and its curve key; the
        // object keeps its placement record for its eviction.
        let host = self.host(id.0);
        self.load[(host - 1) as usize] -= 1;
        let at = at.expect("a removed object was live");
        self.ranks
            .remove(CurveRanks::entry(self.net.config().domain, at, id));
        // The evicted host drops the departed object's service state with
        // it; the driver's control state follows.
        self.subs.remove(&id);
        self.propagate(&[id.0])?;
        Ok(Ok(()))
    }

    /// Queues the route from `from_object` towards `target`.
    pub(super) fn queue_route_to(&mut self, from_object: u64, target: Point2) {
        let route = |token| WireMsg::RouteReq {
            token,
            from_object,
            target,
        };
        self.queue_request(from_object, "route", self.policy.requests(), route);
    }

    /// Routes from the live object `from` towards `target` through the
    /// distributed overlay: [`OpOutcome::Route`], or
    /// [`OpOutcome::Skipped`] when `from` is not live.
    pub fn route_from(
        &mut self,
        from: ObjectId,
        target: Point2,
    ) -> Result<OpOutcome, ClusterError> {
        let Some(from_object) = self.issuer(from)? else {
            return Ok(OpOutcome::Skipped);
        };
        self.queue_route_to(from_object, target);
        self.pump_one("route", routed)
    }

    /// Pumps the queued routes with up to `window` in flight, handing each
    /// one's `(owner, hops)` or failure to `on_route` by queue position,
    /// with the time spent on it.
    pub(super) fn pump_routes(
        &mut self,
        window: usize,
        mut on_route: impl FnMut(usize, Result<(u64, u32), ClusterError>, Duration),
    ) -> Result<(), ClusterError> {
        self.pump(window, &mut |slot, done, latency| {
            let verdict =
                done.and_then(|msg| owner_hops(msg).ok_or(ClusterError::Timeout("route")));
            on_route(slot, verdict, latency);
        })
    }

    /// Executes a distributed rectangular range query issued by the live
    /// object `from`: [`OpOutcome::Matches`], or [`OpOutcome::Skipped`]
    /// when `from` is not live.
    pub(crate) fn range_from(
        &mut self,
        from: ObjectId,
        query: RangeQuery,
    ) -> Result<OpOutcome, ClusterError> {
        let Some(from_object) = self.issuer(from)? else {
            return Ok(OpOutcome::Skipped);
        };
        self.query(from_object, "range query", |token| WireMsg::AreaReq {
            token,
            from_object,
            rect: query.rect,
        })
    }

    /// Executes a distributed radius query issued by the live object
    /// `from`, as [`Self::range_from`] does a rectangle.
    pub(crate) fn radius_from(
        &mut self,
        from: ObjectId,
        query: RadiusQuery,
    ) -> Result<OpOutcome, ClusterError> {
        let Some(from_object) = self.issuer(from)? else {
            return Ok(OpOutcome::Skipped);
        };
        self.query(from_object, "radius query", |token| WireMsg::RadiusReq {
            token,
            from_object,
            center: query.center,
            radius: query.radius,
        })
    }

    /// Applies one scripted [`WorkloadOp`] to the cluster: resolves each
    /// population index it names to the `index`-th live object (modulo
    /// the population; [`OpOutcome::Skipped`] on an empty overlay) and
    /// runs the id-keyed operation.
    pub fn apply(&mut self, op: &WorkloadOp) -> Result<OpOutcome, ClusterError> {
        use WorkloadOp as W;
        if let W::Insert { position } = *op {
            return Ok(OpOutcome::Inserted(self.insert(position)?));
        }
        if self.net.is_empty() || matches!(op, W::Snapshot { .. }) {
            return Ok(OpOutcome::Skipped);
        }
        match *op {
            W::Remove { index } => {
                let id = self.origin(index);
                Ok(OpOutcome::Removed(self.leave(id)?.ok().map(|()| id.0)))
            }
            W::Route { from, to } => {
                let target = self.net.coords(self.origin(to)).expect("live object");
                self.route_from(self.origin(from), target)
            }
            W::Range { from, query } => self.range_from(self.origin(from), query),
            W::Radius { from, query } => self.radius_from(self.origin(from), query),
            W::Subscribe { index, region } => self.subscribe(self.origin(index), region),
            W::Unsubscribe { index } => self.unsubscribe(self.origin(index)),
            W::Publish { from, region, .. } => self.publish(self.origin(from), region),
            W::KvPut { from, key, value } => self.kv_put(self.origin(from), key, value),
            W::KvGet { from, key } => self.kv_get(self.origin(from), key),
            W::KvDelete { from, key } => self.kv_delete(self.origin(from), key),
            W::Insert { .. } | W::Snapshot { .. } => unreachable!("answered above"),
        }
    }

    /// Collects every host's stats snapshot, one host after the other.
    /// Fails fast with [`ClusterError::Unavailable`] when a host is dead
    /// — heal and heartbeat first to audit a post-chaos cluster.
    pub fn collect_stats(&mut self) -> Result<Vec<HostReport>, ClusterError> {
        let mut reports = Vec::new();
        for peer in 1..=self.hosts {
            self.queue(
                peer,
                WireMsg::StatsReq,
                Completes::Stats(peer),
                "host stats",
                self.policy.requests(),
            );
            reports.push(self.pump_one("host stats", |msg| match *msg {
                WireMsg::StatsReply { stats, ops_served } => Some(HostReport {
                    peer,
                    stats,
                    ops_served,
                }),
                _ => None,
            })?);
        }
        Ok(reports)
    }

    /// Tells every host to exit its serve loop (best-effort; sent a few
    /// times to survive datagram loss).
    pub fn shutdown_hosts(&mut self) -> Result<(), ClusterError> {
        for _ in 0..3 {
            for peer in 1..=self.hosts {
                WireMsg::Shutdown
                    .encode(DRIVER_PEER, peer, &mut self.buf)
                    .expect("shutdown is tiny");
                self.t.send(peer, &self.buf)?;
            }
        }
        Ok(())
    }
}

/// The `(owner, hops)` a route's answer frame carries.
fn owner_hops(msg: &WireMsg<'_>) -> Option<(u64, u32)> {
    match *msg {
        WireMsg::AnswerOwner { owner, hops, .. } => Some((owner, hops)),
        _ => None,
    }
}

/// The outcome a routed answer frame carries.
fn routed(msg: &WireMsg<'_>) -> Option<OpOutcome> {
    match *msg {
        WireMsg::AnswerOwner { owner, hops, .. } => Some(OpOutcome::Route { owner, hops }),
        WireMsg::AnswerMatches {
            hops,
            visited,
            ref matches,
            ..
        } => Some(OpOutcome::Matches {
            matches: matches.to_vec(),
            hops,
            visited,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::CurveRanks;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Ranks equal a sorted list's through joins and departures that
    /// split blocks, empty them and crowd equal keys together.
    #[test]
    fn curve_ranks_follow_a_sorted_list() {
        let mut rng = StdRng::seed_from_u64(52);
        let mut ranks = CurveRanks { blocks: Vec::new() };
        let mut model: Vec<u64> = Vec::new();
        let (mut next_id, mut most_blocks) = (0u64, 0);
        for step in 0..12_000 {
            let probe = u64::from(rng.random::<u32>() % 64) << 32 | next_id;
            let expected = model.partition_point(|&e| e < probe) as u64;
            assert_eq!(ranks.rank(probe), expected, "step {step}");
            // Joins outnumber departures until step 6 000, then the
            // population drains to nothing and refills.
            let joins_in_ten = if step < 6_000 { 8 } else { 1 };
            if model.is_empty() || rng.random_range(0..10u32) < joins_in_ten {
                ranks.insert(probe);
                model.insert(expected as usize, probe);
                next_id += 1;
            } else {
                let gone = model.remove(rng.random_range(0..model.len()));
                ranks.remove(gone);
            }
            let blocks = &ranks.blocks;
            assert!(blocks
                .iter()
                .all(|b| !b.is_empty() && b.len() < 2 * CurveRanks::BLOCK));
            assert!(blocks.iter().flatten().eq(model.iter()), "step {step}");
            most_blocks = most_blocks.max(blocks.len());
        }
        assert!(most_blocks > 2 && ranks.blocks.len() <= 1, "{most_blocks}");
    }
}
