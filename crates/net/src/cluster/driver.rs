//! The control plane: the authoritative tessellation, view distribution
//! to the hosts, and the overlay operations (membership, routes, area
//! queries, stats) — each one "queue entries, pump, read the replies".

use super::liveness::{FailureDetector, HostState, Liveness};
use super::pump::{Completes, Ladder, PendingTable, RetryPolicy, SYNC_DEADLINE};
use super::services::KvPlacement;
use super::{host_of, ClusterError, ClusterStats, HostReport, OpOutcome, DRIVER_PEER};
use crate::transport::{PeerId, Transport};
use crate::wire::{EntryList, IdList, PointList, WireMsg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;
use voronet_core::{ObjectId, VoroNet, VoroNetConfig, VoronetError};
use voronet_geom::{voronoi_cell, Point2, Rect};
use voronet_sim::TransportStats;
use voronet_workloads::{RadiusQuery, RangeQuery, WorkloadOp};

/// What was last shipped to a host for one object; views are re-pushed
/// only when this differs from the freshly materialised state.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ShippedView {
    pub(super) coords: Point2,
    pub(super) routing: Vec<(u64, Point2)>,
    pub(super) vn: Vec<u64>,
    pub(super) cell: Vec<Point2>,
}

/// The cluster controller: authoritative tessellation + view
/// distribution + request/answer correlation.  Generic over the
/// transport, so the same driver runs on vnet, UDP and TCP.
pub struct Driver<T: Transport> {
    pub(super) t: T,
    pub(super) hosts: u64,
    pub(super) net: VoroNet,
    pub(super) shipped: HashMap<u64, ShippedView>,
    seqs: HashMap<u64, u64>,
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
    pub(super) subs: BTreeMap<u64, Rect>,
    pub(super) topic_seqs: HashMap<[u64; 4], u64>,
    pub(super) kv: BTreeMap<u64, KvPlacement>,
    pub(super) svc_seqs: HashMap<u64, u64>,
    pub(super) kv_seq: u64,
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
        let detector = FailureDetector::new(hosts, transport.now());
        Driver {
            t: transport,
            hosts,
            net: VoroNet::new(config),
            shipped: HashMap::new(),
            seqs: HashMap::new(),
            synced: Some(0),
            next_token: 1,
            buf: Vec::new(),
            table: PendingTable::default(),
            subs: BTreeMap::new(),
            topic_seqs: HashMap::new(),
            kv: BTreeMap::new(),
            svc_seqs: HashMap::new(),
            kv_seq: 0,
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
        let peer = host_of(object, self.hosts);
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
        let seq = self.seqs.entry(object).or_insert(0);
        *seq += 1;
        let seq = *seq;
        self.queue(
            host_of(object, self.hosts),
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
        let (mut routing, mut vn, mut cell) = (Vec::new(), Vec::new(), Vec::new());
        let mut pushed = Vec::new();
        for &object in candidates {
            let current = self.current_view(object);
            self.stats.view_builds += 1;
            if self.shipped.get(&object) == Some(&current) {
                continue;
            }
            self.stats.view_pushes += 1;
            self.queue_view_push(object, |seq| WireMsg::ViewUpdate {
                object,
                seq,
                coords: current.coords,
                routing: EntryList::build(&mut routing, &current.routing),
                vn: IdList::build(&mut vn, &current.vn),
                cell: PointList::build(&mut cell, &current.cell),
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
            let hosts = self.hosts;
            // Forget what was shipped to the revived host so sync_views
            // re-pushes every view it must hold, and re-evict departed
            // objects whose eviction it may have missed.
            self.shipped
                .retain(|&object, _| host_of(object, hosts) != peer);
            let mut stale: Vec<u64> = self
                .seqs
                .keys()
                .copied()
                .filter(|&object| {
                    host_of(object, hosts) == peer && self.net.coords(ObjectId(object)).is_none()
                })
                .collect();
            stale.sort_unstable();
            self.sync_views(&stale, None)?;
            self.replay_services(peer)?;
        }
        self.synced = synced;
        Ok(())
    }

    /// The start of every indexed operation: regenerates revived hosts,
    /// then names the `index`-th live object; `None` on an empty overlay.
    pub(super) fn origin(&mut self, index: usize) -> Result<Option<u64>, ClusterError> {
        if self.net.is_empty() {
            return Ok(None);
        }
        self.service_revivals()?;
        Ok(self.net.id_at(index % self.net.len()).map(|id| id.0))
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
        self.propagate(&[])?;
        Ok(Ok(report.id))
    }

    /// Removes the `index`-th live object (modulo the population) and
    /// synchronises the survivors' views.  `Ok(None)` when the overlay
    /// refuses the departure (population floor).
    pub fn remove_index(&mut self, index: usize) -> Result<Option<u64>, ClusterError> {
        let Some(id) = self.origin(index)?.map(ObjectId) else {
            return Ok(None);
        };
        Ok(self.leave(id)?.ok().map(|()| id.0))
    }

    /// Removes `id` and synchronises the survivors' views; the inner error
    /// is what [`VoroNet::remove`] returned.  Expects revived hosts to be
    /// serviced already.
    pub(super) fn leave(&mut self, id: ObjectId) -> Result<Result<(), VoronetError>, ClusterError> {
        if let Err(refused) = self.net.remove(id) {
            return Ok(Err(refused));
        }
        // The evicted host drops the departed object's service state with
        // it; the driver's control state follows.
        self.subs.remove(&id.0);
        self.propagate(&[id.0])?;
        Ok(Ok(()))
    }

    /// Queues the route from the `from`-th live object towards the
    /// `to`-th one's coordinates.
    fn queue_route(&mut self, from: usize, to: usize) {
        let n = self.net.len();
        let from_object = self.net.id_at(from % n).expect("index below len").0;
        let to_id = self.net.id_at(to % n).expect("index below len");
        let target = self.net.coords(to_id).expect("live object");
        self.queue_route_to(from_object, target);
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

    /// Routes from the `from`-th live object towards the `to`-th one's
    /// coordinates through the distributed overlay — a pipelined batch
    /// of one.
    pub fn route_indices(&mut self, from: usize, to: usize) -> Result<OpOutcome, ClusterError> {
        if self.net.is_empty() {
            return Ok(OpOutcome::Skipped);
        }
        self.service_revivals()?;
        self.queue_route(from, to);
        self.pump_one("route", routed)
    }

    /// Routes from `from_object` towards `target`: `(owner, hops)`.
    /// Expects revived hosts to be serviced already.
    pub(super) fn route_from(
        &mut self,
        from_object: u64,
        target: Point2,
    ) -> Result<(u64, u32), ClusterError> {
        self.queue_route_to(from_object, target);
        self.pump_one("route", owner_hops)
    }

    /// Routes a batch of `(from, to)` index pairs with up to `window`
    /// operations in flight at once, sharing one receive pump.
    ///
    /// Unlike issuing [`Self::route_indices`] in a loop — where one
    /// operation waiting out its attempt timeout head-of-line-blocks
    /// every operation behind it — each in-flight route here keeps its
    /// own attempt ladder, fast-resend timer and budget, so a single
    /// route stalled on a lossy or crashed hop cannot stall the rest of
    /// the batch.  Results come back in input order; an entry whose
    /// route never answered within its budget (or whose origin host was
    /// dead) carries `owner_hops: None` plus the time spent on it.
    pub fn route_indices_pipelined(
        &mut self,
        pairs: &[(usize, usize)],
        window: usize,
    ) -> Result<Vec<PipelinedRoute>, ClusterError> {
        let mut results = vec![
            PipelinedRoute {
                owner_hops: None,
                latency: Duration::ZERO,
            };
            pairs.len()
        ];
        if self.net.is_empty() || pairs.is_empty() {
            return Ok(results);
        }
        self.service_revivals()?;
        for &(from, to) in pairs {
            self.queue_route(from, to);
        }
        self.pump_routes(window, |slot, verdict, latency| {
            results[slot] = PipelinedRoute {
                owner_hops: verdict.ok(),
                latency,
            };
        })?;
        Ok(results)
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

    /// Executes a distributed rectangular range query issued by the
    /// `from`-th live object.
    pub fn range_query(
        &mut self,
        from: usize,
        query: RangeQuery,
    ) -> Result<OpOutcome, ClusterError> {
        let Some(from_object) = self.origin(from)? else {
            return Ok(OpOutcome::Skipped);
        };
        self.range_from(from_object, query)
    }

    /// [`Self::range_query`] issued by `from_object`.  Expects revived
    /// hosts to be serviced already.
    pub(super) fn range_from(
        &mut self,
        from_object: u64,
        query: RangeQuery,
    ) -> Result<OpOutcome, ClusterError> {
        self.query(from_object, "range query", |token| WireMsg::AreaReq {
            token,
            from_object,
            rect: query.rect,
        })
    }

    /// Executes a distributed radius query issued by the `from`-th live
    /// object.
    pub fn radius_query(
        &mut self,
        from: usize,
        query: RadiusQuery,
    ) -> Result<OpOutcome, ClusterError> {
        let Some(from_object) = self.origin(from)? else {
            return Ok(OpOutcome::Skipped);
        };
        self.radius_from(from_object, query)
    }

    /// [`Self::radius_query`] issued by `from_object`.  Expects revived
    /// hosts to be serviced already.
    pub(super) fn radius_from(
        &mut self,
        from_object: u64,
        query: RadiusQuery,
    ) -> Result<OpOutcome, ClusterError> {
        self.query(from_object, "radius query", |token| WireMsg::RadiusReq {
            token,
            from_object,
            center: query.center,
            radius: query.radius,
        })
    }

    /// Applies one scripted [`WorkloadOp`] to the cluster.
    pub fn apply(&mut self, op: &WorkloadOp) -> Result<OpOutcome, ClusterError> {
        match *op {
            WorkloadOp::Insert { position } => Ok(OpOutcome::Inserted(self.insert(position)?)),
            WorkloadOp::Remove { index } => Ok(OpOutcome::Removed(self.remove_index(index)?)),
            WorkloadOp::Route { from, to } => self.route_indices(from, to),
            WorkloadOp::Range { from, query } => self.range_query(from, query),
            WorkloadOp::Radius { from, query } => self.radius_query(from, query),
            WorkloadOp::Snapshot { .. } => Ok(OpOutcome::Skipped),
            WorkloadOp::Subscribe { index, region } => self.subscribe(index, region),
            WorkloadOp::Unsubscribe { index } => self.unsubscribe(index),
            WorkloadOp::Publish {
                from,
                region,
                payload,
            } => self.publish(from, region, payload),
            WorkloadOp::KvPut { from, key, value } => self.kv_put(from, key, value),
            WorkloadOp::KvGet { from, key } => self.kv_get(from, key),
            WorkloadOp::KvDelete { from, key } => self.kv_delete(from, key),
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

/// One completed route of a [`Driver::route_indices_pipelined`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedRoute {
    /// `Some((owner, hops))` when the route answered within its budget;
    /// `None` when it timed out or its origin host was dead.
    pub owner_hops: Option<(u64, u32)>,
    /// Time from issuing the operation to its completion (or
    /// abandonment), on the transport's clock.
    pub latency: Duration,
}
