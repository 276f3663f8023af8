//! Message-driven execution of the VoroNet protocol on the asynchronous
//! per-node runtime of `voronet-sim`.
//!
//! The rest of this crate executes every operation synchronously inside one
//! [`VoroNet`] value — the right tool for reproducing the paper's figures,
//! where only logical counts matter.  This module is the asynchronous
//! counterpart: every live object becomes an independent state machine (a
//! `NodeState` holding the view snapshot it captured at its last refresh,
//! pre-flattened into a routing table), and every protocol step is a typed
//! [`ProtocolMsg`] travelling through a [`Runtime`] under a pluggable
//! [`NetworkModel`] — latency, loss and partition windows included.
//!
//! ## What is distributed and what is shared
//!
//! The authoritative per-node state lives once, in the vertex-keyed
//! columns and routing rows of the [`crate::VoroNet`] shared with the
//! synchronous overlay; replicas read through it only at *refresh boundaries* (spawn and
//! [`ProtocolMsg::NeighborUpdate`] delivery), where the borrowed
//! [`crate::ViewRef`] is materialised into the owned [`ObjectView`] snapshot
//! that a real deployment would have received in the message body.  Routing
//! decisions are made *purely from that local snapshot*: a node forwards a
//! [`ProtocolMsg::RouteStep`] by scanning its flat `(peer, coords)` routing
//! table — coordinates are immutable object identifiers, so inlining them
//! is caching, not sharing — and allocates nothing per hop.  Under message
//! loss, snapshots go stale and routes can dead-letter at departed nodes —
//! exactly the failure modes a decentralised deployment would see.
//! Structural mutations (`AddVoronoiRegion` / `RemoveVoronoiRegion`) are
//! applied to the shared authoritative tessellation once the triggering
//! message *arrives* at the responsible node, standing in for the purely
//! local Sugihara–Iri incremental construction of the paper; the resulting
//! view changes then propagate to the affected nodes as
//! [`ProtocolMsg::NeighborUpdate`] messages that are themselves subject to
//! network conditions.  (The routing hops of long-link establishment are
//! likewise folded into the join; see `JoinReport::long_link_hops` for the
//! synchronous accounting.)
//!
//! On a loss-free network at quiescence every cached view equals the
//! authoritative view, and the message-driven greedy route takes the exact
//! same steps as [`VoroNet::route_to_point`] — asserted by the tests in
//! `tests/async_runtime.rs`.
//!
//! ## Determinism
//!
//! For a fixed overlay config, scenario and network seed, two runs produce
//! identical [`ScenarioReport`]s (traffic, route samples, delivery counters)
//! — the scheduler breaks ties deterministically and both the network model
//! and the workload RNG consume randomness in event order.

use crate::config::VoroNetConfig;
use crate::error::{ErrorKind, VoronetError};
use crate::object::{ObjectId, ObjectView};
use crate::overlay::VoroNet;
use crate::protocol::resolve_owner_locally;
use crate::queries::{radius_query, range_query, AreaQueryReport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use voronet_geom::{distance_to_region, greedy_next, Point2, Rect};
use voronet_sim::{
    Delivered, DeliveryStats, MessageKind, NetworkModel, NodeId, RouteStats, Runtime, Scenario,
    ScenarioOp, SimTime, TrafficStats,
};
use voronet_workloads::{RadiusQuery, RangeQuery};

/// Highest provisional sender id handed to joining objects.  Each join
/// request is sent from a *unique* provisional id counting down from here,
/// so joiners are spread across partition components like any other host
/// instead of all sharing one component.  Provisional ids never collide
/// with object ids, which count up from zero.
const JOINER: NodeId = NodeId::MAX;

/// True when `node` is a provisional joiner id rather than a live object
/// (useful when interpreting per-sender traffic).
pub fn is_joiner(node: NodeId) -> bool {
    node > NodeId::MAX - (1 << 32)
}

/// Correlation token attached to externally issued operations so their
/// results can be collected after quiescence.  `UNTRACKED` (0) marks
/// scenario-scripted operations whose individual results nobody waits for.
pub type OpToken = u64;

/// Token of operations whose result is not collected (scripted scenario
/// traffic).
pub const UNTRACKED: OpToken = 0;

/// Why a route is being executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutePurpose {
    /// Locate the region owner for a joining object, then insert it there.
    Join {
        /// Position of the joining object.
        position: Point2,
        /// Result-correlation token ([`UNTRACKED`] for scripted joins).
        token: OpToken,
    },
    /// A point query: record the hop count and answer the origin.
    Query {
        /// Result-correlation token ([`UNTRACKED`] for scripted routes).
        token: OpToken,
    },
    /// An area query: on arrival, flood the target rectangle.
    AreaQuery {
        /// Queried rectangle.
        rect: Rect,
        /// Result-correlation token ([`UNTRACKED`] for scripted queries).
        token: OpToken,
    },
    /// A radius (disk) query: on arrival, flood the target disk.
    RadiusQuery {
        /// Queried disk.
        query: RadiusQuery,
        /// Result-correlation token ([`UNTRACKED`] for scripted queries).
        token: OpToken,
    },
}

/// A typed protocol message exchanged between per-node state machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolMsg {
    /// Request from a not-yet-joined object to its bootstrap node.
    Join {
        /// Position the new object wants to publish.
        position: Point2,
        /// Result-correlation token ([`UNTRACKED`] for scripted joins).
        token: OpToken,
    },
    /// One greedy forwarding step (`Spawn(Route, …)` in the paper).
    RouteStep {
        /// Point the route converges towards.
        target: Point2,
        /// Node that initiated the route (receives the answer).
        origin: NodeId,
        /// Forwarding steps taken so far.
        hops: u32,
        /// What to do on arrival.
        purpose: RoutePurpose,
    },
    /// "Your neighbourhood changed — refresh your view."  Carries the
    /// updated view implicitly (the receiving state machine pulls it from
    /// the authoritative tessellation on delivery).
    NeighborUpdate,
    /// Departure notification from `RemoveVoronoiRegion`.
    Leave,
    /// Liveness probe; `reply` distinguishes the echo.
    Ping {
        /// True on the echo leg.
        reply: bool,
    },
    /// Route answer delivered back to the origin.
    Answer {
        /// Hop count of the completed route.
        hops: u32,
        /// Result-correlation token of the operation being answered
        /// ([`UNTRACKED`] for scripted traffic).
        token: OpToken,
    },
}

/// A hook through which every [`ProtocolMsg`] the asynchronous runtime
/// sends can be passed before entering the (simulated) network.
///
/// `voronet-net` installs its frame codec here: the message is encoded
/// into a wire frame and decoded back, so the simulated path exercises
/// the exact bytes a deployed node would exchange while delivery
/// decisions, timing and accounting stay bit-identical — pinned by
/// `tests/api_conformance.rs`.
pub trait WireTap: Send {
    /// Transforms a message on its way into the network.  A transparent
    /// codec returns a value equal to `msg`; the conformance suite
    /// asserts the whole run is unchanged.
    fn roundtrip(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: MessageKind,
        msg: ProtocolMsg,
    ) -> ProtocolMsg;

    /// Clones the tap for [`AsyncOverlay`]'s `Clone` implementation.
    fn clone_box(&self) -> Box<dyn WireTap>;
}

impl Clone for Box<dyn WireTap> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// How `RouteStep` messages pick the next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Plain greedy walk to the owner (the walk measured by Figures 6–8).
    #[default]
    Greedy,
    /// Algorithm 5: greedy walk with the paper's early-stop condition
    /// (`d(z, t) ≤ ⅓·d(t, cur)` or `d(t, cur) ≤ d_min`) followed by local
    /// resolution, as in [`crate::protocol::algorithm5_route`].
    Algorithm5,
}

/// Per-node replica state: what this object knows locally — the snapshot it
/// captured from the shared overlay the last time a refresh reached it.
#[derive(Debug, Clone)]
struct NodeState {
    /// Owned view snapshot (the `NeighborUpdate` message payload).
    view: ObjectView,
    /// The view's routing neighbours (`vn ∪ cn ∪ LRn`, sorted, deduped)
    /// flattened into one slice with each peer's coordinates inlined
    /// (attribute coordinates are immutable, so the cache can only be
    /// incomplete, never wrong).  `RouteStep` scans this without touching
    /// the heap.
    routing: Vec<(ObjectId, Point2)>,
}

/// Operation counters of one scenario execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioCounters {
    /// Join operations injected.
    pub joins_requested: u64,
    /// Joins whose insertion completed.
    pub joins_completed: u64,
    /// Joins rejected (duplicate position, invalid position).
    pub joins_failed: u64,
    /// Graceful departures executed.
    pub leaves: u64,
    /// Routes started.
    pub routes_started: u64,
    /// Routes that reached their owner.
    pub routes_completed: u64,
    /// Route answers that made it back to the origin.
    pub answers_received: u64,
    /// Area queries completed (flood phase executed).
    pub area_queries_completed: u64,
    /// Total objects matched by completed area queries.
    pub area_query_matches: u64,
    /// Ping probes sent.
    pub pings: u64,
    /// Ping echoes received.
    pub pongs: u64,
    /// Operations skipped because the population was too small.
    pub ops_skipped: u64,
}

/// Result of running a [`Scenario`] on the asynchronous runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Message-level traffic recorded by the runtime.
    pub traffic: TrafficStats,
    /// Hop counts of completed routes.
    pub routes: RouteStats,
    /// Message delivery counters (sent / delivered / dropped / dead).
    pub delivery: DeliveryStats,
    /// Operation counters.
    pub counters: ScenarioCounters,
    /// Live objects at the end of the run.
    pub population: usize,
    /// Logical time at quiescence.
    pub end_time: SimTime,
}

/// The VoroNet protocol executing message-by-message over the asynchronous
/// runtime.
#[derive(Clone)]
pub struct AsyncOverlay {
    net: VoroNet,
    nodes: HashMap<NodeId, NodeState>,
    runtime: Runtime<ProtocolMsg, ScenarioOp>,
    rng: StdRng,
    mode: RoutingMode,
    routes: RouteStats,
    counters: ScenarioCounters,
    /// Next token handed to an externally issued (tracked) operation.
    next_token: OpToken,
    /// Completed tracked routes, keyed by token (drained by
    /// [`AsyncOverlay::take_route_result`]).  A route is *complete* when
    /// its answer message reaches the origin — an answer lost to the
    /// network fails the operation, exactly as the issuing node would
    /// experience it.
    route_results: HashMap<OpToken, (ObjectId, u32)>,
    /// Completed tracked area/radius queries, keyed by token (answer
    /// delivered to the origin).
    area_results: HashMap<OpToken, AreaQueryReport>,
    /// Reports of tracked area/radius queries whose flood completed at the
    /// responsible node but whose answer is still in flight; claimed into
    /// [`AsyncOverlay::area_results`] when the answer arrives, dropped if
    /// it never does.
    pending_area: HashMap<OpToken, AreaQueryReport>,
    /// Outcomes of tracked join requests (id on success, the join error
    /// otherwise), keyed by token.
    join_results: HashMap<OpToken, Result<ObjectId, VoronetError>>,
    /// Next provisional sender id for a join request (counts down from
    /// [`JOINER`]).
    next_joiner: NodeId,
    /// Scripted `Leave` operations are skipped at or below this population.
    min_population: usize,
    /// Optional wire-codec hook every outgoing message passes through.
    wire_tap: Option<Box<dyn WireTap>>,
}

impl AsyncOverlay {
    /// Creates an empty asynchronous overlay.  `seed` drives the runner's
    /// workload choices (bootstrap and participant selection); the overlay's
    /// own stochastic choices use `config.seed` as in the synchronous path.
    pub fn new(config: VoroNetConfig, network: NetworkModel, seed: u64) -> Self {
        AsyncOverlay {
            net: VoroNet::new(config),
            nodes: HashMap::new(),
            runtime: Runtime::new(network),
            rng: StdRng::seed_from_u64(seed ^ 0x0A57_C0DE),
            mode: RoutingMode::default(),
            routes: RouteStats::new(),
            counters: ScenarioCounters::default(),
            next_token: 1,
            route_results: HashMap::new(),
            area_results: HashMap::new(),
            pending_area: HashMap::new(),
            join_results: HashMap::new(),
            next_joiner: JOINER,
            min_population: 8,
            wire_tap: None,
        }
    }

    /// Selects the routing mode for subsequent `RouteStep` handling.
    fn with_routing_mode(mut self, mode: RoutingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Installs a [`WireTap`] through which every subsequently sent
    /// protocol message passes (e.g. the `voronet-net` frame codec
    /// round-trip).  Passing a transparent tap leaves every observable
    /// result bit-identical.
    pub fn set_wire_tap(&mut self, tap: Box<dyn WireTap>) {
        self.wire_tap = Some(tap);
    }

    /// Sends one protocol message through the optional wire tap and into
    /// the runtime's network.
    fn transmit(&mut self, from: NodeId, to: NodeId, kind: MessageKind, msg: ProtocolMsg) -> bool {
        let msg = match self.wire_tap.as_mut() {
            Some(tap) => tap.roundtrip(from, to, kind, msg),
            None => msg,
        };
        self.runtime.send(from, to, kind, msg)
    }

    /// Sets the population floor below which scripted `Leave` operations
    /// are skipped (and counted in
    /// [`ScenarioCounters::ops_skipped`]).  Defaults to 8; set to 0 to let a
    /// scenario empty the overlay entirely.
    pub fn with_min_population(mut self, min: usize) -> Self {
        self.min_population = min;
        self
    }

    /// Read access to the authoritative overlay.
    pub fn net(&self) -> &VoroNet {
        &self.net
    }

    /// The cached local view of a live replica (`None` for unknown nodes).
    /// On a loss-free network at quiescence this equals
    /// [`VoroNet::view`]; under loss it may be stale.
    pub fn replica_view(&self, id: ObjectId) -> Option<&ObjectView> {
        self.nodes.get(&id.0).map(|s| &s.view)
    }

    /// Schedules a scripted operation at an absolute time (the primitive
    /// behind [`run_scenario`]).
    pub fn schedule_op(&mut self, at: SimTime, op: ScenarioOp) {
        self.runtime.schedule_control_at(at, op);
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.runtime.now()
    }

    /// Hop samples of completed routes.
    pub fn routes(&self) -> &RouteStats {
        &self.routes
    }

    /// Operation counters so far.
    pub fn counters(&self) -> ScenarioCounters {
        self.counters
    }

    /// Message-level traffic so far.
    pub fn traffic(&self) -> &TrafficStats {
        self.runtime.traffic()
    }

    /// Delivery counters so far.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.runtime.delivery_stats()
    }

    /// Live population (authoritative and replica counts always agree).
    pub fn population(&self) -> usize {
        self.net.len()
    }

    /// Inserts `points` synchronously (duplicates skipped) and initialises
    /// every replica with a fresh view: the pre-existing overlay a scenario
    /// runs against.
    pub fn warmup(&mut self, points: &[Point2]) -> Vec<ObjectId> {
        let mut ids = Vec::with_capacity(points.len());
        for &p in points {
            match self.net.insert(p) {
                Ok(r) => ids.push(r.id),
                Err(e) if matches!(e.kind(), ErrorKind::DuplicatePosition(_)) => continue,
                Err(e) => panic!("warmup insertion failed: {e}"),
            }
        }
        for id in self.net.ids().collect::<Vec<_>>() {
            self.runtime.spawn(id.0);
            self.refresh_view(id);
        }
        ids
    }

    /// Runs until no message is in flight and no control event is pending.
    pub fn run_to_quiescence(&mut self) {
        while let Some(event) = self.runtime.step() {
            self.handle(event);
        }
    }

    /// Measures one message-driven route between two live objects: injects
    /// the route, runs to quiescence and returns `(owner, hops)` — `None`
    /// when the route was lost to the network.
    pub fn measure_route(&mut self, from: ObjectId, to: ObjectId) -> Option<(ObjectId, u32)> {
        let target = self.net.coords(to)?;
        let token = self.start_query_route(from, target).ok()?;
        self.run_to_quiescence();
        self.take_route_result(token)
    }

    // ------------------------------------------------------------------
    // Externally issued (tracked) operations — the driver API behind the
    // backend-agnostic `voronet-api` engines.  Each `start_*` injects the
    // operation's first protocol message and returns a correlation token;
    // once the runtime has been stepped to quiescence the matching `take_*`
    // yields the result (`None` when the operation's messages were lost to
    // the network).
    // ------------------------------------------------------------------

    /// Injects a tracked join request for an object at `position`, exactly
    /// as a scripted [`ScenarioOp::Join`] would, except that the bootstrap
    /// node is drawn from the *overlay's* RNG ([`VoroNet::draw_bootstrap`])
    /// so a sequential join consumes randomness in the same order as the
    /// synchronous [`VoroNet::insert`].  The outcome is retrieved with
    /// [`AsyncOverlay::take_join_result`] after quiescence.
    pub fn request_join(&mut self, position: Point2) -> OpToken {
        let token = self.next_token;
        self.next_token += 1;
        self.inject_join(position, token);
        token
    }

    /// The outcome of the tracked join request `token`: the new object's
    /// id, the [`VoronetError`] that rejected it, or `None` when the join has
    /// not completed (still in flight, or lost to the network).  Unlike
    /// routes and queries, the join protocol has no answer leg — the
    /// outcome is the overlay membership itself, recorded when
    /// `AddVoronoiRegion` executes at the region owner.
    pub fn take_join_result(&mut self, token: OpToken) -> Option<Result<ObjectId, VoronetError>> {
        self.join_results.remove(&token)
    }

    /// Graceful departure of a *specific* live object (scripted
    /// [`ScenarioOp::Leave`] picks a random one): neighbourhood
    /// notifications are sent, then the object withdraws.
    pub fn request_leave(&mut self, id: ObjectId) -> Result<(), VoronetError> {
        if !self.net.contains(id) {
            return Err(VoronetError::unknown(id));
        }
        self.depart(id);
        Ok(())
    }

    /// Starts a tracked message-driven point route from `from` towards
    /// `target`; the result is collected with
    /// [`AsyncOverlay::take_route_result`] after quiescence.
    pub fn start_query_route(
        &mut self,
        from: ObjectId,
        target: Point2,
    ) -> Result<OpToken, VoronetError> {
        if !self.net.contains(from) {
            return Err(VoronetError::unknown(from));
        }
        let token = self.next_token;
        self.next_token += 1;
        self.start_route(from, target, RoutePurpose::Query { token });
        Ok(token)
    }

    /// `(owner, hops)` of the tracked route `token`, `None` when its
    /// answer has not reached the origin (request or answer still in
    /// flight, or lost to the network).
    pub fn take_route_result(&mut self, token: OpToken) -> Option<(ObjectId, u32)> {
        self.route_results.remove(&token)
    }

    /// Starts a tracked message-driven rectangular area query issued by
    /// `from`; the report is collected with
    /// [`AsyncOverlay::take_area_result`] after quiescence.
    pub fn start_area_query(
        &mut self,
        from: ObjectId,
        rect: Rect,
    ) -> Result<OpToken, VoronetError> {
        if !self.net.contains(from) {
            return Err(VoronetError::unknown(from));
        }
        let token = self.next_token;
        self.next_token += 1;
        self.start_route(from, rect.center(), RoutePurpose::AreaQuery { rect, token });
        Ok(token)
    }

    /// Starts a tracked message-driven radius (disk) query issued by
    /// `from`; the report is collected with
    /// [`AsyncOverlay::take_area_result`] after quiescence.
    pub fn start_radius_query(
        &mut self,
        from: ObjectId,
        query: RadiusQuery,
    ) -> Result<OpToken, VoronetError> {
        if !self.net.contains(from) {
            return Err(VoronetError::unknown(from));
        }
        let token = self.next_token;
        self.next_token += 1;
        self.start_route(
            from,
            query.center,
            RoutePurpose::RadiusQuery { query, token },
        );
        Ok(token)
    }

    /// The report of the tracked area/radius query `token`, `None` when
    /// its answer has not reached the origin.  Taking a token also drops
    /// any owner-side report whose answer was lost, so abandoned
    /// operations do not accumulate.
    pub fn take_area_result(&mut self, token: OpToken) -> Option<AreaQueryReport> {
        self.pending_area.remove(&token);
        self.area_results.remove(&token)
    }

    /// Consumes the overlay into a report.
    fn into_report(self, scenario: impl Into<String>) -> ScenarioReport {
        ScenarioReport {
            scenario: scenario.into(),
            traffic: self.runtime.traffic().clone(),
            routes: self.routes,
            delivery: self.runtime.delivery_stats(),
            counters: self.counters,
            population: self.net.len(),
            end_time: self.runtime.now(),
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Delivered<ProtocolMsg, ScenarioOp>) {
        match event {
            Delivered::Control { payload, .. } => self.inject_op(payload),
            Delivered::Message { envelope, .. } => {
                let at = ObjectId(envelope.to);
                match envelope.payload {
                    ProtocolMsg::Join { position, token } => {
                        // The bootstrap node starts routing the join request
                        // towards the region owner.
                        self.start_route(at, position, RoutePurpose::Join { position, token });
                    }
                    ProtocolMsg::RouteStep {
                        target,
                        origin,
                        hops,
                        purpose,
                    } => self.route_step(at, target, origin, hops, purpose),
                    ProtocolMsg::NeighborUpdate | ProtocolMsg::Leave => {
                        self.refresh_view(at);
                    }
                    ProtocolMsg::Ping { reply } => {
                        if reply {
                            self.counters.pongs += 1;
                        } else {
                            self.transmit(
                                at.0,
                                envelope.from,
                                MessageKind::Other,
                                ProtocolMsg::Ping { reply: true },
                            );
                        }
                    }
                    ProtocolMsg::Answer { hops, token } => {
                        self.counters.answers_received += 1;
                        if token != UNTRACKED {
                            // The operation is complete for its issuer only
                            // now that the answer has arrived.  The sender
                            // of an answer is the responsible node (the
                            // route owner).
                            match self.pending_area.remove(&token) {
                                Some(report) => {
                                    self.area_results.insert(token, report);
                                }
                                None => {
                                    self.route_results
                                        .insert(token, (ObjectId(envelope.from), hops));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Shared join-injection path: the very first object is inserted
    /// directly (it needs no network); every other join sends a
    /// [`ProtocolMsg::Join`] from a fresh provisional id to a bootstrap
    /// object drawn from the overlay's RNG (matching the synchronous
    /// [`VoroNet::insert`] draw order).
    fn inject_join(&mut self, position: Point2, token: OpToken) {
        self.counters.joins_requested += 1;
        match self.net.draw_bootstrap() {
            None => {
                // The very first object needs no network.
                match self.net.insert_from(position, None) {
                    Ok(r) => {
                        self.runtime.spawn(r.id.0);
                        self.refresh_view(r.id);
                        self.counters.joins_completed += 1;
                        self.record_join(token, Ok(r.id));
                    }
                    Err(e) => {
                        self.counters.joins_failed += 1;
                        self.record_join(token, Err(e));
                    }
                }
            }
            Some(bootstrap) => {
                let joiner = self.next_joiner;
                self.next_joiner -= 1;
                self.transmit(
                    joiner,
                    bootstrap.0,
                    MessageKind::Other,
                    ProtocolMsg::Join { position, token },
                );
            }
        }
    }

    fn record_join(&mut self, token: OpToken, outcome: Result<ObjectId, VoronetError>) {
        if token != UNTRACKED {
            self.join_results.insert(token, outcome);
        }
    }

    fn inject_op(&mut self, op: ScenarioOp) {
        match op {
            ScenarioOp::Join { at } => self.inject_join(at, UNTRACKED),
            ScenarioOp::Leave => {
                if self.net.len() <= self.min_population {
                    self.counters.ops_skipped += 1;
                    return;
                }
                let departing = self.random_live();
                self.depart(departing);
            }
            ScenarioOp::Route => {
                let Some((a, b)) = self.random_live_pair() else {
                    self.counters.ops_skipped += 1;
                    return;
                };
                let target = self.net.coords(b).expect("picked live object");
                self.start_route(a, target, RoutePurpose::Query { token: UNTRACKED });
            }
            ScenarioOp::RouteTo { target } => {
                if self.net.is_empty() {
                    self.counters.ops_skipped += 1;
                    return;
                }
                let from = self.random_live();
                self.start_route(from, target, RoutePurpose::Query { token: UNTRACKED });
            }
            ScenarioOp::AreaQuery { rect } => {
                if self.net.is_empty() {
                    self.counters.ops_skipped += 1;
                    return;
                }
                let from = self.random_live();
                self.start_route(
                    from,
                    rect.center(),
                    RoutePurpose::AreaQuery {
                        rect,
                        token: UNTRACKED,
                    },
                );
            }
            ScenarioOp::Ping => {
                let Some((a, b)) = self.random_live_pair() else {
                    self.counters.ops_skipped += 1;
                    return;
                };
                self.counters.pings += 1;
                self.transmit(
                    a.0,
                    b.0,
                    MessageKind::Other,
                    ProtocolMsg::Ping { reply: false },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Routing (local decisions over cached views)
    // ------------------------------------------------------------------

    fn start_route(&mut self, from: ObjectId, target: Point2, purpose: RoutePurpose) {
        if matches!(purpose, RoutePurpose::Query { .. }) {
            self.counters.routes_started += 1;
        }
        self.route_step(from, target, from.0, 0, purpose);
    }

    /// Handles a `RouteStep` arriving at (or starting from) `cur`: either
    /// the route has arrived and the purpose completes here, or the message
    /// is forwarded to the neighbour of `cur`'s *local view* closest to the
    /// target.
    fn route_step(
        &mut self,
        cur: ObjectId,
        target: Point2,
        origin: NodeId,
        hops: u32,
        purpose: RoutePurpose,
    ) {
        let Some(state) = self.nodes.get(&cur.0) else {
            return; // Replica disappeared between delivery and handling.
        };
        let cur_d = state.view.coords.distance2(target);

        if self.mode == RoutingMode::Algorithm5 && self.algorithm5_stop(cur, target) {
            let (owner, _) =
                resolve_owner_locally(&self.net, cur, target).expect("stopped at a live object");
            self.complete_route(owner, target, origin, hops, purpose);
            return;
        }

        // Greedyneighbour(Target) over the cached routing table.  The table
        // is sorted and deduplicated at refresh time, so the choice is
        // deterministic — and the scan allocates nothing.
        let (best, _) = greedy_next(target, (cur, cur_d), state.routing.iter().copied());
        if best == cur {
            self.complete_route(cur, target, origin, hops, purpose);
        } else {
            self.transmit(
                cur.0,
                best.0,
                MessageKind::RouteForward,
                ProtocolMsg::RouteStep {
                    target,
                    origin,
                    hops: hops + 1,
                    purpose,
                },
            );
        }
    }

    /// The Algorithm 5 early-stop condition, evaluated from `cur`'s own
    /// region (local information).
    fn algorithm5_stop(&self, cur: ObjectId, target: Point2) -> bool {
        let Some(vertex) = self.net.vertex_of(cur) else {
            return false;
        };
        let cur_coords = self.net.coords(cur).expect("live object");
        let d_cur = cur_coords.distance(target);
        if d_cur <= self.net.dmin() {
            return true;
        }
        let z = distance_to_region(self.net.triangulation(), vertex, target);
        z.distance(target) <= d_cur / 3.0
    }

    fn complete_route(
        &mut self,
        owner: ObjectId,
        _target: Point2,
        origin: NodeId,
        hops: u32,
        purpose: RoutePurpose,
    ) {
        match purpose {
            RoutePurpose::Join { position, token } => self.complete_join(owner, position, token),
            RoutePurpose::Query { token } => {
                // `routes_completed` counts protocol-level completions at
                // the responsible node; the *issuer's* tracked result is
                // recorded only when the answer below survives the trip
                // back to the origin.
                self.routes.record(hops);
                self.counters.routes_completed += 1;
                self.transmit(
                    owner.0,
                    origin,
                    MessageKind::QueryAnswer,
                    ProtocolMsg::Answer { hops, token },
                );
            }
            RoutePurpose::AreaQuery { rect, token } => {
                let report = range_query(&mut self.net, owner, RangeQuery { rect });
                self.complete_area_query(report, owner, origin, hops, token);
            }
            RoutePurpose::RadiusQuery { query, token } => {
                let report = radius_query(&mut self.net, owner, query);
                self.complete_area_query(report, owner, origin, hops, token);
            }
        }
    }

    /// Shared completion of the flood phase of an area/radius query: the
    /// flood itself is executed synchronously (it is a local wavefront over
    /// Voronoi edges); its per-hop cost is still accounted as protocol
    /// traffic.
    fn complete_area_query(
        &mut self,
        report: Result<AreaQueryReport, VoronetError>,
        owner: ObjectId,
        origin: NodeId,
        hops: u32,
        token: OpToken,
    ) {
        let Ok(mut report) = report else { return };
        // The flood skeleton was entered at the owner the message-driven
        // route already reached, so its own routing phase is trivial; the
        // report's routing hops are the hops of the message-driven route.
        report.routing_hops = hops;
        self.counters.area_queries_completed += 1;
        self.counters.area_query_matches += report.matches.len() as u64;
        for _ in 0..report.flood_messages {
            self.runtime.record_traffic(owner.0, MessageKind::Other);
        }
        if token != UNTRACKED {
            // Parked until the answer reaches the origin (see the
            // `Answer` handler); lost answers fail the query.
            self.pending_area.insert(token, report);
        }
        self.transmit(
            owner.0,
            origin,
            MessageKind::QueryAnswer,
            ProtocolMsg::Answer { hops, token },
        );
    }

    // ------------------------------------------------------------------
    // Membership changes
    // ------------------------------------------------------------------

    /// `AddVoronoiRegion` at the region owner: insert the object into the
    /// authoritative tessellation, spawn its replica with a fresh view, and
    /// notify every affected node so it refreshes its own.
    fn complete_join(&mut self, owner: ObjectId, position: Point2, token: OpToken) {
        match self.net.insert_from(position, Some(owner)) {
            Ok(report) => {
                let id = report.id;
                self.runtime.spawn(id.0);
                self.refresh_view(id);
                self.counters.joins_completed += 1;
                self.record_join(token, Ok(id));
                for peer in self.affected_by(id) {
                    self.transmit(
                        id.0,
                        peer.0,
                        MessageKind::VoronoiUpdate,
                        ProtocolMsg::NeighborUpdate,
                    );
                }
            }
            Err(e) => {
                self.counters.joins_failed += 1;
                self.record_join(token, Err(e));
            }
        }
    }

    /// `RemoveVoronoiRegion` initiated by `departing`: notify the
    /// neighbourhood, then withdraw from the authoritative tessellation and
    /// kill the replica.  The notifications race ahead through the network;
    /// peers that miss them keep routing to a dead node (dead letters).
    fn depart(&mut self, departing: ObjectId) {
        let affected = self.affected_by(departing);
        for peer in affected {
            self.transmit(
                departing.0,
                peer.0,
                MessageKind::Departure,
                ProtocolMsg::Leave,
            );
        }
        self.net.remove(departing).expect("picked a live object");
        self.runtime.kill(departing.0);
        self.nodes.remove(&departing.0);
        self.counters.leaves += 1;
    }

    /// Every node whose view is affected by the presence/absence of `id`:
    /// its Voronoi neighbours (edges created or destroyed by the region
    /// change all touch them), its close neighbours, the sources of the back
    /// links it holds, and the targets of its long links.
    fn affected_by(&self, id: ObjectId) -> Vec<ObjectId> {
        let mut affected: BTreeSet<ObjectId> = BTreeSet::new();
        if let Ok(vr) = self.net.view_ref(id) {
            affected.extend(vr.voronoi_neighbours());
            affected.extend(vr.close_neighbours());
            affected.extend(vr.long_links().iter().map(|l| l.neighbour));
            affected.extend(vr.back_long_links().iter().map(|b| b.source));
        }
        affected.remove(&id);
        affected.into_iter().collect()
    }

    /// Reads through the shared overlay at a refresh boundary: materialises
    /// the borrowed [`crate::ViewRef`] of `id` into the owned snapshot a
    /// `NeighborUpdate` message carries, and flattens its routing
    /// neighbours (with their immutable coordinates) into the replica's
    /// scan table.
    fn refresh_view(&mut self, id: ObjectId) {
        let Ok(vr) = self.net.view_ref(id) else {
            return; // The object is gone; a stale update arrived late.
        };
        let view = vr.to_view();
        let mut routing = Vec::new();
        for nb in view.routing_neighbours() {
            if let Some(c) = self.net.coords(nb) {
                routing.push((nb, c));
            }
        }
        self.nodes.insert(id.0, NodeState { view, routing });
    }

    // ------------------------------------------------------------------
    // Workload choices (deterministic from the runner seed)
    // ------------------------------------------------------------------

    fn random_live(&mut self) -> ObjectId {
        let idx = self.rng.random_range(0..self.net.len());
        self.net.id_at(idx).expect("index below len")
    }

    fn random_live_pair(&mut self) -> Option<(ObjectId, ObjectId)> {
        let n = self.net.len();
        if n < 2 {
            return None;
        }
        let a = self.rng.random_range(0..n);
        let mut b = self.rng.random_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        Some((
            self.net.id_at(a).expect("index below len"),
            self.net.id_at(b).expect("index below len"),
        ))
    }
}

/// Runs a scripted [`Scenario`] end-to-end on the asynchronous runtime and
/// returns its report.
pub fn run_scenario(
    config: VoroNetConfig,
    scenario: &Scenario,
    network: NetworkModel,
    mode: RoutingMode,
) -> ScenarioReport {
    let mut overlay = AsyncOverlay::new(config, network, scenario.seed).with_routing_mode(mode);
    overlay.warmup(&scenario.warmup);
    for &(t, op) in scenario.events() {
        overlay.runtime.schedule_control_at(t, op);
    }
    overlay.run_to_quiescence();
    overlay.into_report(scenario.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use voronet_sim::{LatencyModel, PartitionWindow};
    use voronet_workloads::{Distribution, PointGenerator};

    fn uniform_points(n: usize, seed: u64) -> Vec<Point2> {
        PointGenerator::new(Distribution::Uniform, seed).take_points(n)
    }

    #[test]
    fn warmup_views_match_authoritative_state() {
        let cfg = VoroNetConfig::new(200).with_seed(3);
        let mut ov = AsyncOverlay::new(cfg, NetworkModel::ideal(), 3);
        let ids = ov.warmup(&uniform_points(150, 17));
        assert_eq!(ov.population(), ids.len());
        for &id in &ids {
            let replica = &ov.nodes[&id.0];
            let fresh = ov.net.view(id).unwrap();
            assert_eq!(replica.view.voronoi_neighbours, fresh.voronoi_neighbours);
            assert_eq!(replica.view.close_neighbours, fresh.close_neighbours);
            // The flattened routing table mirrors the snapshot's routing
            // neighbours, with exact (immutable) coordinates inlined.
            let table_ids: Vec<ObjectId> = replica.routing.iter().map(|&(nb, _)| nb).collect();
            assert_eq!(table_ids, replica.view.routing_neighbours());
            for &(nb, coords) in &replica.routing {
                assert_eq!(Some(coords), ov.net.coords(nb));
            }
        }
    }

    #[test]
    fn message_driven_route_agrees_with_synchronous_route() {
        let cfg = VoroNetConfig::new(300).with_seed(5);
        let mut ov = AsyncOverlay::new(cfg, NetworkModel::ideal(), 5);
        let ids = ov.warmup(&uniform_points(250, 23));
        let mut sync_net = {
            // Rebuild the identical overlay for the synchronous fast path.
            let cfg = VoroNetConfig::new(300).with_seed(5);
            let mut net = VoroNet::new(cfg);
            for &p in &uniform_points(250, 23) {
                let _ = net.insert(p);
            }
            net
        };
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let a = ids[rng.random_range(0..ids.len())];
            let b = ids[rng.random_range(0..ids.len())];
            if a == b {
                continue;
            }
            let (owner, hops) = ov.measure_route(a, b).expect("loss-free route completes");
            let sync = sync_net.route_between(a, b).unwrap();
            assert_eq!(
                owner, sync.owner,
                "owners must agree on a loss-free network"
            );
            assert_eq!(hops, sync.hops, "hop counts must agree with fresh views");
        }
    }

    #[test]
    fn algorithm5_mode_reaches_the_true_owner() {
        let cfg = VoroNetConfig::new(300).with_seed(7);
        let mut ov = AsyncOverlay::new(cfg, NetworkModel::ideal(), 7)
            .with_routing_mode(RoutingMode::Algorithm5);
        let ids = ov.warmup(&uniform_points(200, 29));
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..40 {
            let a = ids[rng.random_range(0..ids.len())];
            let b = ids[rng.random_range(0..ids.len())];
            if a == b {
                continue;
            }
            let (owner, _) = ov.measure_route(a, b).expect("loss-free route completes");
            assert_eq!(owner, b, "algorithm 5 must resolve the true owner");
        }
    }

    #[test]
    fn async_join_inserts_at_the_right_region_and_propagates_views() {
        let cfg = VoroNetConfig::new(100).with_seed(11);
        let mut ov = AsyncOverlay::new(cfg, NetworkModel::ideal(), 11);
        ov.warmup(&uniform_points(60, 41));
        let before = ov.population();
        let p = Point2::new(0.123_456, 0.654_321);
        ov.runtime
            .schedule_control_at(1, ScenarioOp::Join { at: p });
        ov.run_to_quiescence();
        assert_eq!(ov.population(), before + 1);
        assert_eq!(ov.counters().joins_completed, 1);
        let id = ov.net.owner_of(p).unwrap();
        assert_eq!(ov.net.coords(id), Some(p));
        // Every affected neighbour has refreshed: its replica view equals
        // the authoritative view.
        for nb in ov.net.voronoi_neighbours(id).unwrap() {
            let replica = &ov.nodes[&nb.0];
            let fresh = ov.net.view(nb).unwrap();
            assert_eq!(replica.view.voronoi_neighbours, fresh.voronoi_neighbours);
            assert!(replica.view.voronoi_neighbours.contains(&id));
        }
    }

    #[test]
    fn async_leave_notifies_neighbours_and_kills_the_replica() {
        let cfg = VoroNetConfig::new(100).with_seed(13);
        let mut ov = AsyncOverlay::new(cfg, NetworkModel::ideal(), 13);
        let ids = ov.warmup(&uniform_points(40, 43));
        let before = ov.population();
        ov.runtime.schedule_control_at(1, ScenarioOp::Leave);
        ov.run_to_quiescence();
        assert_eq!(ov.population(), before - 1);
        assert_eq!(ov.counters().leaves, 1);
        let gone: Vec<ObjectId> = ids.into_iter().filter(|&i| !ov.net.contains(i)).collect();
        assert_eq!(gone.len(), 1);
        assert!(!ov.nodes.contains_key(&gone[0].0));
        // Survivors' views no longer mention the departed node.
        for id in ov.net.ids().collect::<Vec<_>>() {
            let replica = &ov.nodes[&id.0];
            assert!(!replica.view.routing_neighbours().contains(&gone[0]));
        }
    }

    #[test]
    fn lossy_network_loses_routes_but_never_panics() {
        let cfg = VoroNetConfig::new(200).with_seed(17);
        let network = NetworkModel::new(17, LatencyModel::Uniform { min: 1, max: 20 })
            .with_loss(0.3)
            .with_partition(PartitionWindow {
                start: 50,
                end: 150,
                groups: 3,
            });
        let scenario = Scenario::builder("lossy-churn", 17)
            .warmup(uniform_points(120, 47))
            .churn(0, 400, 120, 0.3, 0.15, {
                let mut pg = PointGenerator::new(Distribution::Uniform, 53);
                move || pg.next_point()
            })
            .build();
        let report = run_scenario(cfg, &scenario, network, RoutingMode::Greedy);
        assert!(report.delivery.dropped_loss > 0, "{:?}", report.delivery);
        assert!(
            report.counters.routes_completed <= report.counters.routes_started,
            "{:?}",
            report.counters
        );
        assert!(report.population > 0);
        assert_eq!(
            report.counters.routes_completed as usize,
            report.routes.count()
        );
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let run = || {
            let cfg = VoroNetConfig::new(150).with_seed(19);
            let network = NetworkModel::new(
                19,
                LatencyModel::Skewed {
                    min: 1,
                    max: 50,
                    alpha: 1.5,
                },
            )
            .with_loss(0.1);
            let scenario = Scenario::builder("det", 19)
                .warmup(uniform_points(80, 59))
                .churn(0, 300, 90, 0.35, 0.15, {
                    let mut pg = PointGenerator::new(Distribution::Uniform, 61);
                    move || pg.next_point()
                })
                .every(10, 25, 8, |_| ScenarioOp::Ping)
                .build();
            run_scenario(cfg, &scenario, network, RoutingMode::Greedy)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the identical report");
        assert!(a.counters.pings > 0);
    }
}
