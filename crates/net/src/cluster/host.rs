//! The data plane: one object-hosting peer serving view pushes, greedy
//! route steps, area floods and the service plane from shipped snapshots.

use super::{host_of, ClusterError};
use crate::transport::{PeerId, Transport};
use crate::wire::{IdList, WireMsg, WirePurpose, WireQuery};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};
use voronet_geom::{greedy_next, Point2, Polygon, Rect};
use voronet_sim::TransportStats;

const PROBE_RESEND: Duration = Duration::from_millis(150);
const PROBE_MAX_ATTEMPTS: u32 = 40;

/// One hosted object's shipped snapshot: everything a host needs to
/// route through it and evaluate flood predicates at it.
#[derive(Debug, Clone)]
pub(super) struct Hosted {
    seq: u64,
    pub(super) coords: Point2,
    pub(super) routing: Vec<(u64, Point2)>,
    pub(super) vn: Vec<u64>,
    pub(super) cell: Vec<Point2>,
}

impl Hosted {
    /// Mirrors `core::queries`: the coordinate predicate (match) and the
    /// cell-touches-area predicate (flood expansion), computed from the
    /// shipped geometry with the exact same f64 operations as the
    /// single-process oracle.
    fn evaluate(&self, query: &WireQuery) -> (bool, bool) {
        match *query {
            WireQuery::Rect(rect) => {
                let is_match = rect.contains(self.coords);
                let eligible = is_match
                    || !Polygon::new(self.cell.clone())
                        .clip_to_rect(rect)
                        .is_empty();
                (eligible, is_match)
            }
            WireQuery::Disk { center, radius } => {
                let is_match = self.coords.distance2(center) <= radius * radius;
                let eligible = if self.coords.distance(center) <= radius {
                    true
                } else if self.cell.len() < 2 {
                    false
                } else {
                    let n = self.cell.len();
                    (0..n).any(|i| {
                        center.distance_to_segment(self.cell[i], self.cell[(i + 1) % n]) <= radius
                    })
                };
                (eligible, is_match)
            }
        }
    }
}

/// An outstanding flood probe awaiting its reply.
#[derive(Debug)]
struct ProbeState {
    sent_at: Instant,
    attempts: u32,
}

/// Coordinator state of one in-progress distributed flood (lives on the
/// host of the area's owner object).
#[derive(Debug)]
struct Flood {
    origin: PeerId,
    hops: u32,
    query: WireQuery,
    visited: BTreeSet<u64>,
    matches: Vec<u64>,
    frontier: Vec<u64>,
    outstanding: BTreeMap<u64, ProbeState>,
}

/// One object-hosting peer: applies view pushes, forwards greedy route
/// steps, evaluates and coordinates floods, answers the driver.
pub struct HostNode<T: Transport> {
    pub(super) t: T,
    peer: PeerId,
    hosts: u64,
    pub(super) objects: HashMap<u64, Hosted>,
    /// Floods and their probes by token and object, ordered: a
    /// retransmission round sends in the same order on every run.
    floods: BTreeMap<u64, Flood>,
    subs: HashMap<u64, Rect>,
    seen: HashMap<(u64, [u64; 4]), u64>,
    pub(super) kv: HashMap<(u64, u64), u64>,
    pub(super) kv_replicas: HashMap<(u64, u64), (u64, u64)>,
    svc_applied: HashMap<u64, u64>,
    kv_applied: HashMap<(u64, u64), u64>,
    deliveries: u64,
    duplicates: u64,
    ops_served: u64,
    shutdown: bool,
}

impl<T: Transport> HostNode<T> {
    /// Creates a host over an already-bound transport (peers registered
    /// by the caller).
    pub fn new(transport: T, peer: PeerId, hosts: u64) -> Self {
        HostNode {
            t: transport,
            peer,
            hosts,
            objects: HashMap::new(),
            floods: BTreeMap::new(),
            subs: HashMap::new(),
            seen: HashMap::new(),
            kv: HashMap::new(),
            kv_replicas: HashMap::new(),
            svc_applied: HashMap::new(),
            kv_applied: HashMap::new(),
            deliveries: 0,
            duplicates: 0,
            ops_served: 0,
            shutdown: false,
        }
    }

    /// Number of objects currently hosted here.
    pub fn hosted(&self) -> usize {
        self.objects.len()
    }

    /// Publications delivered first-time to objects hosted here.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Protocol operations served so far.
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// This host's transport counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.t.stats()
    }

    /// True once a [`WireMsg::Shutdown`] has been handled.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Handles at most one pending frame plus flood retransmissions;
    /// returns whether a frame was processed.
    pub fn step(&mut self, buf: &mut Vec<u8>) -> Result<bool, ClusterError> {
        self.tick()?;
        match self.t.recv_into(buf)? {
            Some(_) => {
                self.handle_frame(buf)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Retransmits unanswered flood probes and finishes floods whose
    /// probes exhausted their attempts.
    fn tick(&mut self) -> Result<(), ClusterError> {
        if self.floods.is_empty() {
            return Ok(());
        }
        let now = self.t.now();
        let tokens: Vec<u64> = self.floods.keys().copied().collect();
        for token in tokens {
            let mut resend: Vec<u64> = Vec::new();
            let mut abandon: Vec<u64> = Vec::new();
            if let Some(flood) = self.floods.get_mut(&token) {
                for (&object, probe) in flood.outstanding.iter_mut() {
                    if now.duration_since(probe.sent_at) > PROBE_RESEND {
                        probe.attempts += 1;
                        probe.sent_at = now;
                        if probe.attempts > PROBE_MAX_ATTEMPTS {
                            abandon.push(object);
                        } else {
                            resend.push(object);
                        }
                    }
                }
            }
            for object in resend {
                let query = self.floods[&token].query;
                self.send_probe(token, object, query)?;
            }
            if !abandon.is_empty() {
                // Give up on unreachable objects so the flood terminates;
                // the driver's fresh-token retry is the outer safety net.
                if let Some(flood) = self.floods.get_mut(&token) {
                    for object in abandon {
                        flood.outstanding.remove(&object);
                    }
                }
                self.pump_flood(token)?;
            }
        }
        Ok(())
    }

    fn send_probe(
        &mut self,
        token: u64,
        object: u64,
        query: WireQuery,
    ) -> Result<(), ClusterError> {
        let peer = host_of(object, self.hosts);
        let mut frame = Vec::new();
        WireMsg::FloodProbe {
            token,
            object,
            query,
        }
        .encode(self.peer, object, &mut frame)
        .expect("probe is tiny");
        self.t.send(peer, &frame)?;
        Ok(())
    }

    fn handle_frame(&mut self, frame: &[u8]) -> Result<(), ClusterError> {
        let Ok((header, msg)) = WireMsg::decode(frame) else {
            return Ok(()); // malformed payload: drop (headers were checked by the transport)
        };
        match msg {
            WireMsg::Hello => {}
            WireMsg::ViewUpdate {
                object,
                seq,
                coords,
                routing,
                vn,
                cell,
            } => {
                let stale = self
                    .objects
                    .get(&object)
                    .map(|h| h.seq >= seq)
                    .unwrap_or(false);
                if !stale {
                    self.objects.insert(
                        object,
                        Hosted {
                            seq,
                            coords,
                            routing: routing.to_vec(),
                            vn: vn.to_vec(),
                            cell: cell.to_vec(),
                        },
                    );
                }
                self.reply(header.from, WireMsg::ViewAck { object, seq })?;
            }
            WireMsg::Evict { object, seq } => {
                if self
                    .objects
                    .get(&object)
                    .map(|h| h.seq < seq)
                    .unwrap_or(false)
                {
                    self.objects.remove(&object);
                }
                // The departed object's service state leaves with it:
                // subscription, delivery ledger, and the KV entries its
                // cell stored (ids are never reused, so clearing on a
                // duplicate evict is harmless).
                self.subs.remove(&object);
                self.seen.retain(|&(o, _), _| o != object);
                self.kv.retain(|&(o, _), _| o != object);
                self.kv_replicas.retain(|&(o, _), _| o != object);
                self.kv_applied.retain(|&(o, _), _| o != object);
                self.reply(header.from, WireMsg::EvictAck { object, seq })?;
            }
            WireMsg::RouteReq {
                token,
                from_object,
                target,
            } => {
                if self.objects.contains_key(&from_object) {
                    self.ops_served += 1;
                    self.route_step(
                        from_object,
                        target,
                        header.from,
                        0,
                        WirePurpose::Query { token },
                    )?;
                }
            }
            WireMsg::AreaReq {
                token,
                from_object,
                rect,
            } => {
                if self.objects.contains_key(&from_object) {
                    self.ops_served += 1;
                    self.route_step(
                        from_object,
                        rect.center(),
                        header.from,
                        0,
                        WirePurpose::Area { rect, token },
                    )?;
                }
            }
            WireMsg::RadiusReq {
                token,
                from_object,
                center,
                radius,
            } => {
                if self.objects.contains_key(&from_object) {
                    self.ops_served += 1;
                    self.route_step(
                        from_object,
                        center,
                        header.from,
                        0,
                        WirePurpose::Radius {
                            center,
                            radius,
                            token,
                        },
                    )?;
                }
            }
            WireMsg::RouteStep {
                target,
                origin,
                hops,
                purpose,
            } => {
                // The destination object travels in the frame header.
                if self.objects.contains_key(&header.to) {
                    self.ops_served += 1;
                    self.route_step(header.to, target, origin, hops, purpose)?;
                }
            }
            WireMsg::FloodProbe {
                token,
                object,
                query,
            } => {
                self.ops_served += 1;
                let (eligible, is_match, neighbours) = match self.objects.get(&object) {
                    Some(h) => {
                        let (eligible, is_match) = h.evaluate(&query);
                        (eligible, is_match, h.vn.clone())
                    }
                    None => (false, false, Vec::new()),
                };
                let mut scratch = Vec::new();
                let mut frame = Vec::new();
                WireMsg::FloodReply {
                    token,
                    object,
                    eligible,
                    is_match,
                    neighbours: IdList::build(&mut scratch, &neighbours),
                }
                .encode(self.peer, header.from, &mut frame)
                .expect("bounded-degree neighbour list fits a frame");
                self.t.send(header.from, &frame)?;
            }
            WireMsg::FloodReply {
                token,
                object,
                eligible,
                is_match,
                neighbours,
            } => {
                // A reply for an unknown token belongs to an abandoned
                // flood; one whose probe is no longer outstanding is a
                // duplicate from a retransmission.  Both are ignored.
                let incorporated = self.floods.get_mut(&token).is_some_and(|flood| {
                    let fresh = flood.outstanding.remove(&object).is_some();
                    if fresh {
                        incorporate(flood, object, eligible, is_match, &neighbours.to_vec());
                    }
                    fresh
                });
                if incorporated {
                    self.pump_flood(token)?;
                }
            }
            WireMsg::SvcSubscribe {
                object,
                seq,
                region,
            } => {
                if self.fresh_service_push(object, seq) {
                    self.ops_served += 1;
                    self.subs.insert(object, region);
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcUnsubscribe { object, seq } => {
                if self.fresh_service_push(object, seq) {
                    self.ops_served += 1;
                    self.subs.remove(&object);
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcDeliver {
                object,
                seq,
                topic,
                topic_seq,
                payload: _,
            } => {
                if self.fresh_service_push(object, seq) {
                    self.ops_served += 1;
                    let entry = self.seen.entry((object, topic)).or_insert(0);
                    if topic_seq > *entry {
                        *entry = topic_seq;
                        self.deliveries += 1;
                    } else {
                        self.duplicates += 1;
                    }
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvStore {
                object,
                seq,
                key,
                value,
            } => {
                if self.fresh_kv_push(object, key, seq) {
                    self.ops_served += 1;
                    self.kv.insert((object, key), value);
                    // An object holds one role per key: owning an entry
                    // supersedes mirroring it.
                    self.kv_replicas.remove(&(object, key));
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvReplicate {
                object,
                seq,
                key,
                value,
                entry_seq,
            } => {
                if self.fresh_kv_push(object, key, seq) {
                    self.ops_served += 1;
                    self.kv_replicas.insert((object, key), (entry_seq, value));
                    self.kv.remove(&(object, key));
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvDrop { object, seq, key } => {
                if self.fresh_kv_push(object, key, seq) {
                    self.ops_served += 1;
                    self.kv.remove(&(object, key));
                    self.kv_replicas.remove(&(object, key));
                }
                self.reply(header.from, WireMsg::SvcAck { object, seq })?;
            }
            WireMsg::SvcKvFetch { token, object, key } => {
                self.ops_served += 1;
                let value = self.kv.get(&(object, key)).copied();
                self.reply(header.from, WireMsg::SvcKvValue { token, value })?;
            }
            WireMsg::SvcKvFetchReplica { token, object, key } => {
                self.ops_served += 1;
                let (entry_seq, value) = match self.kv_replicas.get(&(object, key)) {
                    Some(&(entry_seq, value)) => (entry_seq, Some(value)),
                    None => (0, None),
                };
                self.reply(
                    header.from,
                    WireMsg::SvcKvReplicaValue {
                        token,
                        entry_seq,
                        value,
                    },
                )?;
            }
            WireMsg::Ping { reply } => {
                // The driver's liveness probe: echo it so silence means
                // the host (or its link) is down, not that it was busy.
                if !reply {
                    self.reply(header.from, WireMsg::Ping { reply: true })?;
                }
            }
            WireMsg::StatsReq => {
                self.reply(
                    header.from,
                    WireMsg::StatsReply {
                        stats: self.t.stats(),
                        ops_served: self.ops_served,
                    },
                )?;
            }
            WireMsg::Shutdown => self.shutdown = true,
            // Driver-bound messages: not ours.
            WireMsg::ViewAck { .. }
            | WireMsg::EvictAck { .. }
            | WireMsg::AnswerOwner { .. }
            | WireMsg::AnswerMatches { .. }
            | WireMsg::StatsReply { .. }
            | WireMsg::SvcKvValue { .. }
            | WireMsg::SvcKvReplicaValue { .. }
            | WireMsg::SvcAck { .. } => {}
        }
        Ok(())
    }

    /// The per-object push-sequence filter: true exactly once per push,
    /// false for duplicates from ack-timeout resends.
    fn fresh_service_push(&mut self, object: u64, seq: u64) -> bool {
        let applied = self.svc_applied.entry(object).or_insert(0);
        if seq > *applied {
            *applied = seq;
            true
        } else {
            false
        }
    }

    /// Freshness for the KV plane is per `(object, key)`, not per
    /// object: one rebalance flush may push several *different* keys to
    /// the same object, and under delay faults those frames can arrive
    /// reordered.  A per-object high-water mark would reject the
    /// lower-seq key's push as stale (while still acking it), silently
    /// losing an acked write; per-entry marks only ever reject true
    /// duplicates and superseded pushes for that same key.
    fn fresh_kv_push(&mut self, object: u64, key: u64, seq: u64) -> bool {
        let applied = self.kv_applied.entry((object, key)).or_insert(0);
        if seq > *applied {
            *applied = seq;
            true
        } else {
            false
        }
    }

    fn reply(&mut self, to: PeerId, msg: WireMsg<'_>) -> Result<(), ClusterError> {
        let mut frame = Vec::new();
        msg.encode(self.peer, to, &mut frame)
            .expect("replies fit a frame");
        self.t.send(to, &frame)?;
        Ok(())
    }

    /// The greedy walk over shipped routing tables: hops within this
    /// host advance locally; a hop to an object hosted elsewhere becomes
    /// a [`WireMsg::RouteStep`] frame.  Each decision is
    /// [`greedy_next`] over the object's shipped `(id, coords)` table —
    /// the kernel `VoroNet`'s own walk runs.
    fn route_step(
        &mut self,
        at: u64,
        target: Point2,
        origin: PeerId,
        hops: u32,
        purpose: WirePurpose,
    ) -> Result<(), ClusterError> {
        let mut cur = at;
        let mut hops = hops;
        loop {
            let Some(state) = self.objects.get(&cur) else {
                return Ok(()); // stale routing entry: the driver will retry
            };
            let cur_d = state.coords.distance2(target);
            // The table may list `cur` itself (a long link pointing home).
            // The rule rejects it anyway; filtering it out keeps this short
            // scan the compact loop it was before the kernel (without the
            // filter LLVM unrolls it and `net.route_us` reads ~5 % worse).
            let table = state.routing.iter().copied();
            let (best, _) = greedy_next(target, (cur, cur_d), table.filter(|&(nb, _)| nb != cur));
            if best == cur {
                return self.arrive(cur, origin, hops, purpose);
            }
            // `hops` may come straight off the wire: never overflow on it.
            hops = hops.saturating_add(1);
            if host_of(best, self.hosts) == self.peer {
                cur = best;
                continue;
            }
            let mut frame = Vec::new();
            WireMsg::RouteStep {
                target,
                origin,
                hops,
                purpose,
            }
            .encode(cur, best, &mut frame)
            .expect("route step is tiny");
            self.t.send(host_of(best, self.hosts), &frame)?;
            return Ok(());
        }
    }

    /// The greedy walk arrived: answer a point route, or become the
    /// flood coordinator of an area/radius query.
    fn arrive(
        &mut self,
        owner: u64,
        origin: PeerId,
        hops: u32,
        purpose: WirePurpose,
    ) -> Result<(), ClusterError> {
        match purpose {
            WirePurpose::Query { token } => {
                self.reply(origin, WireMsg::AnswerOwner { token, owner, hops })
            }
            WirePurpose::Area { rect, token } => {
                self.start_flood(token, origin, hops, owner, WireQuery::Rect(rect))
            }
            WirePurpose::Radius {
                center,
                radius,
                token,
            } => self.start_flood(
                token,
                origin,
                hops,
                owner,
                WireQuery::Disk { center, radius },
            ),
            // Distributed joins are driver-side in this cluster.
            WirePurpose::Join { .. } => Ok(()),
        }
    }

    fn start_flood(
        &mut self,
        token: u64,
        origin: PeerId,
        hops: u32,
        owner: u64,
        query: WireQuery,
    ) -> Result<(), ClusterError> {
        let mut visited = BTreeSet::new();
        visited.insert(owner);
        self.floods.insert(
            token,
            Flood {
                origin,
                hops,
                query,
                visited,
                matches: Vec::new(),
                frontier: vec![owner],
                outstanding: BTreeMap::new(),
            },
        );
        self.pump_flood(token)
    }

    /// Drains the flood frontier: locally hosted objects are evaluated
    /// in place, remote ones get a probe.  When frontier and outstanding
    /// probes are both empty the flood is done and the answer goes back
    /// to the driver.
    fn pump_flood(&mut self, token: u64) -> Result<(), ClusterError> {
        loop {
            let Some(flood) = self.floods.get_mut(&token) else {
                return Ok(());
            };
            let Some(object) = flood.frontier.pop() else {
                break;
            };
            match self.objects.get(&object) {
                Some(h) => {
                    let (eligible, is_match) = h.evaluate(&flood.query);
                    let neighbours = h.vn.clone();
                    incorporate(flood, object, eligible, is_match, &neighbours);
                }
                None => {
                    let query = flood.query;
                    let sent_at = self.t.now();
                    flood.outstanding.insert(
                        object,
                        ProbeState {
                            sent_at,
                            attempts: 0,
                        },
                    );
                    self.send_probe(token, object, query)?;
                }
            }
        }
        let done = self
            .floods
            .get(&token)
            .map(|f| f.outstanding.is_empty())
            .unwrap_or(false);
        if done {
            let mut flood = self.floods.remove(&token).expect("checked above");
            flood.matches.sort_unstable();
            let mut scratch = Vec::new();
            let mut frame = Vec::new();
            WireMsg::AnswerMatches {
                token,
                hops: flood.hops,
                visited: flood.visited.len() as u32,
                matches: IdList::build(&mut scratch, &flood.matches),
            }
            .encode(self.peer, flood.origin, &mut frame)
            .expect("match sets of local floods fit a frame");
            self.t.send(flood.origin, &frame)?;
        }
        Ok(())
    }
}

/// Records one evaluated flood object, expanding through it when its
/// cell touches the queried area — the exact visit rule of
/// `core::queries::area_query_in`.
fn incorporate(flood: &mut Flood, object: u64, eligible: bool, is_match: bool, neighbours: &[u64]) {
    if is_match {
        flood.matches.push(object);
    }
    if !eligible {
        return;
    }
    for &n in neighbours {
        if flood.visited.insert(n) {
            flood.frontier.push(n);
        }
    }
}
