//! The data plane: one object-hosting peer serving view pushes, greedy
//! route steps, area floods and the service plane from shipped snapshots.

use super::{ClusterError, IdMap, IdSet};
use crate::transport::{PeerId, Transport};
use crate::wire::{IdList, PlacedList, WireMsg, WirePurpose, WireQuery};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::{Duration, Instant};
use voronet_geom::{clip_to_rect_into, greedy_next, Point2};
use voronet_sim::TransportStats;

const PROBE_RESEND: Duration = Duration::from_millis(150);
const PROBE_MAX_ATTEMPTS: u32 = 40;

/// One hosted object's shipped snapshot: everything a host needs to
/// route through it and evaluate flood predicates at it.  Routing entries
/// are `(id, host, coords)`, with the host the driver placed each on.
#[derive(Debug, Clone)]
pub(super) struct Hosted {
    seq: u64,
    pub(super) coords: Point2,
    pub(super) routing: Vec<(u64, PeerId, Point2)>,
    /// The Voronoi neighbours, as positions in `routing` (every one is a
    /// routing entry), as the view shipped them.
    vn: Vec<u16>,
    pub(super) cell: Vec<Point2>,
}

/// The two buffers a host clips cells in, kept so a flood allocates
/// nothing per visited object.
type ClipBuffers = (Vec<Point2>, Vec<Point2>);

impl Hosted {
    /// The Voronoi neighbours with their hosts.
    pub(super) fn neighbours(&self) -> impl Iterator<Item = (u64, PeerId)> + '_ {
        self.vn.iter().map(|&at| {
            let (id, host, _) = self.routing[usize::from(at)];
            (id, host)
        })
    }

    /// Mirrors `core::queries`: the coordinate predicate (match) and the
    /// cell-touches-area predicate (flood expansion), computed from the
    /// shipped geometry with the exact same f64 operations as the
    /// single-process oracle (one clipping routine serves both).
    fn evaluate(&self, query: &WireQuery, clip: &mut ClipBuffers) -> (bool, bool) {
        match *query {
            WireQuery::Rect(rect) => {
                let is_match = rect.contains(self.coords);
                let eligible = is_match || {
                    clip_to_rect_into(&self.cell, rect, &mut clip.0, &mut clip.1);
                    !clip.0.is_empty()
                };
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
    host: PeerId,
    sent_at: Instant,
    attempts: u32,
}

/// Coordinator state of one in-progress distributed flood (lives on the
/// host of the area's owner object).  The frontier holds objects with the
/// hosts they were shipped with.
#[derive(Debug)]
struct Flood {
    origin: PeerId,
    hops: u32,
    query: WireQuery,
    visited: IdSet<u64>,
    matches: Vec<u64>,
    frontier: Vec<(u64, PeerId)>,
    outstanding: BTreeMap<u64, ProbeState>,
}

/// One object-hosting peer: applies view pushes, forwards greedy route
/// steps, evaluates and coordinates floods, answers the driver.
pub struct HostNode<T: Transport> {
    pub(super) t: T,
    peer: PeerId,
    hosts: u64,
    pub(super) objects: IdMap<u64, Hosted>,
    /// Floods and their probes by token and object, ordered: a
    /// retransmission round sends in the same order on every run.
    floods: BTreeMap<u64, Flood>,
    /// One flood's probes a retransmission round resends and abandons;
    /// kept, so a round allocates nothing.
    resend: Vec<(u64, PeerId)>,
    abandon: Vec<u64>,
    clip: ClipBuffers,
    pub(super) kv: IdMap<(u64, u64), u64>,
    pub(super) kv_replicas: IdMap<(u64, u64), (u64, u64)>,
    kv_applied: IdMap<(u64, u64), u64>,
    ops_served: u64,
    /// Frames rejected for naming a host outside `1..=hosts`, or (a view)
    /// a neighbour position past its routing entries: never applied,
    /// never acked, never followed.
    pub(super) rejected: u64,
    shutdown: bool,
    /// Every frame this host sends is encoded here, and the id lists
    /// they carry are built in `ids`: both keep their allocations.
    out: Vec<u8>,
    ids: Vec<u8>,
}

impl<T: Transport> HostNode<T> {
    /// Creates a host over an already-bound transport (peers registered
    /// by the caller).
    pub fn new(transport: T, peer: PeerId, hosts: u64) -> Self {
        HostNode {
            t: transport,
            peer,
            hosts,
            objects: IdMap::default(),
            floods: BTreeMap::new(),
            resend: Vec::new(),
            abandon: Vec::new(),
            clip: (Vec::new(), Vec::new()),
            kv: IdMap::default(),
            kv_replicas: IdMap::default(),
            kv_applied: IdMap::default(),
            ops_served: 0,
            rejected: 0,
            shutdown: false,
            out: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Number of objects currently hosted here.
    pub fn hosted(&self) -> usize {
        self.objects.len()
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
    /// probes exhausted their attempts: floods by ascending token, and in
    /// each its resends, then its abandoned probes.
    fn tick(&mut self) -> Result<(), ClusterError> {
        if self.floods.is_empty() {
            return Ok(());
        }
        let now = self.t.now();
        // The kept lists go back after the round (an error drops them, and
        // the next round allocates afresh).
        let mut resend = std::mem::take(&mut self.resend);
        let mut abandon = std::mem::take(&mut self.abandon);
        let mut next = self.floods.keys().next().copied();
        while let Some(token) = next {
            resend.clear();
            abandon.clear();
            let flood = self.floods.get_mut(&token).expect("a listed flood");
            for (&object, probe) in flood.outstanding.iter_mut() {
                if now.duration_since(probe.sent_at) > PROBE_RESEND {
                    probe.attempts += 1;
                    probe.sent_at = now;
                    if probe.attempts > PROBE_MAX_ATTEMPTS {
                        abandon.push(object);
                    } else {
                        resend.push((object, probe.host));
                    }
                }
            }
            let query = flood.query;
            for &(object, host) in &resend {
                self.send_probe(token, object, host, query)?;
            }
            if !abandon.is_empty() {
                // Give up on unreachable objects so the flood terminates;
                // the driver's fresh-token retry is the outer safety net.
                if let Some(flood) = self.floods.get_mut(&token) {
                    for object in &abandon {
                        flood.outstanding.remove(object);
                    }
                }
                self.pump_flood(token)?;
            }
            // Only this token's flood can have finished meanwhile.
            next = self
                .floods
                .range((Bound::Excluded(token), Bound::Unbounded))
                .next()
                .map(|(&t, _)| t);
        }
        (self.resend, self.abandon) = (resend, abandon);
        Ok(())
    }

    fn send_probe(
        &mut self,
        token: u64,
        object: u64,
        host: PeerId,
        query: WireQuery,
    ) -> Result<(), ClusterError> {
        WireMsg::FloodProbe {
            token,
            object,
            query,
        }
        .encode(self.peer, object, &mut self.out)
        .expect("probe is tiny");
        self.t.send(host, &self.out)?;
        Ok(())
    }

    /// True when a frame read `valid`; otherwise counts it as rejected.
    fn admit(&mut self, valid: bool) -> bool {
        self.rejected += u64::from(!valid);
        valid
    }

    /// True for a host peer of this cluster.
    fn is_host(&self, peer: PeerId) -> bool {
        (1..=self.hosts).contains(&peer)
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
                // A view naming a host that does not exist, or a neighbour
                // position past its routing entries, is not applied (nor
                // acked): following it would send to a stranger.
                let valid = routing.iter().all(|(_, host, _)| self.is_host(host))
                    && vn.iter().all(|at| usize::from(at) < routing.len());
                if !self.admit(valid) {
                    return Ok(());
                }
                let fresh = match self.objects.entry(object) {
                    Entry::Occupied(held) if held.get().seq >= seq => None,
                    // A newer view of a hosted object is written in place,
                    // into the buffers of the one it replaces.
                    Entry::Occupied(held) => Some(held.into_mut()),
                    Entry::Vacant(slot) => Some(slot.insert(Hosted {
                        seq,
                        coords,
                        routing: Vec::new(),
                        vn: Vec::new(),
                        cell: Vec::new(),
                    })),
                };
                if let Some(h) = fresh {
                    h.seq = seq;
                    h.coords = coords;
                    refill(&mut h.routing, routing.len(), routing.iter());
                    refill(&mut h.vn, vn.len(), vn.iter());
                    refill(&mut h.cell, cell.len(), cell.iter());
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
                // The departed object's service state leaves with it: the
                // KV entries its cell stored (ids are never reused, so
                // clearing on a duplicate evict is harmless).
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
                self.route_step(
                    from_object,
                    target,
                    header.from,
                    0,
                    WirePurpose::Query { token },
                )?;
            }
            WireMsg::AreaReq {
                token,
                from_object,
                rect,
            } => {
                self.route_step(
                    from_object,
                    rect.center(),
                    header.from,
                    0,
                    WirePurpose::Area { rect, token },
                )?;
            }
            WireMsg::RadiusReq {
                token,
                from_object,
                center,
                radius,
            } => {
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
            WireMsg::RouteStep {
                target,
                origin,
                hops,
                purpose,
            } => {
                // The destination object travels in the frame header.
                self.route_step(header.to, target, origin, hops, purpose)?;
            }
            WireMsg::FloodProbe {
                token,
                object,
                query,
            } => {
                self.ops_served += 1;
                let (eligible, is_match, held) = match self.objects.get(&object) {
                    Some(h) => {
                        let (eligible, is_match) = h.evaluate(&query, &mut self.clip);
                        (eligible, is_match, Some(h))
                    }
                    None => (false, false, None),
                };
                let neighbours = held.into_iter().flat_map(Hosted::neighbours);
                WireMsg::FloodReply {
                    token,
                    object,
                    eligible,
                    is_match,
                    neighbours: PlacedList::build(&mut self.ids, neighbours),
                }
                .encode(self.peer, header.from, &mut self.out)
                .expect("bounded-degree neighbour list fits a frame");
                self.t.send(header.from, &self.out)?;
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
                // duplicate from a retransmission; one naming a host that
                // does not exist is rejected, and its probe resends.  All
                // are ignored.
                if !self.admit(neighbours.iter().all(|(_, host)| self.is_host(host))) {
                    return Ok(());
                }
                let incorporated = self.floods.get_mut(&token).is_some_and(|flood| {
                    let fresh = flood.outstanding.remove(&object).is_some();
                    if fresh {
                        incorporate(flood, object, eligible, is_match, neighbours.iter());
                    }
                    fresh
                });
                if incorporated {
                    self.pump_flood(token)?;
                }
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

    /// The push-sequence filter, per `(object, key)`, not per
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
        msg.encode(self.peer, to, &mut self.out)
            .expect("replies fit a frame");
        self.t.send(to, &self.out)?;
        Ok(())
    }

    /// The greedy walk over shipped routing tables: hops to an entry
    /// shipped as hosted here advance locally; a hop to an object hosted
    /// elsewhere becomes a [`WireMsg::RouteStep`] frame to the host its
    /// entry names.  Each decision is [`greedy_next`] over the object's
    /// shipped `(id, host, coords)` table — the kernel `VoroNet`'s own walk
    /// runs.  A step at an object this host does not hold (a stale routing
    /// entry) is dropped, and the driver retries; one at an object it
    /// holds is an op served.
    fn route_step(
        &mut self,
        at: u64,
        target: Point2,
        origin: PeerId,
        hops: u32,
        purpose: WirePurpose,
    ) -> Result<(), ClusterError> {
        let Some(mut state) = self.objects.get(&at) else {
            return Ok(());
        };
        self.ops_served += 1;
        let mut cur = at;
        let mut hops = hops;
        loop {
            let cur_d = state.coords.distance2(target);
            // The table may list `cur` itself (a long link pointing home).
            // The rule rejects it anyway; filtering it out keeps this short
            // scan the compact loop it was before the kernel (without the
            // filter LLVM unrolls it and `net.route_us` reads ~5 % worse).
            let table = state.routing.iter().map(|&(nb, host, at)| ((nb, host), at));
            let here = (cur, self.peer);
            let ((best, peer), _) = greedy_next(
                target,
                (here, cur_d),
                table.filter(|&((nb, _), _)| nb != cur),
            );
            if best == cur {
                return self.arrive(cur, origin, hops, purpose);
            }
            // `hops` may come straight off the wire: never overflow on it.
            hops = hops.saturating_add(1);
            if peer == self.peer {
                let Some(next) = self.objects.get(&best) else {
                    return Ok(());
                };
                (cur, state) = (best, next);
                continue;
            }
            WireMsg::RouteStep {
                target,
                origin,
                hops,
                purpose,
            }
            .encode(cur, best, &mut self.out)
            .expect("route step is tiny");
            self.t.send(peer, &self.out)?;
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
        // A resent request for a flood still in flight changes nothing:
        // the flood's own probes resend, and it answers when they are in.
        if self.floods.contains_key(&token) {
            return Ok(());
        }
        let mut visited = IdSet::default();
        visited.insert(owner);
        self.floods.insert(
            token,
            Flood {
                origin,
                hops,
                query,
                visited,
                matches: Vec::new(),
                frontier: vec![(owner, self.peer)],
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
            let Some((object, host)) = flood.frontier.pop() else {
                break;
            };
            match self.objects.get(&object) {
                Some(h) => {
                    let (eligible, is_match) = h.evaluate(&flood.query, &mut self.clip);
                    incorporate(flood, object, eligible, is_match, h.neighbours());
                }
                None => {
                    let query = flood.query;
                    let sent_at = self.t.now();
                    flood.outstanding.insert(
                        object,
                        ProbeState {
                            host,
                            sent_at,
                            attempts: 0,
                        },
                    );
                    self.send_probe(token, object, host, query)?;
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
            WireMsg::AnswerMatches {
                token,
                hops: flood.hops,
                visited: flood.visited.len() as u32,
                matches: IdList::build(&mut self.ids, &flood.matches),
            }
            .encode(self.peer, flood.origin, &mut self.out)
            .expect("match sets of local floods fit a frame");
            self.t.send(flood.origin, &self.out)?;
        }
        Ok(())
    }
}

/// Overwrites `v` with the `len` `items` in place.  It grows to exactly
/// `len` when it must (collecting an iterator without a size hint would
/// round up), and gives memory back once the view needs less than half of
/// its buffer, so a kept view holds no more than a fresh copy would.
fn refill<T>(v: &mut Vec<T>, len: usize, items: impl Iterator<Item = T>) {
    v.clear();
    v.reserve_exact(len);
    v.extend(items);
    if v.capacity() > 2 * len {
        v.shrink_to_fit();
    }
}

/// Records one evaluated flood object, expanding through it when its
/// cell touches the queried area — the exact visit rule of
/// `core::queries::area_query_in`.
fn incorporate(
    flood: &mut Flood,
    object: u64,
    eligible: bool,
    is_match: bool,
    neighbours: impl IntoIterator<Item = (u64, PeerId)>,
) {
    if is_match {
        flood.matches.push(object);
    }
    if !eligible {
        return;
    }
    for (n, host) in neighbours {
        if flood.visited.insert(n) {
            flood.frontier.push((n, host));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DRIVER_PEER;
    use crate::vnet::{VnetHub, VnetTransport};
    use crate::wire::{EntryList, PointList, PositionList};
    use voronet_geom::Rect;
    use voronet_sim::NetworkModel;

    const HOSTS: u64 = 3;

    /// Frames waiting at `endpoint`, decoded and handed to `keep`.
    fn drain<R>(
        endpoint: &mut VnetTransport,
        mut keep: impl FnMut(WireMsg<'_>) -> Option<R>,
    ) -> Vec<R> {
        let (mut buf, mut kept) = (Vec::new(), Vec::new());
        while endpoint.recv_into(&mut buf).unwrap().is_some() {
            let (_, msg) = WireMsg::decode(&buf).unwrap();
            kept.extend(keep(msg));
        }
        kept
    }

    fn probed(endpoint: &mut VnetTransport) -> Vec<u64> {
        drain(endpoint, |msg| match msg {
            WireMsg::FloodProbe { object, .. } => Some(object),
            _ => None,
        })
    }

    fn square(c: f64, h: f64) -> Vec<Point2> {
        vec![
            Point2::new(c - h, c - h),
            Point2::new(c + h, c - h),
            Point2::new(c + h, c + h),
            Point2::new(c - h, c + h),
        ]
    }

    /// Object 3 on host 1, owning the centre of the domain; its Voronoi
    /// neighbours 4 and 5 were placed on hosts 2 and 3.
    fn host_one_holding_object_three(hub: &VnetHub) -> HostNode<VnetTransport> {
        let mut host = HostNode::new(hub.endpoint(1), 1, HOSTS);
        host.objects.insert(
            3,
            Hosted {
                seq: 1,
                coords: Point2::new(0.5, 0.5),
                routing: vec![(4, 2, Point2::new(0.6, 0.5)), (5, 3, Point2::new(0.4, 0.5))],
                vn: vec![0, 1],
                cell: square(0.5, 0.05),
            },
        );
        host
    }

    /// Sends an area request for the centre of the domain to host 1.
    fn request_area(driver: &mut VnetTransport, token: u64) {
        let mut frame = Vec::new();
        WireMsg::AreaReq {
            token,
            from_object: 3,
            rect: Rect::new(Point2::new(0.4, 0.4), Point2::new(0.6, 0.6)),
        }
        .encode(DRIVER_PEER, 3, &mut frame)
        .unwrap();
        driver.send(1, &frame).unwrap();
    }

    /// Sends host 1 a `FloodReply` from host 2 for object 4.
    fn reply_for_object_four(peer: &mut VnetTransport, token: u64, neighbours: &[(u64, u64)]) {
        let (mut frame, mut ids) = (Vec::new(), Vec::new());
        WireMsg::FloodReply {
            token,
            object: 4,
            eligible: true,
            is_match: true,
            neighbours: PlacedList::build(&mut ids, neighbours),
        }
        .encode(2, 1, &mut frame)
        .unwrap();
        peer.send(1, &frame).unwrap();
    }

    fn settle(host: &mut HostNode<VnetTransport>) {
        let mut buf = Vec::new();
        while host.step(&mut buf).unwrap() {}
    }

    /// Host ids come off the wire: a view or a flood reply naming host 0
    /// (the driver's peer id) or a host beyond K, or a view naming a
    /// neighbour position past its routing list, is rejected and counted —
    /// no view is installed or acked, no probe or step goes to that peer.
    #[test]
    fn frames_naming_a_host_outside_the_cluster_are_rejected() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut driver = hub.endpoint(DRIVER_PEER);
        let mut strangers = [hub.endpoint(HOSTS + 1), hub.endpoint(u64::MAX)];
        let mut peers = [hub.endpoint(2), hub.endpoint(3)];
        let mut host = host_one_holding_object_three(&hub);
        let view = |driver: &mut VnetTransport, routing: &[(u64, u64, Point2)], vn: &[u16]| {
            let (mut frame, mut r, mut v, mut c) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            WireMsg::ViewUpdate {
                object: 9,
                seq: 1,
                coords: Point2::new(0.2, 0.2),
                routing: EntryList::build(&mut r, routing),
                vn: PositionList::build(&mut v, vn),
                cell: PointList::build(&mut c, square(0.2, 0.05)),
            }
            .encode(DRIVER_PEER, 1, &mut frame)
            .unwrap();
            driver.send(1, &frame).unwrap();
        };
        let near = Point2::new(0.25, 0.2);
        view(&mut driver, &[(3, 1, near), (10, 0, near)], &[0]);
        view(&mut driver, &[(3, 1, near)], &[0, 1]);
        view(&mut driver, &[(3, 1, near), (10, u64::MAX, near)], &[]);
        view(&mut driver, &[(3, 1, near), (10, HOSTS + 1, near)], &[0]);
        settle(&mut host);
        assert_eq!(host.rejected, 4);
        assert!(
            !host.objects.contains_key(&9),
            "a rejected view was installed"
        );
        assert!(
            drain(&mut driver, |_| Some(())).is_empty(),
            "a rejected view was acked"
        );
        // The same view with its hosts in range is installed and acked.
        view(&mut driver, &[(3, 1, near), (10, HOSTS, near)], &[1, 0]);
        settle(&mut host);
        assert_eq!(host.rejected, 4);
        let neighbours: Vec<_> = host.objects[&9].neighbours().collect();
        assert_eq!(neighbours, [(10, HOSTS), (3, 1)]);
        let acks = drain(&mut driver, |msg| {
            matches!(msg, WireMsg::ViewAck { object: 9, seq: 1 }).then_some(())
        });
        assert_eq!(acks, [()]);

        // A flood reply naming them is dropped too: its probe stays out.
        request_area(&mut driver, 5);
        settle(&mut host);
        assert_eq!(
            (probed(&mut peers[0]), probed(&mut peers[1])),
            (vec![4], vec![5])
        );
        for stranger in [0, HOSTS + 1] {
            reply_for_object_four(&mut peers[0], 5, &[(3, 1), (7, stranger)]);
        }
        settle(&mut host);
        assert_eq!(host.rejected, 6);
        assert!(host.floods[&5].outstanding.contains_key(&4));
        assert!(!host.floods[&5].visited.contains(&7));
        assert!(drain(&mut driver, |_| Some(())).is_empty());
        for stranger in &mut strangers {
            assert!(drain(stranger, |_| Some(())).is_empty());
        }
    }

    /// A copy of an area request whose flood is still in flight — the
    /// driver resends every few tens of milliseconds — must leave the
    /// flood alone: no probe goes out again and the objects it reached
    /// stay visited.  The flood still answers, because its own probes
    /// resend.
    #[test]
    fn a_resent_area_request_does_not_restart_its_flood() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut driver = hub.endpoint(DRIVER_PEER);
        let mut peers = [hub.endpoint(2), hub.endpoint(3)];
        let mut host = host_one_holding_object_three(&hub);
        let token = 77;
        request_area(&mut driver, token);
        settle(&mut host);
        assert_eq!(
            (probed(&mut peers[0]), probed(&mut peers[1])),
            (vec![4], vec![5])
        );
        // Host 2 answers for object 4, whose cell touches the area and
        // names object 7 (on host 2) as a new neighbour.
        reply_for_object_four(&mut peers[0], token, &[(3, 1), (7, 2)]);
        settle(&mut host);
        assert_eq!(probed(&mut peers[0]), vec![7]);
        let visited = |host: &HostNode<VnetTransport>| {
            let mut visited: Vec<u64> = host.floods[&token].visited.iter().copied().collect();
            visited.sort_unstable();
            visited
        };
        assert_eq!(visited(&host), [3, 4, 5, 7]);

        request_area(&mut driver, token);
        settle(&mut host);
        assert_eq!(
            (probed(&mut peers[0]), probed(&mut peers[1])),
            (vec![], vec![]),
            "a resent request re-sent the flood's probes"
        );
        assert_eq!(
            visited(&host),
            [3, 4, 5, 7],
            "a resent request reset the flood"
        );
        assert_eq!(host.floods[&token].matches, [3, 4]);
        assert!(
            drain(&mut driver, |_| Some(())).is_empty(),
            "the flood has not finished"
        );
    }
}
