//! Payload codec: every message the overlay exchanges, as a compact
//! little-endian binary layout behind the [`crate::frame`] header.
//!
//! [`WireMsg`] holds the control- and data-plane messages of a deployed
//! overlay (`ViewUpdate`/`RouteReq`/`RouteStep`/`FloodProbe`/… — see
//! [`crate::cluster`]), each under its own kind byte.  Kind bytes 1, 3, 4
//! and 6 belonged to messages nothing sends any more (a join request, a
//! neighbourhood-change notice, a departure notice and a bare route
//! answer); they decode as [`DecodeError::UnknownKind`] and are never
//! reused.
//!
//! Decode is **zero-copy**: list-valued fields ([`EntryList`],
//! [`IdList`], [`PointList`]) borrow the frame buffer and parse items
//! lazily on iteration; no allocation happens until the caller keeps
//! something.  Decoding is total — malformed bytes yield a typed
//! [`DecodeError`], never a panic.

use crate::frame::{
    put_f64, put_u32, put_u64, DecodeError, FrameHeader, WireReader, HEADER_LEN, MAX_PAYLOAD_LEN,
};
use std::fmt;
use voronet_geom::{Point2, Rect};
use voronet_sim::TransportStats;

/// Encoding failed (the only possible reason: the payload exceeds the
/// frame budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The encoded payload would exceed [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// Encoded payload length.
        len: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EncodeError::Oversized { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte budget"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

const ENTRY_SIZE: usize = 24; // u64 id + 2 × f64 coords
const POINT_SIZE: usize = 16; // 2 × f64
const ID_SIZE: usize = 8; // u64

macro_rules! wire_list {
    ($(#[$doc:meta])* $name:ident, $iter:ident, $item:ty, $size:expr,
     $parse:expr, $write:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name<'a> {
            bytes: &'a [u8],
        }

        impl<'a> $name<'a> {
            /// An empty list.
            pub fn empty() -> Self {
                $name { bytes: &[] }
            }

            /// Serialises `items` into the caller's scratch buffer and
            /// returns a view borrowing it (the encode-side counterpart
            /// of zero-copy decoding).
            pub fn build(scratch: &'a mut Vec<u8>, items: &[$item]) -> Self {
                scratch.clear();
                for item in items {
                    let write: fn(&mut Vec<u8>, &$item) = $write;
                    write(scratch, item);
                }
                $name { bytes: scratch }
            }

            /// Number of items.
            pub fn len(&self) -> usize {
                self.bytes.len() / $size
            }

            /// True when the list has no items.
            pub fn is_empty(&self) -> bool {
                self.bytes.is_empty()
            }

            /// Iterates the items, parsing them out of the borrowed bytes.
            pub fn iter(&self) -> $iter<'a> {
                $iter { bytes: self.bytes }
            }

            /// Collects the items into an owned vector.
            pub fn to_vec(&self) -> Vec<$item> {
                self.iter().collect()
            }

            fn decode(r: &mut WireReader<'a>) -> Result<Self, DecodeError> {
                let count = r.u32()? as usize;
                let bytes = r.bytes(count * $size)?;
                Ok($name { bytes })
            }

            fn encode(&self, buf: &mut Vec<u8>) {
                put_u32(buf, self.len() as u32);
                buf.extend_from_slice(self.bytes);
            }
        }

        /// Iterator over a borrowed list view.
        #[derive(Debug, Clone)]
        pub struct $iter<'a> {
            bytes: &'a [u8],
        }

        impl<'a> Iterator for $iter<'a> {
            type Item = $item;

            fn next(&mut self) -> Option<$item> {
                if self.bytes.len() < $size {
                    return None;
                }
                let (head, tail) = self.bytes.split_at($size);
                self.bytes = tail;
                let parse: fn(&[u8]) -> $item = $parse;
                Some(parse(head))
            }
        }
    };
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn read_f64(b: &[u8]) -> f64 {
    f64::from_bits(read_u64(b))
}

wire_list!(
    /// Borrowed list of `(node id, coordinates)` routing-table entries.
    EntryList,
    EntryIter,
    (u64, Point2),
    ENTRY_SIZE,
    |b| (
        read_u64(b),
        Point2::new(read_f64(&b[8..]), read_f64(&b[16..]))
    ),
    |buf, &(id, p)| {
        put_u64(buf, id);
        put_f64(buf, p.x);
        put_f64(buf, p.y);
    }
);

wire_list!(
    /// Borrowed list of points (e.g. a Voronoi cell polygon).
    PointList,
    PointIter,
    Point2,
    POINT_SIZE,
    |b| Point2::new(read_f64(b), read_f64(&b[8..])),
    |buf, &p| {
        put_f64(buf, p.x);
        put_f64(buf, p.y);
    }
);

wire_list!(
    /// Borrowed list of node ids.
    IdList,
    IdIter,
    u64,
    ID_SIZE,
    |b| read_u64(b),
    |buf, &id| put_u64(buf, id)
);

/// Why a [`WireMsg::RouteStep`] is travelling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WirePurpose {
    /// Locate the region owner for a joining object.
    Join {
        /// Position of the joining object.
        position: Point2,
        /// Result-correlation token.
        token: u64,
    },
    /// A point query.
    Query {
        /// Result-correlation token.
        token: u64,
    },
    /// A rectangular area query.
    Area {
        /// Queried rectangle.
        rect: Rect,
        /// Result-correlation token.
        token: u64,
    },
    /// A radius (disk) query.
    Radius {
        /// Disk centre.
        center: Point2,
        /// Disk radius.
        radius: f64,
        /// Result-correlation token.
        token: u64,
    },
}

/// The predicate parameters a flood probe evaluates against one object's
/// Voronoi cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireQuery {
    /// Rectangular range query.
    Rect(
        /// Queried rectangle.
        Rect,
    ),
    /// Radius (disk) query.
    Disk {
        /// Disk centre.
        center: Point2,
        /// Disk radius.
        radius: f64,
    },
}

/// One decoded wire message.  List-valued fields borrow the frame buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMsg<'a> {
    /// Transport-level preamble identifying the sending peer (TCP sends
    /// it first on every new connection; header `from` carries the id).
    Hello,
    /// One greedy forwarding step.
    RouteStep {
        /// Point the route converges towards.
        target: Point2,
        /// Peer that initiated the route (receives the answer).
        origin: u64,
        /// Forwarding steps taken so far.
        hops: u32,
        /// What to do on arrival.
        purpose: WirePurpose,
    },
    /// Liveness probe.
    Ping {
        /// True on the echo leg.
        reply: bool,
    },
    /// Installs / refreshes one hosted object's view on its host: the
    /// object's coordinates, its flattened routing table, its Voronoi
    /// neighbours (the flood graph) and its clipped Voronoi cell polygon
    /// (the flood-eligibility geometry).
    ViewUpdate {
        /// The object whose view this is.
        object: u64,
        /// Monotonic per-object sequence number (acked by `ViewAck`).
        seq: u64,
        /// The object's attribute coordinates.
        coords: Point2,
        /// Flattened routing neighbours with their coordinates.
        routing: EntryList<'a>,
        /// Voronoi neighbours (subset of `routing` ids).
        vn: IdList<'a>,
        /// Vertices of the object's Voronoi cell clipped to the domain.
        cell: PointList<'a>,
    },
    /// Acknowledges a `ViewUpdate`.
    ViewAck {
        /// Acknowledged object.
        object: u64,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Removes one hosted object from its host.
    Evict {
        /// The departing object.
        object: u64,
        /// Monotonic per-object sequence number (acked by `EvictAck`).
        seq: u64,
    },
    /// Acknowledges an `Evict`.
    EvictAck {
        /// Acknowledged object.
        object: u64,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Asks the host of `from_object` to start a greedy point route.
    RouteReq {
        /// Result-correlation token (fresh per attempt).
        token: u64,
        /// Hosted object the route starts from.
        from_object: u64,
        /// Route target.
        target: Point2,
    },
    /// Asks the host of `from_object` to start a rectangular area query.
    AreaReq {
        /// Result-correlation token (fresh per attempt).
        token: u64,
        /// Hosted object the query starts from.
        from_object: u64,
        /// Queried rectangle.
        rect: Rect,
    },
    /// Asks the host of `from_object` to start a radius query.
    RadiusReq {
        /// Result-correlation token (fresh per attempt).
        token: u64,
        /// Hosted object the query starts from.
        from_object: u64,
        /// Disk centre.
        center: Point2,
        /// Disk radius.
        radius: f64,
    },
    /// Point-route result: the owner the greedy walk arrived at.
    AnswerOwner {
        /// Token of the answered request.
        token: u64,
        /// Owner object.
        owner: u64,
        /// Hops of the greedy walk.
        hops: u32,
    },
    /// Area/radius-query result.
    AnswerMatches {
        /// Token of the answered request.
        token: u64,
        /// Hops of the initial greedy route.
        hops: u32,
        /// Objects visited by the flood.
        visited: u32,
        /// Matching objects, sorted ascending.
        matches: IdList<'a>,
    },
    /// Flood visit: "evaluate `query` at `object` and report".
    FloodProbe {
        /// Token of the area/radius query being flooded.
        token: u64,
        /// Object to evaluate.
        object: u64,
        /// The query predicate parameters.
        query: WireQuery,
    },
    /// Reply to a `FloodProbe`.
    FloodReply {
        /// Token of the area/radius query being flooded.
        token: u64,
        /// Evaluated object.
        object: u64,
        /// True when the object's cell touches the queried area (the
        /// flood expands through it).
        eligible: bool,
        /// True when the object's coordinates satisfy the predicate.
        is_match: bool,
        /// The object's Voronoi neighbours (expansion set).
        neighbours: IdList<'a>,
    },
    /// Installs / replaces one hosted object's region subscription
    /// (driver → host service push, acked by `SvcAck`).
    SvcSubscribe {
        /// The subscribing object.
        object: u64,
        /// Monotonic per-object service push sequence number.
        seq: u64,
        /// The subscribed region.
        region: Rect,
    },
    /// Drops one hosted object's region subscription.
    SvcUnsubscribe {
        /// The unsubscribing object.
        object: u64,
        /// Monotonic per-object service push sequence number.
        seq: u64,
    },
    /// Delivers one publication to a subscribed object on its host.
    SvcDeliver {
        /// The subscriber being delivered to.
        object: u64,
        /// Monotonic per-object service push sequence number.
        seq: u64,
        /// Topic key of the published region (its corner bit patterns).
        topic: [u64; 4],
        /// Per-topic publication sequence number (drives the host's
        /// duplicate-delivery ledger).
        topic_seq: u64,
        /// Opaque payload.
        payload: u64,
    },
    /// Stores one KV entry at the host of its owning object.
    SvcKvStore {
        /// The cell owner the entry belongs to.
        object: u64,
        /// Monotonic per-object service push sequence number.
        seq: u64,
        /// The entry's key.
        key: u64,
        /// The entry's value.
        value: u64,
    },
    /// Drops one KV entry from the host of its (former) owning object.
    SvcKvDrop {
        /// The cell owner the entry belonged to.
        object: u64,
        /// Monotonic per-object service push sequence number.
        seq: u64,
        /// The entry's key.
        key: u64,
    },
    /// Asks the host of `object` for the value it stores under `key` on
    /// behalf of that object (answered by `SvcKvValue`).
    SvcKvFetch {
        /// Result-correlation token (fresh per attempt).
        token: u64,
        /// The cell owner to read from.
        object: u64,
        /// The queried key.
        key: u64,
    },
    /// Answer to a `SvcKvFetch`.
    SvcKvValue {
        /// Token of the answered fetch.
        token: u64,
        /// The stored value, `None` when the host holds no entry.
        value: Option<u64>,
    },
    /// Acknowledges one service push (`SvcSubscribe`/`SvcUnsubscribe`/
    /// `SvcDeliver`/`SvcKvStore`/`SvcKvDrop`/`SvcKvReplicate`).
    SvcAck {
        /// Acknowledged object.
        object: u64,
        /// Acknowledged service push sequence number.
        seq: u64,
    },
    /// Stores one KV entry's *replica copy* at the host of a Voronoi
    /// neighbour of the owning object, stamped with the entry's write
    /// sequence number so degraded reads can judge freshness.
    SvcKvReplicate {
        /// The replica-holding object (a Voronoi neighbour of the owner).
        object: u64,
        /// Monotonic per-object service push sequence number.
        seq: u64,
        /// The entry's key.
        key: u64,
        /// The entry's value.
        value: u64,
        /// The write's global sequence number (freshness stamp).
        entry_seq: u64,
    },
    /// Asks the host of `object` for the replica copy it stores under
    /// `key` (answered by `SvcKvReplicaValue`); issued when the owning
    /// object's host is suspected or dead.
    SvcKvFetchReplica {
        /// Result-correlation token (fresh per attempt).
        token: u64,
        /// The replica-holding object to read from.
        object: u64,
        /// The queried key.
        key: u64,
    },
    /// Answer to a `SvcKvFetchReplica`.
    SvcKvReplicaValue {
        /// Token of the answered fetch.
        token: u64,
        /// Freshness stamp of the replica copy (0 when absent).
        entry_seq: u64,
        /// The stored value, `None` when the host holds no replica.
        value: Option<u64>,
    },
    /// Asks a peer for its stats.
    StatsReq,
    /// Stats snapshot of one peer.
    StatsReply {
        /// Transport-level counters.
        stats: TransportStats,
        /// Protocol operations served by the peer.
        ops_served: u64,
    },
    /// Asks a peer to exit its serve loop.
    Shutdown,
}

// Kind bytes 1, 3, 4 and 6 are retired (see the module docs).
const KIND_HELLO: u8 = 0;
const KIND_ROUTE_STEP: u8 = 2;
const KIND_PING: u8 = 5;
const KIND_VIEW_UPDATE: u8 = 7;
const KIND_VIEW_ACK: u8 = 8;
const KIND_EVICT: u8 = 9;
const KIND_EVICT_ACK: u8 = 10;
const KIND_ROUTE_REQ: u8 = 11;
const KIND_AREA_REQ: u8 = 12;
const KIND_RADIUS_REQ: u8 = 13;
const KIND_ANSWER_OWNER: u8 = 14;
const KIND_ANSWER_MATCHES: u8 = 15;
const KIND_FLOOD_PROBE: u8 = 16;
const KIND_FLOOD_REPLY: u8 = 17;
const KIND_STATS_REQ: u8 = 18;
const KIND_STATS_REPLY: u8 = 19;
const KIND_SHUTDOWN: u8 = 20;
const KIND_SVC_SUBSCRIBE: u8 = 21;
const KIND_SVC_UNSUBSCRIBE: u8 = 22;
const KIND_SVC_DELIVER: u8 = 23;
const KIND_SVC_KV_STORE: u8 = 24;
const KIND_SVC_KV_DROP: u8 = 25;
const KIND_SVC_KV_FETCH: u8 = 26;
const KIND_SVC_KV_VALUE: u8 = 27;
const KIND_SVC_ACK: u8 = 28;
const KIND_SVC_KV_REPLICATE: u8 = 29;
const KIND_SVC_KV_FETCH_REPLICA: u8 = 30;
const KIND_SVC_KV_REPLICA_VALUE: u8 = 31;

const PURPOSE_JOIN: u8 = 0;
const PURPOSE_QUERY: u8 = 1;
const PURPOSE_AREA: u8 = 2;
const PURPOSE_RADIUS: u8 = 3;

const QUERY_RECT: u8 = 0;
const QUERY_DISK: u8 = 1;

fn put_point(buf: &mut Vec<u8>, p: Point2) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

fn read_point(r: &mut WireReader<'_>) -> Result<Point2, DecodeError> {
    Ok(Point2::new(r.f64()?, r.f64()?))
}

fn put_rect(buf: &mut Vec<u8>, rect: Rect) {
    put_point(buf, rect.min);
    put_point(buf, rect.max);
}

fn read_rect(r: &mut WireReader<'_>) -> Result<Rect, DecodeError> {
    Ok(Rect::new(read_point(r)?, read_point(r)?))
}

impl<'a> WireMsg<'a> {
    /// The kind byte this message encodes under.
    pub fn kind(&self) -> u8 {
        match self {
            WireMsg::Hello => KIND_HELLO,
            WireMsg::RouteStep { .. } => KIND_ROUTE_STEP,
            WireMsg::Ping { .. } => KIND_PING,
            WireMsg::ViewUpdate { .. } => KIND_VIEW_UPDATE,
            WireMsg::ViewAck { .. } => KIND_VIEW_ACK,
            WireMsg::Evict { .. } => KIND_EVICT,
            WireMsg::EvictAck { .. } => KIND_EVICT_ACK,
            WireMsg::RouteReq { .. } => KIND_ROUTE_REQ,
            WireMsg::AreaReq { .. } => KIND_AREA_REQ,
            WireMsg::RadiusReq { .. } => KIND_RADIUS_REQ,
            WireMsg::AnswerOwner { .. } => KIND_ANSWER_OWNER,
            WireMsg::AnswerMatches { .. } => KIND_ANSWER_MATCHES,
            WireMsg::FloodProbe { .. } => KIND_FLOOD_PROBE,
            WireMsg::FloodReply { .. } => KIND_FLOOD_REPLY,
            WireMsg::SvcSubscribe { .. } => KIND_SVC_SUBSCRIBE,
            WireMsg::SvcUnsubscribe { .. } => KIND_SVC_UNSUBSCRIBE,
            WireMsg::SvcDeliver { .. } => KIND_SVC_DELIVER,
            WireMsg::SvcKvStore { .. } => KIND_SVC_KV_STORE,
            WireMsg::SvcKvDrop { .. } => KIND_SVC_KV_DROP,
            WireMsg::SvcKvFetch { .. } => KIND_SVC_KV_FETCH,
            WireMsg::SvcKvValue { .. } => KIND_SVC_KV_VALUE,
            WireMsg::SvcAck { .. } => KIND_SVC_ACK,
            WireMsg::SvcKvReplicate { .. } => KIND_SVC_KV_REPLICATE,
            WireMsg::SvcKvFetchReplica { .. } => KIND_SVC_KV_FETCH_REPLICA,
            WireMsg::SvcKvReplicaValue { .. } => KIND_SVC_KV_REPLICA_VALUE,
            WireMsg::StatsReq => KIND_STATS_REQ,
            WireMsg::StatsReply { .. } => KIND_STATS_REPLY,
            WireMsg::Shutdown => KIND_SHUTDOWN,
        }
    }

    /// Encodes `header ‖ payload` into `buf` (cleared first).
    pub fn encode(&self, from: u64, to: u64, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
        buf.clear();
        FrameHeader {
            kind: self.kind(),
            from,
            to,
            len: 0,
        }
        .encode_into(buf);
        match *self {
            WireMsg::Hello | WireMsg::StatsReq | WireMsg::Shutdown => {}
            WireMsg::RouteStep {
                target,
                origin,
                hops,
                purpose,
            } => {
                put_point(buf, target);
                put_u64(buf, origin);
                put_u32(buf, hops);
                match purpose {
                    WirePurpose::Join { position, token } => {
                        buf.push(PURPOSE_JOIN);
                        put_point(buf, position);
                        put_u64(buf, token);
                    }
                    WirePurpose::Query { token } => {
                        buf.push(PURPOSE_QUERY);
                        put_u64(buf, token);
                    }
                    WirePurpose::Area { rect, token } => {
                        buf.push(PURPOSE_AREA);
                        put_rect(buf, rect);
                        put_u64(buf, token);
                    }
                    WirePurpose::Radius {
                        center,
                        radius,
                        token,
                    } => {
                        buf.push(PURPOSE_RADIUS);
                        put_point(buf, center);
                        put_f64(buf, radius);
                        put_u64(buf, token);
                    }
                }
            }
            WireMsg::Ping { reply } => buf.push(reply as u8),
            WireMsg::ViewUpdate {
                object,
                seq,
                coords,
                routing,
                vn,
                cell,
            } => {
                put_u64(buf, object);
                put_u64(buf, seq);
                put_point(buf, coords);
                routing.encode(buf);
                vn.encode(buf);
                cell.encode(buf);
            }
            WireMsg::ViewAck { object, seq }
            | WireMsg::Evict { object, seq }
            | WireMsg::EvictAck { object, seq } => {
                put_u64(buf, object);
                put_u64(buf, seq);
            }
            WireMsg::RouteReq {
                token,
                from_object,
                target,
            } => {
                put_u64(buf, token);
                put_u64(buf, from_object);
                put_point(buf, target);
            }
            WireMsg::AreaReq {
                token,
                from_object,
                rect,
            } => {
                put_u64(buf, token);
                put_u64(buf, from_object);
                put_rect(buf, rect);
            }
            WireMsg::RadiusReq {
                token,
                from_object,
                center,
                radius,
            } => {
                put_u64(buf, token);
                put_u64(buf, from_object);
                put_point(buf, center);
                put_f64(buf, radius);
            }
            WireMsg::AnswerOwner { token, owner, hops } => {
                put_u64(buf, token);
                put_u64(buf, owner);
                put_u32(buf, hops);
            }
            WireMsg::AnswerMatches {
                token,
                hops,
                visited,
                matches,
            } => {
                put_u64(buf, token);
                put_u32(buf, hops);
                put_u32(buf, visited);
                matches.encode(buf);
            }
            WireMsg::FloodProbe {
                token,
                object,
                query,
            } => {
                put_u64(buf, token);
                put_u64(buf, object);
                match query {
                    WireQuery::Rect(rect) => {
                        buf.push(QUERY_RECT);
                        put_rect(buf, rect);
                    }
                    WireQuery::Disk { center, radius } => {
                        buf.push(QUERY_DISK);
                        put_point(buf, center);
                        put_f64(buf, radius);
                    }
                }
            }
            WireMsg::FloodReply {
                token,
                object,
                eligible,
                is_match,
                neighbours,
            } => {
                put_u64(buf, token);
                put_u64(buf, object);
                buf.push(eligible as u8);
                buf.push(is_match as u8);
                neighbours.encode(buf);
            }
            WireMsg::SvcSubscribe {
                object,
                seq,
                region,
            } => {
                put_u64(buf, object);
                put_u64(buf, seq);
                put_rect(buf, region);
            }
            WireMsg::SvcUnsubscribe { object, seq } | WireMsg::SvcAck { object, seq } => {
                put_u64(buf, object);
                put_u64(buf, seq);
            }
            WireMsg::SvcDeliver {
                object,
                seq,
                topic,
                topic_seq,
                payload,
            } => {
                put_u64(buf, object);
                put_u64(buf, seq);
                for word in topic {
                    put_u64(buf, word);
                }
                put_u64(buf, topic_seq);
                put_u64(buf, payload);
            }
            WireMsg::SvcKvStore {
                object,
                seq,
                key,
                value,
            } => {
                put_u64(buf, object);
                put_u64(buf, seq);
                put_u64(buf, key);
                put_u64(buf, value);
            }
            WireMsg::SvcKvDrop { object, seq, key } => {
                put_u64(buf, object);
                put_u64(buf, seq);
                put_u64(buf, key);
            }
            WireMsg::SvcKvFetch { token, object, key } => {
                put_u64(buf, token);
                put_u64(buf, object);
                put_u64(buf, key);
            }
            WireMsg::SvcKvValue { token, value } => {
                put_u64(buf, token);
                match value {
                    Some(v) => {
                        buf.push(1);
                        put_u64(buf, v);
                    }
                    None => buf.push(0),
                }
            }
            WireMsg::SvcKvReplicate {
                object,
                seq,
                key,
                value,
                entry_seq,
            } => {
                put_u64(buf, object);
                put_u64(buf, seq);
                put_u64(buf, key);
                put_u64(buf, value);
                put_u64(buf, entry_seq);
            }
            WireMsg::SvcKvFetchReplica { token, object, key } => {
                put_u64(buf, token);
                put_u64(buf, object);
                put_u64(buf, key);
            }
            WireMsg::SvcKvReplicaValue {
                token,
                entry_seq,
                value,
            } => {
                put_u64(buf, token);
                put_u64(buf, entry_seq);
                match value {
                    Some(v) => {
                        buf.push(1);
                        put_u64(buf, v);
                    }
                    None => buf.push(0),
                }
            }
            WireMsg::StatsReply { stats, ops_served } => {
                put_u64(buf, stats.frames_sent);
                put_u64(buf, stats.frames_delivered);
                put_u64(buf, stats.dropped_loss);
                put_u64(buf, stats.dropped_partition);
                put_u64(buf, stats.dead_letters);
                put_u64(buf, stats.oversized);
                put_u64(buf, stats.decode_errors);
                put_u64(buf, stats.reconnects);
                put_u64(buf, ops_served);
            }
        }
        let len = buf.len() - HEADER_LEN;
        if len > MAX_PAYLOAD_LEN {
            return Err(EncodeError::Oversized { len });
        }
        buf[20..24].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    }

    /// Decodes one whole frame (`header ‖ payload`): validates the
    /// header, the declared length against the bytes present, parses the
    /// payload and rejects trailing bytes.
    pub fn decode(frame: &'a [u8]) -> Result<(FrameHeader, WireMsg<'a>), DecodeError> {
        let header = FrameHeader::decode(frame)?;
        let payload = &frame[HEADER_LEN.min(frame.len())..];
        if payload.len() != header.len as usize {
            return Err(DecodeError::LengthMismatch {
                declared: header.len as usize,
                actual: payload.len(),
            });
        }
        let mut r = WireReader::new(payload);
        let msg = match header.kind {
            KIND_HELLO => WireMsg::Hello,
            KIND_ROUTE_STEP => {
                let target = read_point(&mut r)?;
                let origin = r.u64()?;
                let hops = r.u32()?;
                let purpose = match r.u8()? {
                    PURPOSE_JOIN => WirePurpose::Join {
                        position: read_point(&mut r)?,
                        token: r.u64()?,
                    },
                    PURPOSE_QUERY => WirePurpose::Query { token: r.u64()? },
                    PURPOSE_AREA => WirePurpose::Area {
                        rect: read_rect(&mut r)?,
                        token: r.u64()?,
                    },
                    PURPOSE_RADIUS => WirePurpose::Radius {
                        center: read_point(&mut r)?,
                        radius: r.f64()?,
                        token: r.u64()?,
                    },
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "route purpose",
                            value,
                        })
                    }
                };
                WireMsg::RouteStep {
                    target,
                    origin,
                    hops,
                    purpose,
                }
            }
            KIND_PING => WireMsg::Ping {
                reply: match r.u8()? {
                    0 => false,
                    1 => true,
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "ping reply",
                            value,
                        })
                    }
                },
            },
            KIND_VIEW_UPDATE => WireMsg::ViewUpdate {
                object: r.u64()?,
                seq: r.u64()?,
                coords: read_point(&mut r)?,
                routing: EntryList::decode(&mut r)?,
                vn: IdList::decode(&mut r)?,
                cell: PointList::decode(&mut r)?,
            },
            KIND_VIEW_ACK => WireMsg::ViewAck {
                object: r.u64()?,
                seq: r.u64()?,
            },
            KIND_EVICT => WireMsg::Evict {
                object: r.u64()?,
                seq: r.u64()?,
            },
            KIND_EVICT_ACK => WireMsg::EvictAck {
                object: r.u64()?,
                seq: r.u64()?,
            },
            KIND_ROUTE_REQ => WireMsg::RouteReq {
                token: r.u64()?,
                from_object: r.u64()?,
                target: read_point(&mut r)?,
            },
            KIND_AREA_REQ => WireMsg::AreaReq {
                token: r.u64()?,
                from_object: r.u64()?,
                rect: read_rect(&mut r)?,
            },
            KIND_RADIUS_REQ => WireMsg::RadiusReq {
                token: r.u64()?,
                from_object: r.u64()?,
                center: read_point(&mut r)?,
                radius: r.f64()?,
            },
            KIND_ANSWER_OWNER => WireMsg::AnswerOwner {
                token: r.u64()?,
                owner: r.u64()?,
                hops: r.u32()?,
            },
            KIND_ANSWER_MATCHES => WireMsg::AnswerMatches {
                token: r.u64()?,
                hops: r.u32()?,
                visited: r.u32()?,
                matches: IdList::decode(&mut r)?,
            },
            KIND_FLOOD_PROBE => WireMsg::FloodProbe {
                token: r.u64()?,
                object: r.u64()?,
                query: match r.u8()? {
                    QUERY_RECT => WireQuery::Rect(read_rect(&mut r)?),
                    QUERY_DISK => WireQuery::Disk {
                        center: read_point(&mut r)?,
                        radius: r.f64()?,
                    },
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "flood query",
                            value,
                        })
                    }
                },
            },
            KIND_FLOOD_REPLY => {
                let token = r.u64()?;
                let object = r.u64()?;
                let eligible = match r.u8()? {
                    0 => false,
                    1 => true,
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "flood eligible",
                            value,
                        })
                    }
                };
                let is_match = match r.u8()? {
                    0 => false,
                    1 => true,
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "flood match",
                            value,
                        })
                    }
                };
                WireMsg::FloodReply {
                    token,
                    object,
                    eligible,
                    is_match,
                    neighbours: IdList::decode(&mut r)?,
                }
            }
            KIND_SVC_SUBSCRIBE => WireMsg::SvcSubscribe {
                object: r.u64()?,
                seq: r.u64()?,
                region: read_rect(&mut r)?,
            },
            KIND_SVC_UNSUBSCRIBE => WireMsg::SvcUnsubscribe {
                object: r.u64()?,
                seq: r.u64()?,
            },
            KIND_SVC_DELIVER => WireMsg::SvcDeliver {
                object: r.u64()?,
                seq: r.u64()?,
                topic: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
                topic_seq: r.u64()?,
                payload: r.u64()?,
            },
            KIND_SVC_KV_STORE => WireMsg::SvcKvStore {
                object: r.u64()?,
                seq: r.u64()?,
                key: r.u64()?,
                value: r.u64()?,
            },
            KIND_SVC_KV_DROP => WireMsg::SvcKvDrop {
                object: r.u64()?,
                seq: r.u64()?,
                key: r.u64()?,
            },
            KIND_SVC_KV_FETCH => WireMsg::SvcKvFetch {
                token: r.u64()?,
                object: r.u64()?,
                key: r.u64()?,
            },
            KIND_SVC_KV_VALUE => WireMsg::SvcKvValue {
                token: r.u64()?,
                value: match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "kv value presence",
                            value,
                        })
                    }
                },
            },
            KIND_SVC_ACK => WireMsg::SvcAck {
                object: r.u64()?,
                seq: r.u64()?,
            },
            KIND_SVC_KV_REPLICATE => WireMsg::SvcKvReplicate {
                object: r.u64()?,
                seq: r.u64()?,
                key: r.u64()?,
                value: r.u64()?,
                entry_seq: r.u64()?,
            },
            KIND_SVC_KV_FETCH_REPLICA => WireMsg::SvcKvFetchReplica {
                token: r.u64()?,
                object: r.u64()?,
                key: r.u64()?,
            },
            KIND_SVC_KV_REPLICA_VALUE => WireMsg::SvcKvReplicaValue {
                token: r.u64()?,
                entry_seq: r.u64()?,
                value: match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "kv replica value presence",
                            value,
                        })
                    }
                },
            },
            KIND_STATS_REQ => WireMsg::StatsReq,
            KIND_STATS_REPLY => WireMsg::StatsReply {
                stats: TransportStats {
                    frames_sent: r.u64()?,
                    frames_delivered: r.u64()?,
                    dropped_loss: r.u64()?,
                    dropped_partition: r.u64()?,
                    dead_letters: r.u64()?,
                    oversized: r.u64()?,
                    decode_errors: r.u64()?,
                    reconnects: r.u64()?,
                },
                ops_served: r.u64()?,
            },
            KIND_SHUTDOWN => WireMsg::Shutdown,
            kind => return Err(DecodeError::UnknownKind(kind)),
        };
        r.finish()?;
        Ok((header, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME_LEN;

    fn roundtrip(msg: WireMsg<'_>, from: u64, to: u64) {
        let mut buf = Vec::new();
        msg.encode(from, to, &mut buf).unwrap();
        assert!(buf.len() <= MAX_FRAME_LEN);
        let (header, decoded) = WireMsg::decode(&buf).unwrap();
        assert_eq!(header.from, from);
        assert_eq!(header.to, to);
        assert_eq!(header.kind, msg.kind());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn every_variant_round_trips() {
        let mut routing_scratch = Vec::new();
        let mut vn_scratch = Vec::new();
        let mut cell_scratch = Vec::new();
        let mut ids_scratch = Vec::new();
        let routing = EntryList::build(
            &mut routing_scratch,
            &[(3, Point2::new(0.25, 0.75)), (9, Point2::new(0.5, 0.125))],
        );
        let vn = IdList::build(&mut vn_scratch, &[3, 9, 27]);
        let cell = PointList::build(
            &mut cell_scratch,
            &[
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.5, 1.0),
            ],
        );
        let matches = IdList::build(&mut ids_scratch, &[1, 2, 3, 5, 8]);
        let rect = Rect::new(Point2::new(0.1, 0.2), Point2::new(0.6, 0.7));
        let msgs: Vec<WireMsg<'_>> = vec![
            WireMsg::Hello,
            WireMsg::RouteStep {
                target: Point2::new(0.9, 0.1),
                origin: u64::MAX - 5,
                hops: 12,
                purpose: WirePurpose::Join {
                    position: Point2::new(0.9, 0.1),
                    token: 5,
                },
            },
            WireMsg::RouteStep {
                target: Point2::new(0.2, 0.2),
                origin: 4,
                hops: 0,
                purpose: WirePurpose::Query { token: 0 },
            },
            WireMsg::RouteStep {
                target: rect.center(),
                origin: 4,
                hops: 3,
                purpose: WirePurpose::Area { rect, token: 9 },
            },
            WireMsg::RouteStep {
                target: Point2::new(0.5, 0.5),
                origin: 4,
                hops: 3,
                purpose: WirePurpose::Radius {
                    center: Point2::new(0.5, 0.5),
                    radius: 0.1,
                    token: 9,
                },
            },
            WireMsg::Ping { reply: true },
            WireMsg::Ping { reply: false },
            WireMsg::ViewUpdate {
                object: 17,
                seq: 4,
                coords: Point2::new(0.33, 0.66),
                routing,
                vn,
                cell,
            },
            WireMsg::ViewAck { object: 17, seq: 4 },
            WireMsg::Evict { object: 17, seq: 5 },
            WireMsg::EvictAck { object: 17, seq: 5 },
            WireMsg::RouteReq {
                token: 11,
                from_object: 2,
                target: Point2::new(0.8, 0.2),
            },
            WireMsg::AreaReq {
                token: 12,
                from_object: 2,
                rect,
            },
            WireMsg::RadiusReq {
                token: 13,
                from_object: 2,
                center: Point2::new(0.4, 0.6),
                radius: 0.05,
            },
            WireMsg::AnswerOwner {
                token: 11,
                owner: 40,
                hops: 6,
            },
            WireMsg::AnswerMatches {
                token: 12,
                hops: 6,
                visited: 30,
                matches,
            },
            WireMsg::FloodProbe {
                token: 12,
                object: 8,
                query: WireQuery::Rect(rect),
            },
            WireMsg::FloodProbe {
                token: 13,
                object: 8,
                query: WireQuery::Disk {
                    center: Point2::new(0.4, 0.6),
                    radius: 0.05,
                },
            },
            WireMsg::FloodReply {
                token: 12,
                object: 8,
                eligible: true,
                is_match: false,
                neighbours: vn,
            },
            WireMsg::SvcSubscribe {
                object: 7,
                seq: 3,
                region: rect,
            },
            WireMsg::SvcUnsubscribe { object: 7, seq: 4 },
            WireMsg::SvcDeliver {
                object: 7,
                seq: 5,
                topic: [1, u64::MAX, 0, 42],
                topic_seq: 9,
                payload: 0xDEAD_BEEF,
            },
            WireMsg::SvcKvStore {
                object: 8,
                seq: 6,
                key: 123,
                value: 456,
            },
            WireMsg::SvcKvDrop {
                object: 8,
                seq: 7,
                key: 123,
            },
            WireMsg::SvcKvFetch {
                token: 14,
                object: 8,
                key: 123,
            },
            WireMsg::SvcKvValue {
                token: 14,
                value: Some(456),
            },
            WireMsg::SvcKvValue {
                token: 15,
                value: None,
            },
            WireMsg::SvcAck { object: 8, seq: 7 },
            WireMsg::SvcKvReplicate {
                object: 9,
                seq: 8,
                key: 123,
                value: 456,
                entry_seq: 77,
            },
            WireMsg::SvcKvFetchReplica {
                token: 16,
                object: 9,
                key: 123,
            },
            WireMsg::SvcKvReplicaValue {
                token: 16,
                entry_seq: 77,
                value: Some(456),
            },
            WireMsg::SvcKvReplicaValue {
                token: 17,
                entry_seq: 0,
                value: None,
            },
            WireMsg::StatsReq,
            WireMsg::StatsReply {
                stats: TransportStats {
                    frames_sent: 1,
                    frames_delivered: 2,
                    dropped_loss: 3,
                    dropped_partition: 4,
                    dead_letters: 5,
                    oversized: 6,
                    decode_errors: 7,
                    reconnects: 8,
                },
                ops_served: 99,
            },
            WireMsg::Shutdown,
        ];
        for msg in msgs {
            roundtrip(msg, 0, 1);
            roundtrip(msg, u64::MAX, u64::MAX - 1);
        }
    }

    #[test]
    fn list_views_are_zero_copy_and_lazy() {
        let mut scratch = Vec::new();
        let items = [(1u64, Point2::new(0.1, 0.9)), (2, Point2::new(0.2, 0.8))];
        let list = EntryList::build(&mut scratch, &items);
        assert_eq!(list.len(), 2);
        assert_eq!(list.to_vec(), items);
        let empty = EntryList::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn truncation_yields_typed_errors() {
        let mut buf = Vec::new();
        WireMsg::RouteReq {
            token: 1,
            from_object: 2,
            target: Point2::new(0.5, 0.5),
        }
        .encode(3, 4, &mut buf)
        .unwrap();
        // Chop the frame at every length: always an error, never a panic.
        for cut in 0..buf.len() {
            let err = WireMsg::decode(&buf[..cut]).unwrap_err();
            match err {
                DecodeError::Truncated { .. } | DecodeError::LengthMismatch { .. } => {}
                other => panic!("unexpected error {other:?} at cut {cut}"),
            }
        }
        assert!(WireMsg::decode(&buf).is_ok());
    }

    #[test]
    fn unknown_kind_and_bad_tags_are_rejected() {
        let mut buf = Vec::new();
        WireMsg::Shutdown.encode(0, 1, &mut buf).unwrap();
        buf[3] = 250;
        assert_eq!(WireMsg::decode(&buf), Err(DecodeError::UnknownKind(250)));

        let mut buf = Vec::new();
        WireMsg::Ping { reply: false }
            .encode(0, 1, &mut buf)
            .unwrap();
        buf[HEADER_LEN] = 7;
        assert!(matches!(
            WireMsg::decode(&buf),
            Err(DecodeError::BadTag {
                field: "ping reply",
                value: 7
            })
        ));
    }

    #[test]
    fn retired_kind_bytes_stay_unknown() {
        for retired in [1u8, 3, 4, 6] {
            let mut buf = Vec::new();
            WireMsg::Shutdown.encode(0, 1, &mut buf).unwrap();
            buf[3] = retired;
            assert_eq!(
                WireMsg::decode(&buf),
                Err(DecodeError::UnknownKind(retired))
            );
        }
    }
}
