//! Payload codec: every message the overlay exchanges, as a compact
//! little-endian binary layout behind the [`crate::frame`] header.
//!
//! [`WireMsg`] holds the control- and data-plane messages of a deployed
//! overlay (`ViewUpdate`/`RouteReq`/`RouteStep`/`FloodProbe`/… — see
//! [`crate::cluster`]).  One table, the `wire_messages!` invocation below,
//! declares every message: its variant, its kind byte and its fields in
//! wire order.  The enum, [`WireMsg::kind`], [`WireMsg::encode`] and
//! [`WireMsg::decode`] are generated from it, and each field type says
//! once how it is written and read (the private `Field` trait), so a new
//! message is one table row.  Kind bytes 1, 3, 4, 6, 21, 22 and 23
//! belonged to messages nothing sends any more (a join request, a
//! neighbourhood-change notice, a departure notice, a bare route answer,
//! the host-side subscription pushes and the delivery of a publication to
//! its subscribers' hosts); they stay out of the table, decode as
//! [`DecodeError::UnknownKind`] and are never reused.  The codec tests pin
//! a digest of the encoded bytes, so a reordered or retyped field fails
//! them even though it would still round-trip.
//!
//! Every object a frame names as a place to go next — a routing entry in
//! a `ViewUpdate`, a neighbour in a `FloodReply` — travels with the host
//! peer the driver placed it on, since
//! [`WIRE_VERSION`](crate::frame::WIRE_VERSION) 2: an [`EntryList`] item
//! is `id u64 ‖ host u64 ‖ x f64 ‖ y f64` (32 bytes), a [`PlacedList`]
//! item `id u64 ‖ host u64` (16 bytes).  A `ViewUpdate` names its Voronoi
//! neighbours as [`PositionList`] items, `u16` positions into its own
//! routing list (2 bytes each; every neighbour is a routing entry).  Hosts
//! never compute placement, they read it.
//!
//! Decode is **zero-copy**: list-valued fields ([`EntryList`],
//! [`PlacedList`], [`PositionList`], [`IdList`], [`PointList`]) borrow
//! the frame buffer and
//! parse items lazily on iteration; no allocation happens until the
//! caller keeps something.  Decoding is total — malformed bytes yield a
//! typed [`DecodeError`], never a panic.

use crate::frame::{DecodeError, FrameHeader, WireReader, HEADER_LEN, MAX_PAYLOAD_LEN};
use std::borrow::Borrow;
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

/// One field of a wire message: how a value is appended to a payload and
/// read back out of one.  `field` names the field (`Variant.field`) for
/// the [`DecodeError::BadTag`] a tag byte with no meaning yields.  The
/// impls a list item goes through are `#[inline]`: out of line, building
/// and reading a `ViewUpdate`'s lists took up to 2.7× as long.
trait Field<'a>: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError>;
}

/// Little-endian; an `f64` travels as its IEEE-754 bit pattern.
macro_rules! scalar_field {
    ($($t:ident),*) => {$(
        impl<'a> Field<'a> for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn take(r: &mut WireReader<'a>, _: &'static str) -> Result<Self, DecodeError> {
                let bytes = r.bytes(std::mem::size_of::<$t>())?;
                Ok($t::from_le_bytes(bytes.try_into().expect("exact length")))
            }
        }
    )*};
}

scalar_field!(u8, u16, u32, u64, f64);

/// A flag is one byte, 0 or 1; any other value is a [`DecodeError::BadTag`].
impl<'a> Field<'a> for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        match u8::take(r, field)? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(DecodeError::BadTag { field, value }),
        }
    }
}

/// A presence flag, then the value when present.
impl<'a> Field<'a> for Option<u64> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }

    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok(match bool::take(r, field)? {
            true => Some(u64::take(r, field)?),
            false => None,
        })
    }
}

impl<'a, A: Field<'a>, B: Field<'a>> Field<'a> for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }

    #[inline]
    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok((A::take(r, field)?, B::take(r, field)?))
    }
}

impl<'a, A: Field<'a>, B: Field<'a>, C: Field<'a>> Field<'a> for (A, B, C) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
        self.2.put(buf);
    }

    #[inline]
    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok((A::take(r, field)?, B::take(r, field)?, C::take(r, field)?))
    }
}

impl<'a> Field<'a> for Point2 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.x.put(buf);
        self.y.put(buf);
    }

    #[inline]
    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok(Point2::new(f64::take(r, field)?, f64::take(r, field)?))
    }
}

impl<'a> Field<'a> for Rect {
    fn put(&self, buf: &mut Vec<u8>) {
        self.min.put(buf);
        self.max.put(buf);
    }

    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok(Rect::new(Point2::take(r, field)?, Point2::take(r, field)?))
    }
}

impl<'a> Field<'a> for TransportStats {
    fn put(&self, buf: &mut Vec<u8>) {
        let s = self;
        for v in [
            s.frames_sent,
            s.frames_delivered,
            s.dropped_loss,
            s.dropped_partition,
            s.dead_letters,
            s.oversized,
            s.decode_errors,
            s.reconnects,
        ] {
            v.put(buf);
        }
    }

    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok(TransportStats {
            frames_sent: u64::take(r, field)?,
            frames_delivered: u64::take(r, field)?,
            dropped_loss: u64::take(r, field)?,
            dropped_partition: u64::take(r, field)?,
            dead_letters: u64::take(r, field)?,
            oversized: u64::take(r, field)?,
            decode_errors: u64::take(r, field)?,
            reconnects: u64::take(r, field)?,
        })
    }
}

/// A list view: a `u32` item count, then `$size`-byte items, each laid
/// out by the item type's own [`Field`] impl.
macro_rules! wire_list {
    ($(#[$doc:meta])* $name:ident, $iter:ident, $item:ty, $size:expr) => {
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

            /// Serialises `items` (a slice, or any iterator of items) into
            /// the caller's scratch buffer and returns a view borrowing it
            /// (the encode-side counterpart of zero-copy decoding).
            pub fn build(
                scratch: &'a mut Vec<u8>,
                items: impl IntoIterator<Item = impl Borrow<$item>>,
            ) -> Self {
                scratch.clear();
                for item in items {
                    item.borrow().put(scratch);
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
        }

        impl<'a> Field<'a> for $name<'a> {
            fn put(&self, buf: &mut Vec<u8>) {
                (self.len() as u32).put(buf);
                buf.extend_from_slice(self.bytes);
            }

            fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
                let count = u32::take(r, field)? as usize;
                let bytes = r.bytes(count * $size)?;
                Ok($name { bytes })
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
                // Always `Some`: the head holds exactly one item.
                <$item>::take(&mut WireReader::new(head), "list item").ok()
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                let len = self.bytes.len() / $size;
                (len, Some(len))
            }
        }

        impl ExactSizeIterator for $iter<'_> {}
    };
}

wire_list!(
    /// Borrowed list of `(node id, host peer, coordinates)` routing-table
    /// entries.
    EntryList,
    EntryIter,
    (u64, u64, Point2),
    32 // u64 id + u64 host + 2 × f64 coords
);

wire_list!(
    /// Borrowed list of `(node id, host peer)` pairs (e.g. Voronoi
    /// neighbours, each with the host to probe it on).
    PlacedList,
    PlacedIter,
    (u64, u64),
    16 // u64 id + u64 host
);

wire_list!(
    /// Borrowed list of `u16` positions into a frame's routing list (a
    /// view's Voronoi neighbours).
    PositionList,
    PositionIter,
    u16,
    2
);

wire_list!(
    /// Borrowed list of points (e.g. a Voronoi cell polygon).
    PointList,
    PointIter,
    Point2,
    16 // 2 × f64
);

wire_list!(
    /// Borrowed list of node ids.
    IdList,
    IdIter,
    u64,
    8
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

/// A tag byte (0 join, 1 query, 2 area, 3 radius), then the variant's
/// fields.
impl<'a> Field<'a> for WirePurpose {
    fn put(&self, buf: &mut Vec<u8>) {
        match *self {
            WirePurpose::Join { position, token } => {
                buf.push(0);
                position.put(buf);
                token.put(buf);
            }
            WirePurpose::Query { token } => {
                buf.push(1);
                token.put(buf);
            }
            WirePurpose::Area { rect, token } => {
                buf.push(2);
                rect.put(buf);
                token.put(buf);
            }
            WirePurpose::Radius {
                center,
                radius,
                token,
            } => {
                buf.push(3);
                center.put(buf);
                radius.put(buf);
                token.put(buf);
            }
        }
    }

    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok(match u8::take(r, field)? {
            0 => WirePurpose::Join {
                position: Field::take(r, field)?,
                token: Field::take(r, field)?,
            },
            1 => WirePurpose::Query {
                token: Field::take(r, field)?,
            },
            2 => WirePurpose::Area {
                rect: Field::take(r, field)?,
                token: Field::take(r, field)?,
            },
            3 => WirePurpose::Radius {
                center: Field::take(r, field)?,
                radius: Field::take(r, field)?,
                token: Field::take(r, field)?,
            },
            value => return Err(DecodeError::BadTag { field, value }),
        })
    }
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

/// A tag byte (0 rectangle, 1 disk), then the variant's fields.
impl<'a> Field<'a> for WireQuery {
    fn put(&self, buf: &mut Vec<u8>) {
        match *self {
            WireQuery::Rect(rect) => {
                buf.push(0);
                rect.put(buf);
            }
            WireQuery::Disk { center, radius } => {
                buf.push(1);
                center.put(buf);
                radius.put(buf);
            }
        }
    }

    fn take(r: &mut WireReader<'a>, field: &'static str) -> Result<Self, DecodeError> {
        Ok(match u8::take(r, field)? {
            0 => WireQuery::Rect(Field::take(r, field)?),
            1 => WireQuery::Disk {
                center: Field::take(r, field)?,
                radius: Field::take(r, field)?,
            },
            value => return Err(DecodeError::BadTag { field, value }),
        })
    }
}

/// Generates the message enum, `kind`, `encode` and `decode` from one
/// table: each variant carries its kind byte and lists its fields in wire
/// order.
macro_rules! wire_messages {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident<$lt:lifetime> {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal $({
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name<$lt> {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $ty),* })?,
            )*
        }

        impl<$lt> $name<$lt> {
            /// The kind byte this message encodes under.
            pub fn kind(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $kind,)*
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
                match self {
                    $($name::$variant $({ $($field),* })? => {
                        $($($field.put(buf);)*)?
                    })*
                }
                let len = buf.len() - HEADER_LEN;
                if len > MAX_PAYLOAD_LEN {
                    return Err(EncodeError::Oversized { len });
                }
                buf[20..24].copy_from_slice(&(len as u32).to_le_bytes());
                Ok(())
            }

            /// Decodes one whole frame (`header ‖ payload`): validates the
            /// header, the declared length against the bytes present, parses
            /// the payload and rejects trailing bytes.
            pub fn decode(frame: &$lt [u8]) -> Result<(FrameHeader, $name<$lt>), DecodeError> {
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
                    $($kind => $name::$variant $({ $(
                        $field: <$ty as Field<$lt>>::take(
                            &mut r,
                            concat!(stringify!($variant), ".", stringify!($field)),
                        )?,
                    )* })?,)*
                    kind => return Err(DecodeError::UnknownKind(kind)),
                };
                r.finish()?;
                Ok((header, msg))
            }
        }
    };
}

wire_messages! {
    /// One decoded wire message.  List-valued fields borrow the frame buffer.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum WireMsg<'a> {
        /// Transport-level preamble identifying the sending peer (TCP sends
        /// it first on every new connection; header `from` carries the id).
        Hello = 0,
        /// One greedy forwarding step.
        RouteStep = 2 {
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
        Ping = 5 {
            /// True on the echo leg.
            reply: bool,
        },
        /// Installs / refreshes one hosted object's view on its host: the
        /// object's coordinates, its flattened routing table, its Voronoi
        /// neighbours (the flood graph) and its clipped Voronoi cell polygon
        /// (the flood-eligibility geometry).  Every routing entry names the
        /// host it lives on; a neighbour names its routing entry.
        ViewUpdate = 7 {
            /// The object whose view this is.
            object: u64,
            /// Monotonic per-object sequence number (acked by `ViewAck`).
            seq: u64,
            /// The object's attribute coordinates.
            coords: Point2,
            /// Flattened routing neighbours with their hosts and coordinates.
            routing: EntryList<'a>,
            /// Voronoi neighbours, as positions in `routing`.
            vn: PositionList<'a>,
            /// Vertices of the object's Voronoi cell clipped to the domain.
            cell: PointList<'a>,
        },
        /// Acknowledges a `ViewUpdate`.
        ViewAck = 8 {
            /// Acknowledged object.
            object: u64,
            /// Acknowledged sequence number.
            seq: u64,
        },
        /// Removes one hosted object from its host.
        Evict = 9 {
            /// The departing object.
            object: u64,
            /// Monotonic per-object sequence number (acked by `EvictAck`).
            seq: u64,
        },
        /// Acknowledges an `Evict`.
        EvictAck = 10 {
            /// Acknowledged object.
            object: u64,
            /// Acknowledged sequence number.
            seq: u64,
        },
        /// Asks the host of `from_object` to start a greedy point route.
        RouteReq = 11 {
            /// Result-correlation token (fresh per attempt).
            token: u64,
            /// Hosted object the route starts from.
            from_object: u64,
            /// Route target.
            target: Point2,
        },
        /// Asks the host of `from_object` to start a rectangular area query.
        AreaReq = 12 {
            /// Result-correlation token (fresh per attempt).
            token: u64,
            /// Hosted object the query starts from.
            from_object: u64,
            /// Queried rectangle.
            rect: Rect,
        },
        /// Asks the host of `from_object` to start a radius query.
        RadiusReq = 13 {
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
        AnswerOwner = 14 {
            /// Token of the answered request.
            token: u64,
            /// Owner object.
            owner: u64,
            /// Hops of the greedy walk.
            hops: u32,
        },
        /// Area/radius-query result.
        AnswerMatches = 15 {
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
        FloodProbe = 16 {
            /// Token of the area/radius query being flooded.
            token: u64,
            /// Object to evaluate.
            object: u64,
            /// The query predicate parameters.
            query: WireQuery,
        },
        /// Reply to a `FloodProbe`.
        FloodReply = 17 {
            /// Token of the area/radius query being flooded.
            token: u64,
            /// Evaluated object.
            object: u64,
            /// True when the object's cell touches the queried area (the
            /// flood expands through it).
            eligible: bool,
            /// True when the object's coordinates satisfy the predicate.
            is_match: bool,
            /// The object's Voronoi neighbours (expansion set) with their
            /// hosts.
            neighbours: PlacedList<'a>,
        },
        /// Stores one KV entry at the host of its owning object.
        SvcKvStore = 24 {
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
        SvcKvDrop = 25 {
            /// The cell owner the entry belonged to.
            object: u64,
            /// Monotonic per-object service push sequence number.
            seq: u64,
            /// The entry's key.
            key: u64,
        },
        /// Asks the host of `object` for the value it stores under `key` on
        /// behalf of that object (answered by `SvcKvValue`).
        SvcKvFetch = 26 {
            /// Result-correlation token (fresh per attempt).
            token: u64,
            /// The cell owner to read from.
            object: u64,
            /// The queried key.
            key: u64,
        },
        /// Answer to a `SvcKvFetch`.
        SvcKvValue = 27 {
            /// Token of the answered fetch.
            token: u64,
            /// The stored value, `None` when the host holds no entry.
            value: Option<u64>,
        },
        /// Acknowledges one service push (`SvcKvStore`/`SvcKvDrop`/
        /// `SvcKvReplicate`).
        SvcAck = 28 {
            /// Acknowledged object.
            object: u64,
            /// Acknowledged service push sequence number.
            seq: u64,
        },
        /// Stores one KV entry's *replica copy* at the host of a Voronoi
        /// neighbour of the owning object, stamped with the entry's write
        /// sequence number so degraded reads can judge freshness.
        SvcKvReplicate = 29 {
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
        SvcKvFetchReplica = 30 {
            /// Result-correlation token (fresh per attempt).
            token: u64,
            /// The replica-holding object to read from.
            object: u64,
            /// The queried key.
            key: u64,
        },
        /// Answer to a `SvcKvFetchReplica`.
        SvcKvReplicaValue = 31 {
            /// Token of the answered fetch.
            token: u64,
            /// Freshness stamp of the replica copy (0 when absent).
            entry_seq: u64,
            /// The stored value, `None` when the host holds no replica.
            value: Option<u64>,
        },
        /// Asks a peer for its stats.
        StatsReq = 18,
        /// Stats snapshot of one peer.
        StatsReply = 19 {
            /// Transport-level counters.
            stats: TransportStats,
            /// Protocol operations served by the peer.
            ops_served: u64,
        },
        /// Asks a peer to exit its serve loop.
        Shutdown = 20,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME_LEN;

    /// Round-trips `msg` and returns its encoded frame.
    fn roundtrip(msg: WireMsg<'_>, from: u64, to: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(from, to, &mut buf).unwrap();
        assert!(buf.len() <= MAX_FRAME_LEN);
        let (header, decoded) = WireMsg::decode(&buf).unwrap();
        assert_eq!(header.from, from);
        assert_eq!(header.to, to);
        assert_eq!(header.kind, msg.kind());
        assert_eq!(decoded, msg);
        buf
    }

    #[test]
    fn every_variant_round_trips() {
        let mut routing_scratch = Vec::new();
        let mut vn_scratch = Vec::new();
        let mut cell_scratch = Vec::new();
        let mut ids_scratch = Vec::new();
        let routing = EntryList::build(
            &mut routing_scratch,
            [
                (3, 1, Point2::new(0.25, 0.75)),
                (9, 2, Point2::new(0.5, 0.125)),
            ],
        );
        let mut placed_scratch = Vec::new();
        let vn = PositionList::build(&mut vn_scratch, [1, 0, u16::MAX]);
        let placed = PlacedList::build(&mut placed_scratch, [(3, 1), (9, 2), (27, u64::MAX)]);
        let cell = PointList::build(
            &mut cell_scratch,
            [
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.5, 1.0),
            ],
        );
        let matches = IdList::build(&mut ids_scratch, [1, 2, 3, 5, 8]);
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
                neighbours: placed,
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
        // Round-tripping alone cannot catch a reordered field (encode and
        // decode would agree with each other), so the bytes are pinned too.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a-64
        for msg in msgs {
            for frame in [roundtrip(msg, 0, 1), roundtrip(msg, u64::MAX, u64::MAX - 1)] {
                for b in frame {
                    digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(
            digest, 0x6a05_a752_5628_3ba7,
            "wire bytes moved: {digest:#018x}"
        );
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5e-300, f64::MAX, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            v.put(&mut buf);
            let back = f64::take(&mut WireReader::new(&buf), "f64").unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn list_views_are_zero_copy_and_lazy() {
        let mut scratch = Vec::new();
        let items = [
            (1u64, 3, Point2::new(0.1, 0.9)),
            (2, 1, Point2::new(0.2, 0.8)),
        ];
        let list = EntryList::build(&mut scratch, items);
        assert_eq!(list.len(), 2);
        assert_eq!(list.to_vec(), items);
        // Iterators know their exact length, so collecting allocates once,
        // to the size of the list.
        let mut iter = list.iter();
        assert_eq!(iter.len(), 2);
        iter.next();
        assert_eq!(iter.size_hint(), (1, Some(1)));
        let ids: Vec<u64> = (0..17).collect();
        let mut id_scratch = Vec::new();
        assert_eq!(IdList::build(&mut id_scratch, &ids).to_vec().capacity(), 17);
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
                field: "Ping.reply",
                value: 7
            })
        ));
    }

    #[test]
    fn retired_kind_bytes_stay_unknown() {
        for retired in [1u8, 3, 4, 6, 21, 22, 23] {
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
