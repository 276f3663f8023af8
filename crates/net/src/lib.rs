//! Wire protocol and pluggable transports: the deployable face of the
//! VoroNet overlay (Beaumont, Kermarrec, Marchal, Rivière — IPDPS'07).
//!
//! `core` holds the overlay as one authoritative data structure.  This
//! crate runs the protocol at the message level: hosts exchanging byte
//! frames over a transport, in-process or over real sockets:
//!
//! * [`frame`] — the versioned frame header, decode errors and the
//!   bounds-checked reader every payload parser is built on.
//! * [`wire`] — the message codec: [`wire::WireMsg`] encodes into
//!   compact frames and decodes into zero-copy borrowed views, totally
//!   (typed errors, never panics).
//! * [`transport`] — the pluggable [`transport::Transport`] contract:
//!   datagram semantics, loss counted rather than surfaced.
//! * [`vnet`] — the deterministic in-memory transport wrapping the
//!   latency of a [`NetworkModel`](voronet_sim::NetworkModel): same seed,
//!   same order, same stats, and no frame lost.
//! * [`udp`] / [`tcp`] — real loopback/LAN transports over std sockets
//!   (one frame per datagram; length-delimited streams with reconnect).
//! * [`cluster`] — a driver + hosts deployment speaking the wire protocol
//!   over any transport, conformant with the single-process engines;
//!   [`InlineCluster`] runs a whole one on one thread and, over vnet, on
//!   one virtual clock, and is an `Overlay` engine of its own.
//! * [`fault`] — seeded deterministic fault injection
//!   ([`fault::FaultTransport`] wraps any transport; [`fault::FaultPlan`]
//!   schedules crashes, restarts and partitions): every lost, duplicated,
//!   reordered or partitioned frame of chaos, the fuzz fleet and the
//!   tests comes from here.
//!
//! The `voronet-node` binary (crate `crates/node`) builds on [`cluster`]
//! to run a live overlay over localhost sockets.

#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod frame;
pub mod tcp;
pub mod transport;
pub mod udp;
pub mod vnet;
pub mod wire;

pub use cluster::{
    ClusterError, ClusterStats, Driver, HostNode, HostReport, HostState, InlineCluster,
    InlineTransport, Liveness, OpOutcome, RetryPolicy, DRIVER_PEER,
};
pub use fault::{FaultCtl, FaultEvent, FaultPlan, FaultStats, FaultTransport, LinkFaults};
pub use frame::{DecodeError, FrameHeader, HEADER_LEN, MAGIC, MAX_FRAME_LEN, WIRE_VERSION};
pub use tcp::TcpTransport;
pub use transport::{PeerId, Transport, TransportError};
pub use udp::UdpTransport;
pub use vnet::{VnetHub, VnetTransport};
pub use wire::{
    EncodeError, EntryList, IdList, PlacedList, PointList, PositionList, WireMsg, WirePurpose,
    WireQuery,
};
