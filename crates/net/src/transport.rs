//! The pluggable transport contract: byte frames between addressed peers.
//!
//! A [`Transport`] moves opaque frames (produced by [`crate::wire`])
//! between [`PeerId`]s.  The contract is deliberately minimal so one
//! driver loop runs unchanged over the deterministic in-memory simulator
//! ([`crate::vnet`]), loopback/LAN UDP ([`crate::udp`]) and TCP with
//! reconnect ([`crate::tcp`]):
//!
//! * **Datagram semantics** — one `send` is one frame; `recv_into` yields
//!   whole frames (TCP reassembles internally).  Frames may be lost,
//!   duplicated (retries) or reordered; protocols above use acks, fresh
//!   tokens and idempotent handlers.
//! * **Addressing** — peers are dense `u64` ids; [`Transport::register`]
//!   binds an id to a transport-specific address string before any send.
//! * **Non-blocking** — `recv_into` never blocks; [`Transport::poll`]
//!   makes background progress (pump sockets, release held frames) and
//!   may yield the CPU briefly when idle.
//! * **Time** — every timer above the transport reads
//!   [`Transport::now`] and waits through [`Transport::idle`]: the wall
//!   clock and a yield or sleep by default, the hub's virtual clock on
//!   vnet, where only an idle turn moves time.
//! * **Accounting** — every drop, dead letter, decode failure and
//!   reconnect is counted in [`TransportStats`], so lossy-path tests
//!   assert on counters instead of silence.

use std::fmt;
use std::time::{Duration, Instant};
use voronet_sim::TransportStats;

/// Identifier of a transport peer (a process hosting overlay objects; the
/// driver is conventionally peer 0).
pub type PeerId = u64;

/// Why a transport operation failed.  Losing a frame in flight is *not*
/// an error (it is counted); errors are misuse or unrecoverable socket
/// state.
#[derive(Debug)]
pub enum TransportError {
    /// The destination peer was never [`Transport::register`]ed.
    UnknownPeer(PeerId),
    /// The frame exceeds the transport's frame budget
    /// ([`crate::frame::MAX_FRAME_LEN`]).
    Oversized {
        /// Length of the rejected frame.
        len: usize,
    },
    /// The peer address string did not parse.
    BadAddress(String),
    /// An unrecoverable socket error.
    Io(std::io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            TransportError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the transport budget")
            }
            TransportError::BadAddress(a) => write!(f, "unparseable peer address {a:?}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Byte-frame transport between addressed peers; see the module docs for
/// the contract.
pub trait Transport {
    /// This endpoint's own peer id.
    fn local_peer(&self) -> PeerId;

    /// Binds `peer` to a transport-specific address (`"host:port"` for
    /// the socket transports; ignored by vnet, where hub membership is
    /// the address book).  Must be called before sending to `peer`.
    fn register(&mut self, peer: PeerId, addr: &str) -> Result<(), TransportError>;

    /// Submits one frame to `to`.  Delivery is best-effort: a frame lost
    /// to injected loss, a full socket buffer or a dead connection is
    /// *counted* (see [`Transport::stats`]) and the call still returns
    /// `Ok`.  Errors are reserved for misuse (unknown peer, oversized
    /// frame) and unrecoverable socket state.
    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError>;

    /// Makes background progress: pumps sockets, accepts connections,
    /// advances the vnet clock.  May yield the CPU briefly when there is
    /// nothing to do; never blocks indefinitely.
    fn poll(&mut self) -> Result<(), TransportError>;

    /// Moves the next received frame into `buf` (cleared first) and
    /// returns the sending peer, or `None` when nothing is pending.
    /// Never blocks.  The transport may keep `buf`'s previous allocation
    /// and hand over one of its own.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError>;

    /// This endpoint's transport-level counters.
    fn stats(&self) -> TransportStats;

    /// The time this endpoint's timers read: the wall clock unless the
    /// transport keeps its own.  A wrapper must forward it.
    fn now(&self) -> Instant {
        Instant::now()
    }

    /// Spends one idle turn of a waiting loop: a yield when `wait` is
    /// zero, otherwise a sleep of `wait`.  A transport with its own clock
    /// advances it instead.  A wrapper must forward it.
    fn idle(&mut self, wait: Duration) {
        if wait.is_zero() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(wait);
        }
    }
}
