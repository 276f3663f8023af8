//! The deterministic in-memory transport: a simulated network's latency
//! ([`NetworkModel`]) behind the [`Transport`] trait.
//!
//! A [`VnetHub`] is a shared switch all endpoints of one virtual network
//! hang off.  `send` draws one latency from the hub's `NetworkModel` and
//! timestamps the frame `now + delay` in the hub's virtual clock (one
//! tick per submission).  `recv_into` drains frames in
//! `(delivery time, submission sequence)` order, so a single-threaded
//! session is bit-deterministic per seed: same sends → same ordering,
//! same [`TransportStats`].  The hub loses nothing; lost frames, crashes
//! and partitions come from wrapping its endpoints in a
//! [`FaultTransport`](crate::fault::FaultTransport).
//!
//! The hub also carries the one clock every endpoint's [`Transport::now`]
//! reads.  It stands still until an endpoint spends an idle turn
//! ([`Transport::idle`]), which moves it by the requested wait — or by
//! one microsecond for a yield — and sleeps nowhere, so on a hub a
//! resend, an attempt window or a ping window is a count of idle turns.
//!
//! Open endpoints live in a small table — counters, and the mailbox while
//! the endpoint is the newest opening of its peer — searched by a scan:
//! a hub holds a driver and a handful of hosts, and its keys are
//! endpoints the process opened itself, so nothing is hashed.  A sent
//! frame is copied into a buffer an earlier receive gave back, and
//! `recv_into` swaps that buffer into the caller's, keeping the caller's
//! old one for a later send; so a warmed exchange allocates nothing.  The
//! hub keeps at most `SPARE_FRAMES` (16) such buffers: a warmed exchange
//! cycles only a few, while a full view sync leaves thousands behind, and
//! keeping those would only grow the process.
//!
//! A hub and all its endpoints live on one thread.  They share the hub
//! through an `Rc<RefCell<…>>`, so a frame crosses it without a lock or an
//! atomic, and neither [`VnetHub`] nor [`VnetTransport`] is `Send` (nor is
//! the chaos switchboard [`FaultCtl`](crate::fault::FaultCtl), shared the
//! same way); a thread that wants a virtual network opens a hub of its own.
//!
//! Frames addressed to a peer with no open endpoint are dead letters —
//! counted, never delivered.  So are frames still queued when their
//! endpoint closes or its peer re-opens; each counts against its sender.
//! A closed endpoint's counters stay in [`VnetHub::total_stats`], so once
//! every mailbox is drained the hub's ledger balances: `frames_sent` is
//! `frames_delivered + dead_letters`.

use crate::frame::MAX_FRAME_LEN;
use crate::transport::{PeerId, Transport, TransportError};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use voronet_sim::{NetworkModel, SimTime, TransportStats};

/// How far the hub clock moves when an idle turn asks only to yield.
const YIELD_STEP: Duration = Duration::from_micros(1);

/// Most frame buffers the hub keeps for later sends.
const SPARE_FRAMES: usize = 16;

/// One frame waiting in a peer's mailbox, ordered by
/// `(delivery time, submission sequence)`.
#[derive(Debug)]
struct InFlight {
    at: SimTime,
    seq: u64,
    from: PeerId,
    /// The sending endpoint's opening, charged if the frame dead-letters.
    sender: u64,
    frame: Vec<u8>,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

type Mailbox = BinaryHeap<Reverse<InFlight>>;

/// One open endpoint of the hub.
#[derive(Debug)]
struct Endpoint {
    peer: PeerId,
    /// Which opening of the hub this is: the endpoint's own key, as a
    /// peer id may be opened again while an older endpoint lives.
    opening: u64,
    stats: TransportStats,
    /// Frames in flight to the peer; `None` once a later opening of the
    /// same peer replaced this one.
    mailbox: Option<Mailbox>,
}

#[derive(Debug)]
struct HubInner {
    network: NetworkModel,
    /// Virtual clock: one tick per submission, so latency draws shape the
    /// delivery order.
    now: SimTime,
    /// Submission sequence breaking delivery-time ties deterministically.
    seq: u64,
    /// Every open endpoint; frames to a peer without a mailbox here
    /// dead-letter.
    endpoints: Vec<Endpoint>,
    /// Endpoints opened so far.
    openings: u64,
    /// The summed counters of every closed endpoint.
    closed: TransportStats,
    /// Buffers of delivered frames, for later sends.
    spare: Vec<Vec<u8>>,
    /// The clock endpoints read: `epoch` plus the idle time spent so far.
    epoch: Instant,
    idled: Duration,
}

impl HubInner {
    /// Where the endpoint of `opening` sits in the table.
    fn index(&self, opening: u64) -> usize {
        self.endpoints
            .iter()
            .position(|e| e.opening == opening)
            .expect("a live endpoint is in the table")
    }

    /// Counts the frames of a mailbox that closes as dead letters of
    /// their senders, open or closed, and keeps their buffers.
    fn strand(&mut self, mailbox: Mailbox) {
        for Reverse(in_flight) in mailbox {
            let sender = self
                .endpoints
                .iter_mut()
                .find(|e| e.opening == in_flight.sender);
            match sender {
                Some(e) => e.stats.dead_letters += 1,
                None => self.closed.dead_letters += 1,
            }
            self.recycle(in_flight.frame);
        }
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.spare.len() < SPARE_FRAMES {
            self.spare.push(buf);
        }
    }
}

/// The mailbox frames to `peer` go to, if it has an open endpoint.
fn mailbox_of(endpoints: &mut [Endpoint], peer: PeerId) -> Option<&mut Mailbox> {
    endpoints
        .iter_mut()
        .filter(|e| e.peer == peer)
        .find_map(|e| e.mailbox.as_mut())
}

/// The shared switch of one virtual network.  Create endpoints with
/// [`VnetHub::endpoint`]; drop an endpoint to close its mailbox (later
/// frames to it count as dead letters).
#[derive(Debug, Clone)]
pub struct VnetHub {
    inner: Rc<RefCell<HubInner>>,
}

impl VnetHub {
    /// Creates a hub over the given network conditions.
    pub fn new(network: NetworkModel) -> Self {
        VnetHub {
            inner: Rc::new(RefCell::new(HubInner {
                network,
                now: 0,
                seq: 0,
                endpoints: Vec::new(),
                openings: 0,
                closed: TransportStats::new(),
                spare: Vec::new(),
                epoch: Instant::now(),
                idled: Duration::ZERO,
            })),
        }
    }

    /// Opens the endpoint of `peer` on this hub, with counters of its own.
    /// Re-opening a peer id gives the new endpoint a fresh mailbox: frames
    /// queued for the old endpoint dead-letter, and it receives nothing
    /// more.
    pub fn endpoint(&self, peer: PeerId) -> VnetTransport {
        let mut inner = self.inner.borrow_mut();
        let older = inner
            .endpoints
            .iter_mut()
            .filter(|e| e.peer == peer)
            .find_map(|e| e.mailbox.take());
        if let Some(mailbox) = older {
            inner.strand(mailbox);
        }
        inner.openings += 1;
        let opening = inner.openings;
        inner.endpoints.push(Endpoint {
            peer,
            opening,
            stats: TransportStats::new(),
            mailbox: Some(BinaryHeap::new()),
        });
        VnetTransport {
            hub: self.inner.clone(),
            peer,
            opening,
        }
    }

    /// Aggregated counters over every endpoint ever opened on this hub.
    pub fn total_stats(&self) -> TransportStats {
        let inner = self.inner.borrow();
        let mut total = inner.closed;
        for e in &inner.endpoints {
            total.merge(&e.stats);
        }
        total
    }
}

/// One peer's endpoint on a [`VnetHub`].
#[derive(Debug)]
pub struct VnetTransport {
    hub: Rc<RefCell<HubInner>>,
    peer: PeerId,
    opening: u64,
}

impl Drop for VnetTransport {
    fn drop(&mut self) {
        // A drop never panics: should the hub be borrowed, the entry stays.
        let Ok(mut inner) = self.hub.try_borrow_mut() else {
            return;
        };
        // Close this opening only: a newer endpoint of the same peer
        // keeps its mailbox.  The counters stay in the hub's total.
        let at = inner
            .endpoints
            .iter()
            .position(|e| e.opening == self.opening);
        if let Some(at) = at {
            let closed = inner.endpoints.swap_remove(at);
            inner.closed.merge(&closed.stats);
            if let Some(mailbox) = closed.mailbox {
                inner.strand(mailbox);
            }
        }
    }
}

impl Transport for VnetTransport {
    fn local_peer(&self) -> PeerId {
        self.peer
    }

    fn register(&mut self, _peer: PeerId, _addr: &str) -> Result<(), TransportError> {
        // Hub membership is the address book.
        Ok(())
    }

    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        let mut inner = self.hub.borrow_mut();
        let inner = &mut *inner;
        let at = inner.index(self.opening);
        let stats = &mut inner.endpoints[at].stats;
        if frame.len() > MAX_FRAME_LEN {
            stats.oversized += 1;
            return Err(TransportError::Oversized { len: frame.len() });
        }
        stats.frames_sent += 1;
        inner.now += 1;
        let now = inner.now;
        let delay = inner.network.delay(now);
        match mailbox_of(&mut inner.endpoints, to) {
            Some(mailbox) => {
                let mut buf = inner.spare.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(frame);
                inner.seq += 1;
                mailbox.push(Reverse(InFlight {
                    at: now + delay,
                    seq: inner.seq,
                    from: self.peer,
                    sender: self.opening,
                    frame: buf,
                }));
            }
            None => inner.endpoints[at].stats.dead_letters += 1,
        }
        Ok(())
    }

    fn poll(&mut self) -> Result<(), TransportError> {
        // Delivery order is already fixed at send time; nothing to pump.
        Ok(())
    }

    /// Hands over the frame's own buffer and keeps `buf`'s previous one
    /// for a later send.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        let mut inner = self.hub.borrow_mut();
        let at = inner.index(self.opening);
        let endpoint = &mut inner.endpoints[at];
        let Some(Reverse(mut in_flight)) = endpoint.mailbox.as_mut().and_then(BinaryHeap::pop)
        else {
            return Ok(None);
        };
        endpoint.stats.frames_delivered += 1;
        std::mem::swap(buf, &mut in_flight.frame);
        inner.recycle(in_flight.frame);
        Ok(Some(in_flight.from))
    }

    fn stats(&self) -> TransportStats {
        let inner = self.hub.borrow();
        inner.endpoints[inner.index(self.opening)].stats
    }

    fn now(&self) -> Instant {
        let inner = self.hub.borrow();
        inner.epoch + inner.idled
    }

    fn idle(&mut self, wait: Duration) {
        let step = if wait.is_zero() { YIELD_STEP } else { wait };
        self.hub.borrow_mut().idled += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voronet_sim::LatencyModel;

    fn frame(tag: u8) -> Vec<u8> {
        vec![tag; 8]
    }

    #[test]
    fn ideal_hub_delivers_in_order() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut a = hub.endpoint(1);
        let mut b = hub.endpoint(2);
        for tag in 0..5u8 {
            a.send(2, &frame(tag)).unwrap();
        }
        let mut buf = Vec::new();
        for tag in 0..5u8 {
            let from = b.recv_into(&mut buf).unwrap();
            assert_eq!(from, Some(1));
            assert_eq!(buf, frame(tag));
        }
        assert_eq!(b.recv_into(&mut buf).unwrap(), None);
        assert_eq!(a.stats().frames_sent, 5);
        assert_eq!(b.stats().frames_delivered, 5);
    }

    #[test]
    fn identical_sessions_are_bit_deterministic() {
        let session = || {
            let hub = VnetHub::new(NetworkModel::new(
                42,
                LatencyModel::Uniform { min: 1, max: 30 },
            ));
            let mut a = hub.endpoint(1);
            let mut b = hub.endpoint(2);
            for tag in 0..100u8 {
                a.send(2, &frame(tag)).unwrap();
            }
            let mut got = Vec::new();
            let mut buf = Vec::new();
            while b.recv_into(&mut buf).unwrap().is_some() {
                got.push(buf[0]);
            }
            (got, a.stats(), b.stats())
        };
        let (got1, a1, b1) = session();
        let (got2, a2, b2) = session();
        assert_eq!(got1, got2);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(
            (a1.frames_sent, b1.frames_delivered),
            (100, 100),
            "the hub loses nothing"
        );
        assert_eq!((a1.dropped_loss, a1.dropped_partition), (0, 0), "{a1:?}");
    }

    #[test]
    fn latency_reorders_across_senders_deterministically() {
        // Two senders with skewed latency: delivery order is by
        // (timestamp, submission seq), not submission order alone.
        let hub = VnetHub::new(NetworkModel::new(
            7,
            LatencyModel::Uniform { min: 1, max: 50 },
        ));
        let mut a = hub.endpoint(1);
        let mut b = hub.endpoint(2);
        let mut c = hub.endpoint(3);
        for tag in 0..20u8 {
            a.send(3, &frame(tag)).unwrap();
            b.send(3, &frame(100 + tag)).unwrap();
        }
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while c.recv_into(&mut buf).unwrap().is_some() {
            got.push(buf[0]);
        }
        assert_eq!(got.len(), 40);
        assert_ne!(
            got,
            (0..20u8).flat_map(|t| [t, 100 + t]).collect::<Vec<_>>(),
            "uniform latency in [1, 50] must reorder at least once"
        );
    }

    #[test]
    fn the_hub_clock_moves_only_through_idle_turns() {
        use crate::fault::{FaultCtl, FaultTransport, LinkFaults};
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut a = hub.endpoint(1);
        let ctl = FaultCtl::new(LinkFaults::default());
        let mut b = FaultTransport::new(hub.endpoint(2), ctl, 7);
        let t0 = a.now();
        a.send(2, &frame(0)).unwrap();
        a.poll().unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.recv_into(&mut buf).unwrap(), Some(1));
        assert_eq!(b.recv_into(&mut buf).unwrap(), None);
        assert_eq!(
            (a.now(), b.now()),
            (t0, t0),
            "traffic leaves the clock alone"
        );
        assert_eq!((a.stats().frames_sent, b.stats().frames_delivered), (1, 1));
        // One clock for every endpoint, read and moved through the wrapper.
        a.idle(Duration::from_millis(3));
        assert_eq!(b.now() - t0, Duration::from_millis(3));
        b.idle(Duration::ZERO);
        assert_eq!(a.now() - t0, Duration::from_millis(3) + YIELD_STEP);
    }

    #[test]
    fn closed_endpoints_dead_letter() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut a = hub.endpoint(1);
        {
            let _b = hub.endpoint(2);
        } // dropped: mailbox closed
        a.send(2, &frame(0)).unwrap();
        a.send(99, &frame(1)).unwrap(); // never opened
        assert_eq!(a.stats().dead_letters, 2);
        assert_eq!(a.stats().frames_sent, 2);
    }

    /// A restarted peer opens a fresh endpoint while the crashed one may
    /// still be alive; the old one dropping later must not close the new
    /// one's mailbox.
    #[test]
    fn dropping_a_stale_endpoint_leaves_the_reopened_mailbox() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut a = hub.endpoint(1);
        let stale = hub.endpoint(2);
        let mut fresh = hub.endpoint(2);
        drop(stale);
        a.send(2, &frame(0)).unwrap();
        let mut buf = Vec::new();
        assert_eq!(fresh.recv_into(&mut buf).unwrap(), Some(1));
        assert_eq!(buf, frame(0));
        assert_eq!(a.stats().dead_letters, 0);
    }

    /// Every frame sent ends in exactly one counter once the mailboxes are
    /// drained, however endpoints close and re-open: a frame stranded in a
    /// closing mailbox is a dead letter of its sender, and a closed
    /// endpoint's counters stay in the hub's total.
    #[test]
    fn the_ledger_balances_across_close_and_reopen() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut a = hub.endpoint(1);
        let mut b = hub.endpoint(2);
        a.send(2, &frame(0)).unwrap();
        a.send(2, &frame(1)).unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.recv_into(&mut buf).unwrap(), Some(1));
        drop(b); // frame 1 is still queued
        a.send(2, &frame(2)).unwrap();
        assert_eq!(a.stats().dead_letters, 2, "{:?}", a.stats());

        let mut c = hub.endpoint(3);
        c.send(1, &frame(3)).unwrap();
        drop(c);
        let _c = hub.endpoint(3);
        assert_eq!(a.recv_into(&mut buf).unwrap(), Some(3));
        let total = hub.total_stats();
        assert_eq!(total.frames_sent, 4, "{total:?}");
        assert_eq!(
            total.frames_sent,
            total.frames_delivered + total.dead_letters,
            "{total:?}"
        );
    }

    #[test]
    fn oversized_frames_are_rejected_and_counted() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let mut a = hub.endpoint(1);
        let _b = hub.endpoint(2);
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            a.send(2, &big),
            Err(TransportError::Oversized { .. })
        ));
        assert_eq!(a.stats().oversized, 1);
        assert_eq!(a.stats().frames_sent, 0);
    }
}
