//! The deterministic in-memory transport: today's simulated network
//! ([`NetworkModel`]) behind the [`Transport`] trait.
//!
//! A [`VnetHub`] is a shared switch all endpoints of one virtual network
//! hang off.  `send` consults the hub's `NetworkModel` exactly like the
//! discrete-event simulator does — partitions first, then one latency
//! draw, then the loss coin, in that fixed RNG order — and a surviving
//! frame is timestamped `now + delay` in the hub's virtual clock (one
//! tick per submission).  `recv_into` drains frames in
//! `(delivery time, submission sequence)` order, so a single-threaded
//! session is bit-deterministic per seed: same sends → same drops, same
//! ordering, same [`TransportStats`].
//!
//! The hub also carries the one clock every endpoint's [`Transport::now`]
//! reads.  It stands still until an endpoint spends an idle turn
//! ([`Transport::idle`]), which moves it by the requested wait — or by
//! one microsecond for a yield — and sleeps nowhere, so on a hub a
//! resend, an attempt window or a ping window is a count of idle turns.
//!
//! Frames addressed to a peer with no open endpoint are dead letters —
//! counted, never delivered, like the simulator's departed-node handling.

use crate::frame::MAX_FRAME_LEN;
use crate::transport::{PeerId, Transport, TransportError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use voronet_sim::{Delivery, NetworkModel, SimTime, TransportStats};

/// How far the hub clock moves when an idle turn asks only to yield.
const YIELD_STEP: Duration = Duration::from_micros(1);

/// One frame waiting in a peer's mailbox, ordered by
/// `(delivery time, submission sequence)`.
#[derive(Debug)]
struct InFlight {
    at: SimTime,
    seq: u64,
    from: PeerId,
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

#[derive(Debug)]
struct HubInner {
    network: NetworkModel,
    /// Virtual clock: one tick per submission, so latency draws shape the
    /// delivery order exactly as they shape the simulator's event order.
    now: SimTime,
    /// Submission sequence breaking delivery-time ties deterministically.
    seq: u64,
    /// Per-destination mailboxes of frames in flight.
    mailboxes: HashMap<PeerId, BinaryHeap<Reverse<InFlight>>>,
    /// Peers with an open endpoint; frames to anyone else dead-letter.
    open: HashMap<PeerId, TransportStats>,
    /// The clock endpoints read: `epoch` plus the idle time spent so far.
    epoch: Instant,
    idled: Duration,
}

/// The shared switch of one virtual network.  Create endpoints with
/// [`VnetHub::endpoint`]; drop an endpoint to close its mailbox (later
/// frames to it count as dead letters).
#[derive(Debug, Clone)]
pub struct VnetHub {
    inner: Arc<Mutex<HubInner>>,
}

impl VnetHub {
    /// Creates a hub over the given network conditions.
    pub fn new(network: NetworkModel) -> Self {
        VnetHub {
            inner: Arc::new(Mutex::new(HubInner {
                network,
                now: 0,
                seq: 0,
                mailboxes: HashMap::new(),
                open: HashMap::new(),
                epoch: Instant::now(),
                idled: Duration::ZERO,
            })),
        }
    }

    /// Opens the endpoint of `peer` on this hub.  Re-opening a peer id
    /// resets its mailbox and counters.
    pub fn endpoint(&self, peer: PeerId) -> VnetTransport {
        let mut inner = self.inner.lock().expect("hub poisoned");
        inner.open.insert(peer, TransportStats::new());
        inner.mailboxes.insert(peer, BinaryHeap::new());
        VnetTransport {
            hub: self.inner.clone(),
            peer,
        }
    }

    /// Aggregated counters over every endpoint ever opened on this hub.
    pub fn total_stats(&self) -> TransportStats {
        let inner = self.inner.lock().expect("hub poisoned");
        let mut total = TransportStats::new();
        for stats in inner.open.values() {
            total.merge(stats);
        }
        total
    }
}

/// One peer's endpoint on a [`VnetHub`].
#[derive(Debug)]
pub struct VnetTransport {
    hub: Arc<Mutex<HubInner>>,
    peer: PeerId,
}

impl Drop for VnetTransport {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.hub.lock() {
            // Keep the stats entry (for `total_stats`) but close the
            // mailbox: the peer no longer receives.
            inner.mailboxes.remove(&self.peer);
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
        let mut inner = self.hub.lock().expect("hub poisoned");
        let inner = &mut *inner;
        let stats = inner.open.entry(self.peer).or_default();
        if frame.len() > MAX_FRAME_LEN {
            stats.oversized += 1;
            return Err(TransportError::Oversized { len: frame.len() });
        }
        stats.frames_sent += 1;
        inner.now += 1;
        let now = inner.now;
        match inner.network.delivery(self.peer, to, now) {
            Delivery::DroppedLoss => {
                inner.open.entry(self.peer).or_default().dropped_loss += 1;
            }
            Delivery::DroppedPartition => {
                inner.open.entry(self.peer).or_default().dropped_partition += 1;
            }
            Delivery::Deliver { delay } => match inner.mailboxes.get_mut(&to) {
                Some(mailbox) => {
                    inner.seq += 1;
                    mailbox.push(Reverse(InFlight {
                        at: now + delay,
                        seq: inner.seq,
                        from: self.peer,
                        frame: frame.to_vec(),
                    }));
                }
                None => {
                    inner.open.entry(self.peer).or_default().dead_letters += 1;
                }
            },
        }
        Ok(())
    }

    fn poll(&mut self) -> Result<(), TransportError> {
        // Delivery order is already fixed at send time; nothing to pump.
        Ok(())
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        let mut inner = self.hub.lock().expect("hub poisoned");
        let inner = &mut *inner;
        let Some(mailbox) = inner.mailboxes.get_mut(&self.peer) else {
            return Ok(None);
        };
        match mailbox.pop() {
            Some(Reverse(in_flight)) => {
                buf.clear();
                buf.extend_from_slice(&in_flight.frame);
                inner.open.entry(self.peer).or_default().frames_delivered += 1;
                Ok(Some(in_flight.from))
            }
            None => Ok(None),
        }
    }

    fn stats(&self) -> TransportStats {
        let inner = self.hub.lock().expect("hub poisoned");
        inner.open.get(&self.peer).copied().unwrap_or_default()
    }

    fn now(&self) -> Instant {
        let inner = self.hub.lock().expect("hub poisoned");
        inner.epoch + inner.idled
    }

    fn idle(&mut self, wait: Duration) {
        let step = if wait.is_zero() { YIELD_STEP } else { wait };
        self.hub.lock().expect("hub poisoned").idled += step;
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
            let hub = VnetHub::new(
                NetworkModel::new(42, LatencyModel::Uniform { min: 1, max: 30 }).with_loss(0.3),
            );
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
        assert!(a1.dropped_loss > 0, "{a1:?}");
        assert_eq!(
            a1.frames_sent,
            a1.dropped_loss + b1.frames_delivered,
            "every frame is delivered or counted"
        );
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

    #[test]
    fn partition_windows_sever_groups() {
        use voronet_sim::PartitionWindow;
        let hub = VnetHub::new(NetworkModel::ideal().with_partition(PartitionWindow {
            start: 0,
            end: SimTime::MAX,
            groups: 2,
        }));
        let mut a = hub.endpoint(0);
        let _b = hub.endpoint(1);
        let _c = hub.endpoint(2);
        a.send(1, &frame(0)).unwrap(); // 0 vs 1: different groups
        a.send(2, &frame(1)).unwrap(); // 0 vs 2: same group
        let stats = a.stats();
        assert_eq!(stats.dropped_partition, 1, "{stats:?}");
    }
}
