//! Deterministic fault injection for any [`Transport`]: seeded link
//! faults (drop/duplicate/delay-reorder), crash-stop hosts with restart,
//! and partitions — the substrate of the chaos harness, and the
//! repository's one fault model (the vnet hub keeps latency only).
//!
//! [`FaultTransport`] wraps an inner transport and perturbs its traffic
//! according to a shared [`FaultCtl`] switchboard plus a per-endpoint
//! seeded RNG, so the same seed produces the same injected faults over
//! the deterministic vnet *and* over loopback UDP/TCP.  A [`FaultPlan`]
//! is a replayable schedule of [`FaultEvent`]s keyed by operation index.
//! An [`InlineCluster`](crate::cluster::InlineCluster) started over
//! wrapped vnet endpoints is the rig chaos runs drive.
//!
//! Crash semantics are **crash-stop with amnesia-free restart**: a
//! crashed peer's endpoint blackholes every frame in both directions
//! (sends are dropped at the sender, receives are discarded at the
//! victim), which to the rest of the cluster is indistinguishable from a
//! dead process.  A restart lifts the blackhole; the driver's liveness
//! layer (see [`crate::cluster`]) detects the revival and regenerates
//! the host's state from control-plane truth, so the same machinery also
//! covers restarts that lost state.

use crate::transport::{PeerId, Transport, TransportError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};
use voronet_sim::TransportStats;

/// Per-link fault probabilities applied to every frame a wrapped
/// endpoint sends (all default to "off").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is sent twice.
    pub duplicate: f64,
    /// Probability a frame is held back and released after
    /// [`LinkFaults::delay_sends`] later sends (reordering).
    pub delay: f64,
    /// How many subsequent sends a delayed frame is held across.
    pub delay_sends: u32,
}

impl LinkFaults {
    /// A mildly hostile link: the profile chaos smoke runs use.
    pub fn lossy(drop: f64) -> Self {
        LinkFaults {
            drop,
            duplicate: drop / 2.0,
            delay: drop / 2.0,
            delay_sends: 3,
        }
    }
}

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash-stop the peer: blackhole its traffic in both directions.
    Crash(PeerId),
    /// Lift the peer's blackhole (restart).
    Restart(PeerId),
    /// Split the cluster into `groups` partitions by `peer % groups`;
    /// frames crossing a partition boundary are dropped.
    Partition(u64),
    /// Remove the partition.
    Heal,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::Crash(p) => write!(f, "crash({p})"),
            FaultEvent::Restart(p) => write!(f, "restart({p})"),
            FaultEvent::Partition(g) => write!(f, "partition({g})"),
            FaultEvent::Heal => write!(f, "heal"),
        }
    }
}

/// Shared mutable fault state of one cluster.
#[derive(Debug, Default)]
struct FaultState {
    crashed: BTreeSet<PeerId>,
    partition: Option<u64>,
    link: LinkFaults,
}

/// The fault switchboard every [`FaultTransport`] of a cluster shares:
/// crash/restart peers, open/heal partitions, adjust link faults — all
/// effective on the very next frame.  It lives on the thread of the
/// endpoints it wraps, like a vnet hub.
#[derive(Debug, Clone, Default)]
pub struct FaultCtl {
    state: Rc<RefCell<FaultState>>,
}

impl FaultCtl {
    /// A switchboard with the given link-fault profile and no host or
    /// partition faults.
    pub fn new(link: LinkFaults) -> Self {
        FaultCtl {
            state: Rc::new(RefCell::new(FaultState {
                link,
                ..FaultState::default()
            })),
        }
    }

    /// Crash-stops `peer`.
    pub fn crash(&self, peer: PeerId) {
        self.state.borrow_mut().crashed.insert(peer);
    }

    /// Restarts `peer` (lifts its blackhole).
    pub fn restart(&self, peer: PeerId) {
        self.state.borrow_mut().crashed.remove(&peer);
    }

    /// True while `peer` is crashed.
    fn is_crashed(&self, peer: PeerId) -> bool {
        self.state.borrow().crashed.contains(&peer)
    }

    /// Splits the cluster into `groups` partitions by `peer % groups`.
    pub fn partition(&self, groups: u64) {
        self.state.borrow_mut().partition = Some(groups.max(2));
    }

    /// Heals any partition.
    pub fn heal(&self) {
        self.state.borrow_mut().partition = None;
    }

    /// Restores a fault-free cluster: restarts every crashed peer, heals
    /// partitions and zeroes the link faults.
    pub fn heal_all(&self) {
        let mut s = self.state.borrow_mut();
        s.crashed.clear();
        s.partition = None;
        s.link = LinkFaults::default();
    }

    /// Applies one scheduled event.
    pub fn apply(&self, event: FaultEvent) {
        match event {
            FaultEvent::Crash(p) => self.crash(p),
            FaultEvent::Restart(p) => self.restart(p),
            FaultEvent::Partition(g) => self.partition(g),
            FaultEvent::Heal => self.heal(),
        }
    }
}

/// Counters of the faults one [`FaultTransport`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped by the link-fault roll.
    pub dropped: u64,
    /// Frames sent twice by the duplicate roll.
    pub duplicated: u64,
    /// Frames held back for reordering.
    pub delayed: u64,
    /// Frames blackholed because an endpoint of the link was crashed.
    pub crash_dropped: u64,
    /// Frames dropped at a partition boundary.
    pub partition_dropped: u64,
    /// Inbound frames discarded while the local peer was crashed.
    pub crash_rx_dropped: u64,
}

/// A [`Transport`] wrapper injecting seeded, deterministic faults per
/// the shared [`FaultCtl`]; see the module docs for the semantics.
pub struct FaultTransport<T: Transport> {
    inner: T,
    ctl: FaultCtl,
    rng: StdRng,
    held: VecDeque<(u32, PeerId, Vec<u8>)>,
    fstats: FaultStats,
    extra: TransportStats,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, drawing fault rolls from `seed` mixed with the
    /// endpoint's peer id (so every endpoint rolls independently but
    /// reproducibly).
    pub fn new(inner: T, ctl: FaultCtl, seed: u64) -> Self {
        let peer = inner.local_peer();
        let rng =
            StdRng::seed_from_u64(seed ^ peer.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA01_7FA0);
        FaultTransport {
            inner,
            ctl,
            rng,
            held: VecDeque::new(),
            fstats: FaultStats::default(),
            extra: TransportStats::new(),
        }
    }

    /// The injected-fault counters of this endpoint.
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Ages held-back frames by one send slot and releases the ripe ones
    /// into the inner transport.
    fn flush_held(&mut self) -> Result<(), TransportError> {
        for slot in self.held.iter_mut() {
            slot.0 = slot.0.saturating_sub(1);
        }
        while let Some(&(age, _, _)) = self.held.front() {
            if age > 0 {
                break;
            }
            let (_, to, frame) = self.held.pop_front().expect("front checked");
            self.inner.send(to, &frame)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn local_peer(&self) -> PeerId {
        self.inner.local_peer()
    }

    fn register(&mut self, peer: PeerId, addr: &str) -> Result<(), TransportError> {
        self.inner.register(peer, addr)
    }

    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        self.flush_held()?;
        let local = self.inner.local_peer();
        let (crashed_edge, partition_cut, link) = {
            let s = self.ctl.state.borrow();
            let crashed = s.crashed.contains(&local) || s.crashed.contains(&to);
            let cut = s
                .partition
                .map(|groups| local % groups != to % groups)
                .unwrap_or(false);
            (crashed, cut, s.link)
        };
        if crashed_edge {
            self.fstats.crash_dropped += 1;
            self.extra.frames_sent += 1;
            self.extra.dropped_loss += 1;
            return Ok(());
        }
        if partition_cut {
            self.fstats.partition_dropped += 1;
            self.extra.frames_sent += 1;
            self.extra.dropped_partition += 1;
            return Ok(());
        }
        if link.drop > 0.0 && self.rng.random_bool(link.drop) {
            self.fstats.dropped += 1;
            self.extra.frames_sent += 1;
            self.extra.dropped_loss += 1;
            return Ok(());
        }
        if link.duplicate > 0.0 && self.rng.random_bool(link.duplicate) {
            self.fstats.duplicated += 1;
            self.inner.send(to, frame)?;
        }
        if link.delay > 0.0 && self.rng.random_bool(link.delay) {
            self.fstats.delayed += 1;
            self.held
                .push_back((link.delay_sends.max(1), to, frame.to_vec()));
            return Ok(());
        }
        self.inner.send(to, frame)
    }

    fn poll(&mut self) -> Result<(), TransportError> {
        self.flush_held()?;
        self.inner.poll()
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        let local = self.inner.local_peer();
        if self.ctl.is_crashed(local) {
            // A crashed process reads nothing; drain and discard whatever
            // the inner transport delivered so a restart starts clean.
            while self.inner.recv_into(buf)?.is_some() {
                self.fstats.crash_rx_dropped += 1;
                self.extra.dead_letters += 1;
            }
            buf.clear();
            return Ok(None);
        }
        self.inner.recv_into(buf)
    }

    fn stats(&self) -> TransportStats {
        let mut stats = self.inner.stats();
        stats.merge(&self.extra);
        stats
    }

    fn now(&self) -> Instant {
        self.inner.now()
    }

    fn idle(&mut self, wait: Duration) {
        self.inner.idle(wait)
    }
}

/// A replayable fault schedule: which [`FaultEvent`] fires before which
/// operation index, the same for the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// `(operation index, event)` pairs, ascending by index.
    pub events: Vec<(usize, FaultEvent)>,
}

impl FaultPlan {
    /// Generates a deterministic schedule over `ops` operations against
    /// `hosts` host peers: at most one host is down at any moment, the
    /// driver (peer 0) never crashes, and every fault is lifted by the
    /// end of the run.
    pub fn generate(seed: u64, hosts: u64, ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_9E0D);
        let mut events: Vec<(usize, FaultEvent)> = Vec::new();
        let mut down: Option<PeerId> = None;
        let mut split = false;
        for at in 0..ops {
            match down {
                Some(peer) => {
                    if rng.random_bool(0.22) {
                        events.push((at, FaultEvent::Restart(peer)));
                        down = None;
                    }
                }
                None => {
                    if hosts > 0 && rng.random_bool(0.05) {
                        let peer = 1 + rng.random_range(0..hosts);
                        events.push((at, FaultEvent::Crash(peer)));
                        down = Some(peer);
                    }
                }
            }
            if split {
                if rng.random_bool(0.35) {
                    events.push((at, FaultEvent::Heal));
                    split = false;
                }
            } else if rng.random_bool(0.02) {
                events.push((at, FaultEvent::Partition(2)));
                split = true;
            }
        }
        if let Some(peer) = down {
            events.push((ops, FaultEvent::Restart(peer)));
        }
        if split {
            events.push((ops, FaultEvent::Heal));
        }
        FaultPlan { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DRIVER_PEER;
    use crate::vnet::VnetHub;
    use voronet_sim::{LatencyModel, NetworkModel};

    fn frame(from: u64, to: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::wire::WireMsg::Hello
            .encode(from, to, &mut buf)
            .unwrap();
        buf
    }

    /// A seeded exchange among peers 1..=3, each frame to a peer in 1..=4
    /// (4 has no endpoint: a dead letter), every mailbox drained after
    /// every third send.  Returns each receipt `(receiver, sender,
    /// frame)` in order and the summed counters.
    fn exchange<T: Transport>(endpoints: &mut [T]) -> (Vec<(u64, u64, Vec<u8>)>, TransportStats) {
        let mut rng = StdRng::seed_from_u64(11);
        let (mut receipts, mut buf) = (Vec::new(), Vec::new());
        for round in 0..600u32 {
            let from = rng.random_range(0..endpoints.len());
            endpoints[from]
                .send(rng.random_range(1..=4u64), &round.to_le_bytes())
                .unwrap();
            for t in endpoints.iter_mut().filter(|_| round % 3 == 2) {
                t.poll().unwrap();
                while let Some(from) = t.recv_into(&mut buf).unwrap() {
                    receipts.push((t.local_peer(), from, buf.clone()));
                }
            }
        }
        let mut total = TransportStats::new();
        endpoints.iter().for_each(|t| total.merge(&t.stats()));
        (receipts, total)
    }

    /// With every probability 0, no crash and no partition, the wrapper
    /// is the transport it wraps: the same frames arrive in the same
    /// order with the same counters, and its RNG never moves — a roll
    /// would shift every later fault of a lossy run.
    #[test]
    fn a_fault_free_wrapper_passes_every_frame_through() {
        let hub = || {
            VnetHub::new(NetworkModel::new(
                5,
                LatencyModel::Uniform { min: 1, max: 20 },
            ))
        };
        let (bare_hub, wrapped_hub, twin_hub) = (hub(), hub(), hub());
        let ctl = FaultCtl::new(LinkFaults::default());
        let wrap = |hub: &VnetHub, peer| FaultTransport::new(hub.endpoint(peer), ctl.clone(), 7);
        let mut bare: Vec<_> = (1..=3).map(|peer| bare_hub.endpoint(peer)).collect();
        let mut wrapped: Vec<_> = (1..=3).map(|peer| wrap(&wrapped_hub, peer)).collect();

        let (receipts, stats) = exchange(&mut wrapped);
        assert_eq!((receipts, stats), exchange(&mut bare));
        assert!(
            stats.frames_delivered > 300 && stats.dead_letters > 100,
            "{stats:?}"
        );
        for t in &mut wrapped {
            assert_eq!(t.fault_stats(), FaultStats::default());
            let mut twin = wrap(&twin_hub, t.local_peer());
            assert_eq!(
                t.rng.random::<u64>(),
                twin.rng.random::<u64>(),
                "an RNG moved"
            );
        }
    }

    #[test]
    fn crashed_peers_blackhole_both_directions() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let ctl = FaultCtl::new(LinkFaults::default());
        let mut a = FaultTransport::new(hub.endpoint(1), ctl.clone(), 7);
        let mut b = FaultTransport::new(hub.endpoint(2), ctl.clone(), 7);
        let mut buf = Vec::new();

        a.send(2, &frame(1, 2)).unwrap();
        assert_eq!(b.recv_into(&mut buf).unwrap(), Some(1));

        ctl.crash(2);
        a.send(2, &frame(1, 2)).unwrap(); // dropped at the sender
        assert_eq!(a.fault_stats().crash_dropped, 1);
        assert_eq!(b.recv_into(&mut buf).unwrap(), None);

        // Frames delivered by the inner transport while crashed are
        // discarded, not replayed after the restart.
        ctl.restart(2);
        a.send(2, &frame(1, 2)).unwrap();
        ctl.crash(2);
        assert_eq!(b.recv_into(&mut buf).unwrap(), None);
        assert_eq!(b.fault_stats().crash_rx_dropped, 1);
        ctl.restart(2);
        assert_eq!(b.recv_into(&mut buf).unwrap(), None);

        a.send(2, &frame(1, 2)).unwrap();
        assert_eq!(b.recv_into(&mut buf).unwrap(), Some(1));
    }

    #[test]
    fn partitions_cut_cross_group_links_only() {
        let hub = VnetHub::new(NetworkModel::ideal());
        let ctl = FaultCtl::new(LinkFaults::default());
        let mut a = FaultTransport::new(hub.endpoint(1), ctl.clone(), 7);
        let mut b = FaultTransport::new(hub.endpoint(2), ctl.clone(), 7);
        let mut c = FaultTransport::new(hub.endpoint(3), ctl.clone(), 7);
        let mut buf = Vec::new();

        ctl.partition(2);
        a.send(2, &frame(1, 2)).unwrap(); // 1 % 2 != 2 % 2: cut
        a.send(3, &frame(1, 3)).unwrap(); // 1 % 2 == 3 % 2: delivered
        assert_eq!(a.fault_stats().partition_dropped, 1);
        assert_eq!(b.recv_into(&mut buf).unwrap(), None);
        assert_eq!(c.recv_into(&mut buf).unwrap(), Some(1));

        ctl.heal();
        a.send(2, &frame(1, 2)).unwrap();
        assert_eq!(b.recv_into(&mut buf).unwrap(), Some(1));
    }

    #[test]
    fn link_faults_inject_deterministically_per_seed() {
        let run = |seed: u64| {
            let hub = VnetHub::new(NetworkModel::ideal());
            let ctl = FaultCtl::new(LinkFaults {
                drop: 0.3,
                duplicate: 0.2,
                delay: 0.2,
                delay_sends: 2,
            });
            let mut a = FaultTransport::new(hub.endpoint(1), ctl.clone(), seed);
            let mut b = FaultTransport::new(hub.endpoint(2), ctl, seed);
            for _ in 0..200 {
                a.send(2, &frame(1, 2)).unwrap();
            }
            a.poll().unwrap();
            a.poll().unwrap();
            a.poll().unwrap();
            let mut buf = Vec::new();
            let mut delivered = 0u64;
            while b.recv_into(&mut buf).unwrap().is_some() {
                delivered += 1;
            }
            (a.fault_stats(), delivered)
        };
        let (s1, d1) = run(42);
        let (s2, d2) = run(42);
        assert_eq!(s1, s2, "same seed, same injected faults");
        assert_eq!(d1, d2);
        assert!(s1.dropped > 0 && s1.duplicated > 0 && s1.delayed > 0);
        let (s3, _) = run(43);
        assert_ne!(s1, s3, "different seed, different rolls");
    }

    #[test]
    fn generated_plans_are_deterministic_and_end_healed() {
        let p1 = FaultPlan::generate(9, 4, 300);
        let p2 = FaultPlan::generate(9, 4, 300);
        assert_eq!(p1, p2);
        assert!(!p1.events.is_empty(), "300 ops should schedule something");
        // Replaying the schedule leaves no fault standing and never
        // crashes two hosts at once (nor the driver).
        let ctl = FaultCtl::new(LinkFaults::default());
        for &(_, event) in &p1.events {
            ctl.apply(event);
            let state = ctl.state.borrow();
            assert!(state.crashed.len() <= 1, "at most one host down");
            assert!(!state.crashed.contains(&DRIVER_PEER));
        }
        let state = ctl.state.borrow();
        assert!(state.crashed.is_empty(), "all hosts restarted by the end");
        assert!(state.partition.is_none(), "partitions healed by the end");
    }
}
