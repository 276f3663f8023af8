//! The inline pump: a whole driver + hosts cluster on one thread.
//!
//! `LocalCluster` runs every host on its own thread spinning on
//! `yield_now`; with four threads on two shared cores the same 200 000
//! serial routes ran at 30 697 ops/s and then at 2 277 ops/s in consecutive
//! runs here, so nothing timed through it repeats.  The pump keeps every
//! real part — `Driver`, `HostNode`, the codec, the `vnet` hub — and
//! replaces only the scheduler: the driver's [`Transport`] is a wrapper
//! that, whenever the driver's mailbox is empty, steps each host until no
//! host has a frame left.  One thread, no idle waits, no wall-clock timers
//! firing (replies always arrive before any resend window opens), so frame
//! counts repeat exactly.

use crate::trace;
use std::cell::Cell;
use std::rc::Rc;
use voronet_core::VoroNetConfig;
use voronet_net::{
    Driver, HostNode, PeerId, Transport, TransportError, VnetHub, VnetTransport, DRIVER_PEER,
};
use voronet_sim::{NetworkModel, TransportStats};

/// Host peers in every benchmarked cluster.
pub const HOSTS: u64 = 3;

/// Host steps taken by a pump, and how many of them handled a frame.
#[derive(Debug, Default)]
pub struct PumpCounters {
    /// Calls of `HostNode::step`.
    pub steps: Cell<u64>,
    /// Of those, calls that found a frame to handle.
    pub hits: Cell<u64>,
}

/// The driver-side transport that runs the hosts inline.
pub struct InlinePump {
    inner: VnetTransport,
    hosts: Vec<HostNode<VnetTransport>>,
    step_buf: Vec<u8>,
    counters: Rc<PumpCounters>,
}

impl InlinePump {
    /// Steps every host until a full round handles no frame; returns
    /// whether any frame was handled.
    fn pump(&mut self) -> Result<bool, TransportError> {
        let mut any = false;
        loop {
            let mut progressed = false;
            for host in &mut self.hosts {
                loop {
                    let hit = trace::span("host.step", || host.step(&mut self.step_buf))
                        .map_err(|e| TransportError::Io(std::io::Error::other(e.to_string())))?;
                    self.counters.steps.set(self.counters.steps.get() + 1);
                    if !hit {
                        break;
                    }
                    self.counters.hits.set(self.counters.hits.get() + 1);
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(any);
            }
            any = true;
        }
    }
}

impl Transport for InlinePump {
    fn local_peer(&self) -> PeerId {
        self.inner.local_peer()
    }

    fn register(&mut self, peer: PeerId, addr: &str) -> Result<(), TransportError> {
        self.inner.register(peer, addr)
    }

    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        trace::span("transport.send", || self.inner.send(to, frame))
    }

    fn poll(&mut self) -> Result<(), TransportError> {
        self.pump().map(|_| ())
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        if let Some(peer) = trace::span("transport.recv", || self.inner.recv_into(buf))? {
            return Ok(Some(peer));
        }
        if !self.pump()? {
            return Ok(None);
        }
        trace::span("transport.recv", || self.inner.recv_into(buf))
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A driver whose hosts run inside its transport, plus the handles the
/// harness reads counts from.
pub struct InlineCluster {
    /// The real cluster driver.
    pub driver: Driver<InlinePump>,
    /// The hub every endpoint hangs off (frame counts).
    pub hub: VnetHub,
    /// Host-step counts of the pump.
    pub counters: Rc<PumpCounters>,
}

impl InlineCluster {
    /// Starts [`HOSTS`] hosts and a driver on one ideal (lossless,
    /// zero-latency) hub.
    pub fn start(config: VoroNetConfig) -> Self {
        let hub = VnetHub::new(NetworkModel::ideal());
        let inner = hub.endpoint(DRIVER_PEER);
        let hosts = (1..=HOSTS)
            .map(|peer| HostNode::new(hub.endpoint(peer), peer, HOSTS))
            .collect();
        let counters = Rc::new(PumpCounters::default());
        let pump = InlinePump {
            inner,
            hosts,
            step_buf: Vec::new(),
            counters: counters.clone(),
        };
        InlineCluster {
            driver: Driver::new(pump, HOSTS, config),
            hub,
            counters,
        }
    }

    /// Frames submitted by every endpoint of the cluster so far.
    pub fn frames_sent(&self) -> u64 {
        self.hub.total_stats().frames_sent
    }
}
