//! Test fixture: the inline cluster with a [`Script`] between the driver
//! and its endpoint, so only the script decides what goes missing.

use super::driver::Driver;
use super::host::HostNode;
use super::inline::InlineTransport;
use super::{HostState, Liveness, RetryPolicy};
use crate::transport::{PeerId, Transport, TransportError};
use crate::vnet::{VnetHub, VnetTransport};
use crate::wire::WireMsg;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use voronet_core::VoroNetConfig;
use voronet_sim::{NetworkModel, TransportStats};

pub(super) const HOSTS: u64 = 3;

/// What the scripted transport does to the frames passing through it.
#[derive(Default)]
pub(super) struct Script {
    /// Each predicate drops the next frame the driver sends that it
    /// matches, once.
    pub(super) drop_sent: Vec<fn(&WireMsg<'_>) -> bool>,
    /// The same for frames arriving at the driver.
    pub(super) drop_received: Vec<fn(&WireMsg<'_>) -> bool>,
    /// The object whose every `ViewUpdate` is lost on its way to the
    /// host, for as long as this is set.
    pub(super) lost_view: Option<u64>,
    /// A host that hears nothing from the driver from now on.
    pub(super) muted: Option<PeerId>,
    /// Frames handed to the driver ahead of real traffic.
    pub(super) inject: VecDeque<(PeerId, Vec<u8>)>,
    /// When set, every frame the driver sends (dropped ones included).
    pub(super) sent_log: Option<Vec<Vec<u8>>>,
}

impl Script {
    fn drops(rules: &mut Vec<fn(&WireMsg<'_>) -> bool>, frame: &[u8]) -> bool {
        let Ok((_, msg)) = WireMsg::decode(frame) else {
            return false;
        };
        match rules.iter().position(|rule| rule(&msg)) {
            Some(hit) => {
                rules.remove(hit);
                true
            }
            None => false,
        }
    }

    fn loses(&mut self, frame: &[u8]) -> bool {
        let lost_view = matches!(
            WireMsg::decode(frame),
            Ok((_, WireMsg::ViewUpdate { object, .. })) if Some(object) == self.lost_view
        );
        lost_view || Script::drops(&mut self.drop_sent, frame)
    }
}

/// The driver's endpoint of the scripted cluster: the inline cluster's,
/// behind the script.
pub(super) struct Scripted {
    hub: VnetHub,
    pub(super) inner: InlineTransport<VnetTransport>,
    pub(super) script: Script,
}

impl Scripted {
    /// Replaces `peer` by an amnesiac host on a fresh endpoint, as a
    /// crash and restart would.
    fn restart(&mut self, peer: PeerId) {
        // The fresh endpoint gets the peer's mailbox (what was queued for
        // the crashed host dead-letters); the old one, dropped after it,
        // closes only itself.
        let fresh = HostNode::new(self.hub.endpoint(peer), peer, HOSTS);
        self.inner.hosts[(peer - 1) as usize] = fresh;
    }
}

impl Transport for Scripted {
    fn local_peer(&self) -> PeerId {
        self.inner.local_peer()
    }

    fn register(&mut self, peer: PeerId, addr: &str) -> Result<(), TransportError> {
        self.inner.register(peer, addr)
    }

    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        if let Some(log) = &mut self.script.sent_log {
            log.push(frame.to_vec());
        }
        if self.script.muted == Some(to) || self.script.loses(frame) {
            return Ok(());
        }
        self.inner.send(to, frame)
    }

    fn poll(&mut self) -> Result<(), TransportError> {
        self.inner.poll()
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        if let Some((from, frame)) = self.script.inject.pop_front() {
            buf.clear();
            buf.extend_from_slice(&frame);
            return Ok(Some(from));
        }
        loop {
            match self.inner.recv_into(buf)? {
                Some(_) if Script::drops(&mut self.script.drop_received, buf) => {}
                received => return Ok(received),
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn now(&self) -> Instant {
        self.inner.now()
    }

    fn idle(&mut self, wait: Duration) {
        self.inner.idle(wait)
    }
}

/// An empty three-host scripted cluster.  Time moves only while a frame
/// is missing, and even then no attempt window closes short of 10 s.
pub(super) fn scripted(config: VoroNetConfig) -> Driver<Scripted> {
    let hub = VnetHub::new(NetworkModel::ideal());
    let t = Scripted {
        inner: InlineTransport::new(HOSTS, |peer| hub.endpoint(peer)),
        hub,
        script: Script::default(),
    };
    let mut driver = Driver::new(t, HOSTS, config);
    driver.set_retry_policy(RetryPolicy {
        base: Duration::from_secs(10),
        max_timeout: Duration::from_secs(10),
        attempts: 3,
        budget: Duration::from_secs(60),
        jitter: 0.0,
        resend: Duration::from_millis(1),
        ..RetryPolicy::default()
    });
    driver.set_liveness(Liveness::tight());
    driver
}

/// Heartbeats until the detector reads `state` for `peer`, within
/// `windows` tight ping windows of the driver's clock.
pub(super) fn heartbeat_until<T: Transport>(
    driver: &mut Driver<T>,
    peer: PeerId,
    state: HostState,
    windows: u32,
) {
    let (t0, bound) = (driver.t.now(), Liveness::tight().ping_interval * windows);
    while driver.host_state(peer) != state {
        let waited = driver.t.now() - t0;
        assert!(
            waited <= bound,
            "host {peer} not {state:?} after {waited:?}"
        );
        driver.heartbeat().unwrap();
    }
}

/// Crashes `peer`: the driver's frames stop reaching it, and heartbeats
/// run until the detector declares it dead — `dead_after` missed windows
/// after the first unanswered ping.  Pushes to it are dropped from here
/// on.
pub(super) fn kill(driver: &mut Driver<Scripted>, peer: PeerId) {
    driver.t.script.muted = Some(peer);
    heartbeat_until(
        driver,
        peer,
        HostState::Dead,
        Liveness::tight().dead_after + 2,
    );
}

/// Restarts a [`kill`]ed host with empty state and heartbeats until the
/// detector hears from it, so the next operation regenerates it.
pub(super) fn revive(driver: &mut Driver<Scripted>, peer: PeerId) {
    driver.t.script.muted = None;
    driver.t.restart(peer);
    let revivals = driver.cluster_stats().revivals;
    heartbeat_until(driver, peer, HostState::Alive, 2);
    assert_eq!(driver.cluster_stats().revivals, revivals + 1);
}
