//! Test fixture: a whole cluster on one thread.  The driver's transport
//! steps the real hosts inline whenever the driver's mailbox is empty, so
//! every answer is there by the next receive, nothing depends on a
//! scheduler, and only the [`Script`] decides what goes missing.

use super::driver::Driver;
use super::host::HostNode;
use super::{Liveness, RetryPolicy, DRIVER_PEER};
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

/// The driver's endpoint of the single-threaded cluster, holding the
/// hosts it steps.
pub(super) struct Scripted {
    hub: VnetHub,
    pub(super) inner: VnetTransport,
    pub(super) hosts: Vec<HostNode<VnetTransport>>,
    step_buf: Vec<u8>,
    pub(super) script: Script,
}

impl Scripted {
    /// Steps every host until a full round handles no frame.
    pub(super) fn step_hosts(&mut self) -> Result<bool, TransportError> {
        let mut any = false;
        loop {
            let mut progressed = false;
            for host in &mut self.hosts {
                while host
                    .step(&mut self.step_buf)
                    .map_err(|e| TransportError::Io(std::io::Error::other(e.to_string())))?
                {
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(any);
            }
            any = true;
        }
    }

    /// Replaces `peer` by an amnesiac host on a fresh endpoint, as a
    /// crash and restart would.
    fn restart(&mut self, peer: PeerId) {
        let at = (peer - 1) as usize;
        // The old endpoint closes the peer's mailbox as it drops, so it
        // must go before the new one opens.
        drop(self.hosts.remove(at));
        let fresh = HostNode::new(self.hub.endpoint(peer), peer, HOSTS);
        self.hosts.insert(at, fresh);
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
        self.step_hosts().map(drop)
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
                Some(from) => return Ok(Some(from)),
                None if self.step_hosts()? => {}
                None => return Ok(None),
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// An empty three-host scripted cluster whose timers cannot fire by
/// themselves: attempt windows of 10 s, no pings for an hour.
pub(super) fn scripted(config: VoroNetConfig) -> Driver<Scripted> {
    let hub = VnetHub::new(NetworkModel::ideal());
    let t = Scripted {
        inner: hub.endpoint(DRIVER_PEER),
        hosts: (1..=HOSTS)
            .map(|peer| HostNode::new(hub.endpoint(peer), peer, HOSTS))
            .collect(),
        hub,
        step_buf: Vec::new(),
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
    driver.set_liveness(Liveness {
        ping_interval: Duration::from_secs(3600),
        ..Liveness::default()
    });
    driver
}

/// Crashes `peer` as the failure detector sees it, without waiting: the
/// host misses ping windows (fabricated instants) until it is declared
/// dead, while the others keep answering.  Pushes to it are dropped from
/// here on.
pub(super) fn kill(driver: &mut Driver<Scripted>, peer: PeerId) {
    let Liveness {
        dead_after,
        ping_interval,
        ..
    } = driver.detector.knobs;
    let mut now = Instant::now();
    for _ in 0..=dead_after {
        now += ping_interval;
        driver.detector.due_pings(now);
        for other in (1..=HOSTS).filter(|&p| p != peer) {
            driver.detector.heard(other, now);
        }
    }
    assert!(driver.detector.is_dead(peer));
}

/// Restarts a [`kill`]ed host with empty state and lets the detector
/// hear from it, so the next operation regenerates it.
pub(super) fn revive(driver: &mut Driver<Scripted>, peer: PeerId) {
    driver.t.restart(peer);
    driver.detector.heard(peer, Instant::now());
    assert_eq!(driver.detector.revived, vec![peer]);
}
