//! The one in-process cluster: the driver plus K real [`HostNode`]s on
//! one thread.  The driver's transport steps the hosts until they are
//! quiescent whenever its own mailbox is empty, so every answer is there
//! by the next receive and nothing depends on a scheduler.  Time is the
//! endpoints' clock — on a [`VnetHub`] the hub's, which only the pump's
//! idle turns move — so a resend, an attempt window, a ping window or a
//! flood-probe retry is a count of idle turns and nothing sleeps.

use super::driver::Driver;
use super::host::HostNode;
use super::DRIVER_PEER;
use crate::transport::{PeerId, Transport, TransportError};
use crate::vnet::{VnetHub, VnetTransport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use voronet_core::{ObjectId, VoroNet, VoroNetConfig};
use voronet_geom::Rect;
use voronet_services::KvEntry;
use voronet_sim::{NetworkModel, TransportStats};

/// The driver's endpoint of an [`InlineCluster`], holding the hosts it
/// steps.
pub struct InlineTransport<T: Transport> {
    pub(super) inner: T,
    pub(super) hosts: Vec<HostNode<T>>,
    step_buf: Vec<u8>,
}

impl<T: Transport> InlineTransport<T> {
    /// The driver's endpoint and `hosts` hosts, each over the endpoint
    /// `endpoint` makes for its peer id.
    pub(super) fn new(hosts: u64, mut endpoint: impl FnMut(PeerId) -> T) -> Self {
        InlineTransport {
            inner: endpoint(DRIVER_PEER),
            hosts: (1..=hosts)
                .map(|peer| HostNode::new(endpoint(peer), peer, hosts))
                .collect(),
            step_buf: Vec::new(),
        }
    }

    /// Steps every host until a full round handles no frame; returns
    /// whether any frame was handled.
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
}

impl<T: Transport> Transport for InlineTransport<T> {
    fn local_peer(&self) -> PeerId {
        self.inner.local_peer()
    }

    fn register(&mut self, peer: PeerId, addr: &str) -> Result<(), TransportError> {
        self.inner.register(peer, addr)
    }

    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send(to, frame)
    }

    /// Polls every endpoint — which releases the frames a fault-injecting
    /// one held back — then steps the hosts.
    fn poll(&mut self) -> Result<(), TransportError> {
        self.inner.poll()?;
        for host in &mut self.hosts {
            host.t.poll()?;
        }
        self.step_hosts().map(drop)
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        loop {
            match self.inner.recv_into(buf)? {
                Some(from) => return Ok(Some(from)),
                None if self.step_hosts()? => {}
                None => return Ok(None),
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

/// A whole cluster in one process and on one thread (see the module
/// docs): the in-process twin of a `voronet-node` deployment and, with
/// every endpoint a [`FaultTransport`](crate::fault::FaultTransport), the
/// rig chaos runs drive.
pub struct InlineCluster<T: Transport = VnetTransport> {
    pub(super) driver: Driver<InlineTransport<T>>,
    /// Routes completed through the [`Overlay`](voronet_services::Overlay)
    /// surface, and the sum of their hop counts.
    pub(super) routes: u64,
    pub(super) route_hops: u64,
}

impl InlineCluster {
    /// Starts the driver and `hosts` hosts on one ideal hub
    /// ([`NetworkModel::ideal`]: one unit per frame).  Every hub is
    /// lossless: a cluster with other latency, or that loses frames,
    /// crashes hosts or partitions, wraps each endpoint in a
    /// [`FaultTransport`](crate::fault::FaultTransport) through
    /// [`InlineCluster::start_with`].
    pub fn start(hosts: u64, config: VoroNetConfig) -> Self {
        let hub = VnetHub::new(NetworkModel::ideal());
        Self::start_with(hosts, config, |peer| hub.endpoint(peer))
    }
}

impl<T: Transport> InlineCluster<T> {
    /// Starts the driver and `hosts` hosts, each over the endpoint
    /// `endpoint` makes for its peer id.
    pub fn start_with(
        hosts: u64,
        config: VoroNetConfig,
        endpoint: impl FnMut(PeerId) -> T,
    ) -> Self {
        let t = InlineTransport::new(hosts, endpoint);
        InlineCluster {
            driver: Driver::new(t, hosts, config),
            routes: 0,
            route_hops: 0,
        }
    }

    /// The cluster's driver.
    pub fn driver(&mut self) -> &mut Driver<InlineTransport<T>> {
        &mut self.driver
    }

    /// The driver's authoritative overlay.
    pub fn net(&self) -> &VoroNet {
        self.driver.net()
    }

    /// The driver's service control state, for audits: every standing
    /// subscription, and every acked KV entry with its placement (value,
    /// owner, replicas) — what the hosts were told to hold.
    pub fn service_tables(
        &self,
    ) -> (
        &BTreeMap<ObjectId, Rect>,
        impl Iterator<Item = (&u64, &KvEntry)> + '_,
    ) {
        let kv = self.driver.kv.iter().map(|(key, p)| (key, &p.entry));
        (&self.driver.subs, kv)
    }

    /// The cluster's clock, as its endpoints read it.
    pub fn now(&self) -> Instant {
        self.driver.t.now()
    }

    /// Every endpoint: the driver's, then the hosts' by peer id.
    pub fn endpoints(&self) -> impl Iterator<Item = &T> {
        let t = &self.driver.t;
        std::iter::once(&t.inner).chain(t.hosts.iter().map(|host| &host.t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::OpOutcome;
    use crate::fault::{FaultCtl, FaultTransport, LinkFaults};
    use voronet_workloads::{Distribution, PointGenerator};

    #[test]
    fn frames_held_by_hosts_are_released_on_idle_turns() {
        // Every frame a host sends is held back until its endpoint sends
        // again or is polled; only the idle turn's poll releases the last
        // answer of an exchange before the driver resends.
        let hub = VnetHub::new(NetworkModel::ideal());
        let clean = FaultCtl::new(LinkFaults::default());
        let held = FaultCtl::new(LinkFaults {
            delay: 1.0,
            ..LinkFaults::default()
        });
        let config = VoroNetConfig::new(512).with_seed(2);
        let mut cluster = InlineCluster::start_with(3, config, |peer| {
            let ctl = if peer == DRIVER_PEER { &clean } else { &held };
            FaultTransport::new(hub.endpoint(peer), ctl.clone(), 9)
        });
        let driver = cluster.driver();
        for p in PointGenerator::new(Distribution::Uniform, 3).take_points(24) {
            driver.insert(p).unwrap();
        }
        let id = |i| driver.net().id_at(i).unwrap();
        let (a, b, c, d) = (id(2), id(17), id(1), id(5));
        let route = driver
            .route_from(a, driver.net().coords(b).unwrap())
            .unwrap();
        assert!(matches!(route, OpOutcome::Route { .. }), "{route:?}");
        driver.kv_put(c, 7, 70).unwrap();
        let got = driver.kv_get(d, 7).unwrap();
        assert!(
            matches!(
                got,
                OpOutcome::KvFetched {
                    value: Some(70),
                    ..
                }
            ),
            "{got:?}"
        );
        let stats = driver.cluster_stats();
        assert_eq!((stats.retries, stats.fast_resends), (0, 0), "{stats:?}");
        let delayed = |t: &FaultTransport<VnetTransport>| t.fault_stats().delayed;
        assert!(cluster.endpoints().skip(1).all(|t| delayed(t) > 0));
    }
}
