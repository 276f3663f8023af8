//! A deployable overlay cluster over any
//! [`Transport`](crate::transport::Transport): a controller ("driver")
//! plus K object-hosting peers exchanging wire frames.  In one process
//! it is an [`InlineCluster`]: every peer on one thread and, over vnet,
//! on one virtual clock.
//!
//! ## Roles
//!
//! * The **driver** (peer 0) owns the authoritative [`VoroNet`]
//!   tessellation — the control plane.  Membership changes execute there;
//!   after each one the driver materialises the view of every object the
//!   overlay's change journal names ([`VoroNet::touched_since`]), diffs it
//!   against what was last shipped and pushes [`WireMsg::ViewUpdate`]
//!   frames (routing table, Voronoi neighbours, cell polygon) to the
//!   hosts, waiting for acks.  Hosts route **purely from shipped
//!   snapshots**.
//! * Each **host** (peers `1..=K`) holds the objects with
//!   `host_of(id) = 1 + id mod K` — the data plane.  Greedy routing
//!   ([`WireMsg::RouteStep`]) and area-query flooding
//!   ([`WireMsg::FloodProbe`]/[`WireMsg::FloodReply`]) run peer-to-peer
//!   between hosts; only the final answer returns to the driver.
//!
//! ## Conformance
//!
//! Because hosts receive the exact routing tables, Voronoi neighbour
//! sets and cell polygons of the authoritative tessellation (as f64 bit
//! patterns over the wire), the distributed greedy walk and the
//! distributed flood reproduce the single-process results bit-for-bit on
//! a synchronised cluster: same owners, same hop counts, same match
//! sets — asserted by the in-process tests below and by the
//! multi-process loopback-UDP test in `crates/node`.
//!
//! ## Services
//!
//! The cluster also hosts the geo-scoped service plane of
//! `voronet-services`: region subscriptions live on the subscriber's
//! host ([`WireMsg::SvcSubscribe`]), publications resolve through the
//! distributed area flood and are delivered host-by-host
//! ([`WireMsg::SvcDeliver`], deduplicated by a per-topic ledger), and
//! coordinate-keyed KV entries are physically stored at the host of the
//! owning cell's object ([`WireMsg::SvcKvStore`]) and *migrate over the
//! wire* when churn moves the owning cell — a [`WireMsg::SvcKvFetch`]
//! always reads from whatever host currently owns the key's coordinates.
//! Driver-side control state mirrors the single-process
//! `ServiceEngine` semantics, so the in-process and deployed paths agree.
//!
//! ## As an engine
//!
//! An [`InlineCluster`] implements `voronet_api::Overlay` (keyed by object
//! id, like every other engine), so the differential oracle fleet and the
//! API conformance suite run it beside the synchronous engine.
//!
//! ## Loss and fault tolerance
//!
//! The driver waits in exactly one place.  Whatever it needs back is an
//! entry in its pending-op table: the peer, the pre-encoded frame, what
//! completes it (a token-matched answer, an `(object, seq)` ack, a stats
//! reply from that peer) and its timers.  One pump drives every entry:
//! it alone receives frames, and while none arrives it re-sends each
//! entry's frame on the fast-retransmit cadence, opens the next attempt
//! window when one closes ([`RetryPolicy`]: exponential timeouts, seeded
//! jitter, attempt and time budgets) and gives up on an entry out of
//! either.  An operation keeps **one token and one frame** across its
//! attempts, so a late answer to an early attempt still completes it;
//! handlers are idempotent, so duplicates are harmless.  A push is an
//! entry that is resent until acked, however many windows that takes,
//! within a 60 s barrier deadline.  Flood coordinators on the hosts
//! retransmit unanswered probes on their own timer.  Every timer reads
//! its transport's clock and every wait is the transport's idle turn, so
//! on an [`InlineCluster`] over vnet they count idle turns.
//!
//! The pump also runs the failure detector ([`Liveness`]): received
//! frames and periodic [`WireMsg::Ping`]s feed a missed-window counter
//! per host, moving it `Alive → Suspected → Dead` ([`HostState`],
//! surfaced in [`ClusterStats`]).  An entry whose host is dead — when
//! queued or mid-wait — finishes at once: a push is dropped so the
//! barrier cannot stall, a request of any kind fails fast with
//! [`ClusterError::Unavailable`].  KV reads whose owner is unreachable
//! degrade to the Voronoi-neighbour replica set (validated by a per-entry
//! sequence so a stale copy is never returned), and a host heard from
//! again after being declared dead is regenerated from driver control
//! state before the next operation.

mod driver;
mod host;
mod inline;
mod liveness;
mod overlay;
mod pump;
#[cfg(test)]
mod scripted;
mod services;
#[cfg(test)]
mod write_path;

pub use driver::{Driver, PipelinedRoute};
pub use host::HostNode;
pub use inline::{InlineCluster, InlineTransport};
pub use liveness::{HostState, Liveness};
pub use pump::RetryPolicy;

use crate::transport::{PeerId, TransportError};
#[cfg(doc)]
use crate::wire::WireMsg;
use std::fmt;
#[cfg(doc)]
use voronet_core::VoroNet;
use voronet_sim::TransportStats;

/// The driver's peer id.
pub const DRIVER_PEER: PeerId = 0;

/// The host peer responsible for an object.
pub fn host_of(object: u64, hosts: u64) -> PeerId {
    1 + object % hosts.max(1)
}

/// Why a cluster operation failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The underlying transport failed.
    Transport(TransportError),
    /// A request exhausted its retries without an answer.
    Timeout(&'static str),
    /// The host that must serve the operation is dead per the failure
    /// detector; the operation failed fast instead of burning its
    /// retry budget.
    Unavailable(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Transport(e) => write!(f, "cluster transport error: {e}"),
            ClusterError::Timeout(what) => write!(f, "cluster timeout waiting for {what}"),
            ClusterError::Unavailable(what) => {
                write!(f, "cluster host unavailable (suspected or dead) for {what}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<TransportError> for ClusterError {
    fn from(e: TransportError) -> Self {
        ClusterError::Transport(e)
    }
}

impl ClusterError {
    /// Maps onto the overlay API's unified taxonomy.
    pub fn kind(&self) -> voronet_core::ErrorKind {
        match self {
            ClusterError::Transport(_) | ClusterError::Timeout(_) => {
                voronet_core::ErrorKind::OperationLost
            }
            ClusterError::Unavailable(_) => voronet_core::ErrorKind::Unavailable,
        }
    }
}

/// Liveness states and fault counters of a cluster driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Every host's current [`HostState`], ascending by peer.
    pub hosts: Vec<(PeerId, HostState)>,
    /// Attempt windows opened beyond each op's first (a push resent for
    /// longer than one attempt timeout climbs the same ladder).
    pub retries: u64,
    /// Operations refused fast because their host was dead.
    pub fail_fast: u64,
    /// KV reads served through the replica fallback.
    pub degraded_reads: u64,
    /// `Alive → Suspected` transitions observed.
    pub suspicions: u64,
    /// `→ Dead` transitions observed.
    pub deaths: u64,
    /// `Dead → Alive` transitions observed (host regenerated).
    pub revivals: u64,
    /// View/service pushes dropped because their target was dead.
    pub skipped_pushes: u64,
    /// Object views materialised to compare with what was last shipped:
    /// the journal's touched set per write, every live object when a
    /// write must resynchronise from scratch.
    pub view_builds: u64,
    /// Of those, the views that differed and were pushed to their host.
    pub view_pushes: u64,
    /// Request frames re-sent by the fast-retransmit timer *within* an
    /// attempt window (not counted as retries — the attempt ladder never
    /// advanced).
    pub fast_resends: u64,
}

/// Outcome of one applied [`WorkloadOp`](voronet_workloads::WorkloadOp).
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// Insert: the new object's id, `None` when the overlay rejected it.
    Inserted(Option<u64>),
    /// Remove: the departed object's id, `None` when skipped.
    Removed(Option<u64>),
    /// Point route: owner of the target's region and greedy hop count.
    Route {
        /// Owner object.
        owner: u64,
        /// Greedy hops.
        hops: u32,
    },
    /// Area/radius query: sorted match set, routing hops, flood footprint.
    Matches {
        /// Matching objects, ascending.
        matches: Vec<u64>,
        /// Hops of the initial greedy route.
        hops: u32,
        /// Objects visited by the flood.
        visited: u32,
    },
    /// Subscribe: the subscriber's id and whether a previous
    /// subscription was replaced.
    Subscribed {
        /// Subscribing object.
        id: u64,
        /// True when the object was already subscribed.
        replaced: bool,
    },
    /// Unsubscribe: the object's id and whether a subscription existed.
    Unsubscribed {
        /// Unsubscribing object.
        id: u64,
        /// True when a subscription was dropped.
        existed: bool,
    },
    /// Publish: the per-topic sequence number and the resolved
    /// subscriber split.
    Published {
        /// Sequence number of this publication on its topic.
        topic_seq: u64,
        /// Subscribers delivered to (ascending by id).
        delivered: Vec<u64>,
        /// Subscribers whose region intersects the publication but whose
        /// own coordinates fall outside it (ascending by id).
        missed: Vec<u64>,
        /// Hops of the initial greedy route of the resolution flood.
        hops: u32,
        /// Objects visited by the resolution flood.
        visited: u32,
    },
    /// KV put: where the entry now lives.
    KvStored {
        /// The entry's key.
        key: u64,
        /// The owning cell's object.
        owner: u64,
        /// True when an existing entry was overwritten.
        replaced: bool,
        /// Voronoi-neighbour replicas the entry was mirrored to.
        replicas: u32,
    },
    /// KV get: the value fetched from the owning cell's host.
    KvFetched {
        /// The queried key.
        key: u64,
        /// The owning cell's object.
        owner: u64,
        /// The stored value, `None` when the key is absent.
        value: Option<u64>,
        /// True when the owner's host was unreachable and the value was
        /// served by a Voronoi-neighbour replica instead.
        degraded: bool,
    },
    /// KV delete: whether an entry was dropped.
    KvDropped {
        /// The deleted key.
        key: u64,
        /// The owning cell's object.
        owner: u64,
        /// True when an entry existed.
        existed: bool,
    },
    /// The operation does not apply to a cluster (e.g. `Snapshot`).
    Skipped,
}

/// One host's stats snapshot, as [`Driver::collect_stats`] gathers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostReport {
    /// The reporting peer.
    pub peer: PeerId,
    /// Its transport counters.
    pub stats: TransportStats,
    /// Protocol operations it served.
    pub ops_served: u64,
}

#[cfg(test)]
mod tests {
    use super::scripted::heartbeat_until;
    use super::*;
    use crate::fault::{FaultCtl, FaultTransport, LinkFaults};
    use crate::vnet::{VnetHub, VnetTransport};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeSet;
    use voronet_core::{queries, VoroNet, VoroNetConfig};
    use voronet_geom::{Point2, Rect};
    use voronet_services::key_point;
    use voronet_sim::NetworkModel;
    use voronet_workloads::{Distribution, PointGenerator, RadiusQuery, RangeQuery};

    fn oracle_with_inserts(seed: u64, points: &[Point2]) -> VoroNet {
        let mut net = VoroNet::new(VoroNetConfig::new(512).with_seed(seed));
        for &p in points {
            let _ = net.insert(p);
        }
        net
    }

    #[test]
    fn distributed_routes_match_the_single_process_oracle() {
        let points = PointGenerator::new(Distribution::Uniform, 11).take_points(60);
        let mut cluster = InlineCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(4),
            NetworkModel::ideal(),
        );
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        let mut oracle = oracle_with_inserts(4, &points);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = oracle.len();
            let from = rng.random_range(0..n);
            let to = rng.random_range(0..n);
            let outcome = cluster.driver().route_indices(from, to).unwrap();
            let a = oracle.id_at(from).unwrap();
            let b = oracle.id_at(to).unwrap();
            let expected = oracle.route_between(a, b).unwrap();
            assert_eq!(
                outcome,
                OpOutcome::Route {
                    owner: expected.owner.0,
                    hops: expected.hops
                },
                "route {from}->{to}"
            );
        }
    }

    #[test]
    fn distributed_queries_match_the_single_process_oracle() {
        let points = PointGenerator::new(Distribution::Uniform, 13).take_points(80);
        let mut cluster = InlineCluster::start(
            4,
            VoroNetConfig::new(512).with_seed(6),
            NetworkModel::ideal(),
        );
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        let mut oracle = oracle_with_inserts(6, &points);
        let rects = [
            Rect::new(Point2::new(0.2, 0.3), Point2::new(0.5, 0.6)),
            Rect::new(Point2::new(0.0, 0.0), Point2::new(0.15, 0.15)),
            Rect::new(Point2::new(0.4, 0.4), Point2::new(0.42, 0.42)),
        ];
        for (i, &rect) in rects.iter().enumerate() {
            let outcome = cluster
                .driver()
                .range_query(i * 7, RangeQuery { rect })
                .unwrap();
            let from = oracle.id_at(i * 7 % oracle.len()).unwrap();
            let expected = queries::range_query(&mut oracle, from, RangeQuery { rect }).unwrap();
            assert_eq!(
                outcome,
                OpOutcome::Matches {
                    matches: expected.matches.iter().map(|m| m.0).collect(),
                    hops: expected.routing_hops,
                    visited: expected.visited as u32,
                },
                "rect {rect:?}"
            );
        }
        for i in 0..3 {
            let query = RadiusQuery {
                center: Point2::new(0.3 + 0.2 * i as f64, 0.5),
                radius: 0.12,
            };
            let outcome = cluster.driver().radius_query(i * 5, query).unwrap();
            let from = oracle.id_at(i * 5 % oracle.len()).unwrap();
            let expected = queries::radius_query(&mut oracle, from, query).unwrap();
            assert_eq!(
                outcome,
                OpOutcome::Matches {
                    matches: expected.matches.iter().map(|m| m.0).collect(),
                    hops: expected.routing_hops,
                    visited: expected.visited as u32,
                },
                "disk {query:?}"
            );
        }
    }

    #[test]
    fn churn_keeps_the_cluster_in_lockstep_with_the_oracle() {
        let mut cluster = InlineCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(8),
            NetworkModel::ideal(),
        );
        let mut oracle = VoroNet::new(VoroNetConfig::new(512).with_seed(8));
        let mut pg = PointGenerator::new(Distribution::Uniform, 17);
        for _ in 0..30 {
            let p = pg.next_point();
            cluster.driver().insert(p).unwrap();
            let _ = oracle.insert(p);
        }
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..25 {
            match rng.random_range(0..3u32) {
                0 => {
                    let p = pg.next_point();
                    let got = cluster.driver().insert(p).unwrap();
                    let expected = oracle.insert(p).ok().map(|r| r.id.0);
                    assert_eq!(got, expected, "round {round} insert");
                }
                1 if oracle.len() > 8 => {
                    let idx = rng.random_range(0..oracle.len());
                    let got = cluster.driver().remove_index(idx).unwrap();
                    let id = oracle.id_at(idx).unwrap();
                    let expected = oracle.remove(id).ok().map(|_| id.0);
                    assert_eq!(got, expected, "round {round} remove");
                }
                _ => {
                    let n = oracle.len();
                    let from = rng.random_range(0..n);
                    let to = rng.random_range(0..n);
                    let outcome = cluster.driver().route_indices(from, to).unwrap();
                    let a = oracle.id_at(from).unwrap();
                    let b = oracle.id_at(to).unwrap();
                    let expected = oracle.route_between(a, b).unwrap();
                    assert_eq!(
                        outcome,
                        OpOutcome::Route {
                            owner: expected.owner.0,
                            hops: expected.hops
                        },
                        "round {round} route"
                    );
                }
            }
        }
        let reports = cluster.driver().collect_stats().unwrap();
        assert!(reports.iter().any(|r| r.ops_served > 0));
    }

    #[test]
    fn service_plane_pubsub_and_kv_handoff() {
        let mut cluster = InlineCluster::start(
            3,
            VoroNetConfig::new(512).with_seed(5),
            NetworkModel::ideal(),
        );
        let points = PointGenerator::new(Distribution::Uniform, 23).take_points(40);
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        let driver = cluster.driver();
        let n = driver.population();

        // Everyone subscribes to the full domain, so a publication's
        // delivered set must equal the distributed flood's match set and
        // everyone else is missed.
        let domain = Rect::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        for i in 0..n {
            let outcome = driver.subscribe(i, domain).unwrap();
            assert!(matches!(
                outcome,
                OpOutcome::Subscribed {
                    replaced: false,
                    ..
                }
            ));
        }
        let region = Rect::new(Point2::new(0.2, 0.2), Point2::new(0.7, 0.7));
        let OpOutcome::Published {
            topic_seq,
            delivered,
            missed,
            ..
        } = driver.publish(0, region, 99).unwrap()
        else {
            panic!("publish on a populated overlay must resolve")
        };
        assert_eq!(topic_seq, 1);
        let mut oracle = oracle_with_inserts(5, &points);
        let from = oracle.id_at(0).unwrap();
        let expected =
            queries::range_query(&mut oracle, from, RangeQuery { rect: region }).unwrap();
        let expected_ids: Vec<u64> = expected.matches.iter().map(|m| m.0).collect();
        assert_eq!(delivered, expected_ids);
        let missed_expected: Vec<u64> = oracle
            .ids()
            .map(|id| id.0)
            .filter(|id| !expected_ids.contains(id))
            .collect();
        let mut missed_sorted = missed;
        missed_sorted.sort_unstable();
        let mut missed_expected = missed_expected;
        missed_expected.sort_unstable();
        assert_eq!(missed_sorted, missed_expected);
        // Same topic again: the per-topic sequence climbs.
        let OpOutcome::Published { topic_seq, .. } = driver.publish(1, region, 100).unwrap() else {
            panic!("publish must resolve")
        };
        assert_eq!(topic_seq, 2);

        // KV round-trip through the hosts.
        let key = 0xC0FFEEu64;
        let OpOutcome::KvStored {
            owner,
            replaced: false,
            ..
        } = driver.kv_put(3, key, 41).unwrap()
        else {
            panic!("kv_put must store")
        };
        let OpOutcome::KvFetched {
            value,
            owner: fetched_owner,
            ..
        } = driver.kv_get(7, key).unwrap()
        else {
            panic!("kv_get must resolve")
        };
        assert_eq!(value, Some(41));
        assert_eq!(fetched_owner, owner);
        let OpOutcome::KvStored { replaced: true, .. } = driver.kv_put(4, key, 42).unwrap() else {
            panic!("second put must replace")
        };

        // Churn-driven handoff: a new node lands exactly on the key's
        // coordinates, takes over the owning cell, and the stored entry
        // must follow it to the new owner's host.
        let kp = key_point(key, driver.net().config().domain);
        let new_id = driver.insert(kp).unwrap().expect("fresh position");
        let OpOutcome::KvFetched { value, owner, .. } = driver.kv_get(9, key).unwrap() else {
            panic!("kv_get must resolve")
        };
        assert_eq!(owner, new_id, "the on-key node must own the entry");
        assert_eq!(value, Some(42), "the value must survive the handoff");

        // Removing the new owner hands the entry back to a survivor.
        let n = driver.population();
        let idx = (0..n)
            .position(|i| driver.net().id_at(i) == Some(voronet_core::ObjectId(new_id)))
            .expect("new node is live");
        assert_eq!(driver.remove_index(idx).unwrap(), Some(new_id));
        let OpOutcome::KvFetched { value, owner, .. } = driver.kv_get(2, key).unwrap() else {
            panic!("kv_get must resolve")
        };
        assert_ne!(owner, new_id);
        assert_eq!(value, Some(42), "the value must survive the second handoff");

        // Delete, then the key is gone.
        let OpOutcome::KvDropped { existed: true, .. } = driver.kv_delete(5, key).unwrap() else {
            panic!("delete must drop the entry")
        };
        let OpOutcome::KvFetched { value: None, .. } = driver.kv_get(6, key).unwrap() else {
            panic!("deleted key must read back as absent")
        };

        // Unsubscribe round-trips too.
        let OpOutcome::Unsubscribed { existed: true, .. } = driver.unsubscribe(0).unwrap() else {
            panic!("subscribed object must unsubscribe")
        };
        let reports = cluster.driver().collect_stats().unwrap();
        assert!(reports.iter().any(|r| r.ops_served > 0));
    }

    #[test]
    fn host_mapping_covers_every_host() {
        let peers: BTreeSet<PeerId> = (0..100).map(|id| host_of(id, 7)).collect();
        assert_eq!(peers, (1..=7).collect());
        assert_eq!(host_of(5, 0), 1); // degenerate guard: max(1)
    }

    /// A three-host cluster over fault-injecting endpoints sharing one
    /// switchboard, on the tight timers.
    fn faulty(
        seed: u64,
        link: LinkFaults,
    ) -> (InlineCluster<FaultTransport<VnetTransport>>, FaultCtl) {
        let hub = VnetHub::new(NetworkModel::ideal());
        let ctl = FaultCtl::new(link);
        let config = VoroNetConfig::new(512).with_seed(seed);
        let mut cluster = InlineCluster::start_with(3, config, |peer| {
            FaultTransport::new(hub.endpoint(peer), ctl.clone(), seed)
        });
        cluster.driver().set_retry_policy(RetryPolicy::tight());
        cluster.driver().set_liveness(Liveness::tight());
        (cluster, ctl)
    }

    #[test]
    fn crashed_owner_degrades_reads_and_failfasts_ops() {
        let (mut cluster, ctl) = faulty(12, LinkFaults::default());
        let points = PointGenerator::new(Distribution::Uniform, 29).take_points(36);
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }

        let key = 0xFEEDu64;
        let OpOutcome::KvStored {
            owner, replicas, ..
        } = cluster.driver().kv_put(1, key, 91).unwrap()
        else {
            panic!("kv_put must store")
        };
        assert!(
            replicas >= 2,
            "a dense overlay must mirror to >= 2 replicas, got {replicas}"
        );
        let OpOutcome::KvFetched {
            value, degraded, ..
        } = cluster.driver().kv_get(2, key).unwrap()
        else {
            panic!("healthy get must resolve")
        };
        assert_eq!(value, Some(91));
        assert!(!degraded);
        let healthy = cluster.driver().cluster_stats();
        assert_eq!((healthy.retries, healthy.fast_resends), (0, 0));

        // Pinged once a window and silent from the next one on, the host
        // is dead `dead_after` missed windows later.
        let owner_host = host_of(owner, 3);
        ctl.crash(owner_host);
        let windows = Liveness::tight().dead_after + 2;
        heartbeat_until(cluster.driver(), owner_host, HostState::Dead, windows);

        // A query origin whose object lives on a surviving host.
        let from = (0..cluster.driver().population())
            .find(|&i| {
                let id = cluster.driver().net().id_at(i).unwrap().0;
                host_of(id, 3) != owner_host
            })
            .expect("a surviving object exists");
        let OpOutcome::KvFetched {
            value,
            owner: got_owner,
            degraded,
            ..
        } = cluster.driver().kv_get(from, key).unwrap()
        else {
            panic!("degraded get must resolve")
        };
        assert!(
            degraded,
            "a read served while the owner is dead must be flagged degraded"
        );
        assert_eq!(value, Some(91), "the acked write must survive the crash");
        assert_eq!(got_owner, owner);

        // An op that must be served by the dead host fails fast: not one
        // idle turn, instead of the whole retry budget.
        let dead_idx = (0..cluster.driver().population())
            .find(|&i| {
                let id = cluster.driver().net().id_at(i).unwrap().0;
                host_of(id, 3) == owner_host
            })
            .expect("the dead host serves at least one object");
        let t0 = cluster.now();
        let err = cluster.driver().route_indices(dead_idx, from).unwrap_err();
        assert!(matches!(err, ClusterError::Unavailable(_)), "got {err}");
        assert_eq!(cluster.now(), t0, "fail-fast waited");

        let stats = cluster.driver().cluster_stats();
        assert!(stats.degraded_reads >= 1);
        assert!(stats.deaths >= 1);
        assert!(stats.fail_fast >= 1);
        assert!(stats
            .hosts
            .iter()
            .any(|&(p, s)| p == owner_host && s == HostState::Dead));

        // Restart: the next ping finds the host, the driver regenerates
        // its state, and the healthy read path resumes.
        ctl.restart(owner_host);
        heartbeat_until(cluster.driver(), owner_host, HostState::Alive, 2);
        let OpOutcome::KvFetched {
            value, degraded, ..
        } = cluster.driver().kv_get(3, key).unwrap()
        else {
            panic!("post-revival get must resolve")
        };
        assert_eq!(value, Some(91));
        assert!(!degraded, "the healthy path must resume after revival");
        assert!(cluster.driver().cluster_stats().revivals >= 1);
    }

    /// Regression: under 10% frame loss the driver used to send each
    /// request once and then passively wait out the full jittered
    /// attempt timeout (~105ms under the tight policy), so the kv_get
    /// p50 jumped from ~16µs healthy to ~107ms lossy.  Fast retransmit
    /// inside the wait recovers every lost frame within the attempt
    /// window: resends happen, the attempt ladder never advances.
    #[test]
    fn lossy_kv_gets_stay_fast_thanks_to_fast_retransmit() {
        let (mut cluster, _ctl) = faulty(31, LinkFaults::lossy(0.10));
        let driver = cluster.driver();
        for p in PointGenerator::new(Distribution::Uniform, 37).take_points(36) {
            driver.insert(p).unwrap();
        }
        for key in 0..8u64 {
            driver.kv_put(key as usize, key, key * 7).unwrap();
        }
        for i in 0..30usize {
            let key = (i % 8) as u64;
            let got = driver.kv_get(i, key).unwrap();
            assert!(
                matches!(got, OpOutcome::KvFetched { value: Some(v), .. } if v == key * 7),
                "lossy kv_get {i} returned {got:?}"
            );
        }
        let stats = driver.cluster_stats();
        assert!(
            stats.fast_resends > 0,
            "the lossy run must have exercised the fast-retransmit path"
        );
        assert_eq!(
            stats.retries, 0,
            "an op ate a whole attempt timeout — fast retransmit regressed: {stats:?}"
        );
    }
}
