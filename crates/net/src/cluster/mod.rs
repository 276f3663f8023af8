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
//! * Each **host** (peers `1..=K`) holds the objects the driver placed on
//!   it — the data plane.  Greedy routing ([`WireMsg::RouteStep`]) and
//!   area-query flooding ([`WireMsg::FloodProbe`]/[`WireMsg::FloodReply`])
//!   run peer-to-peer between hosts; only the final answer returns to the
//!   driver.
//!
//! ## Placement
//!
//! A greedy hop goes from an object to one of its neighbours, so the
//! number of frames an operation sends is the number of hops that cross
//! hosts.  The driver therefore places each joining object, once, by its
//! rank r along the Hilbert curve over the domain among the n live
//! objects: on host `1 + r·K/n`, so each host holds one contiguous share
//! of the curve's order — a share of the population, not of the domain
//! — and a walk crosses hosts only where it crosses a share's border.  A
//! host that would then hold more than ⌈n/K⌉ + ⌊n/K⌋/8 + 8 of the n live
//! objects gives the object to the least-loaded host instead.  Objects
//! never move; a departure frees its host's slot.  Hosts never compute
//! placement: every routing entry of a
//! [`WireMsg::ViewUpdate`] (whose Voronoi neighbours are positions among
//! those entries), and every neighbour of a [`WireMsg::FloodReply`],
//! carries its host, so a walk forwards to the host its next object's
//! entry names and a flood probes each frontier object on the host it
//! was shipped with.  A host rejects (and counts) a frame naming a host
//! outside `1..=K`, or a neighbour position past its routing entries.
//! Hops, owners and match sets
//! do not depend on placement — only which process takes each hop — and
//! a walk stays inside one host until it meets an object placed
//! elsewhere: on 2 000 uniform objects over three hosts the hosts hold
//! 648/699/653 objects and a fixed script of 500 routes sends 1 720
//! frames, against 2 141 when each object joined the host of most of its
//! Voronoi neighbours and 5 974 under `1 + id mod K`.  Locality has a
//! price the KV store pays: an owner's Voronoi neighbours, its replica
//! set, mostly share its host (every one of them does for 83 % of those
//! 2 000 objects), so an entry's copies go to hosts other than the
//! owner's — its replicas placed elsewhere, else the nearest object
//! placed elsewhere — and every acked write stays readable while any one
//! host is down.
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
//! `voronet-services`: region subscriptions are driver state,
//! publications resolve their recipients through the distributed area
//! flood, and coordinate-keyed KV entries are physically
//! stored at the host of the owning cell's object
//! ([`WireMsg::SvcKvStore`]) and *migrate over the wire* when churn moves
//! the owning cell — a [`WireMsg::SvcKvFetch`] always reads from whatever
//! host currently owns the key's coordinates.
//! The driver places keys by the one rule of `voronet_services::keys`,
//! which the single-process `ServiceEngine` calls too.  Every driver
//! operation names its issuing object by id; [`Driver::apply`] alone
//! takes a scripted [`WorkloadOp`](voronet_workloads::WorkloadOp), whose
//! population indices it resolves first.
//!
//! ## As an engine
//!
//! An [`InlineCluster`] implements `voronet_api::Overlay` (keyed by object
//! id, like every other engine) and serves `Op::Service` through this
//! plane, so the differential oracle fleet and the API conformance suite
//! run it, service ops included, beside the synchronous engine.
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

pub use driver::Driver;
pub use host::HostNode;
pub use inline::{InlineCluster, InlineTransport};
pub use liveness::{HostState, Liveness};
pub use pump::RetryPolicy;

use crate::transport::{PeerId, TransportError};
#[cfg(doc)]
use crate::wire::WireMsg;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
#[cfg(doc)]
use voronet_core::VoroNet;
use voronet_services::api::{DeleteOutcome, PublishOutcome, SubscribeOutcome, UnsubscribeOutcome};
use voronet_sim::TransportStats;

/// The driver's peer id.
pub const DRIVER_PEER: PeerId = 0;

/// Messages of an area flood that visited `visited` objects: one probe
/// per visited object beyond the first, as the synchronous flood counts.
fn flood_messages(visited: u32) -> u64 {
    u64::from(visited.saturating_sub(1))
}

/// A map keyed by object ids (or tuples holding them).  The ids are the
/// driver's own; a host reads them off frames, but from peers it already
/// trusts with all of its state (frames carry no authentication), so a
/// keyed SipHash on the per-hop lookups would defend nothing.
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of object ids, hashed as [`IdMap`] keys are.
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// An Fx-style multiply-rotate hash: each word is added, then multiplied by
/// an odd constant; `finish` rotates the product's well-mixed high bits
/// into the low bits hashbrown picks a bucket with, keeping mixed bits in
/// the top seven it tags a slot with.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        const ODD: u64 = 0xf135_7aea_2e62_a9c5;
        self.0 = self.0.wrapping_add(word).wrapping_mul(ODD);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
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

/// Outcome of one driver operation, or of one applied
/// [`WorkloadOp`](voronet_workloads::WorkloadOp).
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
    /// Subscribe, as the overlay API reports it.
    Subscribed(SubscribeOutcome),
    /// Unsubscribe, as the overlay API reports it.
    Unsubscribed(UnsubscribeOutcome),
    /// Publish: the per-topic sequence number, the resolved subscriber
    /// split and the resolution flood, as the overlay API reports it.
    Published(PublishOutcome),
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
        /// Hops of the greedy route to the owner (0 when the driver's
        /// tessellation decided it because a host was down).
        hops: u32,
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
        /// Hops of the greedy route to the owner, as for `KvStored`.
        hops: u32,
    },
    /// KV delete, as the overlay API reports it.
    KvDropped(DeleteOutcome),
    /// The operation does not apply: a `Snapshot`, an empty overlay, or
    /// an issuing object that is not live.
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
    use voronet_core::{queries, ObjectId, VoroNet, VoroNetConfig};
    use voronet_geom::{Point2, Rect};
    use voronet_services::key_point;
    use voronet_sim::NetworkModel;
    use voronet_workloads::{Distribution, PointGenerator, RadiusQuery, RangeQuery, WorkloadOp};

    /// The `index`-th live object, modulo the population.
    fn nth<T: crate::transport::Transport>(driver: &Driver<T>, index: usize) -> ObjectId {
        driver.net().id_at(index % driver.population()).unwrap()
    }

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
        let mut cluster = InlineCluster::start(3, VoroNetConfig::new(512).with_seed(4));
        for &p in &points {
            cluster.driver().insert(p).unwrap();
        }
        let mut oracle = oracle_with_inserts(4, &points);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = oracle.len();
            let from = rng.random_range(0..n);
            let to = rng.random_range(0..n);
            let outcome = cluster
                .driver()
                .apply(&WorkloadOp::Route { from, to })
                .unwrap();
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
        let mut cluster = InlineCluster::start(4, VoroNetConfig::new(512).with_seed(6));
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
            let query = RangeQuery { rect };
            let driver = cluster.driver();
            let outcome = driver.range_from(nth(driver, i * 7), query).unwrap();
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
            let driver = cluster.driver();
            let outcome = driver.radius_from(nth(driver, i * 5), query).unwrap();
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
        let mut cluster = InlineCluster::start(3, VoroNetConfig::new(512).with_seed(8));
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
                    let got = cluster.driver().apply(&WorkloadOp::Remove { index: idx });
                    let id = oracle.id_at(idx).unwrap();
                    let expected = oracle.remove(id).ok().map(|_| id.0);
                    assert_eq!(
                        got.unwrap(),
                        OpOutcome::Removed(expected),
                        "round {round} remove"
                    );
                }
                _ => {
                    let n = oracle.len();
                    let from = rng.random_range(0..n);
                    let to = rng.random_range(0..n);
                    let outcome = cluster
                        .driver()
                        .apply(&WorkloadOp::Route { from, to })
                        .unwrap();
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
        let mut cluster = InlineCluster::start(3, VoroNetConfig::new(512).with_seed(5));
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
            let outcome = driver.subscribe(nth(driver, i), domain).unwrap();
            assert!(matches!(
                outcome,
                OpOutcome::Subscribed(SubscribeOutcome {
                    replaced: false,
                    ..
                })
            ));
        }
        let region = Rect::new(Point2::new(0.2, 0.2), Point2::new(0.7, 0.7));
        let OpOutcome::Published(PublishOutcome {
            seq,
            delivered,
            missed,
            ..
        }) = driver.publish(nth(driver, 0), region).unwrap()
        else {
            panic!("publish on a populated overlay must resolve")
        };
        assert_eq!(seq, 1);
        let mut oracle = oracle_with_inserts(5, &points);
        let from = oracle.id_at(0).unwrap();
        let expected =
            queries::range_query(&mut oracle, from, RangeQuery { rect: region }).unwrap();
        assert_eq!(delivered, expected.matches);
        let mut missed_expected: Vec<ObjectId> = oracle
            .ids()
            .filter(|id| !expected.matches.contains(id))
            .collect();
        let mut missed_sorted = missed;
        missed_sorted.sort_unstable();
        missed_expected.sort_unstable();
        assert_eq!(missed_sorted, missed_expected);
        // Same topic again: the per-topic sequence climbs.
        let OpOutcome::Published(PublishOutcome { seq, .. }) =
            driver.publish(nth(driver, 1), region).unwrap()
        else {
            panic!("publish must resolve")
        };
        assert_eq!(seq, 2);

        // KV round-trip through the hosts.
        let key = 0xC0FFEEu64;
        let OpOutcome::KvStored {
            owner,
            replaced: false,
            ..
        } = driver.kv_put(nth(driver, 3), key, 41).unwrap()
        else {
            panic!("kv_put must store")
        };
        let OpOutcome::KvFetched {
            value,
            owner: fetched_owner,
            ..
        } = driver.kv_get(nth(driver, 7), key).unwrap()
        else {
            panic!("kv_get must resolve")
        };
        assert_eq!(value, Some(41));
        assert_eq!(fetched_owner, owner);
        let OpOutcome::KvStored { replaced: true, .. } =
            driver.kv_put(nth(driver, 4), key, 42).unwrap()
        else {
            panic!("second put must replace")
        };

        // Churn-driven handoff: a new node lands exactly on the key's
        // coordinates, takes over the owning cell, and the stored entry
        // must follow it to the new owner's host.
        let kp = key_point(key, driver.net().config().domain);
        let new_id = driver.insert(kp).unwrap().expect("fresh position");
        let OpOutcome::KvFetched { value, owner, .. } = driver.kv_get(nth(driver, 9), key).unwrap()
        else {
            panic!("kv_get must resolve")
        };
        assert_eq!(owner, new_id, "the on-key node must own the entry");
        assert_eq!(value, Some(42), "the value must survive the handoff");

        // Removing the new owner hands the entry back to a survivor.
        assert!(driver.leave(ObjectId(new_id)).unwrap().is_ok());
        assert!(!driver.net().contains(ObjectId(new_id)));
        let OpOutcome::KvFetched { value, owner, .. } = driver.kv_get(nth(driver, 2), key).unwrap()
        else {
            panic!("kv_get must resolve")
        };
        assert_ne!(owner, new_id);
        assert_eq!(value, Some(42), "the value must survive the second handoff");

        // Delete, then the key is gone.
        let OpOutcome::KvDropped(DeleteOutcome { existed: true, .. }) =
            driver.kv_delete(nth(driver, 5), key).unwrap()
        else {
            panic!("delete must drop the entry")
        };
        let OpOutcome::KvFetched { value: None, .. } = driver.kv_get(nth(driver, 6), key).unwrap()
        else {
            panic!("deleted key must read back as absent")
        };

        // Unsubscribe round-trips too.
        let OpOutcome::Unsubscribed(UnsubscribeOutcome { existed: true, .. }) =
            driver.unsubscribe(nth(driver, 0)).unwrap()
        else {
            panic!("subscribed object must unsubscribe")
        };
        let reports = cluster.driver().collect_stats().unwrap();
        assert!(reports.iter().any(|r| r.ops_served > 0));
    }

    /// Ids in steps of three must spread over both the buckets
    /// (low bits) and the slot tags (top seven bits) hashbrown reads: an
    /// identity hash of small ids would tag every slot alike.
    #[test]
    fn id_hashes_spread_in_the_low_and_the_top_bits() {
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<IdHasher>::default();
        let (mut low, mut top) = ([0u32; 128], [0u32; 128]);
        for id in (0..1_024u64).map(|i| 3 * i + 1) {
            let h = hasher.hash_one(id);
            low[(h & 127) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        // 1 024 ids over 128 values: 8 each on average.
        for (bits, counts) in [("low", low), ("top", top)] {
            let empty = counts.iter().filter(|&&c| c == 0).count();
            let most = counts.iter().max().copied().unwrap_or(0);
            assert!(
                empty <= 4 && most <= 24,
                "{bits} bits: {empty} empty, {most} max"
            );
        }
        // Tuple and array keys hash every word.
        assert_ne!(hasher.hash_one((1u64, 2u64)), hasher.hash_one((2u64, 1u64)));
        assert_ne!(
            hasher.hash_one([1u64, 0, 0, 0]),
            hasher.hash_one([0u64, 0, 0, 1])
        );
    }

    /// A three-host cluster of the first `n` points `distribution` draws
    /// at seed 2007, and every object's host by id.
    fn built(distribution: Distribution, n: usize) -> (InlineCluster, Vec<(u64, PeerId)>) {
        let config = VoroNetConfig::new(n).with_seed(2007);
        let mut cluster = InlineCluster::start(3, config);
        for p in PointGenerator::new(distribution, 2007).take_points(n) {
            cluster.driver().insert(p).unwrap();
        }
        let driver = cluster.driver();
        let mut hosts: Vec<(u64, PeerId)> = driver
            .net()
            .ids()
            .map(|id| (id.0, driver.host_of(id).unwrap()))
            .collect();
        hosts.sort_unstable();
        (cluster, hosts)
    }

    /// Placement is a function of the join sequence alone, keeps every
    /// host within ⌈n/K⌉ + ⌊n/K⌋/8 + 8 objects on uniform and on heavily
    /// skewed populations, and is what the hosts hold.  The cap never
    /// fires on these builds: each object sits on host `1 + r·K/n` for its
    /// rank r among the n objects that had joined, replayed on a sorted
    /// list, and the pinned loads are within 5 % of n/K.
    #[test]
    fn placement_is_deterministic_and_keeps_every_host_under_the_cap() {
        let n = 2_000;
        for (distribution, loads) in [
            (Distribution::Uniform, [648, 699, 653]),
            (Distribution::PowerLaw { alpha: 5.0 }, [651, 689, 660]),
        ] {
            let (mut cluster, hosts) = built(distribution, n);
            assert_eq!(built(distribution, n).1, hosts, "{distribution:?}");
            let net = cluster.net();
            let mut earlier: Vec<(u32, u64)> = Vec::new();
            for (joined, &(id, host)) in (1..).zip(&hosts) {
                let at = net.coords(ObjectId(id)).unwrap();
                let entry = (voronet_geom::hilbert_key(net.config().domain, at), id);
                let rank = earlier.partition_point(|&e| e < entry);
                assert_eq!(host, 1 + rank as u64 * 3 / joined, "object {id}");
                earlier.insert(rank, entry);
            }
            let live = net.len() as u64;
            let cap = live.div_ceil(3) + live / 3 / 8 + 8;
            let driver = cluster.driver();
            let mut counted = [0u64; 3];
            for &(_, host) in &hosts {
                counted[(host - 1) as usize] += 1;
            }
            assert_eq!(driver.load, counted, "{distribution:?}");
            let held: Vec<u64> = driver.t.hosts.iter().map(|h| h.hosted() as u64).collect();
            assert_eq!(held, counted, "{distribution:?}");
            println!("{distribution:?}: hosts hold {counted:?} (cap {cap})");
            assert!(
                counted.iter().all(|&c| c <= cap),
                "{distribution:?}: {counted:?} against a cap of {cap}"
            );
            assert_eq!(counted, loads, "{distribution:?}");
        }
    }

    /// Each host holds one contiguous share of the Hilbert order, up to
    /// the first joiners' ranks among few: walking 2 000 objects in curve
    /// order changes host a pinned number of times, where three exact
    /// shares would change it twice.
    #[test]
    fn hosts_hold_contiguous_shares_of_the_curve() {
        for (distribution, pinned) in [
            (Distribution::Uniform, 58),
            (Distribution::PowerLaw { alpha: 5.0 }, 46),
        ] {
            let (cluster, hosts) = built(distribution, 2_000);
            let net = cluster.net();
            let domain = net.config().domain;
            let mut order: Vec<(u32, u64, PeerId)> = hosts
                .iter()
                .map(|&(id, host)| {
                    let at = net.coords(ObjectId(id)).unwrap();
                    (voronet_geom::hilbert_key(domain, at), id, host)
                })
                .collect();
            order.sort_unstable();
            let changes = order.windows(2).filter(|w| w[0].2 != w[1].2).count();
            println!("{distribution:?}: {changes} host changes along the curve");
            assert_eq!(changes, pinned, "{distribution:?}");
        }
    }

    /// The frames one fixed route script sends on a 2 000-object uniform
    /// cluster: a request, the answer, and one step per hop that crosses
    /// hosts.  Placement sets the third term alone: the id-modulo
    /// placement sent 5 974 frames, the neighbour vote 2 141, and curve
    /// ranks send 1 720, for the same 7 304 hops.
    #[test]
    fn a_fixed_route_script_sends_the_pinned_frames() {
        let (mut cluster, _) = built(Distribution::Uniform, 2_000);
        let frames = |cluster: &InlineCluster| -> u64 {
            cluster
                .endpoints()
                .map(|t| crate::transport::Transport::stats(t).frames_sent)
                .sum()
        };
        let n = cluster.net().len();
        let before = frames(&cluster);
        let mut hops = 0;
        for i in 0..500 {
            let route = WorkloadOp::Route {
                from: (i * 31) % n,
                to: (i * 97 + 13) % n,
            };
            let OpOutcome::Route { hops: h, .. } = cluster.driver().apply(&route).unwrap() else {
                panic!("a route answers with its owner");
            };
            hops += u64::from(h);
        }
        let sent = frames(&cluster) - before;
        println!("500 routes, {hops} hops: {sent} frames");
        assert_eq!((hops, sent), (7_304, 1_720));
    }

    /// A three-host cluster over fault-injecting endpoints sharing one
    /// switchboard, on the tight timers.
    fn faulty(
        seed: u64,
        link: LinkFaults,
    ) -> (InlineCluster<FaultTransport<VnetTransport>>, FaultCtl) {
        faulty_sized(512, seed, link)
    }

    /// [`faulty`], configured for `capacity` objects.
    fn faulty_sized(
        capacity: usize,
        seed: u64,
        link: LinkFaults,
    ) -> (InlineCluster<FaultTransport<VnetTransport>>, FaultCtl) {
        let hub = VnetHub::new(NetworkModel::ideal());
        let ctl = FaultCtl::new(link);
        let config = VoroNetConfig::new(capacity).with_seed(seed);
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
        let driver = cluster.driver();
        let OpOutcome::KvStored {
            owner, replicas, ..
        } = driver.kv_put(nth(driver, 1), key, 91).unwrap()
        else {
            panic!("kv_put must store")
        };
        assert!(
            replicas >= 2,
            "a dense overlay must mirror to >= 2 replicas, got {replicas}"
        );
        let OpOutcome::KvFetched {
            value, degraded, ..
        } = driver.kv_get(nth(driver, 2), key).unwrap()
        else {
            panic!("healthy get must resolve")
        };
        assert_eq!(value, Some(91));
        assert!(!degraded);
        let healthy = cluster.driver().cluster_stats();
        assert_eq!((healthy.retries, healthy.fast_resends), (0, 0));

        // Pinged once a window and silent from the next one on, the host
        // is dead `dead_after` missed windows later.
        let owner_host = cluster.driver().host_of(ObjectId(owner)).unwrap();
        ctl.crash(owner_host);
        let windows = Liveness::tight().dead_after + 2;
        heartbeat_until(cluster.driver(), owner_host, HostState::Dead, windows);

        // A query origin whose object lives on a surviving host.
        let driver = cluster.driver();
        let from = driver
            .net()
            .ids()
            .find(|&id| driver.host_of(id) != Some(owner_host))
            .expect("a surviving object exists");
        let OpOutcome::KvFetched {
            value,
            owner: got_owner,
            degraded,
            ..
        } = driver.kv_get(from, key).unwrap()
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
        let dead = driver
            .net()
            .ids()
            .find(|&id| driver.host_of(id) == Some(owner_host))
            .expect("the dead host serves at least one object");
        let target = driver.net().coords(from).unwrap();
        let t0 = cluster.now();
        let err = cluster.driver().route_from(dead, target).unwrap_err();
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
        let driver = cluster.driver();
        let OpOutcome::KvFetched {
            value, degraded, ..
        } = driver.kv_get(nth(driver, 3), key).unwrap()
        else {
            panic!("post-revival get must resolve")
        };
        assert_eq!(value, Some(91));
        assert!(!degraded, "the healthy path must resume after revival");
        assert!(cluster.driver().cluster_stats().revivals >= 1);
    }

    /// Placement puts most of an owner's Voronoi neighbours (its replica
    /// set) on its own host, so an entry's copies go to other hosts: with
    /// any one host of a 2 000-object build dead, every acked key still
    /// reads its value — degraded for the keys the dead host owned.
    #[test]
    fn every_acked_write_survives_each_single_host_crash() {
        let n = 2_000;
        let (mut cluster, ctl) = faulty_sized(n, 2007, LinkFaults::default());
        for p in PointGenerator::new(Distribution::Uniform, 2007).take_points(n) {
            cluster.driver().insert(p).unwrap();
        }
        let value = |key: u64| key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let keys = 0..300u64;
        let driver = cluster.driver();
        for key in keys.clone() {
            let from = nth(driver, (key as usize * 7) % n);
            let put = driver.kv_put(from, key, value(key)).unwrap();
            assert!(matches!(put, OpOutcome::KvStored { .. }), "{put:?}");
        }
        let windows = Liveness::tight().dead_after + 2;
        for dead in 1..=3 {
            ctl.crash(dead);
            heartbeat_until(cluster.driver(), dead, HostState::Dead, windows);
            let driver = cluster.driver();
            let from = driver
                .net()
                .ids()
                .find(|&id| driver.host_of(id) != Some(dead))
                .expect("a surviving object exists");
            let mut degraded_reads = 0;
            for key in keys.clone() {
                let got = driver.kv_get(from, key).unwrap();
                let OpOutcome::KvFetched {
                    value: Some(got),
                    owner,
                    degraded,
                    ..
                } = got
                else {
                    panic!("host {dead} dead: key {key} read {got:?}")
                };
                assert_eq!(got, value(key), "host {dead} dead: key {key}");
                let owned_there = driver.host_of(ObjectId(owner)) == Some(dead);
                assert_eq!(degraded, owned_there, "host {dead} dead: key {key}");
                degraded_reads += usize::from(degraded);
            }
            assert!(degraded_reads > 50, "host {dead}: {degraded_reads}");
            ctl.restart(dead);
            heartbeat_until(cluster.driver(), dead, HostState::Alive, 2);
        }
        assert_eq!(cluster.driver().cluster_stats().fail_fast, 0);
    }

    /// An owner whose Voronoi neighbours all share its host keeps one copy
    /// elsewhere, on the object of another host fewest Delaunay hops away,
    /// then least `(distance², id)`: checked against a breadth-first pass
    /// over the whole overlay for every fifth such owner of a 2 000-object
    /// build.  Compact shares make these owners most owners, and put some
    /// of them ten rings from the nearest border.
    #[test]
    fn an_inland_owner_copies_to_the_nearest_object_elsewhere() {
        let (mut cluster, _) = built(Distribution::Uniform, 2_000);
        let driver = cluster.driver();
        let net = driver.net();
        let neighbours = |id: ObjectId| net.view_ref(id).unwrap().voronoi_neighbours();
        let inland: Vec<ObjectId> = net
            .ids()
            .filter(|&id| neighbours(id).all(|nb| driver.host(nb.0) == driver.host(id.0)))
            .collect();
        let mut deepest = 0;
        for &owner in inland.iter().step_by(5) {
            let mut hops = std::collections::HashMap::from([(owner, 0u32)]);
            let mut queue = std::collections::VecDeque::from([owner]);
            while let Some(at) = queue.pop_front() {
                let next = hops[&at] + 1;
                for nb in neighbours(at) {
                    hops.entry(nb).or_insert_with(|| {
                        queue.push_back(nb);
                        next
                    });
                }
            }
            let centre = net.coords(owner).unwrap();
            let (depth, _, nearest) = hops
                .iter()
                .filter(|&(&id, _)| driver.host(id.0) != driver.host(owner.0))
                .map(|(&id, &h)| (h, net.coords(id).unwrap().distance2(centre), id))
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .expect("another host holds objects");
            assert_eq!(driver.copies_of(owner), vec![nearest.0], "owner {owner:?}");
            deepest = deepest.max(depth);
        }
        let owners = inland.len();
        println!("{owners} inland owners, copies up to {deepest} hops away");
        assert_eq!((owners, deepest), (1_660, 10));
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
            driver
                .kv_put(nth(driver, key as usize), key, key * 7)
                .unwrap();
        }
        for i in 0..30usize {
            let key = (i % 8) as u64;
            let got = driver.kv_get(nth(driver, i), key).unwrap();
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
