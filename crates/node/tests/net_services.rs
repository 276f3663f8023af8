//! Multi-process geo-scoped services conformance: region pub/sub and
//! coordinate-keyed KV served by live `voronet-node` host processes
//! over real loopback UDP.
//!
//! The scenario mirrors the in-process vnet test in
//! `voronet-net/src/cluster/mod.rs` (`service_plane_pubsub_and_kv_handoff`):
//! every object subscribes to the full domain, a publication's delivered
//! set is pinned to the single-process oracle's flood matches, a KV
//! entry round-trips through the owning host, and churn — a join landing
//! exactly on the key's coordinates, then that node's departure — must
//! migrate the stored value between host processes without losing it.
//! Running it over UDP proves the service frames (`SvcKvStore`,
//! `SvcKvFetch`, `SvcKvReplicate`, ...) and their ack/resend discipline
//! survive a lossy, reordering transport, not just the deterministic
//! vnet.

use std::process::{Child, Command, Stdio};
use voronet_core::{queries, ObjectId, VoroNet, VoroNetConfig};
use voronet_geom::{Point2, Rect};
use voronet_net::cluster::{Driver, OpOutcome, DRIVER_PEER};
use voronet_net::transport::Transport;
use voronet_net::udp::UdpTransport;
use voronet_services::api::{DeleteOutcome, PublishOutcome, SubscribeOutcome};
use voronet_services::key_point;
use voronet_workloads::{Distribution, PointGenerator, RangeQuery};

/// The `index`-th live object of the driver's overlay.
fn nth<T: Transport>(driver: &Driver<T>, index: usize) -> ObjectId {
    driver.net().id_at(index % driver.population()).unwrap()
}

/// A distinct port range per test process, clear of the ephemeral
/// range's floor and of `net_overlay.rs`'s offsets (0 and 64).
fn base_port() -> u16 {
    10_000 + (std::process::id() % 20_000) as u16 + 128
}

/// Host children that are killed even when an assertion unwinds.
struct Hosts(Vec<Child>);

impl Hosts {
    fn spawn(hosts: u64, base_port: u16) -> Self {
        let mut children = Vec::new();
        for peer in 1..=hosts {
            let child = Command::new(env!("CARGO_BIN_EXE_voronet-node"))
                .args([
                    "host",
                    "--peer",
                    &peer.to_string(),
                    "--hosts",
                    &hosts.to_string(),
                    "--base-port",
                    &base_port.to_string(),
                    "--transport",
                    "udp",
                    "--stats-every",
                    "3600",
                ])
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn voronet-node host");
            children.push(child);
        }
        Hosts(children)
    }

    fn reap(mut self) {
        for child in &mut self.0 {
            let status = child.wait().expect("wait for host child");
            assert!(status.success(), "host child exited with {status}");
        }
        self.0.clear();
    }
}

impl Drop for Hosts {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn services_over_loopback_udp_survive_churn_handoff() {
    let hosts_n = 3u64;
    let port = base_port();
    let hosts = Hosts::spawn(hosts_n, port);
    let mut t = UdpTransport::bind(DRIVER_PEER, &format!("127.0.0.1:{port}")).expect("bind driver");
    for peer in 1..=hosts_n {
        t.register(peer, &format!("127.0.0.1:{}", port as u64 + peer))
            .unwrap();
    }

    let seed = 5;
    let config = || VoroNetConfig::new(512).with_seed(seed);
    let mut driver = Driver::new(t, hosts_n, config());
    let points = PointGenerator::new(Distribution::Uniform, 23).take_points(32);
    for &p in &points {
        driver.insert(p).expect("insert");
    }
    let mut oracle = VoroNet::new(config());
    for &p in &points {
        let _ = oracle.insert(p);
    }
    let n = driver.population();
    assert_eq!(n, oracle.len());

    // Everyone subscribes to the full domain: a publication's delivered
    // set must equal the oracle's flood match set, the rest are missed.
    let domain = Rect::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
    for i in 0..n {
        let outcome = driver
            .subscribe(nth(&driver, i), domain)
            .expect("subscribe");
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
    }) = driver.publish(nth(&driver, 0), region).expect("publish")
    else {
        panic!("publish on a populated overlay must resolve")
    };
    assert_eq!(seq, 1);
    let from = oracle.id_at(0).unwrap();
    let expected = queries::range_query(&mut oracle, from, RangeQuery { rect: region }).unwrap();
    assert_eq!(
        delivered, expected.matches,
        "delivered set must match the oracle flood"
    );
    assert_eq!(
        delivered.len() + missed.len(),
        n,
        "every full-domain subscriber is either delivered or missed"
    );

    // KV round-trip through the owning host process.
    let key = 0xC0FFEEu64;
    let OpOutcome::KvStored {
        owner,
        replaced: false,
        ..
    } = driver.kv_put(nth(&driver, 3), key, 41).expect("kv_put")
    else {
        panic!("kv_put must store")
    };
    let OpOutcome::KvFetched {
        value,
        owner: fetched_owner,
        ..
    } = driver.kv_get(nth(&driver, 7), key).expect("kv_get")
    else {
        panic!("kv_get must resolve")
    };
    assert_eq!(value, Some(41));
    assert_eq!(fetched_owner, owner);

    // Churn-driven handoff: a join landing exactly on the key's
    // coordinates takes over the owning cell, and the stored entry must
    // follow it — physically migrating to the new owner's host process.
    let kp = key_point(key, driver.net().config().domain);
    let new_id = driver.insert(kp).expect("insert").expect("fresh position");
    let OpOutcome::KvFetched { value, owner, .. } =
        driver.kv_get(nth(&driver, 9), key).expect("kv_get")
    else {
        panic!("kv_get must resolve")
    };
    assert_eq!(owner, new_id, "the on-key node must own the entry");
    assert_eq!(value, Some(41), "the value must survive the handoff");

    // Removing the new owner hands the entry back to a survivor.
    let left = driver.leave(ObjectId(new_id)).expect("remove");
    assert!(left.is_ok() && !driver.net().contains(ObjectId(new_id)));
    let OpOutcome::KvFetched { value, owner, .. } =
        driver.kv_get(nth(&driver, 2), key).expect("kv_get")
    else {
        panic!("kv_get must resolve")
    };
    assert_ne!(owner, new_id);
    assert_eq!(value, Some(41), "the value must survive the second handoff");

    // Delete, then the key reads back absent.
    let OpOutcome::KvDropped(DeleteOutcome { existed: true, .. }) =
        driver.kv_delete(nth(&driver, 5), key).expect("kv_delete")
    else {
        panic!("delete must drop the entry")
    };
    let OpOutcome::KvFetched { value: None, .. } =
        driver.kv_get(nth(&driver, 6), key).expect("kv_get")
    else {
        panic!("deleted key must read back as absent")
    };

    let reports = driver.collect_stats().expect("host stats");
    assert!(
        reports.iter().any(|r| r.ops_served > 0),
        "service traffic must reach the hosts: {reports:?}"
    );
    driver.shutdown_hosts().expect("shutdown");
    hosts.reap();
}
