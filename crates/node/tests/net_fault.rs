//! Multi-process fault tolerance over real loopback UDP: the owning
//! host *process* is killed after a KV write is acked, and the driver
//! must detect the death, serve the read degraded from a Voronoi
//! replica, and fail fast on ops that need the dead host.
//!
//! This is the in-process `crashed_owner_degrades_reads_and_failfasts_ops`
//! scenario (`voronet-net/src/cluster/mod.rs`) run against live
//! `voronet-node` children: the crash is a real SIGKILL, not a
//! transport blackhole, so the failure detector's ping windows, the
//! replica fetch frames and the `Unavailable` fail-fast path are
//! exercised over an actual lossy socket.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use voronet_core::{ObjectId, VoroNetConfig};
use voronet_net::cluster::{
    ClusterError, Driver, HostState, Liveness, OpOutcome, RetryPolicy, DRIVER_PEER,
};
use voronet_net::transport::Transport;
use voronet_net::udp::UdpTransport;
use voronet_workloads::{Distribution, PointGenerator};

/// A distinct port range per test process, clear of the ephemeral
/// range's floor and of the other node tests' offsets (0, 64, 128).
fn base_port() -> u16 {
    10_000 + (std::process::id() % 20_000) as u16 + 192
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

    /// Crash-stops one host for real: SIGKILL, no shutdown handshake.
    fn kill_host(&mut self, peer: u64) {
        let child = &mut self.0[(peer - 1) as usize];
        child.kill().expect("kill host child");
        child.wait().expect("reap killed child");
    }

    /// Reaps every child, tolerating the unclean exit of the one that
    /// was deliberately killed.
    fn reap(mut self, killed: u64) {
        for (i, child) in self.0.iter_mut().enumerate() {
            let peer = i as u64 + 1;
            let status = child.wait().expect("wait for host child");
            if peer != killed {
                assert!(status.success(), "host {peer} exited with {status}");
            }
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
fn killed_owner_process_leaves_acked_write_readable() {
    let hosts_n = 3u64;
    let port = base_port();
    let mut hosts = Hosts::spawn(hosts_n, port);
    let mut t = UdpTransport::bind(DRIVER_PEER, &format!("127.0.0.1:{port}")).expect("bind driver");
    for peer in 1..=hosts_n {
        t.register(peer, &format!("127.0.0.1:{}", port as u64 + peer))
            .unwrap();
    }

    let mut driver = Driver::new(t, hosts_n, VoroNetConfig::new(512).with_seed(12));
    driver.set_retry_policy(RetryPolicy::tight());
    driver.set_liveness(Liveness::tight());
    let points = PointGenerator::new(Distribution::Uniform, 31).take_points(32);
    for &p in &points {
        driver.insert(p).expect("insert");
    }

    // An acked write mirrored to at least two replicas.
    let key = 0xDEADu64;
    let OpOutcome::KvStored {
        owner, replicas, ..
    } = driver
        .kv_put(driver.net().id_at(1).unwrap(), key, 4096)
        .expect("kv_put")
    else {
        panic!("kv_put must store")
    };
    assert!(
        replicas >= 2,
        "a dense overlay must mirror to >= 2 replicas, got {replicas}"
    );

    // SIGKILL the owning host's process; the failure detector must
    // notice within its ping windows.
    let owner_host = driver.host_of(ObjectId(owner)).expect("a placed owner");
    hosts.kill_host(owner_host);
    let deadline = Instant::now() + Duration::from_secs(15);
    while driver.host_state(owner_host) != HostState::Dead {
        assert!(
            Instant::now() < deadline,
            "failure detector never declared the killed process dead"
        );
        driver.heartbeat().expect("heartbeat");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The acked write is still readable — degraded, from a replica on a
    // surviving process, with the correct value.
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
    } = driver.kv_get(from, key).expect("degraded kv_get")
    else {
        panic!("kv_get must resolve")
    };
    assert!(degraded, "a read with the owner dead must be degraded");
    assert_eq!(value, Some(4096), "the acked write must survive the kill");
    assert_eq!(got_owner, owner);

    // An op that can only be served by the dead process fails fast.
    let dead = driver
        .net()
        .ids()
        .find(|&id| driver.host_of(id) == Some(owner_host))
        .expect("the dead host serves at least one object");
    let target = driver.net().coords(from).unwrap();
    let t0 = Instant::now();
    let err = driver.route_from(dead, target).unwrap_err();
    assert!(matches!(err, ClusterError::Unavailable(_)), "got {err}");
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "fail-fast took {:?}",
        t0.elapsed()
    );

    let stats = driver.cluster_stats();
    assert!(stats.deaths >= 1, "death must be counted: {stats:?}");
    assert!(
        stats.degraded_reads >= 1,
        "degraded read must be counted: {stats:?}"
    );
    assert!(stats.fail_fast >= 1, "fail-fast must be counted: {stats:?}");

    driver.shutdown_hosts().expect("shutdown survivors");
    hosts.reap(owner_host);
}
