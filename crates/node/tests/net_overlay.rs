//! Multi-process conformance: a live overlay of `voronet-node` host
//! processes over real loopback sockets, driven op-by-op against the
//! single-process oracle.
//!
//! Each test spawns K `voronet-node host` child processes (the binary
//! under test, via `CARGO_BIN_EXE_voronet-node`), joins them as the
//! driver over UDP or TCP, builds a ~100-object overlay, replays a mixed
//! churn + Zipf-skewed workload, and asserts every outcome — assigned
//! ids, route owners and hop counts, query match sets and flood
//! footprints — equals what the in-memory `VoroNet` produces for the
//! same script.  `VORONET_SMOKE=1` (the CI budget) sizes the overlay
//! down.
//!
//! Loopback UDP can drop under buffer pressure and children take a
//! moment to bind; both are absorbed by the cluster's ack/retry
//! machinery, and answers are deterministic functions of the
//! synchronised views, so equality holds regardless of retries.

use std::process::{Child, Command, Stdio};
use voronet_core::{queries, VoroNet, VoroNetConfig};
use voronet_net::cluster::{Driver, OpOutcome, DRIVER_PEER};
use voronet_net::tcp::TcpTransport;
use voronet_net::transport::Transport;
use voronet_net::udp::UdpTransport;
use voronet_workloads::{
    smoke_budget, Distribution, OpBatchGenerator, OpMix, PointGenerator, WorkloadOp,
};

struct Scale {
    hosts: u64,
    objects: usize,
    ops: usize,
}

fn scale() -> Scale {
    if smoke_budget() {
        Scale {
            hosts: 3,
            objects: 40,
            ops: 30,
        }
    } else {
        Scale {
            hosts: 4,
            objects: 100,
            ops: 60,
        }
    }
}

/// A distinct port range per test process and per test, clear of the
/// ephemeral range's floor.
fn base_port(offset: u16) -> u16 {
    10_000 + (std::process::id() % 20_000) as u16 + offset
}

/// Host children that are killed even when an assertion unwinds.
struct Hosts(Vec<Child>);

impl Hosts {
    fn spawn(hosts: u64, base_port: u16, transport: &str) -> Self {
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
                    transport,
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

/// The shared conformance loop: build, churn, query, compare everything.
fn conformance<T: Transport>(transport: T, hosts: u64, objects: usize, ops: usize) {
    let seed = 2007;
    let config = || VoroNetConfig::new(4096).with_seed(seed);
    let mut driver = Driver::new(transport, hosts, config());
    let mut oracle = VoroNet::new(config());

    let mut points = PointGenerator::new(Distribution::Uniform, seed);
    let mut built = 0usize;
    while built < objects {
        let p = points.next_point();
        let got = driver.insert(p).expect("cluster insert");
        let expected = oracle.insert(p).ok().map(|r| r.id.0);
        assert_eq!(got, expected, "insert at {p:?}");
        if got.is_some() {
            built += 1;
        }
    }
    assert_eq!(driver.population(), oracle.len());

    let mut generator = OpBatchGenerator::new(Distribution::Uniform, seed, OpMix::churn_zipf())
        .with_zipf_destinations(1.0);
    for (i, op) in generator.batch(oracle.len(), ops).iter().enumerate() {
        let got = driver.apply(op).expect("cluster op");
        let expected = match *op {
            WorkloadOp::Insert { position } => {
                OpOutcome::Inserted(oracle.insert(position).ok().map(|r| r.id.0))
            }
            WorkloadOp::Remove { index } => {
                let id = oracle.id_at(index % oracle.len()).unwrap();
                OpOutcome::Removed(oracle.remove(id).ok().map(|_| id.0))
            }
            WorkloadOp::Route { from, to } => {
                let n = oracle.len();
                let a = oracle.id_at(from % n).unwrap();
                let b = oracle.id_at(to % n).unwrap();
                let report = oracle.route_between(a, b).unwrap();
                OpOutcome::Route {
                    owner: report.owner.0,
                    hops: report.hops,
                }
            }
            WorkloadOp::Range { from, query } => {
                let a = oracle.id_at(from % oracle.len()).unwrap();
                let report = queries::range_query(&mut oracle, a, query).unwrap();
                OpOutcome::Matches {
                    matches: report.matches.iter().map(|m| m.0).collect(),
                    hops: report.routing_hops,
                    visited: report.visited as u32,
                }
            }
            WorkloadOp::Radius { from, query } => {
                let a = oracle.id_at(from % oracle.len()).unwrap();
                let report = queries::radius_query(&mut oracle, a, query).unwrap();
                OpOutcome::Matches {
                    matches: report.matches.iter().map(|m| m.0).collect(),
                    hops: report.routing_hops,
                    visited: report.visited as u32,
                }
            }
            WorkloadOp::Snapshot { .. } => OpOutcome::Skipped,
            // churn_zipf emits no service ops; the service conformance
            // path lives in tests/net_services.rs.
            WorkloadOp::Subscribe { .. }
            | WorkloadOp::Unsubscribe { .. }
            | WorkloadOp::Publish { .. }
            | WorkloadOp::KvPut { .. }
            | WorkloadOp::KvGet { .. }
            | WorkloadOp::KvDelete { .. } => {
                unreachable!("churn_zipf generates no service ops")
            }
        };
        assert_eq!(got, expected, "op {i}: {op:?}");
    }

    let reports = driver.collect_stats().expect("host stats");
    assert_eq!(reports.len() as u64, hosts);
    assert!(
        reports.iter().any(|r| r.ops_served > 0),
        "the workload must exercise the hosts: {reports:?}"
    );
    driver.shutdown_hosts().expect("shutdown");
}

#[test]
fn multi_process_udp_overlay_matches_the_oracle() {
    let s = scale();
    let port = base_port(0);
    let hosts = Hosts::spawn(s.hosts, port, "udp");
    let mut t = UdpTransport::bind(DRIVER_PEER, &format!("127.0.0.1:{port}")).expect("bind driver");
    for peer in 1..=s.hosts {
        t.register(peer, &format!("127.0.0.1:{}", port as u64 + peer))
            .unwrap();
    }
    conformance(t, s.hosts, s.objects, s.ops);
    hosts.reap();
}

#[test]
fn multi_process_tcp_overlay_matches_the_oracle() {
    // A smaller overlay: this variant pins stream framing and reconnect
    // plumbing end-to-end, not scale (UDP above covers that).
    let (hosts_n, objects, ops) = (2, 24, 16);
    let port = base_port(64);
    let hosts = Hosts::spawn(hosts_n, port, "tcp");
    let mut t = TcpTransport::bind(DRIVER_PEER, &format!("127.0.0.1:{port}")).expect("bind driver");
    for peer in 1..=hosts_n {
        t.register(peer, &format!("127.0.0.1:{}", port as u64 + peer))
            .unwrap();
    }
    conformance(t, hosts_n, objects, ops);
    hosts.reap();
}
