//! Operation latency under faults: p50/p99 of distributed route and KV
//! get over a 3-host `FaultyCluster` in three modes — healthy link, 10%
//! frame loss, and one host crash-stopped (reads served degraded from
//! Voronoi replicas, routes that need the dead host failing fast).
//!
//! Latencies are wall-clock per driver op, including the retry/backoff
//! machinery (`RetryPolicy::tight`), so the loss and crash columns show
//! the real cost of retransmission and of the failure detector's
//! fail-fast path, not just the happy-path frame exchange.  Results are
//! printed and the lossy-vs-healthy gate asserted; smoke mode
//! (`VORONET_SMOKE=1`, CI) shrinks the sample counts.

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};
use voronet_core::VoroNetConfig;
use voronet_net::{
    host_of, FaultyCluster, HostState, LinkFaults, Liveness, OpOutcome, RetryPolicy,
};
use voronet_stats::{tail_summary, TailSummary};
use voronet_workloads::{smoke_budget, Distribution, PointGenerator};

const SEED: u64 = 4242;
const HOSTS: u64 = 3;

fn overlay_size() -> usize {
    if smoke_budget() {
        24
    } else {
        64
    }
}

fn samples() -> usize {
    if smoke_budget() {
        40
    } else {
        200
    }
}

fn kv_keys() -> usize {
    if smoke_budget() {
        32
    } else {
        96
    }
}

/// Per-mode measurement: op latency percentiles plus the realised
/// success rate (crashed-host routes legitimately fail fast).
struct ModeResult {
    route: TailSummary,
    get: TailSummary,
    degraded_reads: u64,
}

/// Builds a populated faulty cluster, optionally crashes one host
/// (converging the failure detector first), then samples route and KV
/// get latencies from surviving-host origins.
fn run_mode(name: &'static str, link: LinkFaults, crash: bool) -> ModeResult {
    let mut cluster = FaultyCluster::start(
        HOSTS,
        VoroNetConfig::new(512).with_seed(SEED),
        link,
        SEED ^ name.len() as u64,
    );
    cluster.driver().set_retry_policy(RetryPolicy::tight());
    cluster.driver().set_liveness(Liveness::tight());
    let points =
        PointGenerator::new(Distribution::Uniform, SEED ^ 0xF0).take_points(overlay_size());
    for &p in &points {
        cluster.driver().insert(p).expect("insert");
    }
    for key in 0..kv_keys() as u64 {
        cluster
            .driver()
            .kv_put(0, key, key * 3 + 1)
            .expect("kv_put");
    }

    let crashed_host = if crash {
        // Crash the host owning object 1's cell and converge detection.
        let victim = host_of(1, HOSTS);
        cluster.ctl().crash(victim);
        let deadline = Instant::now() + Duration::from_secs(15);
        while cluster.driver().host_state(victim) != HostState::Dead {
            assert!(Instant::now() < deadline, "failure detector stalled");
            cluster.driver().heartbeat().expect("heartbeat");
            std::thread::sleep(Duration::from_millis(2));
        }
        Some(victim)
    } else {
        None
    };

    // Origins (and route targets) on surviving hosts only: the dead
    // host's fail-fast path is measured by the in-process tests; here we
    // want the latency of ops the cluster *can* serve.
    let survivors: Vec<usize> = (0..cluster.driver().population())
        .filter(|&i| {
            let id = cluster.driver().net().id_at(i).unwrap().0;
            Some(host_of(id, HOSTS)) != crashed_host
        })
        .collect();
    assert!(survivors.len() >= 2, "need surviving route endpoints");

    let mut rng = StdRng::seed_from_u64(SEED ^ 0xBE);
    let mut route_us = Vec::new();
    for _ in 0..samples() {
        let from = survivors[rng.random_range(0..survivors.len())];
        let to = survivors[rng.random_range(0..survivors.len())];
        if from == to {
            continue;
        }
        let t0 = Instant::now();
        if cluster.driver().route_indices(from, to).is_ok() {
            route_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mut get_us = Vec::new();
    for _ in 0..samples() {
        let from = survivors[rng.random_range(0..survivors.len())];
        let key = rng.random_range(0..kv_keys() as u64);
        let t0 = Instant::now();
        if let Ok(OpOutcome::KvFetched { value, .. }) = cluster.driver().kv_get(from, key) {
            get_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(value, Some(key * 3 + 1), "acked write must read back");
        }
    }

    let result = ModeResult {
        route: tail_summary(&route_us).expect("every mode must serve some routes"),
        get: tail_summary(&get_us).expect("every mode must serve some reads"),
        degraded_reads: cluster.driver().cluster_stats().degraded_reads,
    };
    cluster.ctl().heal_all();
    let _ = cluster.shutdown();
    result
}

fn fault_modes(c: &mut Criterion) {
    let modes = [
        ("healthy", LinkFaults::default(), false),
        ("loss_10pct", LinkFaults::lossy(0.10), false),
        ("one_host_crashed", LinkFaults::default(), true),
    ];
    let [healthy, lossy, _crashed] = modes.map(|(name, link, crash)| {
        let r = run_mode(name, link, crash);
        println!(
            "fault_modes {name}: route p50 {:.0}us p99 {:.0}us ({} ok), \
             kv_get p50 {:.0}us p99 {:.0}us ({} ok, {} degraded)",
            r.route.p50,
            r.route.p99,
            r.route.count,
            r.get.p50,
            r.get.p99,
            r.get.count,
            r.degraded_reads
        );
        r
    });

    // Regression gate for the retry-stall fix: before fast retransmit
    // the driver sent each request once and waited out the full jittered
    // attempt timeout, so 10% frame loss pushed the kv_get median from
    // ~16µs to ~107ms (~6600×).  With retransmit the lossy median must
    // stay within 100× of healthy (smoke runs are looser — tiny sample
    // counts make the healthy median itself noisy — and an absolute
    // low-millisecond median always passes).
    let ratio = lossy.get.p50 / healthy.get.p50;
    let max_ratio = if smoke_budget() { 400.0 } else { 100.0 };
    assert!(
        ratio <= max_ratio || lossy.get.p50 < 2_000.0,
        "lossy kv_get p50 {:.1}µs is {ratio:.0}× the healthy {:.1}µs — \
         the fast-retransmit path regressed",
        lossy.get.p50,
        healthy.get.p50
    );

    let mut group = c.benchmark_group("fault_modes");
    group.sample_size(10);
    group.bench_function("healthy_route_pass", |b| {
        b.iter(|| black_box(run_mode("healthy", LinkFaults::default(), false).route.p50));
    });
    group.finish();
}

criterion_group!(benches, fault_modes);

fn main() {
    benches();
}
