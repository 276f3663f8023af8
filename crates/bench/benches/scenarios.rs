//! Heavy-traffic scenario suite: production-shaped traffic replayed
//! against three engines, with the full latency tail recorded.
//!
//! Each [`ScenarioKind`] (Zipf-skewed hotspots, a regional flash crowd,
//! correlated mass churn, an adversarial near-degenerate geometry
//! stream) is scripted once per seed and replayed against:
//!
//! - **sync** — the live greedy walk over the mutable overlay
//!   (`VoroNet::route_between_in`);
//! - **frozen** — an epoch-refreshed `FrozenView`
//!   (`FrozenView::route_between_in`, refreshed on writes so routes pay
//!   only the frozen walk);
//! - **cluster** — the driver + hosts deployment on `InlineCluster`
//!   (one thread, the vnet hub's virtual clock), routes pipelined
//!   through `Driver::route_indices_pipelined`, plus one lossy-link run
//!   of the hotspot scenario.
//!
//! Per engine and scenario the route latency p50/p99 (wall-clock µs in
//! process, virtual µs on the cluster — the time its timers waited), the
//! hop median and — for the cluster — retry/fast-resend/degraded-read
//! counters are printed, and the SLOs are *asserted* at every size:
//! bounded p99/p50 tail ratios and absolute sanity ceilings.  Smoke mode
//! (`VORONET_SMOKE=1`, the CI `scenario-smoke` gate) shrinks the sizes.
//! Nothing is written into the tree: committed timings live in
//! `benchmark/` alone (`BENCHMARK.json`).

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;
use voronet_core::{FrozenView, RouteScratch, VoroNet, VoroNetConfig};
use voronet_net::{
    ClusterStats, FaultCtl, FaultTransport, InlineCluster, LinkFaults, Liveness, RetryPolicy,
    VnetHub, VnetTransport,
};
use voronet_sim::NetworkModel;
use voronet_stats::{tail_summary, TailSummary};
use voronet_workloads::{smoke_budget, Scenario, ScenarioKind, ScenarioSpec, WorkloadOp};

const SEED: u64 = 0x5CE7A;
const HOSTS: u64 = 3;
const PIPELINE_WINDOW: usize = 8;

fn population() -> usize {
    if smoke_budget() {
        48
    } else {
        256
    }
}

fn ops() -> usize {
    if smoke_budget() {
        64
    } else {
        400
    }
}

fn cluster_population() -> usize {
    if smoke_budget() {
        24
    } else {
        64
    }
}

fn cluster_ops() -> usize {
    if smoke_budget() {
        40
    } else {
        120
    }
}

/// One engine's replay of one scenario: the route latency tail, the hop
/// tail and (for the cluster) the driver's resilience counters.
struct EngineRun {
    engine: &'static str,
    latency_us: TailSummary,
    hops: TailSummary,
    routes_ok: usize,
    routes_lost: usize,
    counters: Option<ClusterStats>,
}

fn summarize(
    engine: &'static str,
    lat_us: Vec<f64>,
    hops: Vec<f64>,
    lost: usize,
    counters: Option<ClusterStats>,
) -> EngineRun {
    let routes_ok = lat_us.len();
    assert!(routes_ok > 0, "{engine}: no route completed");
    EngineRun {
        engine,
        latency_us: tail_summary(&lat_us).expect("non-empty latencies"),
        hops: tail_summary(&hops).expect("non-empty hops"),
        routes_ok,
        routes_lost: lost,
        counters,
    }
}

/// Replays the scenario in process: against the live synchronous walk,
/// or (`frozen`) against an epoch-refreshed `FrozenView`, where writes
/// mutate the live overlay and the next route refreshes the view (the
/// epoch discipline), so routes pay only the frozen walk.
fn run_in_process(sc: &Scenario, frozen: bool) -> EngineRun {
    let mut net = VoroNet::new(VoroNetConfig::new(512).with_seed(SEED));
    for &p in &sc.setup {
        let _ = net.insert(p);
    }
    let mut view = frozen.then(|| FrozenView::new(&net));
    let mut dirty = false;
    let mut scratch = RouteScratch::default();
    let (mut lat, mut hops) = (Vec::new(), Vec::new());
    for op in sc.phases.iter().flat_map(|p| &p.ops) {
        match *op {
            WorkloadOp::Insert { position } => {
                let _ = net.insert(position);
                dirty = true;
            }
            WorkloadOp::Remove { index } => {
                if let Some(id) = net.id_at(index % net.len()) {
                    let _ = net.remove(id);
                    dirty = true;
                }
            }
            WorkloadOp::Route { from, to } => {
                if let (Some(view), true) = (view.as_mut(), dirty) {
                    view.refresh(&net);
                    dirty = false;
                }
                let n = net.len();
                let a = net.id_at(from % n).expect("index below len");
                let b = net.id_at(to % n).expect("index below len");
                let t0 = Instant::now();
                let routed = match &view {
                    Some(view) => view.route_between_in(a, b, &mut scratch),
                    None => net.route_between_in(a, b, &mut scratch),
                };
                if let Ok((_, h)) = routed {
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    hops.push(h as f64);
                }
            }
            _ => {}
        }
    }
    let engine = if frozen { "frozen" } else { "sync" };
    summarize(engine, lat, hops, 0, None)
}

/// Replays the scenario against the in-process cluster.  Consecutive
/// routes travel as one pipelined batch so a single slow operation
/// cannot head-of-line-block the stream — exactly the production shape
/// the suite is meant to measure.  Latencies are virtual: what the
/// cluster's timers waited, zero for a route nothing delayed.
fn run_cluster(sc: &Scenario, engine: &'static str, link: LinkFaults) -> EngineRun {
    let hub = VnetHub::new(NetworkModel::ideal());
    let ctl = FaultCtl::new(link);
    let seed = SEED ^ engine.len() as u64;
    let config = VoroNetConfig::new(512).with_seed(SEED);
    let mut cluster = InlineCluster::start_with(HOSTS, config, |peer| {
        FaultTransport::new(hub.endpoint(peer), ctl.clone(), seed)
    });
    cluster.driver().set_retry_policy(RetryPolicy::tight());
    cluster.driver().set_liveness(Liveness::tight());
    for &p in &sc.setup {
        cluster.driver().insert(p).expect("setup insert");
    }
    let (mut lat, mut hops) = (Vec::new(), Vec::new());
    let mut lost = 0usize;
    let mut batch: Vec<(usize, usize)> = Vec::new();
    let flush = |cluster: &mut InlineCluster<FaultTransport<VnetTransport>>,
                 batch: &mut Vec<(usize, usize)>,
                 lat: &mut Vec<f64>,
                 hops: &mut Vec<f64>,
                 lost: &mut usize| {
        if batch.is_empty() {
            return;
        }
        let results = cluster
            .driver()
            .route_indices_pipelined(batch, PIPELINE_WINDOW)
            .expect("pipelined batch");
        for r in results {
            match r.owner_hops {
                Some((_, h)) => {
                    lat.push(r.latency.as_secs_f64() * 1e6);
                    hops.push(h as f64);
                }
                None => *lost += 1,
            }
        }
        batch.clear();
    };
    for op in sc.phases.iter().flat_map(|p| &p.ops) {
        match *op {
            WorkloadOp::Route { from, to } => batch.push((from, to)),
            WorkloadOp::Insert { position } => {
                flush(&mut cluster, &mut batch, &mut lat, &mut hops, &mut lost);
                cluster.driver().insert(position).expect("insert");
            }
            WorkloadOp::Remove { index } => {
                flush(&mut cluster, &mut batch, &mut lat, &mut hops, &mut lost);
                cluster.driver().remove_index(index).expect("remove");
            }
            _ => {}
        }
    }
    flush(&mut cluster, &mut batch, &mut lat, &mut hops, &mut lost);
    let counters = cluster.driver().cluster_stats();
    summarize(engine, lat, hops, lost, Some(counters))
}

/// The SLO gates of one engine run.  Generous bounds — they exist to
/// catch order-of-magnitude pathologies (a reintroduced retry stall, a
/// quadratic walk), not micro-noise.
fn assert_slos(kind: ScenarioKind, run: &EngineRun) {
    let lat = &run.latency_us;
    let name = kind.name();
    let engine = run.engine;
    // Tail shape: the p99 may not run away from the median.  In-process
    // engines route in microseconds where timer quantisation makes
    // ratios noisy, so the ratio gate only arms above a 50µs median.
    if lat.p50 > 50.0 {
        let k = if engine == "cluster_lossy" {
            200.0
        } else {
            100.0
        };
        assert!(
            lat.p99 <= k * lat.p50,
            "{name}/{engine}: p99 {:.1}µs > {k}× p50 {:.1}µs",
            lat.p99,
            lat.p50
        );
    }
    // Absolute ceilings: a lossy cluster median in the tens of
    // milliseconds means the fast-retransmit fix regressed (pre-fix it
    // sat at ~107ms); in-process medians in the milliseconds mean the
    // walk went pathological.
    let p50_ceiling_us = match engine {
        "sync" | "frozen" => 5_000.0,
        "cluster" => 50_000.0,
        _ => 100_000.0,
    };
    assert!(
        lat.p50 <= p50_ceiling_us,
        "{name}/{engine}: route p50 {:.1}µs above the {p50_ceiling_us:.0}µs SLO",
        lat.p50
    );
    // Completeness: pipelined batches may abandon ops under injected
    // loss, but losing more than half the stream is a routing failure.
    assert!(
        run.routes_ok > run.routes_lost,
        "{name}/{engine}: lost {} of {} routes",
        run.routes_lost,
        run.routes_ok + run.routes_lost
    );
}

fn scenarios(c: &mut Criterion) {
    for kind in ScenarioKind::all() {
        let scenario = Scenario::build(&ScenarioSpec::new(kind, SEED, population(), ops()));
        let cluster_scenario = Scenario::build(&ScenarioSpec::new(
            kind,
            SEED,
            cluster_population(),
            cluster_ops(),
        ));
        let mut runs = vec![
            run_in_process(&scenario, false),
            run_in_process(&scenario, true),
            run_cluster(&cluster_scenario, "cluster", LinkFaults::default()),
        ];
        if kind == ScenarioKind::ZipfHotspot {
            // The hotspot stream doubles as the loss-resilience probe:
            // skewed destinations + 10% frame loss is where the retry
            // stall used to blow the median up by ~6600×.
            runs.push(run_cluster(
                &cluster_scenario,
                "cluster_lossy",
                LinkFaults::lossy(0.10),
            ));
        }
        for run in &runs {
            let clock = if run.counters.is_some() {
                "virtual"
            } else {
                "wall"
            };
            println!(
                "scenarios {}/{}: route p50 {:.1}us p99 {:.1}us ({clock} clock), \
                 hops p50 {:.1} ({} ok, {} lost)",
                kind.name(),
                run.engine,
                run.latency_us.p50,
                run.latency_us.p99,
                run.hops.p50,
                run.routes_ok,
                run.routes_lost,
            );
            if let Some(c) = &run.counters {
                println!(
                    "  retries {}, fast resends {}, degraded reads {}, fail-fast {}",
                    c.retries, c.fast_resends, c.degraded_reads, c.fail_fast
                );
            }
            assert_slos(kind, run);
        }
    }

    let mut group = c.benchmark_group("scenarios");
    group.sample_size(10);
    group.bench_function("zipf_hotspot_sync_pass", |b| {
        let scenario = Scenario::build(&ScenarioSpec::new(
            ScenarioKind::ZipfHotspot,
            SEED,
            cluster_population(),
            cluster_ops(),
        ));
        b.iter(|| black_box(run_in_process(&scenario, false).latency_us.p50));
    });
    group.finish();
}

criterion_group!(benches, scenarios);

fn main() {
    benches();
}
