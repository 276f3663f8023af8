//! Region publish fan-out over a pre-built overlay: resolution rides the
//! area flood, so cost scales with the region's cell footprint.
//!
//! A quarter of the population subscribes with small random regions,
//! then publishes sweep three region sides — small (cell-sized), medium
//! and large — printing ns/publish and the realised delivery fan-out.
//! Smoke mode (`VORONET_SMOKE=1`, CI) shrinks the overlay.  The KV half
//! of the service plane is timed by `benchmark/` (`services.kv_put_us`,
//! `services.kv_get_us`, the `cluster_kv_2k` workload), not here.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use voronet_api::{OpResult, Overlay, ServiceOp, ServiceResult, SyncEngine};
use voronet_core::experiments::build_overlay;
use voronet_core::VoroNetConfig;
use voronet_geom::{Point2, Rect};
use voronet_services::ServiceEngine;
use voronet_workloads::{smoke_budget, Distribution};

const SEED: u64 = 2007;
const REGION_SIDES: [f64; 3] = [0.05, 0.2, 0.5];

fn overlay_size() -> usize {
    if smoke_budget() {
        800
    } else {
        5_000
    }
}

fn publishes() -> usize {
    if smoke_budget() {
        50
    } else {
        200
    }
}

fn build_engine() -> ServiceEngine<SyncEngine> {
    let n = overlay_size();
    let cfg = VoroNetConfig::new(n).with_seed(SEED);
    let net = build_overlay(Distribution::Uniform, n, cfg).0;
    let mut engine = ServiceEngine::new(SyncEngine::from_net(net));
    // Every 4th object subscribes to a small region around a random
    // centre, so publishes have real subscriber sets to resolve.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5B);
    for i in (0..engine.len()).step_by(4) {
        let id = engine.id_at(i).expect("dense index");
        let c = Point2::new(rng.random(), rng.random());
        let half = 0.05;
        let region = Rect::new(
            Point2::new((c.x - half).max(0.0), (c.y - half).max(0.0)),
            Point2::new((c.x + half).min(1.0), (c.y + half).min(1.0)),
        );
        engine.exec_service(ServiceOp::Subscribe { id, region });
    }
    engine
}

/// Times `publishes()` randomly-centred publishes of side `side`;
/// returns (ns per publish, mean delivered fan-out, mean flood visited).
fn run_publishes(engine: &mut ServiceEngine<SyncEngine>, side: f64) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(SEED ^ side.to_bits());
    let count = publishes();
    let mut delivered = 0u64;
    let mut visited = 0u64;
    let start = Instant::now();
    for p in 0..count {
        let from = engine.id_at(p % engine.len()).expect("dense index");
        let c = Point2::new(rng.random(), rng.random());
        let half = side / 2.0;
        let region = Rect::new(
            Point2::new((c.x - half).max(0.0), (c.y - half).max(0.0)),
            Point2::new((c.x + half).min(1.0), (c.y + half).min(1.0)),
        );
        match engine.exec_service(ServiceOp::Publish {
            from,
            region,
            payload: p as u64,
        }) {
            OpResult::Service(ServiceResult::Published(out)) => {
                delivered += out.delivered.len() as u64;
                visited += out.visited as u64;
            }
            other => panic!("publish failed: {other:?}"),
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / count as f64;
    (
        ns,
        delivered as f64 / count as f64,
        visited as f64 / count as f64,
    )
}

fn services_ops(c: &mut Criterion) {
    let mut engine = build_engine();

    let mut group = c.benchmark_group("services_ops");
    group.sample_size(10);

    for &side in &REGION_SIDES {
        let (ns, fanout, visited) = run_publishes(&mut engine, side);
        println!(
            "services_ops publish side {side}: {ns:.0} ns/publish, fan-out {fanout:.1}, \
             flood visited {visited:.1}"
        );
    }

    group.bench_function(BenchmarkId::new("publish", "side_0.2"), |b| {
        b.iter(|| black_box(run_publishes(&mut engine, 0.2).0));
    });
    group.finish();
}

criterion_group!(benches, services_ops);

fn main() {
    benches();
}
