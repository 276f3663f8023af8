//! The routing hot path over a pre-built 10,000-node overlay: greedy
//! (`route_to_point_in` over a reused scratch plus `apply_traffic`, the
//! allocation-free counted form) and Algorithm 5 (`algorithm5_route`),
//! measuring pure per-route cost with no overlay construction in the timed
//! region.
//!
//! Besides the Criterion console output, the bench records its measurements
//! to `BENCH_routes.json` at the workspace root so successive runs can be
//! diffed.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use voronet_core::experiments::build_overlay;
use voronet_core::{algorithm5_route, ObjectId, RouteScratch, VoroNet, VoroNetConfig};
use voronet_geom::Point2;
use voronet_workloads::Distribution;

const OVERLAY_SIZE: usize = 10_000;
const PAIRS: usize = 256;

fn build() -> (VoroNet, Vec<ObjectId>) {
    let cfg = VoroNetConfig::new(OVERLAY_SIZE).with_seed(2006);
    build_overlay(Distribution::Uniform, OVERLAY_SIZE, cfg)
}

fn sample_pairs(ids: &[ObjectId], n: usize, seed: u64) -> Vec<(ObjectId, ObjectId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let a = ids[rng.random_range(0..ids.len())];
        let b = ids[rng.random_range(0..ids.len())];
        if a != b {
            pairs.push((a, b));
        }
    }
    pairs
}

/// One counted greedy route over a reused scratch: the `&self` walk, then
/// its message accounting applied to the overlay's counters.
fn counted_route(
    net: &mut VoroNet,
    from: ObjectId,
    target: Point2,
    scratch: &mut RouteScratch,
) -> (ObjectId, u32) {
    let routed = net
        .route_to_point_in(from, target, scratch)
        .expect("route between live objects");
    net.apply_traffic(&scratch.delta);
    scratch.delta.clear();
    routed
}

fn route_hot_path(c: &mut Criterion) {
    let (mut net, ids) = build();
    let pairs = sample_pairs(&ids, PAIRS, 42);
    let mut group = c.benchmark_group("route_hot_path");
    group.sample_size(10);

    // Greedy walk through the caller-scratch path: after the first route the
    // buffers have warmed up and every hop is a borrowed-view scan — no heap
    // allocation in the loop.
    let mut scratch = RouteScratch::new();
    group.bench_function(BenchmarkId::new("greedy_into", OVERLAY_SIZE), |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (a, t) = pairs[i % pairs.len()];
            i += 1;
            let target = net.coords(t).expect("pair endpoints are live");
            black_box(counted_route(&mut net, a, target, &mut scratch))
        });
    });

    group.bench_function(BenchmarkId::new("algorithm5", OVERLAY_SIZE), |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (a, t) = pairs[i % pairs.len()];
            i += 1;
            let target = net.coords(t).expect("pair endpoints are live");
            black_box(algorithm5_route(&net, a, target).expect("route between live objects"))
        });
    });

    group.finish();

    record_json(&mut net, &pairs);
}

/// The `q`-quantile of a set of per-route samples (nearest-rank on the
/// sorted copy, like `voronet_stats`' summaries).
fn quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank]
}

/// One timed pass per mode — each route timed individually so the tail
/// (p99) is visible, not just the mean — recorded as the `route_hot_path`
/// section of `BENCH_routes.json` (other benches own the other sections)
/// so routing regressions are diffable without parsing console output.
fn record_json(net: &mut VoroNet, pairs: &[(ObjectId, ObjectId)]) {
    let mut scratch = RouteScratch::new();
    // Warm-up (buffers + branch predictors), then measure.
    for &(a, t) in pairs {
        let target = net.coords(t).expect("live");
        counted_route(net, a, target, &mut scratch);
    }

    let mut greedy_ns_samples = Vec::with_capacity(pairs.len());
    let mut greedy_hop_samples = Vec::with_capacity(pairs.len());
    for &(a, t) in pairs {
        let target = net.coords(t).expect("live");
        let start = Instant::now();
        let (_, hops) = counted_route(net, a, target, &mut scratch);
        greedy_ns_samples.push(start.elapsed().as_nanos() as u64);
        greedy_hop_samples.push(hops as u64);
    }
    let greedy_ns = greedy_ns_samples.iter().sum::<u64>() as f64 / pairs.len() as f64;
    let greedy_hops: u64 = greedy_hop_samples.iter().sum();

    let start = Instant::now();
    let mut alg5_hops = 0u64;
    for &(a, t) in pairs {
        let target = net.coords(t).expect("live");
        alg5_hops += algorithm5_route(net, a, target)
            .expect("route")
            .forwarding_hops as u64;
    }
    let alg5_ns = start.elapsed().as_nanos() as f64 / pairs.len() as f64;

    let section = format!(
        "{{ \"overlay_size\": {}, \"pairs\": {}, \"greedy_into\": {{ \"mean_ns_per_route\": {:.1}, \"p50_ns_per_route\": {}, \"p99_ns_per_route\": {}, \"mean_hops\": {:.2}, \"p50_hops\": {}, \"p99_hops\": {} }}, \"algorithm5\": {{ \"mean_ns_per_route\": {:.1}, \"mean_forwarding_hops\": {:.2} }} }}",
        OVERLAY_SIZE,
        pairs.len(),
        greedy_ns,
        quantile(&mut greedy_ns_samples, 0.5),
        quantile(&mut greedy_ns_samples, 0.99),
        greedy_hops as f64 / pairs.len() as f64,
        quantile(&mut greedy_hop_samples, 0.5),
        quantile(&mut greedy_hop_samples, 0.99),
        alg5_ns,
        alg5_hops as f64 / pairs.len() as f64,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routes.json");
    match voronet_bench::record::update_json_section(
        std::path::Path::new(out),
        "route_hot_path",
        &section,
    ) {
        Err(e) => eprintln!("could not write {out}: {e}"),
        Ok(()) => println!("recorded route_hot_path results to {out}"),
    }
}

criterion_group!(benches, route_hot_path);

fn main() {
    benches();
}
