//! Mixed read/write traffic over the epoch-patched frozen read path:
//! `OpMix::mixed` batches (99:1, 95:5, 80:20 read/write) on a pre-built
//! 10,000-node overlay, submitted through `SyncEngine::apply_batch`.
//!
//! This is the measurement behind the tentpole claim of the epoch work:
//! the ~5× frozen read path only pays off under sustained read traffic
//! if interleaved writers don't force a full snapshot rebuild at every
//! barrier.  The bench records ns/op per mix as the `mixed_ops` section
//! of `BENCH_routes.json`, together with the snapshot economics
//! (patches / rebuilds / patched rows), and **asserts** that the batched
//! results equal one-op-at-a-time application over the live overlay and
//! that delta patches, not rebuilds, kept the view current.
//!
//! Smoke mode (`VORONET_SMOKE=1`, used by CI) shrinks the overlay and
//! the batches so the bench finishes in seconds, keeps the determinism
//! assertions, and skips the JSON record.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use voronet_api::{resolve_workload, Op, OpResult, Overlay, SyncEngine};
use voronet_core::experiments::build_overlay;
use voronet_core::{SnapshotStats, VoroNet, VoroNetConfig};
use voronet_workloads::{Distribution, OpBatchGenerator, OpMix};

const SEED: u64 = 2007;
const READ_PCTS: [u32; 3] = [99, 95, 80];

fn smoke() -> bool {
    std::env::var_os("VORONET_SMOKE").is_some_and(|v| v != "0")
}

fn overlay_size() -> usize {
    if smoke() {
        1_500
    } else {
        10_000
    }
}

fn batch_size() -> usize {
    if smoke() {
        256
    } else {
        1_024
    }
}

fn batch_count() -> usize {
    if smoke() {
        3
    } else {
        6
    }
}

fn build_net() -> VoroNet {
    let n = overlay_size();
    let cfg = VoroNetConfig::new(n).with_seed(SEED);
    build_overlay(Distribution::Uniform, n, cfg).0
}

/// Pre-resolves the whole mixed script against an untimed scratch replay
/// of the same overlay, so every replay executes identical id-named
/// batches (the scratch engine evolves exactly as the timed one will).
fn scripts_for(net: &VoroNet, read_pct: u32) -> Vec<Vec<Op>> {
    let mut scratch = SyncEngine::from_net(net.clone());
    let mut gen = OpBatchGenerator::new(
        Distribution::Uniform,
        SEED ^ u64::from(read_pct),
        OpMix::mixed(read_pct),
    )
    .with_zipf_destinations(0.9);
    (0..batch_count())
        .map(|_| {
            let ops = resolve_workload(&scratch, &gen.batch(scratch.len(), batch_size()));
            scratch.apply_batch(&ops);
            ops
        })
        .collect()
}

/// Replays the full batch sequence on a fresh engine; returns (ns/op,
/// all results in order, snapshot economics).
fn run_batched(net: &VoroNet, scripts: &[Vec<Op>]) -> (f64, Vec<OpResult>, SnapshotStats) {
    let mut engine = SyncEngine::from_net(net.clone()).with_threads(4);
    let total: usize = scripts.iter().map(Vec::len).sum();
    let mut results = Vec::with_capacity(total);
    let start = Instant::now();
    for ops in scripts {
        results.extend(engine.apply_batch(ops));
    }
    let ns = start.elapsed().as_nanos() as f64 / total as f64;
    (ns, results, engine.snapshot_stats())
}

/// The untimed reference: the same ops one at a time over the live
/// overlay, never freezing a view.
fn run_per_op(net: &VoroNet, scripts: &[Vec<Op>]) -> Vec<OpResult> {
    let mut engine = SyncEngine::from_net(net.clone());
    scripts
        .iter()
        .flatten()
        .map(|op| engine.apply(op))
        .collect()
}

fn mixed_ops(c: &mut Criterion) {
    let net = build_net();

    let mut group = c.benchmark_group("mixed_ops");
    group.sample_size(10);
    let mut sections = Vec::new();
    for &pct in &READ_PCTS {
        let scripts = scripts_for(&net, pct);
        let (ns, results, snap) = run_batched(&net, &scripts);
        assert_eq!(
            results,
            run_per_op(&net, &scripts),
            "{pct}:{} mix: batched and per-op application must produce identical results",
            100 - pct
        );
        assert!(
            snap.delta_patches > 0,
            "{pct}:{} mix: the engine never took the patch path: {snap}",
            100 - pct
        );
        assert!(
            snap.full_rebuilds < snap.delta_patches,
            "{pct}:{} mix: patches must dominate rebuilds: {snap}",
            100 - pct
        );
        println!("mixed_ops {pct}:{}: {ns:.0} ns/op ({snap})", 100 - pct);
        sections.push(format!(
            "\"{pct}\": {{ \"ns_per_op\": {ns:.1}, \
             \"delta_patches\": {}, \"patched_nodes\": {}, \"full_rebuilds\": {}, \
             \"views_reused\": {} }}",
            snap.delta_patches, snap.patched_nodes, snap.full_rebuilds, snap.reused
        ));

        // Criterion timing for the 95:5 headline mix only (each sample
        // replays the whole sequence from a fresh engine clone, so the
        // mutation script stays applicable).
        if pct == 95 {
            group.bench_function(BenchmarkId::new("replay_95_5", "batched"), |b| {
                b.iter(|| black_box(run_batched(&net, &scripts).0));
            });
        }
    }
    group.finish();

    if smoke() {
        println!("smoke mode: determinism asserted, JSON record skipped");
        return;
    }
    let section = format!(
        "{{ \"overlay_size\": {}, \"batch\": {}, \"batches\": {}, \"threads\": 4, \
         \"mixes\": {{ {} }}, \"results_identical\": true }}",
        overlay_size(),
        batch_size(),
        batch_count(),
        sections.join(", ")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routes.json");
    match voronet_bench::record::update_json_section(Path::new(out), "mixed_ops", &section) {
        Err(e) => eprintln!("could not write {out}: {e}"),
        Ok(()) => println!("recorded mixed_ops results to {out}"),
    }
}

criterion_group!(benches, mixed_ops);

fn main() {
    benches();
}
