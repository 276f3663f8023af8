//! Per-layer probes: each layer's public functions timed from the outside
//! with the slot-minimum rule, on the workload's own population.
//!
//! Calls that cost well under a microsecond are timed per [`BATCH`]-call
//! slot (an `Instant` pair costs ~80 ns here); calls of several
//! microseconds are timed in slots too, so every number is a mean of slot
//! minima over the calls.  Every direct `core` routing call clears
//! `RouteScratch::delta` first: the read path appends to it, and an
//! uncleared delta grows without bound (it took the prototype from 42 MB to
//! 815 MB and timed `Vec` growth instead of the walk).

use crate::cluster;
use crate::spec::{Opts, RunOutput, BATCH, POPULATION_SEED};
use crate::sync::Scripts;
use crate::timing::{run_passes, status_mb, PassPlan, SlotMin};
use std::hint::black_box;
use voronet_api::{resolve_workload, Op, OpResult, Overlay, ServiceOp, SyncEngine};
use voronet_core::{range_query_in, ObjectId, RouteScratch, ViewRefresh, VoroNet};
use voronet_geom::{incircle, orient2d, Point2};
use voronet_net::{Transport, VnetHub, WireMsg};
use voronet_services::ServiceEngine;
use voronet_sim::NetworkModel;
use voronet_workloads::{
    Distribution, OpBatchGenerator, OpMix, PointGenerator, QueryGenerator, WorkloadOp,
};

/// Slots of [`BATCH`] calls in a micro probe.
const MICRO_SLOTS: usize = 32;
/// Route pairs shared by the walk and API probes.
const ROUTES: usize = 16 * BATCH;
/// Objects of the probe cluster on in-process workloads.
const PROBE_CLUSTER: usize = 500;

/// Runs `pass` under `plan` on a fresh accumulator of `slots` slots.
fn probe(
    plan: PassPlan,
    slots: usize,
    mut pass: impl FnMut(&mut SlotMin) -> Result<(), String>,
) -> Result<SlotMin, String> {
    let mut acc = SlotMin::new(slots);
    run_passes(plan, &mut acc, |_, s| pass(s).map(|()| 0))?;
    Ok(acc)
}

/// Mean nanoseconds per call of a probe that made `calls` calls per pass.
fn ns_per(acc: &SlotMin, calls: usize) -> f64 {
    acc.sum_ns() as f64 / calls as f64
}

/// A probe of sub-microsecond calls: `slot_body(slot)` makes [`BATCH`] calls
/// and says whether all went well; returns nanoseconds per call.
fn micro(plan: PassPlan, mut slot_body: impl FnMut(usize) -> bool) -> Result<f64, String> {
    let acc = probe(plan, MICRO_SLOTS, |s| {
        for slot in 0..MICRO_SLOTS {
            if !s.time(slot, || slot_body(slot)) {
                return Err("a micro probe's call failed".into());
            }
        }
        Ok(())
    })?;
    Ok(ns_per(&acc, MICRO_SLOTS * BATCH))
}

/// Sum of the minima of slots `range`, in nanoseconds.
fn sum_of(acc: &SlotMin, range: std::ops::Range<usize>) -> f64 {
    acc.mins()[range].iter().sum::<u64>() as f64
}

/// The `geom`, `core`, `api` and `services` numbers of one overlay.
#[derive(Debug, Clone, Default)]
pub struct Local {
    orient2d_ns: f64,
    incircle_ns: f64,
    incircle_exact_ns: f64,
    locate_ns: f64,
    tri_insert_us: f64,
    tri_remove_us: f64,
    /// `VoroNet::insert`, microseconds.
    pub insert_us: f64,
    /// `VoroNet::remove`, microseconds.
    pub remove_us: f64,
    /// `VoroNet::route_between_in` per hop.
    pub live_hop_ns: f64,
    /// `FrozenView::route_between_in` per hop.
    pub frozen_hop_ns: f64,
    freeze_ms: f64,
    /// `FrozenView::refresh` after one write, microseconds.
    pub refresh_us: f64,
    refresh_rows: f64,
    range_us: f64,
    range_visit_ratio: f64,
    /// Resident bytes the build added per object; set by the caller, which
    /// saw the build.
    pub bytes_per_object: f64,
    /// `apply_batch` per op minus the bare frozen walk per op, in batches
    /// as long as the workload's own read runs.
    pub batch_self_us: f64,
    /// `Overlay::route_between` minus the bare live walk.
    pub single_self_ns: f64,
    resolve_ns: f64,
    views: (f64, f64, f64),
    kv_put_us: f64,
    kv_get_us: f64,
}

impl Local {
    /// Appends the `geom.*`, `core.*`, `api.*` and `services.*` metrics.
    pub fn report(&self, out: &mut RunOutput) {
        out.layer("geom.orient2d_ns", self.orient2d_ns);
        out.layer("geom.incircle_ns", self.incircle_ns);
        out.layer("geom.incircle_exact_ns", self.incircle_exact_ns);
        out.layer("geom.locate_ns", self.locate_ns);
        out.layer("geom.tri_insert_us", self.tri_insert_us);
        out.layer("geom.tri_remove_us", self.tri_remove_us);
        out.layer("core.insert_us", self.insert_us);
        out.layer("core.remove_us", self.remove_us);
        out.layer("core.maint_self_us", self.insert_us - self.tri_insert_us);
        out.layer("core.live_hop_ns", self.live_hop_ns);
        out.layer("core.frozen_hop_ns", self.frozen_hop_ns);
        out.layer("core.freeze_ms", self.freeze_ms);
        out.layer("core.refresh_us", self.refresh_us);
        out.layer("core.refresh_rows", self.refresh_rows);
        out.layer("core.range_us", self.range_us);
        out.layer("core.range_visit_ratio", self.range_visit_ratio);
        out.layer("core.bytes_per_object", self.bytes_per_object);
        out.layer("api.batch_self_us", self.batch_self_us);
        out.layer("api.single_self_ns", self.single_self_ns);
        out.layer("api.resolve_ns", self.resolve_ns);
        out.layer("api.views_reused", self.views.0);
        out.layer("api.views_patched", self.views.1);
        out.layer("api.views_rebuilt", self.views.2);
        out.layer("services.kv_put_us", self.kv_put_us);
        out.layer("services.kv_get_us", self.kv_get_us);
    }
}

/// Four points exactly on one circle (a 3-4-5 lattice circle scaled by a
/// power of two), so `incircle` cannot decide in floating point and takes
/// its exact path.  `k` shifts the circle by an exactly representable step.
fn cocircular(k: usize) -> [Point2; 4] {
    let c = 0.25 + (k % 64) as f64 / 256.0;
    let s = 1.0 / 64.0;
    [(5.0, 0.0), (3.0, 4.0), (-4.0, 3.0), (0.0, -5.0)]
        .map(|(x, y)| Point2::new(c + x * s, c + y * s))
}

/// Probes `engine`'s overlay.  `dist` places the objects the write probes
/// add; `seed` feeds the probe inputs; every probe runs under `plan`.
/// `run_len` is the length of the read-only batches `api.batch_self_us` is
/// taken on: the engine settles its message accounting once per read run
/// (~170 ns per distinct sender of the run), so what a batch adds per op
/// depends on how long the workload's runs between write barriers are.
pub fn local(
    engine: &mut SyncEngine,
    dist: Distribution,
    seed: u64,
    run_len: usize,
    plan: PassPlan,
) -> Result<Local, String> {
    let n = engine.len();
    let mut l = Local::default();
    let mut queries = QueryGenerator::new(seed ^ 0x9B0B);
    let pts: Vec<Point2> = engine
        .net()
        .ids()
        .filter_map(|id| engine.coords(id))
        .collect();
    let picks: Vec<usize> = (0..MICRO_SLOTS * BATCH + 3)
        .map(|_| queries.object_index(n))
        .collect();

    // geom: predicates on the population's own points.
    l.orient2d_ns = micro(plan, |slot| {
        for w in picks[slot * BATCH..(slot + 1) * BATCH + 2].windows(3) {
            black_box(orient2d(pts[w[0]], pts[w[1]], pts[w[2]]));
        }
        true
    })?;
    l.incircle_ns = micro(plan, |slot| {
        for w in picks[slot * BATCH..(slot + 1) * BATCH + 3].windows(4) {
            black_box(incircle(pts[w[0]], pts[w[1]], pts[w[2]], pts[w[3]]));
        }
        true
    })?;
    l.incircle_exact_ns = micro(plan, |slot| {
        for k in 0..BATCH {
            let [a, b, c, d] = cocircular(slot + k);
            black_box(incircle(a, b, c, d));
        }
        true
    })?;

    // geom: point location, then removal of existing vertices and insertion
    // of new ones on a copy of the tessellation.
    let targets: Vec<Point2> = (0..MICRO_SLOTS * BATCH).map(|_| queries.point()).collect();
    l.locate_ns = micro(plan, |slot| {
        let tri = engine.net().triangulation();
        for &p in &targets[slot * BATCH..(slot + 1) * BATCH] {
            black_box(tri.locate(p));
        }
        true
    })?;
    let write_slots = 4;
    let per_slot = (n / 16).clamp(1, BATCH);
    let writes = write_slots * per_slot;
    let fresh = PointGenerator::new(dist, seed ^ 0xF2E5).take_points(writes);
    let victims: Vec<ObjectId> = distinct(&mut queries, n, writes)
        .into_iter()
        .map(|i| engine.net().id_at(i).expect("index below len"))
        .collect();
    let acc = probe(plan, 2 * write_slots, |s| {
        let net = engine.net();
        let mut tri = net.triangulation().clone();
        for (slot, chunk) in victims.chunks(per_slot).enumerate() {
            let ok = s.time(slot, || {
                chunk
                    .iter()
                    .all(|&id| net.vertex_of(id).is_some_and(|v| tri.remove(v).is_ok()))
            });
            if !ok {
                return Err("a probe vertex could not be removed".into());
            }
        }
        for (slot, chunk) in fresh.chunks(per_slot).enumerate() {
            if !s.time(write_slots + slot, || {
                chunk.iter().all(|&p| tri.insert(p).is_ok())
            }) {
                return Err("a probe point could not enter the tessellation".into());
            }
        }
        Ok(())
    })?;
    l.tri_remove_us = sum_of(&acc, 0..write_slots) / 1e3 / writes as f64;
    l.tri_insert_us = sum_of(&acc, write_slots..2 * write_slots) / 1e3 / writes as f64;

    // core: the same writes through the overlay (tessellation + views).
    let acc = probe(plan, 2 * write_slots, |s| {
        let mut net = engine.net().clone();
        for (slot, chunk) in victims.chunks(per_slot).enumerate() {
            if !s.time(slot, || chunk.iter().all(|&id| net.remove(id).is_ok())) {
                return Err("a probe object could not leave".into());
            }
        }
        for (slot, chunk) in fresh.chunks(per_slot).enumerate() {
            if !s.time(write_slots + slot, || {
                chunk.iter().all(|&p| net.insert(p).is_ok())
            }) {
                return Err("a probe object could not join".into());
            }
        }
        Ok(())
    })?;
    l.remove_us = sum_of(&acc, 0..write_slots) / 1e3 / writes as f64;
    l.insert_us = sum_of(&acc, write_slots..2 * write_slots) / 1e3 / writes as f64;

    // core: the two greedy walks over the same pairs.
    let pairs: Vec<(ObjectId, ObjectId)> = queries
        .object_pairs(n, ROUTES)
        .into_iter()
        .map(|(a, b)| {
            let net = engine.net();
            (
                net.id_at(a).expect("index below len"),
                net.id_at(b).expect("index below len"),
            )
        })
        .collect();
    let route_slots = ROUTES / BATCH;
    let mut scratch = RouteScratch::new();
    let mut hops = 0u64;
    let acc = probe(plan, route_slots, |s| {
        let net = engine.net();
        hops = 0;
        for (slot, chunk) in pairs.chunks(BATCH).enumerate() {
            hops += s.time(slot, || {
                walk(chunk, &mut scratch, |a, b, sc| {
                    net.route_between_in(a, b, sc).ok()
                })
            });
        }
        Ok(())
    })?;
    let live_us_per_route = acc.sum_ns() as f64 / 1e3 / ROUTES as f64;
    l.live_hop_ns = acc.sum_ns() as f64 / hops.max(1) as f64;
    let view = engine.net().freeze();
    let acc = probe(plan, route_slots, |s| {
        for (slot, chunk) in pairs.chunks(BATCH).enumerate() {
            s.time(slot, || {
                walk(chunk, &mut scratch, |a, b, sc| {
                    view.route_between_in(a, b, sc).ok()
                })
            });
        }
        Ok(())
    })?;
    let frozen_us_per_route = acc.sum_ns() as f64 / 1e3 / ROUTES as f64;
    l.frozen_hop_ns = acc.sum_ns() as f64 / hops.max(1) as f64;
    drop(view);

    // core: building a view, and patching it after one write.
    let acc = probe(plan, 1, |s| {
        s.time(0, || drop(black_box(engine.net().freeze())));
        Ok(())
    })?;
    l.freeze_ms = acc.sum_ns() as f64 / 1e6;
    let refreshes = writes.min(64);
    let mut rows = 0usize;
    let acc = probe(plan, refreshes, |s| {
        let mut net = engine.net().clone();
        let mut view = net.freeze();
        rows = 0;
        for slot in 0..refreshes {
            // Alternately a new object joins and an existing one leaves.
            if slot % 2 == 0 {
                net.insert(fresh[slot]).map_err(|e| e.to_string())?;
            } else {
                net.remove(victims[slot]).map_err(|e| e.to_string())?;
            }
            match s.time(slot, || view.refresh(&net)) {
                ViewRefresh::Patched { nodes, .. } => rows += nodes,
                other => return Err(format!("one write was not patched but {other:?}")),
            }
        }
        Ok(())
    })?;
    l.refresh_us = acc.sum_ns() as f64 / 1e3 / refreshes as f64;
    l.refresh_rows = rows as f64 / refreshes as f64;

    // core: the area flood.
    let range_slots = 4;
    let per_slot = 32;
    let ranges: Vec<_> = (0..range_slots * per_slot)
        .map(|_| {
            let from = engine
                .net()
                .id_at(queries.object_index(n))
                .expect("index below len");
            (from, queries.range_query(0.05))
        })
        .collect();
    let (mut matched, mut visited) = (0usize, 0usize);
    let acc = probe(plan, range_slots, |s| {
        let net = engine.net();
        (matched, visited) = (0, 0);
        for (slot, chunk) in ranges.chunks(per_slot).enumerate() {
            let (m, v) = s.time(slot, || {
                chunk.iter().fold((0, 0), |(m, v), &(from, q)| {
                    scratch.delta.clear();
                    let r = range_query_in(net, from, q, &mut scratch).expect("live issuer");
                    (m + r.matches.len(), v + r.visited)
                })
            });
            matched += m;
            visited += v;
        }
        Ok(())
    })?;
    scratch.delta.clear();
    l.range_us = acc.sum_ns() as f64 / 1e3 / ranges.len() as f64;
    l.range_visit_ratio = matched as f64 / visited.max(1) as f64;

    // api: what the engine adds on top of the walks, on the same pairs.
    let ops: Vec<Op> = pairs
        .iter()
        .map(|&(from, to)| Op::RouteBetween { from, to })
        .collect();
    let acc = probe(plan, route_slots, |s| {
        for (slot, chunk) in ops.chunks(BATCH).enumerate() {
            s.time(slot, || {
                for run in chunk.chunks(run_len.max(1)) {
                    black_box(engine.apply_batch(run));
                }
            });
        }
        Ok(())
    })?;
    l.batch_self_us = acc.sum_ns() as f64 / 1e3 / ROUTES as f64 - frozen_us_per_route;
    let acc = probe(plan, route_slots, |s| {
        for (slot, chunk) in pairs.chunks(BATCH).enumerate() {
            s.time(slot, || {
                for &(a, b) in chunk {
                    black_box(engine.route_between(a, b).expect("live pair"));
                }
            });
        }
        Ok(())
    })?;
    l.single_self_ns = (acc.sum_ns() as f64 / 1e3 / ROUTES as f64 - live_us_per_route) * 1e3;
    let mut gen = OpBatchGenerator::new(dist, seed ^ 0x2E50, OpMix::mixed(95));
    let mixed: Vec<Vec<WorkloadOp>> = (0..8).map(|_| gen.batch(n, BATCH)).collect();
    let acc = probe(plan, mixed.len(), |s| {
        for (slot, script) in mixed.iter().enumerate() {
            s.time(slot, || drop(black_box(resolve_workload(engine, script))));
        }
        Ok(())
    })?;
    l.resolve_ns = ns_per(&acc, mixed.len() * BATCH);
    {
        // View economics of a fixed mixed script on a fresh engine.
        let mut e = SyncEngine::from_net(engine.net().clone()).with_threads(1);
        let before = e.snapshot_stats(); // the clone carries the tallies over
        for script in &mixed {
            let ops = resolve_workload(&e, script);
            e.apply_batch(&ops);
        }
        let st = e.snapshot_stats();
        l.views = (
            (st.reused - before.reused) as f64,
            (st.delta_patches - before.delta_patches) as f64,
            (st.full_rebuilds - before.full_rebuilds) as f64,
        );
    }

    // services: the in-process KV, the floor under the cluster's.
    let kv_slots = 4;
    let kv_per_slot = 64;
    let froms: Vec<ObjectId> = (0..kv_slots * kv_per_slot)
        .map(|_| {
            engine
                .net()
                .id_at(queries.object_index(n))
                .expect("index below len")
        })
        .collect();
    let acc = probe(plan, 2 * kv_slots, |s| {
        let mut svc =
            ServiceEngine::new(SyncEngine::from_net(engine.net().clone()).with_threads(1));
        let mut exec = |s: &mut SlotMin, base: usize, get: bool| -> Result<(), String> {
            for (slot, chunk) in froms.chunks(kv_per_slot).enumerate() {
                let ok = s.time(base + slot, || {
                    chunk.iter().enumerate().all(|(k, &from)| {
                        let key = (slot * kv_per_slot + k) as u64 % 64;
                        let op = if get {
                            ServiceOp::KvGet { from, key }
                        } else {
                            ServiceOp::KvPut {
                                from,
                                key,
                                value: key + 1,
                            }
                        };
                        matches!(svc.exec_service(op), OpResult::Service(_))
                    })
                });
                if !ok {
                    return Err("an in-process kv operation failed".into());
                }
            }
            Ok(())
        };
        exec(s, 0, false)?;
        exec(s, kv_slots, true)
    })?;
    l.kv_put_us = sum_of(&acc, 0..kv_slots) / 1e3 / froms.len() as f64;
    l.kv_get_us = sum_of(&acc, kv_slots..2 * kv_slots) / 1e3 / froms.len() as f64;
    Ok(l)
}

/// `k` distinct indices below `n` (`k` ≤ `n`).
fn distinct(queries: &mut QueryGenerator, n: usize, k: usize) -> Vec<usize> {
    let mut seen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let i = queries.object_index(n);
        if seen.insert(i) {
            out.push(i);
        }
    }
    out
}

/// Routes every pair of `chunk` through `route`, clearing the scratch's
/// delta before each call; returns the hops taken.
fn walk(
    chunk: &[(ObjectId, ObjectId)],
    scratch: &mut RouteScratch,
    route: impl Fn(ObjectId, ObjectId, &mut RouteScratch) -> Option<(ObjectId, u32)>,
) -> u64 {
    chunk.iter().fold(0, |hops, &(a, b)| {
        scratch.delta.clear();
        let (owner, h) = route(a, b, scratch).expect("live pair");
        debug_assert_eq!(owner, b);
        hops + u64::from(black_box(h))
    })
}

/// Builds an overlay of `points` and probes it (the cluster workload has no
/// in-process engine of its own).  Call it before anything else allocates:
/// the build's growth in resident memory is `core.bytes_per_object`.
pub fn local_on_points(opts: &Opts, points: &[Point2]) -> Result<Local, String> {
    let mut engine = SyncEngine::from_net(VoroNet::new(
        voronet_core::VoroNetConfig::new(points.len()).with_seed(POPULATION_SEED),
    ))
    .with_threads(1);
    let rss0 = status_mb("VmRSS");
    for &p in points {
        engine.insert(p).map_err(|e| e.to_string())?;
    }
    let grown = (status_mb("VmRSS") - rss0).max(0.0);
    let mut l = local(
        &mut engine,
        Distribution::Uniform,
        opts.seed,
        BATCH,
        opts.probe_plan(),
    )?;
    l.bytes_per_object = grown * 1024.0 * 1024.0 / points.len() as f64;
    Ok(l)
}

/// Codec and hub costs of one small frame.
#[derive(Debug, Clone, Default)]
pub struct NetMicro {
    encode_ns: f64,
    decode_ns: f64,
    frame_bytes: f64,
    vnet_rtt_ns: f64,
}

impl NetMicro {
    /// Appends `net.encode_ns`, `net.decode_ns`, `net.frame_bytes` and
    /// `net.vnet_rtt_ns`.
    pub fn report(&self, out: &mut RunOutput) {
        out.layer("net.encode_ns", self.encode_ns);
        out.layer("net.decode_ns", self.decode_ns);
        out.layer("net.frame_bytes", self.frame_bytes);
        out.layer("net.vnet_rtt_ns", self.vnet_rtt_ns);
    }
}

/// Times the codec on a route request (the frame every cluster route starts
/// with) and one round trip of it between two endpoints of an ideal hub.
pub fn net_micro(plan: PassPlan) -> Result<NetMicro, String> {
    let msg = |token: u64| WireMsg::RouteReq {
        token,
        from_object: 17,
        target: Point2::new(0.25, 0.75),
    };
    let mut frame = Vec::new();
    let encode_ns = micro(plan, |slot| {
        (0..BATCH).all(|k| {
            let encoded = msg((slot * BATCH + k) as u64).encode(0, 1, &mut frame);
            black_box(&frame);
            encoded.is_ok()
        })
    })?;
    let decode_ns = micro(plan, |_| {
        (0..BATCH).all(|_| black_box(WireMsg::decode(black_box(&frame))).is_ok())
    })?;
    let hub = VnetHub::new(NetworkModel::ideal());
    let (mut a, mut b) = (hub.endpoint(1), hub.endpoint(2));
    let mut buf = Vec::new();
    let vnet_rtt_ns = micro(plan, |_| {
        (0..BATCH).all(|_| {
            a.send(2, &frame).is_ok()
                && matches!(b.recv_into(&mut buf), Ok(Some(1)))
                && b.send(1, &buf).is_ok()
                && matches!(a.recv_into(&mut buf), Ok(Some(2)))
        })
    })?;
    Ok(NetMicro {
        encode_ns,
        decode_ns,
        frame_bytes: frame.len() as f64,
        vnet_rtt_ns,
    })
}

/// Every per-layer number of an in-process workload's traced run.
pub struct Layers {
    /// The overlay's own layers.
    pub local: Local,
    net: NetMicro,
    probe_cluster: cluster::Measured,
}

impl Layers {
    /// Appends every per-layer metric the probes produce.
    pub fn report(&self, out: &mut RunOutput) {
        self.local.report(out);
        self.net.report(out);
        self.probe_cluster.report_layers(out);
    }
}

/// Probes the workload's overlay, the codec and hub, and a small cluster of
/// the population's first [`PROBE_CLUSTER`] points under a short script.
/// The driver's contract wants every per-layer metric printed by every
/// `--trace 1` run, so the `net.*` rows must exist on the in-process
/// workloads too; there they come from this cluster, at its smaller size.
pub fn run(
    opts: &Opts,
    engine: &mut SyncEngine,
    scripts: &Scripts,
    bytes_per_object: f64,
) -> Result<Layers, String> {
    let plan = opts.probe_plan();
    let run_len = scripts.throughput.read_run_len();
    let mut local = local(engine, scripts.dist, opts.seed, run_len, plan)?;
    local.bytes_per_object = bytes_per_object;
    let net = net_micro(plan)?;
    let points = &scripts.points[..PROBE_CLUSTER.min(scripts.points.len())];
    let script = cluster::script(opts.seed, points.len(), opts.scaled(4096, 400));
    let probe_cluster = cluster::measure(points, &script, 1, plan, Some(plan))?;
    Ok(Layers {
        local,
        net,
        probe_cluster,
    })
}
