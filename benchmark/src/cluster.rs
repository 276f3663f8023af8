//! The socketed path end to end: a generated script through `Driver::apply`
//! on an inline-pumped cluster (see [`crate::pump`]).
//!
//! A cluster cannot be cloned, so the script holds no membership operation
//! and an untimed warm-up pass after every start brings the KV plane to the
//! state every later pass also leaves behind; from then on all passes do
//! identical work, down to the number of frames on the hub, which is part of
//! the pass digest.

use crate::pump::InlineCluster;
use crate::spec::{Harness, Opts, RunOutput, POPULATION_SEED};
use crate::sync::latency_us;
use crate::timing::{
    build_due, check_hwm, run_passes, status_mb, Digest, PassPlan, PassReport, SlotMin,
};
use crate::{probes, sync, trace};
use std::collections::HashMap;
use voronet_core::VoroNetConfig;
use voronet_geom::Point2;
use voronet_net::OpOutcome;
use voronet_workloads::{Distribution, OpBatchGenerator, OpMix, WorkloadOp};

/// The op mix of the cluster script: no inserts, no removes.
fn mix() -> OpMix {
    OpMix {
        route: 0.70,
        range: 0.05,
        kv_put: 0.10,
        kv_get: 0.15,
        ..OpMix::routes_only()
    }
}

/// Generates a cluster script of `ops` operations over `population` objects.
pub fn script(seed: u64, population: usize, ops: usize) -> Vec<WorkloadOp> {
    OpBatchGenerator::new(Distribution::Uniform, seed ^ 0xD, mix())
        .with_max_query_extent(0.05)
        .with_zipf_destinations(1.1)
        .batch(population, ops)
}

/// Counts of one measured pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations submitted.
    pub ops: u64,
    /// Point routes among them.
    pub routes: u64,
    /// Sum of their hop counts.
    pub hops: u64,
    /// Operations that returned `Err` or were skipped.
    pub failed: u64,
    /// Frames submitted to the hub by all endpoints.
    pub frames: u64,
    /// Results that contradicted the driver's overlay, the scripted puts or
    /// a linear scan.
    pub wrong: u64,
}

/// Everything measured on one cluster.
pub struct Measured {
    /// Per-insert minima over the builds.
    pub setup: SlotMin,
    /// Per-op minima over the untraced passes.
    pub ops: SlotMin,
    /// Counts of one pass.
    pub tally: Tally,
    /// Wall and on-CPU time of the untraced passes.
    pub report: PassReport,
    /// Per-op minima over the traced passes, when any ran.
    pub traced: Option<SlotMin>,
    /// Span totals per traced pass (`submit`, `transport.*`, `host.step`).
    pub spans_per_pass: Vec<(&'static str, trace::Total)>,
    /// Host steps per pass and how many handled a frame.
    pub steps: (u64, u64),
    /// Mean of the per-op minima of routes / `kv_get`s, in microseconds.
    pub route_us: f64,
    /// See `route_us`.
    pub kv_get_us: f64,
    /// Operations submitted over all passes and builds.
    pub attempted: u64,
}

/// One pass of `script`.  `model` carries the last scripted put per key
/// across passes; with `check`, every result is compared with ground truth.
fn pass(
    cluster: &mut InlineCluster,
    script: &[WorkloadOp],
    coords: &[(u64, Point2)],
    model: &mut HashMap<u64, u64>,
    slots: &mut SlotMin,
    check: bool,
) -> (u64, Tally) {
    let mut d = Digest::default();
    let mut t = Tally::default();
    let frames0 = cluster.frames_sent();
    for (i, op) in script.iter().enumerate() {
        trace::set_op(i as u32);
        let result = slots.time(i, || trace::span("submit", || cluster.driver.apply(op)));
        t.ops += 1;
        let net = cluster.driver.net();
        match (op, result) {
            (&WorkloadOp::Route { to, .. }, Ok(OpOutcome::Route { owner, hops })) => {
                t.routes += 1;
                t.hops += u64::from(hops);
                d.push(1);
                d.push(owner);
                d.push(u64::from(hops));
                if check {
                    let target = coords[to % coords.len()].1;
                    if net.owner_of(target).map(|o| o.0) != Some(owner) {
                        t.wrong += 1;
                    }
                }
            }
            (
                WorkloadOp::Range { query, .. },
                Ok(OpOutcome::Matches {
                    matches,
                    hops,
                    visited,
                }),
            ) => {
                d.push(2);
                d.push(u64::from(hops));
                d.push(u64::from(visited));
                matches.iter().for_each(|&m| d.push(m));
                if check {
                    let mut expect: Vec<u64> = coords
                        .iter()
                        .filter(|(_, p)| query.rect.contains(*p))
                        .map(|&(id, _)| id)
                        .collect();
                    expect.sort_unstable();
                    if expect != matches {
                        t.wrong += 1;
                    }
                }
            }
            (
                &WorkloadOp::KvPut { key, value, .. },
                Ok(OpOutcome::KvStored {
                    owner, replicas, ..
                }),
            ) => {
                d.push(3);
                d.push(owner);
                d.push(u64::from(replicas));
                model.insert(key, value);
            }
            (
                &WorkloadOp::KvGet { key, .. },
                Ok(OpOutcome::KvFetched {
                    owner,
                    value,
                    degraded,
                    ..
                }),
            ) => {
                d.push(4);
                d.push(owner);
                d.push(value.map_or(u64::MAX, |v| v));
                if check && (degraded || value != model.get(&key).copied()) {
                    t.wrong += 1;
                }
            }
            _ => {
                t.failed += 1;
                d.push(5);
            }
        }
    }
    t.frames = cluster.frames_sent() - frames0;
    d.push(t.frames);
    (d.finish(), t)
}

/// A running cluster and what the passes on it need to know.
struct Live {
    cluster: InlineCluster,
    /// Ids and coordinates in the driver's dense order, which `WorkloadOp`
    /// indices address.
    coords: Vec<(u64, Point2)>,
    /// The last scripted put per key.
    model: HashMap<u64, u64>,
}

impl Live {
    /// Starts a cluster, inserts `points` (one set-up slot each) and runs
    /// the warm-up pass: untimed, every result checked.
    fn boot(points: &[Point2], script: &[WorkloadOp], setup: &mut SlotMin) -> Result<Live, String> {
        let mut cluster =
            InlineCluster::start(VoroNetConfig::new(points.len()).with_seed(POPULATION_SEED));
        for (i, &p) in points.iter().enumerate() {
            match setup.time(i, || cluster.driver.insert(p)) {
                Ok(Some(_)) => {}
                other => return Err(format!("cluster insert {i} failed: {other:?}")),
            }
        }
        let coords = {
            let net = cluster.driver.net();
            net.ids()
                .map(|id| (id.0, net.coords(id).expect("live object")))
                .collect()
        };
        let mut live = Live {
            cluster,
            coords,
            model: HashMap::new(),
        };
        live.pass(script, &mut SlotMin::new(script.len()), true)?;
        Ok(live)
    }

    /// One pass of `script`, see [`pass`].  A wrong result, a failed
    /// operation, or a retry or resend on the ideal network (a wall-clock
    /// timer fired, so frame counts no longer repeat) is an error.
    fn pass(
        &mut self,
        script: &[WorkloadOp],
        slots: &mut SlotMin,
        check: bool,
    ) -> Result<(u64, Tally), String> {
        let (digest, t) = pass(
            &mut self.cluster,
            script,
            &self.coords,
            &mut self.model,
            slots,
            check,
        );
        let stats = self.cluster.driver.cluster_stats();
        if t.wrong > 0 || t.failed > 0 || stats.retries + stats.fast_resends > 0 {
            return Err(format!(
                "{} results contradicted ground truth, {} operations failed, {} retries, {} fast resends",
                t.wrong, t.failed, stats.retries, stats.fast_resends
            ));
        }
        Ok((digest, t))
    }
}

/// Replays `script` on a cluster over `points`: rounds of one pass under
/// `plan`, `builds` of them, evenly spaced, first starting the cluster
/// afresh (timed set-up, then the warm-up pass); then traced passes on the
/// last cluster under `traced_plan`, when given.
pub fn measure(
    points: &[Point2],
    script: &[WorkloadOp],
    builds: usize,
    plan: PassPlan,
    traced_plan: Option<PassPlan>,
) -> Result<Measured, String> {
    let mut setup = SlotMin::new(points.len());
    let mut setup_report = PassReport::default();
    let mut ops = SlotMin::new(script.len());
    let mut report = PassReport::default();
    let mut tally = Tally::default();
    let mut steps = (0, 0);
    let mut hwm_pass2 = 0.0;
    let mut live: Option<Live> = None;
    while plan.wants_more(&ops) {
        let round = ops.passes();
        if build_due(round, plan.passes, builds) {
            drop(live.take()); // one cluster resident at a time
            setup_report.pass(&mut setup, |setup| {
                let booted = Live::boot(points, script, setup)?;
                let frames = booted.cluster.frames_sent();
                live = Some(booted);
                Ok(frames)
            })?;
        }
        let live = live.as_mut().expect("round 0 builds");
        let counters = live.cluster.counters.clone();
        let (steps0, hits0) = (counters.steps.get(), counters.hits.get());
        report.pass(&mut ops, |slots| {
            let (digest, t) = live.pass(script, slots, round == 0)?;
            tally = t;
            Ok(digest)
        })?;
        steps.0 += counters.steps.get() - steps0;
        steps.1 += counters.hits.get() - hits0;
        if round == 2 {
            hwm_pass2 = status_mb("VmHWM");
        }
    }
    check_hwm(hwm_pass2, "pass 2")?;
    let passes = ops.passes() as u64;
    let mut live = live.expect("at least one round ran");

    let mut traced = None;
    let mut spans_per_pass = Vec::new();
    let mut traced_passes = 0;
    if let Some(plan) = traced_plan {
        let mut slots = SlotMin::new(script.len());
        trace::enable(true);
        let result = run_passes(plan, &mut slots, |_, slots| {
            live.pass(script, slots, false).map(|(digest, _)| digest)
        });
        spans_per_pass = trace::take_totals();
        trace::enable(false);
        result?;
        traced_passes = slots.passes() as u64;
        for (_, t) in &mut spans_per_pass {
            *t = trace::Total {
                count: t.count / traced_passes,
                total_ns: t.total_ns / traced_passes,
                self_ns: t.self_ns / traced_passes,
            };
        }
        traced = Some(slots);
    }

    let mean_us = |keep: &dyn Fn(&WorkloadOp) -> bool| {
        let picked: Vec<u64> = script
            .iter()
            .zip(ops.mins())
            .filter(|(op, _)| keep(op))
            .map(|(_, &ns)| ns)
            .collect();
        picked.iter().sum::<u64>() as f64 / 1e3 / picked.len().max(1) as f64
    };
    let boots = setup.passes() as u64;
    Ok(Measured {
        route_us: mean_us(&|op| matches!(op, WorkloadOp::Route { .. })),
        kv_get_us: mean_us(&|op| matches!(op, WorkloadOp::KvGet { .. })),
        attempted: (points.len() as u64 + script.len() as u64) * boots
            + script.len() as u64 * (passes + traced_passes),
        steps: (steps.0 / passes, steps.1 / passes),
        setup,
        ops,
        tally,
        report,
        traced,
        spans_per_pass,
    })
}

impl Measured {
    fn self_us(&self, name: &str) -> f64 {
        trace::total_of(&self.spans_per_pass, name).self_ns as f64 / 1e3 / self.tally.ops as f64
    }

    /// The `net.*` per-layer metrics this cluster yields.
    pub fn report_layers(&self, out: &mut RunOutput) {
        out.layer(
            "net.frames_per_op",
            self.tally.frames as f64 / self.tally.ops as f64,
        );
        out.layer("net.driver_self_us", self.self_us("submit"));
        out.layer(
            "net.transport_us",
            self.self_us("transport.send") + self.self_us("transport.recv"),
        );
        out.layer("net.host_step_us", self.self_us("host.step"));
        out.layer(
            "net.step_hit_ratio",
            self.steps.1 as f64 / self.steps.0.max(1) as f64,
        );
        out.layer("net.route_us", self.route_us);
        out.layer("net.kv_get_us", self.kv_get_us);
        out.layer(
            "net.insert_us",
            self.setup.sum_ns() as f64 / 1e3 / self.setup.slots() as f64,
        );
    }
}

fn inputs(opts: &Opts) -> (Vec<Point2>, Vec<WorkloadOp>) {
    let n = opts.population();
    trace::span("gen", || {
        (
            sync::population(Distribution::Uniform, n),
            script(opts.seed, n, opts.scaled(40_000, 800)),
        )
    })
}

/// The untraced run: every end-to-end metric.
pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let (points, script) = inputs(opts);
    let m = measure(&points, &script, opts.workload.builds, opts.plan(1.0), None)?;
    let mut out = RunOutput::default();
    out.notes.push(format!(
        "{} ops, {} passes on {} clusters (a warm-up pass each), noise_ratio {:.3}, on-cpu {:.2}, {} frames/pass, digest {:016x}",
        m.tally.ops,
        m.ops.passes(),
        m.setup.passes(),
        m.ops.noise_ratio(),
        m.report.oncpu_frac(),
        m.tally.frames,
        m.report.digest.unwrap_or_default(),
    ));
    out.notes.push(format!(
        "op_p50_us: nearest-rank over n = {} per-op minima",
        m.ops.slots()
    ));
    out.end_to_end("setup_s", m.setup.sum_s());
    out.end_to_end("ops_per_s", m.tally.ops as f64 / m.ops.sum_s());
    out.end_to_end("op_p50_us", latency_us(&m.ops).0);
    out.end_to_end(
        "hops_mean",
        m.tally.hops as f64 / m.tally.routes.max(1) as f64,
    );
    out.end_to_end("msgs_per_op", m.tally.frames as f64 / m.tally.ops as f64);
    out.end_to_end("peak_rss_mb", status_mb("VmHWM"));
    out.attempted = m.attempted;
    Ok(out)
}

/// The traced run: the script without and with spans on the cluster, then
/// the in-process layer probes on an overlay of the same points.
pub fn run_traced(opts: &Opts) -> Result<RunOutput, String> {
    trace::enable(true);
    let (points, script) = inputs(opts);
    let gen = trace::total_of(&trace::take_totals(), "gen");
    trace::enable(false);
    let local = probes::local_on_points(opts, &points)?;
    let plan = opts.plan(1.0 / 3.0);
    let m = measure(&points, &script, 1, plan, Some(plan))?;
    let traced = m.traced.as_ref().expect("a traced plan was given");
    let mut out = RunOutput::default();
    out.layer("op_p99_us", latency_us(&m.ops).1);
    local.report(&mut out);
    probes::net_micro(opts.probe_plan())?.report(&mut out);
    m.report_layers(&mut out);

    let ops = m.tally.ops as f64;
    let measured_us = m.ops.sum_ns() as f64 / 1e3 / ops;
    let spans_us = ["submit", "transport.send", "transport.recv", "host.step"]
        .iter()
        .map(|n| m.self_us(n))
        .sum::<f64>();
    out.notes.push(format!(
        "budget: span self times sum to {spans_us:.3} us/op, untraced slot-min {measured_us:.3} us/op"
    ));
    let harness = Harness {
        plain: &m.ops,
        report: &m.report,
        traced,
        submit_us: m.self_us("submit"),
        gen_us: gen.total_ns as f64 / 1e3,
    };
    // The spans carry their own timestamps' cost; take it back out before
    // comparing with the untraced time.
    let coverage = spans_us / (1.0 + harness.trace_overhead()) / measured_us;
    harness.report(coverage, &mut out);
    out.attempted = m.attempted;
    Ok(out)
}
