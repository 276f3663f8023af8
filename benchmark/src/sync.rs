//! The three in-process workloads: generated scripts replayed through the
//! public `Overlay` API of a single-threaded `SyncEngine`.
//!
//! Every timed phase replays a fixed script of [`BATCH`]-op chunks.  A
//! read-only script reuses the built overlay; a script with inserts or
//! removes starts every pass from a clone of it (the clone copies the
//! overlay's RNG too), so all passes do identical work and must produce the
//! same result digest.  A slot is one call into the API: one `apply_batch`
//! in a batched phase, one `apply` in a single-op phase.

use crate::spec::{Harness, Opts, RunOutput, BATCH, POPULATION_SEED};
use crate::timing::{
    build_due, check_hwm, quantile, status_mb, Digest, PassPlan, PassReport, SlotMin, NOISY,
};
use crate::{probes, trace};
use voronet_api::{resolve_workload, Op, OpResult, Overlay, OverlayBuilder, SyncEngine};
use voronet_core::VoroNet;
use voronet_geom::Point2;
use voronet_workloads::{
    Distribution, OpBatchGenerator, OpMix, PointGenerator, QueryGenerator, WorkloadOp,
};

/// One timed phase: a script and how it is submitted.
pub struct PhaseScript {
    /// The script in [`BATCH`]-op chunks (the last may be shorter).
    pub chunks: Vec<Vec<WorkloadOp>>,
    /// One `apply_batch` per chunk (slot = chunk) instead of one `apply`
    /// per op (slot = op).
    pub batched: bool,
}

impl PhaseScript {
    /// Scripted operations.
    pub fn ops(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Timed slots.
    pub fn slots(&self) -> usize {
        if self.batched {
            self.chunks.len()
        } else {
            self.ops()
        }
    }

    /// Mean length of the maximal read-only runs the engine will see: the
    /// stretches between write barriers inside one batch, or [`BATCH`] for
    /// a script that is not batched or has no writes.
    pub fn read_run_len(&self) -> usize {
        if !self.batched {
            return BATCH;
        }
        let (mut reads, mut runs) = (0usize, 0usize);
        for chunk in &self.chunks {
            let mut in_run = false;
            for op in chunk {
                let read = !matches!(op, WorkloadOp::Insert { .. } | WorkloadOp::Remove { .. });
                reads += usize::from(read);
                runs += usize::from(read && !in_run);
                in_run = read;
            }
        }
        (reads / runs.max(1)).max(1)
    }

    fn mutating(&self) -> bool {
        self.chunks
            .iter()
            .flatten()
            .any(|op| matches!(op, WorkloadOp::Insert { .. } | WorkloadOp::Remove { .. }))
    }
}

/// Counts of one pass (identical in every pass, by the digest check).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations submitted.
    pub ops: u64,
    /// Of those, inserts / removes / routes.
    pub inserts: u64,
    /// Removes.
    pub removes: u64,
    /// Routes.
    pub routes: u64,
    /// Sum of route hop counts.
    pub hops: u64,
    /// Operations that returned `Failed`.
    pub failed: u64,
    /// Growth of `Overlay::stats().messages` over the pass.
    pub messages: u64,
    /// Results that contradicted the overlay's own ground truth.
    pub wrong: u64,
}

/// What the passes of one phase produced.
pub struct PhaseOutcome {
    /// Slot minima.
    pub slots: SlotMin,
    /// Counts of one pass.
    pub tally: Tally,
    /// Wall and on-CPU time of the passes.
    pub report: PassReport,
}

impl PhaseOutcome {
    /// Mean hops of the routed operations.
    pub fn hops_mean(&self) -> f64 {
        self.tally.hops as f64 / self.tally.routes.max(1) as f64
    }

    /// Slot-min time per scripted operation, in microseconds.
    pub fn us_per_op(&self) -> f64 {
        self.slots.sum_ns() as f64 / 1e3 / self.tally.ops.max(1) as f64
    }
}

/// The population of a workload: `n` points of `dist`.  It is the
/// workload's dataset and does not follow `--seed`, which draws the traffic.
/// The driver compares runs of different seeds: drawn anew per seed, the
/// overlay's long links, the place of the Zipf hot set and the sparse tail
/// of the power law moved `hops_mean` by 1.0–2.6 % (interquartile range ÷
/// median over ten seeds) and the churn timings by 7–11 %; on one
/// population `hops_mean` moves by 0.3–1.6 %, and what is left of the
/// timings' spread is the sandbox.
pub fn population(dist: Distribution, n: usize) -> Vec<Point2> {
    PointGenerator::new(dist, POPULATION_SEED).take_points(n)
}

/// Cuts a generated script of `total` ops into [`BATCH`]-op chunks, telling
/// the generator the population each chunk starts from.
fn chunked(gen: &mut OpBatchGenerator, mut pop: usize, total: usize) -> Vec<Vec<WorkloadOp>> {
    let mut chunks = Vec::new();
    let mut left = total;
    while left > 0 {
        let chunk = gen.batch(pop, left.min(BATCH));
        for op in &chunk {
            match op {
                WorkloadOp::Insert { .. } => pop += 1,
                WorkloadOp::Remove { .. } => pop -= 1,
                _ => {}
            }
        }
        left -= chunk.len();
        chunks.push(chunk);
    }
    chunks
}

/// The scripts of one workload: the throughput phase and, where per-op
/// latency is not read off the same phase, the latency phase.
pub struct Scripts {
    /// Object placement.
    pub dist: Distribution,
    /// The points to build from.
    pub points: Vec<Point2>,
    /// Phase A: `ops_per_s`, `hops_mean`, `msgs_per_op`.
    pub throughput: PhaseScript,
    /// Phase B: `op_p50_us`, `op_p99_us`; `None` when phase A is single-op.
    pub latency: Option<PhaseScript>,
}

/// Generates the inputs of a workload from the seed.
pub fn scripts(opts: &Opts) -> Scripts {
    let n = opts.population();
    let seed = opts.seed;
    let (batched_ops, single_ops) = (opts.scaled(51_200, 2 * BATCH), opts.scaled(20_000, 400));
    let chunks_of = |ops: Vec<WorkloadOp>| ops.chunks(BATCH).map(<[_]>::to_vec).collect();
    trace::span("gen", || match opts.workload.name {
        "route_uniform_50k" => {
            let dist = Distribution::Uniform;
            let routes: Vec<WorkloadOp> = QueryGenerator::new(seed ^ 0x51C6)
                .object_pairs(n, batched_ops)
                .into_iter()
                .map(|(from, to)| WorkloadOp::Route { from, to })
                .collect();
            Scripts {
                dist,
                points: population(dist, n),
                latency: Some(PhaseScript {
                    chunks: chunks_of(routes[..single_ops].to_vec()),
                    batched: false,
                }),
                throughput: PhaseScript {
                    chunks: chunks_of(routes),
                    batched: true,
                },
            }
        }
        "mixed_zipf_20k" => {
            let dist = Distribution::Uniform;
            let gen = |salt: u64| {
                OpBatchGenerator::new(dist, seed ^ salt, OpMix::mixed(95))
                    .with_zipf_destinations(1.1)
            };
            Scripts {
                dist,
                points: population(dist, n),
                throughput: PhaseScript {
                    chunks: chunked(&mut gen(0xA), n, batched_ops),
                    batched: true,
                },
                latency: Some(PhaseScript {
                    chunks: chunked(&mut gen(0xB), n, single_ops),
                    batched: false,
                }),
            }
        }
        "churn_skewed_50k" => {
            let dist = Distribution::PowerLaw { alpha: 5.0 };
            let mix = OpMix {
                insert: 0.35,
                remove: 0.35,
                route: 0.30,
                ..OpMix::routes_only()
            };
            let mut gen = OpBatchGenerator::new(dist, seed ^ 0xC, mix);
            Scripts {
                dist,
                points: population(dist, n),
                throughput: PhaseScript {
                    chunks: chunked(&mut gen, n, single_ops),
                    batched: false,
                },
                latency: None,
            }
        }
        other => unreachable!("{other} is not an in-process workload"),
    })
}

fn new_engine(n: usize) -> SyncEngine {
    OverlayBuilder::new(n)
        .seed(POPULATION_SEED)
        .worker_threads(1)
        .build_sync()
}

/// The set-up of an in-process workload: the overlay built from the
/// workload's points through `Overlay::insert`, as often as asked, every
/// build timed into the same slots.
pub struct Setup<'a> {
    scripts: &'a Scripts,
    /// Slot minima over the builds: one slot per insert, then one warm-up
    /// slot (the first reads, up to and including the first freeze).  Per
    /// insert, not per [`BATCH`] inserts: an 11 ms slot catches some burst in
    /// nearly every build and three builds do not settle its minimum; a
    /// 45 µs slot is rarely hit in all three, and the timer's ~80 ns are
    /// 0.2 % of it.
    pub slots: SlotMin,
    report: PassReport,
    /// Inserts submitted, over all builds.
    pub attempted: u64,
    /// Resident bytes the first build added, per object.
    pub bytes_per_object: f64,
}

impl<'a> Setup<'a> {
    /// A set-up that has not built yet.
    pub fn new(scripts: &'a Scripts) -> Self {
        Setup {
            scripts,
            slots: SlotMin::new(scripts.points.len() + 1),
            report: PassReport::default(),
            attempted: 0,
            bytes_per_object: 0.0,
        }
    }

    /// Builds the overlay once more; drop the previous one first, so that
    /// one is resident at a time.  The warm-up slot submits the first chunks
    /// of a read-only throughput script until the engine has frozen its
    /// view, so a change that moves work into the freeze shows in `setup_s`.
    /// A failed insert, or a build that differs from the first, is an error.
    pub fn build(&mut self) -> Result<SyncEngine, String> {
        let points = &self.scripts.points;
        let throughput = &self.scripts.throughput;
        let insert_slots = self.slots.slots() - 1;
        let warm: &[Vec<WorkloadOp>] = if throughput.mutating() {
            &[]
        } else {
            // The engine freezes once it has seen population/16 reads.
            let chunks = (points.len() / 16).div_ceil(BATCH) + 1;
            &throughput.chunks[..chunks.min(throughput.chunks.len())]
        };
        let first = self.slots.passes() == 0;
        let rss0 = status_mb("VmRSS");
        let mut built = None;
        self.report.pass(&mut self.slots, |slots| {
            let mut engine = new_engine(points.len());
            for (slot, &p) in points.iter().enumerate() {
                if let Err(e) = slots.time(slot, || engine.insert(p)) {
                    return Err(format!("set-up insert {slot} failed: {e}"));
                }
            }
            let grown = (status_mb("VmRSS") - rss0).max(0.0);
            let warm_ops: Vec<Vec<Op>> =
                warm.iter().map(|c| resolve_workload(&engine, c)).collect();
            slots.time(insert_slots, || {
                for ops in &warm_ops {
                    std::hint::black_box(engine.apply_batch(ops));
                }
            });
            let mut d = Digest::default();
            d.push(engine.len() as u64);
            d.push(engine.stats().messages);
            built = Some((engine, grown));
            Ok(d.finish())
        })?;
        let (engine, grown) = built.expect("the pass succeeded");
        self.attempted += points.len() as u64;
        if first {
            self.bytes_per_object = grown * 1024.0 * 1024.0 / points.len() as f64;
        }
        Ok(engine)
    }
}

/// Folds one result into the pass digest and tally; with `check`, also
/// compares it against the overlay's own ground truth.
fn fold(op: &Op, result: &OpResult, net: &VoroNet, check: bool, d: &mut Digest, t: &mut Tally) {
    t.ops += 1;
    match (op, result) {
        (Op::RouteBetween { to, .. }, OpResult::Routed(r)) => {
            t.routes += 1;
            t.hops += u64::from(r.hops);
            d.push(1);
            d.push(r.owner.0);
            d.push(u64::from(r.hops));
            // `to` may have left later in the same batch; while it lives it
            // is the tessellation's owner of its own coordinates.
            if check
                && (r.owner != *to
                    || net
                        .coords(*to)
                        .is_some_and(|c| net.owner_of(c) != Some(*to)))
            {
                t.wrong += 1;
            }
        }
        (Op::Insert { .. }, OpResult::Inserted(r)) => {
            t.inserts += 1;
            d.push(2);
            d.push(r.id.0);
        }
        (Op::Remove { id }, OpResult::Removed(r)) => {
            t.removes += 1;
            d.push(3);
            d.push(r.id.0);
            if check && (r.id != *id || net.contains(*id)) {
                t.wrong += 1;
            }
        }
        (_, OpResult::Failed(_)) => {
            t.failed += 1;
            d.push(4);
        }
        _ => {
            t.wrong += 1;
            d.push(5);
        }
    }
}

/// One pass of `script` on `engine`.  `resolved` caches the id-resolved
/// chunks: pass 0 fills it (chunk by chunk, against the engine's state at
/// that point), later passes replay it.
fn pass(
    engine: &mut SyncEngine,
    script: &PhaseScript,
    resolved: &mut Vec<Vec<Op>>,
    slots: &mut SlotMin,
    check: bool,
) -> (u64, Tally) {
    let mut d = Digest::default();
    let mut t = Tally::default();
    let messages0 = engine.stats().messages;
    let mut slot = 0;
    for (c, chunk) in script.chunks.iter().enumerate() {
        if resolved.len() <= c {
            resolved.push(trace::span("resolve", || resolve_workload(engine, chunk)));
        }
        let ops = &resolved[c];
        if script.batched {
            trace::set_op(slot as u32);
            let results = slots.time(slot, || trace::span("submit", || engine.apply_batch(ops)));
            slot += 1;
            for (op, r) in ops.iter().zip(&results) {
                fold(op, r, engine.net(), check, &mut d, &mut t);
            }
            if results.len() != ops.len() {
                t.wrong += 1;
            }
        } else {
            for op in ops {
                trace::set_op(slot as u32);
                let r = slots.time(slot, || trace::span("submit", || engine.apply(op)));
                slot += 1;
                fold(op, &r, engine.net(), check, &mut d, &mut t);
            }
        }
    }
    t.messages = engine.stats().messages - messages0;
    d.push(t.messages);
    (d.finish(), t)
}

/// One phase in progress.  A run adds its passes one at a time, in rounds
/// over all its phases, so every phase has the whole run as the window in
/// which to find its quiet moments (the sandbox's speed drifts by ±5 % over
/// tens of seconds).
pub struct Phase<'a> {
    script: &'a PhaseScript,
    slots: SlotMin,
    resolved: Vec<Vec<Op>>,
    tally: Tally,
    report: PassReport,
}

impl<'a> Phase<'a> {
    /// A phase that has not run yet.
    pub fn new(script: &'a PhaseScript) -> Self {
        Phase {
            script,
            slots: SlotMin::new(script.slots()),
            resolved: Vec::new(),
            tally: Tally::default(),
            report: PassReport::default(),
        }
    }

    /// Adds one pass.  A mutating script works on a fresh clone of `base`'s
    /// overlay; the very first pass checks results.  With `verify`, the
    /// state a mutating pass leaves behind must satisfy the engine's
    /// invariants (O(n), so asked for on the last passes only).
    pub fn pass(&mut self, base: &mut SyncEngine, verify: bool) -> Result<(), String> {
        let Phase {
            script,
            slots,
            resolved,
            tally,
            report,
        } = self;
        let first = slots.passes() == 0;
        report.pass(slots, |slots| {
            let (digest, t) = if script.mutating() {
                let mut engine = SyncEngine::from_net(base.net().clone()).with_threads(1);
                let out = pass(&mut engine, script, resolved, slots, first);
                if verify {
                    engine
                        .verify_invariants()
                        .map_err(|e| format!("invariants broken after a pass: {e}"))?;
                }
                out
            } else {
                pass(base, script, resolved, slots, first)
            };
            if first {
                *tally = t;
            }
            Ok(digest)
        })
    }

    /// Adds passes until `plan` is met.
    pub fn run(&mut self, base: &mut SyncEngine, plan: PassPlan) -> Result<(), String> {
        while plan.wants_more(&self.slots) {
            self.pass(base, self.slots.passes() + 1 >= plan.passes)?;
        }
        Ok(())
    }

    /// Closes the phase.  Pass 0 was checked and every pass repeated its
    /// digest, so its tally stands for all: no result may have contradicted
    /// the overlay and no operation may have failed.
    pub fn finish(self) -> Result<PhaseOutcome, String> {
        if self.tally.wrong > 0 || self.tally.failed > 0 {
            return Err(format!(
                "{} results contradicted the overlay, {} operations failed",
                self.tally.wrong, self.tally.failed
            ));
        }
        if self.slots.passes() == 0 {
            return Err("the phase never ran".into());
        }
        Ok(PhaseOutcome {
            slots: self.slots,
            tally: self.tally,
            report: self.report,
        })
    }
}

/// Median and 99th percentile of per-op minima, in microseconds.
pub fn latency_us(slots: &SlotMin) -> (f64, f64) {
    let mut mins: Vec<u64> = slots.mins().to_vec();
    mins.sort_unstable();
    (
        quantile(&mins, 0.50) as f64 / 1e3,
        quantile(&mins, 0.99) as f64 / 1e3,
    )
}

fn note_phase(out: &mut RunOutput, label: &str, p: &PhaseOutcome) {
    out.notes.push(format!(
        "phase {label}: {} ops in {} slots, {} passes, noise_ratio {:.3}{}, on-cpu {:.2}, {:.3} us/op, digest {:016x}",
        p.tally.ops,
        p.slots.slots(),
        p.slots.passes(),
        p.slots.noise_ratio(),
        if p.slots.noise_ratio() > NOISY { " (no quiet pass)" } else { "" },
        p.report.oncpu_frac(),
        p.us_per_op(),
        p.report.digest.unwrap_or_default(),
    ));
}

/// The untraced run: every end-to-end metric.  Rounds of one pass per
/// phase; `builds` of them, evenly spaced, first rebuild the overlay.
pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let scripts = scripts(opts);
    let plan = opts.plan(1.0);
    let mut setup = Setup::new(&scripts);
    let mut phases: Vec<Phase> = std::iter::once(&scripts.throughput)
        .chain(&scripts.latency)
        .map(Phase::new)
        .collect();
    let mut engine: Option<SyncEngine> = None;
    let mut hwm_pass2 = 0.0;
    let mut round = 0;
    while phases.iter().any(|p| plan.wants_more(&p.slots)) {
        if build_due(round, plan.passes, opts.workload.builds) {
            drop(engine.take()); // one overlay resident at a time
            engine = Some(setup.build()?);
        }
        let base = engine.as_mut().expect("round 0 builds");
        for phase in &mut phases {
            phase.pass(base, round + 1 >= plan.passes)?;
        }
        if round == 2 {
            hwm_pass2 = status_mb("VmHWM");
        }
        round += 1;
    }
    check_hwm(hwm_pass2, "pass 2")?;

    let mut out = RunOutput::default();
    let mut outcomes = phases
        .into_iter()
        .map(Phase::finish)
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let a = outcomes.next().expect("the throughput phase ran");
    let b = outcomes.next();
    out.notes.push(format!(
        "set-up: {} builds of {} inserts, noise_ratio {:.3}",
        setup.slots.passes(),
        scripts.points.len(),
        setup.slots.noise_ratio()
    ));
    note_phase(&mut out, "A", &a);
    if let Some(b) = &b {
        note_phase(&mut out, "B", b);
    }
    let lat = b.as_ref().unwrap_or(&a);
    out.notes.push(format!(
        "op_p50_us: nearest-rank over n = {} per-op minima",
        lat.slots.slots()
    ));
    out.end_to_end("setup_s", setup.slots.sum_s());
    out.end_to_end("ops_per_s", a.tally.ops as f64 / a.slots.sum_s());
    out.end_to_end("op_p50_us", latency_us(&lat.slots).0);
    out.end_to_end("hops_mean", a.hops_mean());
    out.end_to_end("msgs_per_op", a.tally.messages as f64 / a.tally.ops as f64);
    out.end_to_end("peak_rss_mb", status_mb("VmHWM"));
    out.attempted = setup.attempted
        + std::iter::once(&a)
            .chain(&b)
            .map(|p| p.tally.ops * p.slots.passes() as u64)
            .sum::<u64>();
    Ok(out)
}

/// The traced run: the throughput phase without and with spans, then the
/// layer probes on the workload's own overlay.
pub fn run_traced(opts: &Opts) -> Result<RunOutput, String> {
    trace::enable(true);
    let scripts = scripts(opts);
    let gen_total = trace::total_of(&trace::take_totals(), "gen");
    trace::enable(false);
    let mut setup = Setup::new(&scripts);
    let mut engine = setup.build()?;
    let mut out = RunOutput::default();

    let once = |engine: &mut SyncEngine, script| {
        let mut phase = Phase::new(script);
        phase.run(engine, opts.plan(1.0 / 3.0))?;
        phase.finish()
    };
    let plain = once(&mut engine, &scripts.throughput)?;
    note_phase(&mut out, "A untraced", &plain);
    let latency = match &scripts.latency {
        Some(script) => Some(once(&mut engine, script)?),
        None => None,
    };
    let lat = latency.as_ref().unwrap_or(&plain);
    out.notes.push(format!(
        "op_p99_us: nearest-rank over n = {} per-op minima of {} passes",
        lat.slots.slots(),
        lat.slots.passes()
    ));
    out.layer("op_p99_us", latency_us(&lat.slots).1);
    trace::enable(true);
    let traced = once(&mut engine, &scripts.throughput);
    let totals = trace::take_totals();
    trace::enable(false);
    let traced = traced?;
    note_phase(&mut out, "A traced", &traced);
    // Totals cover every traced pass; passes are identical, so divide.
    let per_pass =
        |name: &str| trace::total_of(&totals, name).self_ns as f64 / traced.slots.passes() as f64;

    let layers = probes::run(opts, &mut engine, &scripts, setup.bytes_per_object)?;
    let ops = plain.tally.ops as f64;
    let measured_us = plain.us_per_op();
    // What the layer table says an average op of this script should cost.
    let route_us = if scripts.throughput.batched {
        plain.hops_mean() * layers.local.frozen_hop_ns / 1e3 + layers.local.batch_self_us
    } else {
        plain.hops_mean() * layers.local.live_hop_ns / 1e3 + layers.local.single_self_ns / 1e3
    };
    // A batched engine keeps two view generations, and each replays every
    // write's record once; a single-op engine keeps no view at all.
    let refresh_us = if scripts.throughput.batched {
        2.0 * layers.local.refresh_us
    } else {
        0.0
    };
    let predicted_us = (plain.tally.routes as f64 * route_us
        + plain.tally.inserts as f64 * (layers.local.insert_us + refresh_us)
        + plain.tally.removes as f64 * (layers.local.remove_us + refresh_us))
        / ops;
    out.notes.push(format!(
        "budget: predicted {predicted_us:.3} us/op from the layer table, measured {measured_us:.3} us/op"
    ));

    layers.report(&mut out);
    Harness {
        plain: &plain.slots,
        report: &plain.report,
        traced: &traced.slots,
        submit_us: per_pass("submit") / 1e3 / ops,
        gen_us: gen_total.total_ns as f64 / 1e3,
    }
    .report(predicted_us / measured_us, &mut out);
    out.attempted = setup.attempted
        + [Some(&plain), latency.as_ref(), Some(&traced)]
            .into_iter()
            .flatten()
            .map(|p| p.tally.ops * p.slots.passes() as u64)
            .sum::<u64>();
    Ok(out)
}
