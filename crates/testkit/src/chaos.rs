//! Chaos harness: seeded crash/partition fuzzing of the fault-tolerant
//! cluster (`voronet-net`).
//!
//! A [`ChaosCase`] is a single replayable timeline mixing workload ops
//! with [`FaultEvent`]s (crash-stop, restart, partition, heal) plus a
//! link-fault profile, executed against an [`InlineCluster`] whose every
//! endpoint is wrapped in a seeded [`FaultTransport`] — one thread, one
//! virtual clock, so the same case replays bit-for-bit: same faults,
//! same counters.  [`run_chaos`] drives the timeline and audits three
//! safety properties:
//!
//! 1. **No acked write lost** — a KV read never returns a value that
//!    contradicts the model of acknowledged puts/deletes (degraded
//!    replica reads included; an op whose ack was lost moves its key to
//!    "unknown", where any answer is accepted).
//! 2. **No livelock** — every driver op completes (successfully or by
//!    failing fast) within a bound on the cluster's clock; retry budgets
//!    must hold under crashes and partitions.
//! 3. **Ledger consistency** — after healing every fault, all hosts
//!    return to `Alive`, every acked value reads back on the healthy
//!    path, the driver's tessellation passes its structural invariant
//!    check, every death was matched by a revival, and the transport
//!    layer saw no decode errors or oversized frames.
//!
//! This is the one place a cluster meets loss, partitions and crashes:
//! the differential fuzz fleet ([`crate::harness`]) runs on an ideal
//! network.  Failing cases shrink through [`shrink_chaos`] (the testkit's
//! one ddmin, in [`crate::shrink`], over the step list) and serialize to
//! `.ron` reproducers under `tests/chaos/`, which CI replays via the fuzz
//! binary's `--chaos` pass.

use crate::repro::{encode_op, perr, tokenize, Parser, ReproError, Token};
use crate::shrink::{ddmin, Panics};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use voronet_core::VoroNetConfig;
use voronet_net::{
    ClusterError, ClusterStats, FaultCtl, FaultEvent, FaultPlan, FaultStats, FaultTransport,
    HostState, InlineCluster, LinkFaults, Liveness, OpOutcome, RetryPolicy, Transport, VnetHub,
};
use voronet_sim::{NetworkModel, TransportStats};
use voronet_workloads::{Distribution, OpBatchGenerator, OpMix, PointGenerator, WorkloadOp};

/// Bound on a single driver op under chaos, on the cluster's clock: far
/// above any healthy latency, far below a livelock (tight retry budgets
/// are ~3 s; a flood abandoning probes to a dead host adds ~6 s).
const OP_BOUND: Duration = Duration::from_secs(30);

/// Heartbeats after healing within which every host must be alive again.
/// Each is one idle turn of the cluster's clock (≥ 125 µs once a quiet
/// stretch is past its yields), so this spans some two hundred of the
/// 60 ms ping windows a revival needs one or two of.
const HEAL_ROUNDS: usize = 100_000;

/// Knobs of chaos-case generation (what [`generate_chaos`] consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Master seed: same seed, same timeline, same injected faults.
    pub seed: u64,
    /// Host peers of the cluster.
    pub hosts: u64,
    /// Warm-up inserts opening the timeline.
    pub warmup: usize,
    /// Generated workload ops after the warm-up.
    pub ops: usize,
    /// Provisioned overlay capacity.
    pub nmax: usize,
}

impl ChaosSpec {
    /// The CI-sized chaos budget.
    pub fn smoke(seed: u64) -> Self {
        ChaosSpec {
            seed,
            hosts: 3,
            warmup: 24,
            ops: 110,
            nmax: 400,
        }
    }
}

/// One entry of a chaos timeline: a workload op or a fault transition.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosStep {
    /// A driver operation.
    Op(WorkloadOp),
    /// A fault-switchboard transition.
    Fault(FaultEvent),
}

/// A self-contained, replayable chaos case.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCase {
    /// Seed of the cluster, the endpoint fault RNGs and the generator.
    pub seed: u64,
    /// Host peers.
    pub hosts: u64,
    /// Provisioned overlay capacity.
    pub nmax: usize,
    /// Link faults in force for the whole run.
    pub link: LinkFaults,
    /// The timeline.
    pub steps: Vec<ChaosStep>,
}

/// Generates the chaos case a spec describes (deterministic in
/// `spec.seed`): a warm-up insert burst, then weighted workload segments
/// interleaved with a [`FaultPlan`] schedule of crashes, restarts and
/// partitions; odd seeds add a mildly lossy link profile on top.
pub fn generate_chaos(spec: &ChaosSpec) -> ChaosCase {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC4A0_5CA5);
    let mut ops: Vec<WorkloadOp> = Vec::with_capacity(spec.warmup + spec.ops);
    let mut points = PointGenerator::new(Distribution::Uniform, spec.seed ^ 0x57A2);
    for _ in 0..spec.warmup {
        ops.push(WorkloadOp::Insert {
            position: points.next_point(),
        });
    }
    let mut pop = spec.warmup.max(1);
    while ops.len() < spec.warmup + spec.ops {
        let remaining = spec.warmup + spec.ops - ops.len();
        let len = rng.random_range(16..=64usize).min(remaining);
        // Chaos leans on the service plane: half the segments are
        // KV-heavy so crash windows overlap live puts and gets.
        let mix = match rng.random_range(0..4u32) {
            0 => OpMix::read_heavy(),
            1 => OpMix::churn_heavy(),
            _ => OpMix::services(15, 60),
        };
        let segment = OpBatchGenerator::new(Distribution::Uniform, rng.random::<u64>(), mix)
            .with_max_query_extent(0.2)
            .batch(pop, len);
        for op in &segment {
            match op {
                WorkloadOp::Insert { .. } => pop += 1,
                WorkloadOp::Remove { .. } => pop = pop.saturating_sub(1).max(1),
                _ => {}
            }
        }
        ops.extend(segment);
    }

    // Interleave the fault schedule: events fire *before* the op at
    // their index (warm-up excluded so the overlay is populated first).
    let plan = FaultPlan::generate(spec.seed, spec.hosts, spec.ops);
    let mut steps = Vec::with_capacity(ops.len() + plan.events.len());
    for (i, op) in ops.into_iter().enumerate() {
        if i >= spec.warmup {
            for &(at, event) in &plan.events {
                if at + spec.warmup == i {
                    steps.push(ChaosStep::Fault(event));
                }
            }
        }
        steps.push(ChaosStep::Op(op));
    }
    for &(at, event) in &plan.events {
        if at >= spec.ops {
            steps.push(ChaosStep::Fault(event));
        }
    }

    ChaosCase {
        seed: spec.seed,
        hosts: spec.hosts,
        nmax: spec.nmax,
        link: if spec.seed % 2 == 1 {
            LinkFaults::lossy(0.04)
        } else {
            LinkFaults::default()
        },
        steps,
    }
}

/// What the model knows about one key after the run so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Known {
    /// The last acked write committed this value.
    Value(u64),
    /// An acked delete (or no write ever) means certainly absent.
    Absent,
    /// An unacked put/delete left the key in an unknown state: any
    /// read answer is accepted.
    Unknown,
}

/// Outcome of a clean chaos run: everything a replay of the same case
/// must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Workload ops executed.
    pub ops_run: usize,
    /// Fault events fired.
    pub faults_fired: usize,
    /// The driver's liveness states and fault counters.
    pub stats: ClusterStats,
    /// The driver endpoint's transport counters.
    pub transport: TransportStats,
    /// Injected faults per endpoint: the driver's, then each host's.
    pub faults: Vec<FaultStats>,
}

/// A violated chaos property, locating the offending step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosFailure {
    /// Timeline index of the offending step (`None` for end-of-run
    /// audits).
    pub step: Option<usize>,
    /// Which property failed and how.
    pub detail: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(i) => write!(f, "at step {i}: {}", self.detail),
            None => write!(f, "at end of run: {}", self.detail),
        }
    }
}

fn fail(step: Option<usize>, detail: impl Into<String>) -> ChaosFailure {
    ChaosFailure {
        step,
        detail: detail.into(),
    }
}

/// An op error the fault model allows: the target was unreachable and
/// the driver failed fast (or exhausted its bounded retry budget).
fn acceptable(e: &ClusterError) -> bool {
    matches!(e, ClusterError::Unavailable(_) | ClusterError::Timeout(_))
}

/// Executes a chaos timeline and audits the three safety properties
/// (see the module docs).  `Err` carries the first violation.
pub fn run_chaos(case: &ChaosCase) -> Result<ChaosReport, ChaosFailure> {
    let hub = VnetHub::new(NetworkModel::ideal());
    let ctl = FaultCtl::new(case.link);
    let config = VoroNetConfig::new(case.nmax).with_seed(case.seed);
    let mut cluster = InlineCluster::start_with(case.hosts, config, |peer| {
        FaultTransport::new(hub.endpoint(peer), ctl.clone(), case.seed)
    });
    cluster.driver().set_retry_policy(RetryPolicy::tight());
    cluster.driver().set_liveness(Liveness::tight());

    let mut model: HashMap<u64, Known> = HashMap::new();
    let mut ops_run = 0usize;
    let mut faults_fired = 0usize;

    for (i, step) in case.steps.iter().enumerate() {
        let op = match step {
            ChaosStep::Fault(event) => {
                ctl.apply(*event);
                faults_fired += 1;
                continue;
            }
            ChaosStep::Op(op) => op,
        };
        ops_run += 1;
        // Keep a routable population; an empty one has nothing to address.
        let pop = cluster.driver().population();
        let skip = match op {
            WorkloadOp::Insert { .. } => false,
            WorkloadOp::Remove { .. } => pop <= 4,
            _ => pop == 0,
        };
        if skip {
            continue;
        }
        let started = cluster.now();
        let outcome = match cluster.driver().apply(op) {
            Ok(outcome) => Some(outcome),
            Err(e) if acceptable(&e) => None,
            Err(e) => return Err(fail(Some(i), format!("{op:?} errored: {e}"))),
        };
        match (op, outcome) {
            (&WorkloadOp::KvPut { key, value, .. }, Some(OpOutcome::KvStored { .. })) => {
                model.insert(key, Known::Value(value));
            }
            // The ack never arrived: old or new value may have landed.
            (&WorkloadOp::KvPut { key, .. } | &WorkloadOp::KvDelete { key, .. }, None) => {
                model.insert(key, Known::Unknown);
            }
            (&WorkloadOp::KvDelete { key, .. }, Some(_)) => {
                model.insert(key, Known::Absent);
            }
            (&WorkloadOp::KvGet { key, .. }, Some(OpOutcome::KvFetched { value, .. })) => {
                match model.get(&key).copied().unwrap_or(Known::Absent) {
                    Known::Value(v) if value != Some(v) => {
                        let lost = format!("acked write lost: key {key} holds {v}, read {value:?}");
                        return Err(fail(Some(i), lost));
                    }
                    Known::Absent if value.is_some() => {
                        let phantom =
                            format!("phantom value: key {key} was never acked, read {value:?}");
                        return Err(fail(Some(i), phantom));
                    }
                    _ => {}
                }
            }
            (WorkloadOp::KvPut { .. } | WorkloadOp::KvGet { .. }, Some(other)) => {
                return Err(fail(Some(i), format!("{op:?} answered {other:?}")));
            }
            _ => {}
        }
        let elapsed = cluster.now() - started;
        if elapsed > OP_BOUND {
            return Err(fail(
                Some(i),
                format!("livelock: {op:?} took {elapsed:?} (bound {OP_BOUND:?})"),
            ));
        }
    }

    // End-of-run audit: heal everything, heartbeat until every host is
    // seen alive again, then every acked value must read back healthily.
    ctl.heal_all();
    let mut rounds = 0;
    while (1..=case.hosts).any(|p| cluster.driver().host_state(p) != HostState::Alive) {
        if rounds == HEAL_ROUNDS {
            let states: Vec<_> = cluster.driver().cluster_stats().hosts;
            return Err(fail(
                None,
                format!("hosts not alive {HEAL_ROUNDS} heartbeats after heal_all: {states:?}"),
            ));
        }
        cluster
            .driver()
            .heartbeat()
            .map_err(|e| fail(None, format!("heartbeat errored: {e}")))?;
        rounds += 1;
    }
    let first = cluster.net().id_at(0);
    for (&key, &known) in &model {
        let Known::Value(v) = known else { continue };
        let Some(from) = first else { break };
        match cluster.driver().kv_get(from, key) {
            Ok(OpOutcome::KvFetched { value, .. }) if value == Some(v) => {}
            Ok(OpOutcome::KvFetched { value, .. }) => {
                return Err(fail(
                    None,
                    format!("healed read of key {key}: expected {v}, read {value:?}"),
                ));
            }
            Ok(other) => return Err(fail(None, format!("healed kv_get answered {other:?}"))),
            Err(e) => return Err(fail(None, format!("healed kv_get errored: {e}"))),
        }
    }
    // Whatever the faults did to the ops, the driver's tessellation keeps
    // its structural invariants.
    if let Err(e) = cluster.net().check_invariants(false) {
        let detail = format!("driver tessellation violated invariants: {e}");
        return Err(fail(None, detail));
    }
    let stats = cluster.driver().cluster_stats();
    if stats.revivals < stats.deaths {
        return Err(fail(
            None,
            format!(
                "ledger inconsistent: {} deaths but only {} revivals after heal_all",
                stats.deaths, stats.revivals
            ),
        ));
    }
    for (peer, t) in cluster.endpoints().enumerate().skip(1) {
        let stats = t.stats();
        if stats.decode_errors > 0 || stats.oversized > 0 {
            return Err(fail(
                None,
                format!(
                    "host {peer} transport corruption: {} decode errors, {} oversized",
                    stats.decode_errors, stats.oversized
                ),
            ));
        }
    }
    Ok(ChaosReport {
        ops_run,
        faults_fired,
        stats,
        transport: cluster.driver().transport_stats(),
        faults: cluster
            .endpoints()
            .map(FaultTransport::fault_stats)
            .collect(),
    })
}

/// The result of shrinking a failing chaos case.
#[derive(Debug, Clone)]
pub struct ChaosShrinkOutcome {
    /// The minimised case (still failing).
    pub case: ChaosCase,
    /// The failure the minimised case still triggers.
    pub failure: ChaosFailure,
    /// Harness executions spent shrinking.
    pub executions: usize,
    /// Shrink candidates whose run panicked.
    pub panics: Panics,
}

/// ddmin over the step timeline: repeatedly removes chunks (halves down
/// to single steps) keeping every removal after which [`run_chaos`]
/// still fails.  The returned case always still fails; when the budget
/// runs out the partially shrunk case is returned.
pub fn shrink_chaos(case: &ChaosCase, max_executions: usize) -> ChaosShrinkOutcome {
    let failure = run_chaos(case).expect_err("shrink_chaos requires a case that fails");
    let budget = max_executions.saturating_sub(1);
    let (steps, failure, runs, panics) = ddmin(case.steps.clone(), failure, budget, |steps| {
        let steps = steps.to_vec();
        run_chaos(&ChaosCase { steps, ..*case }).err()
    });
    ChaosShrinkOutcome {
        case: ChaosCase { steps, ..*case },
        failure,
        executions: 1 + runs,
        panics,
    }
}

// ---------------------------------------------------------------------
// Reproducers
// ---------------------------------------------------------------------

fn encode_step(step: &ChaosStep) -> String {
    match step {
        ChaosStep::Op(op) => encode_op(op),
        ChaosStep::Fault(FaultEvent::Crash(p)) => format!("crash({p})"),
        ChaosStep::Fault(FaultEvent::Restart(p)) => format!("restart({p})"),
        ChaosStep::Fault(FaultEvent::Partition(g)) => format!("partition({g})"),
        ChaosStep::Fault(FaultEvent::Heal) => "heal()".to_string(),
    }
}

/// Serializes a chaos case (optionally annotating the failure it
/// triggers) in the testkit's `.ron` reproducer style.
fn encode_chaos_case(case: &ChaosCase, failure: Option<&ChaosFailure>) -> String {
    let mut out = String::new();
    out.push_str("// voronet-testkit chaos reproducer v1\n");
    if let Some(f) = failure {
        for line in f.to_string().lines() {
            let _ = writeln!(out, "// failure: {line}");
        }
    }
    let _ = writeln!(out, "(");
    let _ = writeln!(out, "    seed: {},", case.seed);
    let _ = writeln!(out, "    hosts: {},", case.hosts);
    let _ = writeln!(out, "    nmax: {},", case.nmax);
    let _ = writeln!(
        out,
        "    link: (drop: {}, duplicate: {}, delay: {}, delay_sends: {}),",
        case.link.drop, case.link.duplicate, case.link.delay, case.link.delay_sends
    );
    let _ = writeln!(out, "    steps: [");
    for step in &case.steps {
        let _ = writeln!(out, "        {},", encode_step(step));
    }
    let _ = writeln!(out, "    ],");
    out.push_str(")\n");
    out
}

impl Parser {
    fn chaos_step(&mut self) -> Result<ChaosStep, ReproError> {
        let fault_verb = match self.peek() {
            Some(Token::Ident(s)) => {
                matches!(s.as_str(), "crash" | "restart" | "partition" | "heal")
            }
            _ => false,
        };
        if !fault_verb {
            return Ok(ChaosStep::Op(self.op()?));
        }
        let verb = self.ident()?;
        self.punct('(')?;
        let event = match verb.as_str() {
            "crash" => FaultEvent::Crash(self.u64()?),
            "restart" => FaultEvent::Restart(self.u64()?),
            "partition" => FaultEvent::Partition(self.u64()?),
            _ => FaultEvent::Heal,
        };
        self.punct(')')?;
        Ok(ChaosStep::Fault(event))
    }
}

/// Parses a chaos reproducer back into the case it encodes.
pub fn parse_chaos_case(text: &str) -> Result<ChaosCase, ReproError> {
    let mut p = Parser {
        tokens: tokenize(text)?,
        pos: 0,
    };
    p.punct('(')?;
    p.key("seed")?;
    let seed = p.u64()?;
    p.punct(',')?;
    p.key("hosts")?;
    let hosts = p.u64()?;
    p.punct(',')?;
    p.key("nmax")?;
    let nmax = p.usize()?;
    p.punct(',')?;
    p.key("link")?;
    p.punct('(')?;
    p.key("drop")?;
    let drop = p.f64()?;
    p.punct(',')?;
    p.key("duplicate")?;
    let duplicate = p.f64()?;
    p.punct(',')?;
    p.key("delay")?;
    let delay = p.f64()?;
    p.punct(',')?;
    p.key("delay_sends")?;
    let delay_sends = p.u64()? as u32;
    p.punct(')')?;
    p.punct(',')?;
    p.key("steps")?;
    p.punct('[')?;
    let mut steps = Vec::new();
    loop {
        match p.peek() {
            Some(Token::Punct(']')) => {
                p.next()?;
                break;
            }
            Some(_) => {
                steps.push(p.chaos_step()?);
                if let Some(Token::Punct(',')) = p.peek() {
                    p.next()?;
                }
            }
            None => return Err(perr("unterminated steps list")),
        }
    }
    p.punct(',')?;
    p.punct(')')?;
    if p.peek().is_some() {
        return Err(perr(format!(
            "trailing tokens after case: {}",
            p.next().expect("peeked")
        )));
    }
    Ok(ChaosCase {
        seed,
        hosts,
        nmax,
        link: LinkFaults {
            drop,
            duplicate,
            delay,
            delay_sends,
        },
        steps,
    })
}

/// Writes a chaos reproducer under `dir` (created if missing) and
/// returns its path, never overwriting an existing witness.
pub fn write_chaos_reproducer(
    dir: &Path,
    case: &ChaosCase,
    failure: Option<&ChaosFailure>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("chaos-seed{}-{}steps", case.seed, case.steps.len());
    let mut path = dir.join(format!("{stem}.ron"));
    let mut n = 1usize;
    while path.exists() {
        n += 1;
        path = dir.join(format!("{stem}-{n}.ron"));
    }
    std::fs::write(&path, encode_chaos_case(case, failure))?;
    Ok(path)
}

/// Reads a chaos reproducer file.
pub fn read_chaos_reproducer(path: &Path) -> Result<ChaosCase, ReproError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| perr(format!("cannot read {}: {e}", path.display())))?;
    parse_chaos_case(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_schedules_faults() {
        let spec = ChaosSpec::smoke(11);
        let a = generate_chaos(&spec);
        let b = generate_chaos(&spec);
        assert_eq!(a, b);
        assert!(a
            .steps
            .iter()
            .any(|s| matches!(s, ChaosStep::Fault(FaultEvent::Crash(_)))));
        assert!(a.steps[..spec.warmup]
            .iter()
            .all(|s| matches!(s, ChaosStep::Op(WorkloadOp::Insert { .. }))));
        assert_ne!(a.steps, generate_chaos(&ChaosSpec::smoke(12)).steps);
    }

    #[test]
    fn chaos_cases_round_trip_through_reproducers() {
        let case = generate_chaos(&ChaosSpec {
            warmup: 6,
            ops: 40,
            ..ChaosSpec::smoke(11)
        });
        let text = encode_chaos_case(&case, None);
        assert_eq!(parse_chaos_case(&text).unwrap(), case);
        let annotated = encode_chaos_case(
            &case,
            Some(&ChaosFailure {
                step: Some(3),
                detail: "acked write lost".into(),
            }),
        );
        assert!(annotated.contains("// failure"));
        assert_eq!(parse_chaos_case(&annotated).unwrap(), case);
        assert!(parse_chaos_case(&text.replace("crash", "meteor")).is_err());
    }

    #[test]
    fn a_generated_chaos_timeline_survives_its_audit() {
        let report = run_chaos(&generate_chaos(&ChaosSpec {
            warmup: 16,
            ops: 60,
            ..ChaosSpec::smoke(5)
        }))
        .unwrap_or_else(|f| panic!("chaos audit failed: {f}"));
        assert!(report.ops_run > 0);
        assert!(report.faults_fired > 0, "the schedule must inject faults");
    }

    #[test]
    fn chaos_runs_replay_bit_for_bit() {
        // The committed reproducer and a generated odd seed, whose lossy
        // link rolls on every frame: a second run of either reproduces
        // every counter of the first.
        let committed = include_str!("../../../tests/chaos/chaos-seed11-148steps.ron");
        let lossy = generate_chaos(&ChaosSpec::smoke(2009));
        assert_ne!(lossy.link, LinkFaults::default());
        for case in [parse_chaos_case(committed).unwrap(), lossy] {
            let first = run_chaos(&case).unwrap_or_else(|f| panic!("chaos audit failed: {f}"));
            assert!(
                first.faults.iter().any(|f| f.crash_dropped > 0),
                "{first:?}"
            );
            assert_eq!(run_chaos(&case).unwrap(), first, "seed {}", case.seed);
        }
    }
}
