//! The differential harness: one script, three executions, zero tolerated
//! disagreement.
//!
//! [`run_case`] replays a [`FuzzCase`] simultaneously against
//!
//! 1. **sync** — `SyncEngine`, the live `VoroNet` walk over the overlay's
//!    routing rows, one op at a time (the reference execution);
//! 2. **cluster** — `voronet-net`'s bare `InlineCluster` on an ideal hub:
//!    a driver and three hosts exchanging wire frames, every route and
//!    area query walked host to host over the views the driver shipped,
//!    and every service op served by the driver's own plane (KV entries
//!    stored, mirrored and fetched at the hosts, publishes delivered
//!    there);
//! 3. **frozen** — every route served through a
//!    [`FrozenView`](voronet_core::FrozenView) delta-patched at each read
//!    ([`crate::frozen::FrozenReplay`]), whose rows are derived apart from
//!    the live ones;
//!
//! checking every [`OpResult`] element-wise across all three and against
//! the O(n²) [`OracleModel`].  The sync and frozen executions carry the
//! single-process service layer (`ServiceEngine`), the model the
//! cluster's own service plane is held to.  Every execution runs on an
//! ideal network: a cluster meeting loss, partitions and crashes is the
//! chaos harness's ([`crate::chaos::run_chaos`]).
//!
//! Each script op is resolved against the sync engine's live population
//! just before the sync engine applies it ([`resolve_op`]), so it can
//! address any object an earlier op created; the others then execute the
//! ops exactly as resolved.  Audit points close every round of
//! [`FuzzCase::round`] ops: populations, dense orders, coordinates,
//! aggregate stats, per-kind traffic counts and invariant audits (with
//! non-vacuity asserted via
//! [`InvariantAudit`](voronet_core::InvariantAudit) counts), the service
//! state — the frozen execution's whole `ServiceState` and the cluster
//! driver's subscriptions and KV placements against the sync model's,
//! and the model against the oracle — plus, while the population is
//! small, the oracle's brute-force Delaunay cross-check of the engine's
//! Voronoi neighbour relation.

use crate::frozen::{Fault, FrozenReplay};
use crate::grammar::FuzzCase;
use crate::oracle::OracleModel;
use voronet_api::{resolve_workload, Op, OpResult, Overlay, SyncEngine};
use voronet_core::VoroNetConfig;
use voronet_geom::Point2;
use voronet_net::InlineCluster;
use voronet_services::ServiceEngine;
use voronet_workloads::WorkloadOp;

/// Hosts of the fleet's cluster.
const HOSTS: u64 = 3;

/// A disagreement between executions (or between an execution and the
/// oracle): what the fuzzer hunts and the shrinker preserves.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index into the *resolved* op stream at which the disagreement
    /// surfaced (`None` for audit-point divergences).
    pub op_index: Option<usize>,
    /// Short machine-matchable label ("result:frozen", "oracle", …).
    pub kind: String,
    /// Full human-readable diagnostic.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "[{}] at op {}: {}", self.kind, i, self.detail),
            None => write!(f, "[{}]: {}", self.kind, self.detail),
        }
    }
}

/// What a divergence-free run covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Ops resolved and executed on every engine.
    pub ops_run: usize,
    /// Audit rounds (== audit points).
    pub rounds: usize,
    /// Final population.
    pub population: usize,
    /// Invariant checks performed across all audits (sum of audited
    /// nodes).
    pub invariants_checked: usize,
}

struct Fleet {
    sync: ServiceEngine<SyncEngine>,
    cluster: InlineCluster,
    frozen: ServiceEngine<FrozenReplay>,
    oracle: OracleModel,
}

impl Fleet {
    fn build(case: &FuzzCase, fault: Fault) -> Fleet {
        // Every execution serves service ops, so scripts mixing pub/sub
        // and KV traffic into the protocol stream exercise both service
        // planes at once — including the KV handoffs churn triggers.
        let config = VoroNetConfig::new(case.nmax).with_seed(case.seed);
        Fleet {
            sync: ServiceEngine::new(SyncEngine::new(config)),
            cluster: InlineCluster::start(HOSTS, config),
            frozen: ServiceEngine::new(FrozenReplay::new(config, fault)),
            oracle: OracleModel::new(&config),
        }
    }
}

fn result_divergence(
    engine: &str,
    base: usize,
    ops: &[Op],
    reference: &[OpResult],
    candidate: &[OpResult],
) -> Option<Divergence> {
    debug_assert_eq!(reference.len(), candidate.len());
    for (i, (want, got)) in reference.iter().zip(candidate).enumerate() {
        if want != got {
            return Some(Divergence {
                op_index: Some(base + i),
                kind: format!("result:{engine}"),
                detail: format!(
                    "op {:?} diverges on {engine}: reference (sync) {want:?}, {engine} {got:?}",
                    ops[i]
                ),
            });
        }
    }
    None
}

fn audit_fleet(fleet: &mut Fleet, round: usize, report: &mut RunReport) -> Result<(), Divergence> {
    let fail = |kind: &str, detail: String| Divergence {
        op_index: None,
        kind: kind.to_string(),
        detail: format!("audit after round {round}: {detail}"),
    };

    // Populations and dense orders agree everywhere.
    let ids = fleet.sync.ids();
    for (name, other) in [
        ("cluster", fleet.cluster.ids()),
        ("frozen", fleet.frozen.inner().net().ids().collect()),
    ] {
        if other != ids {
            return Err(fail(
                "audit:population",
                format!("dense id order diverges on {name}: sync {ids:?}, {name} {other:?}"),
            ));
        }
    }
    for &id in &ids {
        let c = fleet.sync.coords(id);
        for (name, other) in [
            ("cluster", fleet.cluster.coords(id)),
            ("frozen", fleet.frozen.inner().net().coords(id)),
        ] {
            if other != c {
                return Err(fail(
                    "audit:coords",
                    format!("coordinates of {id} diverge on {name}: {c:?} vs {other:?}"),
                ));
            }
        }
    }
    fleet
        .oracle
        .check_population("sync", &ids, |id| fleet.sync.coords(id))
        .map_err(|e| fail("audit:oracle", e))?;

    // Aggregate stats and per-kind traffic across the two deterministic
    // sync-semantics executions.
    let stats = fleet.sync.stats();
    let other = fleet.frozen.stats();
    if other != stats {
        return Err(fail(
            "audit:stats",
            format!("aggregate stats diverge on frozen: sync {stats:?}, frozen {other:?}"),
        ));
    }
    let sent = fleet.sync.inner().net().traffic();
    let other = fleet.frozen.inner().net().traffic();
    if other != sent {
        return Err(fail(
            "audit:traffic",
            format!("per-kind traffic diverges on frozen: sync {sent:?}, frozen {other:?}"),
        ));
    }

    // Structural invariants, with non-vacuous audits.  The exhaustive
    // O(n²) close-set reconstruction runs while it is cheap.
    let exhaustive = ids.len() <= 128;
    for (name, net) in [
        ("sync", fleet.sync.inner().net()),
        ("cluster", fleet.cluster.net()),
        ("frozen", fleet.frozen.inner().net()),
    ] {
        let audit = net
            .audit_invariants(exhaustive)
            .map_err(|e| fail("audit:invariants", format!("{name}: {e}")))?;
        if audit.nodes != ids.len() || audit.rows != audit.nodes {
            return Err(fail(
                "audit:invariants",
                format!(
                    "{name}: invariant audit visited {} nodes and compared {} routing rows \
                     for a population of {}",
                    audit.nodes,
                    audit.rows,
                    ids.len()
                ),
            ));
        }
        report.invariants_checked += audit.nodes;
    }

    // Service-layer state — subscriptions, topic sequence numbers, the
    // delivery ledger, the KV table with its placements, and the service
    // counters — agrees bit for bit between the two in-process service
    // layers and matches the oracle's naive model.  The cluster driver's
    // subscriptions and KV placements (value, owner, replicas: what its
    // hosts were told to hold) equal the model's.
    let service = fleet.sync.service_state();
    let other = fleet.frozen.service_state();
    if other != service {
        return Err(fail(
            "audit:services",
            format!("service state diverges on frozen: sync {service:?}, frozen {other:?}"),
        ));
    }
    let (subs, kv) = fleet.cluster.service_tables();
    if *subs != service.subscriptions || !kv.eq(&service.kv) {
        let kv: Vec<_> = fleet.cluster.service_tables().1.collect();
        return Err(fail(
            "audit:services",
            format!(
                "service tables diverge on cluster: sync {:?} / {:?}, cluster {subs:?} / {kv:?}",
                service.subscriptions, service.kv
            ),
        ));
    }
    fleet
        .oracle
        .check_service_state("sync", service)
        .map_err(|e| fail("audit:services", e))?;

    // Brute-force Delaunay cross-check while the population is small.
    if ids.len() <= 96 {
        let net = fleet.sync.inner().net();
        let targets: Vec<Point2> = (0..6)
            .map(|i| {
                let t = f64::from(i) / 6.0;
                Point2::new(0.07 + 0.86 * t, 0.93 - 0.86 * t)
            })
            .collect();
        fleet
            .oracle
            .delaunay_reference_check(
                |id| net.voronoi_neighbours(id).unwrap_or_default(),
                &targets,
            )
            .map_err(|e| fail("audit:delaunay", e))?;
    }
    Ok(())
}

/// Binds one script op to `engine`'s live population, the way
/// [`resolve_workload`] binds a batch: participant indices are taken
/// modulo the population, and an op naming a participant is dropped
/// (`None`) while the population is empty.
pub fn resolve_op(engine: &dyn Overlay, op: &WorkloadOp) -> Option<Op> {
    resolve_workload(engine, std::slice::from_ref(op)).pop()
}

/// Executes a case across the fleet.  `Ok` means every check of every
/// round passed; `Err` carries the first divergence.
pub fn run_case(case: &FuzzCase, fault: Fault) -> Result<RunReport, Divergence> {
    let mut fleet = Fleet::build(case, fault);
    let mut report = RunReport::default();
    let round_len = case.round.max(1);

    for (round, chunk) in case.script.chunks(round_len).enumerate() {
        // Each op is resolved just before the sync engine applies it, so
        // it can address objects any earlier op created.
        let mut ops = Vec::with_capacity(chunk.len());
        let mut reference = Vec::with_capacity(chunk.len());
        for step in chunk {
            if let Some(op) = resolve_op(&fleet.sync, step) {
                reference.push(fleet.sync.apply(&op));
                ops.push(op);
            }
        }
        let base = report.ops_run;

        let cluster = fleet.cluster.apply_batch(&ops);
        if let Some(d) = result_divergence("cluster", base, &ops, &reference, &cluster) {
            return Err(d);
        }
        let frozen: Vec<OpResult> = ops.iter().map(|op| fleet.frozen.apply(op)).collect();
        if let Some(d) = result_divergence("frozen", base, &ops, &reference, &frozen) {
            return Err(d);
        }
        for (i, (op, result)) in ops.iter().zip(&reference).enumerate() {
            fleet
                .oracle
                .check_apply(op, result)
                .map_err(|e| Divergence {
                    op_index: Some(base + i),
                    kind: "oracle".to_string(),
                    detail: e,
                })?;
        }

        report.ops_run += ops.len();
        report.rounds = round + 1;
        audit_fleet(&mut fleet, round, &mut report)?;
    }
    report.population = fleet.sync.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate_case, FuzzSpec};

    #[test]
    fn smoke_cases_run_divergence_free() {
        for seed in [1u64, 2] {
            let case = generate_case(&FuzzSpec {
                warmup: 16,
                ops: 96,
                ..FuzzSpec::smoke(seed)
            });
            let report = run_case(&case, Fault::None)
                .unwrap_or_else(|d| panic!("seed {seed}: unexpected divergence {d}"));
            assert!(report.ops_run > 0);
            assert!(report.population >= 2);
            assert!(report.invariants_checked > 0, "audits must not be vacuous");
        }
    }

    /// Ops resolve one at a time against the live population, so the
    /// first round's routes, queries and service ops address the objects
    /// its own inserts created instead of being dropped: every op of a
    /// script that never empties the population runs.
    #[test]
    fn every_script_op_runs() {
        let case = generate_case(&FuzzSpec {
            warmup: 16,
            ops: 96,
            ..FuzzSpec::smoke(5)
        });
        let report = run_case(&case, Fault::None).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.ops_run, case.script.len(), "{report:?}");
    }

    #[test]
    fn the_planted_fault_is_detected() {
        let case = generate_case(&FuzzSpec {
            warmup: 12,
            ops: 64,
            ..FuzzSpec::smoke(11)
        });
        let d = run_case(&case, Fault::FrozenRouteExtraHop)
            .expect_err("a wrong hop count must be caught");
        assert_eq!(d.kind, "result:frozen", "{d}");
        assert!(d.op_index.is_some());
    }
}
