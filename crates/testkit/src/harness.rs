//! The differential harness: one script, three executions plus a lossy
//! companion, zero tolerated disagreement.
//!
//! [`run_case`] replays a [`FuzzCase`] simultaneously against
//!
//! 1. **sync** — `SyncEngine`, the live `VoroNet` walk over the overlay's
//!    routing rows, one op at a time (the reference execution);
//! 2. **cluster** — `voronet-net`'s `InlineCluster` on an ideal hub: a
//!    driver and three hosts exchanging wire frames, every route and area
//!    query walked host to host over the views the driver shipped;
//! 3. **frozen** — every route served through a
//!    [`FrozenView`](voronet_core::FrozenView) delta-patched at each read
//!    ([`crate::frozen::FrozenReplay`]), whose rows are derived apart from
//!    the live ones;
//!
//! checking every [`OpResult`] element-wise across all three and against
//! the O(n²) [`OracleModel`].  When the case carries a lossy
//! [`NetProfile`], a fourth execution — a cluster on a hub with that
//! profile's loss, latency shifts and partition windows — runs beside
//! them.  The cluster resends what the network loses, but an op can still
//! run out of its retry budget (`OperationLost`) or meet a host the
//! failure detector declared dead (`Unavailable`), and its population then
//! lags the script, so it is checked for *sanity* instead: only those
//! failures (plus the unknown-object and duplicate-position errors a
//! lagging population causes), structural invariants intact after every
//! round.
//!
//! Audit points close every resolution round: populations, dense orders,
//! coordinates, aggregate stats, per-node sent counters and invariant
//! audits (with non-vacuity asserted via
//! [`InvariantAudit`](voronet_core::InvariantAudit) counts), plus — while
//! the population is small — the oracle's brute-force Delaunay
//! cross-check of the engine's Voronoi neighbour relation.

use crate::frozen::{Fault, FrozenReplay};
use crate::grammar::{FuzzCase, NetProfile};
use crate::oracle::OracleModel;
use std::time::Duration;
use voronet_api::{resolve_workload, Op, OpResult, Overlay, SyncEngine};
use voronet_core::{ErrorKind, VoroNetConfig};
use voronet_geom::Point2;
use voronet_net::{InlineCluster, RetryPolicy};
use voronet_services::ServiceEngine;
use voronet_sim::NetworkModel;

/// Hosts of every cluster in the fleet.
const HOSTS: u64 = 3;
/// Time budget of one op on the lossy cluster: 40 resends on the default
/// 25 ms cadence.  The default 30 s budget makes each op the network keeps
/// losing wait out 30 000 idle turns of the pump, and the 10k-op smoke
/// case then spends ~30 s of wall time on the ~200 ops it loses.
const LOSSY_BUDGET: Duration = Duration::from_secs(1);

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
    /// Resolution rounds (== audit points).
    pub rounds: usize,
    /// Final population.
    pub population: usize,
    /// Operations the lossy companion run lost to the network.
    pub lossy_lost: usize,
    /// Invariant checks performed across all audits (sum of audited
    /// nodes).
    pub invariants_checked: usize,
}

struct Fleet {
    sync: ServiceEngine<SyncEngine>,
    cluster: ServiceEngine<InlineCluster>,
    frozen: ServiceEngine<FrozenReplay>,
    lossy: Option<ServiceEngine<InlineCluster>>,
    oracle: OracleModel,
}

impl Fleet {
    fn build(case: &FuzzCase, fault: Fault) -> Fleet {
        // Every execution carries the service layer, so scripts mixing
        // pub/sub and KV traffic into the protocol stream exercise it on
        // all engines at once — including the KV ownership handoff hooks
        // that churn ops trigger.
        let config = VoroNetConfig::new(case.nmax).with_seed(case.seed);
        Fleet {
            sync: ServiceEngine::new(SyncEngine::new(config)),
            cluster: ServiceEngine::new(InlineCluster::start(HOSTS, config, NetworkModel::ideal())),
            frozen: ServiceEngine::new(FrozenReplay::new(config, fault)),
            lossy: match case.net {
                NetProfile::Ideal => None,
                lossy => Some(ServiceEngine::new({
                    let mut cluster = InlineCluster::start(HOSTS, config, lossy.network());
                    cluster.driver().set_retry_policy(RetryPolicy {
                        budget: LOSSY_BUDGET,
                        ..RetryPolicy::default()
                    });
                    cluster
                })),
            },
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

    // Aggregate stats and per-node sent counters across the two
    // deterministic sync-semantics executions.
    let stats = fleet.sync.stats();
    let other = fleet.frozen.stats();
    if other != stats {
        return Err(fail(
            "audit:stats",
            format!("aggregate stats diverge on frozen: sync {stats:?}, frozen {other:?}"),
        ));
    }
    for &id in &ids {
        let sent = fleet.sync.inner().net().sent_by(id);
        let other = fleet.frozen.inner().net().sent_by(id);
        if other != sent {
            return Err(fail(
                "audit:traffic",
                format!("per-node sent counter of {id} diverges on frozen: {sent:?} vs {other:?}"),
            ));
        }
    }

    // Structural invariants, with non-vacuous audits.  The exhaustive
    // O(n²) close-set reconstruction runs while it is cheap.
    let exhaustive = ids.len() <= 128;
    for (name, net) in [
        ("sync", fleet.sync.inner().net()),
        ("cluster", fleet.cluster.inner().net()),
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
    // counters — agrees bit for bit across the three deterministic
    // executions and matches the oracle's naive model.
    let service = fleet.sync.service_state();
    for (name, other) in [
        ("cluster", fleet.cluster.service_state()),
        ("frozen", fleet.frozen.service_state()),
    ] {
        if other != service {
            return Err(fail(
                "audit:services",
                format!("service state diverges on {name}: sync {service:?}, {name} {other:?}"),
            ));
        }
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

fn check_lossy(
    lossy: &mut ServiceEngine<InlineCluster>,
    base: usize,
    ops: &[Op],
    report: &mut RunReport,
) -> Result<(), Divergence> {
    let results = lossy.apply_batch(ops);
    for (i, result) in results.iter().enumerate() {
        if let OpResult::Failed(e) = result {
            match e.kind() {
                // An exhausted retry ladder, or a host the failure
                // detector declared dead failing fast: the cluster's own
                // failure modes under loss.
                ErrorKind::OperationLost | ErrorKind::Unavailable => report.lossy_lost += 1,
                // The lossy overlay's population legitimately lags the
                // script (lost joins), so later ops may reference objects
                // it never admitted or kept — and an insert the reference
                // rejected as a duplicate may collide differently here.
                ErrorKind::UnknownObject(_)
                | ErrorKind::UnknownBootstrap(_)
                | ErrorKind::DuplicatePosition(_) => {}
                other => {
                    return Err(Divergence {
                        op_index: Some(base + i),
                        kind: "lossy:error-kind".to_string(),
                        detail: format!(
                            "lossy run failed op {:?} with unexpected kind {other:?}: {e}",
                            ops[i]
                        ),
                    })
                }
            }
        }
    }
    // Only the *overlay* invariants are demanded here: the service
    // layer's owner-is-nearest KV invariant assumes reliable transport
    // (a loss-degraded route can legitimately resolve a put to a stale
    // owner, and a timed-out join skips the handoff hook), so it is
    // verified on the deterministic engines via the oracle's
    // service-state audit instead.
    lossy.inner().verify_invariants().map_err(|e| Divergence {
        op_index: None,
        kind: "lossy:invariants".to_string(),
        detail: format!("lossy run violated invariants: {e}"),
    })?;
    Ok(())
}

/// Executes a case across the fleet.  `Ok` means every check of every
/// round passed; `Err` carries the first divergence.
pub fn run_case(case: &FuzzCase, fault: Fault) -> Result<RunReport, Divergence> {
    let mut fleet = Fleet::build(case, fault);
    let mut report = RunReport::default();
    let round_len = case.round.max(1);

    for (round, chunk) in case.script.chunks(round_len).enumerate() {
        // Resolve participant indices against live state once per round,
        // so this round's ops can address objects earlier rounds created.
        let ops = resolve_workload(&fleet.sync, chunk);
        let base = report.ops_run;

        let reference: Vec<OpResult> = ops.iter().map(|op| fleet.sync.apply(op)).collect();
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
        if let Some(lossy) = fleet.lossy.as_mut() {
            check_lossy(lossy, base, &ops, &mut report)?;
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

    #[test]
    fn the_planted_fault_is_detected() {
        let case = generate_case(&FuzzSpec {
            warmup: 12,
            ops: 64,
            lossy: false,
            ..FuzzSpec::smoke(11)
        });
        let d = run_case(&case, Fault::FrozenRouteExtraHop)
            .expect_err("a wrong hop count must be caught");
        assert_eq!(d.kind, "result:frozen", "{d}");
        assert!(d.op_index.is_some());
    }
}
