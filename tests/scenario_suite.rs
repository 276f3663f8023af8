//! Properties of the heavy-traffic scenario suite (`voronet_workloads::scenario`).
//!
//! The scenario generators script production-shaped pathologies as plain
//! op streams; these tests replay them against the live overlay and the
//! inline cluster and gate on counts and the cluster's virtual clock,
//! never on wall time:
//!
//! - a flash crowd into one Voronoi cell drives the population past the
//!   provisioned `N_max` and triggers exactly the adaptation rounds the
//!   [`AdaptationPolicy`] predicts, with overlay invariants intact after
//!   the burst;
//! - every scripted route still terminates at its target, and greedy
//!   point location agrees with the O(n²) nearest-scan oracle even while
//!   the crowd is packing one cell;
//! - every scenario kind, replayed through the pipelined cluster driver,
//!   answers every route with the live walk's owner and hop count, and a
//!   10 %-loss hotspot run recovers every lost frame by fast resend,
//!   within one attempt window of virtual time, the same way on every run.
//!   `VORONET_SMOKE` shrinks these replays.

use rand::RngExt;
use voronet_core::dynamic::{adapt_nmax, needs_adaptation, AdaptationPolicy};
use voronet_core::{ObjectId, RouteScratch, VoroNet, VoroNetConfig};
use voronet_geom::Point2;
use voronet_net::{
    ClusterStats, FaultCtl, FaultTransport, InlineCluster, LinkFaults, Liveness, RetryPolicy,
    VnetHub, VnetTransport,
};
use voronet_sim::NetworkModel;
use voronet_stats::tail_summary;
use voronet_testkit::{check_cases, tk_ensure, tk_ensure_eq};
use voronet_workloads::{smoke_budget, Scenario, ScenarioKind, ScenarioSpec, WorkloadOp};

/// O(n) nearest-object scan — the oracle the greedy walk must agree
/// with (scanning per query makes the whole check the O(n²) oracle).
fn brute_force_owner(net: &VoroNet, target: Point2) -> Option<u64> {
    net.ids()
        .map(|id| (net.coords(id).expect("live").distance2(target), id.0))
        .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
        .map(|(_, id)| id)
}

/// A flash crowd packed into one cell must (a) trigger exactly the
/// adaptation rounds the policy predicts as the population crosses
/// `N_max`, (b) keep every scripted route exact, and (c) keep greedy
/// point location in agreement with the brute-force oracle inside and
/// around the crowded cell.
#[test]
fn flash_crowd_triggers_adaptation_and_keeps_routes_exact() {
    check_cases(
        "flash-crowd-triggers-adaptation",
        24,
        0xF1A5,
        |rng| {
            let seed = rng.random::<u64>();
            let population = rng.random_range(24..64usize);
            let ops = rng.random_range(48..96usize);
            (seed, population, ops)
        },
        |&(seed, population, ops)| {
            let scenario = Scenario::build(&ScenarioSpec::new(
                ScenarioKind::FlashCrowd,
                seed,
                population,
                ops,
            ));
            let hot = scenario.hot_region.expect("flash crowd has a hot cell");

            // Provision for the warm-up exactly: the crowd's arrivals are
            // what pushes the population past N_max.
            let nmax0 = scenario.setup.len();
            let policy = AdaptationPolicy::default();
            let mut net = VoroNet::new(VoroNetConfig::new(nmax0).with_seed(seed));
            for &p in &scenario.setup {
                if net.insert(p).is_err() {
                    return Err("warm-up insert rejected".into());
                }
            }

            let mut scratch = RouteScratch::default();
            let mut adaptations = 0usize;
            let mut crowd = 0usize;
            for (i, op) in scenario.phases[0].ops.iter().enumerate() {
                match *op {
                    WorkloadOp::Insert { position } => {
                        tk_ensure!(hot.contains(position), "arrival outside the cell");
                        tk_ensure!(
                            net.insert(position).is_ok(),
                            "crowd insert {i} rejected at {position}"
                        );
                        crowd += 1;
                        if needs_adaptation(&net, &policy) {
                            let report = adapt_nmax(&mut net, &policy)
                                .map_err(|e| format!("adaptation failed: {e}"))?
                                .ok_or("needs_adaptation promised a round")?;
                            tk_ensure!(
                                report.new_nmax > report.old_nmax,
                                "adaptation must grow N_max"
                            );
                            adaptations += 1;
                        }
                    }
                    WorkloadOp::Route { from, to } => {
                        let a = net.id_at(from).ok_or("scripted from out of range")?;
                        let b = net.id_at(to).ok_or("scripted to out of range")?;
                        let (owner, hops) = net
                            .route_between_in(a, b, &mut scratch)
                            .map_err(|e| format!("route {from}->{to} failed: {e}"))?;
                        tk_ensure_eq!(owner, b, "route must terminate at its target");
                        tk_ensure!(
                            (hops as usize) < net.len(),
                            "greedy route revisited objects"
                        );
                        // Every few routes, cross-check point location
                        // against the O(n) scan — inside the crowded cell,
                        // where the geometry is at its densest.
                        if i % 5 == 0 {
                            let target = Point2::new(
                                hot.min.x + (i as f64 * 0.137).fract() * hot.width(),
                                hot.min.y + (i as f64 * 0.311).fract() * hot.height(),
                            );
                            let (owner, _) = net
                                .route_to_point_in(a, target, &mut scratch)
                                .map_err(|e| format!("point route failed: {e}"))?;
                            tk_ensure_eq!(
                                Some(owner.0),
                                brute_force_owner(&net, target),
                                "greedy owner disagrees with the brute-force scan"
                            );
                        }
                    }
                    ref other => return Err(format!("unexpected op {other:?}")),
                }
            }

            // The crowd grew the population from nmax0 to nmax0 + crowd,
            // so the 1.0-threshold policy must have fired exactly once
            // (growth ×4 reprovisions far past the final population).
            tk_ensure!(crowd > 0, "no arrivals scripted");
            tk_ensure_eq!(adaptations, 1, "crowd of {crowd} over N_max {nmax0}");
            tk_ensure!(
                net.config().nmax >= net.len(),
                "adaptation must keep the overlay provisioned: N_max {} for {} objects",
                net.config().nmax,
                net.len()
            );
            net.check_invariants(true)
                .map_err(|e| format!("invariants broken after the crowd: {e}"))?;
            Ok(())
        },
    );
}

/// Mass churn replayed on the live overlay: every scripted removal hits
/// a live object, the region empties and refills, and routing stays
/// exact through both transitions.
#[test]
fn mass_churn_replay_keeps_the_overlay_consistent() {
    check_cases(
        "mass-churn-replay-consistent",
        16,
        0x3C44,
        |rng| (rng.random::<u64>(), rng.random_range(32..80usize)),
        |&(seed, population)| {
            let scenario = Scenario::build(&ScenarioSpec::new(
                ScenarioKind::MassChurn,
                seed,
                population,
                96,
            ));
            let mut net = VoroNet::new(VoroNetConfig::new(population * 2).with_seed(seed));
            for &p in &scenario.setup {
                if net.insert(p).is_err() {
                    return Err("warm-up insert rejected".into());
                }
            }
            let mut scratch = RouteScratch::default();
            for op in scenario.phases.iter().flat_map(|p| &p.ops) {
                match *op {
                    WorkloadOp::Insert { position } => {
                        tk_ensure!(net.insert(position).is_ok(), "rejoin insert rejected");
                    }
                    WorkloadOp::Remove { index } => {
                        let id = net.id_at(index).ok_or("scripted remove out of range")?;
                        tk_ensure!(net.remove(id).is_ok(), "scripted removal failed");
                    }
                    WorkloadOp::Route { from, to } => {
                        let a = net.id_at(from).ok_or("from out of range")?;
                        let b = net.id_at(to).ok_or("to out of range")?;
                        let (owner, _) = net
                            .route_between_in(a, b, &mut scratch)
                            .map_err(|e| format!("route failed mid-churn: {e}"))?;
                        tk_ensure_eq!(owner, b, "route must terminate at its target");
                    }
                    ref other => return Err(format!("unexpected op {other:?}")),
                }
            }
            tk_ensure_eq!(net.len(), scenario.setup.len(), "exodus must fully rejoin");
            net.check_invariants(true)
                .map_err(|e| format!("invariants broken after churn: {e}"))?;
            Ok(())
        },
    );
}

const REPLAY_SEED: u64 = 0x5CE7A;
const HOSTS: u64 = 3;
const PIPELINE_WINDOW: usize = 8;

/// `(population, ops)` of the live-walk and of the cluster replays.
fn replay_sizes() -> ((usize, usize), (usize, usize)) {
    if smoke_budget() {
        ((48, 64), (24, 40))
    } else {
        ((256, 400), (64, 120))
    }
}

/// The live walk from the `from`-th towards the `to`-th object, both
/// taken modulo the population, as the cluster driver indexes them:
/// `(destination, owner, hops)`.
fn live_route(
    net: &VoroNet,
    from: usize,
    to: usize,
    scratch: &mut RouteScratch,
) -> (ObjectId, ObjectId, u32) {
    let n = net.len();
    let a = net.id_at(from % n).expect("index below len");
    let b = net.id_at(to % n).expect("index below len");
    let (owner, hops) = net.route_between_in(a, b, scratch).expect("route");
    (b, owner, hops)
}

/// Replays `sc` on the live overlay; every route must end at its
/// destination object.  Returns the most hops any route took.
fn live_walk_hop_max(sc: &Scenario) -> u32 {
    let mut net = VoroNet::new(VoroNetConfig::new(512).with_seed(REPLAY_SEED));
    for &p in &sc.setup {
        let _ = net.insert(p);
    }
    let mut scratch = RouteScratch::default();
    let mut hop_max = 0;
    for op in sc.phases.iter().flat_map(|p| &p.ops) {
        match *op {
            WorkloadOp::Insert { position } => {
                let _ = net.insert(position);
            }
            WorkloadOp::Remove { index } => {
                let id = net.id_at(index % net.len()).expect("index below len");
                let _ = net.remove(id);
            }
            WorkloadOp::Route { from, to } => {
                let (destination, owner, hops) = live_route(&net, from, to, &mut scratch);
                assert_eq!(
                    owner, destination,
                    "route {from}->{to} must end at its destination"
                );
                hop_max = hop_max.max(hops);
            }
            ref other => panic!("unexpected op {other:?}"),
        }
    }
    hop_max
}

/// One cluster replay: every route's virtual latency, in stream order,
/// and the driver's counters at the end.
#[derive(Debug, PartialEq)]
struct ClusterRun {
    latency_us: Vec<f64>,
    stats: ClusterStats,
}

impl ClusterRun {
    fn p99_us(&self) -> f64 {
        tail_summary(&self.latency_us)
            .expect("routes completed")
            .p99
    }
}

/// Replays `sc` against an inline cluster whose every link suffers
/// `link`.  Consecutive routes travel as one pipelined batch; before a
/// batch goes out, the driver's own overlay routes each pair, and every
/// answer must carry that owner and hop count: no route may be lost.
fn cluster_replay(sc: &Scenario, link: LinkFaults) -> ClusterRun {
    type Cluster = InlineCluster<FaultTransport<VnetTransport>>;
    let hub = VnetHub::new(NetworkModel::ideal());
    let ctl = FaultCtl::new(link);
    let config = VoroNetConfig::new(512).with_seed(REPLAY_SEED);
    let mut cluster = InlineCluster::start_with(HOSTS, config, |peer| {
        FaultTransport::new(hub.endpoint(peer), ctl.clone(), REPLAY_SEED)
    });
    cluster.driver().set_retry_policy(RetryPolicy::tight());
    cluster.driver().set_liveness(Liveness::tight());
    for &p in &sc.setup {
        cluster.driver().insert(p).expect("setup insert");
    }
    let mut latency_us = Vec::new();
    let mut batch: Vec<(usize, usize)> = Vec::new();
    let mut flush = |cluster: &mut Cluster, batch: &mut Vec<(usize, usize)>| {
        if batch.is_empty() {
            return;
        }
        let net = cluster.driver().net();
        let mut scratch = RouteScratch::default();
        let expected: Vec<_> = batch
            .iter()
            .map(|&(from, to)| {
                let (_, owner, hops) = live_route(net, from, to, &mut scratch);
                Some((owner.0, hops))
            })
            .collect();
        let results = cluster
            .driver()
            .route_indices_pipelined(batch, PIPELINE_WINDOW)
            .expect("pipelined batch");
        for ((r, want), &(from, to)) in results.iter().zip(&expected).zip(batch.iter()) {
            assert_eq!(
                r.owner_hops, *want,
                "route {from}->{to}: (owner, hops) must equal the live walk's, and no route may be lost"
            );
            latency_us.push(r.latency.as_secs_f64() * 1e6);
        }
        batch.clear();
    };
    for op in sc.phases.iter().flat_map(|p| &p.ops) {
        match *op {
            WorkloadOp::Route { from, to } => batch.push((from, to)),
            WorkloadOp::Insert { position } => {
                flush(&mut cluster, &mut batch);
                cluster.driver().insert(position).expect("insert");
            }
            WorkloadOp::Remove { .. } => {
                flush(&mut cluster, &mut batch);
                cluster.driver().apply(op).expect("remove");
            }
            ref other => panic!("unexpected op {other:?}"),
        }
    }
    flush(&mut cluster, &mut batch);
    ClusterRun {
        latency_us,
        stats: cluster.driver().cluster_stats(),
    }
}

/// Every scenario kind, replayed on the live walk and through the
/// pipelined cluster driver on an ideal hub: routes end where the live
/// walk ends, hop for hop, and nothing retries or waits.  The hotspot
/// stream is replayed once more with 10 % frame loss on every link: the
/// loss must be exercised (fast resends), recovered inside the first
/// attempt window (no retry, and a virtual p99 below one attempt
/// timeout — the retry stall this gate was written for sat at ~107 ms),
/// and replayed identically by a second run.
#[test]
fn scenario_replays_match_the_live_walk_on_the_virtual_clock() {
    let ((population, ops), (cluster_population, cluster_ops)) = replay_sizes();
    for kind in ScenarioKind::all() {
        let name = kind.name();
        let scenario = Scenario::build(&ScenarioSpec::new(kind, REPLAY_SEED, population, ops));
        let hop_max = live_walk_hop_max(&scenario);
        println!("{name}: live walk hop max {hop_max}");

        let scenario = Scenario::build(&ScenarioSpec::new(
            kind,
            REPLAY_SEED,
            cluster_population,
            cluster_ops,
        ));
        let ideal = cluster_replay(&scenario, LinkFaults::default());
        assert_eq!(
            (ideal.stats.retries, ideal.stats.fast_resends),
            (0, 0),
            "{name}: an ideal hub needs no resend: {:?}",
            ideal.stats
        );
        assert_eq!(
            ideal.p99_us(),
            0.0,
            "{name}: nothing may wait on an ideal hub"
        );

        if kind == ScenarioKind::ZipfHotspot {
            let lossy = cluster_replay(&scenario, LinkFaults::lossy(0.10));
            let (p99, s) = (lossy.p99_us(), &lossy.stats);
            println!(
                "{name}/lossy: virtual p99 {p99:.1}us, retries {}, fast resends {}",
                s.retries, s.fast_resends
            );
            assert_eq!(
                s.retries, 0,
                "{name}/lossy: an attempt window closed: {s:?}"
            );
            assert!(s.fast_resends > 0, "{name}/lossy: no frame was lost: {s:?}");
            let window_us = RetryPolicy::tight().base.as_secs_f64() * 1e6;
            assert!(
                p99 < window_us,
                "{name}/lossy: virtual p99 {p99:.1}us waited out an attempt window ({window_us:.0}us)"
            );
            assert_eq!(
                lossy,
                cluster_replay(&scenario, LinkFaults::lossy(0.10)),
                "{name}/lossy: a second run must replay identically"
            );
        }
    }
}
