//! Conformance suite for the backend-agnostic `Overlay` API: every test
//! runs against both engines through `Box<dyn Overlay>` — the synchronous
//! fast path and the message-level cluster (`InlineCluster`: a driver and
//! three hosts exchanging wire frames on one thread, the asynchronous
//! engine) — and the cross-engine tests additionally assert that the two
//! produce *identical* results on loss-free networks: owners, hop counts,
//! query matches and invariants.  Under loss the cluster resends; its
//! failures are the cluster's own (`OperationLost`, `Unavailable`).

use voronet::net::{
    FaultCtl, FaultTransport, InlineCluster, LinkFaults, Liveness, RetryPolicy, Transport, VnetHub,
    VnetTransport,
};
use voronet::prelude::*;
use voronet::sim::{LatencyModel, NetworkModel, TransportStats};
use voronet_api::{resolve_workload, InsertOutcome, RouteOutcome};
use voronet_workloads::{RadiusQuery, RangeQuery, WorkloadOp};

const NMAX: usize = 1_000;
const SEED: u64 = 2006;
const HOSTS: u64 = 3;

fn config() -> VoroNetConfig {
    OverlayBuilder::new(NMAX).seed(SEED).config()
}

fn cluster() -> InlineCluster {
    InlineCluster::start(HOSTS, config())
}

type LossyCluster = InlineCluster<FaultTransport<VnetTransport>>;

/// A cluster on a hub with the given latency whose every endpoint drops
/// `loss` of the frames it sends, through the fault layer; the
/// switchboard opens and heals partitions.
fn lossy_cluster(
    config: VoroNetConfig,
    latency: LatencyModel,
    loss: f64,
) -> (LossyCluster, FaultCtl) {
    let seed = config.seed;
    let hub = VnetHub::new(NetworkModel::new(seed, latency));
    let ctl = FaultCtl::new(LinkFaults {
        drop: loss,
        ..LinkFaults::default()
    });
    let net = InlineCluster::start_with(HOSTS, config, |peer| {
        FaultTransport::new(hub.endpoint(peer), ctl.clone(), seed)
    });
    (net, ctl)
}

/// Both engines, freshly built from the same configuration (an ideal hub
/// for the cluster, so results must agree).
fn backends() -> Vec<Box<dyn Overlay>> {
    vec![Box::new(SyncEngine::new(config())), Box::new(cluster())]
}

fn populate(net: &mut dyn Overlay, n: usize, seed: u64) -> Vec<ObjectId> {
    let mut points = PointGenerator::new(Distribution::Uniform, seed);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        match net.insert(points.next_point()) {
            Ok(outcome) => ids.push(outcome.id),
            Err(e) => match e.kind() {
                ErrorKind::DuplicatePosition(_) => continue,
                other => panic!("unexpected insert failure: {other:?}"),
            },
        }
    }
    ids
}

#[test]
fn insert_route_and_snapshot_conform_on_every_backend() {
    for mut net in backends() {
        let name = net.engine_name();
        assert!(net.is_empty(), "{name}: a fresh overlay is empty");
        let ids = populate(net.as_mut(), 150, 17);
        assert_eq!(net.len(), 150, "{name}");
        for &id in &ids {
            assert!(net.contains(id), "{name}");
            assert!(net.coords(id).is_some(), "{name}");
        }
        // `ids()` is the dense sampling order.
        assert_eq!(net.ids().len(), 150, "{name}");
        assert!(
            net.id_at(149).is_some() && net.id_at(150).is_none(),
            "{name}"
        );

        // Route termination: every route between live objects ends at the
        // destination (the owner of its own coordinates).
        let mut qg = QueryGenerator::new(23);
        for _ in 0..40 {
            let (a, b) = qg.object_pair(ids.len());
            let report = net.route_between(ids[a], ids[b]).unwrap();
            assert_eq!(report.owner, ids[b], "{name}: route must reach its target");
        }

        // Snapshots describe live state.
        let view = net.snapshot(ids[0]).unwrap();
        assert_eq!(view.id, ids[0], "{name}");
        assert!(view.size() > 0, "{name}");
        assert_eq!(view.long_links.len(), net.config().long_links, "{name}");

        // Errors come through the unified taxonomy.
        let dead = ObjectId(u64::MAX);
        assert!(matches!(
            net.route_between(dead, ids[0]).unwrap_err().kind(),
            ErrorKind::UnknownObject(_)
        ));
        assert!(matches!(
            net.remove(dead).unwrap_err().kind(),
            ErrorKind::UnknownObject(_)
        ));
        assert!(matches!(
            net.snapshot(dead).unwrap_err().kind(),
            ErrorKind::UnknownObject(_)
        ));

        net.verify_invariants().unwrap();
        let stats = net.stats();
        assert_eq!(stats.population, 150, "{name}");
        assert!(stats.messages > 0, "{name}");
        assert!(stats.routes_completed >= 40, "{name}");
    }
}

#[test]
fn join_leave_invariants_hold_on_every_backend() {
    for mut net in backends() {
        let name = net.engine_name();
        let ids = populate(net.as_mut(), 120, 31);
        // Remove a third of the population, interleaved with fresh joins.
        let mut points = PointGenerator::new(Distribution::Uniform, 37);
        for (i, &id) in ids.iter().enumerate().take(60) {
            if i % 3 == 0 {
                net.insert(points.next_point()).unwrap();
            }
            let removed = net.remove(id).unwrap();
            assert_eq!(removed.id, id, "{name}");
            assert!(!net.contains(id), "{name}: removed object must be gone");
        }
        assert_eq!(net.len(), 120 - 60 + 20, "{name}");
        net.verify_invariants().unwrap();

        // Routing still terminates after churn.
        let live = net.ids();
        let mut qg = QueryGenerator::new(41);
        for _ in 0..25 {
            let (a, b) = qg.object_pair(live.len());
            let report = net.route_between(live[a], live[b]).unwrap();
            assert_eq!(report.owner, live[b], "{name}");
        }
    }
}

#[test]
fn area_queries_match_brute_force_on_every_backend() {
    for mut net in backends() {
        let name = net.engine_name();
        let ids = populate(net.as_mut(), 200, 43);
        let rect = Rect::new(Point2::new(0.25, 0.3), Point2::new(0.65, 0.75));
        let expected: Vec<ObjectId> = {
            let mut v: Vec<ObjectId> = net
                .ids()
                .into_iter()
                .filter(|&id| rect.contains(net.coords(id).unwrap()))
                .collect();
            v.sort_unstable();
            v
        };
        let report = net.range(ids[0], RangeQuery { rect }).unwrap();
        assert_eq!(report.matches, expected, "{name}: range query correctness");
        assert!(report.visited >= report.matches.len(), "{name}");

        let disk = RadiusQuery {
            center: Point2::new(0.5, 0.5),
            radius: 0.2,
        };
        let expected: Vec<ObjectId> = {
            let mut v: Vec<ObjectId> = net
                .ids()
                .into_iter()
                .filter(|&id| net.coords(id).unwrap().distance(disk.center) <= disk.radius)
                .collect();
            v.sort_unstable();
            v
        };
        let report = net.radius(ids[5], disk).unwrap();
        assert_eq!(report.matches, expected, "{name}: radius query correctness");
    }
}

/// The heart of the suite: the synchronous engine and the message-level
/// cluster, driven through the same trait with the same seeds on a
/// loss-free network, agree operation for operation.
#[test]
fn sync_and_async_engines_agree_on_loss_free_networks() {
    let mut engines = backends();
    let mut split = engines.split_off(1);
    let (sync_net, cluster_net) = (engines[0].as_mut(), split[0].as_mut());

    // Identical insert sequences produce identical populations.
    let sync_ids = populate(sync_net, 180, 53);
    let cluster_ids = populate(cluster_net, 180, 53);
    assert_eq!(sync_ids, cluster_ids, "assigned ids must agree");
    for &id in &sync_ids {
        assert_eq!(sync_net.coords(id), cluster_net.coords(id));
    }

    // Identical routes: same owners, same hop counts.
    let mut qg = QueryGenerator::new(59);
    for _ in 0..60 {
        let (a, b) = qg.object_pair(sync_ids.len());
        let s = sync_net.route_between(sync_ids[a], sync_ids[b]).unwrap();
        let r = cluster_net
            .route_between(cluster_ids[a], cluster_ids[b])
            .unwrap();
        assert_eq!(s.owner, r.owner, "owners must agree on a loss-free network");
        assert_eq!(s.hops, r.hops, "hop counts must agree with fresh views");
    }

    // Identical area queries, flood accounting included.
    let rect = Rect::new(Point2::new(0.1, 0.2), Point2::new(0.5, 0.6));
    let s = sync_net.range(sync_ids[3], RangeQuery { rect }).unwrap();
    let r = cluster_net
        .range(cluster_ids[3], RangeQuery { rect })
        .unwrap();
    assert_eq!(s, r);

    // Identical removals keep both engines aligned.
    for &id in sync_ids.iter().take(40) {
        sync_net.remove(id).unwrap();
        cluster_net.remove(id).unwrap();
    }
    assert_eq!(sync_net.len(), cluster_net.len());
    sync_net.verify_invariants().unwrap();
    cluster_net.verify_invariants().unwrap();
    let mut qg = QueryGenerator::new(61);
    let live = sync_net.ids();
    assert_eq!(live, cluster_net.ids(), "dense orders must stay aligned");
    for _ in 0..30 {
        let (a, b) = qg.object_pair(live.len());
        let s = sync_net.route_between(live[a], live[b]).unwrap();
        let r = cluster_net.route_between(live[a], live[b]).unwrap();
        assert_eq!((s.owner, s.hops), (r.owner, r.hops));
    }
}

/// Routes to arbitrary points — not only to object coordinates, and a
/// fifth of them outside the unit square, where the hull objects own the
/// plane — reach the same owner in the same hops on both engines, one at
/// a time and pipelined in a batch.
#[test]
fn routes_to_arbitrary_points_agree_across_engines() {
    let mut engines = backends();
    let mut split = engines.split_off(1);
    let (sync_net, cluster_net) = (engines[0].as_mut(), split[0].as_mut());
    let ids = populate(sync_net, 200, 83);
    assert_eq!(populate(cluster_net, 200, 83), ids);

    let mut qg = QueryGenerator::new(89);
    let ops: Vec<Op> = (0..500)
        .map(|i| {
            let from = ids[qg.object_index(ids.len())];
            let p = qg.point();
            // Every fifth target is pushed out of the square: scaled from
            // [0, 1]² to [-1, 2]² and then off whichever side is nearer.
            let target = if i % 5 == 0 {
                let q = Point2::new(3.0 * p.x - 1.0, 3.0 * p.y - 1.0);
                if (0.0..=1.0).contains(&q.x) && (0.0..=1.0).contains(&q.y) {
                    Point2::new(q.x, q.y + if q.y < 0.5 { -1.0 } else { 1.0 })
                } else {
                    q
                }
            } else {
                p
            };
            Op::Route { from, target }
        })
        .collect();
    let outside = ops
        .iter()
        .filter(|op| match op {
            Op::Route { target, .. } => {
                !(0.0..=1.0).contains(&target.x) || !(0.0..=1.0).contains(&target.y)
            }
            _ => false,
        })
        .count();
    assert_eq!(outside, 100);

    let reference: Vec<OpResult> = ops.iter().map(|op| sync_net.apply(op)).collect();
    assert!(reference.iter().all(|r| r.as_routed().is_some()));
    let single: Vec<OpResult> = ops.iter().map(|op| cluster_net.apply(op)).collect();
    assert_eq!(single, reference, "one route at a time");
    assert_eq!(cluster_net.apply_batch(&ops), reference, "pipelined");
}

/// The same generated workload script, resolved and batch-applied on both
/// engines, yields element-wise identical results.
#[test]
fn batched_workloads_agree_across_engines() {
    let mut engines = backends();
    let mut split = engines.split_off(1);
    let (sync_net, cluster_net) = (engines[0].as_mut(), split[0].as_mut());
    populate(sync_net, 150, 67);
    populate(cluster_net, 150, 67);

    let mut gen = OpBatchGenerator::new(Distribution::Uniform, 71, OpMix::read_heavy());
    let script: Vec<WorkloadOp> = gen.batch(150, 200);

    let sync_ops = resolve_workload(sync_net, &script);
    let cluster_ops = resolve_workload(cluster_net, &script);
    assert_eq!(sync_ops, cluster_ops, "resolution must agree");

    let sync_results = sync_net.apply_batch(&sync_ops);
    let cluster_results = cluster_net.apply_batch(&cluster_ops);
    assert_eq!(sync_results.len(), cluster_results.len());
    for (i, (s, r)) in sync_results.iter().zip(&cluster_results).enumerate() {
        assert_eq!(s, r, "batch op {i} ({:?}) must agree", sync_ops[i]);
    }
    assert!(
        sync_results.iter().all(OpResult::is_ok),
        "loss-free batches succeed"
    );

    sync_net.verify_invariants().unwrap();
    cluster_net.verify_invariants().unwrap();
    assert_eq!(sync_net.len(), cluster_net.len());
}

/// The cluster's batching lever is *virtual* time, not host time: on a
/// lossy cluster a batch of routes is pumped together, so one route's resend
/// waits overlap the others', while one-at-a-time submission pays every
/// wait back to back.  The hub's clock moves only on idle turns, so the
/// gate is a count of them — no wall clock involved.
///
/// At 10 % loss on every link, each lost frame must be recovered by a
/// fast resend inside the first attempt window: no attempt window closes
/// (no retry), no route waits one out (virtual p99 below
/// `RetryPolicy::tight().base` — the retry stall this gate was written
/// for sat at ~107 ms), and a second run replays identically.
#[test]
fn async_batches_pipeline_in_simulated_time() {
    let run = || {
        let (mut net, _) = lossy_cluster(config(), LatencyModel::Fixed(1), 0.10);
        net.driver().set_retry_policy(RetryPolicy::tight());
        populate(&mut net, 400, 61);
        let mut gen = OpBatchGenerator::new(Distribution::Uniform, 67, OpMix::routes_only());
        let routes = resolve_workload(&net, &gen.batch(400, 64));
        assert_eq!(routes.len(), 64);

        let mut latency_us = Vec::new();
        let t0 = net.now();
        let per_op: Vec<OpResult> = (routes.iter())
            .map(|op| {
                let start = net.now();
                let result = net.apply(op);
                latency_us.push((net.now() - start).as_secs_f64() * 1e6);
                result
            })
            .collect();
        let per_op_time = net.now() - t0;
        let t0 = net.now();
        let batched = net.apply_batch(&routes);
        let batch_time = net.now() - t0;
        let stats = net.driver().cluster_stats();
        (per_op, per_op_time, batched, batch_time, latency_us, stats)
    };
    let first = run();
    let (per_op, per_op_time, batched, batch_time, latency_us, stats) = &first;

    assert!(per_op.iter().all(|r| r.as_routed().is_some()), "resent");
    assert_eq!(batched, per_op, "batching must not change any result");
    assert!(
        *batch_time * 4 < *per_op_time,
        "64 batched routes took {batch_time:?} of virtual time, one at a time {per_op_time:?}"
    );
    assert_eq!(stats.retries, 0, "an attempt window closed: {stats:?}");
    assert!(stats.fast_resends > 0, "no frame was lost: {stats:?}");
    // Nearest rank, the benchmark's quantile rule: the ceil(0.99·n)-th
    // smallest of the 64 latencies, which is their maximum (2 214 µs).
    let mut sorted = latency_us.clone();
    sorted.sort_by(f64::total_cmp);
    let p99 = sorted[(0.99 * sorted.len() as f64).ceil() as usize - 1];
    let window_us = RetryPolicy::tight().base.as_secs_f64() * 1e6;
    assert!(
        p99 < window_us,
        "virtual p99 {p99:.1}us waited out an attempt window ({window_us:.0}us)"
    );
    assert!(first == run(), "a second run must replay identically");
}

/// Under loss the cluster resends: at 35 % loss every operation still
/// gives the loss-free answer.  At 60 % it cannot always, and then it
/// fails through the unified taxonomy with the cluster's own
/// failure modes — a retry ladder run out (`OperationLost`) or a host the
/// failure detector declared dead (`Unavailable`) — and never corrupts the
/// overlay.
#[test]
fn lossy_async_engine_reports_lost_operations() {
    type Script = (
        Vec<Result<InsertOutcome, VoronetError>>,
        Vec<ObjectId>,
        Vec<Result<RouteOutcome, VoronetError>>,
    );
    fn script<T: Transport>(net: &mut InlineCluster<T>) -> Script {
        let mut points = PointGenerator::new(Distribution::Uniform, 73);
        let mut results = Vec::new();
        let inserts: Vec<_> = (0..120).map(|_| net.insert(points.next_point())).collect();
        let inserted: Vec<ObjectId> = inserts
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|o| o.id))
            .collect();
        let mut qg = QueryGenerator::new(79);
        for _ in 0..80 {
            let (a, b) = qg.object_pair(inserted.len());
            results.push(net.route_between(inserted[a], inserted[b]));
        }
        (inserts, inserted, results)
    }
    let lossy =
        |loss: f64| lossy_cluster(config(), LatencyModel::Uniform { min: 1, max: 10 }, loss).0;

    let mut ideal = cluster();
    let expected = script(&mut ideal);
    let mut net = lossy(0.35);
    // A ping exchange fails 58 % of the time at 35 % loss, so the default
    // detector (dead after 6 missed windows: 0.58⁶ ≈ 4 %) now and then
    // declares a live host dead and its ops fail fast.  After 20 missed
    // windows (0.58²⁰ ≈ 2·10⁻⁵) it does not.
    net.driver().set_liveness(Liveness {
        suspect_after: 10,
        dead_after: 20,
        ..Liveness::default()
    });
    let got = script(&mut net);
    assert_eq!(got, expected, "35% loss must not change any answer");
    assert_eq!(net.len(), got.1.len(), "len() counts the Ok inserts");
    let stats = net.driver().cluster_stats();
    assert!(stats.fast_resends > 0, "{stats:?}");
    net.verify_invariants().unwrap();

    let mut net = lossy(0.6);
    let (inserts, _, routes) = script(&mut net);
    let failures: Vec<ErrorKind> = inserts
        .iter()
        .map(|r| r.as_ref().map(drop))
        .chain(routes.iter().map(|r| r.as_ref().map(drop)))
        .filter_map(|r| r.err().map(|e| e.kind().clone()))
        .collect();
    assert!(!failures.is_empty(), "60% loss must fail something");
    assert!(
        failures
            .iter()
            .all(|k| matches!(k, ErrorKind::OperationLost | ErrorKind::Unavailable)),
        "60% loss: {failures:?}"
    );
    net.verify_invariants().unwrap();
}

/// A churn script in which well over 1 000 objects take part — 1 000
/// joins, then joins, departures, routes and area queries — on a lossy
/// cluster that is partitioned for one of its batches runs bit-identically
/// twice: every per-op result, the driver's `ClusterStats` and the summed
/// `TransportStats` of its endpoints.  Another seed gives a different
/// run.  The loss is 3 %: every lost frame costs idle turns of the pump,
/// and at 10 % the three runs take ~10 s of the debug suite.
#[test]
fn thousand_node_lossy_scenario_is_deterministic() {
    let run = |seed: u64| {
        let latency = LatencyModel::Skewed {
            min: 1,
            max: 60,
            alpha: 1.2,
        };
        let config = VoroNetConfig::new(2_000).with_seed(seed);
        let (mut net, ctl) = lossy_cluster(config, latency, 0.03);
        let mut warm = PointGenerator::new(Distribution::Uniform, seed ^ 0xCAFE);
        let mut results: Vec<OpResult> = (0..1_000)
            .map(|_| {
                net.apply(&Op::Insert {
                    position: warm.next_point(),
                })
            })
            .collect();
        let mut gen =
            OpBatchGenerator::new(Distribution::Uniform, seed ^ 0xF00D, OpMix::churn_zipf());
        for batch in 0..10 {
            match batch {
                4 => ctl.partition(2),
                5 => ctl.heal(),
                _ => {}
            }
            let script = gen.batch(net.len(), 40);
            let ops = resolve_workload(&net, &script);
            results.extend(net.apply_batch(&ops));
        }
        let stats = net.driver().cluster_stats();
        let mut transport = TransportStats::new();
        for t in net.endpoints() {
            transport.merge(&t.stats());
        }
        (results, stats, transport)
    };
    let (a, b, c) = std::thread::scope(|s| {
        let [a, b, c] = [2006, 2006, 2007].map(|seed| s.spawn(move || run(seed)));
        let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("run panicked");
        (join(a), join(b), join(c))
    });
    assert_eq!(a, b, "same seed must replay bit-identically");

    let joined = a.0.iter().filter(|r| r.as_inserted().is_some()).count();
    let left =
        a.0.iter()
            .filter(|r| matches!(r, OpResult::Removed(_)))
            .count();
    let routed = a.0.iter().filter(|r| r.as_routed().is_some()).count();
    let queried =
        a.0.iter()
            .filter(|r| matches!(r, OpResult::Queried(_)))
            .count();
    assert!(joined > 1_000, "{joined} objects joined");
    assert!(
        left > 20 && routed > 100 && queried > 10,
        "{left} {routed} {queried}"
    );
    let (_, cluster, transport) = &a;
    assert!(transport.dropped_loss > 0, "{transport:?}");
    assert!(transport.dropped_partition > 0, "{transport:?}");
    assert!(cluster.fast_resends > 0, "{cluster:?}");

    assert_ne!(
        (&a.1, &a.2),
        (&c.1, &c.2),
        "another seed must run differently"
    );
}
