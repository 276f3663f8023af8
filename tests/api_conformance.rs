//! Conformance suite for the backend-agnostic `Overlay` API: every test
//! runs against both engines through `Box<dyn Overlay>`, and the
//! cross-engine tests additionally assert that the synchronous fast path
//! and the message-driven runtime produce *identical* results on loss-free
//! networks — owners, hop counts, query matches and invariants.

use voronet::prelude::*;
use voronet_api::resolve_workload;
use voronet_workloads::{RadiusQuery, RangeQuery, WorkloadOp};

const NMAX: usize = 1_000;
const SEED: u64 = 2006;

/// Both engines, freshly built from the same builder (ideal network for
/// the asynchronous one, so results must agree).
fn backends() -> Vec<Box<dyn Overlay>> {
    let builder = OverlayBuilder::new(NMAX).seed(SEED);
    vec![
        builder.clone().engine(EngineKind::Sync).build(),
        builder.engine(EngineKind::Async).build(),
    ]
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

/// The heart of the suite: the synchronous and asynchronous engines,
/// driven through the same trait with the same seeds on a loss-free
/// network, agree operation for operation.
#[test]
fn sync_and_async_engines_agree_on_loss_free_networks() {
    let mut engines = backends();
    let mut split = engines.split_off(1);
    let (sync_net, async_net) = (engines[0].as_mut(), split[0].as_mut());

    // Identical insert sequences produce identical populations.
    let sync_ids = populate(sync_net, 180, 53);
    let async_ids = populate(async_net, 180, 53);
    assert_eq!(sync_ids, async_ids, "assigned ids must agree");
    for &id in &sync_ids {
        assert_eq!(sync_net.coords(id), async_net.coords(id));
    }

    // Identical routes: same owners, same hop counts.
    let mut qg = QueryGenerator::new(59);
    for _ in 0..60 {
        let (a, b) = qg.object_pair(sync_ids.len());
        let s = sync_net.route_between(sync_ids[a], sync_ids[b]).unwrap();
        let r = async_net.route_between(async_ids[a], async_ids[b]).unwrap();
        assert_eq!(s.owner, r.owner, "owners must agree on a loss-free network");
        assert_eq!(s.hops, r.hops, "hop counts must agree with fresh views");
    }

    // Identical area queries.
    let rect = Rect::new(Point2::new(0.1, 0.2), Point2::new(0.5, 0.6));
    let s = sync_net.range(sync_ids[3], RangeQuery { rect }).unwrap();
    let r = async_net.range(async_ids[3], RangeQuery { rect }).unwrap();
    assert_eq!(s.matches, r.matches);
    assert_eq!(s.routing_hops, r.routing_hops);

    // Identical removals keep both engines aligned.
    for &id in sync_ids.iter().take(40) {
        sync_net.remove(id).unwrap();
        async_net.remove(id).unwrap();
    }
    assert_eq!(sync_net.len(), async_net.len());
    sync_net.verify_invariants().unwrap();
    async_net.verify_invariants().unwrap();
    let mut qg = QueryGenerator::new(61);
    let live = sync_net.ids();
    assert_eq!(live, async_net.ids(), "dense orders must stay aligned");
    for _ in 0..30 {
        let (a, b) = qg.object_pair(live.len());
        let s = sync_net.route_between(live[a], live[b]).unwrap();
        let r = async_net.route_between(live[a], live[b]).unwrap();
        assert_eq!((s.owner, s.hops), (r.owner, r.hops));
    }
}

/// The same generated workload script, resolved and batch-applied on both
/// engines, yields element-wise identical results.
#[test]
fn batched_workloads_agree_across_engines() {
    let mut engines = backends();
    let mut split = engines.split_off(1);
    let (sync_net, async_net) = (engines[0].as_mut(), split[0].as_mut());
    populate(sync_net, 150, 67);
    populate(async_net, 150, 67);

    let mut gen = OpBatchGenerator::new(Distribution::Uniform, 71, OpMix::read_heavy());
    let script: Vec<WorkloadOp> = gen.batch(150, 200);

    let sync_ops = resolve_workload(sync_net, &script);
    let async_ops = resolve_workload(async_net, &script);
    assert_eq!(sync_ops, async_ops, "resolution must agree");

    let sync_results = sync_net.apply_batch(&sync_ops);
    let async_results = async_net.apply_batch(&async_ops);
    assert_eq!(sync_results.len(), async_results.len());
    for (i, (s, r)) in sync_results.iter().zip(&async_results).enumerate() {
        assert_eq!(s, r, "batch op {i} ({:?}) must agree", sync_ops[i]);
    }
    assert!(
        sync_results.iter().all(OpResult::is_ok),
        "loss-free batches succeed"
    );

    sync_net.verify_invariants().unwrap();
    async_net.verify_invariants().unwrap();
    assert_eq!(sync_net.len(), async_net.len());
}

/// The asynchronous engine's batching lever is *simulated* time, not host
/// time: under link latency a batch of routes is in flight concurrently
/// and quiesces in roughly the slowest route's end-to-end latency, while
/// one-at-a-time submission pays every route's latency chain back to back
/// on the simulated clock.  A tick-count gate — no wall clock involved.
#[test]
fn async_batches_pipeline_in_simulated_time() {
    use voronet::sim::{LatencyModel, NetworkModel};
    let mut net = OverlayBuilder::new(NMAX)
        .seed(SEED)
        .network(NetworkModel::new(
            SEED,
            LatencyModel::Uniform { min: 5, max: 50 },
        ))
        .build_async();
    populate(&mut net, 400, 61);
    let mut gen = OpBatchGenerator::new(Distribution::Uniform, 67, OpMix::routes_only());
    let routes = resolve_workload(&net, &gen.batch(400, 64));
    assert_eq!(routes.len(), 64);

    let t0 = net.overlay().now();
    let per_op: Vec<OpResult> = routes.iter().map(|op| net.apply(op)).collect();
    let per_op_ticks = net.overlay().now() - t0;
    let t0 = net.overlay().now();
    let batched = net.apply_batch(&routes);
    let batch_ticks = net.overlay().now() - t0;

    assert!(per_op.iter().all(|r| r.as_routed().is_some()), "loss-free");
    assert_eq!(batched, per_op, "batching must not change any result");
    assert!(
        batch_ticks * 4 < per_op_ticks,
        "64 batched routes quiesced in {batch_ticks} ticks, one at a time in {per_op_ticks}"
    );
}

/// Lossy networks surface real failures through the unified taxonomy
/// instead of panicking or silently dropping operations.
#[test]
fn lossy_async_engine_reports_lost_operations() {
    use voronet::sim::{LatencyModel, NetworkModel};
    let mut net: Box<dyn Overlay> = OverlayBuilder::new(NMAX)
        .seed(SEED)
        .engine(EngineKind::Async)
        .network(NetworkModel::new(7, LatencyModel::Uniform { min: 1, max: 10 }).with_loss(0.35))
        .build();
    let mut points = PointGenerator::new(Distribution::Uniform, 73);
    let mut inserted = Vec::new();
    let mut lost = 0usize;
    for _ in 0..120 {
        match net.insert(points.next_point()) {
            Ok(outcome) => inserted.push(outcome.id),
            Err(e) if matches!(e.kind(), ErrorKind::OperationLost) => lost += 1,
            Err(e) => panic!("unexpected failure kind: {e}"),
        }
    }
    assert!(lost > 0, "35% loss must lose some joins");
    assert_eq!(
        net.len(),
        inserted.len(),
        "failed joins must not leak state"
    );

    let mut route_lost = 0usize;
    let mut qg = QueryGenerator::new(79);
    for _ in 0..80 {
        let (a, b) = qg.object_pair(inserted.len());
        match net.route_between(inserted[a], inserted[b]) {
            Ok(report) => assert!(net.contains(report.owner)),
            Err(e) => {
                assert!(matches!(e.kind(), ErrorKind::OperationLost), "{e}");
                route_lost += 1;
            }
        }
    }
    assert!(route_lost > 0, "lossy routes must sometimes be lost");
    net.verify_invariants().unwrap();
}

/// The real wire codec is transparent to the simulated path: an
/// `AsyncEngine` whose runtime round-trips every protocol message
/// through `voronet-net`'s frame codec (encode → bytes → decode) is
/// bit-identical to the plain engine — element-wise batch results,
/// populations and traffic accounting — on ideal *and* lossy networks,
/// because the tap changes the payload representation only, never the
/// delivery decisions of the scheduler.
#[test]
fn codec_tapped_async_engine_is_bit_identical() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use voronet::core::{ProtocolMsg, WireTap};
    use voronet::net::CodecTap;
    use voronet::sim::{LatencyModel, MessageKind, NetworkModel, NodeId};

    /// A [`CodecTap`] that additionally counts frames into a shared
    /// counter the test can read after the engine is consumed.
    #[derive(Clone)]
    struct CountingTap {
        inner: CodecTap,
        frames: Arc<AtomicU64>,
    }

    impl WireTap for CountingTap {
        fn roundtrip(
            &mut self,
            from: NodeId,
            to: NodeId,
            kind: MessageKind,
            msg: ProtocolMsg,
        ) -> ProtocolMsg {
            self.frames.fetch_add(1, Ordering::Relaxed);
            self.inner.roundtrip(from, to, kind, msg)
        }

        fn clone_box(&self) -> Box<dyn WireTap> {
            Box::new(self.clone())
        }
    }

    let networks = [
        NetworkModel::ideal(),
        NetworkModel::new(7, LatencyModel::Uniform { min: 1, max: 10 }).with_loss(0.35),
    ];
    for network in networks {
        let frames = Arc::new(AtomicU64::new(0));
        let build = |tap: Option<Box<dyn WireTap>>| {
            let mut engine = OverlayBuilder::new(NMAX)
                .seed(SEED)
                .network(network.clone())
                .build_async();
            if let Some(tap) = tap {
                engine.overlay_mut().set_wire_tap(tap);
            }
            engine
        };
        let mut plain = build(None);
        let mut tapped = build(Some(Box::new(CountingTap {
            inner: CodecTap::new(),
            frames: Arc::clone(&frames),
        })));

        // Same script on both: inserts (losses included), then a mixed
        // churn/route/query batch.
        let mut points = PointGenerator::new(Distribution::Uniform, 91);
        for _ in 0..140 {
            let p = points.next_point();
            let a = plain.insert(p);
            let b = tapped.insert(p);
            assert_eq!(a.is_ok(), b.is_ok(), "insert outcome at {p:?}");
            if let (Ok(a), Ok(b)) = (a, b) {
                assert_eq!(a.id, b.id, "assigned ids");
            }
        }
        assert_eq!(plain.len(), tapped.len());

        let mut gen = OpBatchGenerator::new(Distribution::Uniform, 97, OpMix::default());
        let script: Vec<WorkloadOp> = gen.batch(plain.len(), 250);
        let plain_ops = resolve_workload(&plain, &script);
        let tapped_ops = resolve_workload(&tapped, &script);
        assert_eq!(plain_ops, tapped_ops, "resolution must agree");
        let plain_results = plain.apply_batch(&plain_ops);
        let tapped_results = tapped.apply_batch(&tapped_ops);
        for (i, (p, t)) in plain_results.iter().zip(&tapped_results).enumerate() {
            assert_eq!(p, t, "batch op {i} ({:?})", plain_ops[i]);
        }

        // Identical accounting, down to per-kind message counters.
        assert_eq!(
            plain.overlay_mut().traffic(),
            tapped.overlay_mut().traffic(),
            "traffic accounting must be bit-identical under the tap"
        );
        assert_eq!(plain.stats(), tapped.stats());
        assert!(
            frames.load(Ordering::Relaxed) > 0,
            "the tap must actually have carried frames"
        );
    }
}
