//! Counting-allocator proof of the zero-copy routing hot path: once the
//! caller's buffers have warmed up, a greedy route over the arena-backed
//! overlay performs **no heap allocation at all** — every hop is a scan of
//! the overlay's own arrays.  The pin covers the counted form every engine
//! uses for a single route (`route_to_point_in` over a reused
//! [`voronet_core::RouteScratch`], then `apply_traffic`) as well as a run
//! of `&self` reads (`route_to_point_in`, `route_between_in`, a point
//! query's extra answer message) accumulating into one scratch, and the
//! route inside a join (`insert_from`'s route to the owner), which runs on
//! the overlay's own kept scratch.  An area query through
//! [`SyncEngine`] reuses the engine's scratch: it allocates exactly what
//! the same flood allocates on a warmed scratch of its own (its match
//! vector and the Voronoi cells it tests), and no work-list.  A batch of
//! routes through [`SyncEngine::apply_batch`] allocates its result vector
//! and nothing else.
//!
//! This file deliberately contains a single test: the counting allocator is
//! process-global, and a concurrently running test would perturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use voronet::core::{radius_query_in, range_query_in};
use voronet::prelude::*;
use voronet::sim::MessageKind;
use voronet_workloads::{Distribution, RadiusQuery, RangeQuery};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn greedy_routing_is_allocation_free_after_warmup() {
    let mut net = VoroNet::new(VoroNetConfig::new(2_000).with_seed(7));
    for p in PointGenerator::new(Distribution::Uniform, 11).take_points(2_000) {
        let _ = net.insert(p);
    }
    let ids: Vec<ObjectId> = net.ids().collect();
    assert!(net.len() > 1_900);

    // A deterministic pair set: routing consumes no randomness, so replaying
    // the same pairs walks exactly the same paths as the warm-up pass.
    let pairs: Vec<(ObjectId, ObjectId)> = (0..64)
        .map(|i| {
            let a = ids[(i * 31) % ids.len()];
            let b = ids[(i * 97 + 13) % ids.len()];
            (a, b)
        })
        .filter(|(a, b)| a != b)
        .collect();

    let mut scratch = RouteScratch::new();

    // Warm-up: grows the path buffer to the longest route of the set.
    let mut warm_hops = Vec::new();
    for &(a, b) in &pairs {
        let target = net.coords(b).unwrap();
        let (owner, hops) = net.route_to_point_in(a, target, &mut scratch).unwrap();
        net.apply_traffic(&scratch.delta);
        scratch.delta.clear();
        assert_eq!(owner, b);
        warm_hops.push(hops);
    }

    // Measured pass: identical routes, zero allocations.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut total_hops = 0u64;
    for (&(a, b), &expected_hops) in pairs.iter().zip(&warm_hops) {
        let target = net.coords(b).unwrap();
        let (owner, hops) = net.route_to_point_in(a, target, &mut scratch).unwrap();
        net.apply_traffic(&scratch.delta);
        scratch.delta.clear();
        assert_eq!(owner, b);
        assert_eq!(hops, expected_hops, "routing must be deterministic");
        total_hops += hops as u64;
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(total_hops > 100, "the pair set must exercise real routes");
    assert_eq!(
        allocated,
        0,
        "greedy routing over a warmed-up overlay must not touch the heap \
         ({allocated} allocations across {} routes, {total_hops} hops)",
        pairs.len()
    );

    // A run of `&self` reads accumulating into the one scratch: routes to
    // a point, routes between objects and point queries (a route plus the
    // answer message, Algorithm 4) must not allocate either: the delta is
    // a fixed array of per-kind counts.
    let answer = MessageKind::QueryAnswer;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (&(a, b), &expected_hops) in pairs.iter().zip(&warm_hops) {
        let target = net.coords(b).unwrap();
        let (owner, hops) = net.route_to_point_in(a, target, &mut scratch).unwrap();
        assert_eq!((owner, hops), (b, expected_hops));
        let (owner, hops) = net.route_between_in(a, b, &mut scratch).unwrap();
        assert_eq!((owner, hops), (b, expected_hops));
        let (owner, hops) = net.route_to_point_in(a, target, &mut scratch).unwrap();
        scratch.delta.add(answer, 1);
        assert_eq!((owner, hops), (b, expected_hops));
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        scratch.delta.len() as u64,
        3 * total_hops + pairs.len() as u64,
        "the scratch delta must have counted every message"
    );
    assert_eq!(
        allocated, 0,
        "scratch-based routes and point queries must not touch the heap \
         ({allocated} allocations)"
    );

    // Applying the accumulated delta adds its counts: no allocation there
    // either.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    net.apply_traffic(&scratch.delta);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 0, "applying a delta must not touch the heap");
    scratch.delta.clear();

    // A batch of routes through the engine walks them interleaved on its
    // scratch: once warmed up, the batch allocates its result vector and
    // nothing else.
    let mut engine = SyncEngine::from_net(net.clone());
    let routes: Vec<Op> = pairs
        .iter()
        .cycle()
        .take(256)
        .enumerate()
        .map(|(i, &(from, to))| match i % 2 {
            0 => Op::RouteBetween { from, to },
            _ => Op::Route {
                from,
                target: net.coords(to).unwrap(),
            },
        })
        .collect();
    let warm = engine.apply_batch(&routes);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let batched = engine.apply_batch(&routes);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(batched, warm);
    assert!(batched.iter().all(|r| r.as_routed().is_some()));
    assert_eq!(
        allocated,
        1,
        "a warmed batch of {} routes must allocate only its results",
        routes.len()
    );

    // Area queries through the engine run on its scratch.  Once warmed up,
    // each allocates exactly what the same flood allocates on a warmed
    // scratch of its own — its match vector and the cells its boundary
    // tests build — and fewer than the scratch-per-call wrappers, which
    // grow a visited set and three work-lists every time.
    let mut engine = SyncEngine::from_net(net.clone());
    let queries: Vec<(ObjectId, Rect, Point2, f64)> = (0..16)
        .map(|i| {
            let c = net.coords(ids[(i * 53 + 5) % ids.len()]).unwrap();
            let h = 0.04 + 0.01 * (i % 4) as f64;
            let rect = Rect::new(Point2::new(c.x - h, c.y - h), Point2::new(c.x + h, c.y + h));
            (ids[(i * 17 + 3) % ids.len()], rect, c, h)
        })
        .collect();
    let range = |rect| RangeQuery { rect };
    let disk = |center, radius| RadiusQuery { center, radius };
    for &(from, rect, c, h) in &queries {
        engine.range(from, range(rect)).unwrap();
        engine.radius(from, disk(c, h)).unwrap();
        range_query_in(engine.net(), from, range(rect), &mut scratch).unwrap();
        radius_query_in(engine.net(), from, disk(c, h), &mut scratch).unwrap();
    }
    let count = |f: &mut dyn FnMut()| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let mut matched = 0;
    for &(from, rect, c, h) in &queries {
        let traffic = engine.net().traffic().clone();
        let mut outcome = None;
        let by_engine = count(&mut || outcome = Some(engine.range(from, range(rect)).unwrap()));
        let mut own = None;
        let on_own_scratch = count(&mut || {
            own = Some(range_query_in(engine.net(), from, range(rect), &mut scratch).unwrap())
        });
        let (outcome, own) = (outcome.unwrap(), own.unwrap());
        assert_eq!(outcome.matches, own.matches);
        assert_eq!(by_engine, on_own_scratch, "range {rect:?}");
        let mut expected = traffic;
        expected.add(MessageKind::RouteForward, u64::from(own.routing_hops));
        expected.add(MessageKind::Other, own.flood_messages);
        assert_eq!(engine.net().traffic(), &expected, "range {rect:?}");
        let mut fresh_net = engine.net().clone();
        let fresh = count(&mut || {
            range_query(&mut fresh_net, from, range(rect)).unwrap();
        });
        assert!(fresh > by_engine, "range {rect:?}: {fresh} vs {by_engine}");
        matched += outcome.matches.len();

        let by_engine = count(&mut || {
            engine.radius(from, disk(c, h)).unwrap();
        });
        let on_own_scratch = count(&mut || {
            radius_query_in(engine.net(), from, disk(c, h), &mut scratch).unwrap();
        });
        assert_eq!(by_engine, on_own_scratch, "disk {c:?} {h}");
        let fresh = count(&mut || {
            radius_query(&mut fresh_net, from, disk(c, h)).unwrap();
        });
        assert!(fresh > by_engine, "disk {c:?} {h}: {fresh} vs {by_engine}");
        scratch.delta.clear();
    }
    assert!(matched > 100, "the queries must flood real areas");

    // A join on a warmed overlay routes on the overlay's kept scratch: how
    // far the join route travels does not change what the join allocates.
    // Two clones make the same join — same state, same long-link draw — one
    // from a far bootstrap, one from the owner itself (a zero-hop route);
    // everything but the join route is identical, so any difference in the
    // count is that route's.  A clone starts with an empty scratch, so each
    // first warms it with the far route.
    let far = net.owner_of(Point2::new(0.0, 0.0)).unwrap();
    let mut routed_hops = 0;
    for target in PointGenerator::new(Distribution::Uniform, 29).take_points(8) {
        let near = net.owner_of(target).unwrap();
        let [from_far, from_near] = [far, near].map(|bootstrap| {
            let mut joined = net.clone();
            joined.route_to_point(far, target).unwrap();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let report = joined.insert_from(target, Some(bootstrap)).unwrap();
            (ALLOCATIONS.load(Ordering::Relaxed) - before, report)
        });
        assert_eq!(from_near.1.routing_hops, 0);
        assert_eq!(from_far.1.id, from_near.1.id);
        assert_eq!(from_far.1.long_link_hops, from_near.1.long_link_hops);
        assert_eq!(
            from_far.0, from_near.0,
            "a join's {}-hop route must not touch the heap",
            from_far.1.routing_hops
        );
        routed_hops += from_far.1.routing_hops;
    }
    assert!(routed_hops > 50, "the joins must exercise real routes");
}
