//! Quickstart: build a small VoroNet overlay through the backend-agnostic
//! API, publish objects, route queries (single and batched) and inspect
//! one object's view.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use voronet::prelude::*;

fn main() {
    // An overlay provisioned for up to 10 000 objects, one long link each,
    // built on the synchronous engine.  Swapping in the message-level
    // cluster is `InlineCluster::start(3, builder.config(), network)` —
    // same trait, same program (see the `engines` example).
    let mut net = OverlayBuilder::new(10_000).seed(42).build_sync();

    // Publish 2 000 objects drawn uniformly from the attribute space.  In a
    // real deployment each object would be published by the physical node
    // hosting it; the coordinates are its two attribute values.
    let mut generator = PointGenerator::new(Distribution::Uniform, 7);
    let mut ids = Vec::new();
    while ids.len() < 2_000 {
        if let Ok(outcome) = net.insert(generator.next_point()) {
            ids.push(outcome.id);
        }
    }
    println!(
        "published {} objects (d_min = {:.5})",
        net.len(),
        net.config().dmin()
    );

    // Greedy routing between two random objects.
    let route = net.route_between(ids[17], ids[1_900]).unwrap();
    println!("route {} -> {}: {} hops", ids[17], ids[1_900], route.hops);

    // Point query: which object is responsible for an arbitrary point of
    // the attribute space?
    let query = Point2::new(0.42, 0.66);
    let answer = net.route(ids[0], query).unwrap();
    println!(
        "query {query} answered by {} at {} after {} hops",
        answer.owner,
        net.coords(answer.owner).unwrap(),
        answer.hops
    );

    // The view an object maintains: Voronoi neighbours, close neighbours,
    // long links and back-long-range pointers (Section 3.1 of the paper).
    let view = net.snapshot(answer.owner).unwrap();
    println!(
        "owner's view: {} voronoi neighbours, {} close, {} long links, {} back links ({} entries total)",
        view.voronoi_neighbours.len(),
        view.close_neighbours.len(),
        view.long_links.len(),
        view.back_long_links.len(),
        view.size()
    );

    // Batched submission: the throughput form of the same operations.  One
    // call, one result per op, same semantics.
    let batch: Vec<Op> = (0..64)
        .map(|i| Op::RouteBetween {
            from: ids[i * 7 % ids.len()],
            to: ids[(i * 13 + 5) % ids.len()],
        })
        .chain((0..8).map(|_| Op::Insert {
            position: generator.next_point(),
        }))
        .collect();
    let results = net.apply_batch(&batch);
    let routed = results.iter().filter_map(OpResult::as_routed).count();
    let inserted = results.iter().filter_map(OpResult::as_inserted).count();
    println!(
        "batch of {}: {} routes + {} inserts completed, all ok = {}",
        batch.len(),
        routed,
        inserted,
        results.iter().all(OpResult::is_ok)
    );

    // Range query (the paper's motivating application): all objects with
    // attribute values in [0.4, 0.6] x [0.4, 0.6].
    let rect = Rect::new(Point2::new(0.4, 0.4), Point2::new(0.6, 0.6));
    let report = net
        .range(ids[3], voronet::workloads::RangeQuery { rect })
        .unwrap();
    println!(
        "range query over the centre square: {} matches, {} objects visited, {} flood messages",
        report.matches.len(),
        report.visited,
        report.flood_messages
    );

    // Aggregate engine counters through the same trait.
    let stats = net.stats();
    println!(
        "stats: population {}, {} protocol messages, {} routes completed (mean {:.2} hops)",
        stats.population, stats.messages, stats.routes_completed, stats.mean_route_hops
    );
}
