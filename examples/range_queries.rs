//! Range and radius queries over the attribute space — the application-level
//! search mechanisms the paper's perspectives section sketches.
//!
//! ```text
//! cargo run --release --example range_queries
//! ```

use voronet::prelude::*;
use voronet_bench::build_overlay;
use voronet_workloads::{RadiusQuery, RangeQuery};

const OBJECTS: usize = 4_000;

fn main() {
    let cfg = VoroNetConfig::new(OBJECTS).with_seed(2024);
    let (mut net, ids) = build_overlay(Distribution::PowerLaw { alpha: 1.0 }, OBJECTS, cfg);
    println!(
        "overlay of {} objects (skewed, alpha = 1); issuing area queries from {}",
        net.len(),
        ids[0]
    );

    let mut qg = QueryGenerator::new(77);
    println!(
        "\n{:<44} {:>8} {:>9} {:>9} {:>10}",
        "query", "matches", "visited", "flood msg", "route hops"
    );

    for extent in [0.02, 0.05, 0.1, 0.2, 0.4] {
        let q: RangeQuery = qg.range_query(extent);
        let report = range_query(&mut net, ids[0], q).unwrap();
        println!(
            "{:<44} {:>8} {:>9} {:>9} {:>10}",
            format!(
                "rect [{:.2},{:.2}]x[{:.2},{:.2}]",
                q.rect.min.x, q.rect.max.x, q.rect.min.y, q.rect.max.y
            ),
            report.matches.len(),
            report.visited,
            report.flood_messages,
            report.routing_hops
        );
    }

    for radius in [0.01, 0.05, 0.1, 0.25] {
        let q = RadiusQuery {
            center: Point2::new(0.3, 0.3),
            radius,
        };
        let report = radius_query(&mut net, ids[1], q).unwrap();
        println!(
            "{:<44} {:>8} {:>9} {:>9} {:>10}",
            format!("disk centre (0.30,0.30) radius {radius:.2}"),
            report.matches.len(),
            report.visited,
            report.flood_messages,
            report.routing_hops
        );
    }

    println!(
        "\nThe flood footprint (objects visited) tracks the number of Voronoi\n\
         cells intersecting the queried area, not the overlay size: small\n\
         areas are answered by a handful of objects."
    );
}
