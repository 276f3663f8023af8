//! A skewed digital-library workload: the scenario motivating VoroNet.
//!
//! Documents are published with two attribute values (say, publication year
//! and popularity rank).  Real collections are heavily skewed — most
//! documents cluster around a few popular values — which breaks DHT-style
//! load balancing.  This example publishes a power-law (Zipf, α = 2)
//! collection and shows that VoroNet keeps both the per-object state and the
//! routing cost essentially identical to the uniform case.
//!
//! ```text
//! cargo run --release --example skewed_library
//! ```

use voronet::prelude::*;
use voronet_bench::{build_overlay, mean_route_length};

const OBJECTS: usize = 3_000;
const ROUTE_SAMPLES: usize = 2_000;

fn describe(dist: Distribution) -> (f64, f64, u64) {
    let cfg = VoroNetConfig::new(OBJECTS).with_seed(2006);
    let (mut net, ids) = build_overlay(dist, OBJECTS, cfg);
    let mean_hops = mean_route_length(&mut net, &ids, ROUTE_SAMPLES, 99);
    let degrees = net.degree_histogram();
    (degrees.mean(), mean_hops, degrees.max().unwrap_or(0))
}

fn main() {
    println!("publishing {OBJECTS} objects under uniform and skewed distributions\n");
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "distribution", "mean |vn|", "max |vn|", "mean hops"
    );
    for dist in [
        Distribution::Uniform,
        Distribution::PowerLaw { alpha: 1.0 },
        Distribution::PowerLaw { alpha: 2.0 },
        Distribution::PowerLaw { alpha: 5.0 },
    ] {
        let (mean_deg, mean_hops, max_deg) = describe(dist);
        println!(
            "{:<22} {:>12.2} {:>12} {:>12.2}",
            dist.label(),
            mean_deg,
            max_deg,
            mean_hops
        );
    }
    println!(
        "\nThe neighbourhood size stays O(1) and the routing cost stays\n\
         poly-logarithmic even when almost every object crowds one corner of\n\
         the attribute space — the property Figure 5 and Figure 6 of the\n\
         paper demonstrate at 300 000 objects."
    );
}
