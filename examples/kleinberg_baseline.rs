//! VoroNet versus the Kleinberg grid it generalises.
//!
//! Kleinberg's model obtains `O(log² n)` greedy routing on a regular grid;
//! VoroNet obtains the same bound for *any* object distribution.  This
//! example routes over both structures at equal population and reports the
//! mean hop counts, plus the grid's sensitivity to the clustering exponent
//! `s` (navigability is lost away from `s = 2`).
//!
//! ```text
//! cargo run --release --example kleinberg_baseline
//! ```

use voronet::prelude::*;
use voronet_bench::{build_overlay, mean_route_length, KleinbergConfig, KleinbergGrid};

fn main() {
    let side: u32 = 64; // 4 096 vertices
    let population = (side * side) as usize;
    println!("population: {population} objects / grid vertices\n");

    // --- Kleinberg grid: exponent sweep -------------------------------
    println!("Kleinberg grid, 1 long link, greedy routing (500 pairs):");
    println!("{:>6} {:>12}", "s", "mean hops");
    for s in [0.0, 1.0, 2.0, 3.0, 4.0] {
        let grid = KleinbergGrid::build(
            KleinbergConfig {
                side,
                long_links: 1,
                exponent: s,
            },
            17,
        );
        println!("{:>6.1} {:>12.2}", s, grid.mean_route_length(500, 3));
    }

    // --- VoroNet at the same population --------------------------------
    println!("\nVoroNet, 1 long link, greedy routing (500 pairs):");
    println!("{:>22} {:>12}", "distribution", "mean hops");
    for dist in [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }] {
        let cfg = VoroNetConfig::new(population).with_seed(5);
        let (mut net, ids) = build_overlay(dist, population, cfg);
        let hops = mean_route_length(&mut net, &ids, 500, 9);
        println!("{:>22} {:>12.2}", dist.label(), hops);
    }

    println!(
        "\nThe grid model only routes well on a regular lattice at s = 2;\n\
         VoroNet keeps comparable hop counts for arbitrary (even heavily\n\
         skewed) object placements — the generalisation the paper proves."
    );
}
