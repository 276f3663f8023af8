//! The Kleinberg grid small-world model (Kleinberg, *The small-world
//! phenomenon: an algorithmic perspective*, STOC 2000): the baseline that
//! VoroNet generalises from a regular `n × n` grid to arbitrary object
//! distributions via Voronoi tessellations.
//!
//! Each vertex of an `n × n` lattice is connected to its (up to) four grid
//! neighbours and to `k` long-range contacts drawn with probability
//! proportional to `d^-s`, where `d` is the lattice (Manhattan) distance.
//! Greedy routing forwards to the neighbour closest to the target.  For
//! `s = 2` the expected greedy route length is `O(log² n)` — the same bound
//! the paper proves for VoroNet on arbitrary distributions.
//!
//! The grid is the control of the Kleinberg ablation, of the
//! `kleinberg_baseline` example and of the tests that reproduce Kleinberg's
//! `s = 2` optimum.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Position on the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridPos {
    /// Row index in `[0, n)`.
    row: u32,
    /// Column index in `[0, n)`.
    col: u32,
}

impl GridPos {
    /// Lattice (Manhattan) distance between two positions.
    fn lattice_distance(&self, other: GridPos) -> u32 {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

/// Configuration of a Kleinberg grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KleinbergConfig {
    /// Lattice side (the grid has `side²` vertices).
    pub side: u32,
    /// Number of long-range contacts per vertex (the paper's `k`, typically 1).
    pub long_links: u32,
    /// Clustering exponent `s` of the long-range distribution (`s = 2` is
    /// Kleinberg's navigable optimum in two dimensions).
    pub exponent: f64,
}

impl KleinbergConfig {
    /// The canonical navigable configuration: one long link, `s = 2`.
    pub fn navigable(side: u32) -> Self {
        KleinbergConfig {
            side,
            long_links: 1,
            exponent: 2.0,
        }
    }
}

/// A realised Kleinberg small-world graph.
#[derive(Debug, Clone)]
pub struct KleinbergGrid {
    config: KleinbergConfig,
    /// Long-range contacts per vertex (vertex id = `row * side + col`).
    long: Vec<Vec<u32>>,
}

impl KleinbergGrid {
    /// Builds a grid, drawing every long-range contact with probability
    /// proportional to `d^-s`.
    ///
    /// Long links are drawn by sampling a lattice radius from the marginal
    /// distribution (weight `r · r^-s` for the ≈`4r` vertices of the ring of
    /// radius `r`) and then a uniform vertex on that ring, re-drawing when
    /// the chosen ring position falls outside the lattice.  This matches the
    /// model's intent and is the standard sampling shortcut for large grids.
    ///
    /// # Panics
    /// Panics if `side < 2`.
    pub fn build(config: KleinbergConfig, seed: u64) -> Self {
        assert!(config.side >= 2, "a Kleinberg grid needs side >= 2");
        let side = config.side;
        let n = (side * side) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let max_r = (2 * (side - 1)) as usize;
        // Ring-radius CDF: weight(r) ∝ r^(1-s) (ring size ≈ 4r times d^-s).
        let mut cdf = Vec::with_capacity(max_r);
        let mut acc = 0.0;
        for r in 1..=max_r {
            acc += (r as f64).powf(1.0 - config.exponent);
            cdf.push(acc);
        }
        let total = acc;

        let mut long = vec![Vec::new(); n];
        for row in 0..side {
            for col in 0..side {
                let u = (row * side + col) as usize;
                let upos = GridPos { row, col };
                for _ in 0..config.long_links {
                    // Rejection loop: at most a handful of iterations in
                    // practice because most rings intersect the lattice.
                    loop {
                        let x: f64 = rng.random::<f64>() * total;
                        let r = cdf.partition_point(|&c| c < x) + 1;
                        // Uniform position on the L1 ring of radius r.
                        let offset = rng.random_range(0..(4 * r));
                        let (dr, dc) = l1_ring_offset(r as i64, offset as i64);
                        let vr = row as i64 + dr;
                        let vc = col as i64 + dc;
                        if vr < 0 || vc < 0 || vr >= side as i64 || vc >= side as i64 {
                            continue;
                        }
                        let vpos = GridPos {
                            row: vr as u32,
                            col: vc as u32,
                        };
                        if vpos == upos {
                            continue;
                        }
                        long[u].push(vpos.row * side + vpos.col);
                        break;
                    }
                }
            }
        }
        KleinbergGrid { config, long }
    }

    /// Number of vertices.
    fn len(&self) -> usize {
        (self.config.side * self.config.side) as usize
    }

    /// Position of a vertex id.
    fn position(&self, v: u32) -> GridPos {
        GridPos {
            row: v / self.config.side,
            col: v % self.config.side,
        }
    }

    /// Grid neighbours (2 to 4 of them) of a vertex.
    fn grid_neighbors(&self, v: u32) -> Vec<u32> {
        let side = self.config.side;
        let pos = self.position(v);
        let mut out = Vec::with_capacity(4);
        if pos.row > 0 {
            out.push(v - side);
        }
        if pos.row + 1 < side {
            out.push(v + side);
        }
        if pos.col > 0 {
            out.push(v - 1);
        }
        if pos.col + 1 < side {
            out.push(v + 1);
        }
        out
    }

    /// Greedy route from `src` to `dst`: number of hops taken.
    ///
    /// Forwarding always strictly decreases the lattice distance (a grid
    /// neighbour towards the target always exists), so the route always
    /// terminates.
    fn greedy_route(&self, src: u32, dst: u32) -> u32 {
        let target = self.position(dst);
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            let cur_d = self.position(cur).lattice_distance(target);
            let mut best = cur;
            let mut best_d = cur_d;
            for cand in self
                .grid_neighbors(cur)
                .into_iter()
                .chain(self.long[cur as usize].iter().copied())
            {
                let d = self.position(cand).lattice_distance(target);
                if d < best_d {
                    best = cand;
                    best_d = d;
                }
            }
            debug_assert!(best != cur, "greedy routing on a grid cannot get stuck");
            cur = best;
            hops += 1;
        }
        hops
    }

    /// Mean greedy route length over `trials` random source/destination
    /// pairs (a running mean, updated after every route).
    pub fn mean_route_length(&self, trials: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.len() as u32;
        let mut mean = 0.0;
        for routed in 1..=trials {
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            let hops = self.greedy_route(a, b) as f64;
            mean += (hops - mean) / routed as f64;
        }
        mean
    }
}

/// The `offset`-th vertex (counter-clockwise) of the L1 ring of radius `r`
/// around the origin, `offset ∈ [0, 4r)`.
fn l1_ring_offset(r: i64, offset: i64) -> (i64, i64) {
    debug_assert!(r > 0 && (0..4 * r).contains(&offset));
    let side = offset / r; // which of the 4 diagonal sides of the diamond
    let t = offset % r;
    match side {
        0 => (r - t, t),  // from (r, 0) towards (0, r)
        1 => (-t, r - t), // from (0, r) towards (-r, 0)
        2 => (t - r, -t), // from (-r, 0) towards (0, -r)
        _ => (t, t - r),  // from (0, -r) towards (r, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_offsets_have_correct_radius_and_are_distinct() {
        for r in 1..6i64 {
            let mut seen = std::collections::BTreeSet::new();
            for o in 0..4 * r {
                let (dr, dc) = l1_ring_offset(r, o);
                assert_eq!(dr.abs() + dc.abs(), r, "offset {o} radius {r}");
                assert!(seen.insert((dr, dc)), "duplicate ring vertex");
            }
            assert_eq!(seen.len() as i64, 4 * r);
        }
    }

    #[test]
    fn grid_neighbors_counts() {
        let g = KleinbergGrid::build(KleinbergConfig::navigable(4), 1);
        // Corner, edge and interior vertices.
        assert_eq!(g.grid_neighbors(0).len(), 2);
        assert_eq!(g.grid_neighbors(1).len(), 3);
        assert_eq!(g.grid_neighbors(5).len(), 4);
        // Symmetry of the grid relation.
        for v in 0..g.len() as u32 {
            for n in g.grid_neighbors(v) {
                assert!(g.grid_neighbors(n).contains(&v));
            }
        }
    }

    #[test]
    fn every_vertex_gets_k_long_links() {
        let cfg = KleinbergConfig {
            side: 12,
            long_links: 3,
            exponent: 2.0,
        };
        let g = KleinbergGrid::build(cfg, 7);
        for v in 0..g.len() as u32 {
            assert_eq!(g.long[v as usize].len(), 3);
            for &l in &g.long[v as usize] {
                assert_ne!(l, v);
                assert!((l as usize) < g.len());
            }
        }
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let cfg = KleinbergConfig::navigable(10);
        let a = KleinbergGrid::build(cfg, 3);
        let b = KleinbergGrid::build(cfg, 3);
        let c = KleinbergGrid::build(cfg, 4);
        assert_eq!(a.long, b.long);
        assert_ne!(a.long, c.long);
    }

    #[test]
    fn greedy_route_reaches_destination_and_beats_lattice_distance_bound() {
        let g = KleinbergGrid::build(KleinbergConfig::navigable(20), 5);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let a = rng.random_range(0..g.len() as u32);
            let b = rng.random_range(0..g.len() as u32);
            if a == b {
                continue;
            }
            let hops = g.greedy_route(a, b);
            assert!(hops >= 1);
            assert!(
                hops <= g.position(a).lattice_distance(g.position(b)),
                "greedy with long links is never worse than the pure lattice walk"
            );
        }
    }

    #[test]
    fn long_links_shorten_routes() {
        let side = 30;
        let no_links = KleinbergConfig {
            side,
            long_links: 0,
            exponent: 2.0,
        };
        let with_links = KleinbergConfig::navigable(side);
        let plain = KleinbergGrid::build(no_links, 11).mean_route_length(300, 1);
        let small_world = KleinbergGrid::build(with_links, 11).mean_route_length(300, 1);
        assert!(
            small_world < plain,
            "long links must shorten greedy routes ({small_world} vs {plain})"
        );
    }

    #[test]
    fn exponent_two_beats_overly_local_links() {
        // Kleinberg's theorem is asymptotic: at moderate sizes s = 2 already
        // clearly beats overly local long links (large s), while the
        // comparison against s = 0 only turns in favour of s = 2 at sizes
        // too large for a unit test (the `kleinberg_baseline` example sweeps s).
        let side = 40;
        let mean_for = |s: f64| {
            let cfg = KleinbergConfig {
                side,
                long_links: 1,
                exponent: s,
            };
            KleinbergGrid::build(cfg, 21).mean_route_length(400, 2)
        };
        let s2 = mean_for(2.0);
        let s4 = mean_for(4.0);
        let s6 = mean_for(6.0);
        assert!(s2 < s4, "s=2 ({s2}) must beat overly local links ({s4})");
        assert!(s2 < s6, "s=2 ({s2}) must beat near-grid-only links ({s6})");
    }

    #[test]
    fn routes_scale_polylogarithmically_at_s2() {
        // Mean hops at s=2 should grow far slower than the lattice diameter.
        let small =
            KleinbergGrid::build(KleinbergConfig::navigable(16), 31).mean_route_length(300, 3);
        let large =
            KleinbergGrid::build(KleinbergConfig::navigable(64), 31).mean_route_length(300, 3);
        // Diameter grows 4x; poly-log growth should stay well under 3x.
        assert!(
            large < small * 3.0,
            "route growth looks super-poly-logarithmic: {small} -> {large}"
        );
    }

    #[test]
    fn lattice_distance_is_manhattan() {
        assert_eq!(
            GridPos { row: 0, col: 0 }.lattice_distance(GridPos { row: 3, col: 4 }),
            7
        );
    }
}
