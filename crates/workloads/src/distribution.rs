//! Object-placement distributions over the unit square.
//!
//! The paper evaluates VoroNet under (i) a uniform distribution and (ii)
//! power-law distributions "where the frequency of the i-th most popular
//! value is proportional to 1/i^α", with α ∈ {1, 2, 5} for low, mid and high
//! skew.  This module reproduces those generators and adds a few stress
//! distributions (clusters, grid, ring) used by tests and ablations.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use voronet_geom::{Point2, Rect};

/// Number of distinct attribute values used by the power-law generator: the
/// i-th most popular value is `i / ZIPF_VALUES`, drawn with probability
/// ∝ 1/i^α, then jittered uniformly inside its value cell so that objects do
/// not collide exactly.
pub const ZIPF_VALUES: usize = 1024;

/// A named object-placement distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Uniform over the unit square.
    Uniform,
    /// Power-law (Zipf) attribute values with exponent `alpha`; larger alpha
    /// means more skew (the paper uses 1, 2 and 5).
    PowerLaw {
        /// Zipf exponent.
        alpha: f64,
    },
    /// `clusters` Gaussian-ish clusters of relative spread `spread`.
    Clusters {
        /// Number of cluster centres.
        clusters: usize,
        /// Standard deviation of each cluster relative to the unit square.
        spread: f64,
    },
    /// A jittered regular grid (maximally co-circular stress case).
    Grid {
        /// Grid resolution per axis.
        side: usize,
        /// Relative jitter within each grid cell (0 = exact grid).
        jitter: f64,
    },
    /// Points on a circle (maximal Voronoi-degree stress case).
    Ring {
        /// Relative jitter of the radius (0 = exact co-circularity).
        jitter: f64,
    },
}

impl Distribution {
    /// The four distributions used by the paper's evaluation, in the order
    /// of its figures: uniform then α = 1, 2, 5.
    pub fn paper_set() -> [Distribution; 4] {
        [
            Distribution::Uniform,
            Distribution::PowerLaw { alpha: 1.0 },
            Distribution::PowerLaw { alpha: 2.0 },
            Distribution::PowerLaw { alpha: 5.0 },
        ]
    }

    /// Human-readable label used in figure legends.
    pub fn label(&self) -> String {
        match self {
            Distribution::Uniform => "uniform".to_string(),
            Distribution::PowerLaw { alpha } => format!("sparse alpha={alpha}"),
            Distribution::Clusters { clusters, .. } => format!("clusters k={clusters}"),
            Distribution::Grid { side, .. } => format!("grid {side}x{side}"),
            Distribution::Ring { .. } => "ring".to_string(),
        }
    }
}

/// Inverse-CDF sampler of a Zipf law over ranks `0..n`: rank `r` is
/// drawn with probability proportional to `1 / (r + 1)^alpha`.
///
/// The cumulative distribution is computed and normalised **once**, so
/// each draw costs one uniform variate plus a binary search — O(log n)
/// instead of re-walking the partial harmonic sum per sample.  That
/// matters for the power-law point generator and the Zipf destination
/// and topic streams of [`crate::OpBatchGenerator`], which draw ranks
/// millions of times against a stable population.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    alpha: f64,
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n.max(1)` ranks with exponent `alpha`
    /// (`alpha = 0` degenerates to uniform).
    pub fn new(n: usize, alpha: f64) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("n >= 1");
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { alpha, cdf }
    }

    /// Number of ranks (always at least 1).
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Never true — the sampler always covers at least one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The exponent the CDF was built for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Maps one uniform variate `u ∈ [0, 1)` to its rank: the smallest
    /// `r` whose cumulative mass reaches `u`.
    pub fn rank_of(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Analytic probability mass of rank `r` (the CDF difference) — what
    /// the statistical tests compare empirical frequencies against.
    pub fn probability(&self, r: usize) -> f64 {
        if r >= self.cdf.len() {
            return 0.0;
        }
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }
}

/// Streaming point generator for a [`Distribution`], deterministic for a
/// given seed.
#[derive(Debug)]
pub struct PointGenerator {
    dist: Distribution,
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    cluster_centers: Vec<Point2>,
    domain: Rect,
}

impl PointGenerator {
    /// Creates a generator over the unit square.
    pub fn new(dist: Distribution, seed: u64) -> Self {
        Self::with_domain(dist, seed, Rect::UNIT)
    }

    /// Creates a generator over an arbitrary rectangular domain.
    pub fn with_domain(dist: Distribution, seed: u64, domain: Rect) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = match dist {
            Distribution::PowerLaw { alpha } => Some(ZipfSampler::new(ZIPF_VALUES, alpha)),
            _ => None,
        };
        let cluster_centers = match dist {
            Distribution::Clusters { clusters, .. } => (0..clusters.max(1))
                .map(|_| Point2::new(rng.random::<f64>(), rng.random::<f64>()))
                .collect(),
            _ => Vec::new(),
        };
        PointGenerator {
            dist,
            rng,
            zipf,
            cluster_centers,
            domain,
        }
    }

    /// The distribution being sampled.
    pub fn distribution(&self) -> Distribution {
        self.dist
    }

    fn zipf_coordinate(&mut self) -> f64 {
        let u: f64 = self.rng.random();
        let idx = self
            .zipf
            .as_ref()
            .expect("power-law generators carry a sampler")
            .rank_of(u);
        let jitter: f64 = self.rng.random();
        (idx as f64 + jitter) / ZIPF_VALUES as f64
    }

    fn unit_sample(&mut self) -> Point2 {
        match self.dist {
            Distribution::Uniform => Point2::new(self.rng.random(), self.rng.random()),
            Distribution::PowerLaw { .. } => {
                Point2::new(self.zipf_coordinate(), self.zipf_coordinate())
            }
            Distribution::Clusters { spread, .. } => {
                let c = self.cluster_centers[self.rng.random_range(0..self.cluster_centers.len())];
                // Box–Muller transform for an isotropic Gaussian offset.
                let u1: f64 = self.rng.random::<f64>().max(1e-12);
                let u2: f64 = self.rng.random();
                let r = spread * (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                Point2::new(
                    (c.x + r * theta.cos()).clamp(0.0, 1.0),
                    (c.y + r * theta.sin()).clamp(0.0, 1.0),
                )
            }
            Distribution::Grid { side, jitter } => {
                let side = side.max(2);
                let i = self.rng.random_range(0..side);
                let j = self.rng.random_range(0..side);
                let cell = 1.0 / side as f64;
                let jx: f64 = (self.rng.random::<f64>() - 0.5) * jitter * cell;
                let jy: f64 = (self.rng.random::<f64>() - 0.5) * jitter * cell;
                Point2::new(
                    ((i as f64 + 0.5) * cell + jx).clamp(0.0, 1.0),
                    ((j as f64 + 0.5) * cell + jy).clamp(0.0, 1.0),
                )
            }
            Distribution::Ring { jitter } => {
                let theta = 2.0 * std::f64::consts::PI * self.rng.random::<f64>();
                let r = 0.4 * (1.0 + jitter * (self.rng.random::<f64>() - 0.5));
                Point2::new(0.5 + r * theta.cos(), 0.5 + r * theta.sin())
            }
        }
    }

    /// Draws the next point of the workload (always inside the domain).
    pub fn next_point(&mut self) -> Point2 {
        let p = self.unit_sample();
        Point2::new(
            self.domain.min.x + p.x * self.domain.width(),
            self.domain.min.y + p.y * self.domain.height(),
        )
    }

    /// Draws `n` points.
    pub fn take_points(&mut self, n: usize) -> Vec<Point2> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_unit(p: Point2) -> bool {
        Rect::UNIT.contains(p)
    }

    #[test]
    fn all_distributions_stay_in_domain() {
        let dists = [
            Distribution::Uniform,
            Distribution::PowerLaw { alpha: 1.0 },
            Distribution::PowerLaw { alpha: 5.0 },
            Distribution::Clusters {
                clusters: 5,
                spread: 0.05,
            },
            Distribution::Grid {
                side: 10,
                jitter: 0.5,
            },
            Distribution::Ring { jitter: 0.1 },
        ];
        for d in dists {
            let mut g = PointGenerator::new(d, 1);
            for p in g.take_points(500) {
                assert!(in_unit(p), "{d:?} produced {p} outside the unit square");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = PointGenerator::new(Distribution::PowerLaw { alpha: 2.0 }, 42);
        let mut b = PointGenerator::new(Distribution::PowerLaw { alpha: 2.0 }, 42);
        assert_eq!(a.take_points(100), b.take_points(100));
        let mut c = PointGenerator::new(Distribution::PowerLaw { alpha: 2.0 }, 43);
        assert_ne!(a.take_points(100), c.take_points(100));
    }

    #[test]
    fn uniform_covers_the_square_evenly() {
        let mut g = PointGenerator::new(Distribution::Uniform, 7);
        let pts = g.take_points(20_000);
        let left = pts.iter().filter(|p| p.x < 0.5).count() as f64 / pts.len() as f64;
        let bottom = pts.iter().filter(|p| p.y < 0.5).count() as f64 / pts.len() as f64;
        assert!((left - 0.5).abs() < 0.02);
        assert!((bottom - 0.5).abs() < 0.02);
    }

    #[test]
    fn power_law_is_skewed_and_more_so_with_alpha() {
        let mass_near_origin = |alpha: f64| {
            let mut g = PointGenerator::new(Distribution::PowerLaw { alpha }, 11);
            let pts = g.take_points(20_000);
            pts.iter().filter(|p| p.x < 0.1 && p.y < 0.1).count() as f64 / pts.len() as f64
        };
        let low = mass_near_origin(1.0);
        let high = mass_near_origin(5.0);
        assert!(low > 0.02, "alpha=1 should concentrate mass, got {low}");
        assert!(
            high > low,
            "alpha=5 ({high}) must be more skewed than alpha=1 ({low})"
        );
        assert!(
            high > 0.9,
            "alpha=5 concentrates almost everything, got {high}"
        );
    }

    #[test]
    fn paper_set_matches_the_evaluation_section() {
        let set = Distribution::paper_set();
        assert_eq!(set[0], Distribution::Uniform);
        assert_eq!(set[3], Distribution::PowerLaw { alpha: 5.0 });
        assert_eq!(set[1].label(), "sparse alpha=1");
    }

    #[test]
    fn custom_domain_scaling() {
        let domain = Rect::new(Point2::new(10.0, 20.0), Point2::new(12.0, 21.0));
        let mut g = PointGenerator::with_domain(Distribution::Uniform, 3, domain);
        for p in g.take_points(200) {
            assert!(domain.contains(p));
        }
    }

    #[test]
    fn zipf_sampler_binary_search_matches_the_linear_walk() {
        // The binary search must agree with the specification — the
        // linear inverse-CDF walk over the unnormalised partial sums —
        // on every variate.
        let (n, alpha) = (257, 1.1);
        let s = ZipfSampler::new(n, alpha);
        let linear = |u: f64| {
            let h: f64 = (1..=n).map(|r| (r as f64).powf(-alpha)).sum();
            let mut u = u * h;
            for r in 0..n {
                u -= ((r + 1) as f64).powf(-alpha);
                if u <= 0.0 {
                    return r;
                }
            }
            n - 1
        };
        let mut rng = StdRng::seed_from_u64(0x21F);
        for _ in 0..5_000 {
            let u: f64 = rng.random();
            assert_eq!(s.rank_of(u), linear(u), "u = {u}");
        }
        assert_eq!(s.rank_of(0.0), 0);
        assert_eq!(s.rank_of(1.0), n - 1);
    }

    #[test]
    fn zipf_sampler_empirical_frequencies_match_the_exponent() {
        let (n, alpha) = (1_000, 1.2);
        let s = ZipfSampler::new(n, alpha);
        let samples = 200_000usize;
        let mut counts = vec![0u32; n];
        let mut rng = StdRng::seed_from_u64(0x5A3F);
        for _ in 0..samples {
            counts[s.rank_of(rng.random())] += 1;
        }
        // Head ranks carry enough mass for a tight check: empirical
        // frequency within 10% of the analytic probability.
        for (r, &count) in counts.iter().enumerate().take(8) {
            let expected = s.probability(r) * samples as f64;
            assert!(expected > 1_000.0, "head rank {r} too light to test");
            let got = count as f64;
            assert!(
                (got - expected).abs() / expected < 0.10,
                "rank {r}: got {got}, expected {expected:.0}"
            );
        }
        // The log-log slope over the well-sampled head must recover the
        // target exponent: ln(count_r) ≈ C - alpha * ln(r + 1).
        let pts: Vec<(f64, f64)> = counts
            .iter()
            .enumerate()
            .take(64)
            .filter(|&(_, &c)| c >= 50)
            .map(|(r, &c)| (((r + 1) as f64).ln(), (c as f64).ln()))
            .collect();
        assert!(pts.len() >= 16, "need a sampled head, got {}", pts.len());
        let m = pts.len() as f64;
        let (sx, sy) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
        let (sxx, sxy) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x * x, b + x * y));
        let slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
        assert!(
            (slope + alpha).abs() < 0.1,
            "fitted exponent {:.3}, target {alpha}",
            -slope
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Distribution::Uniform.label(), "uniform");
        assert_eq!(
            Distribution::PowerLaw { alpha: 2.0 }.label(),
            "sparse alpha=2"
        );
        assert_eq!(Distribution::Ring { jitter: 0.0 }.label(), "ring");
    }
}
