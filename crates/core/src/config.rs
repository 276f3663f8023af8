//! Overlay configuration.

use serde::{Deserialize, Serialize};
use voronet_geom::Rect;

/// Configuration of a VoroNet overlay.
///
/// The only mandatory parameter of the paper's protocol is `N_max`, the
/// maximum number of objects for which poly-logarithmic routing is
/// guaranteed: it fixes the close-neighbour radius `d_min` and the support
/// of the long-link length distribution (Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoroNetConfig {
    /// Maximum number of objects the overlay is provisioned for (`N_max`).
    pub nmax: usize,
    /// Number of long-range links per object (the paper uses 1 by default
    /// and sweeps 1..=10 in Figure 8).
    pub long_links: usize,
    /// Attribute-space domain (the unit square in the paper).
    pub domain: Rect,
    /// Seed for every stochastic choice made by the overlay (long-link
    /// targets, bootstrap objects); two overlays built with the same seed
    /// and the same operation sequence are identical.
    pub seed: u64,
}

impl VoroNetConfig {
    /// Creates a configuration over the unit square with one long link.
    pub fn new(nmax: usize) -> Self {
        VoroNetConfig {
            nmax: nmax.max(1),
            long_links: 1,
            domain: Rect::UNIT,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the number of long-range links per object.
    pub fn with_long_links(mut self, k: usize) -> Self {
        self.long_links = k;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The close-neighbour radius `d_min = 1/(π·N_max)`, as Section 4.1
    /// prints it.  The paper's expected-count argument (π·d_min²·N_max = 1)
    /// would need `1/√(π·N_max)`, but routing never depends on `d_min`
    /// being large (greedy routing terminates through the Voronoi links
    /// alone), and the larger radius makes a skewed corner's close sets
    /// grow with the square of its population.
    pub fn dmin(&self) -> f64 {
        1.0 / (std::f64::consts::PI * self.nmax.max(1) as f64)
    }

    /// Upper bound of the long-link radius distribution: the domain
    /// diagonal (√2 for the unit square, as in Algorithm 3).
    pub fn max_link_radius(&self) -> f64 {
        self.domain.diagonal()
    }
}

impl Default for VoroNetConfig {
    fn default() -> Self {
        VoroNetConfig::new(300_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmin_is_the_paper_value() {
        let cfg = VoroNetConfig::new(10_000);
        assert!((cfg.dmin() - 1.0 / (std::f64::consts::PI * 10_000.0)).abs() < 1e-18);
    }

    #[test]
    fn builder_methods() {
        let cfg = VoroNetConfig::new(500).with_long_links(6).with_seed(9);
        assert_eq!(cfg.nmax, 500);
        assert_eq!(cfg.long_links, 6);
        assert_eq!(cfg.seed, 9);
        assert!((cfg.max_link_radius() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zero_nmax_is_clamped() {
        let cfg = VoroNetConfig::new(0);
        assert_eq!(cfg.nmax, 1);
        assert!(cfg.dmin().is_finite());
    }

    #[test]
    fn default_matches_paper_scale() {
        let cfg = VoroNetConfig::default();
        assert_eq!(cfg.nmax, 300_000);
        assert_eq!(cfg.long_links, 1);
    }
}
