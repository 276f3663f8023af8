//! Pluggable latency for simulated transports.
//!
//! The paper's evaluation assumes an ideal message-passing substrate (every
//! message arrives, in one logical hop).  A [`NetworkModel`] draws, for
//! every message a simulated transport sends, the delay after which it
//! arrives — deterministically for a given seed and send order, so that
//! every run is bit-for-bit reproducible.  It loses nothing: lost frames,
//! crashes and partitions come from `voronet-net`'s fault layer
//! (`FaultTransport`), which wraps any transport.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Logical simulation time (abstract units: `voronet-net`'s vnet hub
/// counts one per submitted frame).
pub type SimTime = u64;

/// Per-message latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many units (`Fixed(1)` is the
    /// paper's idealised "one hop = one unit" timing).
    Fixed(SimTime),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum delay (inclusive).
        min: SimTime,
        /// Maximum delay (inclusive).
        max: SimTime,
    },
    /// Heavy-tailed (truncated Pareto) delays: most messages close to `min`,
    /// a Zipf-like tail of stragglers up to `max`.  `alpha` is the tail
    /// exponent — smaller values mean a heavier tail.
    Skewed {
        /// Typical (minimum) delay.
        min: SimTime,
        /// Truncation point of the tail.
        max: SimTime,
        /// Pareto tail exponent (must be positive; the paper-style Zipf
        /// skew of α ∈ {1, 2, 5} maps directly onto this parameter).
        alpha: f64,
    },
}

impl LatencyModel {
    fn sample(&self, rng: &mut StdRng) -> SimTime {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { min, max } => {
                if max <= min {
                    min
                } else {
                    rng.random_range(min..=max)
                }
            }
            LatencyModel::Skewed { min, max, alpha } => {
                if max <= min {
                    return min;
                }
                let u: f64 = rng.random::<f64>().max(1e-12);
                // Pareto with scale 1: factor >= 1, heavy upper tail.
                let factor = u.powf(-1.0 / alpha.max(1e-6));
                let span = (max - min) as f64;
                let extra = ((factor - 1.0).min(span)).round() as SimTime;
                min + extra.min(max - min)
            }
        }
    }
}

/// Deterministic, seeded model of the network between simulated nodes:
/// one latency distribution.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    latency: LatencyModel,
    rng: StdRng,
}

impl NetworkModel {
    /// A perfect network: every message arrives after exactly one time unit
    /// (the paper's "one hop = one unit" logical timing).
    pub fn ideal() -> Self {
        NetworkModel::new(0, LatencyModel::Fixed(1))
    }

    /// Creates a model with the given latency distribution.
    pub fn new(seed: u64, latency: LatencyModel) -> Self {
        NetworkModel {
            latency,
            rng: StdRng::seed_from_u64(seed ^ 0x6E65_745F_6D6F_6465),
        }
    }

    /// Draws the transit time of the next message.
    ///
    /// Consumes randomness in submission order, which the caller keeps
    /// deterministic; a `Fixed` latency draws none.
    pub fn delay(&mut self) -> SimTime {
        self.latency.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays(model: &mut NetworkModel, n: usize) -> Vec<SimTime> {
        (0..n).map(|_| model.delay()).collect()
    }

    #[test]
    fn ideal_network_delivers_everything_in_one_unit() {
        let mut m = NetworkModel::ideal();
        assert!(delays(&mut m, 100).iter().all(|&d| d == 1));
    }

    #[test]
    fn same_seed_same_decisions() {
        let make = |seed| NetworkModel::new(seed, LatencyModel::Uniform { min: 1, max: 9 });
        let (mut a, mut b) = (make(7), make(7));
        assert_eq!(delays(&mut a, 500), delays(&mut b, 500));
        let mut c = make(8);
        assert_ne!(delays(&mut a, 500), delays(&mut c, 500));
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let mut m = NetworkModel::new(3, LatencyModel::Uniform { min: 2, max: 5 });
        assert!(delays(&mut m, 1000).iter().all(|d| (2..=5).contains(d)));
    }

    #[test]
    fn skewed_latency_is_heavy_tailed_but_bounded() {
        let mut m = NetworkModel::new(
            5,
            LatencyModel::Skewed {
                min: 1,
                max: 100,
                alpha: 1.0,
            },
        );
        let n = 2000;
        let drawn = delays(&mut m, n);
        assert!(drawn.iter().all(|d| (1..=100).contains(d)));
        let below_10 = drawn.iter().filter(|&&d| d < 10).count();
        let max_seen = drawn.iter().copied().max().unwrap_or(0);
        assert!(
            below_10 as f64 > 0.7 * n as f64,
            "most messages should be fast, got {below_10}/{n}"
        );
        assert!(max_seen > 20, "the tail should reach far, got {max_seen}");
    }
}
