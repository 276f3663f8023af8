//! Pluggable network conditions for the per-node runtime.
//!
//! The paper's evaluation assumes an ideal message-passing substrate (every
//! message arrives, in one logical hop).  Real deployments of an object
//! overlay see none of that: latency varies per link, messages are lost, and
//! the network occasionally partitions.  A [`NetworkModel`] decides, for
//! every message the runtime sends, whether it is delivered and after which
//! delay — deterministically for a given seed and send order, so that every
//! scenario run is bit-for-bit reproducible.

use crate::event::SimTime;
use crate::metrics::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// A time window during which the network is split into `groups` disjoint
/// components (node `n` belongs to component `n % groups`); messages
/// crossing components are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First instant (inclusive) of the partition.
    pub start: SimTime,
    /// Last instant (exclusive) of the partition.
    pub end: SimTime,
    /// Number of components the network splits into (≥ 2 to have any
    /// effect).
    pub groups: u64,
}

impl PartitionWindow {
    fn severs(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        self.groups >= 2
            && now >= self.start
            && now < self.end
            && from % self.groups != to % self.groups
    }
}

/// Outcome of submitting one message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message will arrive `delay` units after it was sent.
    Deliver {
        /// Network transit time.
        delay: SimTime,
    },
    /// The message is lost to random (iid) loss.
    DroppedLoss,
    /// The message is lost to an active partition window.
    DroppedPartition,
}

/// Deterministic, seeded model of the network between simulated nodes:
/// latency distribution, iid loss and scheduled partition windows.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    latency: LatencyModel,
    /// Scheduled latency regime changes, sorted by activation time: from
    /// each entry's instant (inclusive) onwards, its model replaces the
    /// previous one.
    latency_shifts: Vec<(SimTime, LatencyModel)>,
    loss_probability: f64,
    partitions: Vec<PartitionWindow>,
    rng: StdRng,
}

impl NetworkModel {
    /// A perfect network: every message arrives after exactly one time unit
    /// (the paper's "one hop = one unit" logical timing), nothing is lost.
    pub fn ideal() -> Self {
        NetworkModel::new(0, LatencyModel::Fixed(1))
    }

    /// Creates a model with the given latency distribution, no loss and no
    /// partitions.
    pub fn new(seed: u64, latency: LatencyModel) -> Self {
        NetworkModel {
            latency,
            latency_shifts: Vec::new(),
            loss_probability: 0.0,
            partitions: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x6E65_745F_6D6F_6465),
        }
    }

    /// Schedules a latency-regime shift: from `at` (inclusive) onwards,
    /// messages are delayed by `latency` instead of the previously active
    /// model.  Multiple shifts compose into a piecewise schedule; the
    /// latest shift at or before the submission instant wins.  Scenario
    /// generators use this to model a network whose conditions degrade or
    /// recover mid-run.
    pub fn with_latency_shift(mut self, at: SimTime, latency: LatencyModel) -> Self {
        self.latency_shifts.push((at, latency));
        self.latency_shifts.sort_by_key(|&(t, _)| t);
        self
    }

    /// The latency model in effect at instant `now`.
    fn latency_at(&self, now: SimTime) -> LatencyModel {
        self.latency_shifts
            .iter()
            .rev()
            .find(|&&(t, _)| t <= now)
            .map(|&(_, m)| m)
            .unwrap_or(self.latency)
    }

    /// Sets the iid per-message loss probability (clamped to `[0, 1)`).
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p.clamp(0.0, 0.999_999);
        self
    }

    /// Adds a partition window.
    pub fn with_partition(mut self, window: PartitionWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// True when the model can drop messages (loss or partitions).
    pub fn is_lossy(&self) -> bool {
        self.loss_probability > 0.0 || !self.partitions.is_empty()
    }

    /// Decides the fate of a message from `from` to `to` submitted at `now`.
    ///
    /// Consumes randomness in submission order, which the runtime keeps
    /// deterministic.
    pub fn delivery(&mut self, from: NodeId, to: NodeId, now: SimTime) -> Delivery {
        if self.partitions.iter().any(|w| w.severs(from, to, now)) {
            return Delivery::DroppedPartition;
        }
        // Draw the latency before the loss coin so that the number of RNG
        // draws per submission is constant — losing a message must not shift
        // the latency stream of subsequent messages in confusing ways.
        let delay = self.latency_at(now).sample(&mut self.rng);
        if self.loss_probability > 0.0 && self.rng.random_bool(self.loss_probability) {
            return Delivery::DroppedLoss;
        }
        Delivery::Deliver { delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliveries(model: &mut NetworkModel, n: usize) -> Vec<Delivery> {
        (0..n as u64).map(|i| model.delivery(i, i + 1, 0)).collect()
    }

    #[test]
    fn ideal_network_delivers_everything_in_one_unit() {
        let mut m = NetworkModel::ideal();
        for d in deliveries(&mut m, 100) {
            assert_eq!(d, Delivery::Deliver { delay: 1 });
        }
        assert!(!m.is_lossy());
    }

    #[test]
    fn same_seed_same_decisions() {
        let make = || NetworkModel::new(7, LatencyModel::Uniform { min: 1, max: 9 }).with_loss(0.3);
        let (mut a, mut b) = (make(), make());
        assert_eq!(deliveries(&mut a, 500), deliveries(&mut b, 500));
        let mut c = NetworkModel::new(8, LatencyModel::Uniform { min: 1, max: 9 }).with_loss(0.3);
        assert_ne!(deliveries(&mut a, 500), deliveries(&mut c, 500));
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let mut m = NetworkModel::new(3, LatencyModel::Uniform { min: 2, max: 5 });
        for d in deliveries(&mut m, 1000) {
            match d {
                Delivery::Deliver { delay } => assert!((2..=5).contains(&delay)),
                other => panic!("loss-free model dropped: {other:?}"),
            }
        }
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
        let mut below_10 = 0usize;
        let mut max_seen = 0;
        let n = 2000;
        for d in deliveries(&mut m, n) {
            let Delivery::Deliver { delay } = d else {
                panic!("loss-free model dropped")
            };
            assert!((1..=100).contains(&delay));
            if delay < 10 {
                below_10 += 1;
            }
            max_seen = max_seen.max(delay);
        }
        assert!(
            below_10 as f64 > 0.7 * n as f64,
            "most messages should be fast, got {below_10}/{n}"
        );
        assert!(max_seen > 20, "the tail should reach far, got {max_seen}");
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut m = NetworkModel::new(11, LatencyModel::Fixed(1)).with_loss(0.25);
        assert!(m.is_lossy());
        let n = 10_000;
        let lost = deliveries(&mut m, n)
            .into_iter()
            .filter(|d| *d == Delivery::DroppedLoss)
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate} far from 0.25");
    }

    #[test]
    fn latency_shifts_take_effect_at_their_instant() {
        let mut m = NetworkModel::new(0, LatencyModel::Fixed(1))
            .with_latency_shift(50, LatencyModel::Fixed(7))
            .with_latency_shift(100, LatencyModel::Fixed(2));
        assert_eq!(m.latency_at(0), LatencyModel::Fixed(1));
        assert_eq!(m.latency_at(49), LatencyModel::Fixed(1));
        assert_eq!(m.latency_at(50), LatencyModel::Fixed(7));
        assert_eq!(m.latency_at(99), LatencyModel::Fixed(7));
        assert_eq!(m.latency_at(100), LatencyModel::Fixed(2));
        assert_eq!(m.delivery(0, 1, 10), Delivery::Deliver { delay: 1 });
        assert_eq!(m.delivery(0, 1, 60), Delivery::Deliver { delay: 7 });
        assert_eq!(m.delivery(0, 1, 200), Delivery::Deliver { delay: 2 });
        // Shifts registered out of order still form a sorted schedule.
        let m = NetworkModel::new(0, LatencyModel::Fixed(1))
            .with_latency_shift(80, LatencyModel::Fixed(3))
            .with_latency_shift(20, LatencyModel::Fixed(9));
        assert_eq!(m.latency_at(30), LatencyModel::Fixed(9));
        assert_eq!(m.latency_at(90), LatencyModel::Fixed(3));
    }

    #[test]
    fn partitions_sever_cross_group_links_only_inside_the_window() {
        let mut m = NetworkModel::ideal().with_partition(PartitionWindow {
            start: 10,
            end: 20,
            groups: 2,
        });
        // Inside the window, cross-group drops, same-group passes.
        assert_eq!(m.delivery(0, 1, 15), Delivery::DroppedPartition);
        assert!(matches!(m.delivery(0, 2, 15), Delivery::Deliver { .. }));
        // Outside the window everything passes.
        assert!(matches!(m.delivery(0, 1, 9), Delivery::Deliver { .. }));
        assert!(matches!(m.delivery(0, 1, 20), Delivery::Deliver { .. }));
    }
}
