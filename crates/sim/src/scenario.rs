//! Scripted workload scenarios for the asynchronous runtime.
//!
//! A [`Scenario`] is a deterministic script: a warmup population plus a
//! time-ordered sequence of operations (joins, departures, routes, area
//! queries, pings) injected into the runtime as control events.  Operations
//! that need a participant ("a random live node") name it symbolically; the
//! runner resolves the choice with its own seeded generator, so the whole
//! execution — workload included — replays bit-for-bit from the scenario
//! seed.
//!
//! The [`ScenarioBuilder`] offers both single-event scripting ([`at`])
//! and a bulk helper ([`churn`]) for the common "interleaved
//! joins/leaves/routes under churn" workloads.
//!
//! [`at`]: ScenarioBuilder::at
//! [`churn`]: ScenarioBuilder::churn

use crate::event::SimTime;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet_geom::{Point2, Rect};

/// One scripted operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioOp {
    /// A new object joins at the given position, bootstrapping from a
    /// random live node.
    Join {
        /// Attribute coordinates of the joining object.
        at: Point2,
    },
    /// A random live object departs gracefully.  Runners may skip this
    /// below a minimum population (the VoroNet runner defaults to 8; see
    /// its `with_min_population`) and count the skip instead.
    Leave,
    /// A random live object routes towards another random live object.
    Route,
    /// A random live object routes towards an arbitrary target point.
    RouteTo {
        /// Target point of the route.
        target: Point2,
    },
    /// A random live object issues a rectangular area query.
    AreaQuery {
        /// Queried rectangle.
        rect: Rect,
    },
    /// A random live object pings another random live object (liveness
    /// probe; the receiver answers).
    Ping,
}

/// A deterministic scripted workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (reports, benchmarks).
    pub name: String,
    /// Seed for every random choice the runner makes while executing the
    /// script (participant selection, bootstrap selection).
    pub seed: u64,
    /// Objects inserted synchronously before the clock starts: the
    /// pre-existing overlay the script runs against.
    pub warmup: Vec<Point2>,
    events: Vec<(SimTime, ScenarioOp)>,
}

impl Scenario {
    /// Starts building a scenario.
    pub fn builder(name: impl Into<String>, seed: u64) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                seed,
                warmup: Vec::new(),
                events: Vec::new(),
            },
        }
    }

    /// The scripted operations in time order (ties keep script order).
    pub fn events(&self) -> &[(SimTime, ScenarioOp)] {
        &self.events
    }

    /// Number of scripted operations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no operation is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Builder of [`Scenario`] scripts.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Inserts `points` synchronously before the clock starts.
    pub fn warmup(mut self, points: impl IntoIterator<Item = Point2>) -> Self {
        self.scenario.warmup.extend(points);
        self
    }

    /// Schedules one operation at an absolute time.
    pub fn at(mut self, time: SimTime, op: ScenarioOp) -> Self {
        self.scenario.events.push((time, op));
        self
    }

    /// Schedules `count` operations starting at `start`, one every `period`
    /// units, generated by `op_of(index)`.
    pub fn every(
        mut self,
        start: SimTime,
        period: SimTime,
        count: usize,
        mut op_of: impl FnMut(usize) -> ScenarioOp,
    ) -> Self {
        for i in 0..count {
            self.scenario
                .events
                .push((start + period.saturating_mul(i as SimTime), op_of(i)));
        }
        self
    }

    /// Schedules an interleaved churn workload: `ops` operations uniformly
    /// spread over `[start, start + duration)`, each independently a join
    /// (at a position drawn from `join_position`), a departure or a route,
    /// with the given mix.  Fractions are clamped and renormalised; the
    /// remainder after joins and leaves becomes routes.
    ///
    /// The op mix is derived from the builder seed and the number of events
    /// already scripted, so the same builder call sequence always scripts
    /// the same workload while successive `churn` bursts draw independent
    /// op-mix streams.
    pub fn churn(
        mut self,
        start: SimTime,
        duration: SimTime,
        ops: usize,
        join_fraction: f64,
        leave_fraction: f64,
        mut join_position: impl FnMut() -> Point2,
    ) -> Self {
        let join_fraction = join_fraction.clamp(0.0, 1.0);
        let leave_fraction = leave_fraction.clamp(0.0, 1.0 - join_fraction);
        let mut rng = StdRng::seed_from_u64(
            self.scenario.seed
                ^ 0xC4_52_4E
                ^ (self.scenario.events.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let period = (duration / ops.max(1) as SimTime).max(1);
        for i in 0..ops {
            let t = start + period * i as SimTime;
            let u: f64 = rng.random();
            let op = if u < join_fraction {
                ScenarioOp::Join {
                    at: join_position(),
                }
            } else if u < join_fraction + leave_fraction {
                ScenarioOp::Leave
            } else {
                ScenarioOp::Route
            };
            self.scenario.events.push((t, op));
        }
        self
    }

    /// Finalises the script: operations are stably sorted by time, so equal
    /// times preserve script order.
    pub fn build(mut self) -> Scenario {
        self.scenario.events.sort_by_key(|&(t, _)| t);
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_events_stably() {
        let s = Scenario::builder("t", 1)
            .at(10, ScenarioOp::Route)
            .at(5, ScenarioOp::Leave)
            .at(10, ScenarioOp::Ping)
            .build();
        let kinds: Vec<_> = s.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(kinds, vec![5, 10, 10]);
        assert_eq!(s.events()[1].1, ScenarioOp::Route);
        assert_eq!(s.events()[2].1, ScenarioOp::Ping, "ties keep script order");
    }

    #[test]
    fn churn_is_deterministic_and_mixes_ops() {
        let build = || {
            let mut i = 0u64;
            Scenario::builder("churn", 42)
                .churn(0, 1_000, 300, 0.4, 0.2, move || {
                    i += 1;
                    Point2::new((i % 97) as f64 / 97.0, (i % 89) as f64 / 89.0)
                })
                .build()
        };
        let a = build();
        let b = build();
        assert_eq!(a.events().len(), 300);
        assert_eq!(a.events(), b.events());
        let joins = a
            .events()
            .iter()
            .filter(|(_, op)| matches!(op, ScenarioOp::Join { .. }))
            .count();
        let leaves = a
            .events()
            .iter()
            .filter(|(_, op)| matches!(op, ScenarioOp::Leave))
            .count();
        let routes = a
            .events()
            .iter()
            .filter(|(_, op)| matches!(op, ScenarioOp::Route))
            .count();
        assert_eq!(joins + leaves + routes, 300);
        assert!((80..=160).contains(&joins), "joins {joins}");
        assert!((30..=90).contains(&leaves), "leaves {leaves}");
    }

    #[test]
    fn every_spaces_operations() {
        let s = Scenario::builder("e", 0)
            .every(100, 10, 5, |_| ScenarioOp::Ping)
            .build();
        let times: Vec<_> = s.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![100, 110, 120, 130, 140]);
    }

    #[test]
    fn warmup_is_recorded() {
        let s = Scenario::builder("w", 0)
            .warmup([Point2::new(0.1, 0.1), Point2::new(0.2, 0.2)])
            .build();
        assert_eq!(s.warmup.len(), 2);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
