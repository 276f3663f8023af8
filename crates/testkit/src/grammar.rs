//! Seeded generation of fuzz cases from a weighted op grammar.
//!
//! A [`FuzzCase`] is fully self-describing: the overlay parameters and an
//! engine-agnostic [`WorkloadOp`] script (participants named by dense
//! population index, so the script survives arbitrary subsequence
//! removal during shrinking).  Generation reuses
//! [`OpBatchGenerator`]/[`OpMix`] as the grammar backbone: the script
//! opens with a warm-up burst of inserts, then alternates weighted
//! segments — read-heavy serving, churn bursts, read-only stretches (long
//! runs of reads over one epoch), a balanced mix that includes snapshots,
//! and service segments (region pub/sub and coordinate-keyed KV traffic,
//! occasionally with a Zipf-skewed hot-topic palette).  Every case runs on
//! an ideal network; loss, partitions and crashes are the chaos harness's
//! ([`crate::chaos`]).  Service segments are always part of the rotation;
//! [`FuzzSpec::services`] biases generation towards them for
//! service-focused fuzzing.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet_workloads::{Distribution, OpBatchGenerator, OpMix, PointGenerator, WorkloadOp};

/// Knobs of case generation (what [`generate_case`] consumes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzSpec {
    /// Master seed: two specs with the same seed generate the same case.
    pub seed: u64,
    /// Warm-up inserts opening the script.
    pub warmup: usize,
    /// Generated operations after the warm-up.
    pub ops: usize,
    /// Provisioned overlay capacity (`N_max`).
    pub nmax: usize,
    /// Bias generation towards service segments (pub/sub + KV).  Service
    /// traffic appears in every case regardless; this roughly triples its
    /// share for service-focused fuzzing.
    pub services: bool,
}

impl FuzzSpec {
    /// A small, CI-friendly spec (a few hundred ops).
    pub fn smoke(seed: u64) -> Self {
        FuzzSpec {
            seed,
            warmup: 24,
            ops: 220,
            nmax: 400,
            services: false,
        }
    }

    /// The acceptance-grade spec: a 10k-op script.
    pub fn deep(seed: u64) -> Self {
        FuzzSpec {
            seed,
            warmup: 120,
            ops: 10_000,
            nmax: 4_000,
            services: false,
        }
    }
}

/// One self-contained, replayable fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Seed of every engine's stochastic choices.
    pub seed: u64,
    /// Provisioned overlay capacity.
    pub nmax: usize,
    /// Ops per audit round: the harness audits the whole fleet after
    /// every `round` ops.
    pub round: usize,
    /// The op script.
    pub script: Vec<WorkloadOp>,
}

/// Generates the case a spec describes (deterministic in `spec.seed`).
pub fn generate_case(spec: &FuzzSpec) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7E57_4B17);
    let mut script = Vec::with_capacity(spec.warmup + spec.ops);

    // Warm-up: enough population for routes/queries to be non-trivial.
    let mut points = PointGenerator::new(Distribution::Uniform, spec.seed ^ 0x57A2);
    for _ in 0..spec.warmup {
        script.push(WorkloadOp::Insert {
            position: points.next_point(),
        });
    }

    // Weighted segments over the OpMix grammar.
    let mut pop = spec.warmup.max(1);
    while script.len() < spec.warmup + spec.ops {
        let remaining = spec.warmup + spec.ops - script.len();
        let len = rng.random_range(32..=192usize).min(remaining);
        let selector = if spec.services && rng.random_range(0..2u32) == 0 {
            // Service-focused fuzzing: force a service segment half the
            // time, the regular rotation otherwise.
            10 + rng.random_range(0..2u32)
        } else {
            rng.random_range(0..12u32)
        };
        let service_segment = selector >= 10;
        let mix = match selector {
            0..=3 => OpMix {
                snapshot: 0.02,
                ..OpMix::read_heavy()
            },
            4..=5 => OpMix::churn_heavy(),
            6..=7 => OpMix {
                snapshot: 0.05,
                ..OpMix::read_only()
            },
            8..=9 => OpMix {
                insert: 0.15,
                remove: 0.10,
                route: 0.45,
                range: 0.10,
                radius: 0.10,
                snapshot: 0.10,
                ..OpMix::routes_only()
            },
            // Service segments: a publish-heavy and a KV-heavy flavour.
            // Both keep some churn in the residual protocol share, so KV
            // ownership handoff runs under live insert/remove pressure.
            10 => OpMix::services(55, 25),
            _ => OpMix::services(15, 60),
        };
        let dist = match rng.random_range(0..4u32) {
            0 => Distribution::Uniform,
            1 => Distribution::PowerLaw { alpha: 1.0 },
            2 => Distribution::Clusters {
                clusters: 5,
                spread: 0.05,
            },
            _ => Distribution::Grid {
                side: 24,
                jitter: 0.4,
            },
        };
        let extent = if rng.random_range(0..4u32) == 0 {
            1.0
        } else {
            0.2
        };
        let mut gen =
            OpBatchGenerator::new(dist, rng.random::<u64>(), mix).with_max_query_extent(extent);
        if service_segment && rng.random_range(0..2u32) == 0 {
            // Half the service segments publish into a Zipf-skewed
            // hot-topic palette instead of fresh rectangles, so per-topic
            // sequence numbers climb and duplicate detection gets traffic.
            gen = gen.with_zipf_topics(1.0);
        }
        let segment = gen.batch(pop, len);
        for op in &segment {
            match op {
                WorkloadOp::Insert { .. } => pop += 1,
                WorkloadOp::Remove { .. } => pop = pop.saturating_sub(1).max(1),
                _ => {}
            }
        }
        script.extend(segment);
    }

    FuzzCase {
        seed: spec.seed,
        nmax: spec.nmax,
        round: 64,
        script,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = FuzzSpec::smoke(42);
        assert_eq!(generate_case(&spec), generate_case(&spec));
        let other = FuzzSpec::smoke(43);
        assert_ne!(generate_case(&spec).script, generate_case(&other).script);
    }

    #[test]
    fn scripts_open_with_the_warmup_and_hit_the_requested_length() {
        let spec = FuzzSpec::smoke(7);
        let case = generate_case(&spec);
        assert_eq!(case.script.len(), spec.warmup + spec.ops);
        assert!(case.script[..spec.warmup]
            .iter()
            .all(|op| matches!(op, WorkloadOp::Insert { .. })));
        // The generated tail contains more than one op family.
        let tail = &case.script[spec.warmup..];
        assert!(tail.iter().any(|op| matches!(op, WorkloadOp::Route { .. })));
        assert!(tail
            .iter()
            .any(|op| matches!(op, WorkloadOp::Insert { .. })));
    }
}
