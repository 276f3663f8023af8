//! Seeded generation of fuzz cases from a weighted op grammar.
//!
//! A [`FuzzCase`] is fully self-describing: the overlay parameters, the
//! network profile of the lossy companion run, and an engine-agnostic
//! [`WorkloadOp`] script (participants named by dense population index, so
//! the script survives arbitrary subsequence removal during shrinking).
//! Generation reuses [`OpBatchGenerator`]/[`OpMix`] as the grammar
//! backbone: the script opens with a warm-up burst of inserts, then
//! alternates weighted segments — read-heavy serving, churn bursts,
//! read-only stretches (long runs of reads over one epoch), a balanced
//! mix that includes snapshots, and service segments (region pub/sub and
//! coordinate-keyed KV traffic, occasionally with a Zipf-skewed hot-topic
//! palette) — while the lossy profile layers
//! network events on top: iid loss and a partition window, both from the
//! chaos layer's fault injection, and latency shifts on the hub.
//! Service segments are always part of the rotation; [`FuzzSpec::services`]
//! biases generation towards them for service-focused fuzzing.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet_net::LinkFaults;
use voronet_sim::{LatencyModel, NetworkModel};
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
    /// Whether to attach a lossy network profile (adds the lossy cluster
    /// companion run).
    pub lossy: bool,
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
            lossy: seed % 2 == 1,
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
            lossy: true,
            services: false,
        }
    }
}

/// The network conditions of the lossy companion run, in serializable
/// form: a latency-only hub ([`NetProfile::network`]) whose endpoints
/// the chaos layer's `FaultTransport` wraps ([`NetProfile::link`], and
/// the partition the harness opens and heals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetProfile {
    /// No companion run: only the three deterministic executions.
    Ideal,
    /// A lossy, latency-shifting, occasionally partitioned network.
    Lossy {
        /// Seed of the hub's latency draws and of every endpoint's fault
        /// rolls.
        seed: u64,
        /// iid per-frame drop probability.
        loss: f64,
        /// Initial latency bounds (uniform in `[min, max]`).
        lat_min: u64,
        /// Upper latency bound.
        lat_max: u64,
        /// Optional latency shift: from hub instant `.0`, latency becomes
        /// uniform in `[.1, .2]`.
        shift: Option<(u64, u64, u64)>,
        /// Optional partition `(start, end, groups)`: the cluster splits
        /// into `groups` before op `start` and heals before op `end`,
        /// counted in the resolved op stream as
        /// [`Divergence::op_index`](crate::Divergence::op_index)
        /// counts it.
        partition: Option<(u64, u64, u64)>,
    },
}

impl NetProfile {
    /// The hub's latency model.
    pub fn network(&self) -> NetworkModel {
        match *self {
            NetProfile::Ideal => NetworkModel::ideal(),
            NetProfile::Lossy {
                seed,
                lat_min,
                lat_max,
                shift,
                ..
            } => {
                let mut model = NetworkModel::new(
                    seed,
                    LatencyModel::Uniform {
                        min: lat_min,
                        max: lat_max,
                    },
                );
                if let Some((at, min, max)) = shift {
                    model = model.with_latency_shift(at, LatencyModel::Uniform { min, max });
                }
                model
            }
        }
    }

    /// The link faults every endpoint rolls.
    pub fn link(&self) -> LinkFaults {
        match *self {
            NetProfile::Ideal => LinkFaults::default(),
            NetProfile::Lossy { loss, .. } => LinkFaults {
                drop: loss,
                ..LinkFaults::default()
            },
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
    /// Ops per resolution round (scripts resolve participant indices
    /// against live state once per round, so later rounds can address
    /// objects inserted by earlier ones).
    pub round: usize,
    /// Network profile of the lossy companion run.
    pub net: NetProfile,
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

    let net = if spec.lossy {
        let lat_min = rng.random_range(1..4u64);
        let lat_max = lat_min + rng.random_range(1..12u64);
        let shift = if rng.random_range(0..2u32) == 0 {
            let min = rng.random_range(1..6u64);
            Some((
                rng.random_range(50..400u64),
                min,
                min + rng.random_range(1..20u64),
            ))
        } else {
            None
        };
        // A partition opens and heals inside the script, after the
        // warm-up.
        let last = (script.len() as u64).saturating_sub(1);
        let partition = if rng.random_range(0..3u32) == 0 && last > spec.warmup as u64 {
            let start = rng.random_range(spec.warmup as u64..last);
            Some((
                start,
                (start + rng.random_range(20..200u64)).min(last),
                rng.random_range(2..4u64),
            ))
        } else {
            None
        };
        NetProfile::Lossy {
            seed: rng.random::<u64>(),
            loss: f64::from(rng.random_range(1..30u32)) / 100.0,
            lat_min,
            lat_max,
            shift,
            partition,
        }
    } else {
        NetProfile::Ideal
    };

    FuzzCase {
        seed: spec.seed,
        nmax: spec.nmax,
        round: 64,
        net,
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

    /// A lossy profile drops frames through the fault layer, and a
    /// partition it draws opens inside the script: the lossy member's
    /// endpoints cut frames at its boundary.
    #[test]
    fn lossy_profiles_drop_frames_and_their_partitions_fire() {
        let spec = |seed| FuzzSpec {
            warmup: 16,
            ops: 96,
            lossy: true,
            ..FuzzSpec::smoke(seed)
        };
        let case = generate_case(&spec(3));
        assert!(case.net.link().drop > 0.0, "{:?}", case.net);
        let ideal = generate_case(&FuzzSpec {
            lossy: false,
            ..FuzzSpec::smoke(3)
        });
        assert_eq!(ideal.net, NetProfile::Ideal);

        let case = (1..)
            .map(|seed| generate_case(&spec(seed)))
            .find(|case| {
                matches!(
                    case.net,
                    NetProfile::Lossy {
                        partition: Some(_),
                        ..
                    }
                )
            })
            .expect("a third of lossy profiles carry a partition");
        let report = crate::harness::run_case(&case, crate::frozen::Fault::None)
            .unwrap_or_else(|d| panic!("seed {}: {d}", case.seed));
        assert!(report.lossy_partitioned > 0, "{:?}: {report:?}", case.net);
    }
}
