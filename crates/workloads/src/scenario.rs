//! Production-shaped traffic scenarios for the heavy-traffic suite.
//!
//! Every bench before this module drew uniform random pairs; real
//! deployments don't.  Each scenario here scripts a recognisable
//! production pathology as a plain [`WorkloadOp`] stream, so the same
//! generated traffic can be replayed against the sync walk, a frozen
//! view and the socketed cluster and their latency tails compared
//! honestly:
//!
//! - [`ScenarioKind::ZipfHotspot`] — web-shaped destination skew: route
//!   targets drawn Zipf(α = 1.1) over population rank, so a handful of
//!   objects absorb most of the traffic (the paper's Section 5 load
//!   model).
//! - [`ScenarioKind::FlashCrowd`] — a regional flash crowd: a burst of
//!   inserts lands inside one tiny rectangle (one Voronoi cell of the
//!   warm-up overlay) while all routed traffic targets the arrivals,
//!   stressing the N_max/split provisioning machinery.
//! - [`ScenarioKind::MassChurn`] — correlated churn, the partition-
//!   recovery shape: every object of a region departs back-to-back,
//!   routes continue among survivors, then the whole region rejoins.
//! - [`ScenarioKind::DegenerateGeometry`] — adversarial geometry: a
//!   near-cocircular + gridded warm-up overlay fed a near-collinear
//!   insert sweep, the placements that maximise Delaunay degeneracy.
//!
//! Participants are dense population indices with the engines' exact
//! swap-remove bookkeeping mirrored at generation time, so a scripted
//! `Remove { index }` provably hits an in-region object and flash-crowd
//! routes provably target crowd members.  Everything is deterministic
//! per seed.

use crate::distribution::{Distribution, PointGenerator, ZipfSampler};
use crate::ops::WorkloadOp;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet_geom::{Point2, Rect};

/// The scenarios of the heavy-traffic suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Zipf-skewed destination hotspots over a uniform overlay.
    ZipfHotspot,
    /// A burst of arrivals into one Voronoi cell, all routes following.
    FlashCrowd,
    /// A whole region leaving back-to-back, then rejoining.
    MassChurn,
    /// Near-degenerate placements: cocircular/grid overlay, collinear
    /// insert sweep.
    DegenerateGeometry,
}

impl ScenarioKind {
    /// Every scenario, in recording order.
    pub fn all() -> [ScenarioKind; 4] {
        [
            ScenarioKind::ZipfHotspot,
            ScenarioKind::FlashCrowd,
            ScenarioKind::MassChurn,
            ScenarioKind::DegenerateGeometry,
        ]
    }

    /// Stable snake-case name used as the JSON section key.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::ZipfHotspot => "zipf_hotspot",
            ScenarioKind::FlashCrowd => "flash_crowd",
            ScenarioKind::MassChurn => "mass_churn",
            ScenarioKind::DegenerateGeometry => "degenerate_geometry",
        }
    }
}

/// Size and seed knobs of one scenario build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Which scenario to script.
    pub kind: ScenarioKind,
    /// Seed of every random draw; the same spec always yields the same
    /// scenario.
    pub seed: u64,
    /// Warm-up population (floored at 8).
    pub population: usize,
    /// Approximate number of measured route ops across all phases
    /// (floored at 8; mass churn may script more to cover the exodus).
    pub ops: usize,
}

impl ScenarioSpec {
    /// A spec with the floors applied.
    pub fn new(kind: ScenarioKind, seed: u64, population: usize, ops: usize) -> Self {
        ScenarioSpec {
            kind,
            seed,
            population: population.max(8),
            ops: ops.max(8),
        }
    }
}

/// One labelled stretch of a scenario's op stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPhase {
    /// Stable phase label (recorded alongside the latencies).
    pub label: &'static str,
    /// The scripted ops of this phase, in execution order.
    pub ops: Vec<WorkloadOp>,
}

/// A fully scripted scenario: warm-up placements plus phased traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The scenario scripted.
    pub kind: ScenarioKind,
    /// The seed it was built from.
    pub seed: u64,
    /// Warm-up overlay placements, inserted before any phase runs.
    pub setup: Vec<Point2>,
    /// Traffic phases, in execution order.
    pub phases: Vec<ScenarioPhase>,
    /// The stressed region, when the scenario has one (the flash-crowd
    /// cell or the mass-churn exodus region).
    pub hot_region: Option<Rect>,
}

impl Scenario {
    /// Scripts the scenario described by `spec`.
    pub fn build(spec: &ScenarioSpec) -> Scenario {
        let spec = ScenarioSpec::new(spec.kind, spec.seed, spec.population, spec.ops);
        match spec.kind {
            ScenarioKind::ZipfHotspot => zipf_hotspot(&spec),
            ScenarioKind::FlashCrowd => flash_crowd(&spec),
            ScenarioKind::MassChurn => mass_churn(&spec),
            ScenarioKind::DegenerateGeometry => degenerate_geometry(&spec),
        }
    }
}

/// A non-degenerate route pair below `pop` (`pop >= 2`).
fn route_pair(rng: &mut StdRng, pop: usize) -> (usize, usize) {
    let from = rng.random_range(0..pop);
    let mut to = rng.random_range(0..pop);
    if to == from {
        to = (to + 1) % pop;
    }
    (from, to)
}

fn zipf_hotspot(spec: &ScenarioSpec) -> Scenario {
    let setup =
        PointGenerator::new(Distribution::Uniform, spec.seed ^ 0xA5).take_points(spec.population);
    let sampler = ZipfSampler::new(spec.population, 1.1);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x407);
    let mut ops = Vec::with_capacity(spec.ops);
    for _ in 0..spec.ops {
        let from = rng.random_range(0..spec.population);
        let mut to = sampler.rank_of(rng.random());
        if to == from {
            to = (to + 1) % spec.population;
        }
        ops.push(WorkloadOp::Route { from, to });
    }
    Scenario {
        kind: spec.kind,
        seed: spec.seed,
        setup,
        phases: vec![ScenarioPhase {
            label: "hotspot_routes",
            ops,
        }],
        hot_region: None,
    }
}

fn flash_crowd(spec: &ScenarioSpec) -> Scenario {
    let setup =
        PointGenerator::new(Distribution::Uniform, spec.seed ^ 0xFC).take_points(spec.population);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC201D);
    let center = Point2::new(
        0.2 + 0.6 * rng.random::<f64>(),
        0.2 + 0.6 * rng.random::<f64>(),
    );
    let half = 0.01;
    let hot = Rect::new(
        Point2::new(center.x - half, center.y - half),
        Point2::new(center.x + half, center.y + half),
    );
    // One insert per three routes; the first op is an insert so every
    // route has a crowd member to target.  Inserts append to the dense
    // order, so indices `population..pop` are exactly the crowd.
    let mut pop = spec.population;
    let crowd_base = spec.population;
    let total = spec.ops + spec.ops / 3 + 1;
    let mut ops = Vec::with_capacity(total);
    for i in 0..total {
        if i % 4 == 0 {
            let position = Point2::new(
                hot.min.x + rng.random::<f64>() * hot.width(),
                hot.min.y + rng.random::<f64>() * hot.height(),
            );
            ops.push(WorkloadOp::Insert { position });
            pop += 1;
        } else {
            let to = crowd_base + rng.random_range(0..pop - crowd_base);
            let mut from = rng.random_range(0..pop);
            if from == to {
                from = (from + 1) % pop;
            }
            ops.push(WorkloadOp::Route { from, to });
        }
    }
    Scenario {
        kind: spec.kind,
        seed: spec.seed,
        setup,
        phases: vec![ScenarioPhase {
            label: "crowd_arrives",
            ops,
        }],
        hot_region: Some(hot),
    }
}

fn mass_churn(spec: &ScenarioSpec) -> Scenario {
    let setup =
        PointGenerator::new(Distribution::Uniform, spec.seed ^ 0x3C).take_points(spec.population);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC4012);
    let center = Point2::new(
        0.3 + 0.4 * rng.random::<f64>(),
        0.3 + 0.4 * rng.random::<f64>(),
    );
    let half = 0.25;
    let region = Rect::new(
        Point2::new((center.x - half).max(0.0), (center.y - half).max(0.0)),
        Point2::new((center.x + half).min(1.0), (center.y + half).min(1.0)),
    );
    // `model` mirrors the engines' dense order exactly: inserts append,
    // removes swap-remove — so each scripted index hits the intended
    // object at execution time.
    let mut model = setup.clone();
    let floor = 4;

    let mut exodus = Vec::new();
    let mut departed = Vec::new();
    while model.len() > floor {
        let Some(index) = model.iter().position(|p| region.contains(*p)) else {
            break;
        };
        exodus.push(WorkloadOp::Remove { index });
        departed.push(model.swap_remove(index));
        let (from, to) = route_pair(&mut rng, model.len());
        exodus.push(WorkloadOp::Route { from, to });
    }

    let mut rejoin = Vec::new();
    for &p in &departed {
        rejoin.push(WorkloadOp::Insert { position: p });
        model.push(p);
        // Route to the returner: rejoin traffic chases the recovered
        // region, as clients reconnecting after a partition do.
        let to = model.len() - 1;
        let mut from = rng.random_range(0..model.len());
        if from == to {
            from = (from + 1) % model.len();
        }
        rejoin.push(WorkloadOp::Route { from, to });
    }

    // Top up with steady-state routes so the measured sample count
    // reaches the spec regardless of how many objects the region held.
    let churn_routes = exodus.len() / 2 + rejoin.len() / 2;
    let mut recovered = Vec::new();
    for _ in churn_routes..spec.ops {
        let (from, to) = route_pair(&mut rng, model.len());
        recovered.push(WorkloadOp::Route { from, to });
    }

    Scenario {
        kind: spec.kind,
        seed: spec.seed,
        setup,
        phases: vec![
            ScenarioPhase {
                label: "exodus",
                ops: exodus,
            },
            ScenarioPhase {
                label: "rejoin",
                ops: rejoin,
            },
            ScenarioPhase {
                label: "recovered",
                ops: recovered,
            },
        ],
        hot_region: Some(region),
    }
}

fn degenerate_geometry(spec: &ScenarioSpec) -> Scenario {
    let half_pop = spec.population / 2;
    let side = ((half_pop as f64).sqrt().ceil() as usize).max(2);
    let mut setup =
        PointGenerator::new(Distribution::Grid { side, jitter: 0.05 }, spec.seed ^ 0xD6)
            .take_points(half_pop);
    setup.extend(
        PointGenerator::new(Distribution::Ring { jitter: 0.02 }, spec.seed ^ 0xD7)
            .take_points(spec.population - half_pop),
    );
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xDE6E2);
    // A near-collinear sweep along y = 0.5 — collinear triples are the
    // worst case of incremental Delaunay insertion — interleaved with
    // routes over everything inserted so far.
    let mut pop = setup.len();
    let total = spec.ops + spec.ops / 5 + 1;
    let inserts = total / 6 + 1;
    let mut ops = Vec::with_capacity(total);
    for i in 0..total {
        if i % 6 == 0 {
            let step = (i / 6) as f64 / inserts as f64;
            let position = Point2::new(
                0.05 + 0.9 * step + (rng.random::<f64>() - 0.5) * 1e-9,
                0.5 + (rng.random::<f64>() - 0.5) * 1e-7,
            );
            ops.push(WorkloadOp::Insert { position });
            pop += 1;
        } else {
            let (from, to) = route_pair(&mut rng, pop);
            ops.push(WorkloadOp::Route { from, to });
        }
    }
    Scenario {
        kind: spec.kind,
        seed: spec.seed,
        setup,
        phases: vec![ScenarioPhase {
            label: "collinear_stream",
            ops,
        }],
        hot_region: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: ScenarioKind) -> ScenarioSpec {
        ScenarioSpec::new(kind, 0xBEEF, 120, 200)
    }

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        for kind in ScenarioKind::all() {
            let a = Scenario::build(&spec(kind));
            let b = Scenario::build(&spec(kind));
            assert_eq!(a, b, "{}", kind.name());
            let c = Scenario::build(&ScenarioSpec::new(kind, 0xF00D, 120, 200));
            assert_ne!(a, c, "{} must vary with the seed", kind.name());
        }
    }

    #[test]
    fn scripted_indices_stay_below_the_tracked_population() {
        for kind in ScenarioKind::all() {
            let s = Scenario::build(&spec(kind));
            let mut pop = s.setup.len();
            let mut routes = 0;
            for phase in &s.phases {
                for op in &phase.ops {
                    match *op {
                        WorkloadOp::Insert { .. } => pop += 1,
                        WorkloadOp::Remove { index } => {
                            assert!(index < pop, "{}: remove {index} vs {pop}", kind.name());
                            pop -= 1;
                        }
                        WorkloadOp::Route { from, to } => {
                            assert!(from < pop && to < pop, "{}", kind.name());
                            assert_ne!(from, to, "{}: self-route scripted", kind.name());
                            routes += 1;
                        }
                        ref other => panic!("{}: unexpected op {other:?}", kind.name()),
                    }
                    assert!(pop >= 4, "{}: population underflow", kind.name());
                }
            }
            assert!(routes >= 200, "{}: only {routes} routes", kind.name());
        }
    }

    #[test]
    fn flash_crowd_concentrates_inserts_and_routes_into_the_cell() {
        let s = Scenario::build(&spec(ScenarioKind::FlashCrowd));
        let hot = s.hot_region.expect("flash crowd has a hot cell");
        assert!(hot.width() <= 0.021 && hot.height() <= 0.021, "cell-sized");
        let crowd_base = s.setup.len();
        let mut crowd = 0usize;
        for op in &s.phases[0].ops {
            match *op {
                WorkloadOp::Insert { position } => {
                    assert!(hot.contains(position), "arrival outside the cell");
                    crowd += 1;
                }
                WorkloadOp::Route { to, .. } => {
                    assert!(crowd > 0, "route scripted before any arrival");
                    assert!(
                        (crowd_base..crowd_base + crowd).contains(&to),
                        "route target {to} is not a crowd member"
                    );
                }
                ref other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(crowd >= 40, "crowd of {crowd} too small to force splits");
    }

    #[test]
    fn mass_churn_empties_and_refills_the_region() {
        let s = Scenario::build(&spec(ScenarioKind::MassChurn));
        let region = s.hot_region.expect("mass churn has a region");
        let in_region = s.setup.iter().filter(|p| region.contains(**p)).count();
        assert!(in_region >= 10, "region holds only {in_region} objects");

        // Replay the dense-order bookkeeping and check every remove hits
        // an in-region object and the rejoin restores all of them.
        let mut model = s.setup.clone();
        let mut gone = 0usize;
        for op in s.phases.iter().flat_map(|p| &p.ops) {
            match *op {
                WorkloadOp::Remove { index } => {
                    assert!(
                        region.contains(model[index]),
                        "remove {index} hits an out-of-region object"
                    );
                    model.swap_remove(index);
                    gone += 1;
                }
                WorkloadOp::Insert { position } => {
                    assert!(region.contains(position), "rejoin outside the region");
                    model.push(position);
                    gone -= 1;
                }
                WorkloadOp::Route { .. } => {}
                ref other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(gone, 0, "every departure must rejoin");
        assert_eq!(model.len(), s.setup.len());
        assert_eq!(
            s.phases.iter().map(|p| p.label).collect::<Vec<_>>(),
            ["exodus", "rejoin", "recovered"]
        );
    }

    #[test]
    fn degenerate_geometry_scripts_a_near_collinear_sweep() {
        let s = Scenario::build(&spec(ScenarioKind::DegenerateGeometry));
        let inserts: Vec<Point2> = s.phases[0]
            .ops
            .iter()
            .filter_map(|op| match *op {
                WorkloadOp::Insert { position } => Some(position),
                _ => None,
            })
            .collect();
        assert!(inserts.len() >= 20, "{} inserts", inserts.len());
        for p in &inserts {
            assert!((p.y - 0.5).abs() < 1e-6, "sweep point off the line: {p}");
        }
        // Distinct positions: the jitter must prevent exact duplicates,
        // which engines would reject and desync the scripted indices.
        let mut xs: Vec<u64> = inserts.iter().map(|p| p.x.to_bits()).collect();
        xs.sort_unstable();
        xs.dedup();
        assert_eq!(xs.len(), inserts.len(), "duplicate sweep positions");
    }
}
