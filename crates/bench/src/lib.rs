//! # voronet-bench
//!
//! The paper's evaluation (Section 5) in one crate: the drivers behind
//! Figures 5–8, two ablations that are not in the paper (VoroNet against
//! the Kleinberg grid it generalises, per-operation maintenance messages),
//! the grid itself, the Figure 7 log–log fit and the series export.
//!
//! The runners back the `figures` binary (`cargo run -p voronet-bench
//! --release --bin figures -- all`), which prints the series and writes CSV
//! files.  The paper judges the overlay by counts (hops, out-degree,
//! messages), and so do these runners: nothing here is timed.  Timings live
//! in the `benchmark/` package alone.
//!
//! Scale is a parameter everywhere: the paper's 300 000-object runs are the
//! `ExperimentScale::paper()` preset, the binary's default is
//! `ExperimentScale::quick()`.

#![warn(missing_docs)]

mod kleinberg;
mod regression;
mod series;

pub use kleinberg::{KleinbergConfig, KleinbergGrid};
pub use regression::{fit_loglog_exponent, LinearFit};
pub use series::{series_to_csv, series_to_table, Series};

use voronet_core::{ErrorKind, ObjectId, VoroNet, VoroNetConfig};
use voronet_stats::IntHistogram;
use voronet_workloads::{Distribution, PointGenerator, QueryGenerator};

/// Scale parameters shared by all figure runners and drivers.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Final overlay size for Figures 5, 6/7 and 8.
    pub objects: usize,
    /// Number of random object pairs per routing measurement.
    pub pairs: usize,
    /// Number of growth samples taken while building the overlay (Figure 6):
    /// one every `objects / samples` joins.
    pub samples: usize,
    /// Largest number of long links swept in Figure 8.
    pub max_long_links: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's scale: 300 000 objects, 100 000 route pairs, samples
    /// every 10 000 insertions, 10 long links.
    pub fn paper() -> Self {
        ExperimentScale {
            objects: 300_000,
            pairs: 100_000,
            samples: 30,
            max_long_links: 10,
            seed: 2006,
        }
    }

    /// A laptop/CI scale preserving every qualitative feature of the
    /// figures (minutes instead of hours).
    pub fn quick() -> Self {
        ExperimentScale {
            objects: 20_000,
            pairs: 4_000,
            samples: 10,
            max_long_links: 8,
            seed: 2006,
        }
    }

    /// A tiny scale for smoke tests.
    pub fn smoke() -> Self {
        ExperimentScale {
            objects: 2_000,
            pairs: 500,
            samples: 4,
            max_long_links: 4,
            seed: 2006,
        }
    }

    /// Overrides the overlay size.
    pub fn with_objects(mut self, n: usize) -> Self {
        self.objects = n.max(10);
        self
    }

    /// Overrides the number of measured route pairs.
    pub fn with_pairs(mut self, pairs: usize) -> Self {
        self.pairs = pairs.max(10);
        self
    }
}

/// Long links per object while the overlay grows (Figures 6/7).
const GROWTH_LONG_LINKS: usize = 1;

/// Joins `n` objects drawn from `dist` (the generator seeded with
/// `generator_seed`) into a fresh overlay, calling `on_join` after every
/// join.  Duplicate positions produced by the skewed generators are
/// re-drawn, so the overlay always ends up holding exactly `n` objects.
fn grow(
    dist: Distribution,
    n: usize,
    config: VoroNetConfig,
    generator_seed: u64,
    mut on_join: impl FnMut(&mut VoroNet, &[ObjectId]),
) -> (VoroNet, Vec<ObjectId>) {
    let mut net = VoroNet::new(config);
    let mut generator = PointGenerator::with_domain(dist, generator_seed, config.domain);
    let mut ids = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while ids.len() < n {
        attempts += 1;
        assert!(
            attempts < 20 * n + 1000,
            "workload generator failed to produce {n} distinct positions"
        );
        match net.insert(generator.next_point()) {
            Ok(report) => ids.push(report.id),
            Err(e) if matches!(e.kind(), ErrorKind::DuplicatePosition(_)) => continue,
            Err(e) => panic!("unexpected join failure while building workload: {e}"),
        }
        on_join(&mut net, &ids);
    }
    (net, ids)
}

/// Builds an overlay of `n` objects drawn from `dist`.
pub fn build_overlay(
    dist: Distribution,
    n: usize,
    config: VoroNetConfig,
) -> (VoroNet, Vec<ObjectId>) {
    grow(dist, n, config, config.seed ^ 0x9E3779B9, |_, _| {})
}

/// Mean greedy route length over `pairs` random object pairs; a route that
/// fails is left out of the mean.
pub fn mean_route_length(net: &mut VoroNet, ids: &[ObjectId], pairs: usize, seed: u64) -> f64 {
    let (mut hops, mut routed) = (0.0, 0usize);
    for (a, b) in QueryGenerator::new(seed).object_pairs(ids.len(), pairs) {
        if let Ok(r) = net.route_between(ids[a], ids[b]) {
            hops += r.hops as f64;
            routed += 1;
        }
    }
    if routed == 0 {
        0.0
    } else {
        hops / routed as f64
    }
}

/// Figure 5: the distribution of Voronoi out-degrees for an overlay of
/// `scale.objects` objects drawn from `dist`.
pub fn degree_distribution(dist: Distribution, scale: &ExperimentScale) -> IntHistogram {
    let cfg = VoroNetConfig::new(scale.objects).with_seed(scale.seed);
    build_overlay(dist, scale.objects, cfg).0.degree_histogram()
}

/// Figure 6: mean route length as a function of overlay size, for one
/// distribution — one point every `objects / samples` joins.
pub fn route_length_growth(dist: Distribution, scale: &ExperimentScale) -> Series {
    let cfg = VoroNetConfig::new(scale.objects)
        .with_long_links(GROWTH_LONG_LINKS)
        .with_seed(scale.seed);
    let step = (scale.objects / scale.samples).max(1);
    let mut series = Series::new(dist.label());
    grow(dist, scale.objects, cfg, scale.seed ^ 0x51ED, |net, ids| {
        if ids.len() % step == 0 && ids.len() >= 2 {
            let mean = mean_route_length(net, ids, scale.pairs, scale.seed ^ ids.len() as u64);
            series.push(ids.len() as f64, mean);
        }
    });
    series
}

/// Figure 8: mean route length at full size for each number of long links in
/// `1..=scale.max_long_links`, for one distribution.
pub fn long_link_sweep(dist: Distribution, scale: &ExperimentScale) -> Series {
    let mut series = Series::new(dist.label());
    for k in 1..=scale.max_long_links {
        let cfg = VoroNetConfig::new(scale.objects)
            .with_long_links(k)
            .with_seed(scale.seed + k as u64);
        let (mut net, ids) = build_overlay(dist, scale.objects, cfg);
        let mean = mean_route_length(&mut net, &ids, scale.pairs, scale.seed ^ (k as u64) << 8);
        series.push(k as f64, mean);
    }
    series
}

/// Figure 5: distribution of the Voronoi out-degree `|vn(o)|` for the
/// uniform and highly skewed (α = 5) workloads, one
/// `(distribution label, histogram)` pair each.
pub fn run_fig5(scale: &ExperimentScale) -> Vec<(String, IntHistogram)> {
    let dists = [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }];
    run_per_distribution(&dists, |dist| {
        (dist.label(), degree_distribution(dist, scale))
    })
}

/// Figure 6: mean greedy route length as a function of the overlay size for
/// the four distributions of the paper (uniform, α = 1, 2, 5).
pub fn run_fig6(scale: &ExperimentScale) -> Vec<Series> {
    run_per_distribution(&Distribution::paper_set(), |dist| {
        let offset = match dist {
            Distribution::Uniform => 0,
            Distribution::PowerLaw { alpha } => alpha as u64,
            _ => 17,
        };
        let scale = ExperimentScale {
            seed: scale.seed + offset,
            ..*scale
        };
        route_length_growth(dist, &scale)
    })
}

/// Figure 7: the `log H` vs `log log N` transformation of the Figure 6
/// series, together with the fitted slope per distribution.  The paper
/// reads ≈ 2 as `O(log² N)` routing; at 300 000 objects (seed 2006) this
/// fit reads 2.65 for uniform objects, and 2.47 for the Kleinberg grid
/// control, whose routing is `O(log² N)` — see `crates/README.md`, "The
/// Fig. 7 slope is unexplained".
pub fn run_fig7(fig6: &[Series]) -> Vec<(Series, Option<LinearFit>)> {
    fig6.iter()
        .map(|s| {
            let transformed = Series {
                label: s.label.clone(),
                points: s
                    .points
                    .iter()
                    .filter(|&&(x, y)| x > std::f64::consts::E && y > 0.0)
                    .map(|&(x, y)| (x.ln().ln(), y.ln()))
                    .collect(),
            };
            let fit = fit_loglog_exponent(&s.points);
            (transformed, fit)
        })
        .collect()
}

/// Figure 8: mean route length at full size as a function of the number of
/// long-range links (1..=max), for the uniform and α = 5 workloads.
pub fn run_fig8(scale: &ExperimentScale) -> Vec<Series> {
    let dists = [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }];
    run_per_distribution(&dists, |dist| long_link_sweep(dist, scale))
}

/// Ablation: VoroNet versus the Kleinberg grid baseline at equal population,
/// one series per structure.
pub fn run_ablation_kleinberg(scale: &ExperimentScale) -> Vec<Series> {
    let mut grid_series = Series::new("kleinberg grid (s=2)");
    let mut net_series = Series::new("voronet (uniform)");
    let sides: Vec<u32> = [16u32, 24, 32, 48, 64]
        .into_iter()
        .filter(|&s| (s * s) as usize <= scale.objects.max(256))
        .collect();
    for side in sides {
        let population = (side * side) as usize;
        let grid = KleinbergGrid::build(KleinbergConfig::navigable(side), scale.seed);
        grid_series.push(
            population as f64,
            grid.mean_route_length(scale.pairs.min(2_000), scale.seed),
        );
        let cfg = VoroNetConfig::new(population).with_seed(scale.seed);
        let (mut net, ids) = build_overlay(Distribution::Uniform, population, cfg);
        net_series.push(
            population as f64,
            mean_route_length(&mut net, &ids, scale.pairs.min(2_000), scale.seed ^ 1),
        );
    }
    vec![grid_series, net_series]
}

/// Ablation: per-operation maintenance message cost (join and leave) as the
/// overlay grows — the O(1) claim of Section 4.2.
pub fn run_ablation_maintenance(scale: &ExperimentScale) -> Vec<Series> {
    let mut join_series = Series::new("join messages (non-routing)");
    let mut leave_series = Series::new("leave messages");
    let sizes = [
        scale.objects / 8,
        scale.objects / 4,
        scale.objects / 2,
        scale.objects,
    ];
    for &n in sizes.iter().filter(|&&n| n >= 50) {
        let cfg = VoroNetConfig::new(n).with_seed(scale.seed);
        let (mut net, ids) = build_overlay(Distribution::Uniform, n, cfg);
        let mut qg = voronet_workloads::QueryGenerator::new(scale.seed);
        let trials = 50usize;
        let mut join_msgs = 0.0;
        let mut joins = 0.0f64;
        for _ in 0..trials {
            let p = qg.point();
            if let Ok(r) = net.insert(p) {
                join_msgs += r.messages as f64 - (r.routing_hops + r.long_link_hops) as f64;
                joins += 1.0;
            }
        }
        let mut leave_msgs = 0.0;
        for &id in ids.iter().take(trials) {
            leave_msgs += net.remove(id).unwrap().messages as f64;
        }
        join_series.push(n as f64, join_msgs / joins.max(1.0));
        leave_series.push(n as f64, leave_msgs / trials as f64);
    }
    vec![join_series, leave_series]
}

/// Runs `f` once per distribution, in parallel (one thread per
/// distribution; the experiments are completely independent).
fn run_per_distribution<T: Send>(
    dists: &[Distribution],
    f: impl Fn(Distribution) -> T + Sync,
) -> Vec<T> {
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(dists.len(), || None);
    std::thread::scope(|scope| {
        for (slot, &dist) in out.iter_mut().zip(dists.iter()) {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(dist));
            });
        }
    });
    out.into_iter()
        .map(|t| t.expect("worker filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            objects: 400,
            pairs: 150,
            samples: 3,
            max_long_links: 2,
            seed: 7,
        }
    }

    /// Each point as `(x, y · n)` in integers: with `n` the number of
    /// samples behind the mean, `y · n` is the sum of integer counts (hops or
    /// messages) and must round-trip exactly.
    fn sums(series: &[Series], n: usize) -> Vec<Vec<(u64, u64)>> {
        series
            .iter()
            .map(|s| {
                s.points
                    .iter()
                    .map(|&(x, y)| {
                        let sum = (y * n as f64).round();
                        assert!((y * n as f64 - sum).abs() < 1e-6, "{}: {y} × {n}", s.label);
                        (x as u64, sum as u64)
                    })
                    .collect()
            })
            .collect()
    }

    /// Every number the runners return at `tiny()` scale, as integers:
    /// Fig. 5's histogram counts, the hop sums behind each Fig. 6, Fig. 8
    /// and Kleinberg-ablation point (150 pairs each) and the message sums
    /// behind each maintenance point (50 joins, 50 leaves); plus Fig. 7's
    /// shape, one transformed series per Fig. 6 series.
    #[test]
    fn runner_numbers_are_pinned() {
        let fig5: Vec<Vec<u64>> = run_fig5(&tiny())
            .iter()
            .map(|(_, h)| h.dense_rows().into_iter().map(|(_, c)| c).collect())
            .collect();
        assert_eq!(
            fig5,
            [
                vec![0, 0, 0, 5, 45, 114, 118, 79, 29, 6, 3, 0, 1],
                vec![0, 0, 0, 7, 54, 88, 129, 75, 32, 12, 3],
            ]
        );
        let fig6 = run_fig6(&tiny());
        assert_eq!(
            sums(&fig6, 150),
            [
                [(133, 781), (266, 1077), (399, 1230)],
                [(133, 801), (266, 1083), (399, 1243)],
                [(133, 536), (266, 534), (399, 589)],
                [(133, 188), (266, 191), (399, 188)],
            ]
        );
        let fig7 = run_fig7(&fig6);
        assert_eq!(fig7.len(), 4);
        assert!(fig7.iter().all(|(s, _)| s.len() == 3));
        assert_eq!(
            sums(&run_fig8(&tiny()), 150),
            [[(1, 1177), (2, 1111)], [(1, 184), (2, 182)]]
        );
        assert_eq!(
            sums(&run_ablation_kleinberg(&tiny()), 150),
            [[(256, 1248)], [(256, 987)]]
        );
        assert_eq!(
            sums(&run_ablation_maintenance(&tiny()), 50),
            [
                [(50, 695), (100, 691), (200, 726), (400, 705)],
                [(50, 362), (100, 374), (200, 358), (400, 377)],
            ]
        );
    }

    #[test]
    fn scale_presets() {
        assert_eq!(ExperimentScale::paper().objects, 300_000);
        assert!(ExperimentScale::quick().objects < ExperimentScale::paper().objects);
        let s = ExperimentScale::smoke().with_objects(5).with_pairs(3);
        assert_eq!(s.objects, 10);
        assert_eq!(s.pairs, 10);
    }
}
