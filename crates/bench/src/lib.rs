//! # voronet-bench
//!
//! Benchmark harness regenerating every figure of the VoroNet evaluation
//! (Section 5 of the paper) plus two ablations that are not in the paper
//! (VoroNet against the Kleinberg grid, per-operation maintenance messages).
//!
//! The figure runners back the `figures` binary (`cargo run -p
//! voronet-bench --release --bin figures -- all`), which prints the series
//! and writes CSV files.  The paper judges the overlay by counts (hops,
//! out-degree, messages), and so do these runners: nothing here is timed.
//! Timings live in the `benchmark/` package alone.
//!
//! Scale is a parameter everywhere: the paper's 300 000-object runs are the
//! `ExperimentScale::paper()` preset, the binary's default is
//! `ExperimentScale::quick()`.

#![warn(missing_docs)]

use voronet_core::experiments::{
    build_overlay, long_link_sweep, mean_route_length, route_length_growth, GrowthExperiment,
};
use voronet_core::VoroNetConfig;
use voronet_smallworld::{KleinbergConfig, KleinbergGrid};
use voronet_stats::{fit_loglog_exponent, IntHistogram, LinearFit, Series};
use voronet_workloads::Distribution;

/// Scale parameters shared by all figure runners.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Final overlay size for Figures 5, 6/7 and 8.
    pub objects: usize,
    /// Number of random object pairs per routing measurement.
    pub pairs: usize,
    /// Number of growth samples taken while building the overlay (Figure 6).
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

    fn growth(&self, dist_seed_offset: u64) -> GrowthExperiment {
        GrowthExperiment {
            max_objects: self.objects,
            step: (self.objects / self.samples).max(1),
            pairs_per_sample: self.pairs,
            long_links: 1,
            seed: self.seed + dist_seed_offset,
        }
    }
}

/// Output of the Figure 5 runner: one degree histogram per distribution.
#[derive(Debug, Clone)]
pub struct Fig5Output {
    /// `(distribution label, out-degree histogram)` pairs.
    pub histograms: Vec<(String, IntHistogram)>,
}

/// Figure 5: distribution of the Voronoi out-degree `|vn(o)|` for the
/// uniform and highly skewed (α = 5) workloads.
pub fn run_fig5(scale: ExperimentScale) -> Fig5Output {
    let dists = [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }];
    let histograms = run_per_distribution(&dists, |dist| {
        let cfg = VoroNetConfig::new(scale.objects).with_seed(scale.seed);
        let (net, _) = build_overlay(dist, scale.objects, cfg);
        (dist.label(), net.degree_histogram())
    });
    Fig5Output { histograms }
}

/// Figure 6: mean greedy route length as a function of the overlay size for
/// the four distributions of the paper (uniform, α = 1, 2, 5).
pub fn run_fig6(scale: ExperimentScale) -> Vec<Series> {
    let dists = Distribution::paper_set();
    run_per_distribution(&dists, |dist| {
        let offset = match dist {
            Distribution::Uniform => 0,
            Distribution::PowerLaw { alpha } => alpha as u64,
            _ => 17,
        };
        route_length_growth(dist, scale.growth(offset))
    })
}

/// Figure 7: the `log H` vs `log log N` transformation of the Figure 6
/// series, together with the fitted slope per distribution (≈ 2 at paper
/// scale, confirming `O(log² N)` routing).
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
pub fn run_fig8(scale: ExperimentScale) -> Vec<Series> {
    let dists = [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }];
    run_per_distribution(&dists, |dist| {
        long_link_sweep(
            dist,
            scale.objects,
            scale.max_long_links,
            scale.pairs,
            scale.seed,
        )
    })
}

/// Ablation: VoroNet versus the Kleinberg grid baseline at equal population,
/// one series per structure.
pub fn run_ablation_kleinberg(scale: ExperimentScale) -> Vec<Series> {
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
pub fn run_ablation_maintenance(scale: ExperimentScale) -> Vec<Series> {
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

    #[test]
    fn fig5_runner_produces_centred_histograms() {
        let out = run_fig5(tiny());
        assert_eq!(out.histograms.len(), 2);
        for (label, h) in &out.histograms {
            assert_eq!(h.total(), 400, "{label}");
            let mode = h.mode().unwrap();
            assert!((4..=8).contains(&mode), "{label}: mode {mode}");
        }
    }

    #[test]
    fn fig6_and_fig7_runners_are_consistent() {
        let fig6 = run_fig6(tiny());
        assert_eq!(fig6.len(), 4);
        for s in &fig6 {
            assert_eq!(s.len(), 3, "{}", s.label);
        }
        let fig7 = run_fig7(&fig6);
        assert_eq!(fig7.len(), 4);
        for (s, _fit) in &fig7 {
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn fig8_runner_sweeps_long_links() {
        let out = run_fig8(tiny());
        assert_eq!(out.len(), 2);
        for s in &out {
            assert_eq!(s.len(), 2);
            assert!(s.points[1].1 <= s.points[0].1 * 1.2);
        }
    }

    #[test]
    fn ablation_runners_produce_series() {
        let scale = tiny();
        let k = run_ablation_kleinberg(scale);
        assert_eq!(k.len(), 2);
        assert!(!k[0].is_empty());
        let m = run_ablation_maintenance(ExperimentScale {
            objects: 400,
            ..scale
        });
        assert_eq!(m.len(), 2);
        assert!(!m[0].is_empty());
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
