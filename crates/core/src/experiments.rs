//! Experiment drivers shared by the bench harness, the examples and the
//! integration tests.
//!
//! Each figure of the paper's evaluation (Section 5) reduces to one of the
//! helpers below:
//!
//! * Figure 5 — [`degree_distribution`]: histogram of `|vn(o)|` at full size;
//! * Figure 6 — [`route_length_growth`]: mean greedy route length sampled
//!   while the overlay grows, for one object distribution;
//! * Figure 7 — derived from the Figure 6 series via
//!   [`voronet_stats::fit_loglog_exponent`];
//! * Figure 8 — [`long_link_sweep`]: mean route length as a function of the
//!   number of long-range links per object.

use crate::config::VoroNetConfig;
use crate::error::ErrorKind;
use crate::object::ObjectId;
use crate::overlay::VoroNet;
use voronet_stats::{IntHistogram, Series};
use voronet_workloads::{Distribution, PointGenerator, QueryGenerator};

/// Parameters of a growth experiment (Figures 6/7).
#[derive(Debug, Clone, Copy)]
pub struct GrowthExperiment {
    /// Final overlay size.
    pub max_objects: usize,
    /// Measurement interval: mean route length is sampled every
    /// `step` insertions (the paper uses 10 000).
    pub step: usize,
    /// Number of random object pairs measured at each sample point (the
    /// paper uses 100 000).
    pub pairs_per_sample: usize,
    /// Long links per object.
    pub long_links: usize,
    /// Seed for workload and protocol randomness.
    pub seed: u64,
}

impl Default for GrowthExperiment {
    fn default() -> Self {
        GrowthExperiment {
            max_objects: 300_000,
            step: 10_000,
            pairs_per_sample: 100_000,
            long_links: 1,
            seed: 2006,
        }
    }
}

impl GrowthExperiment {
    /// A laptop-scale variant preserving the experiment's shape (used by the
    /// default bench run and the tests).
    pub fn quick(max_objects: usize) -> Self {
        GrowthExperiment {
            max_objects,
            step: (max_objects / 6).max(1),
            pairs_per_sample: 2_000,
            long_links: 1,
            seed: 2006,
        }
    }
}

/// Builds an overlay of `n` objects drawn from `dist`.
///
/// Duplicate positions produced by the skewed generators are re-drawn, so the
/// returned overlay always holds exactly `n` objects.
pub fn build_overlay(
    dist: Distribution,
    n: usize,
    config: VoroNetConfig,
) -> (VoroNet, Vec<ObjectId>) {
    let mut net = VoroNet::new(config);
    let mut generator = PointGenerator::with_domain(dist, config.seed ^ 0x9E3779B9, config.domain);
    let mut ids = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while ids.len() < n {
        attempts += 1;
        assert!(
            attempts < 20 * n + 1000,
            "workload generator failed to produce {n} distinct positions"
        );
        let p = generator.next_point();
        match net.insert(p) {
            Ok(report) => ids.push(report.id),
            Err(e) if matches!(e.kind(), ErrorKind::DuplicatePosition(_)) => continue,
            Err(e) => panic!("unexpected join failure while building workload: {e}"),
        }
    }
    (net, ids)
}

/// Mean greedy route length over `pairs` random object pairs.
pub fn mean_route_length(net: &mut VoroNet, ids: &[ObjectId], pairs: usize, seed: u64) -> f64 {
    let mut qg = QueryGenerator::new(seed);
    let pair_ids: Vec<(ObjectId, ObjectId)> = qg
        .object_pairs(ids.len(), pairs)
        .into_iter()
        .map(|(a, b)| (ids[a], ids[b]))
        .collect();
    net.measure_routes(&pair_ids).mean()
}

/// Figure 5: the distribution of Voronoi out-degrees for an overlay of `n`
/// objects drawn from `dist`.
pub fn degree_distribution(dist: Distribution, n: usize, seed: u64) -> IntHistogram {
    let cfg = VoroNetConfig::new(n).with_seed(seed);
    let (net, _) = build_overlay(dist, n, cfg);
    net.degree_histogram()
}

/// Figure 6: mean route length as a function of overlay size, for one
/// distribution.  Returns a series with one point per `step` insertions.
pub fn route_length_growth(dist: Distribution, exp: GrowthExperiment) -> Series {
    let cfg = VoroNetConfig::new(exp.max_objects)
        .with_long_links(exp.long_links)
        .with_seed(exp.seed);
    let mut net = VoroNet::new(cfg);
    let mut generator = PointGenerator::with_domain(dist, exp.seed ^ 0x51ED, cfg.domain);
    let mut ids = Vec::with_capacity(exp.max_objects);
    let mut series = Series::new(dist.label());
    let mut attempts = 0usize;
    while ids.len() < exp.max_objects {
        attempts += 1;
        assert!(
            attempts < 20 * exp.max_objects + 1000,
            "workload generator failed to produce enough distinct positions"
        );
        let p = generator.next_point();
        match net.insert(p) {
            Ok(report) => ids.push(report.id),
            Err(e) if matches!(e.kind(), ErrorKind::DuplicatePosition(_)) => continue,
            Err(e) => panic!("unexpected join failure: {e}"),
        }
        if ids.len() % exp.step == 0 && ids.len() >= 2 {
            let mean = mean_route_length(
                &mut net,
                &ids,
                exp.pairs_per_sample,
                exp.seed ^ ids.len() as u64,
            );
            series.push(ids.len() as f64, mean);
        }
    }
    series
}

/// Figure 8: mean route length at full size for each number of long links in
/// `1..=max_links`, for one distribution.
pub fn long_link_sweep(
    dist: Distribution,
    n: usize,
    max_links: usize,
    pairs: usize,
    seed: u64,
) -> Series {
    let mut series = Series::new(dist.label());
    for k in 1..=max_links {
        let cfg = VoroNetConfig::new(n)
            .with_long_links(k)
            .with_seed(seed + k as u64);
        let (mut net, ids) = build_overlay(dist, n, cfg);
        let mean = mean_route_length(&mut net, &ids, pairs, seed ^ (k as u64) << 8);
        series.push(k as f64, mean);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_overlay_respects_size_and_distribution() {
        let cfg = VoroNetConfig::new(200).with_seed(1);
        let (net, ids) = build_overlay(Distribution::PowerLaw { alpha: 2.0 }, 200, cfg);
        assert_eq!(net.len(), 200);
        assert_eq!(ids.len(), 200);
        net.check_invariants(false).unwrap();
    }

    #[test]
    fn degree_distribution_centres_near_six() {
        let h = degree_distribution(Distribution::Uniform, 600, 3);
        assert_eq!(h.total(), 600);
        let mode = h.mode().unwrap();
        assert!((5..=7).contains(&mode), "degree mode {mode} not near 6");
    }

    #[test]
    fn route_growth_series_has_expected_shape() {
        let exp = GrowthExperiment {
            max_objects: 600,
            step: 200,
            pairs_per_sample: 200,
            long_links: 1,
            seed: 5,
        };
        let s = route_length_growth(Distribution::Uniform, exp);
        assert_eq!(s.len(), 3);
        assert!(s.points.iter().all(|&(_, y)| y >= 1.0));
    }

    #[test]
    fn more_long_links_do_not_hurt_routing() {
        let s = long_link_sweep(Distribution::Uniform, 400, 3, 300, 11);
        assert_eq!(s.len(), 3);
        let k1 = s.points[0].1;
        let k3 = s.points[2].1;
        assert!(
            k3 <= k1 * 1.1,
            "routing with 3 long links ({k3}) should not be worse than with 1 ({k1})"
        );
    }
}
