//! Integration tests checking, at CI scale, the qualitative properties the
//! paper's evaluation establishes at 300 000 objects.

use voronet::prelude::*;
use voronet_bench::{
    build_overlay, degree_distribution, fit_loglog_exponent, long_link_sweep, mean_route_length,
    route_length_growth, ExperimentScale, KleinbergConfig, KleinbergGrid,
};
use voronet_core::VoroNetConfig;

/// Figure 5 (shape): the Voronoi out-degree distribution is centred around 6
/// and essentially independent of the object distribution.
#[test]
fn degree_distribution_is_centred_on_six_for_all_distributions() {
    for dist in [Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }] {
        let scale = ExperimentScale {
            objects: 1_500,
            seed: 42,
            ..ExperimentScale::smoke()
        };
        let h = degree_distribution(dist, &scale);
        assert_eq!(h.total(), 1_500);
        let mode = h.mode().unwrap();
        assert!(
            (5..=7).contains(&mode),
            "{}: degree mode {mode} should be near 6",
            dist.label()
        );
        assert!(
            h.mean() > 5.0 && h.mean() < 6.5,
            "{}: mean degree {} out of the expected band",
            dist.label(),
            h.mean()
        );
        // Planarity bounds the tail sharply: nothing close to linear degree.
        assert!(
            h.max().unwrap() < 30,
            "{}: unexpected huge degree",
            dist.label()
        );
    }
}

/// Figure 6 (shape): mean route length grows (it must — the overlay gets
/// bigger) but far slower than linearly, and skew does not destroy routing.
#[test]
fn route_length_grows_slowly_and_ignores_skew() {
    let scale = ExperimentScale {
        objects: 1_800,
        samples: 3,
        pairs: 400,
        seed: 7,
        ..ExperimentScale::smoke()
    };
    let uniform = route_length_growth(Distribution::Uniform, &scale);
    let skewed = route_length_growth(Distribution::PowerLaw { alpha: 5.0 }, &scale);
    assert_eq!(uniform.len(), 3);
    assert_eq!(skewed.len(), 3);

    // Growth from 600 to 1800 objects (3x) must stay well below 3x hops.
    let (first, last) = (uniform.points[0].1, uniform.points[2].1);
    assert!(
        last < first * 2.0,
        "uniform routing grew too fast: {first} -> {last}"
    );

    // Skewed and uniform routing costs stay within a small constant factor.
    for (u, s) in uniform.points.iter().zip(skewed.points.iter()) {
        assert!(
            s.1 < u.1 * 2.0 + 5.0,
            "skewed routing ({}) too far above uniform ({}) at n={}",
            s.1,
            u.1,
            u.0
        );
    }
}

/// Figure 7 (shape): the log(H) vs log(log(N)) fit of a growth series at
/// CI scale.  The six hop sums (400 pairs per sample) and the slope are
/// pinned: any change to joins, routing or the fit shows here.  At full
/// scale (`figures fig7 --paper`, seed 2006) the fit reads 2.65 against
/// the paper's ≈ 2 and the Kleinberg grid control's 2.47, a gap
/// `crates/README.md` ("Lemma 4 and the Fig. 7 slope") records as
/// unexplained.
#[test]
fn hop_growth_is_polylogarithmic() {
    let scale = ExperimentScale {
        objects: 2_400,
        samples: 6,
        pairs: 400,
        seed: 13,
        ..ExperimentScale::smoke()
    };
    let series = route_length_growth(Distribution::Uniform, &scale);
    let hop_sums: Vec<(u64, u64)> = series
        .points
        .iter()
        .map(|&(n, mean)| (n as u64, (mean * 400.0).round() as u64))
        .collect();
    assert_eq!(
        hop_sums,
        [
            (400, 3_284),
            (800, 4_239),
            (1_200, 4_943),
            (1_600, 5_332),
            (2_000, 6_036),
            (2_400, 6_434)
        ]
    );
    let fit = fit_loglog_exponent(&series.points).expect("enough points to fit");
    assert!(
        (fit.slope - 2.547).abs() < 0.01,
        "log-log slope {} moved from 2.547",
        fit.slope
    );
}

/// Figure 8 (shape): adding long-range links improves routing, with
/// diminishing returns.
#[test]
fn additional_long_links_improve_routing() {
    let scale = ExperimentScale {
        objects: 1_200,
        max_long_links: 6,
        pairs: 500,
        seed: 3,
        ..ExperimentScale::smoke()
    };
    let series = long_link_sweep(Distribution::Uniform, &scale);
    assert_eq!(series.len(), 6);
    let k1 = series.points[0].1;
    let k6 = series.points[5].1;
    assert!(
        k6 < k1,
        "6 long links ({k6} hops) must beat 1 long link ({k1} hops)"
    );
    // Diminishing returns: the first few links bring most of the gain.
    let k3 = series.points[2].1;
    assert!(
        (k1 - k3) > (k3 - k6) * 0.5,
        "gain pattern unexpected: k1={k1}, k3={k3}, k6={k6}"
    );
}

/// Memory claim of Section 4.1: view sizes are O(1) — in particular they do
/// not grow with the overlay size.
#[test]
fn view_sizes_do_not_grow_with_overlay_size() {
    let mut means = Vec::new();
    for &n in &[400usize, 1_600usize] {
        let cfg = VoroNetConfig::new(n).with_seed(5);
        let (net, _) = build_overlay(Distribution::Uniform, n, cfg);
        means.push(net.view_size_histogram().mean());
    }
    assert!(
        means[1] < means[0] * 1.5 + 2.0,
        "mean view size grew with n: {:?}",
        means
    );
}

/// Routing correctness under skew: every greedy route ends at the true owner
/// of the target.
#[test]
fn greedy_routing_is_exact_under_heavy_skew() {
    const OVERLAY_SEED: u64 = 23;
    const QUERY_SEED: u64 = 11;
    let cfg = VoroNetConfig::new(800).with_seed(OVERLAY_SEED);
    let (mut net, ids) = build_overlay(Distribution::PowerLaw { alpha: 5.0 }, 800, cfg);
    let mut qg = QueryGenerator::new(QUERY_SEED);
    for trial in 0..300 {
        let target = qg.point();
        let from = ids[qg.object_index(ids.len())];
        let expected = net.owner_of(target).unwrap();
        let got = net.route_to_point(from, target).unwrap();
        assert_eq!(
            got.owner, expected,
            "trial {trial} (overlay seed {OVERLAY_SEED}, query seed {QUERY_SEED}): route from \
             {from} towards {target} missed the owner"
        );
    }
}

/// The baseline comparison the related-work section implies: at equal
/// population, VoroNet's routing is in the same ballpark as the Kleinberg
/// grid it generalises (same asymptotics, comparable constants).
#[test]
fn voronet_matches_kleinberg_grid_ballpark() {
    let side = 32u32;
    let population = (side * side) as usize;
    let grid = KleinbergGrid::build(KleinbergConfig::navigable(side), 3);
    let grid_hops = grid.mean_route_length(400, 1);

    let cfg = VoroNetConfig::new(population).with_seed(3);
    let (mut net, ids) = build_overlay(Distribution::Uniform, population, cfg);
    let net_hops = mean_route_length(&mut net, &ids, 400, 2);

    assert!(
        net_hops < grid_hops * 4.0 && grid_hops < net_hops * 4.0,
        "hop counts too far apart: VoroNet {net_hops}, Kleinberg {grid_hops}"
    );
}
