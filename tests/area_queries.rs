//! Integration tests for the range/radius query extension: results must
//! match a brute-force scan of the published objects, for every workload.

use voronet::prelude::*;
use voronet_bench::build_overlay;
use voronet_core::VoroNetConfig;
use voronet_workloads::{RadiusQuery, RangeQuery};

fn check_queries(dist: Distribution, seed: u64) {
    let n = 600;
    let cfg = VoroNetConfig::new(n).with_seed(seed);
    let (mut net, ids) = build_overlay(dist, n, cfg);
    let mut qg = QueryGenerator::new(seed ^ 0xBEEF);

    for trial in 0..15 {
        let rq = qg.range_query(0.3);
        let mut expected: Vec<ObjectId> = ids
            .iter()
            .copied()
            .filter(|&id| rq.rect.contains(net.coords(id).unwrap()))
            .collect();
        expected.sort_unstable();
        let from = ids[qg.object_index(ids.len())];
        let got = range_query(&mut net, from, rq).unwrap();
        assert_eq!(
            got.matches,
            expected,
            "{} range query #{trial} mismatch (seed {seed})",
            dist.label()
        );

        let dq = qg.radius_query(0.2);
        let mut expected: Vec<ObjectId> = ids
            .iter()
            .copied()
            .filter(|&id| net.coords(id).unwrap().distance(dq.center) <= dq.radius)
            .collect();
        expected.sort_unstable();
        let got = radius_query(&mut net, from, dq).unwrap();
        assert_eq!(
            got.matches,
            expected,
            "{} radius query #{trial} mismatch (seed {seed})",
            dist.label()
        );
    }
}

#[test]
fn queries_match_bruteforce_uniform() {
    check_queries(Distribution::Uniform, 1);
}

#[test]
fn queries_match_bruteforce_skewed() {
    check_queries(Distribution::PowerLaw { alpha: 2.0 }, 2);
}

#[test]
fn queries_match_bruteforce_clustered() {
    check_queries(
        Distribution::Clusters {
            clusters: 6,
            spread: 0.05,
        },
        3,
    );
}

#[test]
fn whole_domain_query_returns_everything() {
    let n = 300;
    let cfg = VoroNetConfig::new(n).with_seed(8);
    let (mut net, ids) = build_overlay(Distribution::Uniform, n, cfg);
    let report = range_query(&mut net, ids[0], RangeQuery { rect: Rect::UNIT }).unwrap();
    assert_eq!(report.matches.len(), n);
    assert_eq!(report.visited, n);

    let report = radius_query(
        &mut net,
        ids[0],
        RadiusQuery {
            center: Point2::new(0.5, 0.5),
            radius: 1.0,
        },
    )
    .unwrap();
    assert_eq!(report.matches.len(), n);
}
