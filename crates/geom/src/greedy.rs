//! `Greedyneighbour(Target)` (§3.2 / Algorithm 5 of the paper) — the one
//! routing rule, stated once.
//!
//! Every greedy walk in the workspace (nearest-vertex descent, the live
//! and frozen overlay walks, the message-per-hop runtimes, the cluster
//! hosts) is a *neighbour source* plus a call into this module, so the
//! tie-break — squared distances, strict `<`, first in scan order wins —
//! cannot drift between them.  Both functions are plain generics:
//! monomorphised and inlined, each caller compiles to its own scan loop.

use crate::point::Point2;

/// One forwarding decision: the entry of `candidates` strictly closer to
/// `target` than the `incumbent` (a key and its squared distance), or the
/// incumbent when none is.  Among equally close candidates the first in
/// scan order wins.  Listing the incumbent itself among the candidates is
/// harmless — it is never *strictly* closer than itself — and a `NaN`
/// distance never wins a comparison.
#[inline]
pub fn greedy_next<K>(
    target: Point2,
    incumbent: (K, f64),
    candidates: impl IntoIterator<Item = (K, Point2)>,
) -> (K, f64) {
    let (mut best, mut best_d) = incumbent;
    for (key, at) in candidates {
        let d = at.distance2(target);
        if d < best_d {
            best = key;
            best_d = d;
        }
    }
    (best, best_d)
}

/// The greedy walk: starting from `start` (a key and its position), keep
/// moving to [`greedy_next`] over `neighbours(current)` until the
/// incumbent survives.  `on_hop(from, to)` runs once per move; returns
/// where the walk stopped and the number of moves.
#[inline]
pub fn greedy_descent<K, I>(
    start: (K, Point2),
    target: Point2,
    mut neighbours: impl FnMut(K) -> I,
    mut on_hop: impl FnMut(K, K),
) -> (K, u32)
where
    K: Copy + PartialEq,
    I: IntoIterator<Item = (K, Point2)>,
{
    let (mut cur, at) = start;
    let mut cur_d = at.distance2(target);
    let mut hops = 0u32;
    loop {
        let (next, next_d) = greedy_next(target, (cur, cur_d), neighbours(cur));
        if next == cur {
            return (cur, hops);
        }
        on_hop(cur, next);
        cur = next;
        cur_d = next_d;
        hops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A point of a 5 × 5 lattice: few distinct squared distances, so
    /// exact ties between candidates (and with the incumbent) are the
    /// common case, not the exception.
    fn lattice(rng: &mut StdRng) -> Point2 {
        let coord = |rng: &mut StdRng| f64::from(rng.random_range(0u32..5)) * 0.25;
        Point2::new(coord(rng), coord(rng))
    }

    /// Every tenth target is `NaN`: all its distances are `NaN`, which
    /// must compare as "not closer".
    fn target(rng: &mut StdRng) -> Point2 {
        if rng.random_range(0u32..10) == 0 {
            Point2::new(f64::NAN, 0.5)
        } else {
            lattice(rng)
        }
    }

    /// The rule spelt out naively: among the candidates strictly closer
    /// than the incumbent, the first of the closest (`min_by` keeps the
    /// first of equal minima); the incumbent when there is none.
    fn naive_next(
        target: Point2,
        incumbent: (usize, f64),
        candidates: &[(usize, Point2)],
    ) -> (usize, f64) {
        candidates
            .iter()
            .map(|&(key, at)| (key, at.distance2(target)))
            .filter(|&(_, d)| d < incumbent.1)
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN was filtered out"))
            .unwrap_or(incumbent)
    }

    #[test]
    fn greedy_next_picks_the_first_strict_minimum_in_scan_order() {
        let mut rng = StdRng::seed_from_u64(0x6EED);
        let (mut moved, mut stayed, mut tied) = (0, 0, 0);
        for _ in 0..4000 {
            let target = target(&mut rng);
            let here = lattice(&mut rng);
            let incumbent = (usize::MAX, here.distance2(target));
            // 0..=8 candidates (empty lists included), keyed by position
            // in the list so "first" is checkable; then planted exact
            // ties — a copy of an earlier entry under a later key — and,
            // half the time, the incumbent listing itself.
            let mut candidates: Vec<(usize, Point2)> = (0..rng.random_range(0usize..9))
                .map(|_| lattice(&mut rng))
                .enumerate()
                .collect();
            for _ in 0..rng.random_range(0usize..3) {
                if !candidates.is_empty() {
                    let copy = candidates[rng.random_range(0..candidates.len())].1;
                    candidates.push((candidates.len(), copy));
                }
            }
            if rng.random_range(0u32..2) == 0 {
                let slot = rng.random_range(0..=candidates.len());
                candidates.insert(slot, (usize::MAX, here));
            }

            let got = greedy_next(target, incumbent, candidates.iter().copied());
            let want = naive_next(target, incumbent, &candidates);
            assert_eq!(got.0, want.0, "{candidates:?} towards {target}");
            assert_eq!(got.1.to_bits(), want.1.to_bits());
            if got.0 == usize::MAX {
                stayed += 1;
                assert_eq!(got.1.to_bits(), incumbent.1.to_bits());
            } else {
                moved += 1;
                assert!(got.1 < incumbent.1, "only a strictly closer entry wins");
                let closest = |&&(_, at): &&(usize, Point2)| at.distance2(target) == got.1;
                let first = candidates
                    .iter()
                    .find(closest)
                    .expect("the winner is listed");
                assert_eq!(got.0, first.0, "first in scan order wins a tie");
                tied += usize::from(candidates.iter().filter(closest).count() > 1);
            }
        }
        // The generator must actually reach every case the rule names.
        assert!(
            moved > 500 && stayed > 500 && tied > 200,
            "{moved}/{stayed}/{tied}"
        );
    }

    #[test]
    fn greedy_descent_counts_every_hop_and_stops_where_the_naive_walk_does() {
        let mut rng = StdRng::seed_from_u64(0xDE5C);
        let mut walked = 0u32;
        for _ in 0..1500 {
            // A random directed graph on lattice points; some nodes have
            // no neighbour at all, some list themselves.
            let n = rng.random_range(1usize..24);
            let at: Vec<Point2> = (0..n).map(|_| lattice(&mut rng)).collect();
            let adjacency: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    (0..rng.random_range(0usize..8))
                        .map(|_| rng.random_range(0..n))
                        .collect()
                })
                .collect();
            let target = target(&mut rng);
            let start = rng.random_range(0..n);

            let mut hops_seen = Vec::new();
            let (stop, hops) = greedy_descent(
                (start, at[start]),
                target,
                |cur| adjacency[cur].iter().map(|&nb| (nb, at[nb])),
                |from, to| hops_seen.push((from, to)),
            );

            let mut cur = start;
            let mut naive_hops = Vec::new();
            loop {
                let listed: Vec<_> = adjacency[cur].iter().map(|&nb| (nb, at[nb])).collect();
                let (next, _) = naive_next(target, (cur, at[cur].distance2(target)), &listed);
                if next == cur {
                    break;
                }
                naive_hops.push((cur, next));
                cur = next;
            }
            assert_eq!(hops_seen, naive_hops, "hop for hop the naive walk");
            assert_eq!(hops as usize, hops_seen.len(), "one `on_hop` per hop");
            assert_eq!(stop, cur);
            assert_eq!(stop, hops_seen.last().map_or(start, |&(_, to)| to));
            walked += hops;
        }
        assert!(
            walked > 500,
            "the graphs must exercise real walks ({walked} hops)"
        );
    }
}
