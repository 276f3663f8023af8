//! Faithful, message-driven execution of the paper's routing framework
//! (Algorithm 5) on top of the discrete-event scheduler of `voronet-sim`.
//!
//! [`VoroNet::route_to_point`] uses the plain greedy walk, which is what the
//! evaluation figures measure.  The paper's algorithms (`AddObject`,
//! `SearchLongLink`, `HandlingQuery`) actually iterate a slightly different
//! loop: at every step the current object computes
//! `z = DistanceToRegion(Target)` — the point of its own region closest to
//! the target — and *stops forwarding* as soon as
//!
//! ```text
//! d(z, Target) ≤ ⅓ · d(Target, CurrentObject)   or   d(Target, CurrentObject) ≤ d_min
//! ```
//!
//! after which the remaining work (inserting the fictive object `z`, then the
//! target, and reading the owner off the local Voronoi diagram) is purely
//! local to the current object and its neighbourhood.  Lemma 4 of the paper
//! proves the stop condition makes that local resolution correct; Lemma 5
//! bounds the number of forwarding steps by `O(log² N_max)`.
//!
//! This module reproduces that exact loop — each forwarding step is a
//! `Spawn(Route, …)` message scheduled on an [`EventQueue`] — so the
//! stop-condition behaviour, the hop counts and the lemmas themselves can be
//! tested directly against the plain greedy walk.

use crate::error::VoronetError;
use crate::object::ObjectId;
use crate::overlay::VoroNet;
use voronet_geom::{distance_to_region, greedy_descent, greedy_next, Point2};
use voronet_sim::{EventQueue, SimTime};

/// Why the Algorithm 5 forwarding loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `d(z, Target) ≤ ⅓ · d(Target, CurrentObject)`: the target is close to
    /// the current object's region boundary (Lemma 4 applies).
    RegionCondition,
    /// `d(Target, CurrentObject) ≤ d_min`: the target is within the close
    /// neighbourhood radius.
    CloseCondition,
    /// No routing neighbour improves the distance (the current object owns
    /// the target's region outright).
    LocalMinimum,
}

/// Outcome of an Algorithm 5 route.
#[derive(Debug, Clone)]
pub struct Algorithm5Report {
    /// Object at which the forwarding loop stopped.
    pub stopped_at: ObjectId,
    /// Why it stopped.
    pub stop_reason: StopReason,
    /// Forwarding steps (`Spawn(Route, …)` messages) taken before stopping.
    pub forwarding_hops: u32,
    /// Additional purely local steps needed to resolve the actual owner of
    /// the target from the stopping object (the fictive-object insertion of
    /// the paper resolves these without further routing).
    pub local_steps: u32,
    /// The owner of the target's region.
    pub owner: ObjectId,
    /// Logical completion time on the event queue (one unit per forwarding
    /// hop).
    pub completion_time: SimTime,
}

/// Runs the Algorithm 5 forwarding loop from `start` towards `target`,
/// driving one event per forwarding step through a fresh [`EventQueue`].
pub fn algorithm5_route(
    net: &VoroNet,
    start: ObjectId,
    target: Point2,
) -> Result<Algorithm5Report, VoronetError> {
    if !net.contains(start) {
        return Err(VoronetError::unknown(start));
    }
    let dmin = net.dmin();

    struct Step {
        at: ObjectId,
    }

    let mut queue: EventQueue<Step> = EventQueue::new();
    queue.schedule(0, Step { at: start });

    let mut forwarding_hops = 0u32;
    let mut stopped_at = start;
    let mut stop_reason = StopReason::LocalMinimum;

    while let Some((_, step)) = queue.pop() {
        let cur = step.at;
        let cur_coords = net.coords(cur).expect("routed objects are live");
        let d_cur = cur_coords.distance(target);

        // DistanceToRegion(Target) at the current object.
        let vertex = net.vertex_of(cur).expect("live object has a vertex");
        let z = distance_to_region(net.triangulation(), vertex, target);
        let d_z = z.distance(target);

        if d_cur <= dmin {
            stopped_at = cur;
            stop_reason = StopReason::CloseCondition;
            break;
        }
        if d_z <= d_cur / 3.0 {
            stopped_at = cur;
            stop_reason = StopReason::RegionCondition;
            break;
        }

        // Greedyneighbour(Target): forward to the routing neighbour closest
        // to the target, iterating the borrowed view (no per-hop
        // allocation).
        let (best, _) = greedy_next(
            target,
            (cur, cur_coords.distance2(target)),
            net.view_ref(cur)?
                .routing_neighbours()
                .map(|n| (n, net.coords(n).expect("neighbours are live"))),
        );
        if best == cur {
            stopped_at = cur;
            stop_reason = StopReason::LocalMinimum;
            break;
        }
        forwarding_hops += 1;
        queue.schedule(1, Step { at: best });
    }

    // Local resolution: from the stopping object, the owner of the target is
    // reached by walking the Delaunay graph (in the paper this is subsumed by
    // the AddVoronoiRegion calls at the stopping object and costs O(1)
    // messages to its neighbourhood).
    let (owner, local_steps) = resolve_owner_locally(net, stopped_at, target)?;

    Ok(Algorithm5Report {
        stopped_at,
        stop_reason,
        forwarding_hops,
        local_steps,
        owner,
        completion_time: queue.now(),
    })
}

/// Delaunay-walk to the true owner from a stopping point (the purely
/// local resolution of Algorithm 5's fictive-object insertion); returns
/// the owner and the Delaunay steps taken.
pub(crate) fn resolve_owner_locally(
    net: &VoroNet,
    from: ObjectId,
    target: Point2,
) -> Result<(ObjectId, u32), VoronetError> {
    let start = net
        .coords(from)
        .ok_or_else(|| VoronetError::unknown(from))?;
    Ok(greedy_descent(
        (from, start),
        target,
        |cur| {
            net.view_ref(cur)
                .expect("the walk stays on live objects")
                .voronoi_neighbours()
                .map(|n| (n, net.coords(n).expect("neighbours are live")))
        },
        |_, _| {},
    ))
}

/// Executable check of Lemma 4: when the forwarding loop stops because of
/// the region condition, the point `z = DistanceToRegion(Target)` of the
/// stopping object is at least as close to the target as every object, i.e.
/// `d(s, Target) ≥ d(z, Target)` for all objects `s` — which is exactly what
/// makes inserting the target from `z` (whose region then contains it)
/// correct.  Returns the number of objects violating the inequality
/// (0 when the lemma holds).
///
/// Note on the paper: the proof of Lemma 4 as printed concludes
/// `d(s, Target) ≥ 2·d(z, Target)`, but one of its intermediate steps uses
/// `d(CurrentObject, z) ≥ 3·d(z, Target)` where only a factor 2 follows from
/// the stop condition via the triangle inequality; the factor-2 conclusion
/// is therefore not implied (and is empirically false), while the factor-1
/// form checked here — which is all the correctness argument needs — holds.
/// EXPERIMENTS.md records this discrepancy.
#[cfg(test)]
fn lemma4_violations(net: &VoroNet, stopped_at: ObjectId, target: Point2) -> usize {
    let Some(vertex) = net.vertex_of(stopped_at) else {
        return 0;
    };
    let z = distance_to_region(net.triangulation(), vertex, target);
    let d_z = z.distance(target);
    let d_cur = net
        .coords(stopped_at)
        .map(|c| c.distance(target))
        .unwrap_or(f64::INFINITY);
    if d_z > d_cur / 3.0 {
        // The region condition did not hold here; the lemma says nothing.
        return 0;
    }
    net.ids()
        .filter(|&s| s != stopped_at)
        .filter(|&s| {
            let d_s = net.coords(s).expect("live").distance(target);
            d_s + 1e-9 < d_z
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VoroNetConfig;
    use crate::experiments::build_overlay;
    use voronet_workloads::{Distribution, QueryGenerator};

    fn build(n: usize, seed: u64) -> (VoroNet, Vec<ObjectId>) {
        let cfg = VoroNetConfig::new(n).with_seed(seed);
        build_overlay(Distribution::Uniform, n, cfg)
    }

    #[test]
    fn algorithm5_resolves_the_true_owner() {
        let (net, ids) = build(400, 3);
        let mut qg = QueryGenerator::new(5);
        for _ in 0..200 {
            let target = qg.point();
            let from = ids[qg.object_index(ids.len())];
            let expected = net.owner_of(target).unwrap();
            let report = algorithm5_route(&net, from, target).unwrap();
            assert_eq!(report.owner, expected);
            assert_eq!(report.completion_time, report.forwarding_hops as u64);
        }
    }

    #[test]
    fn algorithm5_stops_no_later_than_plain_greedy() {
        // The stop condition can only cut the forwarding phase short: its
        // hop count never exceeds the plain greedy walk that runs all the
        // way to the owner.
        let (mut net, ids) = build(500, 7);
        let mut qg = QueryGenerator::new(9);
        for _ in 0..100 {
            let target = qg.point();
            let from = ids[qg.object_index(ids.len())];
            let alg5 = algorithm5_route(&net, from, target).unwrap();
            let greedy = net.route_to_point(from, target).unwrap();
            assert!(
                alg5.forwarding_hops <= greedy.hops,
                "algorithm 5 forwarded {} times, plain greedy only {}",
                alg5.forwarding_hops,
                greedy.hops
            );
        }
    }

    #[test]
    fn lemma4_holds_at_every_stop() {
        let (net, ids) = build(300, 11);
        let mut qg = QueryGenerator::new(13);
        for _ in 0..200 {
            let target = qg.point();
            let from = ids[qg.object_index(ids.len())];
            let report = algorithm5_route(&net, from, target).unwrap();
            if report.stop_reason == StopReason::RegionCondition {
                assert_eq!(
                    lemma4_violations(&net, report.stopped_at, target),
                    0,
                    "Lemma 4 violated at {}",
                    report.stopped_at
                );
            }
        }
    }

    #[test]
    fn local_resolution_is_short() {
        // After the stop condition fires, the owner is at most a couple of
        // Delaunay hops away (the paper resolves it with O(1) local
        // messages).
        let (net, ids) = build(600, 17);
        let mut qg = QueryGenerator::new(19);
        let mut max_local = 0;
        for _ in 0..200 {
            let target = qg.point();
            let from = ids[qg.object_index(ids.len())];
            let report = algorithm5_route(&net, from, target).unwrap();
            max_local = max_local.max(report.local_steps);
        }
        assert!(
            max_local <= 4,
            "local resolution took {max_local} Delaunay hops, expected O(1)"
        );
    }

    #[test]
    fn unknown_start_is_rejected() {
        let (net, _) = build(20, 23);
        assert!(algorithm5_route(&net, ObjectId(9_999), Point2::new(0.5, 0.5)).is_err());
    }

    #[test]
    fn forwarding_hops_stay_polylogarithmic() {
        let (net, ids) = build(900, 29);
        let mut qg = QueryGenerator::new(31);
        let mut total = 0u64;
        let trials = 150;
        for _ in 0..trials {
            let target = qg.point();
            let from = ids[qg.object_index(ids.len())];
            total += algorithm5_route(&net, from, target)
                .unwrap()
                .forwarding_hops as u64;
        }
        let mean = total as f64 / trials as f64;
        // ln(900)^2 ≈ 46; the constant is small in practice.
        assert!(
            mean < 46.0,
            "mean forwarding hops {mean} too large for n=900"
        );
    }
}
