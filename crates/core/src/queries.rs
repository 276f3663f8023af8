//! Rich query mechanisms over the overlay (the paper's "perspectives"
//! section): rectangular range queries and radius (disk) queries.
//!
//! Both exploit the property the paper highlights: objects with similar
//! attribute values are Voronoi neighbours, so after greedy-routing to any
//! object inside the queried area the remaining matches are reachable by a
//! local flood along Voronoi edges whose cells intersect the area.  The
//! number of extra messages is proportional to the number of cells touched,
//! not to the overlay size.

use crate::error::VoronetError;
use crate::object::ObjectId;
use crate::overlay::VoroNet;
use crate::snapshot::RouteScratch;
use voronet_geom::{voronoi_cell, Point2, Rect};
use voronet_sim::MessageKind;
use voronet_workloads::{RadiusQuery, RangeQuery};

/// Result of a range or radius query.
#[derive(Debug, Clone)]
pub struct AreaQueryReport {
    /// Objects whose coordinates satisfy the query predicate.
    pub matches: Vec<ObjectId>,
    /// Hops of the initial greedy route towards the query area.
    pub routing_hops: u32,
    /// Messages exchanged during the local flood phase.
    pub flood_messages: u64,
    /// Objects visited by the flood (matching or not): the query's load
    /// footprint.
    pub visited: usize,
}

/// Executes a rectangular range query issued by `from`.
///
/// The query is routed greedily to the owner of the rectangle's centre, then
/// flooded outwards along Voronoi edges: an object forwards the query to a
/// Voronoi neighbour whenever that neighbour's cell could still intersect
/// the rectangle (approximated by "the neighbour is a Voronoi neighbour of a
/// visited object whose cell intersects the rectangle").
pub fn range_query(
    net: &mut VoroNet,
    from: ObjectId,
    query: RangeQuery,
) -> Result<AreaQueryReport, VoronetError> {
    let mut scratch = RouteScratch::new();
    let report = range_query_in(net, from, query, &mut scratch)?;
    net.apply_traffic(&scratch.delta);
    Ok(report)
}

/// The `&self` form of [`range_query`]: computes into a caller-owned
/// [`RouteScratch`] (the message counts are added to `scratch.delta` for
/// the caller to apply) and never mutates the overlay, so concurrent readers
/// can share one `&VoroNet`.
pub fn range_query_in(
    net: &VoroNet,
    from: ObjectId,
    query: RangeQuery,
    scratch: &mut RouteScratch,
) -> Result<AreaQueryReport, VoronetError> {
    area_query_in(
        net,
        from,
        query.rect.center(),
        move |p, cell_hits| query.rect.contains(p) || cell_hits,
        move |net, id| cell_intersects_rect(net, id, query.rect),
        scratch,
    )
}

/// Executes a radius (disk) query issued by `from`.
pub fn radius_query(
    net: &mut VoroNet,
    from: ObjectId,
    query: RadiusQuery,
) -> Result<AreaQueryReport, VoronetError> {
    let mut scratch = RouteScratch::new();
    let report = radius_query_in(net, from, query, &mut scratch)?;
    net.apply_traffic(&scratch.delta);
    Ok(report)
}

/// The `&self` form of [`radius_query`]; see [`range_query_in`].
pub fn radius_query_in(
    net: &VoroNet,
    from: ObjectId,
    query: RadiusQuery,
    scratch: &mut RouteScratch,
) -> Result<AreaQueryReport, VoronetError> {
    let r2 = query.radius * query.radius;
    area_query_in(
        net,
        from,
        query.center,
        move |p, _| p.distance2(query.center) <= r2,
        move |net, id| cell_intersects_disk(net, id, query),
        scratch,
    )
}

fn cell_intersects_rect(net: &VoroNet, id: ObjectId, rect: Rect) -> bool {
    let Some(coords) = net.coords(id) else {
        return false;
    };
    if rect.contains(coords) {
        return true;
    }
    let Some(vertex) = net.vertex_of(id) else {
        return false;
    };
    let cell = voronoi_cell(net.triangulation(), vertex);
    !cell.clipped(rect).is_empty()
}

fn cell_intersects_disk(net: &VoroNet, id: ObjectId, query: RadiusQuery) -> bool {
    let Some(coords) = net.coords(id) else {
        return false;
    };
    if coords.distance(query.center) <= query.radius {
        return true;
    }
    let Some(vertex) = net.vertex_of(id) else {
        return false;
    };
    let cell = voronoi_cell(net.triangulation(), vertex);
    let poly = &cell.polygon.vertices;
    if poly.len() < 2 {
        return false;
    }
    let n = poly.len();
    (0..n).any(|i| query.center.distance_to_segment(poly[i], poly[(i + 1) % n]) <= query.radius)
}

/// Common flood skeleton shared by range and radius queries, side-effect
/// free on `&self`: the walk and flood work-lists live in the scratch, the
/// route's hops and the flood's messages are added to `scratch.delta`.
fn area_query_in(
    net: &VoroNet,
    from: ObjectId,
    anchor: Point2,
    matches: impl Fn(Point2, bool) -> bool,
    cell_touches_area: impl Fn(&VoroNet, ObjectId) -> bool,
    scratch: &mut RouteScratch,
) -> Result<AreaQueryReport, VoronetError> {
    let (owner, routing_hops) = net.route_to_point_in(from, anchor, scratch)?;
    let RouteScratch {
        delta,
        visited,
        frontier,
        neighbours,
        ..
    } = scratch;
    visited.clear();
    frontier.clear();
    frontier.push(owner);
    visited.insert(owner);
    let mut flood_messages = 0u64;
    let mut results = Vec::new();
    while let Some(cur) = frontier.pop() {
        let coords = net.coords(cur).expect("visited objects are live");
        let touches = cell_touches_area(net, cur);
        if matches(coords, false) {
            results.push(cur);
        }
        if !touches {
            continue;
        }
        net.voronoi_neighbours_into(cur, neighbours)?;
        for &n in neighbours.iter() {
            if visited.insert(n) {
                flood_messages += 1;
                frontier.push(n);
            }
        }
    }
    delta.add(MessageKind::Other, flood_messages);
    results.sort_unstable();
    Ok(AreaQueryReport {
        matches: results,
        routing_hops,
        flood_messages,
        visited: visited.len(),
    })
}

/// Result of a segment (one-attribute range) query.
#[derive(Debug, Clone)]
pub struct SegmentQueryReport {
    /// Objects responsible for some part of the segment, ordered by the
    /// position of their closest segment point (so forwarding the query along
    /// this list walks the segment from `a` to `b`).
    pub responsible: Vec<ObjectId>,
    /// Hops of the initial greedy route to the owner of the segment start.
    pub routing_hops: u32,
    /// Messages exchanged while walking/flooding along the segment.
    pub flood_messages: u64,
}

/// Executes a segment query: a range query over a single attribute with the
/// other attribute fixed is exactly a segment of the unit square (paper,
/// Section 7), and the objects that must be contacted are those whose
/// Voronoi regions intersect the segment.
///
/// The query is routed to the owner of the segment's start point, then
/// propagated along Voronoi edges between cells that intersect the segment.
pub fn segment_query(
    net: &mut VoroNet,
    from: ObjectId,
    a: Point2,
    b: Point2,
) -> Result<SegmentQueryReport, VoronetError> {
    let route = net.route_to_point(from, a)?;
    let mut visited = std::collections::BTreeSet::new();
    let mut responsible = Vec::new();
    let mut frontier = vec![route.owner];
    visited.insert(route.owner);
    let mut flood_messages = 0u64;
    let mut neighbours = Vec::new();
    while let Some(cur) = frontier.pop() {
        if !cell_intersects_segment(net, cur, a, b) {
            continue;
        }
        responsible.push(cur);
        net.voronoi_neighbours_into(cur, &mut neighbours)?;
        for &n in &neighbours {
            if visited.insert(n) {
                flood_messages += 1;
                frontier.push(n);
            }
        }
    }
    net.record_messages(MessageKind::Other, flood_messages);
    // Order along the segment so the caller can split or pipeline the query.
    let ab = b.sub(a);
    let len2 = ab.norm2().max(f64::MIN_POSITIVE);
    responsible.sort_by(|&x, &y| {
        let tx = (net.coords(x).expect("live").sub(a).dot(ab) / len2).clamp(0.0, 1.0);
        let ty = (net.coords(y).expect("live").sub(a).dot(ab) / len2).clamp(0.0, 1.0);
        tx.partial_cmp(&ty).unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(SegmentQueryReport {
        responsible,
        routing_hops: route.hops,
        flood_messages,
    })
}

fn cell_intersects_segment(net: &VoroNet, id: ObjectId, a: Point2, b: Point2) -> bool {
    let Some(vertex) = net.vertex_of(id) else {
        return false;
    };
    let cell = voronoi_cell(net.triangulation(), vertex);
    let poly = &cell.polygon.vertices;
    if poly.len() < 3 {
        return false;
    }
    // The cell (a convex polygon) intersects the segment iff either endpoint
    // is inside, or some cell edge comes within zero distance of the segment.
    if cell.polygon.contains(a) || cell.polygon.contains(b) {
        return true;
    }
    let n = poly.len();
    (0..n).any(|i| segments_intersect(poly[i], poly[(i + 1) % n], a, b))
}

fn segments_intersect(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool {
    use voronet_geom::{orient2d, Orientation};
    let d1 = orient2d(q1, q2, p1);
    let d2 = orient2d(q1, q2, p2);
    let d3 = orient2d(p1, p2, q1);
    let d4 = orient2d(p1, p2, q2);
    if ((d1 == Orientation::Positive && d2 == Orientation::Negative)
        || (d1 == Orientation::Negative && d2 == Orientation::Positive))
        && ((d3 == Orientation::Positive && d4 == Orientation::Negative)
            || (d3 == Orientation::Negative && d4 == Orientation::Positive))
    {
        return true;
    }
    let on_segment = |a: Point2, b: Point2, p: Point2| {
        p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
    };
    (d1 == Orientation::Zero && on_segment(q1, q2, p1))
        || (d2 == Orientation::Zero && on_segment(q1, q2, p2))
        || (d3 == Orientation::Zero && on_segment(p1, p2, q1))
        || (d4 == Orientation::Zero && on_segment(p1, p2, q2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VoroNetConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use voronet_geom::Point2;

    fn build(n: usize, seed: u64) -> (VoroNet, Vec<ObjectId>) {
        let mut net = VoroNet::new(VoroNetConfig::new(n).with_seed(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = Vec::new();
        while ids.len() < n {
            let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            if let Ok(r) = net.insert(p) {
                ids.push(r.id);
            }
        }
        (net, ids)
    }

    #[test]
    fn range_query_finds_exactly_the_objects_in_the_rectangle() {
        let (mut net, ids) = build(300, 5);
        let rect = Rect::new(Point2::new(0.2, 0.3), Point2::new(0.6, 0.7));
        let expected: Vec<ObjectId> = {
            let mut v: Vec<ObjectId> = ids
                .iter()
                .copied()
                .filter(|&id| rect.contains(net.coords(id).unwrap()))
                .collect();
            v.sort_unstable();
            v
        };
        let report = range_query(&mut net, ids[0], RangeQuery { rect }).unwrap();
        assert_eq!(report.matches, expected);
        assert!(report.visited >= report.matches.len());
    }

    #[test]
    fn radius_query_finds_exactly_the_objects_in_the_disk() {
        let (mut net, ids) = build(300, 7);
        let q = RadiusQuery {
            center: Point2::new(0.5, 0.5),
            radius: 0.2,
        };
        let expected: Vec<ObjectId> = {
            let mut v: Vec<ObjectId> = ids
                .iter()
                .copied()
                .filter(|&id| net.coords(id).unwrap().distance(q.center) <= q.radius)
                .collect();
            v.sort_unstable();
            v
        };
        let report = radius_query(&mut net, ids[10], q).unwrap();
        assert_eq!(report.matches, expected);
    }

    #[test]
    fn empty_area_queries_return_no_match() {
        let (mut net, ids) = build(100, 9);
        // A rectangle so tiny it almost surely contains no object.
        let rect = Rect::new(
            Point2::new(0.123456, 0.654321),
            Point2::new(0.123457, 0.654322),
        );
        let report = range_query(&mut net, ids[0], RangeQuery { rect }).unwrap();
        assert!(report.matches.len() <= 1);
        let disk = RadiusQuery {
            center: Point2::new(0.111, 0.999),
            radius: 1e-9,
        };
        let report = radius_query(&mut net, ids[0], disk).unwrap();
        assert!(report.matches.is_empty());
    }

    #[test]
    fn query_from_unknown_object_fails() {
        let (mut net, _) = build(20, 11);
        let err = range_query(&mut net, ObjectId(10_000), RangeQuery { rect: Rect::UNIT });
        assert!(err.is_err());
    }

    #[test]
    fn segment_query_covers_the_owners_along_the_segment() {
        let (mut net, ids) = build(400, 21);
        let a = Point2::new(0.1, 0.5);
        let b = Point2::new(0.9, 0.5);
        let report = segment_query(&mut net, ids[0], a, b).unwrap();
        assert!(!report.responsible.is_empty());
        // Every sampled point of the segment must be owned by one of the
        // reported objects.
        for i in 0..=100 {
            let p = a.lerp(b, i as f64 / 100.0);
            let owner = net.owner_of(p).unwrap();
            assert!(
                report.responsible.contains(&owner),
                "owner {owner} of segment point {p} missing from the segment query result"
            );
        }
        // The result is ordered along the segment.
        let ts: Vec<f64> = report
            .responsible
            .iter()
            .map(|&id| {
                (net.coords(id).unwrap().sub(a).dot(b.sub(a)) / b.sub(a).norm2()).clamp(0.0, 1.0)
            })
            .collect();
        for w in ts.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
    }

    #[test]
    fn degenerate_segment_query_is_a_point_query() {
        let (mut net, ids) = build(150, 23);
        let p = Point2::new(0.37, 0.61);
        let report = segment_query(&mut net, ids[0], p, p).unwrap();
        let owner = net.owner_of(p).unwrap();
        assert!(report.responsible.contains(&owner));
    }

    #[test]
    fn flood_footprint_is_local_for_small_areas() {
        let (mut net, ids) = build(500, 13);
        let rect = Rect::new(Point2::new(0.4, 0.4), Point2::new(0.45, 0.45));
        let report = range_query(&mut net, ids[3], RangeQuery { rect }).unwrap();
        assert!(
            report.visited < 120,
            "a tiny range query should not touch a large fraction of a 500-object overlay (visited {})",
            report.visited
        );
    }
}
