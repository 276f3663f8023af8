//! Voronoi views over the Delaunay triangulation.
//!
//! VoroNet reasons about *Voronoi regions*: `R(o)` is the set of points
//! closer to object `o` than to any other object.  The triangulation stores
//! the dual (Delaunay) structure; this module derives the primal quantities
//! the protocol needs: cell polygons, the closest point of a region to an
//! external point (`DistanceToRegion` in the paper) and region-ownership
//! tests.

use crate::point::{Point2, Polygon, Rect};
use crate::predicates::circumcenter;
use crate::triangulation::{Triangulation, VertexId};

/// The Voronoi cell of a vertex, as a convex polygon.
///
/// Cells of objects whose region is unbounded in the true (sentinel-free)
/// diagram are bounded here by the sentinel box; [`VoronoiCell::clipped`]
/// restricts them to the attribute domain, which is what the figures and the
/// range queries use.
#[derive(Debug, Clone)]
pub struct VoronoiCell {
    /// The owner of the cell.
    pub site: VertexId,
    /// The site's coordinates.
    pub center: Point2,
    /// Cell polygon (counter-clockwise), possibly extending beyond the
    /// attribute domain for hull objects.
    pub polygon: Polygon,
}

impl VoronoiCell {
    /// The cell clipped to a rectangle (usually the unit square).
    pub fn clipped(&self, rect: Rect) -> Polygon {
        self.polygon.clip_to_rect(rect)
    }
}

/// Computes the Voronoi cell of `v`.
///
/// The polygon vertices are the circumcentres of the triangles incident to
/// `v`, in counter-clockwise order.  Degenerate (collinear) triangles —
/// which can only involve sentinel corners — contribute no vertex.
pub fn voronoi_cell(tri: &Triangulation, v: VertexId) -> VoronoiCell {
    let mut star = Vec::with_capacity(8);
    tri.incident_triangles_into(v, &mut star);
    let mut cell = Vec::with_capacity(star.len());
    for t in star {
        if let Some(ids) = tri.triangle_vertices(t) {
            let (a, b, c) = (tri.point(ids[0]), tri.point(ids[1]), tri.point(ids[2]));
            if let Some(cc) = circumcenter(a, b, c) {
                cell.push(cc);
            }
        }
    }
    VoronoiCell {
        site: v,
        center: tri.point(v),
        polygon: Polygon::new(cell),
    }
}

/// The closest point of `v`'s Voronoi region to the point `p`
/// (`DistanceToRegion` in the paper, Section 4.2.3).
///
/// If `p` lies inside the region, `p`'s owner is `v` and the paper specifies
/// that the object's own coordinates are returned.
pub fn distance_to_region(tri: &Triangulation, v: VertexId, p: Point2) -> Point2 {
    let site = tri.point(v);
    // Ownership test: p belongs to R(v) iff v is at least as close to p as
    // every Delaunay neighbour of v.
    let d_self = site.distance2(p);
    let owned = tri
        .neighbors_iter(v)
        .all(|n| tri.point(n).distance2(p) >= d_self);
    if owned {
        return site;
    }
    // Otherwise project p on the cell polygon boundary and return the
    // closest boundary point.
    let cell = voronoi_cell(tri, v);
    let poly = &cell.polygon.vertices;
    if poly.len() < 2 {
        return site;
    }
    let mut best = poly[0];
    let mut best_d = best.distance2(p);
    let n = poly.len();
    for i in 0..n {
        let a = poly[i];
        let b = poly[(i + 1) % n];
        let q = p.project_on_segment(a, b);
        let d = q.distance2(p);
        if d < best_d {
            best = q;
            best_d = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn build(n: usize, seed: u64) -> (Triangulation, Vec<VertexId>) {
        let mut t = Triangulation::unit_square();
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = (0..n)
            .map(|_| {
                t.insert(Point2::new(rng.random::<f64>(), rng.random::<f64>()))
                    .unwrap()
            })
            .collect();
        (t, ids)
    }

    #[test]
    fn cells_tile_the_domain() {
        let (t, _) = build(200, 1);
        let total: f64 = t
            .vertices()
            .map(|v| voronoi_cell(&t, v).clipped(Rect::UNIT).area())
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "clipped Voronoi cells must tile the unit square, got total area {total}"
        );
    }

    #[test]
    fn cell_contains_its_site() {
        let (t, ids) = build(80, 2);
        for &v in ids.iter().take(30) {
            let cell = voronoi_cell(&t, v);
            assert!(
                cell.clipped(Rect::UNIT).contains(t.point(v)) || cell.polygon.contains(t.point(v)),
                "a site must lie in its own cell"
            );
        }
    }

    #[test]
    fn distance_to_region_inside_returns_site() {
        let (t, ids) = build(50, 3);
        for &v in &ids {
            let p = t.point(v);
            assert_eq!(distance_to_region(&t, v, p), p);
        }
    }

    #[test]
    fn distance_to_region_outside_is_on_boundary() {
        let (t, ids) = build(100, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            let owner = t.nearest_vertex(p).unwrap();
            for &v in ids.iter().take(10) {
                if v == owner {
                    continue;
                }
                let z = distance_to_region(&t, v, p);
                // The returned point is at least as close to p as the site,
                // and never closer than the owner's distance of zero-region.
                assert!(z.distance2(p) <= t.point(v).distance2(p) + 1e-12);
                // z must be (approximately) in v's region: v is among the
                // closest sites to z.
                let dz = t.point(v).distance2(z);
                let closest = t.point(t.nearest_vertex(z).unwrap()).distance2(z);
                assert!(dz <= closest + 1e-9);
            }
        }
    }
}
