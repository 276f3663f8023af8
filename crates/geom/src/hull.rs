//! Convex hull (Andrew's monotone chain) and a brute-force Delaunay edge
//! oracle.
//!
//! Neither is used on the hot path of the overlay; they provide independent
//! reference implementations against which the incremental triangulation is
//! validated in tests, and small utilities for the examples.

use crate::point::Point2;
use crate::predicates::{incircle, orient2d, Orientation};

/// Convex hull of a point set, counter-clockwise, first point repeated not
/// included.  Collinear points on the hull boundary are dropped.
pub fn convex_hull(points: &[Point2]) -> Vec<Point2> {
    let mut pts: Vec<Point2> = points.to_vec();
    pts.sort_by(|a, b| a.lex_cmp(b));
    pts.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    let n = pts.len();
    if n < 3 {
        return pts;
    }
    let mut hull: Vec<Point2> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2
            && orient2d(hull[hull.len() - 2], hull[hull.len() - 1], p) != Orientation::Positive
        {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && orient2d(hull[hull.len() - 2], hull[hull.len() - 1], p) != Orientation::Positive
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop();
    hull
}

/// Brute-force Delaunay edge test: `a` and `b` (indices into `points`) are
/// Delaunay neighbours iff some circle through them is empty of all other
/// points.  For points in general position this is equivalent to the
/// existence of a third point `c` such that the circumcircle of `(a, b, c)`
/// is empty, or to `a`–`b` being a hull edge of a 2-point set.
///
/// Complexity is O(n²) per edge — strictly a test oracle for small inputs.
fn is_delaunay_edge_bruteforce(points: &[Point2], a: usize, b: usize) -> bool {
    let n = points.len();
    if n == 2 {
        return true;
    }
    let pa = points[a];
    let pb = points[b];
    for c in 0..n {
        if c == a || c == b {
            continue;
        }
        let pc = points[c];
        if orient2d(pa, pb, pc).is_zero() {
            continue;
        }
        // Orient the triangle counter-clockwise.
        let (x, y, z) = if orient2d(pa, pb, pc).is_positive() {
            (pa, pb, pc)
        } else {
            (pa, pc, pb)
        };
        let mut empty = true;
        for (d, &pd) in points.iter().enumerate() {
            if d == a || d == b || d == c {
                continue;
            }
            if incircle(x, y, z, pd) == Orientation::Positive {
                empty = false;
                break;
            }
        }
        if empty {
            return true;
        }
    }
    false
}

/// All Delaunay edges of a small point set, computed by brute force.
/// Returns index pairs `(i, j)` with `i < j`.
pub fn delaunay_edges_bruteforce(points: &[Point2]) -> Vec<(usize, usize)> {
    let n = points.len();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if is_delaunay_edge_bruteforce(points, i, j) {
                edges.push((i, j));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Rect;
    use crate::triangulation::Triangulation;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn hull_of_square_plus_interior() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.5),
            Point2::new(0.25, 0.75),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        for corner in Rect::UNIT.corners() {
            assert!(hull.contains(&corner));
        }
    }

    #[test]
    fn hull_collinear_points() {
        let pts: Vec<Point2> = (0..10)
            .map(|i| Point2::new(i as f64, 2.0 * i as f64))
            .collect();
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 2);
    }

    #[test]
    fn hull_of_fewer_than_three_points() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[Point2::new(1.0, 2.0)]).len(), 1);
        let two = convex_hull(&[Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)]);
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn hull_is_convex_and_contains_all_points() {
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Point2> = (0..200)
            .map(|_| Point2::new(rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        let hull = convex_hull(&pts);
        let n = hull.len();
        assert!(n >= 3);
        for i in 0..n {
            let a = hull[i];
            let b = hull[(i + 1) % n];
            let c = hull[(i + 2) % n];
            assert!(
                orient2d(a, b, c).is_positive(),
                "hull must be strictly convex"
            );
            for &p in &pts {
                assert!(
                    !orient2d(a, b, p).is_negative(),
                    "all points left of hull edges"
                );
            }
        }
    }

    #[test]
    fn incremental_triangulation_matches_bruteforce_interior_edges() {
        // Compare the incremental structure with the brute-force oracle on a
        // small random instance.  Hull-incident edges may legitimately differ
        // because of the sentinel box (see DESIGN.md), so the comparison is
        // restricted to edges between points strictly interior to the hull.
        let mut rng = StdRng::seed_from_u64(17);
        let pts: Vec<Point2> = (0..40)
            .map(|_| Point2::new(rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        let hull = convex_hull(&pts);
        let is_hull = |p: Point2| hull.iter().any(|&h| h.x == p.x && h.y == p.y);

        let mut tri = Triangulation::unit_square();
        let ids: Vec<_> = pts.iter().map(|&p| tri.insert(p).unwrap()).collect();

        let brute = delaunay_edges_bruteforce(&pts);
        for (i, j) in brute {
            if is_hull(pts[i]) || is_hull(pts[j]) {
                continue;
            }
            assert!(
                tri.are_neighbors(ids[i], ids[j]),
                "brute-force Delaunay edge ({i},{j}) missing from the triangulation"
            );
        }
        // Conversely, every interior incremental edge must be a brute-force
        // Delaunay edge.
        for (vi, &v) in ids.iter().enumerate() {
            if is_hull(pts[vi]) {
                continue;
            }
            for n in tri.real_neighbors_iter(v) {
                let nj = ids.iter().position(|&x| x == n).unwrap();
                if is_hull(pts[nj]) {
                    continue;
                }
                assert!(
                    is_delaunay_edge_bruteforce(&pts, vi, nj),
                    "incremental edge ({vi},{nj}) is not Delaunay"
                );
            }
        }
    }
}
