//! Planar points and elementary vector operations.
//!
//! VoroNet places every object at a point of the unit square; all geometric
//! reasoning in the overlay is ultimately expressed through [`Point2`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point (or vector) of the Euclidean plane, stored as two `f64`
/// coordinates.
///
/// `Point2` is `Copy` and deliberately tiny (16 bytes) so that the Delaunay
/// triangulation can keep millions of them in a flat `Vec` without pointer
/// chasing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Abscissa (first attribute value in the VoroNet attribute space).
    pub x: f64,
    /// Ordinate (second attribute value in the VoroNet attribute space).
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its two coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point2::distance`] and sufficient whenever only
    /// comparisons are needed (greedy routing compares distances, it never
    /// needs the actual metric value).
    #[inline]
    pub fn distance2(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point2) -> f64 {
        self.distance2(other).sqrt()
    }

    /// Component-wise sum, treating both points as vectors.
    #[inline]
    pub fn add(&self, other: Point2) -> Point2 {
        Point2::new(self.x + other.x, self.y + other.y)
    }

    /// Component-wise difference `self - other`.
    #[inline]
    pub fn sub(&self, other: Point2) -> Point2 {
        Point2::new(self.x - other.x, self.y - other.y)
    }

    /// Scales the point (seen as a vector) by `s`.
    #[inline]
    pub fn scale(&self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(&self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product `self × other`.
    #[inline]
    pub fn cross(&self, other: Point2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Midpoint of the segment `[self, other]`.
    #[inline]
    pub fn midpoint(&self, other: Point2) -> Point2 {
        Point2::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Linear interpolation: returns `self + t * (other - self)`.
    #[inline]
    pub fn lerp(&self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Distance from `self` to the closed segment `[a, b]`.
    ///
    /// Used by the range-query extension (distance from an object to a query
    /// segment) and by `DistanceToRegion` when clipping against cell edges.
    pub fn distance_to_segment(&self, a: Point2, b: Point2) -> f64 {
        self.distance(self.project_on_segment(a, b))
    }

    /// Orthogonal projection of `self` on the closed segment `[a, b]`.
    ///
    /// When the projection on the supporting line falls outside the segment,
    /// the nearest endpoint is returned instead.
    pub fn project_on_segment(&self, a: Point2, b: Point2) -> Point2 {
        let ab = b.sub(a);
        let len2 = ab.norm2();
        if len2 == 0.0 {
            return a;
        }
        let t = (self.sub(a).dot(ab) / len2).clamp(0.0, 1.0);
        a.lerp(b, t)
    }

    /// Lexicographic comparison (by `x`, then `y`); total order used by the
    /// convex-hull and brute-force Delaunay reference implementations.
    pub fn lex_cmp(&self, other: &Point2) -> std::cmp::Ordering {
        self.x
            .partial_cmp(&other.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                self.y
                    .partial_cmp(&other.y)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

impl std::ops::Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, rhs: f64) -> Point2 {
        self.scale(rhs)
    }
}

/// An axis-aligned rectangle, used to describe the attribute-space domain
/// (the unit square in the paper) and the sentinel bounding box of the
/// triangulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl Rect {
    /// Creates a rectangle from two opposite corners; the corners are
    /// normalised so that `min` is component-wise below `max`.
    pub fn new(a: Point2, b: Point2) -> Self {
        Rect {
            min: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The unit square `[0,1] × [0,1]`, the attribute space used throughout
    /// the paper.
    pub const UNIT: Rect = Rect {
        min: Point2 { x: 0.0, y: 0.0 },
        max: Point2 { x: 1.0, y: 1.0 },
    };

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Length of the diagonal.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.width().hypot(self.height())
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }

    /// Returns `true` when the point lies inside the rectangle or on its
    /// boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when the two rectangles share at least one point
    /// (closed-interval semantics: touching edges intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Clamps a point to the rectangle.
    #[inline]
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Grows the rectangle by `margin` on every side.
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect {
            min: Point2::new(self.min.x - margin, self.min.y - margin),
            max: Point2::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// The four corners, counter-clockwise starting from `min`.
    pub fn corners(&self) -> [Point2; 4] {
        [
            self.min,
            Point2::new(self.max.x, self.min.y),
            self.max,
            Point2::new(self.min.x, self.max.y),
        ]
    }
}

/// A simple polygon given by its vertices in counter-clockwise order.
///
/// Voronoi cells are returned as `Polygon`s (clipped to the domain when the
/// cell is unbounded).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Polygon {
    /// Vertices in counter-clockwise order.
    pub vertices: Vec<Point2>,
}

impl Polygon {
    /// Creates a polygon from a vertex list (assumed CCW).
    pub fn new(vertices: Vec<Point2>) -> Self {
        Polygon { vertices }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the polygon has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Signed area (positive for counter-clockwise orientation).
    fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.cross(b);
        }
        0.5 * acc
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Point-in-polygon test (winding-free, ray casting). Boundary points may
    /// be classified either way; callers needing exactness should rely on the
    /// triangulation predicates instead.
    pub fn contains(&self, p: Point2) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if ((vi.y > p.y) != (vj.y > p.y))
                && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Clips the polygon against an axis-aligned rectangle
    /// ([`clip_to_rect_into`]). The result is again convex whenever the
    /// input is convex (Voronoi cells are convex).
    pub fn clip_to_rect(&self, rect: Rect) -> Polygon {
        let (mut out, mut spare) = (Vec::new(), Vec::new());
        clip_to_rect_into(&self.vertices, rect, &mut out, &mut spare);
        Polygon::new(out)
    }
}

/// One side of a clipping rectangle: the half-plane it keeps.
#[derive(Clone, Copy)]
enum Side {
    Left(f64),
    Right(f64),
    Bottom(f64),
    Top(f64),
}

impl Side {
    fn keeps(self, p: Point2) -> bool {
        match self {
            Side::Left(x) => p.x >= x,
            Side::Right(x) => p.x <= x,
            Side::Bottom(y) => p.y >= y,
            Side::Top(y) => p.y <= y,
        }
    }

    /// Where the segment `a → b` crosses the side's line.
    fn intersect(self, a: Point2, b: Point2) -> Point2 {
        match self {
            Side::Left(x) | Side::Right(x) => {
                let t = (x - a.x) / (b.x - a.x);
                Point2::new(x, a.y + t * (b.y - a.y))
            }
            Side::Bottom(y) | Side::Top(y) => {
                let t = (y - a.y) / (b.y - a.y);
                Point2::new(a.x + t * (b.x - a.x), y)
            }
        }
    }
}

/// Clips the polygon `vertices` against an axis-aligned rectangle with the
/// Sutherland–Hodgman algorithm, one side at a time, leaving the result in
/// `out`.  `spare` holds each stage's input; both buffers are overwritten
/// and allocate only when they must grow, so a caller that keeps them
/// clips without touching the heap.
pub fn clip_to_rect_into(
    vertices: &[Point2],
    rect: Rect,
    out: &mut Vec<Point2>,
    spare: &mut Vec<Point2>,
) {
    out.clear();
    out.extend_from_slice(vertices);
    let sides = [
        Side::Left(rect.min.x),
        Side::Right(rect.max.x),
        Side::Bottom(rect.min.y),
        Side::Top(rect.max.y),
    ];
    for s in sides {
        if out.is_empty() {
            break;
        }
        std::mem::swap(out, spare);
        out.clear();
        let n = spare.len();
        for i in 0..n {
            let cur = spare[i];
            let prev = spare[(i + n - 1) % n];
            let (cur_in, prev_in) = (s.keeps(cur), s.keeps(prev));
            if cur_in {
                if !prev_in {
                    out.push(s.intersect(prev, cur));
                }
                out.push(cur);
            } else if prev_in {
                out.push(s.intersect(prev, cur));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_norm() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance2(b), 25.0);
    }

    #[test]
    fn vector_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a.add(b), Point2::new(4.0, 1.0));
        assert_eq!(a.sub(b), Point2::new(-2.0, 3.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        assert_eq!(a.scale(2.0), Point2::new(2.0, 4.0));
        assert_eq!(a.midpoint(b), Point2::new(2.0, 0.5));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(1.0, 2.0));
    }

    #[test]
    fn segment_projection_clamps_to_endpoints() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        assert_eq!(Point2::new(-1.0, 1.0).project_on_segment(a, b), a);
        assert_eq!(Point2::new(2.0, 1.0).project_on_segment(a, b), b);
        assert_eq!(
            Point2::new(0.25, 1.0).project_on_segment(a, b),
            Point2::new(0.25, 0.0)
        );
        assert_eq!(Point2::new(0.5, 2.0).distance_to_segment(a, b), 2.0);
    }

    #[test]
    fn degenerate_segment_projection() {
        let a = Point2::new(1.0, 1.0);
        assert_eq!(Point2::new(5.0, 5.0).project_on_segment(a, a), a);
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::UNIT;
        assert!(r.contains(Point2::new(0.5, 0.5)));
        assert!(r.contains(Point2::new(0.0, 1.0)));
        assert!(!r.contains(Point2::new(-0.1, 0.5)));
        assert_eq!(r.clamp(Point2::new(2.0, -1.0)), Point2::new(1.0, 0.0));
        assert_eq!(r.area(), 1.0);
        assert!((r.diagonal() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rect_inflate_and_corners() {
        let r = Rect::UNIT.inflate(1.0);
        assert_eq!(r.min, Point2::new(-1.0, -1.0));
        assert_eq!(r.max, Point2::new(2.0, 2.0));
        let c = Rect::UNIT.corners();
        assert_eq!(c[2], Point2::new(1.0, 1.0));
    }

    #[test]
    fn polygon_area_and_centroid() {
        let square = Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ]);
        assert!((square.area() - 1.0).abs() < 1e-12);
        assert!((square.signed_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn polygon_contains() {
        let tri = Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        ]);
        assert!(tri.contains(Point2::new(0.25, 0.25)));
        assert!(!tri.contains(Point2::new(0.75, 0.75)));
    }

    #[test]
    fn polygon_clip_to_rect() {
        let big = Polygon::new(vec![
            Point2::new(-1.0, -1.0),
            Point2::new(2.0, -1.0),
            Point2::new(2.0, 2.0),
            Point2::new(-1.0, 2.0),
        ]);
        let clipped = big.clip_to_rect(Rect::UNIT);
        assert!((clipped.area() - 1.0).abs() < 1e-9);
        for v in &clipped.vertices {
            assert!(Rect::UNIT.inflate(1e-9).contains(*v));
        }
    }

    #[test]
    fn polygon_clip_disjoint_is_empty() {
        let far = Polygon::new(vec![
            Point2::new(10.0, 10.0),
            Point2::new(11.0, 10.0),
            Point2::new(11.0, 11.0),
        ]);
        assert!(far.clip_to_rect(Rect::UNIT).is_empty());
    }

    #[test]
    fn kept_clip_buffers_carry_nothing_over() {
        let tri = [
            Point2::new(0.5, -0.5),
            Point2::new(1.5, 0.5),
            Point2::new(0.5, 1.5),
        ];
        let (mut out, mut spare) = (
            vec![Point2::new(9.0, 9.0); 12],
            vec![Point2::new(0.0, 0.0); 3],
        );
        clip_to_rect_into(&tri, Rect::UNIT, &mut out, &mut spare);
        assert_eq!(
            out,
            Polygon::new(tri.to_vec()).clip_to_rect(Rect::UNIT).vertices
        );
        assert_eq!(out.len(), 6);
        clip_to_rect_into(&[], Rect::UNIT, &mut out, &mut spare);
        assert!(out.is_empty());
    }

    #[test]
    fn lex_cmp_orders_by_x_then_y() {
        let a = Point2::new(0.0, 5.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 6.0);
        assert_eq!(a.lex_cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(a.lex_cmp(&c), std::cmp::Ordering::Less);
        assert_eq!(a.lex_cmp(&a), std::cmp::Ordering::Equal);
    }
}
