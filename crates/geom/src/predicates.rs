//! Robust geometric predicates.
//!
//! The VoroNet paper relies on the Sugihara–Iri topology-consistent
//! incremental Voronoi construction to survive calculation degeneracy
//! (co-linear and co-circular objects).  This reproduction achieves the same
//! goal differently but equivalently: the two predicates that drive the
//! incremental Delaunay construction — orientation and in-circle — are
//! evaluated with a floating-point *filter* and fall back to exact expansion
//! arithmetic ([`crate::expansion`]) whenever the filter cannot certify the
//! sign.  The combinatorial structure produced is therefore always that of an
//! exact Delaunay triangulation of the input, regardless of degeneracies.
//!
//! Filter constants follow Shewchuk's classic derivation for IEEE-754
//! binary64.

use crate::expansion::Expansion;
use crate::point::Point2;

/// Machine epsilon for `f64` as used in the filter bounds (2^-53).
const EPSILON: f64 = 1.110_223_024_625_156_5e-16;

/// Filter coefficient for [`orient2d`]: `(3 + 16ε)ε`.
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * EPSILON) * EPSILON;

/// Filter coefficient for [`incircle`]: `(10 + 96ε)ε`.
const ICC_ERRBOUND_A: f64 = (10.0 + 96.0 * EPSILON) * EPSILON;

/// Sign of a determinant, i.e. the answer of a geometric predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Strictly positive determinant: counter-clockwise / inside.
    Positive,
    /// Exactly zero determinant: degenerate configuration.
    Zero,
    /// Strictly negative determinant: clockwise / outside.
    Negative,
}

impl Orientation {
    /// Maps an exact sign (`-1`, `0`, `1`) to an [`Orientation`].
    #[inline]
    fn from_sign(s: i32) -> Self {
        match s.cmp(&0) {
            std::cmp::Ordering::Greater => Orientation::Positive,
            std::cmp::Ordering::Equal => Orientation::Zero,
            std::cmp::Ordering::Less => Orientation::Negative,
        }
    }

    /// Maps a certified non-ambiguous floating-point value to an
    /// [`Orientation`].
    #[inline]
    fn from_f64(v: f64) -> Self {
        if v > 0.0 {
            Orientation::Positive
        } else if v < 0.0 {
            Orientation::Negative
        } else {
            Orientation::Zero
        }
    }

    /// True for [`Orientation::Positive`].
    #[inline]
    pub fn is_positive(self) -> bool {
        self == Orientation::Positive
    }

    /// True for [`Orientation::Negative`].
    #[inline]
    pub fn is_negative(self) -> bool {
        self == Orientation::Negative
    }

    /// True for [`Orientation::Zero`].
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Orientation::Zero
    }
}

/// Orientation of the triangle `(a, b, c)`.
///
/// Returns [`Orientation::Positive`] when the three points make a left turn
/// (counter-clockwise), [`Orientation::Negative`] for a right turn and
/// [`Orientation::Zero`] when they are exactly collinear.  The sign is exact.
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> Orientation {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return Orientation::from_f64(det);
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return Orientation::from_f64(det);
        }
        -detleft - detright
    } else {
        return Orientation::from_f64(det);
    };

    let errbound = CCW_ERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        return Orientation::from_f64(det);
    }

    Orientation::from_sign(orient2d_exact(a, b, c))
}

/// Fully exact orientation evaluation through expansion arithmetic.
fn orient2d_exact(a: Point2, b: Point2, c: Point2) -> i32 {
    let acx = Expansion::diff(a.x, c.x);
    let bcy = Expansion::diff(b.y, c.y);
    let acy = Expansion::diff(a.y, c.y);
    let bcx = Expansion::diff(b.x, c.x);
    let left = acx.mul(&bcy);
    let right = acy.mul(&bcx);
    left.sub(&right).sign()
}

/// In-circle test for the circumcircle of the counter-clockwise triangle
/// `(a, b, c)`.
///
/// Returns [`Orientation::Positive`] when `d` lies strictly inside the
/// circumcircle, [`Orientation::Negative`] when strictly outside and
/// [`Orientation::Zero`] when the four points are exactly co-circular.  The
/// triangle must be counter-clockwise for the sign convention to hold (this
/// is an invariant of the triangulation).  The sign is exact.
pub fn incircle(a: Point2, b: Point2, c: Point2, d: Point2) -> Orientation {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = ICC_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        return Orientation::from_f64(det);
    }

    Orientation::from_sign(incircle_exact(a, b, c, d))
}

/// Fully exact in-circle evaluation through expansion arithmetic.
fn incircle_exact(a: Point2, b: Point2, c: Point2, d: Point2) -> i32 {
    let adx = Expansion::diff(a.x, d.x);
    let ady = Expansion::diff(a.y, d.y);
    let bdx = Expansion::diff(b.x, d.x);
    let bdy = Expansion::diff(b.y, d.y);
    let cdx = Expansion::diff(c.x, d.x);
    let cdy = Expansion::diff(c.y, d.y);

    let alift = adx.mul(&adx).add(&ady.mul(&ady));
    let blift = bdx.mul(&bdx).add(&bdy.mul(&bdy));
    let clift = cdx.mul(&cdx).add(&cdy.mul(&cdy));

    let bcd = bdx.mul(&cdy).sub(&cdx.mul(&bdy));
    let cad = cdx.mul(&ady).sub(&adx.mul(&cdy));
    let abd = adx.mul(&bdy).sub(&bdx.mul(&ady));

    alift
        .mul(&bcd)
        .add(&blift.mul(&cad))
        .add(&clift.mul(&abd))
        .sign()
}

/// Circumcentre of the triangle `(a, b, c)`.
///
/// Returns `None` when the triangle is (numerically) degenerate.  The result
/// is computed in plain floating point; Voronoi vertices are only used for
/// reporting (cell polygons, figures), never for combinatorial decisions, so
/// exactness is not required here.
pub fn circumcenter(a: Point2, b: Point2, c: Point2) -> Option<Point2> {
    let bax = b.x - a.x;
    let bay = b.y - a.y;
    let cax = c.x - a.x;
    let cay = c.y - a.y;
    let d = 2.0 * (bax * cay - bay * cax);
    if d == 0.0 || !d.is_finite() {
        return None;
    }
    let b2 = bax * bax + bay * bay;
    let c2 = cax * cax + cay * cay;
    let ux = (cay * b2 - bay * c2) / d;
    let uy = (bax * c2 - cax * b2) / d;
    let center = Point2::new(a.x + ux, a.y + uy);
    center.is_finite().then_some(center)
}

/// True when `p` lies inside or on the boundary of the (counter-clockwise)
/// triangle `(a, b, c)`.
pub fn point_in_triangle(a: Point2, b: Point2, c: Point2, p: Point2) -> bool {
    !orient2d(a, b, p).is_negative()
        && !orient2d(b, c, p).is_negative()
        && !orient2d(c, a, p).is_negative()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_basic() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        assert_eq!(orient2d(a, b, c), Orientation::Positive);
        assert_eq!(orient2d(a, c, b), Orientation::Negative);
        assert_eq!(
            orient2d(a, b, Point2::new(2.0, 0.0)),
            Orientation::Zero,
            "collinear points must be detected exactly"
        );
    }

    #[test]
    fn orientation_near_degenerate_is_exact() {
        // Three points that are collinear up to the last bit of precision:
        // the filter must hand over to the exact path and report the true
        // (non-zero) sign.
        let a = Point2::new(0.5, 0.5);
        let b = Point2::new(12.0, 12.0);
        let c = Point2::new(24.0, 24.0 + 2f64.powi(-46));
        assert_eq!(orient2d(a, b, c), Orientation::Positive);
        let c2 = Point2::new(24.0, 24.0 - 2f64.powi(-46));
        assert_eq!(orient2d(a, b, c2), Orientation::Negative);
        let c3 = Point2::new(24.0, 24.0);
        assert_eq!(orient2d(a, b, c3), Orientation::Zero);
    }

    #[test]
    fn orientation_antisymmetry_exhaustive_small_grid() {
        // On a tiny grid with perturbations the predicate must be
        // antisymmetric under swapping two points and invariant under cyclic
        // permutation.
        let vals = [0.0, 0.25, 0.5, 1.0, 1.0 + 2f64.powi(-50)];
        let pts: Vec<Point2> = vals
            .iter()
            .flat_map(|&x| vals.iter().map(move |&y| Point2::new(x, y)))
            .collect();
        for &a in &pts {
            for &b in &pts {
                for &c in &pts {
                    let o1 = orient2d(a, b, c);
                    let o2 = orient2d(b, c, a);
                    let o3 = orient2d(b, a, c);
                    assert_eq!(o1, o2);
                    match o1 {
                        Orientation::Positive => assert_eq!(o3, Orientation::Negative),
                        Orientation::Negative => assert_eq!(o3, Orientation::Positive),
                        Orientation::Zero => assert_eq!(o3, Orientation::Zero),
                    }
                }
            }
        }
    }

    #[test]
    fn incircle_basic() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        // circumcircle has centre (0.5, 0.5) and radius sqrt(0.5)
        assert_eq!(
            incircle(a, b, c, Point2::new(0.5, 0.5)),
            Orientation::Positive
        );
        assert_eq!(
            incircle(a, b, c, Point2::new(5.0, 5.0)),
            Orientation::Negative
        );
        assert_eq!(
            incircle(a, b, c, Point2::new(1.0, 1.0)),
            Orientation::Zero,
            "the fourth cocircular corner must be detected exactly"
        );
    }

    #[test]
    fn incircle_near_cocircular_is_exact() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(1.0, 1.0);
        let just_inside = Point2::new(0.0, 1.0 - 2f64.powi(-48));
        let just_outside = Point2::new(0.0, 1.0 + 2f64.powi(-48));
        assert_eq!(incircle(a, b, c, just_inside), Orientation::Positive);
        assert_eq!(incircle(a, b, c, just_outside), Orientation::Negative);
    }

    #[test]
    fn incircle_orientation_convention() {
        // For a clockwise triangle the sign flips; the triangulation never
        // stores clockwise triangles but the predicate behaviour is defined.
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(0.0, 1.0);
        let c = Point2::new(1.0, 0.0);
        assert_eq!(
            incircle(a, b, c, Point2::new(0.4, 0.4)),
            Orientation::Negative
        );
    }

    #[test]
    fn circumcenter_matches_equidistance() {
        let a = Point2::new(0.1, 0.2);
        let b = Point2::new(0.9, 0.25);
        let c = Point2::new(0.4, 0.8);
        let cc = circumcenter(a, b, c).unwrap();
        let ra = cc.distance(a);
        let rb = cc.distance(b);
        let rc = cc.distance(c);
        assert!((ra - rb).abs() < 1e-12);
        assert!((ra - rc).abs() < 1e-12);
    }

    #[test]
    fn circumcenter_degenerate_is_none() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(0.5, 0.5);
        let c = Point2::new(1.0, 1.0);
        assert!(circumcenter(a, b, c).is_none());
    }

    #[test]
    fn point_in_triangle_boundaries() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        let edge_mid = Point2::new(0.5, 0.0);
        assert!(point_in_triangle(a, b, c, edge_mid));
        assert!(!point_in_triangle(a, b, c, Point2::new(0.7, 0.7)));
    }

    #[test]
    fn incircle_consistency_with_circumcenter() {
        // Random-ish points: the robust predicate and the floating-point
        // circumcircle agree away from degeneracy.
        let a = Point2::new(0.12, 0.77);
        let b = Point2::new(0.55, 0.13);
        let c = Point2::new(0.91, 0.64);
        // ensure CCW
        let (a, b, c) = if orient2d(a, b, c).is_positive() {
            (a, b, c)
        } else {
            (a, c, b)
        };
        let cc = circumcenter(a, b, c).unwrap();
        let r2 = cc.distance2(a);
        for &(x, y) in &[(0.3, 0.4), (0.9, 0.9), (0.5, 0.5), (0.05, 0.05)] {
            let p = Point2::new(x, y);
            let inside_fp = cc.distance2(p) < r2 - 1e-9;
            let outside_fp = cc.distance2(p) > r2 + 1e-9;
            match incircle(a, b, c, p) {
                Orientation::Positive => assert!(inside_fp),
                Orientation::Negative => assert!(outside_fp),
                Orientation::Zero => {}
            }
        }
    }
}
