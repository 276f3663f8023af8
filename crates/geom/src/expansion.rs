//! Exact floating-point expansion arithmetic.
//!
//! The robust predicates of [`crate::predicates`] fall back to exact
//! arithmetic when their floating-point filter cannot certify a sign.  The
//! exact path represents every intermediate value as an *expansion*: a sum of
//! non-overlapping `f64` components whose exact mathematical sum is the value
//! being represented (Shewchuk, *Adaptive Precision Floating-Point Arithmetic
//! and Fast Robust Geometric Predicates*, 1997).
//!
//! Only the handful of primitives needed by the predicates is implemented:
//! error-free transformations (`two_sum`, `two_diff`, `two_product`),
//! expansion growth and addition, scaling by a scalar, full expansion
//! products, and sign extraction.  The code favours clarity over raw speed:
//! the exact path is only exercised on (near-)degenerate inputs, which are a
//! vanishing fraction of the predicate calls issued while building a
//! 300 000-object overlay.

/// Splitter constant used by [`split`]: `2^27 + 1` for IEEE-754 binary64.
const SPLITTER: f64 = 134_217_729.0;

/// Error-free transformation of a sum: returns `(hi, lo)` with
/// `hi + lo == a + b` exactly and `hi = fl(a + b)`.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let hi = a + b;
    let bvirt = hi - a;
    let avirt = hi - bvirt;
    let bround = b - bvirt;
    let around = a - avirt;
    (hi, around + bround)
}

/// Error-free transformation of a sum when `|a| >= |b|` is known.
#[inline]
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let hi = a + b;
    let bvirt = hi - a;
    (hi, b - bvirt)
}

/// Error-free transformation of a difference: `(hi, lo)` with
/// `hi + lo == a - b` exactly.
#[inline]
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let hi = a - b;
    let bvirt = a - hi;
    let avirt = hi + bvirt;
    let bround = bvirt - b;
    let around = a - avirt;
    (hi, around + bround)
}

/// Splits a double into two non-overlapping halves whose sum is exact.
#[inline]
pub fn split(a: f64) -> (f64, f64) {
    let c = SPLITTER * a;
    let abig = c - a;
    let ahi = c - abig;
    let alo = a - ahi;
    (ahi, alo)
}

/// Error-free transformation of a product: `(hi, lo)` with
/// `hi + lo == a * b` exactly.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let hi = a * b;
    let (ahi, alo) = split(a);
    let (bhi, blo) = split(b);
    let err1 = hi - ahi * bhi;
    let err2 = err1 - alo * bhi;
    let err3 = err2 - ahi * blo;
    (hi, alo * blo - err3)
}

/// An exact multi-component value: the mathematical value is the exact sum of
/// `components`, stored in order of increasing magnitude.
///
/// The representation is not necessarily canonical (zero components may be
/// present); [`Expansion::estimate`] and [`Expansion::sign`] are nonetheless
/// exact because they rely only on the exact-sum invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    components: Vec<f64>,
}

impl Expansion {
    /// The zero expansion.
    pub fn zero() -> Self {
        Expansion { components: vec![] }
    }

    /// An expansion holding a single double.
    pub fn from_f64(a: f64) -> Self {
        if a == 0.0 {
            Expansion::zero()
        } else {
            Expansion {
                components: vec![a],
            }
        }
    }

    /// Builds an expansion from the error-free pair produced by
    /// [`two_sum`]/[`two_diff`]/[`two_product`] (`hi`, `lo`).
    fn from_two(hi: f64, lo: f64) -> Self {
        let mut e = Expansion {
            components: Vec::with_capacity(2),
        };
        if lo != 0.0 {
            e.components.push(lo);
        }
        if hi != 0.0 {
            e.components.push(hi);
        }
        e
    }

    /// Exact difference of two doubles as an expansion.
    pub fn diff(a: f64, b: f64) -> Self {
        let (hi, lo) = two_diff(a, b);
        Expansion::from_two(hi, lo)
    }

    /// Exact product of two doubles as an expansion.
    pub fn product(a: f64, b: f64) -> Self {
        let (hi, lo) = two_product(a, b);
        Expansion::from_two(hi, lo)
    }

    /// Number of (possibly zero) stored components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the expansion has no components (value exactly zero).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Adds a single double exactly (Shewchuk's `GROW-EXPANSION` with zero
    /// elimination).
    pub fn grow(&self, b: f64) -> Expansion {
        let mut h = Vec::with_capacity(self.components.len() + 1);
        let mut q = b;
        for &e in &self.components {
            let (qnew, hh) = two_sum(q, e);
            if hh != 0.0 {
                h.push(hh);
            }
            q = qnew;
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion { components: h }
    }

    /// Exact sum of two expansions (repeated `grow`, with zero elimination).
    ///
    /// Not the asymptotically fastest algorithm (`FAST-EXPANSION-SUM` would
    /// be), but the operand sizes in the exact predicate fallback are tiny and
    /// correctness is what matters here.
    pub fn add(&self, other: &Expansion) -> Expansion {
        let mut acc = self.clone();
        for &c in &other.components {
            acc = acc.grow(c);
        }
        acc
    }

    /// Exact difference `self - other`.
    pub fn sub(&self, other: &Expansion) -> Expansion {
        self.add(&other.negate())
    }

    /// Exact negation.
    fn negate(&self) -> Expansion {
        Expansion {
            components: self.components.iter().map(|c| -c).collect(),
        }
    }

    /// Exact product by a single double (Shewchuk's `SCALE-EXPANSION`).
    pub fn scale(&self, b: f64) -> Expansion {
        if b == 0.0 || self.components.is_empty() {
            return Expansion::zero();
        }
        let mut h = Vec::with_capacity(2 * self.components.len());
        let (mut q, hh) = two_product(self.components[0], b);
        if hh != 0.0 {
            h.push(hh);
        }
        for &e in &self.components[1..] {
            let (t1, t0) = two_product(e, b);
            let (q2, h2) = two_sum(q, t0);
            if h2 != 0.0 {
                h.push(h2);
            }
            let (q3, h3) = fast_two_sum(t1, q2);
            if h3 != 0.0 {
                h.push(h3);
            }
            q = q3;
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion { components: h }
    }

    /// Exact product of two expansions (distributes `scale` over the
    /// components of `other` and sums).
    pub fn mul(&self, other: &Expansion) -> Expansion {
        let mut acc = Expansion::zero();
        for &c in &other.components {
            acc = acc.add(&self.scale(c));
        }
        acc
    }

    /// Approximate value: the floating-point sum of the components. By the
    /// non-overlapping property the approximation error is below one ulp of
    /// the result, so in particular the sign of a non-zero estimate matches
    /// the exact sign when the estimate's magnitude dominates rounding — the
    /// exact sign is obtained from the largest-magnitude component instead,
    /// see [`Expansion::sign`].
    pub fn estimate(&self) -> f64 {
        self.components.iter().sum()
    }

    /// Exact sign of the represented value: `-1`, `0` or `1`.
    ///
    /// For an expansion produced by the operations above, the last non-zero
    /// component dominates the sum, so its sign is the sign of the value.
    pub fn sign(&self) -> i32 {
        for &c in self.components.iter().rev() {
            if c > 0.0 {
                return 1;
            }
            if c < 0.0 {
                return -1;
            }
        }
        0
    }

    /// Read-only view of the components (ascending magnitude order).
    pub fn components(&self) -> &[f64] {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_sum_as_f64(e: &Expansion) -> f64 {
        // For the small values used in tests the estimate is exact.
        e.estimate()
    }

    #[test]
    fn two_sum_is_error_free() {
        let a = 1.0;
        let b = 1e-30;
        let (hi, lo) = two_sum(a, b);
        assert_eq!(hi, 1.0);
        assert_eq!(lo, 1e-30);
    }

    #[test]
    fn two_diff_recovers_cancellation() {
        let a = 1.0 + 2f64.powi(-52);
        let b = 1.0;
        let (hi, lo) = two_diff(a, b);
        assert_eq!(hi + lo, 2f64.powi(-52));
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn two_product_error_term() {
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-30);
        let (hi, lo) = two_product(a, b);
        // a*b = 1 + 2^-29 + 2^-60 ; the 2^-60 term is the roundoff.
        assert_eq!(hi, 1.0 + 2f64.powi(-29));
        assert_eq!(lo, 2f64.powi(-60));
    }

    #[test]
    fn split_halves_sum_exactly() {
        let a = std::f64::consts::PI * 1e10;
        let (hi, lo) = split(a);
        assert_eq!(hi + lo, a);
    }

    #[test]
    fn expansion_grow_and_sign() {
        let e = Expansion::from_f64(1.0).grow(1e-40).grow(-1.0);
        assert_eq!(e.sign(), 1);
        assert_eq!(exact_sum_as_f64(&e), 1e-40);
    }

    #[test]
    fn expansion_add_sub() {
        let a = Expansion::from_f64(3.5);
        let b = Expansion::from_f64(-1.25);
        assert_eq!(exact_sum_as_f64(&a.add(&b)), 2.25);
        assert_eq!(exact_sum_as_f64(&a.sub(&b)), 4.75);
        assert_eq!(a.sub(&a).sign(), 0);
    }

    #[test]
    fn expansion_scale_and_mul() {
        let a = Expansion::diff(1.0 + 2f64.powi(-50), 1.0); // 2^-50 exactly
        let s = a.scale(4.0);
        assert_eq!(exact_sum_as_f64(&s), 2f64.powi(-48));
        let sq = a.mul(&a);
        assert_eq!(exact_sum_as_f64(&sq), 2f64.powi(-100));
        assert_eq!(sq.sign(), 1);
    }

    #[test]
    fn zero_expansion_behaviour() {
        let z = Expansion::zero();
        assert_eq!(z.sign(), 0);
        assert_eq!(z.estimate(), 0.0);
        assert!(z.mul(&Expansion::from_f64(5.0)).sign() == 0);
        assert_eq!(z.add(&Expansion::from_f64(2.0)).estimate(), 2.0);
    }

    #[test]
    fn catastrophic_cancellation_sign_is_exact() {
        // (a*a) - (b*c) where the floating point results are equal but the
        // exact values differ in the last bit.
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-29);
        let c = 1.0;
        let aa = Expansion::product(a, a);
        let bc = Expansion::product(b, c);
        let d = aa.sub(&bc);
        // a^2 = 1 + 2^-29 + 2^-60 ; b*c = 1 + 2^-29  => difference = 2^-60 > 0
        assert_eq!(d.sign(), 1);
    }

    #[test]
    fn negate_flips_sign() {
        let e = Expansion::from_f64(2.0).grow(3e-20);
        assert_eq!(e.negate().sign(), -1);
        assert_eq!(e.negate().negate().estimate(), e.estimate());
    }
}
