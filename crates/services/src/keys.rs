//! Deterministic mappings from service identifiers to overlay geometry.
//!
//! Both services anchor their state in the attribute space: a KV key
//! hashes to a coordinate whose Voronoi cell owner stores the entry, and
//! a pub/sub topic *is* its region rectangle, identified by the exact
//! bit pattern of its corners.  Everything here is pure arithmetic — no
//! randomness, no state — so every engine, the naive oracle model and
//! the distributed driver all agree on the same placement.
//!
//! The placement rule itself lives here too, once: the owner of a key is
//! the live object with the least `(distance², id)` to the key's point
//! ([`holder_among`]), and its replicas are the owner's Voronoi
//! neighbours, sorted ([`replica_set`]).  The single-process
//! `ServiceEngine` and the cluster driver both call these.

use voronet_core::ObjectId;
use voronet_geom::{Point2, Rect};

/// The SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a KV key to its home coordinate inside `domain`.
///
/// The mapping is the whole placement scheme: the live object owning the
/// Voronoi cell of `key_point(key, domain)` stores the entry (greedy
/// routing towards the point terminates exactly there, Theorem 1 of the
/// paper).  Two independent SplitMix64 streams feed the two axes, and the
/// 53 high bits of each are scaled into the domain so the coordinate is
/// uniform and reproducible bit-for-bit everywhere.
pub fn key_point(key: u64, domain: Rect) -> Point2 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let a = mix(key.wrapping_add(GAMMA));
    let b = mix(key.wrapping_add(GAMMA.wrapping_mul(2)));
    let ux = (a >> 11) as f64 / (1u64 << 53) as f64;
    let uy = (b >> 11) as f64 / (1u64 << 53) as f64;
    Point2::new(
        domain.min.x + ux * (domain.max.x - domain.min.x),
        domain.min.y + uy * (domain.max.y - domain.min.y),
    )
}

/// The identity of a pub/sub topic: the exact bit pattern of its region
/// rectangle.  Used to key per-topic sequence numbers; two publishes
/// target the same topic iff their rectangles are bit-identical.
pub fn topic_key(region: &Rect) -> [u64; 4] {
    [
        region.min.x.to_bits(),
        region.min.y.to_bits(),
        region.max.x.to_bits(),
        region.max.y.to_bits(),
    ]
}

/// The owner of the key point `key` among `candidates` (objects with
/// their coordinates): the least `(distance², id)` — exact, and ties,
/// measure-zero for hashed key points, go to the lower id; `None` when
/// there is no candidate.
pub fn holder_among(
    key: Point2,
    candidates: impl IntoIterator<Item = (ObjectId, Point2)>,
) -> Option<ObjectId> {
    let rank = |(id, at): (ObjectId, Point2)| (at.distance2(key), id);
    let best = |best, c| if rank(c) < rank(best) { c } else { best };
    candidates.into_iter().reduce(best).map(|(id, _)| id)
}

/// The replica set of an owner, given its Voronoi neighbours: those
/// neighbours, sorted by id.
pub fn replica_set(neighbours: impl IntoIterator<Item = ObjectId>) -> Vec<ObjectId> {
    let mut replicas: Vec<ObjectId> = neighbours.into_iter().collect();
    replicas.sort_unstable();
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_points_are_deterministic_and_in_domain() {
        let domain = Rect::UNIT;
        for key in 0..1_000u64 {
            let p = key_point(key, domain);
            assert_eq!(p, key_point(key, domain));
            assert!(domain.contains(p), "key {key} -> {p:?} escapes the domain");
        }
        // Nearby keys land far apart (no visible structure).
        let a = key_point(1, domain);
        let b = key_point(2, domain);
        assert!(a.distance(b) > 1e-3, "{a:?} vs {b:?}");
    }

    #[test]
    fn key_points_scale_into_arbitrary_domains() {
        let domain = Rect::new(Point2::new(2.0, -1.0), Point2::new(6.0, 3.0));
        for key in 0..200u64 {
            assert!(domain.contains(key_point(key, domain)));
        }
        // Same key, different domain, same relative position.
        let unit = key_point(7, Rect::UNIT);
        let wide = key_point(7, domain);
        assert!((wide.x - (2.0 + unit.x * 4.0)).abs() < 1e-12);
        assert!((wide.y - (-1.0 + unit.y * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn topic_keys_identify_rectangles_exactly() {
        let r1 = Rect::new(Point2::new(0.1, 0.2), Point2::new(0.3, 0.4));
        let r2 = Rect::new(Point2::new(0.1, 0.2), Point2::new(0.3, 0.4));
        assert_eq!(topic_key(&r1), topic_key(&r2));
        let r3 = Rect::new(Point2::new(0.1, 0.2), Point2::new(0.3, 0.4000000001));
        assert_ne!(topic_key(&r1), topic_key(&r3));
    }
}
