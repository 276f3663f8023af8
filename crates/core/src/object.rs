//! Object identifiers, per-object protocol state and view descriptions.

use crate::arena::Objects;
use serde::{Deserialize, Serialize};
use voronet_geom::{Point2, Triangulation, VertexId};

/// Stable application-level identifier of a published object.
///
/// Unlike triangulation vertex ids, object ids are never reused, so they can
/// safely be held across joins and departures (e.g. inside back-long-range
/// pointers or application state).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Identifier of a long-range link of an object (an object owns
/// `config.long_links` of them, indexed from 0).
pub type LinkIndex = usize;

/// One long-range link: the fixed target point chosen by `Choose-LRT` and
/// the object currently responsible for that point (`LRn`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LongLink {
    /// The target point drawn by Algorithm 3 (may lie outside the domain).
    pub target: Point2,
    /// The object currently owning the target's Voronoi region.
    pub neighbour: ObjectId,
}

/// A back-long-range entry stored at the link's *target-side* object: who
/// points at us, through which of their links, and at which target point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackLink {
    /// The object holding the forward long-range link.
    pub source: ObjectId,
    /// Which of the source's long links this is.
    pub link: LinkIndex,
    /// The (immutable) target point of that link.
    pub target: Point2,
}

/// Borrowed, zero-copy view of an object's protocol state — the hot-path
/// counterpart of [`ObjectView`].
///
/// A `ViewRef` borrows straight out of the overlay's stores, each of which
/// holds its fact once: the long links and back links are slices of the
/// object's columns (keyed by its triangulation vertex), the close
/// neighbours are read from the close segment of its routing row, and the
/// Voronoi neighbours are produced lazily by walking the Delaunay fan;
/// vertices become object ids through the vertex → object column.  It is
/// the object-level reading of the view — the Algorithm 5 loop and the
/// range-query floods iterate it without allocating.  Greedy routing ([`crate::VoroNet::route_to_point_in`])
/// does not: it scans the routing rows as vertex ids and never walks the
/// fan.  Build an owned [`ObjectView`] (via [`ViewRef::to_view`]) only at a
/// serialization or message boundary.
#[derive(Debug, Clone, Copy)]
pub struct ViewRef<'a> {
    pub(crate) id: ObjectId,
    pub(crate) vertex: VertexId,
    /// The close neighbours' vertices, in ascending object-id order.
    pub(crate) close: &'a [VertexId],
    pub(crate) long: &'a [LongLink],
    pub(crate) back_long: &'a [BackLink],
    pub(crate) tri: &'a Triangulation,
    pub(crate) objects: &'a Objects,
}

impl<'a> ViewRef<'a> {
    /// The object described.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Its attribute coordinates.
    pub fn coords(&self) -> Point2 {
        self.tri.point(self.vertex)
    }

    /// Voronoi neighbours `vn(o)`, derived lazily from the shared
    /// tessellation (no allocation).
    pub fn voronoi_neighbours(&self) -> impl Iterator<Item = ObjectId> + 'a {
        let objects = self.objects;
        self.tri
            .real_neighbors_iter(self.vertex)
            .map(move |v| objects.object(v))
    }

    /// Close neighbours `cn(o)`, ascending (no allocation).
    pub fn close_neighbours(&self) -> impl Iterator<Item = ObjectId> + 'a {
        let objects = self.objects;
        self.close.iter().map(move |&v| objects.object(v))
    }

    /// Long-range links `LRn(o)`.
    pub fn long_links(&self) -> &'a [LongLink] {
        self.long
    }

    /// Back-long-range pointers `BLRn(o)`.
    pub fn back_long_links(&self) -> &'a [BackLink] {
        self.back_long
    }

    /// All neighbours usable for greedy routing: `vn ∪ cn ∪ LRn` (never
    /// `BLRn`), without allocation.  Unlike
    /// [`ObjectView::routing_neighbours`] the sequence is neither sorted nor
    /// deduplicated — greedy minimisation is insensitive to both.
    pub fn routing_neighbours(&self) -> impl Iterator<Item = ObjectId> + 'a {
        self.voronoi_neighbours()
            .chain(self.close_neighbours())
            .chain(self.long.iter().map(|l| l.neighbour))
    }

    /// Total view size: the number of entries this object must store
    /// (the O(1) claim of Section 4.1).
    pub fn size(&self) -> usize {
        self.voronoi_neighbours().count()
            + self.close.len()
            + self.long.len()
            + self.back_long.len()
    }

    /// Materialises an owned [`ObjectView`] — the serialization / message
    /// boundary.
    pub fn to_view(&self) -> ObjectView {
        ObjectView {
            id: self.id,
            coords: self.coords(),
            voronoi_neighbours: self.voronoi_neighbours().collect(),
            close_neighbours: self.close_neighbours().collect(),
            long_links: self.long.to_vec(),
            back_long_links: self.back_long.to_vec(),
        }
    }
}

/// Public, read-only description of an object's view — the data structure
/// the paper describes in Section 3.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectView {
    /// The object described.
    pub id: ObjectId,
    /// Its attribute coordinates.
    pub coords: Point2,
    /// Voronoi neighbours `vn(o)`.
    pub voronoi_neighbours: Vec<ObjectId>,
    /// Close neighbours `cn(o)` (objects within `d_min`).
    pub close_neighbours: Vec<ObjectId>,
    /// Long-range links (targets and current neighbours).
    pub long_links: Vec<LongLink>,
    /// Back-long-range pointers `BLRn(o)`.
    pub back_long_links: Vec<BackLink>,
}

impl ObjectView {
    /// Total view size: the number of entries this object must store
    /// (the O(1) claim of Section 4.1).
    pub fn size(&self) -> usize {
        self.voronoi_neighbours.len()
            + self.close_neighbours.len()
            + self.long_links.len()
            + self.back_long_links.len()
    }

    /// All neighbours usable for greedy routing: `vn ∪ cn ∪ LRn`
    /// (back-long-range pointers are explicitly *not* used for routing).
    pub fn routing_neighbours(&self) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = self
            .voronoi_neighbours
            .iter()
            .chain(self.close_neighbours.iter())
            .copied()
            .collect();
        out.extend(self.long_links.iter().map(|l| l.neighbour));
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_display_and_ordering() {
        let a = ObjectId(3);
        let b = ObjectId(10);
        assert!(a < b);
        assert_eq!(a.to_string(), "o3");
    }

    #[test]
    fn view_size_and_routing_neighbours() {
        let view = ObjectView {
            id: ObjectId(1),
            coords: Point2::new(0.5, 0.5),
            voronoi_neighbours: vec![ObjectId(2), ObjectId(3)],
            close_neighbours: vec![ObjectId(3)],
            long_links: vec![LongLink {
                target: Point2::new(0.9, 0.9),
                neighbour: ObjectId(4),
            }],
            back_long_links: vec![BackLink {
                source: ObjectId(9),
                link: 0,
                target: Point2::new(0.5, 0.6),
            }],
        };
        assert_eq!(view.size(), 5);
        let routing = view.routing_neighbours();
        assert_eq!(routing, vec![ObjectId(2), ObjectId(3), ObjectId(4)]);
        assert!(
            !routing.contains(&ObjectId(9)),
            "back links must not be used for routing"
        );
    }
}
