//! Per-object protocol state, stored by triangulation vertex, and the
//! routing rows the live greedy walk reads.
//!
//! An object is its triangulation vertex: vertex ids are dense and recycled,
//! so the overlay keeps each piece of per-object state as a column indexed
//! by `VertexId`, parallel to `Triangulation::points` ([`Objects`]):
//!
//! * the object id of each vertex;
//! * the long-range links `LRn(o)`, `k` per vertex;
//! * for each long link, its *back position*: where its [`BackLink`] sits in
//!   the neighbour's `BLRn` list;
//! * the back-long-range lists `BLRn(o)`;
//! * the position in the dense sampling order.
//!
//! Coordinates are `Triangulation::point`, and the close set `cn(o)` is a
//! segment of the object's routing row, so neither is stored twice.  An
//! [`ObjectId`] enters from outside only through the public API; it maps
//! to its vertex through a dense table indexed by id (ids are allocated
//! monotonically, so the table holds 4 bytes per id ever issued).  When
//! the triangulation renumbers its vertices along the Hilbert curve every
//! column moves with it, so an object's state sits next to its Voronoi
//! neighbours' and a write touches a few nearby cache lines.  No message
//! count is kept per object: the overlay's `TrafficStats` counts messages
//! per kind only.
//!
//! Back positions make a departure O(1) in the size of its neighbours'
//! lists.  `Choose-LRT` (Algorithm 3) draws targets up to √2 away, so on a
//! skewed population about half of all long-link targets fall outside the
//! unit square and are owned by a few hull objects, thousands of back links
//! each.  Unregistering a link swap-removes its entry by position and fixes
//! the one entry that moved, instead of scanning the hub's list.
//!
//! The routing rows, [`RoutingRows`], hold one row per vertex listing the
//! object's greedy candidates `vn ∪ cn ∪ LRn` as vertex ids, in the walk's
//! scan order: the Voronoi fan, then the close set (ascending object ids),
//! then the long links other than those back to the object itself.  A hop
//! is one row read plus point reads from the triangulation — no id lookup,
//! no fan walk.  Joins and departures patch exactly the rows whose entries
//! they change.

use crate::object::{BackLink, LinkIndex, LongLink, ObjectId};
use voronet_geom::triangulation::apply_renumbering;
use voronet_geom::{Point2, VertexId};

/// The object column's entry for a vertex no object holds.
const NO_OBJECT: ObjectId = ObjectId(u64::MAX);

/// The vertex table's entry for an id that is not live.
const NO_VERTEX: VertexId = VertexId::MAX;

/// Per-object protocol state in columns keyed by vertex (see the
/// [module docs](self)), plus the dense sampling order and the id → vertex
/// table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Objects {
    /// Long links per object.
    k: usize,
    /// Vertex → the object it represents (`NO_OBJECT` for sentinels and
    /// free vertices).
    id: Vec<ObjectId>,
    /// Vertex → its `k` long links.
    long: Vec<LongLink>,
    /// Vertex → for each of its `k` long links, the index of the link's
    /// back pointer in the neighbour's `back` list.
    back_pos: Vec<u32>,
    /// Vertex → its back-long-range pointers `BLRn(o)`.
    back: Vec<Vec<BackLink>>,
    /// Vertex → its position in `order`.
    dense_pos: Vec<u32>,
    /// Live ids: push on join, swap-remove on departure, so seeded runs
    /// replay bit-for-bit.
    order: Vec<ObjectId>,
    /// Object id → vertex (`NO_VERTEX` once departed).
    vertex: Vec<VertexId>,
}

impl Objects {
    /// Empty columns for objects with `k` long links each.
    pub(crate) fn new(k: usize) -> Self {
        Objects {
            k,
            ..Self::default()
        }
    }

    /// Number of live objects.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Live ids in dense sampling order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.order.iter().copied()
    }

    /// The `pos`-th live id in dense sampling order.
    pub(crate) fn id_at(&self, pos: usize) -> Option<ObjectId> {
        self.order.get(pos).copied()
    }

    /// The vertices holding an object, ascending.
    pub(crate) fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.id.len() as VertexId).filter(|&v| self.id[v as usize] != NO_OBJECT)
    }

    /// The vertex of a live object.
    #[inline]
    pub(crate) fn vertex_of(&self, id: ObjectId) -> Option<VertexId> {
        let v = *self.vertex.get(usize::try_from(id.0).ok()?)?;
        (v != NO_VERTEX).then_some(v)
    }

    /// The object a vertex represents (`None` for sentinels and free
    /// vertices).
    #[inline]
    pub(crate) fn object_at(&self, v: VertexId) -> Option<ObjectId> {
        let o = *self.id.get(v as usize)?;
        (o != NO_OBJECT).then_some(o)
    }

    /// The object of a vertex known to hold one.
    #[inline]
    pub(crate) fn object(&self, v: VertexId) -> ObjectId {
        let o = self.id[v as usize];
        debug_assert_ne!(o, NO_OBJECT, "vertex {v} holds no object");
        o
    }

    /// The long links of the object at `v`.
    pub(crate) fn long(&self, v: VertexId) -> &[LongLink] {
        let at = v as usize * self.k;
        &self.long[at..at + self.k]
    }

    /// Sets the target of link `link` of the object at `v`.
    pub(crate) fn set_target(&mut self, v: VertexId, link: LinkIndex, target: Point2) {
        self.long[v as usize * self.k + link].target = target;
    }

    /// Sets the neighbour of link `link` of the object at `v`.
    pub(crate) fn set_neighbour(&mut self, v: VertexId, link: LinkIndex, neighbour: ObjectId) {
        self.long[v as usize * self.k + link].neighbour = neighbour;
    }

    /// The vertices of the links of the object at `v` that enter its
    /// routing row: those not pointing back at the object itself.
    pub(crate) fn row_links(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let me = self.object(v);
        self.long(v)
            .iter()
            .filter(move |l| l.neighbour != me)
            .map(move |l| {
                self.vertex_of(l.neighbour)
                    .expect("long links name live objects")
            })
    }

    /// How many entries of the row of `v` are long links.
    pub(crate) fn row_link_count(&self, v: VertexId) -> usize {
        let me = self.object(v);
        self.long(v).iter().filter(|l| l.neighbour != me).count()
    }

    /// The back-long-range pointers held by the object at `v`.
    pub(crate) fn back(&self, v: VertexId) -> &[BackLink] {
        &self.back[v as usize]
    }

    /// Where link `link` of the object at `v` sits in its neighbour's list.
    pub(crate) fn back_pos(&self, v: VertexId, link: LinkIndex) -> usize {
        self.back_pos[v as usize * self.k + link] as usize
    }

    /// Records that `bl` now sits at index `pos` of its holder's list.
    fn place(&mut self, bl: &BackLink, pos: usize) {
        let source = self
            .vertex_of(bl.source)
            .expect("back links name live sources");
        self.back_pos[source as usize * self.k + bl.link] = pos as u32;
    }

    /// Enters object `id` at vertex `v` with `k` links to itself aimed at
    /// `p`, last in the dense order.
    pub(crate) fn add(&mut self, id: ObjectId, v: VertexId, p: Point2) {
        let (v, k) = (v as usize, self.k);
        let self_link = LongLink {
            target: p,
            neighbour: id,
        };
        if self.id.len() <= v {
            self.id.resize(v + 1, NO_OBJECT);
            self.long.resize((v + 1) * k, self_link);
            self.back_pos.resize((v + 1) * k, 0);
            self.back.resize_with(v + 1, Vec::new);
            self.dense_pos.resize(v + 1, 0);
        }
        debug_assert!(self.back[v].is_empty(), "a free vertex holds no back link");
        self.id[v] = id;
        self.long[v * k..(v + 1) * k].fill(self_link);
        self.dense_pos[v] = self.order.len() as u32;
        self.order.push(id);
        let slot = usize::try_from(id.0).expect("object ids index memory");
        if self.vertex.len() <= slot {
            self.vertex.resize(slot + 1, NO_VERTEX);
        }
        self.vertex[slot] = v as VertexId;
    }

    /// Takes the object at `v` out of the dense order (swap-remove).  Its
    /// columns stay readable until [`Objects::forget`].
    pub(crate) fn unlist(&mut self, v: VertexId) {
        let pos = self.dense_pos[v as usize] as usize;
        self.order.swap_remove(pos);
        if let Some(&moved) = self.order.get(pos) {
            let moved = self
                .vertex_of(moved)
                .expect("dense order holds live objects");
            self.dense_pos[moved as usize] = pos as u32;
        }
    }

    /// Frees vertex `v`, whose object departed.
    pub(crate) fn forget(&mut self, v: VertexId) {
        let id = std::mem::replace(&mut self.id[v as usize], NO_OBJECT);
        self.vertex[id.0 as usize] = NO_VERTEX;
    }

    /// Appends `bl` to the list of the object at `at`, and records its
    /// position with the link's source.
    pub(crate) fn push_back(&mut self, at: VertexId, bl: BackLink) {
        let list = &mut self.back[at as usize];
        list.push(bl);
        let pos = list.len() - 1;
        self.place(&bl, pos);
    }

    /// Removes the back pointer of link `link` of the object at `v` from
    /// the list of the object at `at`, its neighbour, in O(1): a
    /// swap-remove at the recorded position, then the entry that moved
    /// into the hole records its new position.  (That entry may be another
    /// link of the same object.)
    pub(crate) fn unregister(&mut self, v: VertexId, link: LinkIndex, at: VertexId) {
        let pos = self.back_pos(v, link);
        let gone = self.back[at as usize].swap_remove(pos);
        debug_assert_eq!(
            (self.vertex_of(gone.source), gone.link),
            (Some(v), link),
            "back position of link {link} at vertex {v} is stale"
        );
        if let Some(&moved) = self.back[at as usize].get(pos) {
            self.place(&moved, pos);
        }
    }

    /// Moves every back pointer at `v` for which `moves` holds to `taken`,
    /// by swap-removes, then trims the list to its exact size (a list is
    /// typically one link in the four slots its first push reserved; a
    /// plain copy keeps the positions).
    pub(crate) fn hand_over(
        &mut self,
        v: VertexId,
        mut moves: impl FnMut(&BackLink) -> bool,
        taken: &mut Vec<BackLink>,
    ) {
        let mut list = std::mem::take(&mut self.back[v as usize]);
        let mut i = 0;
        while i < list.len() {
            if moves(&list[i]) {
                taken.push(list.swap_remove(i));
                if let Some(moved) = list.get(i) {
                    self.place(moved, i);
                }
            } else {
                i += 1;
            }
        }
        if list.capacity() != list.len() {
            list = list.to_vec();
        }
        self.back[v as usize] = list;
    }

    /// Takes the whole list of the object at `v`, which is departing.
    pub(crate) fn take_back(&mut self, v: VertexId) -> Vec<BackLink> {
        std::mem::take(&mut self.back[v as usize])
    }

    /// Moves every column to the new vertex ids of `map` (see
    /// `Triangulation::renumber`).  Back positions index lists, not
    /// vertices, so they move unchanged.
    pub(crate) fn renumber(&mut self, map: &[VertexId]) {
        let (n, k) = (map.len(), self.k);
        self.id.resize(n, NO_OBJECT);
        apply_renumbering(&mut self.id, map);
        self.dense_pos.resize(n, 0);
        apply_renumbering(&mut self.dense_pos, map);
        // `k` entries per vertex: the map widened to one entry each.
        let wide: Vec<VertexId> = map
            .iter()
            .flat_map(|&v| {
                (0..k as VertexId).map(move |j| match v {
                    NO_VERTEX => NO_VERTEX,
                    v => v * k as VertexId + j,
                })
            })
            .collect();
        let filler = LongLink {
            target: Point2::new(0.0, 0.0),
            neighbour: NO_OBJECT,
        };
        self.long.resize(n * k, filler);
        apply_renumbering(&mut self.long, &wide);
        self.back_pos.resize(n * k, 0);
        apply_renumbering(&mut self.back_pos, &wide);
        drop(wide);
        // The lists are not `Copy`: follow the permutation's cycles with
        // swaps, so no list is copied.  Free vertices hold empty lists,
        // which end up past the live ids and are dropped.
        self.back.resize_with(n, Vec::new);
        let mut dest = map.to_vec();
        for i in 0..n {
            loop {
                let j = dest[i];
                if j == NO_VERTEX || j as usize == i {
                    break;
                }
                self.back.swap(i, j as usize);
                dest.swap(i, j as usize);
            }
        }
        self.back.truncate(self.id.len());
        for &o in &self.order {
            let v = &mut self.vertex[o.0 as usize];
            *v = map[*v as usize];
        }
    }
}

/// Where one vertex's row sits in the pool: `len` entries from `start`,
/// the first `fan` of them its Voronoi fan, in a footprint of `cap`
/// entries (those past `len` are slack).  [`RoutingRows::locate`] hands
/// one out so a reader can fetch the row later with [`RoutingRows::row`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    start: u32,
    len: u32,
    cap: u32,
    fan: u32,
}

/// The live walk's routing rows, one per triangulation vertex, pooled in
/// one `Vec` (see the [module docs](self)).
///
/// A row is its fan followed by its tail, the close set then the long
/// links.  A departure re-knits its neighbours' fans without touching
/// their tails; a close pair or a long link patches one tail.  A row is
/// rewritten in place when it fits its footprint.  One that outgrows it
/// moves to the end of the pool with one slot of slack, and its old
/// footprint turns dead.  When the pool is full and at least an eighth of
/// it is dead, it is compacted to exact row sizes first, so it grows only
/// when it is mostly live.  A clone is compacted too.  A renumbering lays
/// the pool out afresh in the new vertex order, so rows sit in the order
/// of the Hilbert curve until joins append moved rows at the end.
#[derive(Debug, Default)]
pub(crate) struct RoutingRows {
    spans: Vec<Span>,
    pool: Vec<VertexId>,
    /// Pool entries outside every footprint.
    dead: usize,
    /// The buffer a row is assembled in, kept for its capacity.
    buf: Vec<VertexId>,
}

impl RoutingRows {
    /// Where the row of `v` sits in the pool (an empty row for a vertex no
    /// object holds).  Valid until the rows next change.
    #[inline]
    pub(crate) fn locate(&self, v: VertexId) -> Span {
        self.spans.get(v as usize).copied().unwrap_or_default()
    }

    /// The row a [`RoutingRows::locate`] found.
    #[inline]
    pub(crate) fn row(&self, s: Span) -> &[VertexId] {
        &self.pool[s.start as usize..(s.start + s.len) as usize]
    }

    /// The row of `v` (empty for a vertex no object holds).
    #[inline]
    pub(crate) fn of(&self, v: VertexId) -> &[VertexId] {
        self.row(self.locate(v))
    }

    /// The row of `v` split into its fan and its tail.
    pub(crate) fn parts(&self, v: VertexId) -> (&[VertexId], &[VertexId]) {
        let s = self.locate(v);
        self.row(s).split_at(s.fan as usize)
    }

    /// Replaces the fan of the row of `v` with what `fill` appends to an
    /// empty buffer; the tail is kept.
    pub(crate) fn rewrite_fan(&mut self, v: VertexId, fill: impl FnOnce(&mut Vec<VertexId>)) {
        let mut row = std::mem::take(&mut self.buf);
        row.clear();
        fill(&mut row);
        let fan = row.len() as u32;
        row.extend_from_slice(self.parts(v).1);
        self.store(v as usize, &row, fan);
        self.buf = row;
    }

    /// Replaces `remove` entries of the tail of `v`, from tail index `at`,
    /// with `insert`; the fan is kept.
    pub(crate) fn splice_tail(
        &mut self,
        v: VertexId,
        at: usize,
        remove: usize,
        insert: impl IntoIterator<Item = VertexId>,
    ) {
        let mut row = std::mem::take(&mut self.buf);
        row.clear();
        let (fan, tail) = self.parts(v);
        row.extend_from_slice(fan);
        row.extend_from_slice(&tail[..at]);
        row.extend(insert);
        row.extend_from_slice(&tail[at + remove..]);
        self.store(v as usize, &row, fan.len() as u32);
        self.buf = row;
    }

    /// Empties the row of `v`, whose object left.
    pub(crate) fn clear(&mut self, v: VertexId) {
        if let Some(s) = self.spans.get_mut(v as usize) {
            self.dead += s.cap as usize;
            *s = Span::default();
        }
    }

    fn store(&mut self, v: usize, row: &[VertexId], fan: u32) {
        if v >= self.spans.len() {
            self.spans.resize(v + 1, Span::default());
        }
        let old = self.spans[v];
        let len = row.len() as u32;
        if len <= old.cap {
            let start = old.start as usize;
            self.pool[start..start + row.len()].copy_from_slice(row);
            self.spans[v] = Span { len, fan, ..old };
            return;
        }
        self.dead += old.cap as usize;
        self.spans[v] = Span::default();
        let cap = len + 1;
        if self.pool.len() + cap as usize > self.pool.capacity() && self.dead * 8 >= self.pool.len()
        {
            self.compact();
        }
        let start = self.pool.len() as u32;
        self.pool.extend_from_slice(row);
        self.pool.push(VertexId::MAX);
        self.spans[v] = Span {
            start,
            len,
            cap,
            fan,
        };
    }

    /// Copies every row, in vertex order, into a pool of the same capacity
    /// and trims each footprint to its row.
    fn compact(&mut self) {
        let mut pool = Vec::with_capacity(self.pool.capacity());
        self.spans = self.compacted_spans(&mut pool);
        self.pool = pool;
        self.dead = 0;
    }

    /// The spans of every row copied, in vertex order, to the end of
    /// `pool`, each footprint trimmed to its row.
    fn compacted_spans(&self, pool: &mut Vec<VertexId>) -> Vec<Span> {
        self.spans
            .iter()
            .map(|s| {
                let start = pool.len() as u32;
                pool.extend_from_slice(self.row(*s));
                Span {
                    start,
                    cap: s.len,
                    ..*s
                }
            })
            .collect()
    }

    /// Moves every row to its vertex's new id under `map` (see
    /// `Triangulation::renumber`) and rewrites its entries.  The pool is
    /// laid out afresh in the new vertex order, each footprint with the one
    /// slot of slack a moved row gets, so a fan that grows by one is
    /// rewritten in place.  Spans and pool keep their buffers: the new
    /// layout is assembled on the side and copied back.
    pub(crate) fn renumber(&mut self, map: &[VertexId]) {
        // Each span first moves to its new id, still pointing into the old
        // pool.
        self.spans.resize(map.len(), Span::default());
        apply_renumbering(&mut self.spans, map);
        let mut pool = Vec::with_capacity(self.spans.iter().map(|s| s.len as usize + 1).sum());
        for s in &mut self.spans {
            if s.len == 0 {
                *s = Span::default();
                continue;
            }
            let start = pool.len() as u32;
            let row = &self.pool[s.start as usize..(s.start + s.len) as usize];
            pool.extend(row.iter().map(|&u| map[u as usize]));
            pool.push(VertexId::MAX);
            *s = Span {
                start,
                cap: s.len + 1,
                ..*s
            };
        }
        self.pool.clear();
        self.pool.extend_from_slice(&pool);
        self.dead = 0;
    }

    /// Vertices with a non-empty row.
    pub(crate) fn non_empty(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.spans.len() as VertexId).filter(|&v| self.spans[v as usize].len > 0)
    }
}

impl Clone for RoutingRows {
    /// The copy is compacted: a plain copy of a pool that had just filled
    /// would compact at its first moved row, and a benchmark or a test
    /// that mutates clones would pay that O(pool) pass every time.
    fn clone(&self) -> Self {
        let mut pool = Vec::with_capacity(self.pool.len() - self.dead);
        let spans = self.compacted_spans(&mut pool);
        RoutingRows {
            spans,
            pool,
            dead: 0,
            buf: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn link_from(id: u64) -> BackLink {
        BackLink {
            source: ObjectId(id),
            link: 0,
            target: Point2::new(0.5, id as f64 * 0.01),
        }
    }

    /// Object `i` at vertex `i + 4`, one link each.
    fn objects(n: u64) -> Objects {
        let mut objects = Objects::new(1);
        for i in 0..n {
            let p = Point2::new(i as f64 * 0.01, 0.5);
            objects.add(ObjectId(i), i as VertexId + 4, p);
        }
        objects
    }

    fn remove(objects: &mut Objects, id: u64) {
        let v = objects.vertex_of(ObjectId(id)).unwrap();
        objects.unlist(v);
        objects.forget(v);
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut objects = objects(2);
        assert_eq!(objects.len(), 2);
        assert_eq!(objects.vertex_of(ObjectId(1)), Some(5));
        assert_eq!(objects.object_at(4), Some(ObjectId(0)));
        assert_eq!(objects.object_at(0), None, "sentinels hold no object");
        assert_eq!(objects.long(5)[0].neighbour, ObjectId(1));
        remove(&mut objects, 0);
        assert_eq!(objects.vertex_of(ObjectId(0)), None);
        assert_eq!(objects.object_at(4), None);
        assert_eq!(objects.vertex_of(ObjectId(99)), None);
        assert_eq!(objects.vertex_of(ObjectId(u64::MAX)), None);
        assert_eq!(objects.len(), 1);
    }

    #[test]
    fn dense_order_swap_removes_like_a_vec() {
        let mut objects = objects(5);
        let mut mirror: Vec<u64> = (0..5).collect();
        for &victim in &[1u64, 4, 0] {
            let pos = mirror.iter().position(|&x| x == victim).unwrap();
            mirror.swap_remove(pos);
            remove(&mut objects, victim);
            let got: Vec<u64> = objects.ids().map(|o| o.0).collect();
            assert_eq!(got, mirror);
            for (pos, &id) in mirror.iter().enumerate() {
                assert_eq!(objects.id_at(pos), Some(ObjectId(id)));
            }
        }
    }

    #[test]
    fn lookups_survive_churn_far_past_the_live_population() {
        // Ids are never reused, so under churn the id range outgrows the
        // population without bound; here it ends ≥ 64× wider, while the
        // vertices are recycled.
        const LIVE: u64 = 96;
        let mut objects = objects(LIVE);
        let mut next = LIVE;
        let mut rng = StdRng::seed_from_u64(0xA4E7A);
        while next < LIVE * 64 + 1000 {
            let victim = objects.id_at(rng.random_range(0..objects.len())).unwrap();
            let v = objects.vertex_of(victim).unwrap();
            objects.unlist(v);
            objects.forget(v);
            objects.add(ObjectId(next), v, Point2::new(0.5, 0.5));
            next += 1;
        }
        let live: Vec<ObjectId> = objects.ids().collect();
        assert_eq!(live.len() as u64, LIVE);
        assert!(live.iter().map(|id| id.0).max().unwrap() + 1 >= 64 * LIVE);
        for (pos, &id) in live.iter().enumerate() {
            let v = objects.vertex_of(id).unwrap();
            assert_eq!(objects.object_at(v), Some(id));
            assert_eq!(objects.dense_pos[v as usize] as usize, pos);
        }
        for raw in 0..next + 10 {
            let id = ObjectId(raw);
            assert_eq!(
                objects.vertex_of(id).is_some(),
                live.contains(&id),
                "{id:?}"
            );
        }
    }

    /// Both links of 40 objects registered at one hub, then unregistered
    /// in random order: after each removal every other link's recorded
    /// position still names that link's entry — including when the entry
    /// that moved is the same object's other link.
    #[test]
    fn back_positions_follow_swap_removes() {
        let mut objects = Objects::new(2);
        for i in 0..40u64 {
            objects.add(ObjectId(i), i as VertexId + 4, Point2::new(0.5, 0.5));
        }
        let hub = 4;
        for i in 0..40u64 {
            for link in 0..2 {
                objects.push_back(
                    hub,
                    BackLink {
                        link,
                        ..link_from(i)
                    },
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut linked: Vec<(VertexId, LinkIndex)> =
            (4..44).flat_map(|v| [(v, 0), (v, 1)]).collect();
        while !linked.is_empty() {
            let (v, link) = linked.swap_remove(rng.random_range(0..linked.len()));
            objects.unregister(v, link, hub);
            assert_eq!(objects.back(hub).len(), linked.len());
            for &(v, link) in &linked {
                let bl = objects.back(hub)[objects.back_pos(v, link)];
                assert_eq!((bl.source, bl.link), (objects.object(v), link));
            }
        }
    }

    /// A renumbering moves every column with its vertex and keeps each
    /// list's order, so back positions stay valid.
    #[test]
    fn renumbering_moves_every_column() {
        let mut objects = objects(6);
        objects.push_back(9, link_from(0));
        objects.push_back(9, link_from(3));
        objects.push_back(7, link_from(5));
        remove(&mut objects, 2);
        // Sentinels stay; vertex 6 (object 2) is free; the rest reverse.
        let map = [0, 1, 2, 3, 8, 7, VertexId::MAX, 6, 5, 4];
        objects.renumber(&map);
        for id in [0u64, 1, 3, 4, 5] {
            let v = objects.vertex_of(ObjectId(id)).unwrap();
            assert_eq!(v, map[id as usize + 4]);
            assert_eq!(objects.object(v), ObjectId(id));
            assert_eq!(objects.long(v)[0].neighbour, ObjectId(id));
        }
        let sources: Vec<u64> = objects.back(map[9]).iter().map(|b| b.source.0).collect();
        assert_eq!(sources, [0, 3]);
        assert_eq!(objects.back(map[7]).len(), 1);
        let three = objects.vertex_of(ObjectId(3)).unwrap();
        assert_eq!(objects.back_pos(three, 0), 1);
        let order: Vec<u64> = objects.ids().map(|o| o.0).collect();
        assert_eq!(order, [0, 1, 5, 3, 4]);
    }
}
