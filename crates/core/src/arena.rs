//! Dense, generation-indexed storage of per-node protocol state, and the
//! routing rows the live greedy walk reads.
//!
//! Every live object of a [`crate::VoroNet`] owns one [`NodeSlot`] in a
//! [`NodeArena`]: its attribute coordinates, its triangulation vertex, the
//! close-neighbour set `cn(o)` (a sorted `Vec`), the long-range links
//! `LRn(o)` and the back-long-range pointers `BLRn(o)`.  (Per-node message
//! counts are not here: they live once, in the overlay's `TrafficStats`,
//! indexed by object id.)  The arena:
//!
//! * keeps slots in one flat `Vec` (slab-style, recycled through a free
//!   list), so iterating all nodes is a linear scan and a slot access from a
//!   [`NodeIndex`] is two array reads; a slot access from an [`ObjectId`]
//!   goes through a hash map with a one-multiply hasher (`IdHasher`);
//! * tags each slot with a *generation* that is bumped on recycling, so a
//!   stale [`NodeIndex`] held across a departure can never alias the node
//!   that reused the slot;
//! * maintains a dense id list, the overlay's O(1) uniform-sampling order
//!   (swap-remove on departure, so seeded runs replay bit-for-bit).
//!
//! Routing does not read the arena.  The overlay keeps a second,
//! derived structure beside it, `RoutingRows`: one row per triangulation
//! vertex listing the object's greedy candidates `vn ∪ cn ∪ LRn` as
//! vertex ids, in the walk's scan order, so a hop is one row read plus
//! point reads from the triangulation — no id hashing, no fan walk.  The
//! join and leave code rewrites the rows of exactly the objects its change
//! record names dirty.  As the overlay grows it renumbers the triangulation
//! along a Hilbert curve (`Triangulation::renumber`) and the rows move
//! with it, so an object's row sits next to its Voronoi neighbours' and a
//! greedy hop reads memory the previous hop has just brought into cache.
//!
//! The arena is shared between the synchronous overlay and the asynchronous
//! runtime ([`crate::runtime::AsyncOverlay`]): both read the same slots, the
//! former through [`crate::object::ViewRef`] borrows, the latter when it
//! refreshes a replica at a `NeighborUpdate` boundary.

use crate::object::{BackLink, LongLink, ObjectId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use voronet_geom::triangulation::apply_renumbering;
use voronet_geom::{Point2, VertexId};

/// Generation-tagged handle of a node slot in a [`NodeArena`].
///
/// A `NodeIndex` stays valid for exactly as long as the node it was taken
/// for is live: after the node departs, the slot's generation moves on and
/// the index resolves to `None` (never to a different node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeIndex {
    idx: u32,
    generation: u32,
}

impl NodeIndex {
    /// Position of the slot in the arena's backing storage.
    pub fn slot(&self) -> usize {
        self.idx as usize
    }

    /// Generation of the slot this index was taken at.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// Per-node protocol state owned by the arena (Section 3.1 of the paper,
/// minus the Voronoi neighbours, which are derived from the shared
/// tessellation).
#[derive(Debug, Clone)]
pub struct NodeSlot {
    /// The object this slot belongs to.
    pub(crate) id: ObjectId,
    /// Triangulation vertex currently representing the object.
    pub(crate) vertex: VertexId,
    /// Attribute coordinates (immutable for the lifetime of the object).
    pub(crate) coords: Point2,
    /// Close neighbours: objects within `d_min` (symmetric relation),
    /// ascending.
    pub(crate) close: Vec<ObjectId>,
    /// Long-range links (length = `config.long_links` once established).
    pub(crate) long: Vec<LongLink>,
    /// Back-long-range pointers: links of other objects whose target falls
    /// in this object's region.
    pub(crate) back_long: Vec<BackLink>,
    /// Position in the dense sampling order.
    dense_pos: u32,
}

impl NodeSlot {
    pub(crate) fn new(id: ObjectId, vertex: VertexId, coords: Point2) -> Self {
        NodeSlot {
            id,
            vertex,
            coords,
            close: Vec::new(),
            long: Vec::new(),
            back_long: Vec::new(),
            dense_pos: 0,
        }
    }

    /// Adds `id` to the close set (no-op when present).
    pub(crate) fn add_close(&mut self, id: ObjectId) {
        if let Err(pos) = self.close.binary_search(&id) {
            self.close.insert(pos, id);
        }
    }

    /// Drops `id` from the close set (no-op when absent).
    pub(crate) fn remove_close(&mut self, id: ObjectId) {
        if let Ok(pos) = self.close.binary_search(&id) {
            self.close.remove(pos);
        }
    }

    /// True when `id` is a close neighbour.
    pub(crate) fn is_close(&self, id: ObjectId) -> bool {
        self.close.binary_search(&id).is_ok()
    }

    /// The object this slot belongs to.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Attribute coordinates of the object.
    pub fn coords(&self) -> Point2 {
        self.coords
    }

    /// Triangulation vertex currently representing the object.
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// Close neighbours `cn(o)`, ascending.
    pub fn close(&self) -> &[ObjectId] {
        &self.close
    }

    /// Long-range links `LRn(o)`.
    pub fn long(&self) -> &[LongLink] {
        &self.long
    }

    /// Back-long-range pointers `BLRn(o)`.
    pub fn back_long(&self) -> &[BackLink] {
        &self.back_long
    }
}

/// Hasher of the `ObjectId → slot` map: one multiply by the 64-bit golden
/// ratio, with the product's high half folded into its low half so both
/// projections the table uses (low bits pick the bucket, top seven bits tag
/// the entry) are spread even when the live ids are strided.
///
/// Dropping SipHash's collision resistance is safe here because object ids
/// are allocated by the overlay itself (monotonically, from zero) and never
/// taken from a peer or the wire, and nothing iterates the map, so its order
/// cannot leak into results.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("an ObjectId hashes as a single u64");
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    generation: u32,
    node: Option<NodeSlot>,
}

/// Slab-style arena of per-node protocol state with an `ObjectId → index`
/// map and a dense sampling order.  See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct NodeArena {
    entries: Vec<Entry>,
    free: Vec<u32>,
    lookup: HashMap<ObjectId, u32, BuildHasherDefault<IdHasher>>,
    /// Dense list of live ids: push on join, swap-remove on departure.
    order: Vec<ObjectId>,
}

impl NodeArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the arena holds no node.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// True when `id` is a live node.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.lookup.contains_key(&id)
    }

    /// The generation-tagged index of a live node (`None` otherwise).
    pub fn index_of(&self, id: ObjectId) -> Option<NodeIndex> {
        let &idx = self.lookup.get(&id)?;
        Some(NodeIndex {
            idx,
            generation: self.entries[idx as usize].generation,
        })
    }

    /// The `pos`-th live node in dense sampling order (`pos < len()`).  The
    /// order is deterministic for a given operation sequence but changes on
    /// removals (swap-remove).
    pub fn id_at(&self, pos: usize) -> Option<ObjectId> {
        self.order.get(pos).copied()
    }

    /// Iterator over live ids in dense sampling order.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.order.iter().copied()
    }

    /// The dense sampling order as a slice — the order a
    /// [`crate::FrozenView`] mirrors, exposed so snapshot maintenance can
    /// assert its patched dense order stayed in lockstep.
    pub fn order(&self) -> &[ObjectId] {
        &self.order
    }

    /// Read access to a live node's slot.
    pub fn get(&self, id: ObjectId) -> Option<&NodeSlot> {
        let &idx = self.lookup.get(&id)?;
        self.entries[idx as usize].node.as_ref()
    }

    /// Read access through a generation-tagged index: `None` when the node
    /// departed (even if the slot was since recycled).
    pub fn get_at(&self, index: NodeIndex) -> Option<&NodeSlot> {
        let entry = self.entries.get(index.slot())?;
        if entry.generation != index.generation {
            return None;
        }
        entry.node.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut NodeSlot> {
        let &idx = self.lookup.get(&id)?;
        self.entries[idx as usize].node.as_mut()
    }

    /// Iterator over all live slots, in slot (allocation) order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeSlot> + '_ {
        self.entries.iter().filter_map(|e| e.node.as_ref())
    }

    /// Mutable form of [`NodeArena::iter`].
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut NodeSlot> + '_ {
        self.entries.iter_mut().filter_map(|e| e.node.as_mut())
    }

    /// Inserts a node, returning its generation-tagged index.
    ///
    /// # Panics
    /// Panics if `slot.id` is already live (object ids are never reused).
    pub(crate) fn insert(&mut self, mut slot: NodeSlot) -> NodeIndex {
        let id = slot.id;
        slot.dense_pos = self.order.len() as u32;
        self.order.push(id);
        let idx = match self.free.pop() {
            Some(idx) => {
                let entry = &mut self.entries[idx as usize];
                debug_assert!(entry.node.is_none());
                entry.node = Some(slot);
                idx
            }
            None => {
                self.entries.push(Entry {
                    generation: 0,
                    node: Some(slot),
                });
                (self.entries.len() - 1) as u32
            }
        };
        let previous = self.lookup.insert(id, idx);
        assert!(previous.is_none(), "object ids are never reused");
        NodeIndex {
            idx,
            generation: self.entries[idx as usize].generation,
        }
    }

    /// Removes a node, returning its state.  The slot's generation is bumped
    /// so outstanding [`NodeIndex`] handles go stale, and the dense order is
    /// patched by swap-remove.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<NodeSlot> {
        let idx = self.lookup.remove(&id)?;
        let entry = &mut self.entries[idx as usize];
        let slot = entry.node.take().expect("lookup entries are live");
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(idx);
        let pos = slot.dense_pos as usize;
        self.order.swap_remove(pos);
        if pos < self.order.len() {
            let moved = self.order[pos];
            let moved_idx = self.lookup[&moved] as usize;
            self.entries[moved_idx]
                .node
                .as_mut()
                .expect("dense order only holds live nodes")
                .dense_pos = pos as u32;
        }
        Some(slot)
    }
}

/// Where one vertex's row sits in the pool: `len` entries from `start`,
/// the first `fan` of them its Voronoi fan, in a footprint of `cap`
/// entries (those past `len` are slack).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
    fan: u32,
}

/// The part of a routing row a rewrite replaces; the other part is kept.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Part {
    /// The Voronoi fan, which only the tessellation changes.
    Fan,
    /// The close neighbours, then the long links, which only the object's
    /// own slot changes.
    Tail,
}

/// The live walk's routing rows, one per triangulation vertex, pooled in
/// one `Vec` (see the [module docs](self)).
///
/// A row is its fan followed by its tail, and a rewrite replaces one of the
/// two: a departure re-knits its neighbours' fans without touching their
/// links, so their rows are redrawn without one id lookup.  A row is
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
    fn span(&self, v: VertexId) -> Span {
        self.spans.get(v as usize).copied().unwrap_or_default()
    }

    /// The row of `v` (empty for a vertex no object holds).
    #[inline]
    pub(crate) fn of(&self, v: VertexId) -> &[VertexId] {
        let s = self.span(v);
        &self.pool[s.start as usize..(s.start + s.len) as usize]
    }

    /// The row of `v` split into its fan and its tail.
    pub(crate) fn parts(&self, v: VertexId) -> (&[VertexId], &[VertexId]) {
        self.of(v).split_at(self.span(v).fan as usize)
    }

    /// Replaces `part` of the row of `v` with what `fill` appends to an
    /// empty buffer.
    pub(crate) fn rewrite(
        &mut self,
        v: VertexId,
        part: Part,
        fill: impl FnOnce(&mut Vec<VertexId>),
    ) {
        let mut row = std::mem::take(&mut self.buf);
        row.clear();
        let (fan, tail) = self.parts(v);
        let fan = match part {
            Part::Fan => {
                fill(&mut row);
                let fan = row.len();
                row.extend_from_slice(tail);
                fan
            }
            Part::Tail => {
                row.extend_from_slice(fan);
                fill(&mut row);
                fan.len()
            }
        };
        self.store(v as usize, &row, fan as u32);
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
                pool.extend_from_slice(&self.pool[s.start as usize..(s.start + s.len) as usize]);
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
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn slot(id: u64) -> NodeSlot {
        NodeSlot::new(
            ObjectId(id),
            id as VertexId + 4,
            Point2::new(id as f64 * 0.01, 0.5),
        )
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut arena = NodeArena::new();
        assert!(arena.is_empty());
        let ia = arena.insert(slot(0));
        let ib = arena.insert(slot(1));
        assert_eq!(arena.len(), 2);
        assert!(arena.contains(ObjectId(0)));
        assert_eq!(arena.get(ObjectId(1)).unwrap().vertex(), 5);
        assert_eq!(arena.get_at(ia).unwrap().id(), ObjectId(0));
        assert_eq!(arena.index_of(ObjectId(1)), Some(ib));

        let removed = arena.remove(ObjectId(0)).unwrap();
        assert_eq!(removed.id(), ObjectId(0));
        assert!(!arena.contains(ObjectId(0)));
        assert!(arena.remove(ObjectId(0)).is_none());
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn stale_indices_never_alias_recycled_slots() {
        let mut arena = NodeArena::new();
        let ia = arena.insert(slot(0));
        arena.remove(ObjectId(0)).unwrap();
        assert!(arena.get_at(ia).is_none(), "index must die with its node");
        // The freed slot is recycled by the next insertion...
        let ib = arena.insert(slot(7));
        assert_eq!(ib.slot(), ia.slot());
        assert_ne!(ib.generation(), ia.generation());
        // ...and the stale index still resolves to nothing.
        assert!(arena.get_at(ia).is_none());
        assert_eq!(arena.get_at(ib).unwrap().id(), ObjectId(7));
    }

    #[test]
    fn dense_order_swap_removes_like_a_vec() {
        let mut arena = NodeArena::new();
        for i in 0..5 {
            arena.insert(slot(i));
        }
        // Mirror of the expected order bookkeeping.
        let mut mirror: Vec<u64> = (0..5).collect();
        for &victim in &[1u64, 4, 0] {
            let pos = mirror.iter().position(|&x| x == victim).unwrap();
            mirror.swap_remove(pos);
            arena.remove(ObjectId(victim)).unwrap();
            let got: Vec<u64> = arena.ids().map(|o| o.0).collect();
            assert_eq!(got, mirror);
            for (pos, &id) in mirror.iter().enumerate() {
                assert_eq!(arena.id_at(pos), Some(ObjectId(id)));
            }
        }
    }

    #[test]
    fn lookups_survive_churn_far_past_the_live_population() {
        // Ids are never reused, so under churn the id range outgrows the
        // population without bound; here it ends ≥ 64× wider.
        const LIVE: u64 = 96;
        let mut arena = NodeArena::new();
        let mut next = 0u64;
        while next < LIVE {
            arena.insert(slot(next));
            next += 1;
        }
        // Victims are drawn at random, so the survivors end up scattered
        // over the id range rather than contiguous.
        let mut rng = StdRng::seed_from_u64(0xA4E7A);
        while next < LIVE * 64 + 1000 {
            let victim = arena.id_at(rng.random_range(0..arena.len())).unwrap();
            arena.remove(victim).unwrap();
            arena.insert(slot(next));
            next += 1;
        }
        assert_eq!(arena.len() as u64, LIVE);
        let live: Vec<ObjectId> = arena.ids().collect();
        let span = live.iter().map(|id| id.0).max().unwrap() + 1;
        assert!(span >= 64 * LIVE);
        for (pos, &id) in live.iter().enumerate() {
            assert!(arena.contains(id));
            assert_eq!(arena.get(id).unwrap().id(), id);
            assert_eq!(arena.get(id).unwrap().dense_pos as usize, pos);
            let index = arena.index_of(id).unwrap();
            assert_eq!(arena.get_at(index).unwrap().id(), id);
        }
        for raw in 0..next + 10 {
            let id = ObjectId(raw);
            assert_eq!(arena.contains(id), live.contains(&id), "{id:?}");
            assert_eq!(arena.get(id).is_some(), live.contains(&id), "{id:?}");
        }
    }

    #[test]
    fn id_hasher_spreads_dense_and_strided_ids() {
        // The table reads two projections of a hash: the low bits select the
        // bucket and the top seven bits tag the entry.  Both must take at
        // least half of their possible values over the id sets the overlay
        // produces — a fresh population (dense ids) and a churned one
        // (survivors strided across a wide range) — so a bad multiplier or
        // fold fails here rather than in a wall-clock gate.
        fn hash(id: u64) -> u64 {
            BuildHasherDefault::<IdHasher>::default().hash_one(ObjectId(id))
        }
        let dense: Vec<u64> = (0..65_536).collect();
        let mut id_sets = vec![("dense", dense)];
        for stride in [2u64, 3, 64, 1000, 1 << 10, 1 << 16, 1 << 20] {
            let ids = (0..65_536).map(|i| 1_000_000 + i * stride).collect();
            id_sets.push(("strided", ids));
        }
        for (name, ids) in id_sets {
            let low: HashSet<u64> = ids.iter().map(|&id| hash(id) & 0xFFFF).collect();
            let top: HashSet<u64> = ids.iter().map(|&id| hash(id) >> 57).collect();
            let step = ids[1] - ids[0];
            assert!(low.len() >= 32_768, "{name} step {step}: {} low", low.len());
            assert!(top.len() >= 64, "{name} step {step}: {} top", top.len());
        }
    }

    #[test]
    fn iter_visits_every_live_slot_once() {
        let mut arena = NodeArena::new();
        for i in 0..10 {
            arena.insert(slot(i));
        }
        for i in (0..10).step_by(2) {
            arena.remove(ObjectId(i)).unwrap();
        }
        let mut seen: Vec<u64> = arena.iter().map(|s| s.id().0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);
    }
}
