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
//!
//! Each vertex owns one 64-byte slot, a cache line at an address computed
//! from its id: a header word (the row's length, a spilled flag and the
//! fan's length), then up to 15 entries.  Nearly every row fits — on
//! 50 000 uniform objects all but one do — so a hop waits on one load, with
//! no table to read first, before it scans.  A longer row *spills*: its slot holds the
//! row's place in a pool as full `u32`s, so no row length is capped.  The
//! slots live in 64 KiB pages, grown a page at a time and permuted in
//! place when the vertices are renumbered, so no slot block is ever copied
//! or freed (see [`RoutingRows`] for why that matters to resident memory).

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
        // The lists are not `Copy`: they are swapped along the
        // permutation's cycles, so no list is copied.  Free vertices hold
        // empty lists, which end up past the live ids and are dropped.
        self.back.resize_with(n, Vec::new);
        permute(map, |i, j| self.back.swap(i, j));
        self.back.truncate(self.id.len());
        for &o in &self.order {
            let v = &mut self.vertex[o.0 as usize];
            *v = map[*v as usize];
        }
    }
}

/// Entries a slot holds inline, after its header word.
const INLINE: usize = 15;

/// Slots per page: 1 024 slots of 64 bytes, 64 KiB.
const PAGE: usize = 1024;

/// The header bit of a slot whose row is spilled to the pool.
const SPILLED: u32 = 1 << 31;

/// The header bits of an inline row's length.
const LEN_MASK: u32 = 0xF;

/// Where an inline row's fan length sits in its header.
const FAN_SHIFT: u32 = 8;

/// One vertex's routing row in one cache line: a header word, then up to
/// [`INLINE`] entries.  An inline row's header packs its length and its fan
/// length (words past the length are stale); a spilled row's header is the
/// [`SPILLED`] flag alone, and words 1–4 hold its [`Spill`].
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Slot([u32; 16]);

/// Where a spilled row sits in the pool: `len` entries from `start`, the
/// first `fan` of them its Voronoi fan, in a footprint of `cap` entries
/// (those past `len` are slack).  Each is a full `u32`, so no row length is
/// capped: a centre point inside a ring of more than 65 535 points has a
/// fan that long.
#[derive(Debug, Clone, Copy)]
struct Spill {
    start: u32,
    cap: u32,
    len: u32,
    fan: u32,
}

impl Slot {
    const EMPTY: Slot = Slot([0; 16]);

    fn spilled(s: Spill) -> Slot {
        let mut slot = Slot::EMPTY;
        slot.0[..5].copy_from_slice(&[SPILLED, s.start, s.cap, s.len, s.fan]);
        slot
    }

    /// Where the row sits in the pool, `None` for an inline row.
    #[inline]
    fn spill(&self) -> Option<Spill> {
        let [header, start, cap, len, fan, ..] = self.0;
        (header & SPILLED != 0).then_some(Spill {
            start,
            cap,
            len,
            fan,
        })
    }

    /// The length of the row's fan.
    fn fan(&self) -> usize {
        match self.spill() {
            Some(s) => s.fan as usize,
            None => (self.0[0] >> FAN_SHIFT) as usize,
        }
    }
}

/// [`PAGE`] slots, vertex `v`'s at index `v % PAGE` of page `v / PAGE`.
type Page = Box<[Slot; PAGE]>;

fn page() -> Page {
    vec![Slot::EMPTY; PAGE]
        .into_boxed_slice()
        .try_into()
        .expect("a page holds PAGE slots")
}

/// The live walk's routing rows: one 64-byte slot per triangulation
/// vertex, at an address computed from the vertex id (see the
/// [module docs](self)).
///
/// A row is its fan followed by its tail, the close set then the long
/// links.  A departure re-knits its neighbours' fans without touching
/// their tails; a close pair or a long link patches one tail.  A row of up
/// to [`INLINE`] entries sits in its slot, so a hop reads one cache line.
/// A longer row *spills*: its slot names its footprint in a shared pool.
/// A spilled row is rewritten in place when it fits its footprint; one
/// that outgrows it moves to the end of the pool with one entry of slack,
/// and its old footprint turns dead, as does the footprint of a row that
/// shrinks back into its slot or is cleared.  When the pool is full and at
/// least an eighth of it is dead, it is compacted to exact row sizes
/// first, so it grows only when it is mostly live.
///
/// The slots live in pages of [`PAGE`] slots (64 KiB).  The rows grow a
/// page at a time, and a renumbering permutes the slots in place, so no
/// slot block is ever copied into a larger one or freed.  That matters
/// under glibc: freeing a memory-mapped block larger than the mmap
/// threshold raises the threshold to that block's size, later blocks below
/// it come from the heap, and the heap fragments across rebuilds.  One
/// flat slot array renumbered through a copy raised the benchmark's
/// `peak_rss_mb` on 50 000 uniform objects by 41 %, of which the slots
/// themselves were 1–2 MB.
#[derive(Debug, Default)]
pub(crate) struct RoutingRows {
    pages: Vec<Page>,
    /// The spilled rows' entries.
    pool: Vec<VertexId>,
    /// Pool entries outside every footprint.
    dead: usize,
    /// The buffer a row is assembled in, kept for its capacity.
    buf: Vec<VertexId>,
}

impl RoutingRows {
    #[inline]
    fn slot(&self, v: VertexId) -> Option<&Slot> {
        let v = v as usize;
        self.pages.get(v / PAGE).map(|page| &page[v % PAGE])
    }

    /// The slot of vertex `v`, the pages grown to hold it.
    fn slot_mut(&mut self, v: usize) -> &mut Slot {
        while self.pages.len() <= v / PAGE {
            self.pages.push(page());
        }
        &mut self.pages[v / PAGE][v % PAGE]
    }

    fn slots(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.pages.iter().flat_map(|page| page.iter())
    }

    #[inline]
    fn row<'a>(&'a self, slot: &'a Slot) -> &'a [VertexId] {
        match slot.spill() {
            None => &slot.0[1..=(slot.0[0] & LEN_MASK) as usize],
            Some(s) => &self.pool[s.start as usize..(s.start + s.len) as usize],
        }
    }

    /// The row of `v` (empty for a vertex no object holds).
    #[inline]
    pub(crate) fn of(&self, v: VertexId) -> &[VertexId] {
        self.slot(v).map_or(&[], |slot| self.row(slot))
    }

    /// The row of `v` split into its fan and its tail.
    pub(crate) fn parts(&self, v: VertexId) -> (&[VertexId], &[VertexId]) {
        self.slot(v)
            .map_or((&[], &[]), |slot| self.row(slot).split_at(slot.fan()))
    }

    /// Replaces the fan of the row of `v` with what `fill` appends to an
    /// empty buffer; the tail is kept.
    pub(crate) fn rewrite_fan(&mut self, v: VertexId, fill: impl FnOnce(&mut Vec<VertexId>)) {
        let mut row = std::mem::take(&mut self.buf);
        row.clear();
        fill(&mut row);
        let fan = row.len();
        row.extend_from_slice(self.parts(v).1);
        self.store(v, &row, fan);
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
        let fan = fan.len();
        self.store(v, &row, fan);
        self.buf = row;
    }

    /// Empties the row of `v`, whose object left.
    pub(crate) fn clear(&mut self, v: VertexId) {
        let v = v as usize;
        if let Some(page) = self.pages.get_mut(v / PAGE) {
            if let Some(s) = page[v % PAGE].spill() {
                self.dead += s.cap as usize;
            }
            page[v % PAGE] = Slot::EMPTY;
        }
    }

    /// Makes `row`, whose first `fan` entries are its fan, the row of `v`:
    /// in place when it fits its spilled footprint, else in its slot when it
    /// fits there, else at the end of the pool.
    fn store(&mut self, v: VertexId, row: &[VertexId], fan: usize) {
        let v = v as usize;
        let len = row.len();
        if let Some(s) = self.slot_mut(v).spill() {
            if len > INLINE && len <= s.cap as usize {
                self.pool[s.start as usize..][..len].copy_from_slice(row);
                *self.slot_mut(v) = Slot::spilled(Spill {
                    len: len as u32,
                    fan: fan as u32,
                    ..s
                });
                return;
            }
            // Emptied first, so a compaction drops the footprint.
            self.dead += s.cap as usize;
            *self.slot_mut(v) = Slot::EMPTY;
        }
        if len <= INLINE {
            let slot = self.slot_mut(v);
            slot.0[0] = len as u32 | (fan as u32) << FAN_SHIFT;
            slot.0[1..=len].copy_from_slice(row);
        } else {
            let slot = self.append(row, fan);
            *self.slot_mut(v) = slot;
        }
    }

    /// Appends a spilled row to the pool with one entry of slack, and
    /// returns its slot.  A full pool at least an eighth dead is compacted
    /// first.
    fn append(&mut self, row: &[VertexId], fan: usize) -> Slot {
        let cap = row.len() + 1;
        if self.pool.len() + cap > self.pool.capacity() && self.dead * 8 >= self.pool.len() {
            let mut pool = Vec::with_capacity(self.pool.capacity());
            repack(&mut self.pages, &self.pool, &mut pool, 0, |u| u);
            self.pool = pool;
            self.dead = 0;
        }
        let start = self.pool.len() as u32;
        self.pool.extend_from_slice(row);
        self.pool.push(VertexId::MAX);
        Slot::spilled(Spill {
            start,
            cap: cap as u32,
            len: row.len() as u32,
            fan: fan as u32,
        })
    }

    /// Moves every row to its vertex's new id under `map` (see
    /// `Triangulation::renumber`) and rewrites its entries.  The slots are
    /// permuted in place and inline entries rewritten where they are; the
    /// spilled rows are laid into a fresh pool in the new vertex order,
    /// each footprint with the one entry of slack a moved row gets, so a
    /// fan that grows by one is rewritten in place.
    pub(crate) fn renumber(&mut self, map: &[VertexId]) {
        let Some(last) = map.len().checked_sub(1) else {
            return;
        };
        self.slot_mut(last); // every old id gets a slot to swap
        let pages = &mut self.pages;
        permute(map, |i, j| {
            let moved = pages[i / PAGE][i % PAGE];
            pages[i / PAGE][i % PAGE] = pages[j / PAGE][j % PAGE];
            pages[j / PAGE][j % PAGE] = moved;
        });
        let mut spilled = 0;
        for slot in self.pages.iter_mut().flat_map(|page| page.iter_mut()) {
            match slot.spill() {
                Some(s) => spilled += s.len as usize + 1,
                None => {
                    let len = (slot.0[0] & LEN_MASK) as usize;
                    for u in &mut slot.0[1..=len] {
                        *u = map[*u as usize];
                    }
                }
            }
        }
        let mut pool = Vec::with_capacity(spilled);
        repack(&mut self.pages, &self.pool, &mut pool, 1, |u| {
            map[u as usize]
        });
        self.pool = pool;
        self.dead = 0;
    }

    /// Vertices with a non-empty row.
    pub(crate) fn non_empty(&self) -> impl Iterator<Item = VertexId> + '_ {
        (self.slots().enumerate())
            .filter(|(_, slot)| slot.0[0] != 0)
            .map(|(v, _)| v as VertexId)
    }

    /// How many rows are spilled to the pool.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> usize {
        self.slots().filter(|slot| slot.spill().is_some()).count()
    }
}

/// Copies every spilled row of `pages`, in vertex order, from `from` to the
/// end of `to` with its entries passed through `entry`, each in a footprint
/// of its length plus `slack`, and points its slot there.
fn repack(
    pages: &mut [Page],
    from: &[VertexId],
    to: &mut Vec<VertexId>,
    slack: u32,
    entry: impl Fn(VertexId) -> VertexId,
) {
    for slot in pages.iter_mut().flat_map(|page| page.iter_mut()) {
        if let Some(s) = slot.spill() {
            let start = to.len() as u32;
            let row = &from[s.start as usize..(s.start + s.len) as usize];
            to.extend(row.iter().map(|&u| entry(u)));
            to.resize(to.len() + slack as usize, VertexId::MAX);
            *slot = Slot::spilled(Spill {
                start,
                cap: s.len + slack,
                ..s
            });
        }
    }
}

impl Clone for RoutingRows {
    /// The copy's pool is compacted: a plain copy of a pool that had just
    /// filled would compact at its first moved row, and a benchmark or a
    /// test that mutates clones would pay that O(pool) pass every time.
    fn clone(&self) -> Self {
        let mut pages = self.pages.clone();
        let mut pool = Vec::with_capacity(self.pool.len() - self.dead);
        repack(&mut pages, &self.pool, &mut pool, 0, |u| u);
        RoutingRows {
            pages,
            pool,
            dead: 0,
            buf: Vec::new(),
        }
    }
}

/// Applies the renumbering `map` to a vertex-keyed sequence in place, by
/// following the permutation's cycles with `swap(i, j)`, so nothing is
/// copied: afterwards position `map[i]` holds what position `i` held, and
/// the positions past the live ids hold what the free vertices held.
fn permute(map: &[VertexId], mut swap: impl FnMut(usize, usize)) {
    let mut dest = map.to_vec();
    for i in 0..dest.len() {
        loop {
            let j = dest[i];
            if j == NO_VERTEX || j as usize == i {
                break;
            }
            swap(i, j as usize);
            dest.swap(i, j as usize);
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

    /// The rows' naive model: per vertex, its entries and its fan length,
    /// or `None` for a free vertex.
    type Model = Vec<Option<(Vec<VertexId>, usize)>>;

    /// Every row read three ways — `of` (which the batched walk's lanes
    /// read too), `parts` and `non_empty` — equals the model; a row is in
    /// its slot exactly when it fits there; every pool entry lies in one
    /// live footprint or is counted dead.
    fn check_rows(rows: &RoutingRows, model: &Model) {
        let mut footprints = 0;
        for (v, row) in model.iter().enumerate() {
            let v = v as VertexId;
            let (entries, fan) = row.as_ref().map_or((&[][..], 0), |(e, f)| (&e[..], *f));
            assert_eq!(rows.of(v), entries, "row of {v}");
            assert_eq!(rows.parts(v), entries.split_at(fan), "parts of {v}");
            let spill = rows.slot(v).and_then(Slot::spill);
            assert_eq!(spill.is_some(), entries.len() > INLINE, "slot of {v}");
            footprints += spill.map_or(0, |s| s.cap as usize);
        }
        assert_eq!(footprints + rows.dead, rows.pool.len());
        let non_empty: Vec<VertexId> = (model.iter().enumerate())
            .filter(|(_, row)| row.as_ref().is_some_and(|(e, _)| !e.is_empty()))
            .map(|(v, _)| v as VertexId)
            .collect();
        assert_eq!(rows.non_empty().collect::<Vec<_>>(), non_empty);
        assert!(rows
            .of(model.len() as VertexId + 3 * PAGE as VertexId)
            .is_empty());
    }

    /// The cases [`rows_follow_a_naive_model`] must reach, each counted.
    #[derive(Debug, Default)]
    struct Reached {
        spilled_by_growth: usize,
        inlined_by_shrinking: usize,
        rewritten_in_place: usize,
        outgrew_footprint: usize,
        compactions: usize,
        spilled_row_cleared: usize,
        renumbered_with_free_and_spilled: usize,
        past_a_page_boundary: usize,
        row_of_70_000: usize,
    }

    /// Seeded random fan rewrites, tail splices, clears, departures, joins,
    /// renumberings and clones against [`Model`], checked after every
    /// step.  Row entries name *anchor* vertices, which never leave; the
    /// rows written are those of *hot* vertices, which may.
    #[test]
    fn rows_follow_a_naive_model() {
        let mut rng = StdRng::seed_from_u64(0x5107);
        let mut rows = RoutingRows::default();
        let mut model: Model = vec![Some((Vec::new(), 0)); 1_100];
        let mut hot: Vec<VertexId> = (0..32).chain(1_060..1_092).collect();
        let mut anchors: Vec<VertexId> = (32..1_060).collect();
        let mut reached = Reached::default();
        for step in 0..6_000 {
            let pick = |rng: &mut StdRng, n: usize| -> Vec<VertexId> {
                (0..n)
                    .map(|_| anchors[rng.random_range(0..anchors.len())])
                    .collect()
            };
            let v = hot[rng.random_range(0..hot.len())];
            let before = rows.slot(v).and_then(Slot::spill);
            let (old_len, dead) = (rows.of(v).len(), rows.dead);
            let mut patched = true;
            match (step, rng.random_range(0..100u32)) {
                (3_000, _) => {
                    let fan = pick(&mut rng, 70_000);
                    rows.rewrite_fan(v, |row| row.extend_from_slice(&fan));
                    let (row, f) = model[v as usize].as_mut().unwrap();
                    row.splice(..*f, fan);
                    *f = 70_000;
                    reached.row_of_70_000 += 1;
                }
                (_, 0..=29) => {
                    let n = rng.random_range(0..=12usize);
                    let fan = pick(&mut rng, n);
                    rows.rewrite_fan(v, |row| row.extend_from_slice(&fan));
                    let (row, f) = model[v as usize].as_mut().unwrap();
                    let len = fan.len();
                    row.splice(..*f, fan);
                    *f = len;
                }
                (_, 30..=89) => {
                    let (row, f) = model[v as usize].as_mut().unwrap();
                    let tail = row.len() - *f;
                    let at = rng.random_range(0..=tail);
                    let remove = rng.random_range(0..=(tail - at).min(4));
                    let n = rng.random_range(0..=4usize);
                    let insert = pick(&mut rng, n);
                    rows.splice_tail(v, at, remove, insert.iter().copied());
                    row.splice(*f + at..*f + at + remove, insert);
                }
                (_, 90..=93) => {
                    patched = false;
                    rows.clear(v);
                    if before.is_some() {
                        assert!(rows.dead > dead, "a cleared footprint turns dead");
                        reached.spilled_row_cleared += 1;
                    }
                    if rng.random_range(0..4u32) == 0 {
                        model[v as usize] = None;
                        hot.retain(|&u| u != v);
                    } else {
                        model[v as usize] = Some((Vec::new(), 0));
                    }
                }
                (_, 94..=95) => {
                    patched = false;
                    hot.push(model.len() as VertexId);
                    model.push(Some((Vec::new(), 0)));
                }
                (_, 96..=97) => {
                    patched = false;
                    let mut order: Vec<usize> = (0..model.len()).collect();
                    order.retain(|&u| model[u].is_some());
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.random_range(0..=i));
                    }
                    let mut map = vec![NO_VERTEX; model.len()];
                    for (new, &old) in order.iter().enumerate() {
                        map[old] = new as VertexId;
                    }
                    if order.len() < model.len() && rows.spilled() > 0 {
                        reached.renumbered_with_free_and_spilled += 1;
                    }
                    rows.renumber(&map);
                    let mut moved: Model = vec![None; order.len()];
                    for (old, row) in model.into_iter().enumerate() {
                        if let Some((mut row, f)) = row {
                            row.iter_mut().for_each(|u| *u = map[*u as usize]);
                            moved[map[old] as usize] = Some((row, f));
                        }
                    }
                    model = moved;
                    hot.iter_mut().for_each(|u| *u = map[*u as usize]);
                    anchors.iter_mut().for_each(|u| *u = map[*u as usize]);
                }
                _ => {
                    patched = false;
                    rows = rows.clone();
                }
            }
            check_rows(&rows, &model);
            if !patched {
                continue;
            }
            let after = rows.slot(v).and_then(Slot::spill);
            let new_len = rows.of(v).len();
            reached.spilled_by_growth += usize::from(old_len <= INLINE && new_len > INLINE);
            reached.inlined_by_shrinking += usize::from(old_len > INLINE && new_len <= INLINE);
            if let (Some(b), Some(a)) = (before, after) {
                if a.start == b.start {
                    reached.rewritten_in_place += 1;
                } else if new_len > b.cap as usize {
                    reached.outgrew_footprint += 1;
                }
            }
            reached.compactions += usize::from(rows.dead < dead);
            reached.past_a_page_boundary += usize::from(v as usize >= PAGE && new_len > 0);
            if new_len >= 70_000 {
                rows.clear(v);
                model[v as usize] = Some((Vec::new(), 0));
                check_rows(&rows, &model);
            }
        }
        println!("{reached:?}");
        let Reached {
            spilled_by_growth,
            inlined_by_shrinking,
            rewritten_in_place,
            outgrew_footprint,
            compactions,
            spilled_row_cleared,
            renumbered_with_free_and_spilled,
            past_a_page_boundary,
            row_of_70_000,
        } = reached;
        for (case, count) in [
            ("15 → 16 entries", spilled_by_growth),
            ("16 → 15 entries", inlined_by_shrinking),
            ("a spilled row rewritten in place", rewritten_in_place),
            ("a spilled row outgrowing its footprint", outgrew_footprint),
            ("a compaction", compactions),
            ("a spilled row cleared", spilled_row_cleared),
            (
                "a renumbering with free vertices and spilled rows",
                renumbered_with_free_and_spilled,
            ),
            ("a row past a page boundary", past_a_page_boundary),
            ("a row of 70 000 entries", row_of_70_000),
        ] {
            assert!(count > 0, "never reached: {case}");
        }
    }
}
