//! The reference snapshot of the routing state, and the change journal.
//!
//! The overlay's read operations (greedy routes, point queries, area
//! queries) never change routing state; the only side effect they have is
//! *message accounting*.  This module splits that accounting out so every
//! read runs on `&self`:
//!
//! * [`TrafficDelta`] — the messages a read operation *would* send,
//!   counted per kind instead of applied.  A caller adds the delta to the
//!   overlay afterwards ([`crate::VoroNet::apply_traffic`]) and ends up
//!   with bit-identical [`voronet_sim::TrafficStats`].
//! * [`RouteScratch`] — the caller-owned buffers (path, delta, flood
//!   work-lists) every `_in`-suffixed read operation computes into, so a
//!   warmed-up scratch makes routes and point queries allocation-free.
//!
//! Every engine routes over the overlay's live routing rows
//! ([`crate::VoroNet::route_to_point_in`]).  Beside them this module keeps
//! a second, independently derived representation of the same topology:
//!
//! * [`FrozenView`] — an immutable structure-of-arrays snapshot: ids and
//!   coordinates in flat arrays and the full routing adjacency (Voronoi +
//!   close + long neighbours) flattened into one pooled row per node.  Its
//!   fan segment is walked on the tessellation and its link segment read
//!   from the link column, so a route over a `FrozenView` that agrees with
//!   the live walk cross-checks the maintenance of those two segments.
//!   Its close segment is read from the live rows (the close sets are
//!   stored nowhere else), so it checks nothing there: the close sets'
//!   only independent referee is [`crate::VoroNet::audit_invariants`],
//!   which recomputes them from the points on a `d_min` grid.  The
//!   testkit's differential oracle and the benchmark's probes use it.
//! * [`ChangeLog`] — the per-mutation record of which Voronoi
//!   neighbourhoods an insert, remove or link change touched.  It is what
//!   makes [`crate::VoroNet::touched_since`] (and so a cluster's view
//!   pushes) O(changed).
//!
//! A `FrozenView` describes the overlay state at one **snapshot epoch**
//! ([`crate::VoroNet::snapshot_epoch`], bumped on every topology
//! mutation).  It does not have to be thrown away when the overlay moves
//! on: [`FrozenView::refresh`] replays the [`ChangeLog`] and patches the
//! SoA arrays and the pooled adjacency in O(affected neighbourhoods)
//! instead of rebuilding in O(n), falling back to a full rebuild only when
//! the log window no longer covers the view or the touched set approaches
//! the population.  A patched view is **bit-identical** (ids, coordinates,
//! adjacency in live scan order) to a from-scratch [`VoroNet::freeze`] at
//! the same epoch.  Routing over a `FrozenView` takes, hop for hop,
//! exactly the decisions of [`crate::VoroNet::route_to_point_in`] on the
//! overlay state of the view's epoch: the adjacency lists preserve the
//! live scan order (Voronoi fan order, then close neighbours, then long
//! links) and both walks pick the next hop with
//! [`voronet_geom::greedy_next`], so owners, hop counts, paths and
//! recorded messages are bit-identical.

use crate::error::VoronetError;
use crate::object::{ObjectId, ViewRef};
use crate::overlay::VoroNet;
use std::collections::VecDeque;
use voronet_geom::{greedy_descent, Point2};
use voronet_sim::{MessageKind, TrafficStats};

/// The protocol messages a side-effect-free read operation would have
/// sent, counted per [`MessageKind`].
///
/// Read operations (`route_to_point_in`, the `*_query_in` floods) add
/// their counts to the delta instead of touching the overlay's counters —
/// a route adds its hop count once, a flood its message count once — and
/// the caller applies it afterwards with [`VoroNet::apply_traffic`].
/// Applying produces exactly the counters the `&mut self` operations
/// produce inline.  A delta is a fixed array of counts: it never
/// allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficDelta(pub(crate) TrafficStats);

impl TrafficDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` messages of `kind`.
    #[inline]
    pub fn add(&mut self, kind: MessageKind, n: u64) {
        self.0.add(kind, n);
    }

    /// Number of recorded messages.
    pub fn len(&self) -> usize {
        self.0.total() as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.total() == 0
    }

    /// Forgets every recorded count.
    pub fn clear(&mut self) {
        self.0.reset();
    }
}

/// Caller-owned working memory for the `&self` read path.
///
/// Holds the route path buffer, the pending [`TrafficDelta`], the results
/// of a batch of walks and the work-lists of the area-query floods.  Reusing one scratch across calls
/// makes greedy routes and point queries allocation-free once the buffers
/// have warmed up (pinned by the counting-allocator test in
/// `tests/route_alloc.rs`).
///
/// The read operations **clear** `path` (it describes the last route) but
/// **add** their counts to `delta`, so one scratch can total the accounting
/// of a whole run of operations before a single
/// [`VoroNet::apply_traffic`] call; clear the delta once it has been
/// applied.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    /// Objects traversed by the last route (source first, owner last).
    pub path: Vec<ObjectId>,
    /// Message counts of every read operation since the last clear.
    pub delta: TrafficDelta,
    /// One result per job of the last [`VoroNet::route_batch_in`].
    pub(crate) routed: Vec<Result<(ObjectId, u32), VoronetError>>,
    pub(crate) visited: std::collections::HashSet<ObjectId>,
    pub(crate) frontier: Vec<ObjectId>,
    pub(crate) neighbours: Vec<ObjectId>,
}

impl RouteScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Structure-of-arrays snapshot of the routing topology at one snapshot
/// epoch (see the [module docs](self)).
///
/// Nodes are addressed by *dense index* — the overlay's dense sampling
/// order at the view's epoch — with O(1) translation from [`ObjectId`]s.
/// Coordinates live in flat `xs`/`ys` arrays and the complete greedy
/// neighbourhood of each node (Voronoi fan, close neighbours, long links,
/// in the live path's scan order) is one contiguous slice of dense
/// indices in a shared pool, so a greedy hop reads two offset words and a
/// handful of contiguous array entries.
///
/// The pool is CSR-shaped but patchable: each node carries an explicit
/// `(start, len)` row descriptor instead of sharing offsets with its
/// successor, so [`FrozenView::refresh`] can rewrite just the rows an
/// overlay mutation dirtied (appending when a row grows, tombstoning the
/// old footprint) and compact the pool once the garbage outweighs the
/// live entries.  Two views are [`PartialEq`]-equal when their ids,
/// coordinates and per-node adjacency rows agree — pool layout and epoch
/// are not observable.
#[derive(Debug, Clone)]
pub struct FrozenView {
    /// Snapshot epoch of the overlay state this view describes.
    epoch: u64,
    /// Dense index → object id.
    ids: Vec<ObjectId>,
    /// Object id → dense index.
    id_to_dense: IdIndex,
    /// Dense index → x coordinate.
    xs: Vec<f64>,
    /// Dense index → y coordinate.
    ys: Vec<f64>,
    /// Dense index → start of its adjacency row in `adj`.
    adj_start: Vec<u32>,
    /// Dense index → length of its adjacency row.
    adj_len: Vec<u32>,
    /// Pooled routing adjacency rows, as dense indices.
    adj: Vec<u32>,
    /// Tombstoned pool entries left behind by patched rows.
    dead: u32,
}

impl PartialEq for FrozenView {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.xs == other.xs
            && self.ys == other.ys
            && (0..self.ids.len())
                .all(|d| self.neighbours_of(d as u32) == other.neighbours_of(d as u32))
    }
}

/// Object-id → dense-index translation.  Object ids are allocated
/// monotonically and never reused, so under sustained churn the raw id
/// range can grow far beyond the live population; a flat table indexed by
/// `id - min_live_id` is only used while that range stays within a small
/// factor of the population, with a hash map as the fallback so a freeze
/// never allocates more than O(population).
#[derive(Debug, Clone)]
enum IdIndex {
    /// `table[id.0 - base]` is the dense index (`u32::MAX` = dead).
    Flat { base: u64, table: Vec<u32> },
    /// Sparse fallback for id ranges much wider than the population.
    Map(std::collections::HashMap<ObjectId, u32>),
}

impl IdIndex {
    /// The id range may exceed the population by at most this factor
    /// before the flat table is abandoned for the hash map.
    const MAX_SPREAD: usize = 8;

    fn build(ids: &[ObjectId]) -> IdIndex {
        let Some(base) = ids.iter().map(|id| id.0).min() else {
            return IdIndex::Flat {
                base: 0,
                table: Vec::new(),
            };
        };
        let max = ids.iter().map(|id| id.0).max().expect("non-empty");
        let span = (max - base) as usize + 1;
        if span <= ids.len().saturating_mul(Self::MAX_SPREAD) + 64 {
            let mut table = vec![u32::MAX; span];
            for (dense, id) in ids.iter().enumerate() {
                table[(id.0 - base) as usize] = dense as u32;
            }
            IdIndex::Flat { base, table }
        } else {
            IdIndex::Map(
                ids.iter()
                    .enumerate()
                    .map(|(dense, &id)| (id, dense as u32))
                    .collect(),
            )
        }
    }

    #[inline]
    fn get(&self, id: ObjectId) -> Option<u32> {
        match self {
            IdIndex::Flat { base, table } => match id.0.checked_sub(*base) {
                Some(off) => match table.get(off as usize) {
                    Some(&d) if d != u32::MAX => Some(d),
                    _ => None,
                },
                None => None,
            },
            IdIndex::Map(map) => map.get(&id).copied(),
        }
    }

    /// Maps `id` to `dense`, growing the flat table as needed (object ids
    /// are monotonic, so new ids always extend the table's high end).
    fn set(&mut self, id: ObjectId, dense: u32) {
        match self {
            IdIndex::Flat { base, table } => {
                let Some(off) = id.0.checked_sub(*base) else {
                    // Ids below the base cannot appear for *new* inserts
                    // (ids are monotonic); fall back defensively anyway.
                    self.demote();
                    self.set(id, dense);
                    return;
                };
                let off = off as usize;
                if off >= table.len() {
                    table.resize(off + 1, u32::MAX);
                }
                table[off] = dense;
            }
            IdIndex::Map(map) => {
                map.insert(id, dense);
            }
        }
    }

    /// Unmaps `id`; it must be present.
    fn remove(&mut self, id: ObjectId) {
        match self {
            IdIndex::Flat { base, table } => {
                table[(id.0 - *base) as usize] = u32::MAX;
            }
            IdIndex::Map(map) => {
                map.remove(&id);
            }
        }
    }

    /// Converts a flat table to the sparse map.
    fn demote(&mut self) {
        if let IdIndex::Flat { base, table } = self {
            let map = table
                .iter()
                .enumerate()
                .filter(|(_, &d)| d != u32::MAX)
                .map(|(off, &d)| (ObjectId(*base + off as u64), d))
                .collect();
            *self = IdIndex::Map(map);
        }
    }

    /// Demotes the flat table once churn has spread the id range beyond
    /// the same bound `build` uses — a patched index never holds more
    /// memory than a freshly built one would accept.
    fn maybe_demote(&mut self, live: usize) {
        if let IdIndex::Flat { table, .. } = self {
            if table.len() > live.saturating_mul(Self::MAX_SPREAD) + 64 {
                self.demote();
            }
        }
    }
}

impl FrozenView {
    /// Freezes the routing state of `net` at its current snapshot epoch.
    /// O(n + edges); the snapshot is `Sync`, and [`FrozenView::refresh`]
    /// brings it forward after overlay mutations.
    pub fn new(net: &VoroNet) -> Self {
        let n = net.len();
        let view = |id| net.view_ref(id).expect("dense order holds live nodes");
        let mut ids = Vec::with_capacity(n);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for id in net.ids() {
            let p = view(id).coords();
            ids.push(id);
            xs.push(p.x);
            ys.push(p.y);
        }
        let id_to_dense = IdIndex::build(&ids);

        let mut adj_start = Vec::with_capacity(n);
        let mut adj_len = Vec::with_capacity(n);
        let mut adj = Vec::new();
        for &id in &ids {
            let start = adj.len();
            push_row(view(id), &id_to_dense, &mut adj);
            adj_start.push(start as u32);
            adj_len.push((adj.len() - start) as u32);
        }
        FrozenView {
            epoch: net.snapshot_epoch(),
            ids,
            id_to_dense,
            xs,
            ys,
            adj_start,
            adj_len,
            adj,
            dead: 0,
        }
    }

    /// Snapshot epoch of the overlay state this view describes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Brings the view forward to `net`'s current snapshot epoch.
    ///
    /// When the overlay's [`ChangeLog`] still covers this view's epoch
    /// and the dirtied neighbourhoods are small against the population,
    /// the view is *patched*: membership changes are replayed onto the
    /// SoA arrays (swap-remove, exactly like the overlay's dense order) and
    /// only the adjacency rows of dirtied nodes are rebuilt, in
    /// O(affected neighbourhoods).  Otherwise the view is rebuilt from
    /// scratch.  Either way the result is bit-identical to
    /// [`VoroNet::freeze`] at the same epoch.
    pub fn refresh(&mut self, net: &VoroNet) -> ViewRefresh {
        let target = net.snapshot_epoch();
        if self.epoch == target {
            return ViewRefresh::Current;
        }
        // Size the patch first: if the log window no longer reaches back
        // to this view's epoch, or the dirtied set approaches the
        // population, a from-scratch rebuild is cheaper.
        let mut touched = 0usize;
        let covered = match net.change_log().range(self.epoch, target) {
            None => false,
            Some(records) => {
                for rec in records {
                    touched += rec.dirty().len() + 1;
                }
                true
            }
        };
        if !covered || touched * 2 >= net.len().max(16) {
            *self = FrozenView::new(net);
            return ViewRefresh::Rebuilt;
        }
        let records = net
            .change_log()
            .range(self.epoch, target)
            .expect("coverage checked above");

        // Pass 1: replay membership changes in log order.  Removes mirror
        // the overlay's swap-remove, so dense order tracks the live scan
        // order exactly; nodes swapped into a freed slot are remembered,
        // because every row that referenced their old dense index must be
        // rewritten even if the log never dirtied it.
        let mut dirty: std::collections::HashSet<ObjectId> = std::collections::HashSet::new();
        let mut moved: Vec<ObjectId> = Vec::new();
        let mut applied = 0usize;
        for rec in records {
            applied += 1;
            dirty.extend(rec.dirty().iter().copied());
            match *rec {
                ChangeRecord::Insert { id, x, y, .. } => {
                    let dense = self.ids.len() as u32;
                    self.ids.push(id);
                    self.xs.push(x);
                    self.ys.push(y);
                    self.adj_start.push(self.adj.len() as u32);
                    self.adj_len.push(0);
                    self.id_to_dense.set(id, dense);
                    dirty.insert(id);
                }
                ChangeRecord::Remove { id, .. } => {
                    let pos = self
                        .id_to_dense
                        .get(id)
                        .expect("log-consistent views hold every removed id")
                        as usize;
                    self.dead += self.adj_len[pos];
                    self.id_to_dense.remove(id);
                    self.ids.swap_remove(pos);
                    self.xs.swap_remove(pos);
                    self.ys.swap_remove(pos);
                    self.adj_start.swap_remove(pos);
                    self.adj_len.swap_remove(pos);
                    if pos < self.ids.len() {
                        let moved_id = self.ids[pos];
                        self.id_to_dense.set(moved_id, pos as u32);
                        moved.push(moved_id);
                    }
                }
                ChangeRecord::Mutate { .. } => {}
            }
        }

        // Pass 2: a swapped node's dense index changed, so every row that
        // scans it — its Voronoi fan, close neighbours, and the sources
        // of its back-long pointers (the mirror of long links *to* it) —
        // is stale.  All of that is in the moved node's own view.
        for id in moved {
            // The node may itself have been removed by a later record.
            let Ok(view) = net.view_ref(id) else { continue };
            dirty.insert(id);
            dirty.extend(view.voronoi_neighbours());
            dirty.extend(view.close_neighbours());
            for bl in view.back_long_links() {
                dirty.insert(bl.source);
            }
        }

        // Pass 3: rebuild the adjacency rows of every dirty node still
        // live, in the exact scan order a fresh freeze would emit.
        // Sorted for run-to-run determinism of the pool layout.
        let mut dirty: Vec<ObjectId> = dirty.into_iter().collect();
        dirty.sort_unstable();
        let mut row: Vec<u32> = Vec::new();
        let mut patched = 0usize;
        for id in dirty {
            // Membership in the patched view now matches the live net, so
            // ids dirtied and later removed simply drop out here.
            let Some(dense) = self.id_to_dense.get(id) else {
                continue;
            };
            let view = net.view_ref(id).expect("view membership matches the net");
            row.clear();
            push_row(view, &self.id_to_dense, &mut row);
            self.replace_row(dense as usize, &row);
            patched += 1;
        }

        self.id_to_dense.maybe_demote(self.ids.len());
        self.maybe_compact();
        self.epoch = target;
        debug_assert!(
            self.ids.iter().copied().eq(net.ids()),
            "patched dense order must equal the overlay's live scan order"
        );
        ViewRefresh::Patched {
            nodes: patched,
            records: applied,
        }
    }

    /// Rewrites one adjacency row: in place when it fits the old
    /// footprint, appended to the pool when it grew.
    fn replace_row(&mut self, dense: usize, row: &[u32]) {
        let old = self.adj_len[dense] as usize;
        let start = self.adj_start[dense] as usize;
        if row.len() <= old {
            self.adj[start..start + row.len()].copy_from_slice(row);
            self.dead += (old - row.len()) as u32;
        } else {
            self.dead += old as u32;
            self.adj_start[dense] = self.adj.len() as u32;
            self.adj.extend_from_slice(row);
        }
        self.adj_len[dense] = row.len() as u32;
    }

    /// Rewrites the pool in dense order once tombstones outweigh live
    /// entries, bounding memory at O(edges) under sustained churn.
    fn maybe_compact(&mut self) {
        if (self.dead as usize) * 2 <= self.adj.len() || self.adj.len() < 64 {
            return;
        }
        let mut pool = Vec::with_capacity(self.adj.len() - self.dead as usize);
        for dense in 0..self.ids.len() {
            let start = self.adj_start[dense] as usize;
            let len = self.adj_len[dense] as usize;
            self.adj_start[dense] = pool.len() as u32;
            pool.extend_from_slice(&self.adj[start..start + len]);
        }
        self.adj = pool;
        self.dead = 0;
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the snapshot holds no node.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dense index of an object (`None` for ids dead or unknown at freeze
    /// time).
    #[inline]
    fn dense_of(&self, id: ObjectId) -> Option<u32> {
        self.id_to_dense.get(id)
    }

    /// Object id at a dense index (`index < len()`).
    #[inline]
    pub fn id_at(&self, index: u32) -> ObjectId {
        self.ids[index as usize]
    }

    /// Coordinates of an object live at freeze time.
    fn coords_of(&self, id: ObjectId) -> Option<Point2> {
        let d = self.dense_of(id)? as usize;
        Some(Point2::new(self.xs[d], self.ys[d]))
    }

    /// The frozen routing neighbourhood of a dense index, as dense indices
    /// in scan order.
    pub fn neighbours_of(&self, index: u32) -> &[u32] {
        let s = self.adj_start[index as usize] as usize;
        let e = s + self.adj_len[index as usize] as usize;
        &self.adj[s..e]
    }

    /// Greedy route from `from` towards `target` over the frozen topology
    /// — the decisions, path, hop count and recorded messages are
    /// bit-identical to [`VoroNet::route_to_point_in`] on the overlay the
    /// snapshot was frozen from.
    ///
    /// `scratch.path` is cleared and refilled; the accounting is appended
    /// to `scratch.delta`.  Allocation-free on warmed-up buffers.
    pub fn route_to_point_in(
        &self,
        from: ObjectId,
        target: Point2,
        scratch: &mut RouteScratch,
    ) -> Result<(ObjectId, u32), VoronetError> {
        let RouteScratch { path, delta, .. } = scratch;
        path.clear();
        let Some(start) = self.dense_of(from) else {
            return Err(VoronetError::unknown(from));
        };
        path.push(from);
        let at = |dense: u32| Point2::new(self.xs[dense as usize], self.ys[dense as usize]);
        let (owner, hops) = greedy_descent(
            (start, at(start)),
            target,
            |cur| self.neighbours_of(cur).iter().map(|&nb| (nb, at(nb))),
            |_, next| path.push(self.ids[next as usize]),
        );
        delta.add(MessageKind::RouteForward, u64::from(hops));
        Ok((self.ids[owner as usize], hops))
    }

    /// Greedy route between two objects live at freeze time; see
    /// [`FrozenView::route_to_point_in`].
    pub fn route_between_in(
        &self,
        from: ObjectId,
        to: ObjectId,
        scratch: &mut RouteScratch,
    ) -> Result<(ObjectId, u32), VoronetError> {
        let target = self
            .coords_of(to)
            .ok_or_else(|| VoronetError::unknown(to))?;
        let (owner, hops) = self.route_to_point_in(from, target, scratch)?;
        debug_assert_eq!(
            owner, to,
            "a route towards an existing object must terminate at that object"
        );
        Ok((owner, hops))
    }
}

/// Appends the routing adjacency row of `view`'s object to `out`, in
/// exactly the live walk's scan order: Voronoi fan first, then close
/// neighbours (ascending ids), then long links — with links back to the
/// node itself skipped, as the overlay's routing rows skip them.  Shared by
/// the full freeze and the per-row patch path so both emit identical rows.
/// The fan is walked on the tessellation and the links read from their
/// column, not copied from the overlay's rows, so every frozen route
/// cross-checks them (the close sets, stored only in the rows, have the
/// audit's grid recomputation as their referee).
fn push_row(view: ViewRef<'_>, index: &IdIndex, out: &mut Vec<u32>) {
    let id = view.id();
    for n in view.routing_neighbours().filter(|&n| n != id) {
        out.push(index.get(n).expect("neighbours are live"));
    }
}

/// One overlay mutation, as recorded in the [`ChangeLog`]: the membership
/// effect plus the set of nodes whose adjacency rows it dirtied.
///
/// Insert records carry the coordinates captured at mutation time — the
/// object may be gone from the overlay by the time a view replays the log.
/// The `dirty` lists name every node whose Voronoi fan, close set or long
/// links changed; back-long pointers are not part of any adjacency row,
/// so retargeting them alone dirties only the *source* of the link.
#[derive(Debug, Clone)]
pub(crate) enum ChangeRecord {
    /// An object joined; `dirty` holds its new neighbourhood.
    Insert {
        id: ObjectId,
        x: f64,
        y: f64,
        dirty: Vec<ObjectId>,
    },
    /// An object departed; `dirty` holds its former neighbourhood.
    Remove { id: ObjectId, dirty: Vec<ObjectId> },
    /// Links changed without membership change (long-link refresh,
    /// close-neighbour pruning).
    Mutate { dirty: Vec<ObjectId> },
}

impl ChangeRecord {
    fn dirty(&self) -> &[ObjectId] {
        match self {
            ChangeRecord::Insert { dirty, .. }
            | ChangeRecord::Remove { dirty, .. }
            | ChangeRecord::Mutate { dirty } => dirty,
        }
    }

    /// Every object whose view the mutation may have changed: the dirty
    /// set plus, for a join, the joiner itself.
    pub(crate) fn touched(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let joined = match *self {
            ChangeRecord::Insert { id, .. } => Some(id),
            _ => None,
        };
        self.dirty().iter().copied().chain(joined)
    }
}

/// Bounded journal of overlay mutations, indexed by snapshot epoch:
/// record `i` moves the overlay from epoch `base + i` to `base + i + 1`.
///
/// The log retains the most recent `ChangeLog::CAP` (4096) records; views
/// older than the window simply rebuild from scratch, so the log bounds
/// writer-side memory without any reader registration protocol.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    base: u64,
    records: VecDeque<ChangeRecord>,
}

impl ChangeLog {
    /// Retained mutation records; enough for thousands of writes between
    /// view refreshes while keeping worst-case replay far below a
    /// rebuild.
    const CAP: usize = 4096;

    pub(crate) fn push(&mut self, rec: ChangeRecord) {
        if self.records.len() == Self::CAP {
            self.records.pop_front();
            self.base += 1;
        }
        self.records.push_back(rec);
    }

    /// The records moving an overlay from epoch `from` to epoch `to`, or
    /// `None` when the window no longer reaches back to `from`.
    pub(crate) fn range(&self, from: u64, to: u64) -> Option<impl Iterator<Item = &ChangeRecord>> {
        let lo = from.checked_sub(self.base)? as usize;
        let hi = to.checked_sub(self.base)? as usize;
        if hi > self.records.len() || lo > hi {
            return None;
        }
        Some(self.records.range(lo..hi))
    }
}

/// What [`FrozenView::refresh`] did to bring a view up to date — a view
/// owner folds it into its [`SnapshotStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewRefresh {
    /// The view already described the current epoch; nothing was done.
    Current,
    /// The view was rebuilt from scratch (O(n + edges)).
    Rebuilt,
    /// The view was delta-patched: `nodes` adjacency rows rewritten while
    /// replaying `records` log records.
    Patched {
        /// Adjacency rows rewritten.
        nodes: usize,
        /// Change-log records replayed.
        records: usize,
    },
}

/// Snapshot-maintenance economics: how often views were reused, patched
/// or rebuilt.  Kept outside [`crate::VoroNet`]'s protocol counters —
/// these describe the *execution strategy*, not the overlay, so engines
/// with different view policies still agree on protocol stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Refreshes that found the view already current (free reuse).
    pub reused: u64,
    /// Views rebuilt from scratch.
    pub full_rebuilds: u64,
    /// Delta patches applied.
    pub delta_patches: u64,
    /// Total adjacency rows rewritten across all delta patches.
    pub patched_nodes: u64,
}

impl SnapshotStats {
    /// Folds one refresh outcome in.
    pub fn absorb(&mut self, refresh: &ViewRefresh) {
        match *refresh {
            ViewRefresh::Current => self.reused += 1,
            ViewRefresh::Rebuilt => self.full_rebuilds += 1,
            ViewRefresh::Patched { nodes, .. } => {
                self.delta_patches += 1;
                self.patched_nodes += nodes as u64;
            }
        }
    }
}

impl std::fmt::Display for SnapshotStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "views: {} reused, {} patched ({} rows), {} rebuilt",
            self.reused, self.delta_patches, self.patched_nodes, self.full_rebuilds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VoroNetConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn build(n: usize, seed: u64) -> (VoroNet, Vec<ObjectId>) {
        let mut net = VoroNet::new(VoroNetConfig::new(n).with_seed(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let mut ids = Vec::new();
        while ids.len() < n {
            let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            if let Ok(r) = net.insert(p) {
                ids.push(r.id);
            }
        }
        (net, ids)
    }

    #[test]
    fn frozen_view_is_sync_and_indexes_every_live_node() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<FrozenView>();
        assert_sync::<VoroNet>();

        let (net, ids) = build(200, 3);
        let view = FrozenView::new(&net);
        assert_eq!(view.len(), net.len());
        for &id in &ids {
            let dense = view.dense_of(id).expect("live node is indexed");
            assert_eq!(view.id_at(dense), id);
            assert_eq!(view.coords_of(id), net.coords(id));
            assert!(!view.neighbours_of(dense).is_empty());
        }
        assert_eq!(view.dense_of(ObjectId(u64::MAX)), None);
    }

    #[test]
    fn frozen_routes_match_the_live_walk_bit_for_bit() {
        let (net, ids) = build(400, 7);
        let view = FrozenView::new(&net);
        let mut rng = StdRng::seed_from_u64(99);
        let mut scratch = RouteScratch::new();
        let mut live = RouteScratch::new();
        for i in 0..300 {
            let from = ids[rng.random_range(0..ids.len())];
            let target = if i % 3 == 0 {
                net.coords(ids[rng.random_range(0..ids.len())]).unwrap()
            } else {
                Point2::new(rng.random::<f64>(), rng.random::<f64>())
            };
            scratch.delta.clear();
            let frozen = view.route_to_point_in(from, target, &mut scratch).unwrap();
            live.delta.clear();
            let walked = net.route_to_point_in(from, target, &mut live).unwrap();
            assert_eq!(frozen, walked, "owner/hops must agree");
            assert_eq!(scratch.path, live.path, "paths must agree");
            assert_eq!(scratch.delta, live.delta, "messages must agree");
            assert_eq!(
                live.delta.len() as u32,
                frozen.1,
                "one RouteForward per hop"
            );
        }
        // Unknown sources error identically.
        let ghost = ObjectId(u64::MAX);
        let target = Point2::new(0.5, 0.5);
        let err = view
            .route_to_point_in(ghost, target, &mut scratch)
            .unwrap_err();
        assert_eq!(err.kind(), &crate::ErrorKind::UnknownObject(ghost));
        assert_eq!(Err(err), net.route_to_point_in(ghost, target, &mut live));
    }

    #[test]
    fn churned_overlays_freeze_in_bounded_memory_and_still_route_identically() {
        // Object ids are never reused, so sustained churn spreads the live
        // ids over a range far wider than the population; the id index must
        // fall back to the sparse map (never allocating O(max id)) and keep
        // routing bit-identical to the live walk.
        let (mut net, mut ids) = build(60, 23);
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..800 {
            // Keep the very first object alive to pin the id range open.
            let victim = 1 + rng.random_range(0..ids.len() - 1);
            net.remove(ids[victim]).unwrap();
            ids.swap_remove(victim);
            let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            if let Ok(r) = net.insert(p) {
                ids.push(r.id);
            }
        }
        let span = ids.iter().map(|i| i.0).max().unwrap() - ids.iter().map(|i| i.0).min().unwrap();
        assert!(
            span as usize > ids.len() * IdIndex::MAX_SPREAD + 64,
            "churn must spread the id range (span {span}, population {})",
            ids.len()
        );
        let view = FrozenView::new(&net);
        assert!(
            matches!(view.id_to_dense, IdIndex::Map(_)),
            "wide id ranges must use the sparse index"
        );
        let mut scratch = RouteScratch::new();
        let mut live = RouteScratch::new();
        for i in 0..100 {
            let from = ids[(i * 7) % ids.len()];
            let to = ids[(i * 13 + 1) % ids.len()];
            let frozen = view.route_between_in(from, to, &mut scratch).unwrap();
            let target = net.coords(to).unwrap();
            let walked = net.route_to_point_in(from, target, &mut live).unwrap();
            assert_eq!(frozen, walked);
            assert_eq!(scratch.path, live.path);
        }
        // An erroring route clears the stale path, like the live walk does.
        let _ = view.route_to_point_in(ObjectId(u64::MAX), Point2::new(0.1, 0.1), &mut scratch);
        assert!(
            scratch.path.is_empty(),
            "failed routes must not leave a stale path"
        );
    }

    #[test]
    fn refreshed_views_stay_bit_identical_to_fresh_freezes_under_churn() {
        // One continuously-patched view must match a from-scratch freeze
        // after every kind of mutation the overlay can perform.
        let (mut net, mut ids) = build(120, 41);
        let mut view = net.freeze();
        let mut rng = StdRng::seed_from_u64(43);
        for step in 0..250 {
            match step % 10 {
                0..=4 => {
                    let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
                    if let Ok(r) = net.insert(p) {
                        ids.push(r.id);
                    }
                }
                5..=7 => {
                    let victim = rng.random_range(0..ids.len());
                    net.remove(ids.swap_remove(victim)).unwrap();
                }
                8 => {
                    let id = ids[rng.random_range(0..ids.len())];
                    net.refresh_long_links(id).unwrap();
                }
                _ => {
                    net.prune_close_neighbours();
                }
            }
            // Refresh at every step half the time, in bursts otherwise —
            // both single-record and multi-record patches must hold.
            if step % 2 == 0 || step % 7 == 0 {
                let stale = view.epoch() != net.snapshot_epoch();
                let refresh = view.refresh(&net);
                // A prune that drops nothing leaves the epoch alone; any
                // real mutation must not report a free reuse.
                assert_eq!(stale, refresh != ViewRefresh::Current);
                let fresh = net.freeze();
                assert_eq!(view, fresh, "patched view diverged at step {step}");
                assert_eq!(view.epoch(), fresh.epoch());
            }
        }
        // Routes over the patched view match the live walk bit for bit.
        let mut refresh_stats = SnapshotStats::default();
        refresh_stats.absorb(&view.refresh(&net));
        assert_eq!(refresh_stats.reused + refresh_stats.delta_patches, 1);
        let mut scratch = RouteScratch::new();
        let mut live = RouteScratch::new();
        for i in 0..60 {
            let from = ids[(i * 11) % ids.len()];
            let to = ids[(i * 5 + 2) % ids.len()];
            let frozen = view.route_between_in(from, to, &mut scratch).unwrap();
            let target = net.coords(to).unwrap();
            let walked = net.route_to_point_in(from, target, &mut live).unwrap();
            assert_eq!(frozen, walked);
            assert_eq!(scratch.path, live.path);
        }
    }

    #[test]
    fn patched_id_index_demotes_to_the_sparse_map_under_wide_churn() {
        // Sustained churn through the *patch* path must not let the flat
        // id table grow with the (monotonic, never reused) id range.
        let (mut net, mut ids) = build(40, 47);
        let mut view = net.freeze();
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..600 {
            let victim = 1 + rng.random_range(0..ids.len() - 1);
            net.remove(ids[victim]).unwrap();
            ids.swap_remove(victim);
            let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            if let Ok(r) = net.insert(p) {
                ids.push(r.id);
            }
            view.refresh(&net);
        }
        assert!(
            matches!(view.id_to_dense, IdIndex::Map(_)),
            "patched index must demote once the id range spreads"
        );
        assert_eq!(view, net.freeze());
        assert!(
            view.adj.len() <= 2 * (view.dead as usize).max(32) + 16 * view.len(),
            "tombstone compaction must bound the pool ({} entries, {} dead, {} nodes)",
            view.adj.len(),
            view.dead,
            view.len()
        );
    }

    #[test]
    fn views_older_than_the_log_window_rebuild_from_scratch() {
        // Directly exercise the bounded-journal fallback: a view whose
        // epoch predates the retained window cannot patch.
        let mut log = ChangeLog::default();
        for i in 0..(ChangeLog::CAP + 10) {
            log.push(ChangeRecord::Mutate {
                dirty: vec![ObjectId(i as u64)],
            });
        }
        let newest = (ChangeLog::CAP + 10) as u64;
        assert!(log.range(0, newest).is_none(), "window must have slid");
        assert!(log.range(9, newest).is_none());
        assert_eq!(
            log.range(10, newest).map(|r| r.count()),
            Some(ChangeLog::CAP)
        );
        assert_eq!(log.range(newest, newest).map(|r| r.count()), Some(0));

        // And end to end: an ancient view refreshes by full rebuild.
        let (mut net, ids) = build(50, 61);
        let mut view = net.freeze();
        for _ in 0..6 {
            // Mutations beyond the patch-volume threshold for n=50 force
            // the rebuild branch even inside the window.
            for &id in ids.iter().take(30) {
                net.refresh_long_links(id).unwrap();
            }
            assert_eq!(view.refresh(&net), ViewRefresh::Rebuilt);
            assert_eq!(view, net.freeze());
        }
    }

    #[test]
    fn touched_since_is_the_union_of_the_journalled_dirty_sets() {
        let (mut net, ids) = build(60, 67);
        let start = net.snapshot_epoch();
        let touched = |net: &VoroNet, epoch| {
            net.touched_since(epoch)
                .map(|ids| ids.collect::<std::collections::BTreeSet<_>>())
        };
        assert_eq!(touched(&net, start), Some(Default::default()));
        assert_eq!(touched(&net, start + 1), None, "an epoch not reached yet");

        let joined = net.insert(Point2::new(0.31, 0.64)).unwrap().id;
        net.remove(ids[7]).unwrap();
        net.refresh_long_links(ids[9]).unwrap();
        let log = net.change_log();
        let mut union: std::collections::BTreeSet<ObjectId> = log
            .range(start, net.snapshot_epoch())
            .unwrap()
            .flat_map(|rec| rec.dirty().iter().copied())
            .collect();
        // A join's own record names its neighbourhood, not the joiner.
        union.insert(joined);
        assert_eq!(touched(&net, start), Some(union));
        // A later cursor sees only the later records.
        assert_eq!(
            touched(&net, net.snapshot_epoch() - 1),
            Some([ids[9]].into_iter().collect())
        );

        // The window slides: `CAP` records back is covered, one more is not.
        for _ in 0..ChangeLog::CAP - 3 {
            net.refresh_long_links(ids[0]).unwrap();
        }
        assert_eq!(net.snapshot_epoch(), start + ChangeLog::CAP as u64);
        assert!(net.touched_since(start).is_some());
        net.refresh_long_links(ids[0]).unwrap();
        assert!(net.touched_since(start).is_none());
        assert!(net.touched_since(start + 1).is_some());
    }

    /// What a view consumer (the cluster driver) ships for one object.
    type Shippable = (Vec<ObjectId>, Vec<ObjectId>, Vec<Point2>);

    fn shippable(net: &VoroNet) -> std::collections::BTreeMap<ObjectId, Shippable> {
        net.ids()
            .map(|id| {
                let view = net.view(id).unwrap();
                let vertex = net.vertex_of(id).expect("live object");
                let cell = voronet_geom::voronoi_cell(net.triangulation(), vertex);
                let routing = view.routing_neighbours();
                (
                    id,
                    (routing, view.voronoi_neighbours, cell.polygon.vertices),
                )
            })
            .collect()
    }

    #[test]
    fn every_changed_view_is_in_the_touched_set() {
        // The contract `touched_since` is consumed under: whatever a
        // mutation changes about an object's shippable view — in fan order
        // and to the last bit of a cell vertex — that object is named.
        for seed in [71, 73, 79] {
            let (mut net, mut ids) = build(90, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
            let mut changed_total = 0usize;
            for step in 0..260 {
                let before = shippable(&net);
                let epoch = net.snapshot_epoch();
                match rng.random_range(0..10u32) {
                    0..=3 => {
                        // Half the joins land beside an existing object, so
                        // close links form and later prunes have work.
                        let near = net.coords(ids[rng.random_range(0..ids.len())]).unwrap();
                        let p = if rng.random::<bool>() {
                            Point2::new(rng.random::<f64>(), rng.random::<f64>())
                        } else {
                            Point2::new(
                                (near.x + 1e-3 * rng.random::<f64>()).min(1.0),
                                (near.y + 1e-3 * rng.random::<f64>()).min(1.0),
                            )
                        };
                        if let Ok(r) = net.insert(p) {
                            ids.push(r.id);
                        }
                    }
                    4..=6 => {
                        let victim = rng.random_range(0..ids.len());
                        net.remove(ids.swap_remove(victim)).unwrap();
                    }
                    7..=8 => {
                        let id = ids[rng.random_range(0..ids.len())];
                        net.refresh_long_links(id).unwrap();
                    }
                    _ => {
                        net.set_nmax(net.config().nmax * 2);
                        net.prune_close_neighbours();
                    }
                }
                let touched: std::collections::BTreeSet<ObjectId> = net
                    .touched_since(epoch)
                    .expect("one record back is always covered")
                    .collect();
                for (id, view) in shippable(&net) {
                    if before.get(&id) != Some(&view) {
                        changed_total += 1;
                        assert!(
                            touched.contains(&id),
                            "seed {seed} step {step}: {id}'s view changed untouched"
                        );
                    }
                }
            }
            assert!(changed_total > 500, "the script must move views");
        }
    }

    #[test]
    fn snapshot_stats_tally_and_render() {
        let mut stats = SnapshotStats::default();
        stats.absorb(&ViewRefresh::Current);
        stats.absorb(&ViewRefresh::Rebuilt);
        stats.absorb(&ViewRefresh::Patched {
            nodes: 7,
            records: 2,
        });
        stats.absorb(&ViewRefresh::Patched {
            nodes: 3,
            records: 1,
        });
        stats.absorb(&ViewRefresh::Current);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.delta_patches, 2);
        assert_eq!(stats.patched_nodes, 10);
        assert_eq!(
            stats.to_string(),
            "views: 2 reused, 2 patched (10 rows), 1 rebuilt"
        );
    }

    #[test]
    fn deferred_deltas_replay_to_identical_traffic() {
        let (net, ids) = build(150, 11);
        let mut inline = net.clone();
        let mut deferred = net.clone();
        let mut rng = StdRng::seed_from_u64(13);
        let pairs: Vec<(ObjectId, ObjectId)> = (0..80)
            .map(|_| {
                (
                    ids[rng.random_range(0..ids.len())],
                    ids[rng.random_range(0..ids.len())],
                )
            })
            .collect();

        for &(a, b) in &pairs {
            let _ = inline.route_between(a, b).unwrap();
        }

        let mut scratch = RouteScratch::new();
        for &(a, b) in &pairs {
            deferred.route_between_in(a, b, &mut scratch).unwrap();
        }
        deferred.apply_traffic(&scratch.delta);

        assert_eq!(inline.traffic(), deferred.traffic());
    }
}
