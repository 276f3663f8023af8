//! Incremental Delaunay triangulation of the VoroNet attribute space.
//!
//! The triangulation is the data structure behind every Voronoi-related
//! operation of the overlay: an object's Voronoi neighbours `vn(o)` are its
//! Delaunay neighbours, `AddVoronoiRegion` is a point insertion and
//! `RemoveVoronoiRegion` is a vertex removal.
//!
//! # Representation
//!
//! A classic triangle-based structure: a flat `Vec` of triangles, each
//! storing its three vertex indices in counter-clockwise order and the three
//! adjacent triangles (`n[i]` lies opposite vertex `v[i]`).  The attribute
//! domain (the unit square in the paper) is enclosed in a *sentinel box*:
//! four auxiliary vertices placed far outside the domain.  Every real vertex
//! is therefore always interior, which removes all convex-hull special cases
//! from insertion, removal and point location.  Because the sentinels are
//! more than an order of magnitude farther from the domain than its diagonal,
//! the owner of any domain point and the greedy-routing behaviour inside the
//! domain are identical to those of the unbounded Voronoi diagram (see
//! DESIGN.md for the argument); only the reported degree of convex-hull
//! objects may differ marginally, which the evaluation tolerates.
//!
//! # Robustness
//!
//! All combinatorial decisions go through the exact predicates of
//! [`crate::predicates`]; co-linear and co-circular inputs (the "calculation
//! degeneracy" the paper delegates to Sugihara–Iri) are handled exactly.

use crate::greedy::greedy_descent;
use crate::point::{Point2, Rect};
use crate::predicates::{incircle, orient2d, Orientation};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sentinel value for "no triangle / no vertex".
const NIL: u32 = u32::MAX;

/// Number of sentinel vertices enclosing the domain.
pub const SENTINEL_COUNT: u32 = 4;

/// Identifier of a vertex of the triangulation (stable across removals of
/// other vertices).
pub type VertexId = u32;

/// Identifier of a triangle (unstable: recycled by insertions/removals).
pub type TriId = u32;

/// A triangle of the mesh: vertices in counter-clockwise order and the
/// adjacent triangle opposite each vertex.
#[derive(Debug, Clone, Copy)]
struct Triangle {
    v: [u32; 3],
    n: [u32; 3],
}

impl Triangle {
    fn index_of_vertex(&self, v: u32) -> Option<usize> {
        (0..3).find(|&i| self.v[i] == v)
    }

    /// Index `i` such that the edge opposite `v[i]` is `{a, b}`.
    fn index_of_edge(&self, a: u32, b: u32) -> Option<usize> {
        (0..3).find(|&i| {
            let p = self.v[(i + 1) % 3];
            let q = self.v[(i + 2) % 3];
            (p == a && q == b) || (p == b && q == a)
        })
    }
}

/// Cells per side of the grid [`hilbert_key`] lays its Hilbert
/// curve over: 2¹⁶, so a key fits in 32 bits and two points share a cell
/// only when they are within 1/65 536 of the domain's side.
const HILBERT_SIDE: f64 = 65_536.0;

/// Four levels of the Hilbert curve, as a table.  The index is the
/// orientation of the current square (bit 1: x and y swapped, bit 0: both
/// flipped) above four bits of x and four of y; the entry is the cell's
/// eight bits of curve position above the orientation of the sub-square it
/// ends in.  Level by level, the two upper quadrants keep the square's
/// orientation, the lower-left one is mirrored about the main diagonal and
/// the lower-right one about the other, so the curve leaves each quadrant
/// where the next one starts.
const HILBERT_STEP: [u16; 1024] = {
    let mut table = [0; 1024];
    let mut i = 0;
    while i < 1024 {
        let (mut orientation, mut digits) = (i >> 8, 0);
        let mut level = 4;
        while level > 0 {
            level -= 1;
            let flip = orientation & 1;
            let (mut rx, mut ry) = ((i >> (4 + level) & 1) ^ flip, (i >> level & 1) ^ flip);
            if orientation >> 1 == 1 {
                (rx, ry) = (ry, rx);
            }
            digits = digits << 2 | ((3 * rx) ^ ry);
            if ry == 0 {
                orientation ^= 2 | rx;
            }
        }
        table[i] = (digits << 2 | orientation) as u16;
        i += 1;
    }
    table
};

/// Position of `p` along the Hilbert curve over the 2¹⁶ × 2¹⁶ grid laid
/// on `domain`, which [`Triangulation::renumber`] orders vertices by; a
/// point outside the domain takes the nearest border cell.
pub fn hilbert_key(domain: Rect, p: Point2) -> u32 {
    let Rect { min, max } = domain;
    let cell = |lo: f64, hi: f64, c: f64| {
        let unit = if hi > lo { (c - lo) / (hi - lo) } else { 0.0 };
        (unit * HILBERT_SIDE).clamp(0.0, HILBERT_SIDE - 1.0) as u32
    };
    curve_position(cell(min.x, max.x, p.x), cell(min.y, max.y, p.y))
}

/// Position of grid cell `(x, y)` along the Hilbert curve over the
/// 2¹⁶ × 2¹⁶ grid: four table steps, from the top bits down.
fn curve_position(x: u32, y: u32) -> u32 {
    let (mut key, mut orientation) = (0, 0);
    for shift in [12, 8, 4, 0] {
        let cell = (x >> shift & 15) << 4 | (y >> shift & 15);
        let step = u32::from(HILBERT_STEP[(orientation << 8 | cell) as usize]);
        key = key << 8 | step >> 2;
        orientation = step & 3;
    }
    key
}

/// Moves `items[old]` to `items[map[old]]` for every old id of a `map`
/// returned by [`Triangulation::renumber`] and drops the entries of dead
/// ids: afterwards `items` is indexed by the new ids.  `items` holds one
/// entry per old id (`map.len()`); its allocation is kept.
///
/// # Panics
/// Panics if `items` and `map` differ in length.
pub fn apply_renumbering<T: Copy>(items: &mut Vec<T>, map: &[VertexId]) {
    assert_eq!(items.len(), map.len(), "one entry per old vertex id");
    let Some(&first) = items.first() else { return };
    // Scattered into a copy and copied back: independent writes, where
    // following the permutation's cycles in place waits on every load.
    let mut renumbered = vec![first; map.iter().filter(|&&v| v != NIL).count()];
    for (&item, &new) in items.iter().zip(map) {
        if new != NIL {
            renumbered[new as usize] = item;
        }
    }
    items.truncate(renumbered.len());
    items.copy_from_slice(&renumbered);
}

/// Result of locating a point in the triangulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locate {
    /// The point lies strictly inside the returned triangle.
    Inside(TriId),
    /// The point lies on the edge opposite vertex `.1` of triangle `.0`.
    OnEdge(TriId, u8),
    /// The point coincides exactly with an existing vertex.
    OnVertex(VertexId),
    /// The point lies outside the sentinel box (outside the supported
    /// domain).
    Outside,
}

/// Error returned by [`Triangulation::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The point coincides exactly with an existing vertex.
    Duplicate(VertexId),
    /// The point lies outside the domain covered by the sentinel box.
    OutsideDomain,
    /// The point has a non-finite coordinate.
    NotFinite,
}

/// Error returned by [`Triangulation::remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveError {
    /// The vertex id does not refer to a live vertex.
    NotFound,
    /// Sentinel vertices cannot be removed.
    Sentinel,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Duplicate(v) => write!(f, "point duplicates existing vertex {v}"),
            InsertError::OutsideDomain => write!(f, "point lies outside the supported domain"),
            InsertError::NotFinite => write!(f, "point has a non-finite coordinate"),
        }
    }
}

impl std::fmt::Display for RemoveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoveError::NotFound => write!(f, "vertex is not part of the triangulation"),
            RemoveError::Sentinel => write!(f, "sentinel vertices cannot be removed"),
        }
    }
}

impl std::error::Error for InsertError {}
impl std::error::Error for RemoveError {}

/// Incremental Delaunay triangulation over a rectangular domain.
///
/// The structure is `Sync`: point location ([`Triangulation::locate`],
/// [`Triangulation::nearest_vertex`]) and every neighbourhood query take
/// `&self` and keep their walk state (the last-touched-triangle hint, the
/// walk-tiebreak RNG and the step count) in relaxed atomics, so concurrent
/// readers are sound.  Under contention the hint/RNG updates may interleave, which only
/// perturbs *which* walk a reader takes: never the nearest vertex it
/// returns (equally near vertices go to the least coordinates), and the
/// located triangle only when `p` lies on an edge, between the two
/// triangles sharing it.
pub struct Triangulation {
    points: Vec<Point2>,
    vert_tri: Vec<u32>,
    vert_alive: Vec<bool>,
    free_verts: Vec<u32>,
    tris: Vec<Triangle>,
    tri_alive: Vec<bool>,
    free_tris: Vec<u32>,
    /// Conflict-search epoch marks, indexed by triangle id.
    marks: Vec<u64>,
    epoch: u64,
    hint: AtomicU32,
    rng: AtomicU64,
    /// Triangles visited by point-location walks, see
    /// [`Triangulation::locate_steps`].
    steps: AtomicU64,
    domain: Rect,
    live_real_vertices: usize,
}

impl Clone for Triangulation {
    fn clone(&self) -> Self {
        Triangulation {
            points: self.points.clone(),
            vert_tri: self.vert_tri.clone(),
            vert_alive: self.vert_alive.clone(),
            free_verts: self.free_verts.clone(),
            tris: self.tris.clone(),
            tri_alive: self.tri_alive.clone(),
            free_tris: self.free_tris.clone(),
            marks: self.marks.clone(),
            epoch: self.epoch,
            hint: AtomicU32::new(self.hint.load(Ordering::Relaxed)),
            rng: AtomicU64::new(self.rng.load(Ordering::Relaxed)),
            steps: AtomicU64::new(self.locate_steps()),
            domain: self.domain,
            live_real_vertices: self.live_real_vertices,
        }
    }
}

impl Triangulation {
    /// Creates an empty triangulation covering `domain`.
    ///
    /// Points inserted later must lie inside `domain` (inclusive of its
    /// boundary).
    pub fn new(domain: Rect) -> Self {
        let margin = 16.0 * domain.width().max(domain.height()).max(1.0);
        let bbox = domain.inflate(margin);
        let corners = bbox.corners();
        let points = corners.to_vec();
        // Two triangles covering the sentinel box: (0,1,2) and (0,2,3),
        // both counter-clockwise because corners() is counter-clockwise.
        let t0 = Triangle {
            v: [0, 1, 2],
            n: [NIL, 1, NIL],
        };
        let t1 = Triangle {
            v: [0, 2, 3],
            n: [NIL, NIL, 0],
        };
        Triangulation {
            points,
            vert_tri: vec![0, 0, 0, 1],
            vert_alive: vec![true; 4],
            free_verts: Vec::new(),
            tris: vec![t0, t1],
            tri_alive: vec![true, true],
            free_tris: Vec::new(),
            marks: vec![0, 0],
            epoch: 0,
            hint: AtomicU32::new(0),
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            steps: AtomicU64::new(0),
            domain,
            live_real_vertices: 0,
        }
    }

    /// Creates a triangulation over the unit square (the paper's attribute
    /// space).
    pub fn unit_square() -> Self {
        Triangulation::new(Rect::UNIT)
    }

    /// The domain passed at construction.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// Number of live real (non-sentinel) vertices.
    pub fn len(&self) -> usize {
        self.live_real_vertices
    }

    /// True when no real vertex is present.
    pub fn is_empty(&self) -> bool {
        self.live_real_vertices == 0
    }

    /// True when `v` is one of the four sentinel vertices.
    #[inline]
    fn is_sentinel(&self, v: VertexId) -> bool {
        v < SENTINEL_COUNT
    }

    /// True when `v` refers to a live vertex (sentinel or real).
    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.vert_alive.len() && self.vert_alive[v as usize]
    }

    /// Coordinates of a live vertex.
    ///
    /// # Panics
    /// Panics if `v` is not a live vertex.
    #[inline]
    pub fn point(&self, v: VertexId) -> Point2 {
        debug_assert!(self.contains_vertex(v));
        self.points[v as usize]
    }

    /// Iterator over the ids of all live real vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (SENTINEL_COUNT..self.vert_alive.len() as u32).filter(move |&v| self.vert_alive[v as usize])
    }

    /// Iterator over live triangles as vertex-id triples (including triangles
    /// touching sentinels).
    pub fn triangles(&self) -> impl Iterator<Item = [VertexId; 3]> + '_ {
        (0..self.tris.len()).filter_map(move |t| self.tri_alive[t].then_some(self.tris[t].v))
    }

    /// Number of live triangles (including sentinel triangles).
    pub fn num_triangles(&self) -> usize {
        self.tri_alive.iter().filter(|&&a| a).count()
    }

    /// Vertex ids of a live triangle, or `None` if the id refers to a
    /// recycled triangle.
    pub fn triangle_vertices(&self, t: TriId) -> Option<[VertexId; 3]> {
        ((t as usize) < self.tris.len() && self.tri_alive[t as usize])
            .then(|| self.tris[t as usize].v)
    }

    // ------------------------------------------------------------------
    // Point location
    // ------------------------------------------------------------------

    fn next_rand(&self) -> u64 {
        // xorshift64*; quality is irrelevant, it only breaks walk cycles.
        // Relaxed load/store: a racy interleaving merely reuses or skips a
        // draw, which is as good as any other draw for cycle breaking.
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn any_live_triangle(&self) -> TriId {
        let h = self.hint.load(Ordering::Relaxed);
        if (h as usize) < self.tri_alive.len() && self.tri_alive[h as usize] {
            return h;
        }
        self.tri_alive
            .iter()
            .position(|&a| a)
            .expect("triangulation always has at least two live triangles") as u32
    }

    /// The triangle a walk seeded at vertex `near` starts from: one incident
    /// to `near` (its `vert_tri` entry), or the last-touched triangle when
    /// `near` is not a live vertex.
    fn triangle_near(&self, near: VertexId) -> TriId {
        match self.vert_tri.get(near as usize) {
            Some(&t) if t != NIL && self.vert_alive[near as usize] => {
                debug_assert!(self.tri_alive[t as usize]);
                t
            }
            _ => self.any_live_triangle(),
        }
    }

    /// Locates `p` in the triangulation by a stochastic walk from the last
    /// touched triangle.
    pub fn locate(&self, p: Point2) -> Locate {
        self.locate_from(p, self.any_live_triangle())
    }

    /// Triangles visited by every point-location walk so far (cumulative;
    /// a statistic — concurrent readers may lose a count, like the walk
    /// hint they share).  The difference across a call is that call's walk
    /// length: O(√n) from a cold start, a handful from a neighbouring
    /// vertex.
    pub fn locate_steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// The walk itself: from the live triangle `start`, cross any edge that
    /// has `p` strictly on its far side until none does.  Which triangle it
    /// ends in does not depend on `start` (containment is unique, up to the
    /// two triangles sharing an edge `p` lies on); only its length does.
    fn locate_from(&self, p: Point2, start: TriId) -> Locate {
        if !p.is_finite() {
            return Locate::Outside;
        }
        let mut cur = start;
        // A walk in a Delaunay triangulation with randomised edge order
        // terminates with probability 1; the bound below is a defensive cap
        // that is never hit in practice.
        let cap = 8 * (self.tris.len() as u64 + 16);
        let mut steps = 0u64;
        let located = 'walk: loop {
            if steps == cap {
                break None;
            }
            steps += 1;
            let t = &self.tris[cur as usize];
            let r = (self.next_rand() % 3) as usize;
            for k in 0..3 {
                let i = (r + k) % 3;
                let a = self.points[t.v[(i + 1) % 3] as usize];
                let b = self.points[t.v[(i + 2) % 3] as usize];
                if orient2d(a, b, p).is_negative() {
                    let nb = t.n[i];
                    if nb == NIL {
                        break 'walk Some(Locate::Outside);
                    }
                    cur = nb;
                    continue 'walk;
                }
            }
            // p is inside or on the boundary of `cur`.
            self.hint.store(cur, Ordering::Relaxed);
            for i in 0..3 {
                let vp = self.points[t.v[i] as usize];
                if vp.x == p.x && vp.y == p.y {
                    break 'walk Some(Locate::OnVertex(t.v[i]));
                }
            }
            for i in 0..3 {
                let a = self.points[t.v[(i + 1) % 3] as usize];
                let b = self.points[t.v[(i + 2) % 3] as usize];
                if orient2d(a, b, p).is_zero() {
                    break 'walk Some(Locate::OnEdge(cur, i as u8));
                }
            }
            break Some(Locate::Inside(cur));
        };
        self.steps.store(
            self.steps.load(Ordering::Relaxed) + steps,
            Ordering::Relaxed,
        );
        located.unwrap_or_else(|| self.locate_exhaustive(p))
    }

    /// Defensive fallback of the walk: exhaustive scan (should be
    /// unreachable).
    #[cold]
    fn locate_exhaustive(&self, p: Point2) -> Locate {
        for (ti, tri) in self.tris.iter().enumerate() {
            if !self.tri_alive[ti] {
                continue;
            }
            let a = self.points[tri.v[0] as usize];
            let b = self.points[tri.v[1] as usize];
            let c = self.points[tri.v[2] as usize];
            if crate::predicates::point_in_triangle(a, b, c, p) {
                return Locate::Inside(ti as u32);
            }
        }
        Locate::Outside
    }

    /// The live vertex nearest to `p`, found by greedy descent over the
    /// Delaunay graph (the "Voronoi region owner" of `p`).
    ///
    /// When several vertices are equally near, the answer is the one with
    /// the least coordinates ([`Point2::lex_cmp`]): a function of the
    /// points alone, so neither the walk hint that earlier reads left nor
    /// a [`Triangulation::renumber`] can change it.  The descent starts
    /// where [`Triangulation::locate`] does, at the first real vertex of
    /// the last-touched triangle (the lowest live id if it has none),
    /// which only shortens the walk.
    ///
    /// Returns `None` when the triangulation holds no real vertex.  For a
    /// point of the domain the result is always a real vertex because the
    /// sentinels are farther from the domain than any real object can be.
    pub fn nearest_vertex(&self, p: Point2) -> Option<VertexId> {
        let hinted = self.tris[self.any_live_triangle() as usize].v;
        let start = hinted
            .into_iter()
            .find(|&v| !self.is_sentinel(v))
            .or_else(|| self.vertices().next())?;
        let (nearest, _) = greedy_descent(
            (start, self.points[start as usize]),
            p,
            |v| {
                self.neighbors_iter(v)
                    .map(|nb| (nb, self.points[nb as usize]))
            },
            |_, _| {},
        );
        Some(self.least_of_equally_near(nearest, p))
    }

    /// Among the vertices exactly as near to `p` as `nearest` (a nearest
    /// vertex), the one with the least coordinates.  They lie on one empty
    /// circle around `p`, whose consecutive points are Delaunay neighbours,
    /// so a flood over equally near neighbours from `nearest` finds them
    /// all; coordinates are unique, so the choice is too.
    fn least_of_equally_near(&self, nearest: VertexId, p: Point2) -> VertexId {
        let least = self.points[nearest as usize].distance2(p);
        let equally_near = |v: VertexId| {
            self.neighbors_iter(v)
                .filter(move |&u| self.points[u as usize].distance2(p) == least)
        };
        if equally_near(nearest).next().is_none() {
            return nearest;
        }
        let mut tied = vec![nearest];
        let mut flooded = 0;
        while let Some(&at) = tied.get(flooded) {
            flooded += 1;
            for u in equally_near(at) {
                if !tied.contains(&u) {
                    tied.push(u);
                }
            }
        }
        tied.into_iter()
            .min_by(|&a, &b| self.points[a as usize].lex_cmp(&self.points[b as usize]))
            .expect("`nearest` is tied with itself")
    }

    // ------------------------------------------------------------------
    // Neighbourhood queries
    // ------------------------------------------------------------------
    //
    // The iterator forms ([`Triangulation::neighbors_iter`],
    // [`Triangulation::real_neighbors_iter`]) walk the triangle fan in
    // place and never touch the heap.

    /// Allocation-free iterator over all Delaunay neighbours of `v`
    /// (possibly including sentinels), in counter-clockwise order around `v`
    /// for interior vertices.
    pub fn neighbors_iter(&self, v: VertexId) -> NeighborIter<'_> {
        debug_assert!(self.contains_vertex(v));
        let start = self.vert_tri[v as usize];
        debug_assert!(start != NIL && self.tri_alive[start as usize]);
        NeighborIter {
            t: self,
            v,
            start,
            cur: start,
            phase: FanPhase::Ccw,
        }
    }

    /// Allocation-free iterator over the Delaunay neighbours of `v`
    /// restricted to real vertices.
    pub fn real_neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors_iter(v).filter(|&u| !self.is_sentinel(u))
    }

    /// Degree of `v` counting only real neighbours (the `|vn(o)|` statistic
    /// of the paper's Figure 5).  Allocation-free.
    pub fn real_degree(&self, v: VertexId) -> usize {
        self.real_neighbors_iter(v).count()
    }

    /// Collects the ids of live triangles incident to `v` into `out`
    /// (cleared first; counter-clockwise for interior vertices).
    pub fn incident_triangles_into(&self, v: VertexId, out: &mut Vec<TriId>) {
        out.clear();
        let start = self.vert_tri[v as usize];
        let mut cur = start;
        loop {
            let tri = &self.tris[cur as usize];
            let i = match tri.index_of_vertex(v) {
                Some(i) => i,
                None => break,
            };
            out.push(cur);
            let next = tri.n[(i + 1) % 3];
            if next == NIL || next == start {
                break;
            }
            cur = next;
        }
    }

    /// True when `a` and `b` are Delaunay neighbours.  Allocation-free.
    pub fn are_neighbors(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors_iter(a).any(|u| u == b)
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    fn alloc_vertex(&mut self, p: Point2) -> u32 {
        if let Some(v) = self.free_verts.pop() {
            self.points[v as usize] = p;
            self.vert_alive[v as usize] = true;
            self.vert_tri[v as usize] = NIL;
            v
        } else {
            self.points.push(p);
            self.vert_alive.push(true);
            self.vert_tri.push(NIL);
            (self.points.len() - 1) as u32
        }
    }

    fn alloc_triangle(&mut self, v: [u32; 3]) -> u32 {
        let tri = Triangle { v, n: [NIL; 3] };
        if let Some(t) = self.free_tris.pop() {
            self.tris[t as usize] = tri;
            self.tri_alive[t as usize] = true;
            self.marks[t as usize] = 0;
            t
        } else {
            self.tris.push(tri);
            self.tri_alive.push(true);
            self.marks.push(0);
            (self.tris.len() - 1) as u32
        }
    }

    fn free_triangle(&mut self, t: u32) {
        self.tri_alive[t as usize] = false;
        self.free_tris.push(t);
    }

    /// Inserts a point of the domain and returns its vertex id, locating it
    /// by a walk from the last touched triangle.
    pub fn insert(&mut self, p: Point2) -> Result<VertexId, InsertError> {
        self.insert_from(p, self.any_live_triangle())
    }

    /// [`Triangulation::insert`] with the walk started at a triangle
    /// incident to `near` — a handful of steps instead of O(√n) when `near`
    /// is close to `p` (the overlay passes the owner of `p`'s region, which
    /// the join route has just found).  The start never changes the
    /// outcome: the same vertex id or the same error, and the same
    /// triangulation.  A `near` that is not a live vertex falls back to the
    /// last touched triangle.
    pub fn insert_near(&mut self, p: Point2, near: VertexId) -> Result<VertexId, InsertError> {
        self.insert_from(p, self.triangle_near(near))
    }

    fn insert_from(&mut self, p: Point2, start: TriId) -> Result<VertexId, InsertError> {
        if !p.is_finite() {
            return Err(InsertError::NotFinite);
        }
        if !self.domain.contains(p) {
            return Err(InsertError::OutsideDomain);
        }
        let seed = match self.locate_from(p, start) {
            Locate::OnVertex(v) => return Err(InsertError::Duplicate(v)),
            Locate::Outside => return Err(InsertError::OutsideDomain),
            Locate::Inside(t) => t,
            // The walk may end in either triangle sharing the edge; growing
            // the cavity from the lower id keeps triangle numbering, and
            // with it fan order, independent of where the walk came from.
            Locate::OnEdge(t, i) => t.min(self.tris[t as usize].n[i as usize]),
        };

        // --- conflict region (cavity) -----------------------------------
        self.epoch += 1;
        let epoch = self.epoch;
        let mut cavity: Vec<u32> = Vec::with_capacity(8);
        let mut stack = vec![seed];
        self.marks[seed as usize] = epoch;
        while let Some(t) = stack.pop() {
            cavity.push(t);
            for i in 0..3 {
                let nb = self.tris[t as usize].n[i];
                if nb == NIL || self.marks[nb as usize] == epoch {
                    continue;
                }
                let tv = self.tris[nb as usize].v;
                let a = self.points[tv[0] as usize];
                let b = self.points[tv[1] as usize];
                let c = self.points[tv[2] as usize];
                if incircle(a, b, c, p) == Orientation::Positive {
                    self.marks[nb as usize] = epoch;
                    stack.push(nb);
                }
            }
        }

        // --- boundary of the cavity --------------------------------------
        // Each entry: (first vertex, second vertex, outer triangle).
        let mut boundary: Vec<(u32, u32, u32)> = Vec::with_capacity(cavity.len() + 2);
        for &t in &cavity {
            let tri = self.tris[t as usize];
            for i in 0..3 {
                let nb = tri.n[i];
                if nb == NIL || self.marks[nb as usize] != epoch {
                    boundary.push((tri.v[(i + 1) % 3], tri.v[(i + 2) % 3], nb));
                }
            }
        }

        let vid = self.alloc_vertex(p);

        // --- re-triangulate the cavity -----------------------------------
        let mut new_tris: Vec<(u32, u32, u32)> = Vec::with_capacity(boundary.len());
        for &(a, b, outer) in &boundary {
            let nt = self.alloc_triangle([vid, a, b]);
            // Neighbour opposite the new vertex is the old outer triangle.
            self.tris[nt as usize].n[0] = outer;
            if outer != NIL {
                let oi = self.tris[outer as usize]
                    .index_of_edge(a, b)
                    .expect("outer triangle shares the boundary edge");
                self.tris[outer as usize].n[oi] = nt;
            }
            self.vert_tri[a as usize] = nt;
            self.vert_tri[b as usize] = nt;
            new_tris.push((a, b, nt));
        }
        // Wire the fan: the triangle on edge (a, b) is adjacent, across the
        // edge (b, vid), to the triangle on the boundary edge starting at b.
        for &(a, b, nt) in &new_tris {
            let next = new_tris
                .iter()
                .find(|&&(s, _, _)| s == b)
                .map(|&(_, _, t)| t)
                .expect("cavity boundary is a closed cycle");
            let prev = new_tris
                .iter()
                .find(|&&(_, e, _)| e == a)
                .map(|&(_, _, t)| t)
                .expect("cavity boundary is a closed cycle");
            self.tris[nt as usize].n[1] = next;
            self.tris[nt as usize].n[2] = prev;
        }
        self.vert_tri[vid as usize] = new_tris[0].2;
        self.hint.store(new_tris[0].2, Ordering::Relaxed);

        for t in cavity {
            self.free_triangle(t);
        }
        self.live_real_vertices += 1;
        Ok(vid)
    }

    // ------------------------------------------------------------------
    // Removal
    // ------------------------------------------------------------------

    /// Removes a real vertex, re-triangulating its star (the overlay's
    /// `RemoveVoronoiRegion`).
    pub fn remove(&mut self, v: VertexId) -> Result<(), RemoveError> {
        if !self.contains_vertex(v) {
            return Err(RemoveError::NotFound);
        }
        if self.is_sentinel(v) {
            return Err(RemoveError::Sentinel);
        }

        // Ordered star: incident triangles counter-clockwise, the link
        // polygon and the outer neighbour across each link edge.
        let mut star = Vec::with_capacity(8);
        self.incident_triangles_into(v, &mut star);
        debug_assert!(star.len() >= 3);
        let mut link: Vec<u32> = Vec::with_capacity(star.len());
        let mut outer: Vec<u32> = Vec::with_capacity(star.len());
        for &t in &star {
            let tri = self.tris[t as usize];
            let i = tri
                .index_of_vertex(v)
                .expect("star triangles contain the removed vertex");
            link.push(tri.v[(i + 1) % 3]);
            outer.push(tri.n[i]);
        }
        let k = link.len();

        // Edge bookkeeping for the hole: entry j describes the edge from
        // polygon[j] to polygon[j+1] and holds the triangle on its far side.
        #[derive(Clone, Copy)]
        enum EdgeRef {
            Outside(u32),
            Created(u32),
        }
        let mut polygon: Vec<u32> = link.clone();
        let mut edges: Vec<EdgeRef> = outer.iter().map(|&o| EdgeRef::Outside(o)).collect();

        for &t in &star {
            self.free_triangle(t);
        }

        let mut created: Vec<u32> = Vec::with_capacity(k.saturating_sub(2));
        let mut flip_queue: Vec<(u32, usize)> = Vec::new();

        // Wires triangle `nt`'s slot `slot` (edge {a,b}) to whatever is on
        // the far side of that edge.
        let wire = |this: &mut Self, nt: u32, slot: usize, a: u32, b: u32, far: EdgeRef| match far {
            EdgeRef::Outside(o) | EdgeRef::Created(o) => {
                this.tris[nt as usize].n[slot] = o;
                if o != NIL {
                    let oi = this.tris[o as usize]
                        .index_of_edge(a, b)
                        .expect("far triangle shares the hole edge");
                    this.tris[o as usize].n[oi] = nt;
                }
            }
        };

        while polygon.len() > 3 {
            let n = polygon.len();
            let ear = self
                .find_ear(&polygon)
                .expect("a simple polygon with positive area always has an ear");
            let prev = (ear + n - 1) % n;
            let next = (ear + 1) % n;
            let (a, b, c) = (polygon[prev], polygon[ear], polygon[next]);
            let nt = self.alloc_triangle([a, b, c]);
            created.push(nt);
            // Slot 2 is edge (a, b); slot 0 is edge (b, c); slot 1 is the new
            // diagonal (c, a).
            let e_ab = edges[prev];
            let e_bc = edges[ear];
            wire(self, nt, 2, a, b, e_ab);
            wire(self, nt, 0, b, c, e_bc);
            self.vert_tri[a as usize] = nt;
            self.vert_tri[b as usize] = nt;
            self.vert_tri[c as usize] = nt;
            flip_queue.push((nt, 1));
            // Collapse the two consumed edges into the diagonal.
            edges[prev] = EdgeRef::Created(nt);
            polygon.remove(ear);
            edges.remove(ear);
        }
        // Final triangle closing the hole.
        let (a, b, c) = (polygon[0], polygon[1], polygon[2]);
        let nt = self.alloc_triangle([a, b, c]);
        created.push(nt);
        wire(self, nt, 2, a, b, edges[0]);
        wire(self, nt, 0, b, c, edges[1]);
        wire(self, nt, 1, c, a, edges[2]);
        self.vert_tri[a as usize] = nt;
        self.vert_tri[b as usize] = nt;
        self.vert_tri[c as usize] = nt;

        // Free the vertex.
        self.vert_alive[v as usize] = false;
        self.vert_tri[v as usize] = NIL;
        self.free_verts.push(v);
        self.live_real_vertices -= 1;
        self.hint.store(
            *created.last().expect("at least one triangle created"),
            Ordering::Relaxed,
        );

        // Restore the Delaunay property on the diagonals created by ear
        // clipping (Lawson flips; hole boundary edges are already Delaunay).
        self.restore_delaunay(flip_queue);
        Ok(())
    }

    /// Finds a clippable ear of the hole polygon: a strictly convex corner
    /// whose triangle contains no other polygon vertex.  Among clippable
    /// ears, one whose circumcircle is empty of the other polygon vertices is
    /// preferred (it is already Delaunay and will not need flipping).
    fn find_ear(&self, polygon: &[u32]) -> Option<usize> {
        let n = polygon.len();
        let mut fallback = None;
        for j in 0..n {
            let a = polygon[(j + n - 1) % n];
            let b = polygon[j];
            let c = polygon[(j + 1) % n];
            let pa = self.points[a as usize];
            let pb = self.points[b as usize];
            let pc = self.points[c as usize];
            if orient2d(pa, pb, pc) != Orientation::Positive {
                continue;
            }
            let mut valid = true;
            let mut delaunay = true;
            for (idx, &q) in polygon.iter().enumerate() {
                if idx == j || idx == (j + n - 1) % n || idx == (j + 1) % n {
                    continue;
                }
                let pq = self.points[q as usize];
                if crate::predicates::point_in_triangle(pa, pb, pc, pq) {
                    valid = false;
                    break;
                }
                if incircle(pa, pb, pc, pq) == Orientation::Positive {
                    delaunay = false;
                }
            }
            if valid {
                if delaunay {
                    return Some(j);
                }
                fallback.get_or_insert(j);
            }
        }
        fallback
    }

    /// Lawson flip propagation from the given (triangle, edge-slot) seeds.
    fn restore_delaunay(&mut self, mut queue: Vec<(u32, usize)>) {
        let mut guard = 0usize;
        let cap = 64 * (queue.len() + 4) * (queue.len() + 4) + 4096;
        while let Some((t, i)) = queue.pop() {
            guard += 1;
            if guard > cap {
                debug_assert!(false, "flip propagation exceeded its bound");
                break;
            }
            if !self.tri_alive[t as usize] {
                continue;
            }
            let nb = self.tris[t as usize].n[i];
            if nb == NIL || !self.tri_alive[nb as usize] {
                continue;
            }
            let tri = self.tris[t as usize];
            let a = self.points[tri.v[0] as usize];
            let b = self.points[tri.v[1] as usize];
            let c = self.points[tri.v[2] as usize];
            let other = self.tris[nb as usize];
            let oi = other
                .index_of_edge(tri.v[(i + 1) % 3], tri.v[(i + 2) % 3])
                .expect("adjacent triangles share an edge");
            let d = self.points[other.v[oi] as usize];
            if incircle(a, b, c, d) == Orientation::Positive {
                self.flip(t, i);
                // Re-examine the four outer edges of the new pair.
                for &(tt, slot) in &[(t, 1usize), (t, 2usize), (nb, 1usize), (nb, 2usize)] {
                    queue.push((tt, slot));
                }
                // Also re-check the flipped diagonal's far sides.
                queue.push((t, 0));
                queue.push((nb, 0));
            }
        }
    }

    /// Flips the edge opposite slot `i1` of triangle `t1` with its neighbour.
    ///
    /// After the flip, `t1` and the old neighbour `t2` are reused for the two
    /// new triangles and the flipped diagonal is the edge at slot 0 of both.
    fn flip(&mut self, t1: u32, i1: usize) {
        let t2 = self.tris[t1 as usize].n[i1];
        debug_assert!(t2 != NIL);
        let tri1 = self.tris[t1 as usize];
        let tri2 = self.tris[t2 as usize];
        let a = tri1.v[i1];
        let b = tri1.v[(i1 + 1) % 3];
        let c = tri1.v[(i1 + 2) % 3];
        let i2 = tri2
            .index_of_edge(b, c)
            .expect("neighbour shares the flipped edge");
        let d = tri2.v[i2];

        // Outer neighbours of the quad (a, b, d, c).
        let n_ab = tri1.n[(i1 + 2) % 3]; // opposite c: edge (a, b)
        let n_ca = tri1.n[(i1 + 1) % 3]; // opposite b: edge (c, a)
        let n_bd = tri2
            .n
            .iter()
            .enumerate()
            .find(|&(j, _)| {
                let p = tri2.v[(j + 1) % 3];
                let q = tri2.v[(j + 2) % 3];
                (p == b && q == d) || (p == d && q == b)
            })
            .map(|(j, _)| tri2.n[j])
            .expect("quad edge (b, d) exists");
        let n_dc = tri2
            .n
            .iter()
            .enumerate()
            .find(|&(j, _)| {
                let p = tri2.v[(j + 1) % 3];
                let q = tri2.v[(j + 2) % 3];
                (p == d && q == c) || (p == c && q == d)
            })
            .map(|(j, _)| tri2.n[j])
            .expect("quad edge (d, c) exists");

        // New triangles: (a, b, d) and (a, d, c); diagonal (a, d) at slot 0
        // of... careful: slot 0 is opposite v[0]. For (a, b, d) the diagonal
        // (a, d) is opposite b (slot 1); re-derive slots explicitly instead.
        self.tris[t1 as usize] = Triangle {
            v: [a, b, d],
            n: [n_bd, t2, n_ab],
        };
        self.tris[t2 as usize] = Triangle {
            v: [a, d, c],
            n: [n_dc, n_ca, t1],
        };

        // Fix back-pointers of the outer neighbours.
        for &(outer, x, y, me) in &[
            (n_ab, a, b, t1),
            (n_bd, b, d, t1),
            (n_dc, d, c, t2),
            (n_ca, c, a, t2),
        ] {
            if outer != NIL {
                let oi = self.tris[outer as usize]
                    .index_of_edge(x, y)
                    .expect("outer neighbour shares its edge");
                self.tris[outer as usize].n[oi] = me;
            }
        }

        // Vertex-to-triangle hints.
        self.vert_tri[a as usize] = t1;
        self.vert_tri[b as usize] = t1;
        self.vert_tri[d as usize] = t2;
        self.vert_tri[c as usize] = t2;
    }

    // ------------------------------------------------------------------
    // Renumbering
    // ------------------------------------------------------------------

    /// Renumbers the live real vertices in the order a Hilbert curve over
    /// the domain visits their points, so that vertices close in space get
    /// close ids and every array indexed by vertex id is read in the order
    /// a walk meets it (the BRIO idea of Amenta, Choi & Rote, SoCG 2003).
    /// Returns the map from old id to new id, `u32::MAX` for an id that was
    /// not live.
    ///
    /// Equal curve keys go in old-id order.  The four sentinels keep ids
    /// 0–3, dead ids are dropped, so the ids afterwards are exactly
    /// `0..SENTINEL_COUNT + len()` and the next insertion takes a fresh
    /// one.  Only vertex labels change: triangle ids, neighbour links, the
    /// triangle each fan walk starts from and the walk hint stay as they
    /// are, so every later location, insertion, removal and neighbour scan
    /// makes the same decisions, in the same order, on relabelled vertices.
    pub fn renumber(&mut self) -> Vec<VertexId> {
        // Key in the high half, old id in the low half: one sort orders by
        // curve position with ties to the lower old id.  The stable sort
        // finds the long runs the last renumbering left in id order.
        let mut order: Vec<u64> = self
            .vertices()
            .map(|v| {
                let key = hilbert_key(self.domain, self.points[v as usize]);
                u64::from(key) << 32 | u64::from(v)
            })
            .collect();
        order.sort();
        let mut map = vec![NIL; self.points.len()];
        for s in 0..SENTINEL_COUNT {
            map[s as usize] = s;
        }
        for (new, &k) in (SENTINEL_COUNT..).zip(&order) {
            map[k as u32 as usize] = new;
        }
        let ids = SENTINEL_COUNT as usize + order.len();
        drop(order);

        apply_renumbering(&mut self.points, &map);
        apply_renumbering(&mut self.vert_tri, &map);
        self.vert_alive.truncate(ids);
        self.vert_alive.fill(true);
        self.free_verts.clear();
        for (tri, &alive) in self.tris.iter_mut().zip(&self.tri_alive) {
            if alive {
                tri.v = tri.v.map(|v| map[v as usize]);
            }
        }
        map
    }

    // ------------------------------------------------------------------
    // Validation (used by tests and debug assertions)
    // ------------------------------------------------------------------

    /// Checks the structural invariants and the Delaunay property of every
    /// live edge.  Intended for tests; cost is O(T · cost(incircle)).
    pub fn validate(&self) -> Result<(), String> {
        for (ti, tri) in self.tris.iter().enumerate() {
            if !self.tri_alive[ti] {
                continue;
            }
            let pa = self.points[tri.v[0] as usize];
            let pb = self.points[tri.v[1] as usize];
            let pc = self.points[tri.v[2] as usize];
            for &v in &tri.v {
                if !self.contains_vertex(v) {
                    return Err(format!("triangle {ti} references dead vertex {v}"));
                }
            }
            if orient2d(pa, pb, pc) != Orientation::Positive {
                return Err(format!("triangle {ti} is not counter-clockwise"));
            }
            for i in 0..3 {
                let nb = tri.n[i];
                if nb == NIL {
                    continue;
                }
                if !self.tri_alive[nb as usize] {
                    return Err(format!("triangle {ti} has dead neighbour {nb}"));
                }
                let a = tri.v[(i + 1) % 3];
                let b = tri.v[(i + 2) % 3];
                let other = &self.tris[nb as usize];
                let oi = match other.index_of_edge(a, b) {
                    Some(oi) => oi,
                    None => {
                        return Err(format!(
                            "triangles {ti} and {nb} disagree about their shared edge"
                        ))
                    }
                };
                if other.n[oi] != ti as u32 {
                    return Err(format!(
                        "neighbour back-pointer broken between {ti} and {nb}"
                    ));
                }
                // Local Delaunay check.
                let d = self.points[other.v[oi] as usize];
                if incircle(pa, pb, pc, d) == Orientation::Positive {
                    return Err(format!(
                        "edge between triangles {ti} and {nb} violates the Delaunay property"
                    ));
                }
            }
        }
        for v in 0..self.vert_alive.len() {
            if !self.vert_alive[v] {
                continue;
            }
            let t = self.vert_tri[v];
            if t == NIL || !self.tri_alive[t as usize] {
                return Err(format!("vertex {v} has no live incident triangle"));
            }
            if self.tris[t as usize].index_of_vertex(v as u32).is_none() {
                return Err(format!("vertex {v} hint triangle does not contain it"));
            }
        }
        Ok(())
    }

    /// Euler-characteristic sanity count: `T = 2·V − 2 − H` for a
    /// triangulated convex region with `H` hull vertices (here the sentinel
    /// box, `H = 4`), counting all live vertices.
    pub fn euler_check(&self) -> bool {
        let v = self.live_real_vertices + SENTINEL_COUNT as usize;
        let t = self.num_triangles();
        t == 2 * v - 2 - 4
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FanPhase {
    Ccw,
    Cw,
    Done,
}

/// Allocation-free iterator over the Delaunay neighbours of one vertex,
/// produced by [`Triangulation::neighbors_iter`].
///
/// Walks the incident-triangle fan counter-clockwise; when the fan is open
/// (which only happens at the sentinel vertices, since the sentinel box
/// keeps every real vertex interior) it restarts at the first triangle and
/// sweeps clockwise to cover the remaining wedge.
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    t: &'a Triangulation,
    v: VertexId,
    start: u32,
    cur: u32,
    phase: FanPhase,
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        match self.phase {
            FanPhase::Done => None,
            FanPhase::Ccw => {
                let tri = &self.t.tris[self.cur as usize];
                let i = tri
                    .index_of_vertex(self.v)
                    .expect("vert_tri invariant: triangle contains its vertex");
                let out = tri.v[(i + 1) % 3];
                let next = tri.n[(i + 1) % 3];
                if next == NIL {
                    // Open fan: switch to the clockwise sweep from the start.
                    self.phase = FanPhase::Cw;
                    self.cur = self.start;
                } else if next == self.start {
                    self.phase = FanPhase::Done;
                } else {
                    self.cur = next;
                }
                Some(out)
            }
            FanPhase::Cw => {
                let tri = &self.t.tris[self.cur as usize];
                let i = tri
                    .index_of_vertex(self.v)
                    .expect("vert_tri invariant: triangle contains its vertex");
                let prev = tri.n[(i + 2) % 3];
                if prev == NIL || prev == self.start {
                    self.phase = FanPhase::Done;
                    return None;
                }
                self.cur = prev;
                let tri = &self.t.tris[self.cur as usize];
                let i = tri
                    .index_of_vertex(self.v)
                    .expect("vert_tri invariant: triangle contains its vertex");
                Some(tri.v[(i + 1) % 3])
            }
        }
    }
}

impl std::fmt::Debug for Triangulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Triangulation")
            .field("real_vertices", &self.live_real_vertices)
            .field("triangles", &self.num_triangles())
            .field("domain", &self.domain)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.random::<f64>(), rng.random::<f64>()))
            .collect()
    }

    #[test]
    fn empty_triangulation_invariants() {
        let t = Triangulation::unit_square();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.num_triangles(), 2);
        assert!(t.euler_check());
        t.validate().unwrap();
        assert_eq!(t.nearest_vertex(Point2::new(0.5, 0.5)), None);
    }

    #[test]
    fn single_insertion() {
        let mut t = Triangulation::unit_square();
        let v = t.insert(Point2::new(0.5, 0.5)).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_sentinel(v));
        assert_eq!(t.num_triangles(), 4);
        assert!(t.euler_check());
        t.validate().unwrap();
        assert_eq!(t.real_degree(v), 0);
        assert_eq!(t.neighbors_iter(v).count(), 4);
        assert_eq!(t.nearest_vertex(Point2::new(0.1, 0.9)), Some(v));
    }

    #[test]
    fn duplicate_insertion_rejected() {
        let mut t = Triangulation::unit_square();
        let v = t.insert(Point2::new(0.25, 0.75)).unwrap();
        assert_eq!(
            t.insert(Point2::new(0.25, 0.75)),
            Err(InsertError::Duplicate(v))
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn outside_domain_rejected() {
        let mut t = Triangulation::unit_square();
        assert_eq!(
            t.insert(Point2::new(1.5, 0.5)),
            Err(InsertError::OutsideDomain)
        );
        assert_eq!(
            t.insert(Point2::new(f64::NAN, 0.5)),
            Err(InsertError::NotFinite)
        );
    }

    #[test]
    fn random_insertions_stay_delaunay() {
        let mut t = Triangulation::unit_square();
        for p in random_points(300, 42) {
            t.insert(p).unwrap();
        }
        assert_eq!(t.len(), 300);
        assert!(t.euler_check());
        t.validate().unwrap();
    }

    #[test]
    fn grid_insertions_handle_cocircular_points() {
        // A regular grid is maximally degenerate: every unit cell is
        // co-circular and many points are collinear.
        let mut t = Triangulation::unit_square();
        let n = 12;
        for i in 0..n {
            for j in 0..n {
                let p = Point2::new(i as f64 / (n - 1) as f64, j as f64 / (n - 1) as f64);
                t.insert(p).unwrap();
            }
        }
        assert_eq!(t.len(), n * n);
        assert!(t.euler_check());
        t.validate().unwrap();
    }

    #[test]
    fn collinear_insertions() {
        let mut t = Triangulation::unit_square();
        for i in 0..50 {
            let x = i as f64 / 49.0;
            t.insert(Point2::new(x, 0.5)).unwrap();
        }
        assert_eq!(t.len(), 50);
        t.validate().unwrap();
    }

    #[test]
    fn locate_results_are_consistent() {
        let mut t = Triangulation::unit_square();
        let pts = random_points(100, 7);
        let ids: Vec<_> = pts.iter().map(|&p| t.insert(p).unwrap()).collect();
        for (&p, &v) in pts.iter().zip(&ids) {
            assert_eq!(t.locate(p), Locate::OnVertex(v));
        }
        match t.locate(Point2::new(0.5, 0.5)) {
            Locate::Inside(_) | Locate::OnEdge(_, _) | Locate::OnVertex(_) => {}
            Locate::Outside => panic!("interior point located outside"),
        }
        assert_eq!(t.locate(Point2::new(500.0, 0.5)), Locate::Outside);
    }

    #[test]
    fn nearest_vertex_matches_brute_force() {
        let mut t = Triangulation::unit_square();
        let pts = random_points(200, 3);
        let ids: Vec<_> = pts.iter().map(|&p| t.insert(p).unwrap()).collect();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let q = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            let found = t.nearest_vertex(q).unwrap();
            let brute = ids
                .iter()
                .min_by(|&&a, &&b| {
                    t.point(a)
                        .distance2(q)
                        .partial_cmp(&t.point(b).distance2(q))
                        .unwrap()
                })
                .copied()
                .unwrap();
            assert_eq!(
                t.point(found).distance2(q),
                t.point(brute).distance2(q),
                "greedy descent must find a true nearest vertex"
            );
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let mut t = Triangulation::unit_square();
        for p in random_points(150, 11) {
            t.insert(p).unwrap();
        }
        for v in t.vertices().collect::<Vec<_>>() {
            for n in t.real_neighbors_iter(v) {
                assert!(
                    t.real_neighbors_iter(n).any(|back| back == v),
                    "neighbour relation must be symmetric"
                );
            }
        }
    }

    #[test]
    fn removal_restores_delaunay() {
        let mut t = Triangulation::unit_square();
        let pts = random_points(120, 5);
        let ids: Vec<_> = pts.iter().map(|&p| t.insert(p).unwrap()).collect();
        // Remove every third vertex.
        for (i, &v) in ids.iter().enumerate() {
            if i % 3 == 0 {
                t.remove(v).unwrap();
                assert!(!t.contains_vertex(v));
            }
        }
        assert_eq!(t.len(), 120 - 40);
        assert!(t.euler_check());
        t.validate().unwrap();
    }

    #[test]
    fn remove_everything_then_reinsert() {
        let mut t = Triangulation::unit_square();
        let pts = random_points(60, 13);
        let ids: Vec<_> = pts.iter().map(|&p| t.insert(p).unwrap()).collect();
        for &v in &ids {
            t.remove(v).unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.num_triangles(), 2);
        t.validate().unwrap();
        for p in random_points(60, 14) {
            t.insert(p).unwrap();
        }
        assert_eq!(t.len(), 60);
        t.validate().unwrap();
    }

    #[test]
    fn removal_errors() {
        let mut t = Triangulation::unit_square();
        let v = t.insert(Point2::new(0.3, 0.3)).unwrap();
        assert_eq!(t.remove(0), Err(RemoveError::Sentinel));
        assert_eq!(t.remove(9999), Err(RemoveError::NotFound));
        t.remove(v).unwrap();
        assert_eq!(t.remove(v), Err(RemoveError::NotFound));
    }

    #[test]
    fn removal_on_grid_degeneracies() {
        let mut t = Triangulation::unit_square();
        let n = 8;
        let mut ids = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let p = Point2::new(i as f64 / (n - 1) as f64, j as f64 / (n - 1) as f64);
                ids.push(t.insert(p).unwrap());
            }
        }
        // Remove the interior of the grid in a checkerboard pattern.
        for (k, &v) in ids.iter().enumerate() {
            if k % 2 == 0 {
                t.remove(v).unwrap();
            }
        }
        t.validate().unwrap();
        assert!(t.euler_check());
    }

    #[test]
    fn churn_insert_remove_interleaved() {
        let mut t = Triangulation::unit_square();
        let mut rng = StdRng::seed_from_u64(77);
        let mut live: Vec<u32> = Vec::new();
        for step in 0..600 {
            if live.len() < 5 || rng.random::<f64>() < 0.6 {
                let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
                if let Ok(v) = t.insert(p) {
                    live.push(v);
                }
            } else {
                let idx = rng.random_range(0..live.len());
                let v = live.swap_remove(idx);
                t.remove(v).unwrap();
            }
            if step % 100 == 0 {
                t.validate().unwrap();
            }
        }
        t.validate().unwrap();
        assert_eq!(t.len(), live.len());
    }

    #[test]
    fn expected_degree_is_about_six() {
        let mut t = Triangulation::unit_square();
        for p in random_points(2000, 21) {
            t.insert(p).unwrap();
        }
        let degrees: Vec<usize> = t.vertices().map(|v| t.real_degree(v)).collect();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        // Interior vertices have expected degree 6; hull-adjacent vertices
        // lower the average slightly.
        assert!(mean > 5.4 && mean < 6.2, "mean degree {mean} out of range");
    }

    #[test]
    fn neighbor_iter_matches_brute_force() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut t = Triangulation::unit_square();
        for p in random_points(120, 91) {
            t.insert(p).unwrap();
        }
        // Independent oracle: adjacency reconstructed by scanning every live
        // triangle, with no fan walking involved.
        let mut oracle: BTreeMap<VertexId, BTreeSet<VertexId>> = BTreeMap::new();
        for tri in t.triangles() {
            for i in 0..3 {
                oracle.entry(tri[i]).or_default().insert(tri[(i + 1) % 3]);
                oracle.entry(tri[i]).or_default().insert(tri[(i + 2) % 3]);
            }
        }
        // Real vertices and the four sentinels (open fans) must agree with
        // the oracle, each neighbour emitted exactly once.  Real vertices are
        // always interior (closed fans), so the walk must reproduce the
        // mesh adjacency exactly; a sentinel's open fan yields one
        // neighbour per incident triangle, which under-reports the far end
        // of its boundary edge — irrelevant to the overlay (sentinels are
        // never routed through) but pinned here as a subset.
        for v in (0..SENTINEL_COUNT).chain(t.vertices().collect::<Vec<_>>()) {
            let collected: Vec<_> = t.neighbors_iter(v).collect();
            let as_set: BTreeSet<_> = collected.iter().copied().collect();
            if t.is_sentinel(v) {
                assert!(
                    as_set.is_subset(&oracle[&v]),
                    "fan walk invented a neighbour at sentinel {v}"
                );
            } else {
                assert_eq!(
                    as_set, oracle[&v],
                    "fan walk disagrees with the mesh at {v}"
                );
            }
            assert_eq!(as_set.len(), collected.len(), "duplicate neighbour at {v}");
            let real = collected.iter().filter(|&&n| !t.is_sentinel(n)).count();
            assert_eq!(t.real_degree(v), real);
            for &n in &collected {
                assert!(t.are_neighbors(v, n));
            }
        }
    }

    #[test]
    fn removal_of_low_degree_vertices_keeps_invariants() {
        // A vertex inserted inside a triangle has degree 3 (the minimum);
        // removing it exercises the smallest possible hole polygon.
        let mut t = Triangulation::unit_square();
        let a = t.insert(Point2::new(0.2, 0.2)).unwrap();
        let b = t.insert(Point2::new(0.8, 0.2)).unwrap();
        let c = t.insert(Point2::new(0.5, 0.8)).unwrap();
        let mid = t.insert(Point2::new(0.5, 0.4)).unwrap();
        assert_eq!(t.real_degree(mid), 3);
        t.remove(mid).unwrap();
        t.validate().unwrap();
        assert!(t.euler_check());
        // Remove the remaining vertices down to the empty triangulation,
        // checking the structure after every single removal.
        for v in [a, b, c] {
            t.remove(v).unwrap();
            t.validate().unwrap();
            assert!(t.euler_check());
        }
        assert!(t.is_empty());
    }

    #[test]
    fn removal_of_hull_adjacent_vertices_keeps_invariants() {
        // Vertices on the domain boundary (corners and edge midpoints) are
        // Delaunay neighbours of the sentinel vertices; their stars contain
        // sentinel triangles, which the ear-clipping removal must handle.
        let mut t = Triangulation::unit_square();
        let boundary = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.0),
            Point2::new(1.0, 0.5),
            Point2::new(0.5, 1.0),
            Point2::new(0.0, 0.5),
        ];
        let mut ids = Vec::new();
        for p in boundary {
            ids.push(t.insert(p).unwrap());
        }
        for p in random_points(40, 93) {
            t.insert(p).unwrap();
        }
        t.validate().unwrap();
        for v in ids {
            assert!(
                t.neighbors_iter(v).any(|u| t.is_sentinel(u)),
                "boundary vertex {v} should touch the sentinel hull"
            );
            t.remove(v).unwrap();
            t.validate().unwrap();
            assert!(t.euler_check());
        }
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn hilbert_keys_walk_the_grid_one_cell_at_a_time() {
        // The curve's first 4⁶ cells fill the 64 × 64 corner square, each
        // once, each a side-neighbour of the one before.
        let mut by_key = vec![None; 64 * 64];
        for x in 0..64 {
            for y in 0..64 {
                let key = curve_position(x, y) as usize;
                assert!(by_key[key].replace((x, y)).is_none(), "key {key} twice");
            }
        }
        let path: Vec<(u32, u32)> = by_key.into_iter().map(Option::unwrap).collect();
        for w in path.windows(2) {
            let ((ax, ay), (bx, by)) = (w[0], w[1]);
            assert_eq!(ax.abs_diff(bx) + ay.abs_diff(by), 1, "{:?}", w);
        }
        assert_eq!(
            curve_position(65_535, 0),
            u32::MAX,
            "the curve ends in the other corner"
        );
    }

    /// `v`'s new id under a renumbering map (sentinels map to themselves).
    fn relabel(map: &[VertexId], v: VertexId) -> VertexId {
        map[v as usize]
    }

    /// Renumbering relabels and does nothing else: on random points with
    /// holes left by removals and on a co-circular grid, every triangle,
    /// fan and point is the old one relabelled, ids follow the curve, and
    /// the two triangulations go on making the same decisions — the same
    /// insertions (the renumbered one takes fresh ids, the other recycles),
    /// removals and nearest vertices, ties included.
    #[test]
    fn renumbering_only_relabels() {
        let grid: Vec<Point2> = (0..144)
            .map(|k| Point2::new((k % 12) as f64 / 16.0, (k / 12) as f64 / 16.0))
            .collect();
        for pts in [random_points(400, 17), grid] {
            let mut plain = Triangulation::unit_square();
            let ids: Vec<_> = pts.iter().map(|&p| plain.insert(p).unwrap()).collect();
            for &v in ids.iter().step_by(5) {
                plain.remove(v).unwrap();
            }
            let mut renumbered = plain.clone();
            let mut map = renumbered.renumber();
            renumbered.validate().unwrap();
            assert!(renumbered.euler_check());
            assert_eq!(&map[..4], &[0, 1, 2, 3]);
            let mut new_ids: Vec<_> = plain.vertices().map(|v| relabel(&map, v)).collect();
            new_ids.sort_unstable();
            assert!(new_ids
                .iter()
                .copied()
                .eq(SENTINEL_COUNT..SENTINEL_COUNT + plain.len() as u32));
            assert!(renumbered
                .vertices()
                .eq(SENTINEL_COUNT..SENTINEL_COUNT + plain.len() as u32));
            for (v, &new) in map.iter().enumerate() {
                assert_eq!(new == NIL, !plain.contains_vertex(v as u32), "vertex {v}");
            }
            let keys: Vec<u32> = renumbered
                .vertices()
                .map(|v| {
                    let p = renumbered.point(v);
                    let cell = |c: f64| (c * HILBERT_SIDE).min(HILBERT_SIDE - 1.0) as u32;
                    curve_position(cell(p.x), cell(p.y))
                })
                .collect();
            assert!(keys.is_sorted(), "ids follow the curve");

            let mut rng = StdRng::seed_from_u64(5);
            let mut live: Vec<VertexId> = plain.vertices().collect();
            for step in 0..300 {
                assert!(plain
                    .triangles()
                    .map(|t| t.map(|v| relabel(&map, v)))
                    .eq(renumbered.triangles()));
                for &v in &live {
                    assert_eq!(plain.point(v), renumbered.point(relabel(&map, v)));
                    assert!(plain
                        .neighbors_iter(v)
                        .map(|u| relabel(&map, u))
                        .eq(renumbered.neighbors_iter(relabel(&map, v))));
                }
                // A lattice target, often equidistant from several points.
                let q = Point2::new(
                    rng.random_range(0..32u32) as f64 / 32.0,
                    rng.random_range(0..32u32) as f64 / 32.0,
                );
                let nearest = plain.nearest_vertex(q).unwrap();
                assert_eq!(renumbered.nearest_vertex(q), Some(relabel(&map, nearest)));
                if step % 3 == 0 {
                    let v = live.swap_remove(rng.random_range(0..live.len()));
                    plain.remove(v).unwrap();
                    renumbered.remove(relabel(&map, v)).unwrap();
                } else {
                    let old = plain.insert(q);
                    let new = renumbered.insert(q);
                    match (old, new) {
                        (Ok(o), Ok(n)) => {
                            map.resize(map.len().max(o as usize + 1), NIL);
                            map[o as usize] = n;
                            live.push(o);
                        }
                        (Err(InsertError::Duplicate(o)), Err(InsertError::Duplicate(n))) => {
                            assert_eq!(relabel(&map, o), n)
                        }
                        other => panic!("step {step}: {other:?}"),
                    }
                }
            }
            renumbered.validate().unwrap();
        }
    }

    #[test]
    fn point_location_is_sound_under_concurrent_readers() {
        // The walk hint and tiebreak RNG are relaxed atomics, so `&self`
        // point location is sound (and deterministic in its *result*) when
        // many threads locate through one shared triangulation.
        fn assert_sync<T: Sync>() {}
        assert_sync::<Triangulation>();

        // Random points and a 12 × 12 lattice; the lattice targets between
        // lattice points are equidistant from two or four of them, so the
        // expected owner is the brute-force one with the least coordinates.
        let mut t = Triangulation::unit_square();
        let lattice = (0..144).map(|k| Point2::new((k % 12) as f64 / 16.0, (k / 12) as f64 / 16.0));
        let pts: Vec<Point2> = random_points(300, 61).into_iter().chain(lattice).collect();
        let ids: Vec<_> = pts.iter().map(|&p| t.insert(p).unwrap()).collect();
        let ties =
            (0..24 * 24).map(|k| Point2::new((k % 24) as f64 / 32.0, (k / 24) as f64 / 32.0));
        let queries: Vec<Point2> = random_points(400, 62).into_iter().chain(ties).collect();
        let expected: Vec<VertexId> = queries
            .iter()
            .map(|&q| {
                let key = |v: VertexId| (t.point(v).distance2(q), t.point(v).x, t.point(v).y);
                *ids.iter()
                    .min_by(|&&a, &&b| key(a).partial_cmp(&key(b)).unwrap())
                    .unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for worker in 0..4 {
                let t = &t;
                let queries = &queries;
                let expected = &expected;
                let ids = &ids;
                s.spawn(move || {
                    // Each worker starts at its own offset, so the walk
                    // hints the others leave differ from query to query.
                    for k in 0..queries.len() {
                        let i = (k + worker * 97) % queries.len();
                        let q = queries[i];
                        assert_eq!(t.nearest_vertex(q), Some(expected[i]), "{q}");
                        match t.locate(q) {
                            Locate::Inside(_) | Locate::OnEdge(_, _) | Locate::OnVertex(_) => {}
                            Locate::Outside => panic!("interior point located outside"),
                        }
                        let v = ids[(i * 7 + worker) % ids.len()];
                        assert_eq!(t.locate(t.point(v)), Locate::OnVertex(v));
                    }
                });
            }
        });
    }
}
