//! # voronet-geom
//!
//! Robust 2-D computational geometry substrate for the VoroNet
//! reproduction (Beaumont, Kermarrec, Marchal, Rivière — *VoroNet: A
//! scalable object network based on Voronoi tessellations*, IPDPS 2007).
//!
//! The crate provides everything the overlay needs from computational
//! geometry, implemented from scratch:
//!
//! * [`Point2`], [`Rect`], [`Polygon`] — elementary planar types;
//! * [`greedy_next`], [`greedy_descent`] — the paper's one routing rule
//!   (`Greedyneighbour`), which every greedy walk in the workspace calls;
//! * [`predicates`] — exact orientation and in-circle tests (floating-point
//!   filter with an exact expansion-arithmetic fallback), the robustness
//!   mechanism standing in for the paper's Sugihara–Iri construction;
//! * [`Triangulation`] — incremental Delaunay triangulation with point
//!   location, insertion and removal, the structure behind `vn(o)`,
//!   `AddVoronoiRegion` and `RemoveVoronoiRegion`;
//! * [`voronoi`] — Voronoi cells, `DistanceToRegion` and region-ownership
//!   queries;
//! * [`hull`] — convex hull and a brute-force Delaunay oracle used to
//!   validate the incremental structure.
//!
//! ```
//! use voronet_geom::{Point2, Triangulation};
//!
//! let mut tri = Triangulation::unit_square();
//! let a = tri.insert(Point2::new(0.2, 0.3)).unwrap();
//! let b = tri.insert(Point2::new(0.7, 0.8)).unwrap();
//! assert!(tri.are_neighbors(a, b));
//! assert_eq!(tri.nearest_vertex(Point2::new(0.1, 0.1)), Some(a));
//! ```

#![warn(missing_docs)]

pub mod expansion;
mod greedy;
pub mod hull;
pub mod point;
pub mod predicates;
pub mod triangulation;
pub mod voronoi;

pub use greedy::{greedy_descent, greedy_next};
pub use point::{clip_to_rect_into, Point2, Polygon, Rect};
pub use predicates::{circumcenter, incircle, orient2d, Orientation};
pub use triangulation::{
    hilbert_key, InsertError, Locate, RemoveError, TriId, Triangulation, VertexId,
};
pub use voronoi::{distance_to_region, voronoi_cell, VoronoiCell};
