//! The frozen-snapshot execution under differential test, plus fault
//! injection.
//!
//! [`FrozenReplay`] drives its own [`VoroNet`] through the same op
//! sequence as the engines, but serves every route through a
//! [`FrozenView`] kept current by **epoch-keyed delta refresh**
//! ([`FrozenView::refresh`]), exercised at *every* read so each write
//! barrier's patch is covered by the differential oracle (a faithful run
//! freezes from scratch exactly once and patches thereafter).  The view
//! walks its fans on the tessellation and reads its long links from their
//! column, so agreeing with the live walk cross-checks those segments of
//! the overlay's routing rows as well; its close segments are read from
//! the live rows, whose only independent referee is the audit's
//! recomputation from the points (`VoroNet::audit_invariants`).  Traffic
//! deltas are replayed onto the overlay after each read, which must
//! reproduce the live engines' counters bit for bit.  The replay tallies
//! its refreshes and reports them through [`Overlay::snapshot_stats`].
//!
//! [`Fault`] deliberately corrupts this execution (never the shared
//! production code): the harness's self-test injects a wrong hop count
//! into the frozen route results and asserts the differential checker
//! catches it and the shrinker reduces the offending script to a handful
//! of ops.

use voronet_api::{
    InsertOutcome, Overlay, OverlayStats, QueryOutcome, RemoveOutcome, RouteOutcome,
};
use voronet_core::queries::{radius_query_in, range_query_in};
use voronet_core::snapshot::{FrozenView, RouteScratch, SnapshotStats, ViewRefresh};
use voronet_core::{ObjectId, ObjectView, VoroNet, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_sim::RouteStats;
use voronet_workloads::{RadiusQuery, RangeQuery};

/// A deliberate defect injected into the frozen execution (self-test
/// instrumentation; [`Fault::None`] in every real fuzz run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the frozen execution is faithful.
    #[default]
    None,
    /// Every frozen route that takes at least one hop reports one hop too
    /// many — the "wrong hop in a scratch copy of `FrozenView`" defect the
    /// acceptance self-test plants and expects to be caught and shrunk.
    FrozenRouteExtraHop,
}

/// The frozen-view execution of an op sequence (see the [module
/// docs](self)).
pub struct FrozenReplay {
    net: VoroNet,
    routes: RouteStats,
    scratch: RouteScratch,
    view: Option<FrozenView>,
    /// How `view` was kept current, refresh by refresh.
    views: SnapshotStats,
    fault: Fault,
}

impl FrozenReplay {
    /// Creates a replay engine over a fresh overlay.
    pub fn new(config: VoroNetConfig, fault: Fault) -> Self {
        FrozenReplay {
            net: VoroNet::new(config),
            routes: RouteStats::new(),
            scratch: RouteScratch::new(),
            view: None,
            views: SnapshotStats::default(),
            fault,
        }
    }

    /// Read access to the underlying overlay.
    pub fn net(&self) -> &VoroNet {
        &self.net
    }

    fn sabotage(&self, owner: ObjectId, hops: u32) -> RouteOutcome {
        let hops = match self.fault {
            Fault::FrozenRouteExtraHop if hops >= 1 => hops + 1,
            _ => hops,
        };
        RouteOutcome { owner, hops }
    }

    /// Runs one frozen-view walk (`FrozenView::route_to_point_in` or
    /// `FrozenView::route_between_in`), replays the accounting and applies
    /// the configured fault to the outcome.
    fn frozen_route(
        &mut self,
        walk: impl FnOnce(&FrozenView, &mut RouteScratch) -> Result<(ObjectId, u32), VoronetError>,
    ) -> Result<RouteOutcome, VoronetError> {
        // Epoch-keyed maintenance: freeze once, then bring the retained
        // view forward through the change log at every read, so the oracle
        // exercises patching after every interleaved write.
        let refresh = match self.view.as_mut() {
            None => {
                self.view = Some(self.net.freeze());
                ViewRefresh::Rebuilt
            }
            Some(view) => view.refresh(&self.net),
        };
        self.views.absorb(&refresh);
        let view = self.view.as_ref().expect("just built");
        self.scratch.delta.clear();
        let (owner, hops) = walk(view, &mut self.scratch)?;
        self.net.apply_traffic(&self.scratch.delta);
        self.routes.record(hops);
        Ok(self.sabotage(owner, hops))
    }
}

/// The [`Overlay`] implementation mirrors the per-op semantics of the
/// synchronous engine but serves every read through the retained frozen
/// snapshot; writes do not drop the view — the epoch moves on and the
/// next read delta-patches the retained snapshot forward.  Implementing
/// the trait lets the service layer (`ServiceEngine`) wrap this replay
/// exactly like the production engines.
impl Overlay for FrozenReplay {
    fn engine_name(&self) -> &'static str {
        "frozen"
    }

    fn config(&self) -> &VoroNetConfig {
        self.net.config()
    }

    fn len(&self) -> usize {
        self.net.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.net.contains(id)
    }

    fn coords(&self, id: ObjectId) -> Option<Point2> {
        self.net.coords(id)
    }

    fn id_at(&self, index: usize) -> Option<ObjectId> {
        self.net.id_at(index)
    }

    fn insert(&mut self, position: Point2) -> Result<InsertOutcome, VoronetError> {
        let report = self.net.insert(position)?;
        Ok(InsertOutcome { id: report.id })
    }

    fn remove(&mut self, id: ObjectId) -> Result<RemoveOutcome, VoronetError> {
        self.net.remove(id)?;
        Ok(RemoveOutcome { id })
    }

    fn route(&mut self, from: ObjectId, target: Point2) -> Result<RouteOutcome, VoronetError> {
        self.frozen_route(|view, scratch| view.route_to_point_in(from, target, scratch))
    }

    fn route_between(
        &mut self,
        from: ObjectId,
        to: ObjectId,
    ) -> Result<RouteOutcome, VoronetError> {
        self.frozen_route(|view, scratch| view.route_between_in(from, to, scratch))
    }

    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError> {
        self.scratch.delta.clear();
        let report = range_query_in(&self.net, from, query, &mut self.scratch)?;
        self.net.apply_traffic(&self.scratch.delta);
        Ok(report.into())
    }

    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError> {
        self.scratch.delta.clear();
        let report = radius_query_in(&self.net, from, query, &mut self.scratch)?;
        self.net.apply_traffic(&self.scratch.delta);
        Ok(report.into())
    }

    fn snapshot(&self, id: ObjectId) -> Result<ObjectView, VoronetError> {
        self.net.view(id)
    }

    fn stats(&self) -> OverlayStats {
        OverlayStats {
            population: self.net.len(),
            messages: self.net.traffic().total(),
            routes_completed: self.routes.count() as u64,
            mean_route_hops: if self.routes.count() == 0 {
                0.0
            } else {
                self.routes.mean()
            },
        }
    }

    /// Snapshot-maintenance economics of this replay: a faithful run over
    /// a script with interleaved writes shows exactly one full rebuild
    /// (the first read) and a delta patch per read-after-write barrier.
    fn snapshot_stats(&self) -> SnapshotStats {
        self.views
    }

    fn verify_invariants(&self) -> Result<(), VoronetError> {
        self.net.check_invariants(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voronet_api::{Op, OpResult, OverlayBuilder};
    use voronet_geom::Point2;
    use voronet_workloads::{Distribution, PointGenerator, RangeQuery};

    #[test]
    fn faithful_replay_matches_the_sync_engine_bit_for_bit() {
        let mut engine = OverlayBuilder::new(300).seed(31).build_sync();
        let mut replay = FrozenReplay::new(*engine.config(), Fault::None);
        let mut points = PointGenerator::new(Distribution::Uniform, 31);
        let mut ops: Vec<Op> = (0..60)
            .map(|_| Op::Insert {
                position: points.next_point(),
            })
            .collect();
        for i in 0..40u64 {
            ops.push(Op::RouteBetween {
                from: ObjectId(i % 50),
                to: ObjectId((i * 7 + 1) % 50),
            });
        }
        ops.push(Op::Range {
            from: ObjectId(2),
            query: RangeQuery {
                rect: voronet_geom::Rect::new(Point2::new(0.2, 0.2), Point2::new(0.7, 0.7)),
            },
        });
        ops.push(Op::Remove { id: ObjectId(5) });
        ops.push(Op::Snapshot { id: ObjectId(6) });
        for op in &ops {
            let live = engine.apply(op);
            let frozen = replay.apply(op);
            assert_eq!(live, frozen, "op {op:?}");
        }
        assert_eq!(engine.stats(), replay.stats());
        assert_eq!(engine.net().traffic(), replay.net().traffic());
    }

    #[test]
    fn interleaved_writes_take_the_delta_patch_path_and_stay_faithful() {
        let mut engine = OverlayBuilder::new(200).seed(47).build_sync();
        let mut replay = FrozenReplay::new(*engine.config(), Fault::None);
        let mut points = PointGenerator::new(Distribution::Uniform, 47);
        let mut ops: Vec<Op> = (0..40)
            .map(|_| Op::Insert {
                position: points.next_point(),
            })
            .collect();
        // Alternate write barriers and reads so every read after the first
        // must patch the retained view rather than rebuild it.
        for i in 0..15u64 {
            ops.push(Op::RouteBetween {
                from: ObjectId(i % 30),
                to: ObjectId((i * 11 + 2) % 30),
            });
            ops.push(Op::Remove {
                id: ObjectId(30 + i),
            });
            ops.push(Op::Insert {
                position: points.next_point(),
            });
        }
        ops.push(Op::RouteBetween {
            from: ObjectId(1),
            to: ObjectId(2),
        });
        for op in &ops {
            assert_eq!(engine.apply(op), replay.apply(op), "op {op:?}");
        }
        assert_eq!(engine.stats(), replay.stats());
        let snap = replay.snapshot_stats();
        assert_eq!(snap.full_rebuilds, 1, "exactly one from-scratch freeze");
        assert!(
            snap.delta_patches >= 15,
            "every read-after-write barrier must patch (got {})",
            snap.delta_patches
        );
        // The retained, many-times-patched view equals a fresh freeze
        // (the final op was a read, so the view is current).
        let fresh = replay.net().freeze();
        assert_eq!(replay.view.as_ref().expect("reads ran"), &fresh);
    }

    #[test]
    fn the_injected_fault_perturbs_exactly_the_multi_hop_routes() {
        let mut engine = OverlayBuilder::new(100).seed(3).build_sync();
        let mut replay = FrozenReplay::new(*engine.config(), Fault::FrozenRouteExtraHop);
        let mut points = PointGenerator::new(Distribution::Uniform, 3);
        for _ in 0..20 {
            let op = Op::Insert {
                position: points.next_point(),
            };
            assert_eq!(engine.apply(&op), replay.apply(&op));
        }
        let op = Op::RouteBetween {
            from: ObjectId(0),
            to: ObjectId(0),
        };
        // Self-routes take 0 hops and stay untouched.
        assert_eq!(engine.apply(&op), replay.apply(&op));
        let mut diverged = false;
        for i in 1..20u64 {
            let op = Op::RouteBetween {
                from: ObjectId(0),
                to: ObjectId(i),
            };
            let live = engine.apply(&op);
            let frozen = replay.apply(&op);
            let (OpResult::Routed(l), OpResult::Routed(f)) = (&live, &frozen) else {
                panic!("routes between live objects succeed");
            };
            assert_eq!(l.owner, f.owner);
            if l.hops >= 1 {
                assert_eq!(f.hops, l.hops + 1, "fault adds exactly one hop");
                diverged = true;
            }
        }
        assert!(diverged, "some route must take at least one hop");
    }
}
