//! The asynchronous engine: [`Overlay`] implemented as a driver over the
//! message-driven [`AsyncOverlay`] runtime.

use crate::ops::{
    InsertOutcome, Op, OpResult, OverlayStats, QueryOutcome, RemoveOutcome, RouteOutcome,
};
use crate::overlay::Overlay;
use voronet_core::runtime::{AsyncOverlay, OpToken};
use voronet_core::{ErrorKind, ObjectId, ObjectView, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_sim::NetworkModel;
use voronet_workloads::{RadiusQuery, RangeQuery};

/// The message-driven VoroNet engine: every operation is injected into the
/// per-node asynchronous runtime and the scenario clock is stepped until
/// the operation's protocol messages quiesce.
///
/// Under the ideal network the results are identical to the synchronous
/// engine (asserted by `tests/api_conformance.rs`); under a lossy
/// [`NetworkModel`] operations can genuinely fail with
/// [`ErrorKind::OperationLost`] — the failure mode a real deployment would
/// see, surfaced through the same error taxonomy.
///
/// [`Overlay::apply_batch`] pipelines consecutive route operations: the
/// whole run is injected first and the runtime quiesces once, so all the
/// routes are in flight concurrently and the batch completes in roughly
/// the slowest route's end-to-end simulated latency instead of the sum of
/// every route's latency chain — the protocol-time throughput lever that
/// `tests/api_conformance.rs` gates in ticks.  (On the zero-latency ideal
/// network there is nothing to pipeline and batching is host-cost-neutral.)
///
/// A tracked route or query completes for its issuer only when the answer
/// message survives the trip back to the origin; joins complete when
/// `AddVoronoiRegion` executes at the region owner (the join protocol has
/// no answer leg — membership itself is the outcome).
pub struct AsyncEngine {
    overlay: AsyncOverlay,
}

impl AsyncEngine {
    /// Creates an empty asynchronous engine.  `config.seed` drives both the
    /// overlay's stochastic choices and the runner's workload choices.
    pub fn new(config: VoroNetConfig, network: NetworkModel) -> Self {
        AsyncEngine {
            overlay: AsyncOverlay::new(config, network, config.seed),
        }
    }

    /// Read access to the underlying runtime overlay.
    pub fn overlay(&self) -> &AsyncOverlay {
        &self.overlay
    }

    /// Mutable access to the underlying runtime overlay (engine-specific
    /// operations: scripted scenarios, replica inspection).
    pub fn overlay_mut(&mut self) -> &mut AsyncOverlay {
        &mut self.overlay
    }

    fn collect_route(&mut self, token: OpToken) -> Result<RouteOutcome, VoronetError> {
        match self.overlay.take_route_result(token) {
            Some((owner, hops)) => Ok(RouteOutcome { owner, hops }),
            None => Err(VoronetError::with_context(
                ErrorKind::OperationLost,
                "route messages lost before completion",
            )),
        }
    }
}

impl Overlay for AsyncEngine {
    fn engine_name(&self) -> &'static str {
        "async"
    }

    fn config(&self) -> &VoroNetConfig {
        self.overlay.net().config()
    }

    fn len(&self) -> usize {
        self.overlay.net().len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.overlay.net().contains(id)
    }

    fn coords(&self, id: ObjectId) -> Option<Point2> {
        self.overlay.net().coords(id)
    }

    fn id_at(&self, index: usize) -> Option<ObjectId> {
        self.overlay.net().id_at(index)
    }

    fn insert(&mut self, position: Point2) -> Result<InsertOutcome, VoronetError> {
        let token = self.overlay.request_join(position);
        self.overlay.run_to_quiescence();
        match self.overlay.take_join_result(token) {
            Some(Ok(id)) => Ok(InsertOutcome { id }),
            Some(Err(e)) => Err(e),
            None => Err(VoronetError::with_context(
                ErrorKind::OperationLost,
                "join request lost before reaching the region owner",
            )),
        }
    }

    fn remove(&mut self, id: ObjectId) -> Result<RemoveOutcome, VoronetError> {
        self.overlay.request_leave(id)?;
        self.overlay.run_to_quiescence();
        Ok(RemoveOutcome { id })
    }

    fn route(&mut self, from: ObjectId, target: Point2) -> Result<RouteOutcome, VoronetError> {
        let token = self.overlay.start_query_route(from, target)?;
        self.overlay.run_to_quiescence();
        self.collect_route(token)
    }

    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError> {
        let token = self.overlay.start_area_query(from, query.rect)?;
        self.overlay.run_to_quiescence();
        match self.overlay.take_area_result(token) {
            Some(report) => Ok(report.into()),
            None => Err(VoronetError::with_context(
                ErrorKind::OperationLost,
                "range query messages lost before completion",
            )),
        }
    }

    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError> {
        let token = self.overlay.start_radius_query(from, query)?;
        self.overlay.run_to_quiescence();
        match self.overlay.take_area_result(token) {
            Some(report) => Ok(report.into()),
            None => Err(VoronetError::with_context(
                ErrorKind::OperationLost,
                "radius query messages lost before completion",
            )),
        }
    }

    fn snapshot(&self, id: ObjectId) -> Result<ObjectView, VoronetError> {
        self.overlay.net().view(id)
    }

    fn stats(&self) -> OverlayStats {
        let routes = self.overlay.routes();
        OverlayStats {
            population: self.overlay.net().len(),
            messages: self.overlay.traffic().total(),
            routes_completed: self.overlay.counters().routes_completed,
            mean_route_hops: if routes.count() == 0 {
                0.0
            } else {
                routes.mean()
            },
        }
    }

    fn verify_invariants(&self) -> Result<(), VoronetError> {
        self.overlay.net().check_invariants(false)
    }

    fn apply_batch(&mut self, ops: &[Op]) -> Vec<OpResult> {
        let mut results = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let is_route = |op: &Op| matches!(op, Op::Route { .. } | Op::RouteBetween { .. });
            if !is_route(&ops[i]) {
                results.push(self.apply(&ops[i]));
                i += 1;
                continue;
            }
            // A maximal run of consecutive routes shares one quiescence
            // round: all are injected first, then the runtime drains.
            // Routes never mutate overlay structure, so pipelining them
            // preserves per-route results exactly.
            let mut pending: Vec<Result<OpToken, VoronetError>> = Vec::new();
            while i < ops.len() && is_route(&ops[i]) {
                let token = match ops[i] {
                    Op::Route { from, target } => self.overlay.start_query_route(from, target),
                    Op::RouteBetween { from, to } => match self.coords(to) {
                        Some(target) => self.overlay.start_query_route(from, target),
                        None => Err(VoronetError::new(ErrorKind::UnknownObject(to))),
                    },
                    _ => unreachable!("guarded by is_route"),
                };
                pending.push(token);
                i += 1;
            }
            self.overlay.run_to_quiescence();
            for token in pending {
                results.push(match token {
                    Ok(token) => match self.collect_route(token) {
                        Ok(r) => OpResult::Routed(r),
                        Err(e) => OpResult::Failed(e),
                    },
                    Err(e) => OpResult::Failed(e),
                });
            }
        }
        results
    }
}
