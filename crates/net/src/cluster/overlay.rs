//! The in-process cluster as an [`Overlay`]: the paper's protocol at the
//! message level, keyed by object id like every other engine.
//!
//! A write runs on the driver's authoritative tessellation and ships the
//! views it changed to the hosts before it returns; routes and area
//! queries run host to host over the shipped views.  A write the overlay
//! rejects returns the overlay's own [`VoronetError`] — the value the
//! synchronous engine returns.  A cluster failure maps through
//! [`ClusterError::kind`]: `OperationLost` for an exhausted retry ladder,
//! `Unavailable` for a host the failure detector declared dead.
//!
//! [`Overlay::apply_batch`] queues each run of consecutive routes and
//! pumps them together, as [`Driver::route_indices_pipelined`] does, so
//! under loss one route's resends overlap the others' instead of
//! following them.
//!
//! [`Driver::route_indices_pipelined`]: super::Driver::route_indices_pipelined

use super::{ClusterError, InlineCluster, OpOutcome};
use crate::transport::Transport;
use voronet_core::{ErrorKind, ObjectId, ObjectView, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_services::api::{
    InsertOutcome, Op, OpResult, Overlay, OverlayStats, QueryOutcome, RemoveOutcome, RouteOutcome,
};
use voronet_workloads::{RadiusQuery, RangeQuery};

impl From<ClusterError> for VoronetError {
    fn from(e: ClusterError) -> Self {
        VoronetError::with_context(e.kind(), e.to_string())
    }
}

/// The query outcome an area answer carries; the flood sends one probe
/// per visited object beyond the first, as the synchronous flood counts.
fn matched(outcome: OpOutcome) -> Result<QueryOutcome, VoronetError> {
    match outcome {
        OpOutcome::Matches {
            matches,
            hops,
            visited,
        } => Ok(QueryOutcome {
            matches: matches.into_iter().map(ObjectId).collect(),
            visited: visited as usize,
            routing_hops: hops,
            flood_messages: u64::from(visited.saturating_sub(1)),
        }),
        _ => Err(ClusterError::Timeout("area query").into()),
    }
}

impl<T: Transport> InlineCluster<T> {
    /// `id`'s raw value when it is live; otherwise the error the
    /// synchronous walk returns for an unknown origin.
    fn live(&self, id: ObjectId) -> Result<u64, VoronetError> {
        if self.driver.net.contains(id) {
            Ok(id.0)
        } else {
            Err(VoronetError::new(ErrorKind::UnknownObject(id)))
        }
    }

    /// The origin and target of a route op, checked in the order the
    /// trait's `route_between` checks them.
    fn route_ends(&self, op: &Op) -> Result<(u64, Point2), VoronetError> {
        match *op {
            Op::Route { from, target } => Ok((self.live(from)?, target)),
            Op::RouteBetween { from, to } => {
                let target = self
                    .coords(to)
                    .ok_or_else(|| VoronetError::new(ErrorKind::UnknownObject(to)))?;
                Ok((self.live(from)?, target))
            }
            _ => unreachable!("only route ops are pipelined"),
        }
    }

    /// Queues a run of route ops, pumps them together and appends one
    /// result per op.
    fn route_run(&mut self, ops: &[Op], results: &mut Vec<OpResult>) {
        let mut run: Vec<Option<OpResult>> = Vec::with_capacity(ops.len());
        let mut slots = Vec::with_capacity(ops.len());
        let pumped = self.driver.service_revivals().and_then(|()| {
            for op in ops {
                match self.route_ends(op) {
                    Ok((from_object, target)) => {
                        slots.push(run.len());
                        run.push(None);
                        self.driver.queue_route_to(from_object, target);
                    }
                    Err(e) => run.push(Some(OpResult::Failed(e))),
                }
            }
            let (routes, route_hops) = (&mut self.routes, &mut self.route_hops);
            self.driver.pump_routes(usize::MAX, |slot, verdict, _| {
                run[slots[slot]] = Some(match verdict {
                    Ok((owner, hops)) => {
                        *routes += 1;
                        *route_hops += u64::from(hops);
                        OpResult::Routed(RouteOutcome {
                            owner: ObjectId(owner),
                            hops,
                        })
                    }
                    Err(e) => OpResult::Failed(e.into()),
                });
            })
        });
        // Only a failed transport leaves a route without a verdict.
        let failure = pumped.err().map(VoronetError::from);
        run.resize(ops.len(), None);
        results.extend(run.into_iter().map(|result| {
            result.unwrap_or_else(|| {
                OpResult::Failed(failure.clone().expect("the pump settled every route"))
            })
        }));
    }
}

impl<T: Transport> Overlay for InlineCluster<T> {
    fn engine_name(&self) -> &'static str {
        "cluster"
    }

    fn config(&self) -> &VoroNetConfig {
        self.driver.net.config()
    }

    fn len(&self) -> usize {
        self.driver.net.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.driver.net.contains(id)
    }

    fn coords(&self, id: ObjectId) -> Option<Point2> {
        self.driver.net.coords(id)
    }

    fn id_at(&self, index: usize) -> Option<ObjectId> {
        self.driver.net.id_at(index)
    }

    fn insert(&mut self, position: Point2) -> Result<InsertOutcome, VoronetError> {
        let id = self.driver.join(position)??;
        Ok(InsertOutcome { id })
    }

    fn remove(&mut self, id: ObjectId) -> Result<RemoveOutcome, VoronetError> {
        self.driver.service_revivals()?;
        self.driver.leave(id)??;
        Ok(RemoveOutcome { id })
    }

    fn route(&mut self, from: ObjectId, target: Point2) -> Result<RouteOutcome, VoronetError> {
        let from_object = self.live(from)?;
        self.driver.service_revivals()?;
        let (owner, hops) = self.driver.route_from(from_object, target)?;
        self.routes += 1;
        self.route_hops += u64::from(hops);
        Ok(RouteOutcome {
            owner: ObjectId(owner),
            hops,
        })
    }

    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError> {
        let from_object = self.live(from)?;
        self.driver.service_revivals()?;
        matched(self.driver.range_from(from_object, query)?)
    }

    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError> {
        let from_object = self.live(from)?;
        self.driver.service_revivals()?;
        matched(self.driver.radius_from(from_object, query)?)
    }

    fn snapshot(&self, id: ObjectId) -> Result<ObjectView, VoronetError> {
        self.driver.net.view(id)
    }

    /// `messages` counts the frames every endpoint sent.
    fn stats(&self) -> OverlayStats {
        OverlayStats {
            population: self.len(),
            messages: self.endpoints().map(|t| t.stats().frames_sent).sum(),
            routes_completed: self.routes,
            mean_route_hops: if self.routes == 0 {
                0.0
            } else {
                self.route_hops as f64 / self.routes as f64
            },
        }
    }

    fn verify_invariants(&self) -> Result<(), VoronetError> {
        self.driver.net.check_invariants(false)
    }

    fn apply_batch(&mut self, ops: &[Op]) -> Vec<OpResult> {
        let is_route = |op: &Op| matches!(op, Op::Route { .. } | Op::RouteBetween { .. });
        let mut results = Vec::with_capacity(ops.len());
        let mut rest = ops;
        while let Some(op) = rest.first() {
            let run = rest.iter().take_while(|op| is_route(op)).count();
            if run == 0 {
                results.push(self.apply(op));
                rest = &rest[1..];
            } else {
                self.route_run(&rest[..run], &mut results);
                rest = &rest[run..];
            }
        }
        results
    }
}
