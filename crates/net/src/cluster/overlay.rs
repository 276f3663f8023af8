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
//! [`Op::Service`] runs on the driver's own service plane: the hosts
//! store, mirror, fetch and deliver, and each outcome maps onto the
//! [`ServiceResult`] the single-process `ServiceEngine` returns.
//!
//! [`Overlay::route_run`] queues a run of consecutive routes and pumps
//! them together, so under loss one route's resends overlap the others'
//! instead of following them.

use super::{flood_messages, ClusterError, InlineCluster, OpOutcome};
use crate::transport::Transport;
use voronet_core::{ErrorKind, ObjectId, ObjectView, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_services::api::{
    GetOutcome, InsertOutcome, Op, OpResult, Overlay, OverlayStats, PutOutcome, QueryOutcome,
    RemoveOutcome, RouteOutcome, ServiceOp, ServiceResult,
};
use voronet_workloads::{RadiusQuery, RangeQuery};

impl From<ClusterError> for VoronetError {
    fn from(e: ClusterError) -> Self {
        VoronetError::with_context(e.kind(), e.to_string())
    }
}

/// The error the synchronous engine returns for an operation issued by an
/// object that is not live — what a driver outcome of
/// [`OpOutcome::Skipped`] means here.
fn unknown(id: ObjectId) -> VoronetError {
    VoronetError::new(ErrorKind::UnknownObject(id))
}

/// The query outcome an area answer issued by `from` carries.
fn matched(from: ObjectId, outcome: OpOutcome) -> Result<QueryOutcome, VoronetError> {
    match outcome {
        OpOutcome::Matches {
            matches,
            hops,
            visited,
        } => Ok(QueryOutcome {
            matches: matches.into_iter().map(ObjectId).collect(),
            visited: visited as usize,
            routing_hops: hops,
            flood_messages: flood_messages(visited),
        }),
        _ => Err(unknown(from)),
    }
}

impl<T: Transport> InlineCluster<T> {
    /// The origin and target of a route op, checked in the order the
    /// trait's `route_between` checks them.
    fn route_ends(&self, op: &Op) -> Result<(u64, Point2), VoronetError> {
        let (from, target) = match *op {
            Op::Route { from, target } => (from, target),
            Op::RouteBetween { from, to } => (from, self.coords(to).ok_or_else(|| unknown(to))?),
            _ => unreachable!("only route ops are pipelined"),
        };
        if self.contains(from) {
            Ok((from.0, target))
        } else {
            Err(unknown(from))
        }
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
        self.driver.leave(id)??;
        Ok(RemoveOutcome { id })
    }

    fn route(&mut self, from: ObjectId, target: Point2) -> Result<RouteOutcome, VoronetError> {
        let OpOutcome::Route { owner, hops } = self.driver.route_from(from, target)? else {
            return Err(unknown(from));
        };
        self.routes += 1;
        self.route_hops += u64::from(hops);
        Ok(RouteOutcome {
            owner: ObjectId(owner),
            hops,
        })
    }

    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError> {
        matched(from, self.driver.range_from(from, query)?)
    }

    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError> {
        matched(from, self.driver.radius_from(from, query)?)
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

    /// Serves a service op from the hosts, through the driver's plane.
    fn serve(&mut self, op: ServiceOp) -> Result<ServiceResult, VoronetError> {
        let driver = &mut self.driver;
        let (issuer, outcome) = match op {
            ServiceOp::Subscribe { id, region } => (id, driver.subscribe(id, region)?),
            ServiceOp::Unsubscribe { id } => (id, driver.unsubscribe(id)?),
            ServiceOp::Publish { from, region, .. } => (from, driver.publish(from, region)?),
            ServiceOp::KvPut { from, key, value } => (from, driver.kv_put(from, key, value)?),
            ServiceOp::KvGet { from, key } => (from, driver.kv_get(from, key)?),
            ServiceOp::KvDelete { from, key } => (from, driver.kv_delete(from, key)?),
        };
        Ok(match outcome {
            OpOutcome::Subscribed(s) => ServiceResult::Subscribed(s),
            OpOutcome::Unsubscribed(u) => ServiceResult::Unsubscribed(u),
            OpOutcome::Published(p) => ServiceResult::Published(p),
            OpOutcome::KvDropped(d) => ServiceResult::Deleted(d),
            OpOutcome::KvStored {
                key,
                owner,
                replaced,
                hops,
                ..
            } => ServiceResult::Put(PutOutcome {
                owner: ObjectId(owner),
                replicas: driver.kv[&key].entry.replicas.clone(),
                replaced,
                hops,
            }),
            OpOutcome::KvFetched {
                owner, value, hops, ..
            } => ServiceResult::Got(GetOutcome {
                owner: ObjectId(owner),
                value,
                hops,
            }),
            _ => return Err(unknown(issuer)),
        })
    }
}
