//! The synchronous engine: [`Overlay`] implemented directly over
//! [`VoroNet`].
//!
//! # One read path
//!
//! Every route — a single [`Overlay::route`] or one op of a batch — is the
//! greedy walk over the overlay's live routing rows: each hop scans the
//! current object's view `vn ∪ cn ∪ LRn` (§3.1 of the paper) and forwards
//! to the entry closest to the target (§3.2), by the one rule
//! `voronet_geom::greedy_next`.  The rows are kept current by join and
//! leave, so a batch needs no snapshot, no refresh at its write barriers
//! and no second copy of the topology.
//!
//! A single route is [`VoroNet::route_to_point_in`], which also records
//! the path.  The trait's [`Overlay::apply_batch`] hands each maximal run
//! of consecutive `Route`/`RouteBetween` ops to [`Overlay::route_run`],
//! which this engine answers with [`VoroNet::route_batch_in`]: it
//! keeps eight independent walks in flight and steps them
//! round-robin, so the cache misses of their row reads overlap; every
//! other op goes through [`Overlay::apply`].  Each op's result, failure,
//! counts and traffic are exactly those of the same op applied alone.
//!
//! Routes and area queries run on one reused [`RouteScratch`]: a walk
//! adds its hop count to the scratch's per-kind message counts once (a run
//! of batched walks adds all of theirs once), a flood adds its message
//! count once, and the engine adds those counts to the overlay's after
//! each operation or run.  Routes are allocation-free once the scratch has
//! warmed up — a batch allocates its result vector and nothing else — and
//! an area query allocates no work-list of its own.

use crate::ops::{
    InsertOutcome, Op, OpResult, OverlayStats, QueryOutcome, RemoveOutcome, RouteOutcome,
};
use crate::overlay::Overlay;
use voronet_core::queries::{radius_query_in, range_query_in, AreaQueryReport};
use voronet_core::snapshot::RouteScratch;
use voronet_core::{ErrorKind, ObjectId, ObjectView, VoroNet, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_workloads::{RadiusQuery, RangeQuery};

/// The synchronous VoroNet engine: every operation executes to completion
/// inside one address space — the fast path used to reproduce the paper's
/// figures.
///
/// Single operations and batches alike route over the live routing rows
/// on a reused scratch, batched routes as interleaved walks (see the
/// [module docs](self)).
#[derive(Clone)]
pub struct SyncEngine {
    net: VoroNet,
    /// Routes completed, and the sum of their hop counts: all
    /// [`Overlay::stats`] reports of them, kept in O(1).
    routes: u64,
    route_hops: u64,
    scratch: RouteScratch,
    /// The `(from, target)` jobs of the run of routes a batch is walking.
    jobs: Vec<(ObjectId, Point2)>,
}

impl SyncEngine {
    /// Creates an empty synchronous engine.
    pub fn new(config: VoroNetConfig) -> Self {
        Self::from_net(VoroNet::new(config))
    }

    /// Wraps an already-populated overlay.
    pub fn from_net(net: VoroNet) -> Self {
        SyncEngine {
            net,
            routes: 0,
            route_hops: 0,
            scratch: RouteScratch::new(),
            jobs: Vec::new(),
        }
    }

    /// Accepted and ignored: the engine runs on the calling thread.  Kept
    /// because the benchmark calls it.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Read access to the underlying overlay.
    pub fn net(&self) -> &VoroNet {
        &self.net
    }

    /// Runs an area query on the engine's scratch and applies its message
    /// counts, as [`Overlay::route`] does for a walk.
    fn area_query(
        &mut self,
        query: impl FnOnce(&VoroNet, &mut RouteScratch) -> Result<AreaQueryReport, VoronetError>,
    ) -> Result<QueryOutcome, VoronetError> {
        let report = query(&self.net, &mut self.scratch);
        self.net.apply_traffic(&self.scratch.delta);
        self.scratch.delta.clear();
        Ok(report?.into())
    }
}

impl Overlay for SyncEngine {
    fn engine_name(&self) -> &'static str {
        "sync"
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
        let routed = self.net.route_to_point_in(from, target, &mut self.scratch);
        self.net.apply_traffic(&self.scratch.delta);
        self.scratch.delta.clear();
        let (owner, hops) = routed?;
        self.routes += 1;
        self.route_hops += u64::from(hops);
        Ok(RouteOutcome { owner, hops })
    }

    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError> {
        self.area_query(|net, scratch| range_query_in(net, from, query, scratch))
    }

    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError> {
        self.area_query(|net, scratch| radius_query_in(net, from, query, scratch))
    }

    fn snapshot(&self, id: ObjectId) -> Result<ObjectView, VoronetError> {
        self.net.view(id)
    }

    fn stats(&self) -> OverlayStats {
        OverlayStats {
            population: self.net.len(),
            messages: self.net.traffic().total(),
            routes_completed: self.routes,
            // Both sums are exact integers below 2^53, so this is the mean
            // a float sum over every recorded route would give, to the bit.
            mean_route_hops: if self.routes == 0 {
                0.0
            } else {
                self.route_hops as f64 / self.routes as f64
            },
        }
    }

    fn verify_invariants(&self) -> Result<(), VoronetError> {
        self.net.check_invariants(false)
    }

    /// Walks a run of `Route`/`RouteBetween` ops interleaved
    /// ([`VoroNet::route_batch_in`]) and appends one result per op: the
    /// result, counts and traffic the ops give one at a time.
    fn route_run(&mut self, run: &[Op], results: &mut Vec<OpResult>) {
        let first = results.len();
        self.jobs.clear();
        for op in run {
            // An unknown `to` fails as `Overlay::route_between` fails it,
            // before any walk; every walk gets a placeholder to fill.
            let job = match *op {
                Op::Route { from, target } => Ok((from, target)),
                Op::RouteBetween { from, to } => self
                    .net
                    .coords(to)
                    .map(|target| (from, target))
                    .ok_or_else(|| VoronetError::new(ErrorKind::UnknownObject(to))),
                _ => unreachable!("a run holds routes only"),
            };
            results.push(match job {
                Ok(job) => {
                    self.jobs.push(job);
                    OpResult::Routed(RouteOutcome {
                        owner: job.0,
                        hops: 0,
                    })
                }
                Err(e) => OpResult::Failed(e),
            });
        }
        let walks = self.net.route_batch_in(&self.jobs, &mut self.scratch);
        let slots = results[first..].iter_mut().filter(|r| r.is_ok());
        for (slot, walked) in slots.zip(walks) {
            *slot = match walked {
                Ok((owner, hops)) => {
                    self.routes += 1;
                    self.route_hops += u64::from(hops);
                    OpResult::Routed(RouteOutcome { owner, hops })
                }
                Err(e) => OpResult::Failed(e),
            };
        }
        self.net.apply_traffic(&self.scratch.delta);
        self.scratch.delta.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OverlayBuilder;
    use crate::ops::Op;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The engine keeps a count and a hop sum, not a sample per route; its
    /// stats must equal, to the bit, the sequential `Σ(h as f64) / n` over
    /// every route's hops — single routes, batch routes and failed routes
    /// (which count nowhere) interleaved with writes.
    #[test]
    fn route_stats_equal_the_per_sample_formula() {
        let mut engine = OverlayBuilder::new(400).seed(3).build_sync();
        let mut rng = StdRng::seed_from_u64(0x5747);
        let point = |rng: &mut StdRng| Point2::new(rng.random::<f64>(), rng.random::<f64>());
        for _ in 0..300 {
            engine.insert(point(&mut rng)).unwrap();
        }
        let mut hops: Vec<u32> = Vec::new();
        let mut routes = 0;
        while routes < 10_000 {
            let from = engine.id_at(rng.random_range(0..engine.len())).unwrap();
            match rng.random_range(0u32..10) {
                0 => {
                    let id = engine.insert(point(&mut rng)).unwrap().id;
                    engine.remove(id).unwrap();
                }
                1 => {
                    let gone = ObjectId(u64::MAX);
                    assert!(engine.route(gone, point(&mut rng)).is_err());
                }
                2..=5 => {
                    let r = engine.route(from, point(&mut rng)).unwrap();
                    hops.push(r.hops);
                    routes += 1;
                }
                _ => {
                    let ops: Vec<Op> = (0..64)
                        .map(|_| Op::Route {
                            from: engine.id_at(rng.random_range(0..engine.len())).unwrap(),
                            target: point(&mut rng),
                        })
                        .collect();
                    for r in engine.apply_batch(&ops) {
                        hops.push(r.as_routed().unwrap().hops);
                        routes += 1;
                    }
                }
            }
            let stats = engine.stats();
            let mean = match hops.len() {
                0 => 0.0,
                n => hops.iter().map(|&h| h as f64).sum::<f64>() / n as f64,
            };
            assert_eq!(stats.routes_completed, hops.len() as u64);
            assert_eq!(stats.mean_route_hops.to_bits(), mean.to_bits());
        }
    }
}
