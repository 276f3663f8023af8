//! The synchronous engine: [`Overlay`] implemented directly over
//! [`VoroNet`], with a multi-threaded executor for read-only batch runs.
//!
//! # The parallel read path
//!
//! [`SyncEngine::apply_batch`] splits a batch into maximal runs of
//! read-only operations ([`Op::is_read_only`]) between write barriers
//! (inserts/removes).  Read runs execute over a [`FrozenView`] — an
//! immutable SoA/CSR snapshot of the routing topology — large ones fanned
//! out across `std::thread::scope` workers.  Each worker computes its
//! contiguous chunk of operations into a private [`RouteScratch`],
//! accumulating the message accounting in a [`TrafficAccumulator`] the
//! engine keeps for it across runs; the main thread then joins the results
//! **in op order** and applies the accumulators one after the other (the
//! counters are sums), so owners, hop counts, query matches and traffic
//! stats, per-sender counts included, are bit-identical at any worker
//! count — including one, and including the pre-parallel sequential path.
//!
//! # Epoch-based view maintenance
//!
//! The engine keeps one [`FrozenView`] alive across runs *and* across
//! `apply_batch` calls instead of freezing per run.  At each read barrier
//! — under `&mut self`, before any worker is spawned, so no reader can
//! see it mid-patch — the view is brought forward with
//! [`FrozenView::refresh`]: delta-patched through the overlay's change log
//! in O(affected neighbourhoods), or rebuilt when the log no longer covers
//! it; when no write happened since the last run it is reused for free
//! (the epoch check is one integer compare).  Under mixed read/write
//! traffic this keeps the ~5× frozen read path without paying an O(n)
//! freeze at every write barrier.
//! Results are bit-identical to per-op execution — a patched view equals
//! a fresh freeze, and both equal the live walk.

use crate::ops::{
    InsertOutcome, Op, OpResult, OverlayStats, QueryOutcome, RemoveOutcome, RouteOutcome,
};
use crate::overlay::Overlay;
use voronet_core::queries::{radius_query, radius_query_in, range_query, range_query_in};
use voronet_core::snapshot::{
    FrozenView, RouteScratch, SnapshotStats, TrafficAccumulator, ViewRefresh,
};
use voronet_core::{ObjectId, ObjectView, VoroNet, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_workloads::{RadiusQuery, RangeQuery};

/// Read-only runs shorter than this execute single-threaded (thread
/// fan-out has per-spawn overhead a handful of ops cannot amortise).
const FROZEN_MIN_RUN: usize = 32;

/// Freezing the topology costs O(population) (≈ 0.25 µs/node), while each
/// frozen route saves a few µs over the sequential path — so the *first*
/// freeze only pays for itself once enough reads have been seen relative
/// to the overlay.  `population / 16` sits about 2× above the measured
/// break-even on a 10k-node overlay.  Once the view exists, keeping
/// it current is O(affected neighbourhoods) per barrier, so every later
/// read run uses them regardless of its length.
fn frozen_run_threshold(population: usize) -> usize {
    FROZEN_MIN_RUN.max(population / 16)
}

/// The synchronous VoroNet engine: every operation executes to completion
/// inside one address space — the fast path used to reproduce the paper's
/// figures.
///
/// Single operations route through the allocation-free scratch-buffer walk;
/// batches additionally get the frozen-snapshot parallel read path (see the
/// [module docs](self)).  The worker count defaults to the machine's
/// available parallelism and can be pinned with
/// [`SyncEngine::with_threads`]; results are bit-identical whatever the
/// setting.
pub struct SyncEngine {
    net: VoroNet,
    /// Routes completed, and the sum of their hop counts: all
    /// [`Overlay::stats`] reports of them, kept in O(1).
    routes: u64,
    route_hops: u64,
    scratch: RouteScratch,
    threads: usize,
    /// The frozen view, created lazily at the first read run that
    /// justifies a freeze and retained across batches from then on.
    view: Option<FrozenView>,
    /// Read-only ops seen so far while `view` is still unset — lets many
    /// short read runs (the mixed-workload shape) eventually justify the
    /// first freeze even though no single run crosses the threshold.
    reads_seen: usize,
    /// One accounting accumulator per read-run worker (the first serves
    /// single-threaded runs), kept across runs: applying an accumulator
    /// empties it in O(distinct senders), so short read runs between write
    /// barriers do not pay an O(population) zeroing each.
    accs: Vec<TrafficAccumulator>,
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
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            view: None,
            reads_seen: 0,
            accs: Vec::new(),
        }
    }

    /// Sets the number of worker threads used for read-only batch runs.
    /// `1` forces single-threaded execution; results are identical either
    /// way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Read access to the underlying overlay.
    pub fn net(&self) -> &VoroNet {
        &self.net
    }

    /// Executes one read-only operation against a frozen snapshot (routes)
    /// or the shared overlay reference (floods, snapshots), computing into
    /// `scratch` and leaving the accounting in `scratch.delta`.
    fn exec_read(
        net: &VoroNet,
        view: &FrozenView,
        op: &Op,
        scratch: &mut RouteScratch,
    ) -> OpResult {
        match *op {
            Op::Route { from, target } => match view.route_to_point_in(from, target, scratch) {
                Ok((owner, hops)) => OpResult::Routed(RouteOutcome { owner, hops }),
                Err(e) => OpResult::Failed(e),
            },
            Op::RouteBetween { from, to } => match view.route_between_in(from, to, scratch) {
                Ok((owner, hops)) => OpResult::Routed(RouteOutcome { owner, hops }),
                Err(e) => OpResult::Failed(e),
            },
            Op::Range { from, query } => match range_query_in(net, from, query, scratch) {
                Ok(r) => OpResult::Queried(r.into()),
                Err(e) => OpResult::Failed(e),
            },
            Op::Radius { from, query } => match radius_query_in(net, from, query, scratch) {
                Ok(r) => OpResult::Queried(r.into()),
                Err(e) => OpResult::Failed(e),
            },
            Op::Snapshot { id } => match net.view(id) {
                Ok(v) => OpResult::Snapshotted(Box::new(v)),
                Err(e) => OpResult::Failed(e),
            },
            Op::Insert { .. } | Op::Remove { .. } | Op::Service(_) => {
                unreachable!("read runs contain only read-only ops")
            }
        }
    }

    /// Executes one maximal read-only run over the retained
    /// [`FrozenView`] (created on first use, then kept current by
    /// epoch-keyed refresh), fanning large runs across the configured
    /// worker threads, and appends the per-op results (in op order) to
    /// `results`.
    fn apply_read_run(&mut self, run: &[Op], results: &mut Vec<OpResult>) {
        // Bring the view up to the overlay's epoch: free when no write
        // happened since the last run, O(affected neighbourhoods)
        // otherwise.
        let refresh = match &mut self.view {
            Some(view) => view.refresh(&self.net),
            None => {
                self.view = Some(self.net.freeze());
                ViewRefresh::Rebuilt
            }
        };
        self.net.record_view_refresh(&refresh);
        let view = self.view.as_ref().expect("view initialised above");
        let start = results.len();
        let workers = if run.len() >= FROZEN_MIN_RUN {
            self.threads.min(run.len()).max(1)
        } else {
            1
        };
        if self.accs.len() < workers {
            self.accs.resize_with(workers, TrafficAccumulator::new);
        }
        if workers == 1 {
            let acc = &mut self.accs[0];
            for op in run {
                self.scratch.delta.clear();
                results.push(Self::exec_read(&self.net, view, op, &mut self.scratch));
                acc.absorb(view, &self.scratch.delta);
            }
            self.scratch.delta.clear();
        } else {
            let chunk = run.len().div_ceil(workers);
            let net = &self.net;
            // Contiguous chunks keep the op → worker mapping independent of
            // scheduling; joining in spawn order restores op order exactly.
            let outcomes: Vec<Vec<OpResult>> = std::thread::scope(|s| {
                let handles: Vec<_> = run
                    .chunks(chunk)
                    .zip(&mut self.accs)
                    .map(|(ops, acc)| {
                        s.spawn(move || {
                            let mut scratch = RouteScratch::new();
                            let mut out = Vec::with_capacity(ops.len());
                            for op in ops {
                                scratch.delta.clear();
                                out.push(Self::exec_read(net, view, op, &mut scratch));
                                acc.absorb(view, &scratch.delta);
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("read-run worker panicked"))
                    .collect()
            });
            results.extend(outcomes.into_iter().flatten());
        }
        // Counts are sums, so applying the workers' accumulators one after
        // the other equals applying the whole run's delta in op order.
        for acc in &mut self.accs[..workers] {
            self.net.apply_accumulated_traffic(view, acc);
        }
        // Route-stat recording happens here (in op order) because the
        // frozen path bypasses `Overlay::route`.
        for r in &results[start..] {
            if let OpResult::Routed(route) = r {
                self.record_route(route.hops);
            }
        }
    }

    fn record_route(&mut self, hops: u32) {
        self.routes += 1;
        self.route_hops += u64::from(hops);
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
        self.record_route(hops);
        Ok(RouteOutcome { owner, hops })
    }

    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError> {
        Ok(range_query(&mut self.net, from, query)?.into())
    }

    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError> {
        Ok(radius_query(&mut self.net, from, query)?.into())
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

    /// Batched submission with the parallel read path: maximal read-only
    /// runs between write barriers execute over the retained
    /// [`FrozenView`] (epoch-keyed, delta-patched at each barrier), large
    /// runs fanned across the configured worker threads; write ops apply
    /// sequentially.  The first freeze happens once the
    /// cumulative read volume justifies it; from then on every read run —
    /// however short — uses the frozen path, since keeping a view current
    /// costs O(affected neighbourhoods), not O(n).  Results and traffic
    /// accounting are bit-identical to sequential per-op application at
    /// any thread count.
    fn apply_batch(&mut self, ops: &[Op]) -> Vec<OpResult> {
        let mut results = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            if ops[i].is_read_only() {
                let mut j = i + 1;
                while j < ops.len() && ops[j].is_read_only() {
                    j += 1;
                }
                let run = &ops[i..j];
                self.reads_seen = self.reads_seen.saturating_add(run.len());
                if self.view.is_some() || self.reads_seen >= frozen_run_threshold(self.net.len()) {
                    self.apply_read_run(run, &mut results);
                } else {
                    for op in run {
                        results.push(self.apply(op));
                    }
                }
                i = j;
            } else {
                results.push(self.apply(&ops[i]));
                i += 1;
            }
        }
        results
    }

    fn snapshot_stats(&self) -> SnapshotStats {
        self.net.snapshot_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OverlayBuilder;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use voronet_sim::RouteStats;

    /// The engine keeps a count and a hop sum, not a sample per route; its
    /// stats must equal, to the bit, the mean a `RouteStats` over every
    /// route would give — single routes, frozen batch routes and failed
    /// routes (which count nowhere) interleaved with writes.
    #[test]
    fn route_stats_equal_the_per_sample_formula() {
        let mut engine = OverlayBuilder::new(400).seed(3).build_sync();
        let mut rng = StdRng::seed_from_u64(0x5747);
        let point = |rng: &mut StdRng| Point2::new(rng.random::<f64>(), rng.random::<f64>());
        for _ in 0..300 {
            engine.insert(point(&mut rng)).unwrap();
        }
        let mut samples = RouteStats::new();
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
                    samples.record(r.hops);
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
                        samples.record(r.as_routed().unwrap().hops);
                        routes += 1;
                    }
                }
            }
            let stats = engine.stats();
            assert_eq!(stats.routes_completed, samples.count() as u64);
            assert_eq!(stats.mean_route_hops.to_bits(), samples.mean().to_bits());
        }
        assert!(engine.view.is_some(), "the frozen batch path must have run");
    }
}
