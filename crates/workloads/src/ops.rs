//! Backend-agnostic operation scripts for batched overlay workloads.
//!
//! The overlay API layer (`voronet-api`) submits work as typed batches of
//! operations.  This module generates the *scripts* for those batches
//! without naming any engine type: participants are referred to by **dense
//! population index** (the `idx < len()` sampling order every overlay
//! exposes), and positions/queries come from the same seeded generators
//! that drive the paper experiments.  The API layer resolves the indices
//! against a concrete engine at submission time.

use crate::distribution::{Distribution, PointGenerator, ZipfSampler};
use crate::queries::{QueryGenerator, RadiusQuery, RangeQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet_geom::{Point2, Rect};

/// One scripted overlay operation with participants named by dense
/// population index (resolved to object ids by the submitting layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadOp {
    /// Publish a new object at `position`.
    Insert {
        /// Attribute coordinates of the new object.
        position: Point2,
    },
    /// Remove the `index`-th live object (modulo the live population).
    Remove {
        /// Dense population index of the departing object.
        index: usize,
    },
    /// Route from the `from`-th live object to the `to`-th (indices taken
    /// modulo the live population; a degenerate self-route is allowed and
    /// resolves in zero hops).
    Route {
        /// Dense population index of the source object.
        from: usize,
        /// Dense population index of the destination object.
        to: usize,
    },
    /// Rectangular range query issued by the `from`-th live object.
    Range {
        /// Dense population index of the issuing object.
        from: usize,
        /// The queried rectangle.
        query: RangeQuery,
    },
    /// Radius (disk) query issued by the `from`-th live object.
    Radius {
        /// Dense population index of the issuing object.
        from: usize,
        /// The queried disk.
        query: RadiusQuery,
    },
    /// Capture the complete view snapshot of the `index`-th live object.
    Snapshot {
        /// Dense population index of the inspected object.
        index: usize,
    },
    /// Subscribe the `index`-th live object to publishes intersecting
    /// `region`.
    Subscribe {
        /// Dense population index of the subscriber.
        index: usize,
        /// The spatial region of interest — the topic.
        region: Rect,
    },
    /// Drop the `index`-th live object's subscription.
    Unsubscribe {
        /// Dense population index of the unsubscribing object.
        index: usize,
    },
    /// Publish `payload` into `region`, issued by the `from`-th live
    /// object.
    Publish {
        /// Dense population index of the publisher.
        from: usize,
        /// The target region — the topic.
        region: Rect,
        /// Opaque payload token.
        payload: u64,
    },
    /// Store `value` under `key`, issued by the `from`-th live object.
    KvPut {
        /// Dense population index of the requesting object.
        from: usize,
        /// The key (hashes to a coordinate at the service layer).
        key: u64,
        /// The value token.
        value: u64,
    },
    /// Look `key` up, issued by the `from`-th live object.
    KvGet {
        /// Dense population index of the requesting object.
        from: usize,
        /// The key to resolve.
        key: u64,
    },
    /// Delete `key`, issued by the `from`-th live object.
    KvDelete {
        /// Dense population index of the requesting object.
        from: usize,
        /// The key to delete.
        key: u64,
    },
}

/// Relative frequencies of the operation families in a generated batch.
/// The weights need not sum to 1 — they are normalised; families with
/// weight 0 never appear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Weight of [`WorkloadOp::Insert`].
    pub insert: f64,
    /// Weight of [`WorkloadOp::Remove`].
    pub remove: f64,
    /// Weight of [`WorkloadOp::Route`].
    pub route: f64,
    /// Weight of [`WorkloadOp::Range`].
    pub range: f64,
    /// Weight of [`WorkloadOp::Radius`].
    pub radius: f64,
    /// Weight of [`WorkloadOp::Snapshot`].
    pub snapshot: f64,
    /// Weight of [`WorkloadOp::Subscribe`].
    pub subscribe: f64,
    /// Weight of [`WorkloadOp::Unsubscribe`].
    pub unsubscribe: f64,
    /// Weight of [`WorkloadOp::Publish`].
    pub publish: f64,
    /// Weight of [`WorkloadOp::KvPut`].
    pub kv_put: f64,
    /// Weight of [`WorkloadOp::KvGet`].
    pub kv_get: f64,
    /// Weight of [`WorkloadOp::KvDelete`].
    pub kv_delete: f64,
}

impl OpMix {
    /// A read-mostly mix: 80% routes, 10% inserts, 5% removals, 5% area
    /// queries — the shape of a query-serving deployment.
    pub fn read_heavy() -> Self {
        OpMix {
            insert: 0.10,
            remove: 0.05,
            route: 0.80,
            range: 0.025,
            radius: 0.025,
            ..Self::zero()
        }
    }

    /// A churn-heavy mix: 35% inserts, 25% removals, 40% routes.
    pub fn churn_heavy() -> Self {
        OpMix {
            insert: 0.35,
            remove: 0.25,
            route: 0.40,
            ..Self::zero()
        }
    }

    /// The deployment-stress mix of the `voronet-node` demo: heavy churn
    /// (30% inserts, 20% removals) under a routed read load (40% routes,
    /// 10% area queries).  Pair it with
    /// [`OpBatchGenerator::with_zipf_destinations`] so the routed traffic
    /// concentrates on a few popular objects, the access pattern the
    /// paper's load-balancing analysis assumes (Section 5).
    pub fn churn_zipf() -> Self {
        OpMix {
            insert: 0.30,
            remove: 0.20,
            route: 0.40,
            range: 0.05,
            radius: 0.05,
            ..Self::zero()
        }
    }

    /// Reads only: 90% routes, 10% area queries, no churn.  Batches drawn
    /// from this mix contain no write barrier.
    pub fn read_only() -> Self {
        OpMix {
            route: 0.90,
            range: 0.05,
            radius: 0.05,
            ..Self::zero()
        }
    }

    /// A read/write mix parameterised by read percentage: `read_pct`% of
    /// the ops are routes, the rest is churn split evenly between inserts
    /// and removals.  `mixed(99)`, `mixed(95)` and `mixed(80)` are the
    /// canonical 99:1 / 95:5 / 80:20 traffic shapes used to measure how
    /// reads hold up once writers interleave with them.  Composable with
    /// [`OpBatchGenerator::with_zipf_destinations`] for skewed read
    /// traffic.  `read_pct` is clamped to `0..=100`.
    pub fn mixed(read_pct: u32) -> Self {
        let read = f64::from(read_pct.min(100)) / 100.0;
        let write = 1.0 - read;
        OpMix {
            insert: write / 2.0,
            remove: write / 2.0,
            route: read,
            ..Self::zero()
        }
    }

    /// Routes only (the Figure 6 measurement workload, in batch form).
    pub fn routes_only() -> Self {
        OpMix {
            route: 1.0,
            ..Self::zero()
        }
    }

    /// A service-centric mix: `pub_pct`% of the ops are pub/sub traffic
    /// (subscribes, occasional unsubscribes and a publish majority),
    /// `kv_pct`% are KV traffic (put/get/delete), and the remainder is
    /// routed read load with light churn — so service semantics are
    /// continuously exercised *under* membership change.  Percentages are
    /// clamped so the pair never exceeds 100.  Pair with
    /// [`OpBatchGenerator::with_zipf_topics`] to concentrate the publish
    /// traffic into a few hot regions (the flash-crowd shape).
    pub fn services(pub_pct: u32, kv_pct: u32) -> Self {
        let p = pub_pct.min(100);
        let k = kv_pct.min(100 - p);
        let p = f64::from(p) / 100.0;
        let k = f64::from(k) / 100.0;
        let rest = (1.0 - p - k).max(0.0);
        OpMix {
            insert: rest * 0.15,
            remove: rest * 0.10,
            route: rest * 0.75,
            subscribe: p * 0.22,
            unsubscribe: p * 0.03,
            publish: p * 0.75,
            kv_put: k * 0.40,
            kv_get: k * 0.45,
            kv_delete: k * 0.15,
            ..Self::zero()
        }
    }

    /// The all-zero mix, the base every preset builds on.
    fn zero() -> Self {
        OpMix {
            insert: 0.0,
            remove: 0.0,
            route: 0.0,
            range: 0.0,
            radius: 0.0,
            snapshot: 0.0,
            subscribe: 0.0,
            unsubscribe: 0.0,
            publish: 0.0,
            kv_put: 0.0,
            kv_get: 0.0,
            kv_delete: 0.0,
        }
    }

    fn total(&self) -> f64 {
        self.insert
            + self.remove
            + self.route
            + self.range
            + self.radius
            + self.snapshot
            + self.subscribe
            + self.unsubscribe
            + self.publish
            + self.kv_put
            + self.kv_get
            + self.kv_delete
    }
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix::read_heavy()
    }
}

/// Seeded generator of [`WorkloadOp`] batches: insert positions follow an
/// object-placement [`Distribution`], queries come from a
/// [`QueryGenerator`], and the op sequence is drawn from an [`OpMix`] —
/// all deterministic for a given seed.
#[derive(Debug)]
pub struct OpBatchGenerator {
    mix: OpMix,
    rng: StdRng,
    points: PointGenerator,
    queries: QueryGenerator,
    /// Largest relative extent of generated range queries (fraction of the
    /// domain side).
    max_query_extent: f64,
    /// When set, route destinations are Zipf-skewed over population rank
    /// with this exponent instead of uniform.
    zipf_alpha: Option<f64>,
    /// When set, publish/subscribe regions are drawn from a small fixed
    /// palette of topic rectangles with Zipf-skewed rank (hot topics).
    topics: Option<f64>,
    /// Lazily built topic palette (shared by subscribes and publishes so
    /// hot publishes actually hit subscribed regions).
    topic_palette: Vec<Rect>,
    /// Cached destination-rank sampler, rebuilt only when the scripted
    /// population or exponent changes (separate from the topic slot so
    /// alternating draws don't thrash either cache).
    zipf_dest: Option<ZipfSampler>,
    /// Cached topic-rank sampler over the fixed palette.
    zipf_topic: Option<ZipfSampler>,
}

impl OpBatchGenerator {
    /// Creates a generator over the unit square.
    pub fn new(dist: Distribution, seed: u64, mix: OpMix) -> Self {
        Self::with_domain(dist, seed, mix, Rect::UNIT)
    }

    /// Creates a generator over an arbitrary domain.
    pub fn with_domain(dist: Distribution, seed: u64, mix: OpMix, domain: Rect) -> Self {
        OpBatchGenerator {
            mix,
            rng: StdRng::seed_from_u64(seed ^ 0x0B_A7C4),
            points: PointGenerator::with_domain(dist, seed ^ 0x9E37, domain),
            queries: QueryGenerator::with_domain(seed ^ 0xA3EA, domain),
            max_query_extent: 0.1,
            zipf_alpha: None,
            topics: None,
            topic_palette: Vec::new(),
            zipf_dest: None,
            zipf_topic: None,
        }
    }

    /// Sets the largest relative extent of generated range/radius queries.
    pub fn with_max_query_extent(mut self, extent: f64) -> Self {
        self.max_query_extent = extent.clamp(0.0, 1.0);
        self
    }

    /// Skews route destinations by a Zipf law over dense population rank:
    /// the `r`-th object is targeted with probability proportional to
    /// `1 / (r + 1)^alpha`.  With `alpha = 0` this degenerates to uniform;
    /// typical web-like skews use `alpha` around 0.8–1.2.  Self-routes are
    /// deflected to the next rank so a skewed pair still exercises the
    /// overlay.
    pub fn with_zipf_destinations(mut self, alpha: f64) -> Self {
        self.zipf_alpha = Some(alpha.max(0.0));
        self
    }

    /// Draws publish/subscribe regions from a fixed 16-rect topic palette
    /// with Zipf-skewed rank instead of fresh uniform rectangles: rank `r`
    /// is chosen with probability proportional to `1 / (r + 1)^alpha`, so
    /// most publishes concentrate into one hot region — the flash-crowd
    /// shape the paper's load analysis worries about.  Subscribes draw
    /// from the same palette, so hot publishes meet standing subscriptions.
    pub fn with_zipf_topics(mut self, alpha: f64) -> Self {
        self.topics = Some(alpha.max(0.0));
        self
    }

    /// Generates the next batch of `len` operations.
    ///
    /// `population` is the submitter's estimate of the live population when
    /// the batch will run; participant indices are drawn below
    /// `max(population, 1)` and the generator tracks the net insert/remove
    /// balance within the batch so later indices stay meaningful.  Mixes
    /// with removals never script the population below 2.
    pub fn batch(&mut self, population: usize, len: usize) -> Vec<WorkloadOp> {
        let total = self.mix.total();
        let mut pop = population.max(1);
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let op = if total <= 0.0 {
                self.route_op(pop)
            } else {
                let u: f64 = self.rng.random::<f64>() * total;
                let after_insert = self.mix.insert;
                let after_remove = after_insert + self.mix.remove;
                let after_route = after_remove + self.mix.route;
                let after_range = after_route + self.mix.range;
                let after_radius = after_range + self.mix.radius;
                let after_snapshot = after_radius + self.mix.snapshot;
                let after_subscribe = after_snapshot + self.mix.subscribe;
                let after_unsubscribe = after_subscribe + self.mix.unsubscribe;
                let after_publish = after_unsubscribe + self.mix.publish;
                let after_kv_put = after_publish + self.mix.kv_put;
                let after_kv_get = after_kv_put + self.mix.kv_get;
                if u < after_insert {
                    pop += 1;
                    WorkloadOp::Insert {
                        position: self.points.next_point(),
                    }
                } else if u < after_remove && pop > 2 {
                    let index = self.rng.random_range(0..pop);
                    pop -= 1;
                    WorkloadOp::Remove { index }
                } else if u < after_route || pop < 2 {
                    // Removal draws that hit the population floor also land
                    // here: a route is always executable.
                    self.route_op(pop)
                } else if u < after_range {
                    WorkloadOp::Range {
                        from: self.rng.random_range(0..pop),
                        query: self.queries.range_query(self.max_query_extent),
                    }
                } else if u < after_radius {
                    WorkloadOp::Radius {
                        from: self.rng.random_range(0..pop),
                        query: self.queries.radius_query(self.max_query_extent),
                    }
                } else if u < after_snapshot {
                    WorkloadOp::Snapshot {
                        index: self.rng.random_range(0..pop),
                    }
                } else if u < after_subscribe {
                    WorkloadOp::Subscribe {
                        index: self.rng.random_range(0..pop),
                        region: self.service_region(),
                    }
                } else if u < after_unsubscribe {
                    WorkloadOp::Unsubscribe {
                        index: self.rng.random_range(0..pop),
                    }
                } else if u < after_publish {
                    WorkloadOp::Publish {
                        from: self.rng.random_range(0..pop),
                        region: self.service_region(),
                        payload: self.rng.random_range(0..1_000_000u64),
                    }
                } else if u < after_kv_put {
                    WorkloadOp::KvPut {
                        from: self.rng.random_range(0..pop),
                        // Small keyspace on purpose: collisions make gets
                        // observe earlier puts and deletes actually land.
                        key: self.rng.random_range(0..64u64),
                        value: self.rng.random_range(0..1_000_000u64),
                    }
                } else if u < after_kv_get {
                    WorkloadOp::KvGet {
                        from: self.rng.random_range(0..pop),
                        key: self.rng.random_range(0..64u64),
                    }
                } else {
                    WorkloadOp::KvDelete {
                        from: self.rng.random_range(0..pop),
                        key: self.rng.random_range(0..64u64),
                    }
                }
            };
            ops.push(op);
        }
        ops
    }

    fn route_op(&mut self, pop: usize) -> WorkloadOp {
        if pop < 2 {
            return WorkloadOp::Route { from: 0, to: 0 };
        }
        match self.zipf_alpha {
            None => {
                let (from, to) = self.queries.object_pair(pop);
                WorkloadOp::Route { from, to }
            }
            Some(alpha) => {
                let from = self.rng.random_range(0..pop);
                let mut to = Self::zipf_rank(&mut self.rng, &mut self.zipf_dest, pop, alpha);
                if to == from {
                    to = (to + 1) % pop;
                }
                WorkloadOp::Route { from, to }
            }
        }
    }

    /// Draws the region for a subscribe/publish op: a fresh rectangle per
    /// op by default, or a Zipf-ranked pick from the lazily built 16-rect
    /// topic palette once [`with_zipf_topics`](Self::with_zipf_topics) is
    /// set.
    fn service_region(&mut self) -> Rect {
        match self.topics {
            None => self.queries.range_query(self.max_query_extent).rect,
            Some(alpha) => {
                if self.topic_palette.is_empty() {
                    self.topic_palette = (0..16)
                        .map(|_| self.queries.range_query(self.max_query_extent).rect)
                        .collect();
                }
                let rank = Self::zipf_rank(
                    &mut self.rng,
                    &mut self.zipf_topic,
                    self.topic_palette.len(),
                    alpha,
                );
                self.topic_palette[rank]
            }
        }
    }

    /// Draws a rank with probability proportional to `1 / (rank + 1)^alpha`
    /// through the cached [`ZipfSampler`] in `slot`: one uniform variate
    /// plus a binary search per draw, with the CDF rebuilt only when the
    /// population or exponent actually changes.
    fn zipf_rank(
        rng: &mut StdRng,
        slot: &mut Option<ZipfSampler>,
        pop: usize,
        alpha: f64,
    ) -> usize {
        let pop = pop.max(1);
        if !slot
            .as_ref()
            .is_some_and(|s| s.len() == pop && s.alpha() == alpha)
        {
            *slot = Some(ZipfSampler::new(pop, alpha));
        }
        let u: f64 = rng.random();
        slot.as_ref().expect("just built").rank_of(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic() {
        let mut a = OpBatchGenerator::new(Distribution::Uniform, 9, OpMix::default());
        let mut b = OpBatchGenerator::new(Distribution::Uniform, 9, OpMix::default());
        assert_eq!(a.batch(100, 200), b.batch(100, 200));
    }

    #[test]
    fn mix_weights_shape_the_batch() {
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 3, OpMix::routes_only());
        let batch = g.batch(50, 500);
        assert!(batch
            .iter()
            .all(|op| matches!(op, WorkloadOp::Route { .. })));

        let mut g = OpBatchGenerator::new(Distribution::Uniform, 3, OpMix::read_heavy());
        let batch = g.batch(50, 2_000);
        let routes = batch
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Route { .. }))
            .count();
        let inserts = batch
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Insert { .. }))
            .count();
        assert!((1_400..=1_800).contains(&routes), "routes {routes}");
        assert!((100..=300).contains(&inserts), "inserts {inserts}");
    }

    #[test]
    fn zipf_destinations_concentrate_on_low_ranks() {
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 5, OpMix::routes_only())
            .with_zipf_destinations(1.0);
        let pop = 100;
        let batch = g.batch(pop, 4_000);
        let mut hits = vec![0usize; pop];
        let mut self_routes = 0usize;
        for op in &batch {
            if let WorkloadOp::Route { from, to } = *op {
                hits[to] += 1;
                if from == to {
                    self_routes += 1;
                }
            }
        }
        assert_eq!(self_routes, 0, "self-routes are deflected");
        let head: usize = hits[..10].iter().sum();
        let tail: usize = hits[90..].iter().sum();
        // With alpha=1 over 100 ranks the top decile carries ~56% of the
        // mass and the bottom decile ~2%; leave wide sampling slack.
        assert!(head > 10 * tail, "head {head} tail {tail}");
        // Determinism holds with the skew enabled.
        let mut g2 = OpBatchGenerator::new(Distribution::Uniform, 5, OpMix::routes_only())
            .with_zipf_destinations(1.0);
        assert_eq!(batch, g2.batch(pop, 4_000));
    }

    #[test]
    fn churn_zipf_mix_scripts_heavy_churn() {
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 11, OpMix::churn_zipf())
            .with_zipf_destinations(1.0);
        let batch = g.batch(200, 2_000);
        let inserts = batch
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Insert { .. }))
            .count();
        let removes = batch
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Remove { .. }))
            .count();
        assert!((450..=750).contains(&inserts), "inserts {inserts}");
        assert!((250..=550).contains(&removes), "removes {removes}");
    }

    #[test]
    fn read_only_mix_scripts_no_write_barrier() {
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 3, OpMix::read_only());
        let batch = g.batch(50, 1_000);
        assert!(batch
            .iter()
            .all(|op| !matches!(op, WorkloadOp::Insert { .. } | WorkloadOp::Remove { .. })));
        let queries = batch
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Range { .. } | WorkloadOp::Radius { .. }))
            .count();
        assert!((40..=180).contains(&queries), "queries {queries}");
    }

    #[test]
    fn participant_indices_track_the_scripted_population() {
        // A mix exercising every family keeps the index invariant honest.
        let mix = OpMix {
            range: 0.05,
            radius: 0.05,
            snapshot: 0.05,
            ..OpMix::services(30, 30)
        };
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 7, mix);
        let mut pop = 20usize;
        for op in g.batch(pop, 1_000) {
            match op {
                WorkloadOp::Insert { .. } => pop += 1,
                WorkloadOp::Remove { index } => {
                    assert!(index < pop, "remove index {index} vs population {pop}");
                    pop -= 1;
                }
                WorkloadOp::Route { from, to } => {
                    assert!(from < pop && to < pop);
                }
                WorkloadOp::Range { from, .. }
                | WorkloadOp::Radius { from, .. }
                | WorkloadOp::Publish { from, .. }
                | WorkloadOp::KvPut { from, .. }
                | WorkloadOp::KvGet { from, .. }
                | WorkloadOp::KvDelete { from, .. } => {
                    assert!(from < pop);
                }
                WorkloadOp::Snapshot { index }
                | WorkloadOp::Subscribe { index, .. }
                | WorkloadOp::Unsubscribe { index } => {
                    assert!(index < pop);
                }
            }
            assert!(pop >= 2, "mix must not script the population below 2");
        }
    }

    #[test]
    fn mixed_presets_hit_their_read_write_ratios() {
        for (pct, lo, hi) in [
            (99u32, 1_900, 2_000),
            (95, 1_800, 1_960),
            (80, 1_480, 1_720),
        ] {
            let mut g = OpBatchGenerator::new(Distribution::Uniform, 23, OpMix::mixed(pct));
            let batch = g.batch(500, 2_000);
            let routes = batch
                .iter()
                .filter(|op| matches!(op, WorkloadOp::Route { .. }))
                .count();
            assert!(
                (lo..=hi).contains(&routes),
                "mixed({pct}): routes {routes} outside [{lo}, {hi}]"
            );
            let inserts = batch
                .iter()
                .filter(|op| matches!(op, WorkloadOp::Insert { .. }))
                .count();
            let removes = batch
                .iter()
                .filter(|op| matches!(op, WorkloadOp::Remove { .. }))
                .count();
            // Churn splits evenly and the extremes are clamped sanely.
            assert_eq!(routes + inserts + removes, 2_000, "no other families");
            let churn = inserts + removes;
            assert!(
                inserts.abs_diff(removes) * 4 <= churn.max(4),
                "mixed({pct}): churn split {inserts}/{removes}"
            );
        }
        // Degenerate ends: all reads / all writes, with clamping above 100.
        assert_eq!(OpMix::mixed(100), OpMix::mixed(250));
        assert_eq!(OpMix::mixed(100).route, 1.0);
        assert_eq!(OpMix::mixed(0).route, 0.0);
        // Composes with Zipf-skewed destinations deterministically.
        let mut a = OpBatchGenerator::new(Distribution::Uniform, 29, OpMix::mixed(95))
            .with_zipf_destinations(1.0);
        let mut b = OpBatchGenerator::new(Distribution::Uniform, 29, OpMix::mixed(95))
            .with_zipf_destinations(1.0);
        assert_eq!(a.batch(300, 1_000), b.batch(300, 1_000));
    }

    #[test]
    fn snapshot_weight_scripts_snapshots() {
        let mix = OpMix {
            snapshot: 0.5,
            ..OpMix::read_only()
        };
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 17, mix);
        let batch = g.batch(50, 400);
        let snaps = batch
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Snapshot { .. }))
            .count();
        assert!(
            (80..=220).contains(&snaps),
            "snapshot weight ~36% of the mix, got {snaps}/400"
        );
    }

    #[test]
    fn services_mix_scripts_service_traffic() {
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 41, OpMix::services(40, 30));
        let batch = g.batch(100, 2_000);
        let count = |pred: fn(&WorkloadOp) -> bool| batch.iter().filter(|op| pred(op)).count();
        let publishes = count(|op| matches!(op, WorkloadOp::Publish { .. }));
        let subscribes = count(|op| matches!(op, WorkloadOp::Subscribe { .. }));
        let kv = count(|op| {
            matches!(
                op,
                WorkloadOp::KvPut { .. } | WorkloadOp::KvGet { .. } | WorkloadOp::KvDelete { .. }
            )
        });
        let routes = count(|op| matches!(op, WorkloadOp::Route { .. }));
        // 40% pub/sub → ~600 publishes, ~176 subscribes; 30% kv → ~600;
        // remainder is routed load with light churn.  Wide sampling slack.
        assert!((450..=750).contains(&publishes), "publishes {publishes}");
        assert!((100..=260).contains(&subscribes), "subscribes {subscribes}");
        assert!((450..=750).contains(&kv), "kv {kv}");
        assert!((300..=620).contains(&routes), "routes {routes}");
        // KV keys stay inside the small collision-friendly keyspace.
        for op in &batch {
            if let WorkloadOp::KvPut { key, .. }
            | WorkloadOp::KvGet { key, .. }
            | WorkloadOp::KvDelete { key, .. } = op
            {
                assert!(*key < 64);
            }
        }
        // Deterministic for a fixed seed.
        let mut g2 = OpBatchGenerator::new(Distribution::Uniform, 41, OpMix::services(40, 30));
        assert_eq!(batch, g2.batch(100, 2_000));
    }

    #[test]
    fn zipf_topics_concentrate_publishes() {
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 13, OpMix::services(60, 0))
            .with_zipf_topics(1.2);
        let batch = g.batch(100, 3_000);
        let mut by_region: std::collections::HashMap<[u64; 4], usize> =
            std::collections::HashMap::new();
        let mut publishes = 0usize;
        for op in &batch {
            if let WorkloadOp::Publish { region, .. } = op {
                publishes += 1;
                let key = [
                    region.min.x.to_bits(),
                    region.min.y.to_bits(),
                    region.max.x.to_bits(),
                    region.max.y.to_bits(),
                ];
                *by_region.entry(key).or_default() += 1;
            }
        }
        assert!(publishes > 500, "publishes {publishes}");
        // The palette bounds the distinct topics, and the hot topic
        // carries far more than its uniform share (1/16 ≈ 6%).
        assert!(by_region.len() <= 16, "topics {}", by_region.len());
        let hottest = by_region.values().copied().max().unwrap();
        assert!(
            hottest * 4 > publishes,
            "hottest topic carries {hottest}/{publishes}"
        );
        // Deterministic with the skew enabled.
        let mut g2 = OpBatchGenerator::new(Distribution::Uniform, 13, OpMix::services(60, 0))
            .with_zipf_topics(1.2);
        assert_eq!(batch, g2.batch(100, 3_000));
    }

    #[test]
    fn tiny_population_degenerates_gracefully() {
        let mut g = OpBatchGenerator::new(Distribution::Uniform, 5, OpMix::routes_only());
        let batch = g.batch(1, 10);
        assert!(batch
            .iter()
            .all(|op| matches!(op, WorkloadOp::Route { from: 0, to: 0 })));
    }
}
