//! [`ServiceEngine`]: the service layer as an engine wrapper.
//!
//! `ServiceEngine<O>` wraps any [`Overlay`] engine and implements the
//! trait itself, so it drops into every call site that holds a
//! `Box<dyn Overlay>` — the builder, the testkit fleet, the node binary.
//! It intercepts three op families and forwards everything else:
//!
//! * [`Op::Service`] — executed here, entirely through `Overlay` trait
//!   calls (`route`, `range`, `snapshot`), so the results are
//!   bit-identical on every engine whose protocol results agree;
//! * [`Op::Insert`] / [`Op::Remove`] — forwarded, then followed by the
//!   churn hooks that keep KV ownership and replica sets correct;
//! * everything else — forwarded in maximal runs via the inner engine's
//!   `apply_batch`, preserving its batching tricks (the cluster's shared
//!   pump for a run of routes).

use crate::keys::{key_point, topic_key};
use crate::state::{KvEntry, ServiceState};
use voronet_api::{
    DeleteOutcome, GetOutcome, InsertOutcome, Op, OpResult, Overlay, OverlayStats, PublishOutcome,
    PutOutcome, QueryOutcome, RemoveOutcome, RouteOutcome, ServiceOp, ServiceResult,
    SubscribeOutcome, UnsubscribeOutcome,
};
use voronet_core::{ErrorKind, ObjectId, ObjectView, SnapshotStats, VoroNetConfig, VoronetError};
use voronet_geom::Point2;
use voronet_workloads::{RadiusQuery, RangeQuery};

/// A geo-scoped service layer wrapped around an overlay engine.
///
/// See the [module docs](self) for the interception contract and the
/// [crate docs](crate) for the service semantics.
#[derive(Debug)]
pub struct ServiceEngine<O: Overlay> {
    inner: O,
    state: ServiceState,
}

impl<O: Overlay> ServiceEngine<O> {
    /// Wraps an engine with an empty service layer.
    pub fn new(inner: O) -> Self {
        ServiceEngine {
            inner,
            state: ServiceState::default(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The service layer's current state (subscriptions, topic sequence
    /// numbers, KV table, counters).
    pub fn service_state(&self) -> &ServiceState {
        &self.state
    }

    /// Executes one service operation against the wrapped engine.
    pub fn exec_service(&mut self, op: ServiceOp) -> OpResult {
        match op {
            ServiceOp::Subscribe { id, region } => {
                if !self.inner.contains(id) {
                    return OpResult::Failed(VoronetError::new(ErrorKind::UnknownObject(id)));
                }
                let replaced = self.state.subscriptions.insert(id, region).is_some();
                OpResult::Service(ServiceResult::Subscribed(SubscribeOutcome { id, replaced }))
            }
            ServiceOp::Unsubscribe { id } => {
                let existed = self.state.subscriptions.remove(&id).is_some();
                OpResult::Service(ServiceResult::Unsubscribed(UnsubscribeOutcome {
                    id,
                    existed,
                }))
            }
            ServiceOp::Publish {
                from,
                region,
                // The payload token matters on the wire path (it rides the
                // Deliver frames); in-process delivery is pure accounting.
                payload: _,
            } => {
                let flood = match self.inner.range(from, RangeQuery { rect: region }) {
                    Ok(q) => q,
                    Err(e) => return OpResult::Failed(e),
                };
                let topic = topic_key(&region);
                let seq = {
                    let s = self.state.topic_seqs.entry(topic).or_insert(0);
                    *s += 1;
                    *s
                };
                let mut delivered = Vec::new();
                let mut missed = Vec::new();
                for (&sub, sub_region) in &self.state.subscriptions {
                    if !sub_region.intersects(&region) {
                        continue;
                    }
                    // `matches` is sorted by id (QueryOutcome contract).
                    if flood.matches.binary_search(&sub).is_ok() {
                        delivered.push(sub);
                    } else {
                        missed.push(sub);
                    }
                }
                for &sub in &delivered {
                    let last = self.state.seen.entry((sub, topic)).or_insert(0);
                    if seq > *last {
                        *last = seq;
                        self.state.stats.deliveries += 1;
                    } else {
                        self.state.stats.duplicates += 1;
                    }
                }
                self.state.stats.publishes += 1;
                self.state.stats.misses += missed.len() as u64;
                OpResult::Service(ServiceResult::Published(PublishOutcome {
                    seq,
                    delivered,
                    missed,
                    routing_hops: flood.routing_hops,
                    visited: flood.visited,
                    flood_messages: flood.flood_messages,
                }))
            }
            ServiceOp::KvPut { from, key, value } => {
                let domain = self.inner.config().domain;
                let route = match self.inner.route(from, key_point(key, domain)) {
                    Ok(r) => r,
                    Err(e) => return OpResult::Failed(e),
                };
                let replicas = match self.replicas_of(route.owner) {
                    Ok(r) => r,
                    Err(e) => return OpResult::Failed(e),
                };
                let replaced = self
                    .state
                    .kv
                    .insert(
                        key,
                        KvEntry {
                            value,
                            owner: route.owner,
                            replicas: replicas.clone(),
                        },
                    )
                    .is_some();
                self.state.stats.kv_puts += 1;
                OpResult::Service(ServiceResult::Put(PutOutcome {
                    owner: route.owner,
                    replicas,
                    replaced,
                    hops: route.hops,
                }))
            }
            ServiceOp::KvGet { from, key } => {
                let domain = self.inner.config().domain;
                let route = match self.inner.route(from, key_point(key, domain)) {
                    Ok(r) => r,
                    Err(e) => return OpResult::Failed(e),
                };
                // The lookup only succeeds when the stored placement and
                // the routed owner agree — a missed ownership handoff
                // surfaces as a lost value, not as silently stale data.
                let value = self
                    .state
                    .kv
                    .get(&key)
                    .and_then(|entry| (entry.owner == route.owner).then_some(entry.value));
                self.state.stats.kv_gets += 1;
                if value.is_some() {
                    self.state.stats.kv_hits += 1;
                }
                OpResult::Service(ServiceResult::Got(GetOutcome {
                    owner: route.owner,
                    value,
                    hops: route.hops,
                }))
            }
            ServiceOp::KvDelete { from, key } => {
                let domain = self.inner.config().domain;
                let route = match self.inner.route(from, key_point(key, domain)) {
                    Ok(r) => r,
                    Err(e) => return OpResult::Failed(e),
                };
                let existed = self.state.kv.remove(&key).is_some();
                self.state.stats.kv_deletes += 1;
                OpResult::Service(ServiceResult::Deleted(DeleteOutcome {
                    owner: route.owner,
                    existed,
                    hops: route.hops,
                }))
            }
        }
    }

    /// The replica set of `owner`: its Voronoi neighbours, sorted by id.
    fn replicas_of(&self, owner: ObjectId) -> Result<Vec<ObjectId>, VoronetError> {
        let mut replicas = self.inner.snapshot(owner)?.voronoi_neighbours;
        replicas.sort_unstable();
        Ok(replicas)
    }

    /// Churn hook after a successful insert: a new object may sit closer
    /// to a stored key's home coordinate than the current owner, in which
    /// case ownership hands off to it (the tessellation cell containing
    /// the key point now belongs to the newcomer).
    fn handoff_on_insert(&mut self, id: ObjectId, position: Point2) {
        let domain = self.inner.config().domain;
        let mut handoffs = 0u64;
        for (key, entry) in self.state.kv.iter_mut() {
            let kp = key_point(*key, domain);
            let Some(owner_pos) = self.inner.coords(entry.owner) else {
                continue;
            };
            // Lexicographic (distance², id) comparison: exact, and ties —
            // measure-zero with hashed key points — break deterministically.
            if (position.distance2(kp), id) < (owner_pos.distance2(kp), entry.owner) {
                entry.owner = id;
                handoffs += 1;
            }
        }
        self.state.stats.handoffs += handoffs;
        self.refresh_replicas();
    }

    /// Churn hook after a successful remove: entries owned by the
    /// departed object re-resolve to the nearest survivor, the departed
    /// object's subscription and delivery ledger are dropped, and an
    /// empty overlay clears all membership-bound state.
    fn handoff_on_remove(&mut self, id: ObjectId) {
        self.state.subscriptions.remove(&id);
        self.state.seen.retain(|(sub, _), _| *sub != id);
        if self.inner.is_empty() {
            self.state.clear_membership_state();
            return;
        }
        let domain = self.inner.config().domain;
        let live: Vec<(ObjectId, Point2)> = self
            .inner
            .ids()
            .into_iter()
            .filter_map(|oid| self.inner.coords(oid).map(|p| (oid, p)))
            .collect();
        let mut handoffs = 0u64;
        for (key, entry) in self.state.kv.iter_mut() {
            if entry.owner != id {
                continue;
            }
            let kp = key_point(*key, domain);
            let next = live
                .iter()
                .copied()
                .min_by(|&(a_id, a_pos), &(b_id, b_pos)| {
                    (a_pos.distance2(kp), a_id)
                        .partial_cmp(&(b_pos.distance2(kp), b_id))
                        .expect("distances are finite")
                });
            if let Some((next_id, _)) = next {
                entry.owner = next_id;
                handoffs += 1;
            }
        }
        self.state.stats.handoffs += handoffs;
        self.refresh_replicas();
    }

    /// Recomputes every entry's replica set from the current
    /// tessellation.  Any churn event can reshape Voronoi neighbourhoods
    /// well beyond the touched cell, so this runs after every
    /// insert/remove rather than trying to track the blast radius.
    fn refresh_replicas(&mut self) {
        for entry in self.state.kv.values_mut() {
            if let Ok(view) = self.inner.snapshot(entry.owner) {
                let mut replicas = view.voronoi_neighbours;
                replicas.sort_unstable();
                entry.replicas = replicas;
            }
        }
    }

    /// True for the op families the wrapper must see individually; the
    /// rest forward to the inner engine in maximal runs.
    fn intercepted(op: &Op) -> bool {
        matches!(op, Op::Insert { .. } | Op::Remove { .. } | Op::Service(_))
    }
}

impl<O: Overlay> Overlay for ServiceEngine<O> {
    fn engine_name(&self) -> &'static str {
        // The wrapper adds semantics, not an execution strategy; reports
        // keep attributing results to the engine that produced them.
        self.inner.engine_name()
    }

    fn config(&self) -> &VoroNetConfig {
        self.inner.config()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.inner.contains(id)
    }

    fn coords(&self, id: ObjectId) -> Option<Point2> {
        self.inner.coords(id)
    }

    fn id_at(&self, index: usize) -> Option<ObjectId> {
        self.inner.id_at(index)
    }

    fn ids(&self) -> Vec<ObjectId> {
        self.inner.ids()
    }

    fn insert(&mut self, position: Point2) -> Result<InsertOutcome, VoronetError> {
        let outcome = self.inner.insert(position)?;
        self.handoff_on_insert(outcome.id, position);
        Ok(outcome)
    }

    fn remove(&mut self, id: ObjectId) -> Result<RemoveOutcome, VoronetError> {
        let outcome = self.inner.remove(id)?;
        self.handoff_on_remove(id);
        Ok(outcome)
    }

    fn route(&mut self, from: ObjectId, target: Point2) -> Result<RouteOutcome, VoronetError> {
        self.inner.route(from, target)
    }

    fn route_between(
        &mut self,
        from: ObjectId,
        to: ObjectId,
    ) -> Result<RouteOutcome, VoronetError> {
        self.inner.route_between(from, to)
    }

    fn range(&mut self, from: ObjectId, query: RangeQuery) -> Result<QueryOutcome, VoronetError> {
        self.inner.range(from, query)
    }

    fn radius(&mut self, from: ObjectId, query: RadiusQuery) -> Result<QueryOutcome, VoronetError> {
        self.inner.radius(from, query)
    }

    fn snapshot(&self, id: ObjectId) -> Result<ObjectView, VoronetError> {
        self.inner.snapshot(id)
    }

    fn stats(&self) -> OverlayStats {
        self.inner.stats()
    }

    fn snapshot_stats(&self) -> SnapshotStats {
        self.inner.snapshot_stats()
    }

    fn verify_invariants(&self) -> Result<(), VoronetError> {
        self.inner.verify_invariants()?;
        // Service-layer invariant: every stored entry is owned by the
        // live object whose cell contains the key's home coordinate.
        let domain = self.inner.config().domain;
        for (key, entry) in &self.state.kv {
            let Some(owner_pos) = self.inner.coords(entry.owner) else {
                return Err(VoronetError::invariant(format!(
                    "kv entry {key} owned by dead object {:?}",
                    entry.owner
                )));
            };
            let kp = key_point(*key, domain);
            let d_owner = (owner_pos.distance2(kp), entry.owner);
            for index in 0..self.inner.len() {
                let Some(other) = self.inner.id_at(index) else {
                    continue;
                };
                let Some(other_pos) = self.inner.coords(other) else {
                    continue;
                };
                if (other_pos.distance2(kp), other) < d_owner {
                    return Err(VoronetError::invariant(format!(
                        "kv entry {key}: owner {:?} is not nearest to the key point \
                         ({:?} is closer — missed handoff)",
                        entry.owner, other
                    )));
                }
            }
        }
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> OpResult {
        match *op {
            Op::Service(service) => self.exec_service(service),
            Op::Insert { position } => match self.insert(position) {
                Ok(r) => OpResult::Inserted(r),
                Err(e) => OpResult::Failed(e),
            },
            Op::Remove { id } => match self.remove(id) {
                Ok(r) => OpResult::Removed(r),
                Err(e) => OpResult::Failed(e),
            },
            _ => self.inner.apply(op),
        }
    }

    fn apply_batch(&mut self, ops: &[Op]) -> Vec<OpResult> {
        let mut results = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            if Self::intercepted(&ops[i]) {
                results.push(self.apply(&ops[i]));
                i += 1;
            } else {
                // Forward the maximal run of pure protocol ops so the
                // inner engine keeps its batch-level optimisations.
                let start = i;
                while i < ops.len() && !Self::intercepted(&ops[i]) {
                    i += 1;
                }
                results.extend(self.inner.apply_batch(&ops[start..i]));
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voronet_api::OverlayBuilder;

    fn grid_engine(side: u32) -> ServiceEngine<voronet_api::SyncEngine> {
        let mut net = ServiceEngine::new(OverlayBuilder::new(512).seed(9).build_sync());
        for i in 0..side * side {
            let x = (f64::from(i % side) + 0.5) / f64::from(side);
            let y = (f64::from(i / side) + 0.5) / f64::from(side);
            net.insert(Point2::new(x, y)).unwrap();
        }
        net
    }

    fn service(result: OpResult) -> ServiceResult {
        match result {
            OpResult::Service(s) => s,
            other => panic!("expected a service result, got {other:?}"),
        }
    }

    #[test]
    fn bare_engines_reject_service_ops() {
        let mut net = OverlayBuilder::new(16).seed(1).build_sync();
        let a = net.insert(Point2::new(0.5, 0.5)).unwrap().id;
        let r = net.apply(&Op::Service(ServiceOp::KvGet { from: a, key: 1 }));
        match r {
            OpResult::Failed(e) => assert!(matches!(e.kind(), ErrorKind::Unsupported)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subscribe_publish_delivers_to_intersecting_subscribers() {
        let mut net = grid_engine(6);
        let sub = net.inner().id_at(0).unwrap(); // at (0.083, 0.083)
        let far = net.inner().id_at(35).unwrap(); // at (0.917, 0.917)
        let publisher = net.inner().id_at(20).unwrap();

        let region = voronet_geom::Rect::new(Point2::new(0.0, 0.0), Point2::new(0.3, 0.3));
        let r = service(net.exec_service(ServiceOp::Subscribe { id: sub, region }));
        assert_eq!(
            r,
            ServiceResult::Subscribed(SubscribeOutcome {
                id: sub,
                replaced: false
            })
        );
        // Far subscriber's region does not intersect the publish region.
        net.exec_service(ServiceOp::Subscribe {
            id: far,
            region: voronet_geom::Rect::new(Point2::new(0.8, 0.8), Point2::new(1.0, 1.0)),
        });

        let publish = ServiceOp::Publish {
            from: publisher,
            region: voronet_geom::Rect::new(Point2::new(0.0, 0.0), Point2::new(0.25, 0.25)),
            payload: 99,
        };
        let ServiceResult::Published(p) = service(net.exec_service(publish)) else {
            panic!()
        };
        assert_eq!(p.seq, 1);
        assert_eq!(p.delivered, vec![sub]);
        assert!(p.missed.is_empty());
        assert!(p.visited > 0);

        // Same topic again: the sequence number advances.
        let ServiceResult::Published(p2) = service(net.exec_service(publish)) else {
            panic!()
        };
        assert_eq!(p2.seq, 2);

        let stats = net.service_state().stats;
        assert_eq!(stats.publishes, 2);
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.duplicates, 0);

        // Re-subscribing replaces; unsubscribing twice reports absence.
        let r = service(net.exec_service(ServiceOp::Subscribe { id: sub, region }));
        assert_eq!(
            r,
            ServiceResult::Subscribed(SubscribeOutcome {
                id: sub,
                replaced: true
            })
        );
        let r = service(net.exec_service(ServiceOp::Unsubscribe { id: sub }));
        assert_eq!(
            r,
            ServiceResult::Unsubscribed(UnsubscribeOutcome {
                id: sub,
                existed: true
            })
        );
        let r = service(net.exec_service(ServiceOp::Unsubscribe { id: sub }));
        assert_eq!(
            r,
            ServiceResult::Unsubscribed(UnsubscribeOutcome {
                id: sub,
                existed: false
            })
        );
    }

    #[test]
    fn kv_round_trips_from_any_origin() {
        let mut net = grid_engine(5);
        let a = net.inner().id_at(0).unwrap();
        let b = net.inner().id_at(24).unwrap();

        let ServiceResult::Put(put) = service(net.exec_service(ServiceOp::KvPut {
            from: a,
            key: 7,
            value: 1234,
        })) else {
            panic!()
        };
        assert!(!put.replaced);

        // A get from the other corner routes to the same owner.
        let ServiceResult::Got(got) =
            service(net.exec_service(ServiceOp::KvGet { from: b, key: 7 }))
        else {
            panic!()
        };
        assert_eq!(got.owner, put.owner);
        assert_eq!(got.value, Some(1234));

        // Overwrite, then delete, then miss.
        let ServiceResult::Put(put2) = service(net.exec_service(ServiceOp::KvPut {
            from: b,
            key: 7,
            value: 5678,
        })) else {
            panic!()
        };
        assert!(put2.replaced);
        let ServiceResult::Deleted(del) =
            service(net.exec_service(ServiceOp::KvDelete { from: a, key: 7 }))
        else {
            panic!()
        };
        assert!(del.existed);
        let ServiceResult::Got(got) =
            service(net.exec_service(ServiceOp::KvGet { from: a, key: 7 }))
        else {
            panic!()
        };
        assert_eq!(got.value, None);

        let stats = net.service_state().stats;
        assert_eq!((stats.kv_puts, stats.kv_gets, stats.kv_deletes), (2, 2, 1));
        assert_eq!(stats.kv_hits, 1);
    }

    #[test]
    fn insert_near_key_point_hands_ownership_off() {
        let mut net = grid_engine(4);
        let a = net.inner().id_at(0).unwrap();
        let key = 3u64;
        let kp = key_point(key, net.config().domain);

        let ServiceResult::Put(put) = service(net.exec_service(ServiceOp::KvPut {
            from: a,
            key,
            value: 42,
        })) else {
            panic!()
        };

        // Insert a node exactly at the key point: it must take ownership.
        let newcomer = net.insert(kp).unwrap().id;
        assert_ne!(put.owner, newcomer);
        assert_eq!(net.service_state().kv[&key].owner, newcomer);
        assert!(net.service_state().stats.handoffs >= 1);
        net.verify_invariants().unwrap();

        // And the value is still reachable.
        let ServiceResult::Got(got) = service(net.exec_service(ServiceOp::KvGet { from: a, key }))
        else {
            panic!()
        };
        assert_eq!(got.owner, newcomer);
        assert_eq!(got.value, Some(42));
    }

    #[test]
    fn removing_the_owner_hands_ownership_to_the_nearest_survivor() {
        let mut net = grid_engine(4);
        let a = net.inner().id_at(0).unwrap();
        let key = 11u64;

        let ServiceResult::Put(put) = service(net.exec_service(ServiceOp::KvPut {
            from: a,
            key,
            value: 77,
        })) else {
            panic!()
        };

        net.remove(put.owner).unwrap();
        let new_owner = net.service_state().kv[&key].owner;
        assert_ne!(new_owner, put.owner);
        assert!(net.contains(new_owner));
        net.verify_invariants().unwrap();

        let origin = net.inner().id_at(0).unwrap();
        let ServiceResult::Got(got) =
            service(net.exec_service(ServiceOp::KvGet { from: origin, key }))
        else {
            panic!()
        };
        assert_eq!(got.owner, new_owner);
        assert_eq!(got.value, Some(77));
    }

    #[test]
    fn removing_a_subscriber_drops_its_subscription() {
        let mut net = grid_engine(3);
        let sub = net.inner().id_at(4).unwrap();
        net.exec_service(ServiceOp::Subscribe {
            id: sub,
            region: voronet_geom::Rect::UNIT,
        });
        assert!(net.service_state().subscriptions.contains_key(&sub));
        net.remove(sub).unwrap();
        assert!(net.service_state().subscriptions.is_empty());
    }

    #[test]
    fn batches_interleave_service_and_protocol_ops() {
        let mut net = grid_engine(4);
        let a = net.inner().id_at(0).unwrap();
        let b = net.inner().id_at(15).unwrap();
        let ops = vec![
            Op::RouteBetween { from: a, to: b },
            Op::Service(ServiceOp::KvPut {
                from: a,
                key: 5,
                value: 50,
            }),
            Op::RouteBetween { from: b, to: a },
            Op::Insert {
                position: Point2::new(0.51, 0.49),
            },
            Op::Service(ServiceOp::KvGet { from: b, key: 5 }),
        ];
        let results = net.apply_batch(&ops);
        assert_eq!(results.len(), ops.len());
        assert!(results.iter().all(OpResult::is_ok), "{results:?}");
        match &results[4] {
            OpResult::Service(ServiceResult::Got(g)) => assert_eq!(g.value, Some(50)),
            other => panic!("{other:?}"),
        }
    }
}
