//! The driver-side service plane: region pub/sub and the
//! coordinate-keyed KV store, as control state mirrored onto the hosts
//! through sequence-numbered service pushes.  Subscriptions are driver
//! state alone: a publication resolves its recipients here through the
//! distributed area flood, and nothing about it travels to the hosts.
//! Every operation is issued
//! by a live object, named by its id.  KV placement is the rule of
//! `voronet_services::keys`, which the single-process `ServiceEngine`
//! calls too: the owner is the least `(distance², id)`, the replicas its
//! sorted Voronoi neighbours.
//!
//! Which objects physically hold a copy is the cluster's own concern,
//! because only a copy on another host survives the owner's host: the
//! replicas placed on hosts other than the owner's mirror the entry, and
//! when every replica shares the owner's host (placement puts neighbours
//! together) the nearest object placed elsewhere does ([`Driver::copies_of`]).
//! A replica on the owner's host holds nothing: it would fall with the
//! owner, and the driver keeps every value anyway.

use super::driver::Driver;
use super::liveness::HostState;
use super::pump::Completes;
use super::{flood_messages, ClusterError, IdSet, OpOutcome};
use crate::transport::{PeerId, Transport};
use crate::wire::WireMsg;
use std::collections::BTreeSet;
use voronet_core::{ObjectId, VoroNet};
use voronet_geom::{Point2, Rect};
use voronet_services::api::{DeleteOutcome, PublishOutcome, SubscribeOutcome, UnsubscribeOutcome};
use voronet_services::{holder_among, key_point, replica_set, topic_key, KvEntry};
use voronet_workloads::RangeQuery;

/// Driver-side control record of one coordinate-keyed entry: its value,
/// owner and replica set, the objects that hold its copies, and the
/// entry's write sequence used to validate copy freshness on degraded
/// reads.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct KvPlacement {
    pub(super) entry: KvEntry,
    pub(super) entry_seq: u64,
    /// [`Driver::copies_of`] the owner, ascending: none on its host.
    pub(super) copies: Vec<u64>,
}

impl KvPlacement {
    /// Every object holding the entry: the owner, then its copies.
    fn roles(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.entry.owner.0).chain(self.copies.iter().copied())
    }
}

/// The owner of a point per the authoritative tessellation
/// ([`holder_among`]), by descent rather than a pass over the population:
/// the greedy descent ends at *a* nearest object, and the objects tied
/// with it at exactly that distance lie on one empty circle around
/// `target`, so they are joined by Delaunay edges and a flood over
/// equidistant Voronoi neighbours collects them all.
fn local_owner_of(net: &VoroNet, target: Point2) -> Option<ObjectId> {
    let nearest = net.owner_of(target)?;
    let at = |id| net.coords(id).expect("live");
    let least = at(nearest).distance2(target);
    let mut tied = vec![nearest];
    let mut flooded = 0;
    while let Some(&from) = tied.get(flooded) {
        flooded += 1;
        for n in net.view_ref(from).expect("live").voronoi_neighbours() {
            if at(n).distance2(target) == least && !tied.contains(&n) {
                tied.push(n);
            }
        }
    }
    holder_among(target, tied.into_iter().map(|id| (id, at(id))))
}

impl<T: Transport> Driver<T> {
    /// Queues one service push to `object`'s host under the object's
    /// next service sequence number, for [`Self::flush_pushes`].
    fn queue_service_push(&mut self, object: u64, build: impl FnOnce(u64) -> WireMsg<'static>) {
        let seq = self.svc_seqs.entry(object).or_insert(0);
        *seq += 1;
        let seq = *seq;
        self.queue(
            self.host(object),
            build(seq),
            Completes::SvcAck(object, seq),
            "service push acks",
            self.policy.pushes(self.barrier_deadline),
        );
    }

    /// Subscribes the live object `id` to a region;
    /// [`OpOutcome::Skipped`] when `id` is not live.
    pub fn subscribe(&mut self, id: ObjectId, region: Rect) -> Result<OpOutcome, ClusterError> {
        if self.issuer(id)?.is_none() {
            return Ok(OpOutcome::Skipped);
        }
        let replaced = self.subs.insert(id, region).is_some();
        Ok(OpOutcome::Subscribed(SubscribeOutcome { id, replaced }))
    }

    /// Drops `id`'s subscription.  An object that is not live has none:
    /// its subscription left with it.
    pub(crate) fn unsubscribe(&mut self, id: ObjectId) -> Result<OpOutcome, ClusterError> {
        // Like every operation, it regenerates revived hosts first.
        self.issuer(id)?;
        let existed = self.subs.remove(&id).is_some();
        Ok(OpOutcome::Unsubscribed(UnsubscribeOutcome { id, existed }))
    }

    /// Publishes from the live object `from` to every subscriber inside
    /// `region`: resolves the recipients through the distributed area
    /// flood and names them in the outcome.  Subscribers whose subscribed
    /// region intersects the publication but who sit outside it are
    /// reported as missed.  Nothing is pushed to the recipients' hosts,
    /// which keep no subscription state, so the call takes no payload: it
    /// stays with the caller.
    pub fn publish(&mut self, from: ObjectId, region: Rect) -> Result<OpOutcome, ClusterError> {
        let OpOutcome::Matches {
            matches,
            hops,
            visited,
        } = self.range_from(from, RangeQuery { rect: region })?
        else {
            return Ok(OpOutcome::Skipped);
        };
        let topic = topic_key(&region);
        let seq = self.topic_seqs.entry(topic).or_insert(0);
        *seq += 1;
        let topic_seq = *seq;
        let (delivered, missed): (Vec<ObjectId>, Vec<ObjectId>) = self
            .subs
            .iter()
            .filter(|(_, sub_region)| sub_region.intersects(&region))
            .map(|(&id, _)| id)
            .partition(|id| matches.binary_search(&id.0).is_ok());
        Ok(OpOutcome::Published(PublishOutcome {
            seq: topic_seq,
            delivered,
            missed,
            routing_hops: hops,
            visited: visited as usize,
            flood_messages: flood_messages(visited),
        }))
    }

    /// The replica set of one owner object ([`replica_set`]), read from
    /// its fan in place.
    fn replicas_of(&self, owner: ObjectId) -> Vec<ObjectId> {
        self.net.view_ref(owner).map_or_else(
            |_| Vec::new(),
            |view| replica_set(view.voronoi_neighbours()),
        )
    }

    /// The objects that hold copies of an entry the live object `owner`
    /// owns, ascending: its Voronoi neighbours placed on other hosts; when
    /// every one shares its host, the nearest object placed elsewhere —
    /// fewest Delaunay hops, then least `(distance², id)` to the owner
    /// ([`holder_among`]).  None when no other host holds a live object.
    pub(super) fn copies_of(&self, owner: ObjectId) -> Vec<u64> {
        let home = self.host(owner.0);
        let neighbours = |id| self.net.view_ref(id).expect("live").voronoi_neighbours();
        let mut seen = IdSet::default();
        seen.insert(owner);
        let (mut ring, mut next) = (vec![owner], Vec::new());
        let mut copies: Vec<u64> = Vec::new();
        for hops in 1.. {
            for &at in &ring {
                next.extend(neighbours(at).filter(|&n| seen.insert(n)));
            }
            copies.extend(next.iter().map(|n| n.0).filter(|&n| self.host(n) != home));
            if hops > 1 && !copies.is_empty() {
                let centre = self.net.coords(owner).expect("live");
                let placed = copies.iter().map(|&c| {
                    let c = ObjectId(c);
                    (c, self.net.coords(c).expect("live"))
                });
                let nearest = holder_among(centre, placed).expect("a copy");
                copies = vec![nearest.0];
            }
            if !copies.is_empty() || next.is_empty() {
                break;
            }
            std::mem::swap(&mut ring, &mut next);
            next.clear();
        }
        copies.sort_unstable();
        copies
    }

    /// The placement of `value` under `owner`, written at `entry_seq`.
    /// Its copies come from [`Self::copies_of`] once per owner between
    /// two membership changes: the search reads 90 objects on average for
    /// the owners of a 2 000-object build whose replicas all share their
    /// host, 625 at 20 000.
    fn kv_placement(&mut self, owner: ObjectId, value: u64, entry_seq: u64) -> KvPlacement {
        let copies = match self.copies.get(&owner.0) {
            Some(copies) => copies.clone(),
            None => {
                let copies = self.copies_of(owner);
                self.copies.insert(owner.0, copies.clone());
                copies
            }
        };
        KvPlacement {
            entry: KvEntry {
                value,
                owner,
                replicas: self.replicas_of(owner),
            },
            entry_seq,
            copies,
        }
    }

    /// The object owning `key`'s coordinates and the hops to it from the
    /// live object `from`; `None` when `from` is not live.  The
    /// distributed greedy route decides on the healthy path; when any
    /// host is suspected or dead (or the route fails), the authoritative
    /// tessellation decides directly, in 0 hops — the same owner the
    /// healthy route converges to — instead of letting the route burn its
    /// retry ladder on a dead hop first.
    fn kv_owner(
        &mut self,
        from: ObjectId,
        key: u64,
    ) -> Result<Option<(ObjectId, u32)>, ClusterError> {
        let Some(from_object) = self.issuer(from)? else {
            return Ok(None);
        };
        let target = key_point(key, self.net.config().domain);
        let routed = if self.detector.all_alive() {
            self.query(from_object, "kv route", |token| WireMsg::RouteReq {
                token,
                from_object,
                target,
            })
        } else {
            Err(ClusterError::Unavailable("kv route"))
        };
        match routed {
            Ok(OpOutcome::Route { owner, hops }) => Ok(Some((ObjectId(owner), hops))),
            Ok(_) | Err(ClusterError::Timeout(_) | ClusterError::Unavailable(_)) => {
                Ok(local_owner_of(&self.net, target).map(|owner| (owner, 0)))
            }
            Err(e) => Err(e),
        }
    }

    /// Queues the final replication layout of one entry: the owner
    /// stores, each copy mirrors, and every previously involved live
    /// object no longer in the layout drops.  At most one push per
    /// `(object, key)`, so the host-side sequence filter can never let a
    /// reordered resend leave a stale role behind.
    fn queue_kv_layout(&mut self, key: u64, placement: &KvPlacement, previous: &[u64]) {
        let mut dropped: BTreeSet<u64> = previous.iter().copied().collect();
        for role in placement.roles() {
            dropped.remove(&role);
        }
        let entry = &placement.entry;
        let (owner, value, entry_seq) = (entry.owner.0, entry.value, placement.entry_seq);
        self.queue_service_push(owner, |seq| WireMsg::SvcKvStore {
            object: owner,
            seq,
            key,
            value,
        });
        for &copy in &placement.copies {
            self.queue_service_push(copy, |seq| WireMsg::SvcKvReplicate {
                object: copy,
                seq,
                key,
                value,
                entry_seq,
            });
        }
        for object in dropped {
            // A departed object's host already dropped the entry when
            // the object was evicted; only live former roles need it.
            if !self.net.contains(ObjectId(object)) {
                continue;
            }
            self.queue_service_push(object, |seq| WireMsg::SvcKvDrop { object, seq, key });
        }
    }

    /// Stores `key → value` at the host of the object whose Voronoi cell
    /// contains the key's coordinates (located by a distributed route
    /// from the live object `from`) and mirrors it to copies on other
    /// hosts (see the module docs), so an acked write survives any
    /// single-host crash.  [`OpOutcome::Skipped`] when `from` is not live.
    pub fn kv_put(
        &mut self,
        from: ObjectId,
        key: u64,
        value: u64,
    ) -> Result<OpOutcome, ClusterError> {
        let Some((owner, hops)) = self.kv_owner(from, key)? else {
            return Ok(OpOutcome::Skipped);
        };
        self.kv_seq += 1;
        let placement = self.kv_placement(owner, value, self.kv_seq);
        let stored = placement.entry.replicas.len() as u32;
        let previous: Vec<u64> = self
            .kv
            .get(&key)
            .into_iter()
            .flat_map(KvPlacement::roles)
            .collect();
        self.queue_kv_layout(key, &placement, &previous);
        let replaced = self.kv.insert(key, placement).is_some();
        self.flush_pushes()?;
        Ok(OpOutcome::KvStored {
            key,
            owner: owner.0,
            replaced,
            replicas: stored,
            hops,
        })
    }

    /// Reads `key`, issued by the live object `from`, from the host of the
    /// owning cell's object — the route decides the owner, so a get
    /// issued after churn reads from wherever the entry migrated to.  When
    /// the owner's host is suspected or dead (or stops answering
    /// mid-read), the read degrades to the replica set instead of failing.
    pub fn kv_get(&mut self, from: ObjectId, key: u64) -> Result<OpOutcome, ClusterError> {
        let Some((ObjectId(owner), hops)) = self.kv_owner(from, key)? else {
            return Ok(OpOutcome::Skipped);
        };
        if self.host_state(self.host(owner)) == HostState::Alive {
            match self.fetch_value(owner, key) {
                Ok(value) => {
                    return Ok(OpOutcome::KvFetched {
                        key,
                        owner,
                        value,
                        degraded: false,
                        hops,
                    })
                }
                Err(ClusterError::Timeout(_) | ClusterError::Unavailable(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.degraded_kv_get(key, owner, hops)
    }

    /// Serves a read whose owner host is unreachable from the entry's
    /// copies, accepting only one whose entry sequence matches the
    /// driver's record — a stale copy is never returned.
    fn degraded_kv_get(
        &mut self,
        key: u64,
        owner: u64,
        hops: u32,
    ) -> Result<OpOutcome, ClusterError> {
        self.stats.degraded_reads += 1;
        let Some(placement) = self.kv.get(&key).cloned() else {
            // No acked write for this key: absence is an exact answer
            // even while the owning host is down.
            return Ok(OpOutcome::KvFetched {
                key,
                owner,
                value: None,
                degraded: true,
                hops,
            });
        };
        for &copy in &placement.copies {
            if self.detector.is_dead(self.host(copy)) {
                continue;
            }
            if let Ok(Some((value, entry_seq))) = self.fetch_replica(copy, key) {
                if entry_seq == placement.entry_seq {
                    return Ok(OpOutcome::KvFetched {
                        key,
                        owner: placement.entry.owner.0,
                        value: Some(value),
                        degraded: true,
                        hops,
                    });
                }
            }
        }
        self.stats.fail_fast += 1;
        Err(ClusterError::Unavailable("kv degraded read"))
    }

    /// Deletes `key`, issued by the live object `from`, from the host of
    /// the owning cell's object and from every replica.
    pub fn kv_delete(&mut self, from: ObjectId, key: u64) -> Result<OpOutcome, ClusterError> {
        let Some((ObjectId(owner), hops)) = self.kv_owner(from, key)? else {
            return Ok(OpOutcome::Skipped);
        };
        let old = self.kv.remove(&key);
        let mut parties: BTreeSet<u64> = old.iter().flat_map(KvPlacement::roles).collect();
        parties.insert(owner);
        for object in parties {
            if !self.net.contains(ObjectId(object)) {
                continue;
            }
            self.queue_service_push(object, |seq| WireMsg::SvcKvDrop { object, seq, key });
        }
        self.flush_pushes()?;
        Ok(OpOutcome::KvDropped(DeleteOutcome {
            owner: ObjectId(owner),
            existed: old.is_some(),
            hops,
        }))
    }

    /// Reads `key` from `owner`'s host.
    fn fetch_value(&mut self, owner: u64, key: u64) -> Result<Option<u64>, ClusterError> {
        let fetch = |token| WireMsg::SvcKvFetch {
            token,
            object: owner,
            key,
        };
        let read = |msg: &WireMsg<'_>| match *msg {
            WireMsg::SvcKvValue { value, .. } => Some(value),
            _ => None,
        };
        self.request(owner, "kv fetch", self.policy.requests(), fetch, read)
    }

    /// Reads the copy of `key` mirrored at `object`:
    /// `Ok(Some((value, entry_seq)))` when the replica holds one.  Capped
    /// at two attempts — a degraded read tries the next replica instead
    /// of burning the full budget here.
    pub(super) fn fetch_replica(
        &mut self,
        object: u64,
        key: u64,
    ) -> Result<Option<(u64, u64)>, ClusterError> {
        let fetch = |token| WireMsg::SvcKvFetchReplica { token, object, key };
        let read = |msg: &WireMsg<'_>| match *msg {
            WireMsg::SvcKvReplicaValue {
                entry_seq, value, ..
            } => Some(value.map(|v| (v, entry_seq))),
            _ => None,
        };
        let mut ladder = self.policy.requests();
        ladder.max_attempts = ladder.max_attempts.min(2);
        self.request(object, "kv replica fetch", ladder, fetch, read)
    }

    /// Replays a revived host's service state — owned KV entries and
    /// their copies — from driver control state, ascending by key.
    /// First go the KV drops the host missed while dead: a host that kept
    /// its state still holds those copies.
    /// The replay's own pushes carry newer sequence numbers, so they win
    /// however the frames are reordered.
    pub(super) fn replay_services(&mut self, peer: PeerId) -> Result<(), ClusterError> {
        let (missed, elsewhere): (BTreeSet<_>, BTreeSet<_>) =
            std::mem::take(&mut self.missed_drops)
                .into_iter()
                .partition(|&(object, _)| self.host(object) == peer);
        self.missed_drops = elsewhere;
        // A departed object's copies left with its eviction.
        for (object, key) in missed {
            if self.net.contains(ObjectId(object)) {
                self.queue_service_push(object, |seq| WireMsg::SvcKvDrop { object, seq, key });
            }
        }
        let entries: Vec<(u64, KvPlacement)> =
            self.kv.iter().map(|(&k, p)| (k, p.clone())).collect();
        for (key, placement) in entries {
            let (value, entry_seq) = (placement.entry.value, placement.entry_seq);
            let owner = placement.entry.owner.0;
            if self.host(owner) == peer {
                self.queue_service_push(owner, |seq| WireMsg::SvcKvStore {
                    object: owner,
                    seq,
                    key,
                    value,
                });
            }
            for &copy in &placement.copies {
                if self.host(copy) == peer {
                    self.queue_service_push(copy, |seq| WireMsg::SvcKvReplicate {
                        object: copy,
                        seq,
                        key,
                        value,
                        entry_seq,
                    });
                }
            }
        }
        self.flush_pushes()
    }

    /// Re-places KV entries against the authoritative tessellation after
    /// churn and migrates those whose layout changed: the value is
    /// re-stored at the new owner's host, mirrored to the new replicas,
    /// and dropped from former roles (handoff).  The placement rule (see
    /// the module docs) is run for the entries whose answer can differ
    /// from the one held: all of them when `touched` is `None`, otherwise
    /// those whose owner departed, is touched (only then can its
    /// neighbours have changed), or is beaten under that order by a
    /// touched object (a joiner is one; nothing else can newly be the
    /// owner), and those that lost a copy.
    #[inline(never)]
    pub(super) fn rebalance_kv(&mut self, touched: Option<&[u64]>) -> Result<(), ClusterError> {
        if self.kv.is_empty() && self.subs.is_empty() {
            return Ok(());
        }
        if self.net.is_empty() {
            // Mirror the service-engine rule: an emptied overlay drops
            // all membership-derived state (topic sequences persist).
            self.kv.clear();
            self.subs.clear();
            return Ok(());
        }
        let domain = self.net.config().domain;
        let placed = |id: ObjectId| Some((id, self.net.coords(id)?));
        let rivals: Option<Vec<(ObjectId, Point2)>> =
            touched.and_then(|ids| ids.iter().map(|&id| placed(ObjectId(id))).collect());
        let mut owners: Vec<(u64, ObjectId)> = Vec::new(); // (key, its owner now)
        for (&key, placement) in &self.kv {
            let kp = key_point(key, domain);
            let held = &placement.entry;
            let copies_live = || {
                placement
                    .copies
                    .iter()
                    .all(|&c| self.net.contains(ObjectId(c)))
            };
            if let (Some(rivals), Some(owner)) = (&rivals, placed(held.owner)) {
                let settled = |&rival: &(ObjectId, Point2)| {
                    rival.0 != held.owner && holder_among(kp, [owner, rival]) == Some(held.owner)
                };
                if rivals.iter().all(settled) && copies_live() {
                    continue;
                }
            }
            owners.push((
                key,
                local_owner_of(&self.net, kp).expect("non-empty overlay"),
            ));
        }
        let mut moved = false;
        for (key, owner) in owners {
            let held = &self.kv[&key];
            let new = self.kv_placement(owner, held.entry.value, held.entry_seq);
            let held = &self.kv[&key];
            if new != *held {
                let previous: Vec<u64> = held.roles().collect();
                self.queue_kv_layout(key, &new, &previous);
                self.kv.insert(key, new);
                moved = true;
            }
        }
        if !moved {
            return Ok(());
        }
        self.flush_pushes()
    }
}

#[cfg(test)]
mod tests {
    use super::local_owner_of;
    use voronet_core::{ObjectId, VoroNet, VoroNetConfig};
    use voronet_geom::Point2;
    use voronet_workloads::{Distribution, PointGenerator};

    /// The rule as a pass over the population — what `local_owner_of`
    /// must answer.
    fn linear_owner_of(net: &VoroNet, target: Point2) -> Option<ObjectId> {
        net.ids()
            .map(|id| (net.coords(id).expect("live").distance2(target), id))
            .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
            .map(|(_, id)| id)
    }

    #[test]
    fn owner_by_descent_matches_the_linear_rule_on_random_keys() {
        let mut net = VoroNet::new(VoroNetConfig::new(2_000).with_seed(7));
        assert_eq!(local_owner_of(&net, Point2::new(0.5, 0.5)), None);
        for p in PointGenerator::new(Distribution::Uniform, 2007).take_points(2_000) {
            net.insert(p).unwrap();
        }
        for target in PointGenerator::new(Distribution::Uniform, 23).take_points(2_000) {
            assert_eq!(
                local_owner_of(&net, target),
                linear_owner_of(&net, target),
                "{target:?}"
            );
        }
    }

    /// A 5 × 5 lattice queried at cell corners (four objects tied, joined
    /// through whichever diagonal the triangulation chose) and edge
    /// midpoints (two tied): ties are the common case and the lowest id
    /// wins whatever object the descent happens to stop at.  Ids are made
    /// to disagree with lattice order by inserting in a scrambled order.
    #[test]
    fn owner_by_descent_breaks_ties_like_the_linear_rule() {
        let mut net = VoroNet::new(VoroNetConfig::new(25).with_seed(3));
        // Eighths are exact in binary, so tied distances compare equal.
        let at = |i: usize| (i + 2) as f64 / 8.0;
        for k in 0..25 {
            let cell = (k * 7) % 25;
            net.insert(Point2::new(at(cell % 5), at(cell / 5))).unwrap();
        }
        let (mut tied_queries, mut descent_stopped_elsewhere) = (0, 0);
        for twice_y in 0..=8 {
            for twice_x in 0..=8 {
                // Every half step of the lattice: objects, edge midpoints
                // and cell centres (the corners of the Voronoi cells).
                let target =
                    Point2::new(at(0) + twice_x as f64 / 16.0, at(0) + twice_y as f64 / 16.0);
                let expected = linear_owner_of(&net, target);
                assert_eq!(local_owner_of(&net, target), expected, "{target:?}");
                tied_queries += usize::from(twice_x % 2 == 1 || twice_y % 2 == 1);
                descent_stopped_elsewhere += usize::from(net.owner_of(target) != expected);
            }
        }
        assert_eq!(tied_queries, 56);
        assert!(descent_stopped_elsewhere > 0, "the flood must be exercised");
    }
}
