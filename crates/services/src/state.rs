//! The service layer's own state: subscriptions, topic sequence numbers
//! and the KV table.
//!
//! Everything is held in `BTreeMap`s so iteration order — and therefore
//! every derived quantity (delivery lists, handoff order) — is identical
//! across engines.  The state is `PartialEq` so the differential testkit
//! can require bit-for-bit agreement after every operation.

use std::collections::BTreeMap;
use voronet_core::ObjectId;
use voronet_geom::Rect;

/// One stored KV entry: the value plus the placement the service layer
/// believes is current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvEntry {
    /// The stored value token.
    pub value: u64,
    /// The live object currently owning the key's Voronoi cell.
    pub owner: ObjectId,
    /// The owner's Voronoi neighbours at the last placement refresh —
    /// the replica set that would serve the entry if the owner departed
    /// abruptly.
    pub replicas: Vec<ObjectId>,
}

/// Cumulative service-layer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Publishes executed (successful region floods).
    pub publishes: u64,
    /// Payload deliveries to resolved subscribers.
    pub deliveries: u64,
    /// Re-deliveries suppressed by per-topic sequence numbers (only the
    /// distributed path retransmits, so this stays 0 in-process).
    pub duplicates: u64,
    /// Subscribers whose region intersected a publish but whose own
    /// coordinates fell outside the flooded rectangle — interest the
    /// region flood could not reach.
    pub misses: u64,
    /// KV store operations.
    pub kv_puts: u64,
    /// KV lookups.
    pub kv_gets: u64,
    /// KV lookups that found a value at the routed owner.
    pub kv_hits: u64,
    /// KV deletions.
    pub kv_deletes: u64,
    /// Ownership transfers triggered by churn (a closer object joined,
    /// or the owner departed).
    pub handoffs: u64,
}

/// The mutable state of one service layer instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceState {
    /// Standing subscriptions: subscriber → region of interest.  At most
    /// one subscription per object; re-subscribing replaces.
    pub subscriptions: BTreeMap<ObjectId, Rect>,
    /// Per-topic publish sequence numbers, keyed by the exact bit
    /// pattern of the topic rectangle.
    pub topic_seqs: BTreeMap<[u64; 4], u64>,
    /// Highest sequence number each subscriber has seen per topic —
    /// the duplicate-suppression ledger.
    pub seen: BTreeMap<(ObjectId, [u64; 4]), u64>,
    /// The KV table.
    pub kv: BTreeMap<u64, KvEntry>,
    /// Cumulative counters.
    pub stats: ServiceStats,
}

impl ServiceState {
    /// Drops every piece of state that references live objects.  Called
    /// when the overlay population reaches zero: with no objects there
    /// is no owner to hold an entry and no subscriber to deliver to.
    pub(crate) fn clear_membership_state(&mut self) {
        self.subscriptions.clear();
        self.seen.clear();
        self.kv.clear();
    }
}
