//! Traffic and routing accounting.
//!
//! Every quantity reported by the paper's evaluation is a count collected
//! here: logical hops per greedy route (Figures 6–8) and per-operation
//! message counts (the O(1) maintenance-cost claims of Section 4.2).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a simulated node (the physical host of an object).
pub type NodeId = u64;

/// Category of protocol message, used to break traffic down per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MessageKind {
    /// Greedy-routing forwarding step (`Spawn(Route, …)` in the paper).
    RouteForward,
    /// Neighbourhood update during `AddVoronoiRegion`.
    VoronoiUpdate,
    /// Close-neighbour set exchange (Lemma 1 discovery).
    CloseNeighbourExchange,
    /// Long-range link establishment / delegation.
    LongLink,
    /// Departure notification from `RemoveVoronoiRegion`.
    Departure,
    /// Application-level query answer.
    QueryAnswer,
    /// Anything else (extensions, tests).
    Other,
}

impl MessageKind {
    /// Every kind, in [`MessageKind::index`] order.
    pub const ALL: [MessageKind; 7] = [
        MessageKind::RouteForward,
        MessageKind::VoronoiUpdate,
        MessageKind::CloseNeighbourExchange,
        MessageKind::LongLink,
        MessageKind::Departure,
        MessageKind::QueryAnswer,
        MessageKind::Other,
    ];

    /// Position of this kind in [`MessageKind::ALL`] — the index of its
    /// counter in any per-kind array.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated traffic counters for a simulation run.
///
/// Recording a message is three stores and no search: the per-kind
/// counter in an array indexed by [`MessageKind::index`], the sender's
/// counter in a table indexed by [`NodeId`], and the running total.  Node
/// ids are expected to be allocated densely from zero (the overlay's object
/// ids are), so the table is as large as the id range; a sender far
/// outside it is kept in an ordered spill instead of stretching the
/// table.  Which store holds a count is not observable: two
/// values are equal when every kind and every sender count agree.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    per_kind: [u64; MessageKind::ALL.len()],
    /// `per_node_sent[id]` for every id below the table's length.
    per_node_sent: Vec<u64>,
    /// Counts of the ids at or beyond the table's length (never zero).
    spill: BTreeMap<NodeId, u64>,
    total: u64,
}

impl PartialEq for TrafficStats {
    fn eq(&self, other: &Self) -> bool {
        self.per_kind == other.per_kind && self.senders().eq(other.senders())
    }
}

impl Eq for TrafficStats {}

impl TrafficStats {
    /// An id may exceed the table's length by at most this factor (plus a
    /// small floor) and still extend the table; anything further goes to
    /// the spill, so one stray id never allocates more than O(senders).
    const MAX_SPREAD: u64 = 8;

    /// Creates empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extends the per-sender table to cover every id below `ids`, so
    /// recording a message from any of them is a plain array store that
    /// never allocates.  Counts are unaffected.
    pub fn reserve_senders(&mut self, ids: NodeId) {
        let Ok(len) = usize::try_from(ids) else {
            return;
        };
        if len <= self.per_node_sent.len() {
            return;
        }
        self.per_node_sent.resize(len, 0);
        if !self.spill.is_empty() {
            let beyond = self.spill.split_off(&ids);
            for (node, c) in std::mem::replace(&mut self.spill, beyond) {
                self.per_node_sent[node as usize] = c;
            }
        }
    }

    /// Adds `n > 0` to the sender counter of `node`.
    #[inline]
    fn bump_sender(&mut self, node: NodeId, n: u64) {
        let len = self.per_node_sent.len() as u64;
        if node >= len && node <= len.saturating_mul(Self::MAX_SPREAD).saturating_add(64) {
            self.reserve_senders(node + 1);
        }
        let slot = usize::try_from(node).ok();
        match slot.and_then(|i| self.per_node_sent.get_mut(i)) {
            Some(count) => *count += n,
            None => *self.spill.entry(node).or_insert(0) += n,
        }
    }

    /// Records one message of the given kind sent by `from`.
    #[inline]
    pub fn record(&mut self, from: NodeId, kind: MessageKind) {
        self.per_kind[kind.index()] += 1;
        self.total += 1;
        self.bump_sender(from, 1);
    }

    /// Total number of messages recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of messages of a given kind.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.per_kind[kind.index()]
    }

    /// Number of messages sent by a given node.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        match usize::try_from(node)
            .ok()
            .and_then(|i| self.per_node_sent.get(i))
        {
            Some(&c) => c,
            None => self.spill.get(&node).copied().unwrap_or(0),
        }
    }

    /// Every node with a non-zero count, in ascending id order.
    fn senders(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let table = self.per_node_sent.iter().enumerate();
        table
            .filter(|&(_, &c)| c != 0)
            .map(|(node, &c)| (node as NodeId, c))
            .chain(self.spill.iter().map(|(&node, &c)| (node, c)))
    }

    /// The most loaded sender and its message count, if any traffic exists
    /// (the highest id among equally loaded senders).
    pub fn max_sender(&self) -> Option<(NodeId, u64)> {
        self.senders().max_by_key(|&(_, c)| c)
    }

    /// Mean messages per sender (0 when no traffic).
    pub fn mean_per_sender(&self) -> f64 {
        match self.senders().count() {
            0 => 0.0,
            senders => self.total as f64 / senders as f64,
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (mine, theirs) in self.per_kind.iter_mut().zip(other.per_kind) {
            *mine += theirs;
        }
        self.total += other.total;
        self.reserve_senders(other.per_node_sent.len() as NodeId);
        for (node, c) in other.senders() {
            self.bump_sender(node, c);
        }
    }

    /// Clears all counters (the sender table keeps its extent, so ids
    /// reserved with [`TrafficStats::reserve_senders`] stay reserved).
    pub fn reset(&mut self) {
        self.per_kind = Default::default();
        self.per_node_sent.fill(0);
        self.spill.clear();
        self.total = 0;
    }
}

/// Transport-level health counters, shared by every `Transport`
/// implementation of `voronet-net` (the deterministic vnet simulator, UDP
/// and TCP) and surfaced in the `voronet-node` stats line.
///
/// Lossy-path tests assert on these counters instead of on silence: a
/// dropped frame, a dead-lettered delivery or a TCP reconnect always
/// leaves a trace here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Frames submitted for transmission.
    pub frames_sent: u64,
    /// Frames handed to the receiving endpoint.
    pub frames_delivered: u64,
    /// Frames dropped by iid loss (vnet) or a failed socket send.
    pub dropped_loss: u64,
    /// Frames dropped by an active partition window (vnet only).
    pub dropped_partition: u64,
    /// Frames that arrived for a departed / unknown destination.
    pub dead_letters: u64,
    /// Frames rejected because they exceeded the transport's frame budget.
    pub oversized: u64,
    /// Frames whose header failed to decode on arrival.
    pub decode_errors: u64,
    /// Connection re-establishment attempts (TCP only).
    pub reconnects: u64,
}

impl TransportStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another set of counters into this one (e.g. aggregating the
    /// per-host stats of a cluster).
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.dropped_loss += other.dropped_loss;
        self.dropped_partition += other.dropped_partition;
        self.dead_letters += other.dead_letters;
        self.oversized += other.oversized;
        self.decode_errors += other.decode_errors;
        self.reconnects += other.reconnects;
    }
}

impl fmt::Display for TransportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} loss={} partition={} dead={} oversized={} decode_err={} \
             reconnects={}",
            self.frames_sent,
            self.frames_delivered,
            self.dropped_loss,
            self.dropped_partition,
            self.dead_letters,
            self.oversized,
            self.decode_errors,
            self.reconnects
        )
    }
}

/// Accumulator of per-route hop counts (the paper's central routing metric).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteStats {
    hops: Vec<u32>,
}

impl RouteStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the hop count of one completed route.
    pub fn record(&mut self, hops: u32) {
        self.hops.push(hops);
    }

    /// Number of routes recorded.
    pub fn count(&self) -> usize {
        self.hops.len()
    }

    /// Mean hop count (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.hops.is_empty() {
            0.0
        } else {
            self.hops.iter().map(|&h| h as f64).sum::<f64>() / self.hops.len() as f64
        }
    }

    /// Maximum hop count (`None` when empty).
    pub fn max(&self) -> Option<u32> {
        self.hops.iter().copied().max()
    }

    /// The `q`-quantile of hop counts (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u32> {
        if self.hops.is_empty() {
            return None;
        }
        let mut sorted = self.hops.clone();
        sorted.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// All recorded hop counts (in recording order).
    pub fn samples(&self) -> &[u32] {
        &self.hops
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RouteStats) {
        self.hops.extend_from_slice(&other.hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_counters() {
        let mut t = TrafficStats::new();
        t.record(1, MessageKind::RouteForward);
        t.record(1, MessageKind::RouteForward);
        t.record(2, MessageKind::LongLink);
        assert_eq!(t.total(), 3);
        assert_eq!(t.count(MessageKind::RouteForward), 2);
        assert_eq!(t.count(MessageKind::Departure), 0);
        assert_eq!(t.sent_by(1), 2);
        assert_eq!(t.sent_by(99), 0);
        assert_eq!(t.max_sender(), Some((1, 2)));
        assert!((t.mean_per_sender() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn traffic_merge_and_reset() {
        let mut a = TrafficStats::new();
        a.record(1, MessageKind::VoronoiUpdate);
        let mut b = TrafficStats::new();
        b.record(1, MessageKind::VoronoiUpdate);
        b.record(3, MessageKind::Departure);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(MessageKind::VoronoiUpdate), 2);
        assert_eq!(a.sent_by(1), 2);
        a.reset();
        assert_eq!(a.total(), 0);
        assert_eq!(a.max_sender(), None);
    }

    #[test]
    fn equality_ignores_how_kinds_and_senders_were_paired() {
        // The per-kind and per-sender counts are independent tallies: the
        // same multiset of kinds and of senders compares equal whichever
        // sender each kind was recorded with, and in whatever order.
        let mut a = TrafficStats::new();
        a.record(4, MessageKind::RouteForward);
        a.record(4, MessageKind::RouteForward);
        a.record(9, MessageKind::Other);

        let mut b = TrafficStats::new();
        b.record(9, MessageKind::RouteForward);
        b.record(4, MessageKind::Other);
        b.record(4, MessageKind::RouteForward);

        assert_eq!(a, b);
        assert_eq!(b.total(), 3);
        assert_eq!(b.sent_by(77), 0);
        assert_eq!(b.mean_per_sender(), a.mean_per_sender());
        b.record(9, MessageKind::Other);
        assert_ne!(a, b);
    }

    #[test]
    fn route_stats_quantiles() {
        let mut r = RouteStats::new();
        for h in 1..=100u32 {
            r.record(h);
        }
        assert_eq!(r.count(), 100);
        assert!((r.mean() - 50.5).abs() < 1e-12);
        assert_eq!(r.max(), Some(100));
        assert_eq!(r.quantile(0.0), Some(1));
        assert_eq!(r.quantile(1.0), Some(100));
        assert_eq!(r.quantile(0.5), Some(51));
    }

    #[test]
    fn route_stats_empty_and_merge() {
        let r = RouteStats::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.max(), None);
        assert_eq!(r.quantile(0.5), None);
        let mut a = RouteStats::new();
        a.record(3);
        let mut b = RouteStats::new();
        b.record(5);
        a.merge(&b);
        assert_eq!(a.samples(), &[3, 5]);
    }
}
