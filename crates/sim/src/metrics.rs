//! Traffic and routing accounting.
//!
//! Every quantity reported by the paper's evaluation is a count collected
//! here: logical hops per greedy route (Figures 6–8) and per-operation
//! message counts (the O(1) maintenance-cost claims of Section 4.2).

use serde::{Deserialize, Serialize};
use std::fmt;

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
/// One counter per [`MessageKind`], in an array indexed by
/// [`MessageKind::index`], and the running total: recording a message is
/// two adds.  The paper's figures count messages per route and per
/// operation, never per sender, so no sender is kept.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    per_kind: [u64; MessageKind::ALL.len()],
    total: u64,
}

impl TrafficStats {
    /// Creates empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` messages of the given kind.
    #[inline]
    pub fn add(&mut self, kind: MessageKind, n: u64) {
        self.per_kind[kind.index()] += n;
        self.total += n;
    }

    /// Records one message of the given kind.
    #[inline]
    pub fn record(&mut self, kind: MessageKind) {
        self.add(kind, 1);
    }

    /// Total number of messages recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of messages of a given kind.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.per_kind[kind.index()]
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (mine, theirs) in self.per_kind.iter_mut().zip(other.per_kind) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
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
    /// Frames dropped by injected loss or a crashed endpoint (the fault
    /// layer), or by a failed socket send.
    pub dropped_loss: u64,
    /// Frames dropped at an open partition's boundary (the fault layer).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_counters() {
        let mut t = TrafficStats::new();
        t.record(MessageKind::RouteForward);
        t.record(MessageKind::RouteForward);
        t.record(MessageKind::LongLink);
        t.add(MessageKind::Other, 4);
        t.add(MessageKind::Departure, 0);
        assert_eq!(t.total(), 7);
        assert_eq!(t.count(MessageKind::RouteForward), 2);
        assert_eq!(t.count(MessageKind::Other), 4);
        assert_eq!(t.count(MessageKind::Departure), 0);
    }

    #[test]
    fn traffic_merge_and_reset() {
        let mut a = TrafficStats::new();
        a.record(MessageKind::VoronoiUpdate);
        let mut b = TrafficStats::new();
        b.record(MessageKind::VoronoiUpdate);
        b.record(MessageKind::Departure);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(MessageKind::VoronoiUpdate), 2);
        assert_eq!(a.count(MessageKind::Departure), 1);
        a.reset();
        assert_eq!(a, TrafficStats::new());
    }

    #[test]
    fn equality_compares_every_kind() {
        // Equal totals are not enough: one message moved to another kind
        // tells the counters apart, whatever order they were recorded in.
        let mut a = TrafficStats::new();
        a.add(MessageKind::RouteForward, 2);
        a.record(MessageKind::Other);
        let mut b = TrafficStats::new();
        b.record(MessageKind::Other);
        b.record(MessageKind::RouteForward);
        b.record(MessageKind::RouteForward);
        assert_eq!(a, b);
        b.record(MessageKind::Other);
        a.record(MessageKind::QueryAnswer);
        assert_eq!(a.total(), b.total());
        assert_ne!(a, b);
    }
}
