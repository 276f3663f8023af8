//! Per-node asynchronous message-passing runtime.
//!
//! The seed reproduction executes every protocol operation synchronously
//! inside one `VoroNet` value; this module supplies the missing layer for
//! evaluating the protocol *as a distributed system*: a set of independent
//! nodes exchanging typed messages through the deterministic [`EventQueue`],
//! each message subject to a pluggable [`NetworkModel`] (latency, loss,
//! partitions).
//!
//! The runtime is generic over the protocol: `M` is the message type carried
//! between nodes and `C` is the type of *control events* — scripted scenario
//! operations injected at absolute times, exempt from network conditions
//! (they model the experimenter's hand, not protocol traffic).  The overlay
//! layer (`voronet-core`) instantiates `M` with its protocol messages and
//! drives the loop; everything here is protocol-agnostic: node liveness,
//! message accounting, deterministic delivery.
//!
//! Determinism contract: for a fixed seed, scenario and protocol logic, two
//! runs deliver the exact same events in the exact same order — the
//! [`EventQueue`] breaks time ties by scheduling order and the
//! [`NetworkModel`] consumes randomness in submission order.

use crate::event::{EventQueue, SimTime};
use crate::metrics::{MessageKind, NodeId, TrafficStats};
use crate::network::{Delivery, NetworkModel};
use std::collections::HashSet;

/// A protocol message in flight (or delivered).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Accounting category of the message.
    pub kind: MessageKind,
    /// Protocol payload.
    pub payload: M,
}

#[derive(Clone)]
enum Item<M, C> {
    Message(Envelope<M>),
    Control(C),
}

/// One event handed to the protocol driver by [`Runtime::step`].
#[derive(Debug, PartialEq)]
pub enum Delivered<M, C> {
    /// A protocol message reached a live node.
    Message {
        /// Delivery time.
        at: SimTime,
        /// The message and its routing metadata.
        envelope: Envelope<M>,
    },
    /// A scripted control event fired.
    Control {
        /// Scheduled time.
        at: SimTime,
        /// The scenario operation (or other control payload).
        payload: C,
    },
}

/// Message-delivery counters of one runtime execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Messages submitted to the network.
    pub sent: u64,
    /// Messages that reached a live destination.
    pub delivered: u64,
    /// Messages dropped by iid loss.
    pub dropped_loss: u64,
    /// Messages dropped by a partition window.
    pub dropped_partition: u64,
    /// Messages that arrived at a node that had left or crashed.
    pub dead_letters: u64,
}

/// The asynchronous runtime: live-node registry, in-flight messages, network
/// model and traffic accounting.  Cloning snapshots the whole execution
/// state (clock, in-flight messages, RNG), so a warmed-up runtime can be
/// replayed from the same point many times.
#[derive(Clone)]
pub struct Runtime<M, C = ()> {
    queue: EventQueue<Item<M, C>>,
    network: NetworkModel,
    live: HashSet<NodeId>,
    traffic: TrafficStats,
    delivery: DeliveryStats,
}

impl<M, C> Runtime<M, C> {
    /// Creates a runtime with no nodes and the given network conditions.
    pub fn new(network: NetworkModel) -> Self {
        Runtime {
            queue: EventQueue::new(),
            network,
            live: HashSet::new(),
            traffic: TrafficStats::new(),
            delivery: DeliveryStats::default(),
        }
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Per-kind / per-sender traffic counters (protocol messages only;
    /// control events are not traffic).
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Delivery counters.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.delivery
    }

    /// Number of live nodes.
    pub fn population(&self) -> usize {
        self.live.len()
    }

    /// Registers `node` as live.  Returns false when it already was.
    pub fn spawn(&mut self, node: NodeId) -> bool {
        self.live.insert(node)
    }

    /// Marks `node` as departed: messages already in flight towards it
    /// become dead letters on arrival.  Returns false when it was not live.
    pub fn kill(&mut self, node: NodeId) -> bool {
        self.live.remove(&node)
    }

    /// Submits a protocol message to the network.  Returns `true` when the
    /// message was scheduled for delivery, `false` when the network dropped
    /// it (the loss is still recorded in the counters — and in the traffic
    /// stats: a lost message was still *sent*).
    pub fn send(&mut self, from: NodeId, to: NodeId, kind: MessageKind, payload: M) -> bool {
        self.delivery.sent += 1;
        self.traffic.record(from, kind);
        match self.network.delivery(from, to, self.queue.now()) {
            Delivery::Deliver { delay } => {
                self.queue.schedule(
                    delay,
                    Item::Message(Envelope {
                        from,
                        to,
                        kind,
                        payload,
                    }),
                );
                true
            }
            Delivery::DroppedLoss => {
                self.delivery.dropped_loss += 1;
                false
            }
            Delivery::DroppedPartition => {
                self.delivery.dropped_partition += 1;
                false
            }
        }
    }

    /// Records protocol messages that the driver executed outside the
    /// network (e.g. a purely local flood phase whose per-hop cost is
    /// counted but not individually simulated) into the traffic counters.
    pub fn record_traffic(&mut self, from: NodeId, kind: MessageKind) {
        self.traffic.record(from, kind);
    }

    /// Schedules a control event at an absolute time.  Control events bypass
    /// the network model entirely.
    pub fn schedule_control_at(&mut self, at: SimTime, payload: C) {
        self.queue.schedule_at(at, Item::Control(payload));
    }

    /// Delivers the next event: the earliest pending control event or
    /// message whose destination is still live.  Messages to departed nodes
    /// are counted as dead letters and skipped.  Returns `None` when the
    /// simulation has quiesced.
    pub fn step(&mut self) -> Option<Delivered<M, C>> {
        while let Some((at, item)) = self.queue.pop() {
            match item {
                Item::Control(payload) => return Some(Delivered::Control { at, payload }),
                Item::Message(envelope) => {
                    if self.live.contains(&envelope.to) {
                        self.delivery.delivered += 1;
                        return Some(Delivered::Message { at, envelope });
                    }
                    self.delivery.dead_letters += 1;
                }
            }
        }
        None
    }

    /// Number of pending events (messages in flight plus scheduled control
    /// events).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{LatencyModel, NetworkModel, PartitionWindow};

    type TestRuntime = Runtime<&'static str, &'static str>;

    fn runtime(network: NetworkModel) -> TestRuntime {
        let mut rt = Runtime::new(network);
        for n in 0..4 {
            rt.spawn(n);
        }
        rt
    }

    #[test]
    fn messages_deliver_in_latency_order() {
        let mut rt = runtime(NetworkModel::new(1, LatencyModel::Fixed(3)));
        rt.send(0, 1, MessageKind::Other, "first");
        rt.send(1, 2, MessageKind::Other, "second");
        let a = rt.step().unwrap();
        let b = rt.step().unwrap();
        assert!(rt.step().is_none());
        match (a, b) {
            (
                Delivered::Message {
                    at: t1,
                    envelope: e1,
                },
                Delivered::Message {
                    at: t2,
                    envelope: e2,
                },
            ) => {
                assert_eq!((t1, e1.payload), (3, "first"));
                assert_eq!((t2, e2.payload), (3, "second"));
            }
            other => panic!("unexpected events: {other:?}"),
        }
        assert_eq!(rt.delivery_stats().delivered, 2);
        assert_eq!(rt.traffic().total(), 2);
    }

    #[test]
    fn dead_nodes_turn_messages_into_dead_letters() {
        let mut rt = runtime(NetworkModel::ideal());
        rt.send(0, 3, MessageKind::Other, "doomed");
        rt.kill(3);
        assert!(rt.step().is_none());
        assert_eq!(rt.delivery_stats().dead_letters, 1);
        assert_eq!(rt.delivery_stats().delivered, 0);
    }

    #[test]
    fn control_events_bypass_the_network() {
        let lossy = NetworkModel::new(1, LatencyModel::Fixed(1)).with_loss(0.999_99);
        let mut rt = runtime(lossy);
        rt.schedule_control_at(5, "op");
        match rt.step() {
            Some(Delivered::Control { at, payload }) => {
                assert_eq!((at, payload), (5, "op"));
            }
            other => panic!("expected control event, got {other:?}"),
        }
        // Control events are not protocol traffic.
        assert_eq!(rt.traffic().total(), 0);
    }

    #[test]
    fn loss_and_partition_are_counted() {
        let mut rt = runtime(
            NetworkModel::new(2, LatencyModel::Fixed(1))
                .with_loss(0.5)
                .with_partition(PartitionWindow {
                    start: 0,
                    end: 1_000,
                    groups: 2,
                }),
        );
        for i in 0..200u64 {
            // Alternate same-component (0→2) and cross-component (0→1)
            // destinations so both loss and partition drops occur.
            let to = if i % 2 == 0 { 2 } else { 1 };
            rt.send(0, to, MessageKind::Other, "m");
        }
        let stats = rt.delivery_stats();
        assert_eq!(stats.sent, 200);
        assert!(stats.dropped_partition > 0, "{stats:?}");
        assert!(stats.dropped_loss > 0, "{stats:?}");
        // Sent messages are all accounted for somewhere.
        let mut delivered = 0;
        while rt.step().is_some() {
            delivered += 1;
        }
        let stats = rt.delivery_stats();
        assert_eq!(
            stats.dropped_loss + stats.dropped_partition + stats.delivered + stats.dead_letters,
            200
        );
        assert_eq!(stats.delivered, delivered);
    }

    #[test]
    fn spawn_and_kill_track_population() {
        let mut rt: TestRuntime = Runtime::new(NetworkModel::ideal());
        assert_eq!(rt.population(), 0);
        assert!(rt.spawn(9));
        assert!(!rt.spawn(9));
        assert_eq!(rt.population(), 1);
        assert!(rt.kill(9));
        assert!(!rt.kill(9));
        assert_eq!(rt.population(), 0);
    }
}
