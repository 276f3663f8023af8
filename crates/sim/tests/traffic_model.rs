//! Model test of [`TrafficStats`]: random operation sequences over dense,
//! sparse and near-`NodeId::MAX` sender ids, checked after every step
//! against the `BTreeMap` implementation the array store replaced.

use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeMap;
use voronet_sim::{MessageKind, NodeId, TrafficStats};
use voronet_testkit::prop::check_cases;
use voronet_testkit::{tk_ensure, tk_ensure_eq};

/// The previous `TrafficStats`, kept as the oracle.
#[derive(Debug, Clone, Default, PartialEq)]
struct Reference {
    per_kind: BTreeMap<MessageKind, u64>,
    per_node_sent: BTreeMap<NodeId, u64>,
    total: u64,
}

impl Reference {
    fn record(&mut self, from: NodeId, kind: MessageKind) {
        *self.per_kind.entry(kind).or_insert(0) += 1;
        *self.per_node_sent.entry(from).or_insert(0) += 1;
        self.total += 1;
    }

    fn count(&self, kind: MessageKind) -> u64 {
        self.per_kind.get(&kind).copied().unwrap_or(0)
    }

    fn sent_by(&self, node: NodeId) -> u64 {
        self.per_node_sent.get(&node).copied().unwrap_or(0)
    }

    fn max_sender(&self) -> Option<(NodeId, u64)> {
        self.per_node_sent
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(&n, &c)| (n, c))
    }

    fn mean_per_sender(&self) -> f64 {
        if self.per_node_sent.is_empty() {
            0.0
        } else {
            self.total as f64 / self.per_node_sent.len() as f64
        }
    }

    fn merge(&mut self, other: &Reference) {
        for (&k, &c) in &other.per_kind {
            *self.per_kind.entry(k).or_insert(0) += c;
        }
        for (&n, &c) in &other.per_node_sent {
            *self.per_node_sent.entry(n).or_insert(0) += c;
        }
        self.total += other.total;
    }
}

#[derive(Debug, Clone)]
enum Op {
    Record(NodeId, MessageKind),
    /// Merge in counters built from these records.
    Merge(Vec<(NodeId, MessageKind)>),
    Reserve(NodeId),
    Clone,
    Reset,
}

/// Sender ids from every region the store treats differently: a dense
/// prefix, gaps the table later grows across, ids it will never reach, and
/// the provisional joiner ids at the top of the range.
fn draw_id(rng: &mut StdRng) -> NodeId {
    match rng.random_range(0..10u32) {
        0..=3 => rng.random_range(0..40u64),
        4 => rng.random_range(60..140u64),
        5 => rng.random_range(500..700u64),
        6 => [5_000, 1 << 20, 1 << 40, (1 << 63) + 7][rng.random_range(0..4usize)],
        7 => NodeId::MAX,
        _ => NodeId::MAX - rng.random_range(1..6u64),
    }
}

fn draw_kind(rng: &mut StdRng) -> MessageKind {
    MessageKind::ALL[rng.random_range(0..MessageKind::ALL.len())]
}

fn draw_ops(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.random_range(1..80usize);
    (0..len)
        .map(|_| match rng.random_range(0..40u32) {
            0..=31 => Op::Record(draw_id(rng), draw_kind(rng)),
            32..=34 => {
                let n = rng.random_range(0..6usize);
                Op::Merge((0..n).map(|_| (draw_id(rng), draw_kind(rng))).collect())
            }
            35..=36 => Op::Reserve(rng.random_range(0..300u64)),
            37..=38 => Op::Clone,
            _ => Op::Reset,
        })
        .collect()
}

fn apply(op: &Op, stats: &mut TrafficStats, model: &mut Reference) {
    match op {
        &Op::Record(from, kind) => {
            stats.record(from, kind);
            model.record(from, kind);
        }
        Op::Merge(records) => {
            let (mut other, mut other_model) = (TrafficStats::new(), Reference::default());
            for &(from, kind) in records {
                other.record(from, kind);
                other_model.record(from, kind);
            }
            stats.merge(&other);
            model.merge(&other_model);
        }
        &Op::Reserve(ids) => stats.reserve_senders(ids),
        Op::Clone => *stats = stats.clone(),
        Op::Reset => {
            stats.reset();
            *model = Reference::default();
        }
    }
}

fn agree(stats: &TrafficStats, model: &Reference, probes: &[NodeId]) -> Result<(), String> {
    tk_ensure_eq!(stats.total(), model.total, "total");
    for kind in MessageKind::ALL {
        tk_ensure_eq!(stats.count(kind), model.count(kind), "count({kind:?})");
    }
    for &node in probes {
        tk_ensure_eq!(stats.sent_by(node), model.sent_by(node), "sent_by({node})");
    }
    tk_ensure_eq!(stats.max_sender(), model.max_sender(), "max_sender");
    tk_ensure_eq!(
        stats.mean_per_sender().to_bits(),
        model.mean_per_sender().to_bits(),
        "mean_per_sender"
    );
    Ok(())
}

#[test]
fn array_store_matches_the_btreemap_reference() {
    check_cases(
        "traffic-stats-model",
        400,
        0x7AFF_1C57,
        draw_ops,
        |ops: &Vec<Op>| {
            // Every id an op names, plus neighbours that must stay zero.
            let mut probes: Vec<NodeId> = vec![0, 41, 59, 141, 4_999, NodeId::MAX - 6];
            for op in ops {
                match op {
                    Op::Record(id, _) => probes.push(*id),
                    Op::Merge(records) => probes.extend(records.iter().map(|r| r.0)),
                    _ => {}
                }
            }

            let (mut a, mut model_a) = (TrafficStats::new(), Reference::default());
            for (step, op) in ops.iter().enumerate() {
                apply(op, &mut a, &mut model_a);
                agree(&a, &model_a, &probes).map_err(|e| format!("after op {step}: {e}"))?;
            }

            // The same ops with the two halves swapped: equal counters iff
            // the reference maps are equal, whatever order the stores grew in.
            let (mut b, mut model_b) = (TrafficStats::new(), Reference::default());
            let (head, tail) = ops.split_at(ops.len() / 2);
            for op in tail.iter().chain(head) {
                apply(op, &mut b, &mut model_b);
            }
            agree(&b, &model_b, &probes)?;
            tk_ensure_eq!(
                a == b,
                model_a == model_b,
                "equality against swapped halves"
            );
            tk_ensure_eq!(b == a, model_a == model_b, "equality is symmetric");

            // Rebuilt from the final counts alone, one `record` per message,
            // highest id first and each sender paired with whichever kind
            // comes next, with the table stretched past small ids: always
            // equal, since neither the pairing, the table's extent nor a
            // zero entry is observable.
            let senders = model_a
                .per_node_sent
                .iter()
                .rev()
                .flat_map(|(&node, &c)| std::iter::repeat_n(node, c as usize));
            let kinds = MessageKind::ALL
                .into_iter()
                .flat_map(|kind| std::iter::repeat_n(kind, model_a.count(kind) as usize));
            let mut rebuilt = TrafficStats::new();
            for (node, kind) in senders.zip(kinds) {
                rebuilt.record(node, kind);
                if node < 1_000 {
                    rebuilt.reserve_senders(node + 2);
                }
            }
            agree(&rebuilt, &model_a, &probes)?;
            tk_ensure!(rebuilt == a, "rebuilt counters differ");
            tk_ensure!(a == rebuilt, "rebuilt counters differ (mirrored)");

            // One more message anywhere breaks equality, and two extra
            // messages that differ only in their sender, or only in their
            // kind, tell the counters apart.
            let plus = |node: NodeId, kind: MessageKind| {
                let mut more = rebuilt.clone();
                more.record(node, kind);
                more
            };
            for node in [0, 650, NodeId::MAX - 3] {
                let more = plus(node, MessageKind::Other);
                tk_ensure!(more != a, "extra message from {node} unnoticed");
                tk_ensure!(a != more, "extra message from {node} unnoticed (mirrored)");
            }
            tk_ensure!(
                plus(0, MessageKind::Other) != plus(650, MessageKind::Other),
                "an extra message's sender unnoticed"
            );
            tk_ensure!(
                plus(0, MessageKind::Other) != plus(0, MessageKind::QueryAnswer),
                "an extra message's kind unnoticed"
            );
            Ok(())
        },
    );
}

#[test]
fn max_sender_ties_resolve_to_the_highest_id() {
    let mut t = TrafficStats::new();
    for node in [3, 9, NodeId::MAX - 2, 200_000] {
        for _ in 0..5 {
            t.record(node, MessageKind::Other);
        }
    }
    assert_eq!(t.max_sender(), Some((NodeId::MAX - 2, 5)));
    let mut dense = TrafficStats::new();
    for node in [7, 2, 5] {
        dense.record(node, MessageKind::Other);
    }
    assert_eq!(dense.max_sender(), Some((7, 1)));
}

#[test]
fn kind_indices_enumerate_all() {
    for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
        assert_eq!(kind.index(), i);
    }
}
