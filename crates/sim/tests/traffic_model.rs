//! Model test of [`TrafficStats`]: random operation sequences checked
//! after every step against a `BTreeMap` of per-kind counts.

use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeMap;
use voronet_sim::{MessageKind, TrafficStats};
use voronet_testkit::prop::check_cases;
use voronet_testkit::{tk_ensure, tk_ensure_eq};

/// Per-kind counts in an ordered map, kept as the oracle.
#[derive(Debug, Clone, Default)]
struct Reference {
    per_kind: BTreeMap<MessageKind, u64>,
}

impl Reference {
    fn add(&mut self, kind: MessageKind, n: u64) {
        *self.per_kind.entry(kind).or_insert(0) += n;
    }

    fn count(&self, kind: MessageKind) -> u64 {
        self.per_kind.get(&kind).copied().unwrap_or(0)
    }

    fn total(&self) -> u64 {
        self.per_kind.values().sum()
    }

    /// Two counters are equal when every kind's count is.
    fn same(&self, other: &Reference) -> bool {
        MessageKind::ALL
            .into_iter()
            .all(|kind| self.count(kind) == other.count(kind))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Record(MessageKind),
    Add(MessageKind, u64),
    /// Merge in counters built from these adds.
    Merge(Vec<(MessageKind, u64)>),
    Clone,
    Reset,
}

fn draw_kind(rng: &mut StdRng) -> MessageKind {
    MessageKind::ALL[rng.random_range(0..MessageKind::ALL.len())]
}

fn draw_ops(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.random_range(1..80usize);
    (0..len)
        .map(|_| match rng.random_range(0..40u32) {
            0..=19 => Op::Record(draw_kind(rng)),
            20..=31 => Op::Add(draw_kind(rng), rng.random_range(0..100u64)),
            32..=35 => {
                let n = rng.random_range(0..6usize);
                Op::Merge(
                    (0..n)
                        .map(|_| (draw_kind(rng), rng.random_range(0..10u64)))
                        .collect(),
                )
            }
            36..=38 => Op::Clone,
            _ => Op::Reset,
        })
        .collect()
}

fn apply(op: &Op, stats: &mut TrafficStats, model: &mut Reference) {
    match op {
        &Op::Record(kind) => {
            stats.record(kind);
            model.add(kind, 1);
        }
        &Op::Add(kind, n) => {
            stats.add(kind, n);
            model.add(kind, n);
        }
        Op::Merge(adds) => {
            let mut other = TrafficStats::new();
            for &(kind, n) in adds {
                other.add(kind, n);
                model.add(kind, n);
            }
            stats.merge(&other);
        }
        Op::Clone => *stats = stats.clone(),
        Op::Reset => {
            stats.reset();
            *model = Reference::default();
        }
    }
}

fn agree(stats: &TrafficStats, model: &Reference) -> Result<(), String> {
    tk_ensure_eq!(stats.total(), model.total(), "total");
    for kind in MessageKind::ALL {
        tk_ensure_eq!(stats.count(kind), model.count(kind), "count({kind:?})");
    }
    Ok(())
}

#[test]
fn per_kind_counts_match_the_btreemap_reference() {
    check_cases(
        "traffic-stats-model",
        400,
        0x7AFF_1C57,
        draw_ops,
        |ops: &Vec<Op>| {
            let (mut a, mut model_a) = (TrafficStats::new(), Reference::default());
            for (step, op) in ops.iter().enumerate() {
                apply(op, &mut a, &mut model_a);
                agree(&a, &model_a).map_err(|e| format!("after op {step}: {e}"))?;
            }

            // The same ops with the two halves swapped: equal counters iff
            // the reference counts are equal, whatever order they grew in.
            let (mut b, mut model_b) = (TrafficStats::new(), Reference::default());
            let (head, tail) = ops.split_at(ops.len() / 2);
            for op in tail.iter().chain(head) {
                apply(op, &mut b, &mut model_b);
            }
            agree(&b, &model_b)?;
            tk_ensure_eq!(
                a == b,
                model_a.same(&model_b),
                "equality against swapped halves"
            );
            tk_ensure_eq!(b == a, model_a.same(&model_b), "equality is symmetric");

            // Rebuilt from the final counts alone, one `add` per kind in
            // reverse order: always equal.
            let mut rebuilt = TrafficStats::new();
            for kind in MessageKind::ALL.into_iter().rev() {
                rebuilt.add(kind, model_a.count(kind));
            }
            tk_ensure!(rebuilt == a, "rebuilt counters differ");

            // One more message of any kind breaks equality, and two extra
            // messages that differ only in their kind tell the counters
            // apart.
            let plus = |kind: MessageKind| {
                let mut more = rebuilt.clone();
                more.record(kind);
                more
            };
            for kind in MessageKind::ALL {
                tk_ensure!(plus(kind) != a, "extra {kind:?} message unnoticed");
            }
            tk_ensure!(
                plus(MessageKind::Other) != plus(MessageKind::QueryAnswer),
                "an extra message's kind unnoticed"
            );
            Ok(())
        },
    );
}

#[test]
fn kind_indices_enumerate_all() {
    for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
        assert_eq!(kind.index(), i);
    }
}
