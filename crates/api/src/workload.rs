//! Resolution of backend-agnostic [`WorkloadOp`] scripts into typed
//! [`Op`] batches.
//!
//! `voronet-workloads` sits below the overlay layer, so its generated
//! scripts name participants by *dense population index* rather than by
//! object id.  [`resolve_workload`] binds a script to a concrete engine at
//! submission time: indices are resolved against a mirror of the engine's
//! dense sampling order that tracks the script's own removals with the
//! same swap-remove discipline the engines use.

use crate::ops::{Op, ServiceOp};
use crate::overlay::Overlay;
use voronet_core::ObjectId;
use voronet_workloads::WorkloadOp;

/// Resolves an index-named workload script into an [`Op`] batch against
/// the overlay's current population.
///
/// Removals update the resolution mirror with the engines' swap-remove
/// discipline, so later indices keep addressing live objects; objects
/// inserted *by the script itself* are unknown until the batch runs and
/// are therefore never picked as participants.  Participant-naming
/// operations are dropped (not resolved) while the mirror is empty —
/// `Insert` is the only operation an empty overlay can execute.
pub fn resolve_workload(overlay: &dyn Overlay, script: &[WorkloadOp]) -> Vec<Op> {
    let mut mirror: Vec<ObjectId> = overlay.ids();
    let mut ops = Vec::with_capacity(script.len());
    for op in script {
        if mirror.is_empty() && !matches!(op, WorkloadOp::Insert { .. }) {
            continue;
        }
        let at = |index: usize| mirror[index % mirror.len()];
        ops.push(match *op {
            WorkloadOp::Insert { position } => Op::Insert { position },
            WorkloadOp::Remove { index } => Op::Remove {
                id: mirror.swap_remove(index % mirror.len()),
            },
            WorkloadOp::Route { from, to } => Op::RouteBetween {
                from: at(from),
                to: at(to),
            },
            WorkloadOp::Range { from, query } => Op::Range {
                from: at(from),
                query,
            },
            WorkloadOp::Radius { from, query } => Op::Radius {
                from: at(from),
                query,
            },
            WorkloadOp::Snapshot { index } => Op::Snapshot { id: at(index) },
            WorkloadOp::Subscribe { index, region } => Op::Service(ServiceOp::Subscribe {
                id: at(index),
                region,
            }),
            WorkloadOp::Unsubscribe { index } => {
                Op::Service(ServiceOp::Unsubscribe { id: at(index) })
            }
            WorkloadOp::Publish {
                from,
                region,
                payload,
            } => Op::Service(ServiceOp::Publish {
                from: at(from),
                region,
                payload,
            }),
            WorkloadOp::KvPut { from, key, value } => Op::Service(ServiceOp::KvPut {
                from: at(from),
                key,
                value,
            }),
            WorkloadOp::KvGet { from, key } => Op::Service(ServiceOp::KvGet {
                from: at(from),
                key,
            }),
            WorkloadOp::KvDelete { from, key } => Op::Service(ServiceOp::KvDelete {
                from: at(from),
                key,
            }),
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OverlayBuilder;
    use crate::ops::OpResult;
    use voronet_geom::Point2;
    use voronet_workloads::{Distribution, OpBatchGenerator, OpMix};

    #[test]
    fn resolved_scripts_execute_cleanly_on_an_engine() {
        let mut engine = OverlayBuilder::new(500).seed(11).build_sync();
        for i in 0..60u32 {
            let x = f64::from(i % 8) / 8.0 + 0.05;
            let y = f64::from(i / 8) / 8.0 + 0.05;
            engine.insert(Point2::new(x, y)).unwrap();
        }
        let mut gen = OpBatchGenerator::new(Distribution::Uniform, 13, OpMix::read_heavy());
        let script = gen.batch(engine.len(), 120);
        let ops = resolve_workload(&engine, &script);
        assert!(!ops.is_empty());
        let results = engine.apply_batch(&ops);
        assert_eq!(results.len(), ops.len());
        for (op, result) in ops.iter().zip(&results) {
            assert!(
                result.is_ok(),
                "resolved op {op:?} failed: {:?}",
                result.err()
            );
        }
        assert!(results.iter().any(|r| matches!(r, OpResult::Routed(_))));
    }

    #[test]
    fn removals_keep_later_indices_live() {
        let mut engine = OverlayBuilder::new(200).seed(3).build_sync();
        for i in 0..20u32 {
            engine
                .insert(Point2::new(
                    0.05 + f64::from(i % 5) * 0.18,
                    0.05 + f64::from(i / 5) * 0.2,
                ))
                .unwrap();
        }
        // A script that removes half the population and then routes.
        let mut script: Vec<WorkloadOp> =
            (0..10).map(|_| WorkloadOp::Remove { index: 0 }).collect();
        script.extend((0..10).map(|i| WorkloadOp::Route { from: i, to: i + 3 }));
        let ops = resolve_workload(&engine, &script);
        assert_eq!(ops.len(), 20);
        let results = engine.apply_batch(&ops);
        assert!(results.iter().all(OpResult::is_ok), "{results:?}");
        assert_eq!(engine.len(), 10);
    }

    #[test]
    fn empty_mirror_drops_participant_ops() {
        let engine = OverlayBuilder::new(10).build_sync();
        let script = [
            WorkloadOp::Route { from: 0, to: 1 },
            WorkloadOp::Insert {
                position: Point2::new(0.5, 0.5),
            },
            WorkloadOp::Remove { index: 0 },
        ];
        let ops = resolve_workload(&engine, &script);
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], Op::Insert { .. }));
    }
}
