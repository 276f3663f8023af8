//! Property tests pinning the epoch-patched frozen read path to the
//! ground truth, in tier-1.
//!
//! The tentpole invariant of the incremental `FrozenView`: a view kept
//! current by [`FrozenView::refresh`] after arbitrary interleaved
//! insert/remove/route sequences is **bit-identical** to a from-scratch
//! `freeze()` — same ids in live scan order, same SoA coordinates, same
//! adjacency rows — and every route walked over it returns the same
//! `(owner, hops)` and the same per-kind message counts as the live
//! mutable walk, and a refresh does work exactly when a write landed
//! since the last read.  Checked here through the workspace's shrinking
//! property harness (`voronet_testkit::check_cases`).

use rand::rngs::StdRng;
use rand::RngExt;
use voronet::prelude::*;
use voronet_testkit::{check_cases, tk_ensure, tk_ensure_eq};

/// One scripted step of the property: ops are index-named so shrunk
/// scripts stay meaningful after earlier steps are dropped.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Insert { x: f64, y: f64 },
    Remove { pick: usize },
    Route { from: usize, to: usize },
}

fn generate_steps(rng: &mut StdRng) -> Vec<Step> {
    let len = rng.random_range(24..64usize);
    (0..len)
        .map(|_| {
            let u: f64 = rng.random();
            if u < 0.20 {
                Step::Insert {
                    x: rng.random(),
                    y: rng.random(),
                }
            } else if u < 0.38 {
                Step::Remove {
                    pick: rng.random_range(0..4096usize),
                }
            } else {
                Step::Route {
                    from: rng.random_range(0..4096usize),
                    to: rng.random_range(0..4096usize),
                }
            }
        })
        .collect()
}

/// Runs one script against two identically-seeded overlays — one served
/// by live mutable walks, one by a continuously delta-patched
/// [`FrozenView`] — and checks bit-identity at every read barrier.
fn check_script(steps: &[Step]) -> Result<(), String> {
    let config = VoroNetConfig::new(256);
    let mut live = VoroNet::new(config);
    let mut net = VoroNet::new(config);
    let mut warm = PointGenerator::new(Distribution::Uniform, 0xEB0C);
    for _ in 0..24 {
        let p = warm.next_point();
        let a = live.insert(p).map(|r| r.id).ok();
        let b = net.insert(p).map(|r| r.id).ok();
        tk_ensure_eq!(a, b, "warm-up inserts agree");
    }

    let mut view: Option<FrozenView> = None;
    // Whether a write landed since the last read.
    let mut wrote = false;
    let mut scratch = RouteScratch::new();
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Insert { x, y } => {
                let p = Point2::new(x, y);
                let a = live.insert(p).map(|r| r.id).ok();
                let b = net.insert(p).map(|r| r.id).ok();
                tk_ensure_eq!(a, b, "step {i}: insert outcome");
                wrote |= b.is_some();
            }
            Step::Remove { pick } => {
                if live.len() <= 8 {
                    continue;
                }
                let id = live.id_at(pick % live.len()).expect("index below len");
                let a = live.remove(id).map(|_| ()).ok();
                let b = net.remove(id).map(|_| ()).ok();
                tk_ensure_eq!(a, b, "step {i}: remove outcome for {id:?}");
                wrote |= b.is_some();
            }
            Step::Route { from, to } => {
                if live.len() < 2 {
                    continue;
                }
                let from = live.id_at(from % live.len()).expect("index below len");
                let to = live.id_at(to % live.len()).expect("index below len");
                let report = live
                    .route_between(from, to)
                    .map_err(|e| format!("step {i}: live route failed: {e}"))?;

                // Retained view: freeze once, then bring it forward at
                // every read-after-write barrier (a patch, or a rebuild
                // when the writes touched half the population).
                let view = match view.as_mut() {
                    None => view.insert(net.freeze()),
                    Some(v) => {
                        let refresh = v.refresh(&net);
                        tk_ensure_eq!(
                            refresh != ViewRefresh::Current,
                            wrote,
                            "step {i}: a read after a write refreshes, any other read \
                             reuses the view ({refresh:?})"
                        );
                        v
                    }
                };
                wrote = false;
                tk_ensure_eq!(
                    view.epoch(),
                    net.snapshot_epoch(),
                    "step {i}: refresh reaches the current epoch"
                );

                // Bit-identity: ids in live scan order, SoA coords and
                // adjacency rows all equal a from-scratch freeze
                // (FrozenView::eq compares exactly those).
                let fresh = net.freeze();
                tk_ensure!(
                    *view == fresh,
                    "step {i}: patched view diverged from a fresh freeze \
                     (epoch {}, {} nodes)",
                    view.epoch(),
                    view.len()
                );

                // Same walk, same accounting as the live engine.
                scratch.delta.clear();
                let (owner, hops) = view
                    .route_between_in(from, to, &mut scratch)
                    .map_err(|e| format!("step {i}: frozen route failed: {e}"))?;
                net.apply_traffic(&scratch.delta);
                tk_ensure_eq!(owner, report.owner, "step {i}: route owner");
                tk_ensure_eq!(hops, report.hops, "step {i}: route hops");
            }
        }
    }

    // After the whole interleaving the two overlays agree on membership
    // order and on every kind's message count (the frozen side's traffic
    // was applied from read deltas).
    tk_ensure_eq!(live.len(), net.len(), "final population");
    for idx in 0..live.len() {
        tk_ensure_eq!(live.id_at(idx), net.id_at(idx), "dense order at {idx}");
    }
    tk_ensure_eq!(live.traffic(), net.traffic(), "per-kind traffic");
    Ok(())
}

#[test]
fn delta_patched_views_stay_bit_identical_to_fresh_freezes() {
    check_cases(
        "frozen-epoch-bit-identity",
        24,
        0x5EED_E90C,
        generate_steps,
        |steps: &Vec<Step>| check_script(steps),
    );
}
