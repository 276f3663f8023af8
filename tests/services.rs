//! Cross-crate tests of the service plane.
//!
//! The geo-scoped KV: under arbitrary interleavings of puts, gets,
//! deletes and churn, `get` always returns the value of the last `put` —
//! the overlay's ownership handoffs are invisible to clients.  Each case
//! is a random script of [`Step`]s replayed from scratch against a
//! [`ServiceEngine`]-wrapped sync engine and a plain `HashMap` model; any
//! disagreement is shrunk by the testkit's script-dropping shrinker before
//! being reported, so a failure prints a near-minimal interleaving.
//!
//! Region publish on the inline cluster: a count gate on the frames one
//! publish costs, derived from the protocol, and on how the resolution
//! flood grows with the region.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet::api::PublishOutcome;
use voronet::net::{InlineCluster, OpOutcome, Transport};
use voronet::prelude::*;
use voronet_testkit::check_cases;

/// One step of a KV-under-churn script.  Keys come from a small palette
/// (`slot` indexes it) so puts, gets and deletes actually collide.
#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(Point2),
    Remove(usize),
    Put { slot: usize, value: u64 },
    Get { slot: usize },
    Delete { slot: usize },
}

const KEY_PALETTE: usize = 8;

fn key_of(slot: usize) -> u64 {
    ((slot % KEY_PALETTE) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE
}

fn random_script(rng: &mut StdRng) -> Vec<Step> {
    let len = rng.random_range(40..120usize);
    (0..len)
        .map(|_| match rng.random_range(0..10u32) {
            0 | 1 => Step::Insert(Point2::new(rng.random(), rng.random())),
            2 => Step::Remove(rng.random_range(0..64usize)),
            3..=5 => Step::Put {
                slot: rng.random_range(0..KEY_PALETTE),
                value: rng.random(),
            },
            6..=8 => Step::Get {
                slot: rng.random_range(0..KEY_PALETTE),
            },
            _ => Step::Delete {
                slot: rng.random_range(0..KEY_PALETTE),
            },
        })
        .collect()
}

/// Replays `script` against the engine and the map model; errors on the
/// first observable disagreement.
fn check_script(script: &[Step]) -> Result<(), String> {
    let mut engine = ServiceEngine::new(OverlayBuilder::new(256).seed(77).build_sync());
    // A seeded base population: service ops need a live overlay, and a
    // floor of survivors keeps removals from emptying it mid-script.
    let mut live = Vec::new();
    let mut seeds = PointGenerator::new(Distribution::Uniform, 0xBA5E);
    while live.len() < 8 {
        if let Ok(r) = engine.insert(seeds.next_point()) {
            live.push(r.id);
        }
    }
    let mut model: HashMap<u64, u64> = HashMap::new();

    for (i, step) in script.iter().enumerate() {
        let from = live[i % live.len()];
        match *step {
            Step::Insert(p) => {
                if let Ok(r) = engine.insert(p) {
                    live.push(r.id);
                }
            }
            Step::Remove(idx) => {
                if live.len() > 4 {
                    let id = live.swap_remove(idx % live.len());
                    engine
                        .remove(id)
                        .map_err(|e| format!("step {i}: removing live {id:?}: {e}"))?;
                }
            }
            Step::Put { slot, value } => {
                let key = key_of(slot);
                match engine.exec_service(ServiceOp::KvPut { from, key, value }) {
                    OpResult::Service(ServiceResult::Put(p)) => {
                        let expected = model.insert(key, value).is_some();
                        voronet_testkit::tk_ensure_eq!(
                            p.replaced,
                            expected,
                            "step {i}: put key {key:#x} replaced-flag"
                        );
                    }
                    other => return Err(format!("step {i}: put failed: {other:?}")),
                }
            }
            Step::Get { slot } => {
                let key = key_of(slot);
                match engine.exec_service(ServiceOp::KvGet { from, key }) {
                    OpResult::Service(ServiceResult::Got(g)) => {
                        voronet_testkit::tk_ensure_eq!(
                            g.value,
                            model.get(&key).copied(),
                            "step {i}: get key {key:#x} must return the last put"
                        );
                    }
                    other => return Err(format!("step {i}: get failed: {other:?}")),
                }
            }
            Step::Delete { slot } => {
                let key = key_of(slot);
                match engine.exec_service(ServiceOp::KvDelete { from, key }) {
                    OpResult::Service(ServiceResult::Deleted(d)) => {
                        let expected = model.remove(&key).is_some();
                        voronet_testkit::tk_ensure_eq!(
                            d.existed,
                            expected,
                            "step {i}: delete key {key:#x} existed-flag"
                        );
                    }
                    other => return Err(format!("step {i}: delete failed: {other:?}")),
                }
            }
        }
    }
    engine
        .verify_invariants()
        .map_err(|e| format!("after the script: {e}"))
}

#[test]
fn kv_get_returns_last_put_under_churn() {
    let cases = if voronet::workloads::smoke_budget() {
        24
    } else {
        64
    };
    check_cases(
        "kv get/put/delete vs map model under churn",
        cases,
        0x5EED_C0DE,
        random_script,
        |script| check_script(script),
    );
}

const PUBLISH_SEED: u64 = 2007;
const PUBLISH_OBJECTS: usize = 800;
const PUBLISHES_PER_SIDE: usize = 50;

/// The square of half-side `half` around `centre`, clipped to the unit
/// domain.
fn square(centre: Point2, half: f64) -> Rect {
    Rect::new(
        Point2::new((centre.x - half).max(0.0), (centre.y - half).max(0.0)),
        Point2::new((centre.x + half).min(1.0), (centre.y + half).min(1.0)),
    )
}

/// Frames every endpoint of the cluster has sent so far.
fn frames_sent(cluster: &InlineCluster) -> u64 {
    cluster.endpoints().map(|t| t.stats().frames_sent).sum()
}

/// Publishes over an ideal hub, with every 4th object subscribed to a
/// small region.  Each publish must succeed, and it may send at most
/// `hops + 2·visited + 2` frames in all: the request and the answer, at
/// most one route step per hop, and one probe and one reply per object
/// the resolution flood visits.  Nothing goes to the recipients' hosts:
/// the outcome names them.  The flood must visit more objects as the
/// region grows.
#[test]
fn publish_frames_stay_within_the_protocol_bound() {
    let config = VoroNetConfig::new(PUBLISH_OBJECTS).with_seed(PUBLISH_SEED);
    let mut cluster = InlineCluster::start(3, config);
    let mut points = PointGenerator::new(Distribution::Uniform, PUBLISH_SEED);
    while cluster.driver().population() < PUBLISH_OBJECTS {
        cluster
            .driver()
            .insert(points.next_point())
            .expect("insert");
    }
    let mut rng = StdRng::seed_from_u64(PUBLISH_SEED ^ 0x5B);
    for index in (0..PUBLISH_OBJECTS).step_by(4) {
        let region = square(Point2::new(rng.random(), rng.random()), 0.05);
        let id = cluster
            .net()
            .id_at(index)
            .expect("index below the population");
        let subscribed = cluster.driver().subscribe(id, region).expect("subscribe");
        assert!(matches!(subscribed, OpOutcome::Subscribed { .. }));
    }

    let mut smaller_mean = 0.0;
    for side in [0.05, 0.2, 0.5] {
        let mut rng = StdRng::seed_from_u64(PUBLISH_SEED ^ f64::to_bits(side));
        let mut visited_total = 0u64;
        for p in 0..PUBLISHES_PER_SIDE {
            let region = square(Point2::new(rng.random(), rng.random()), side / 2.0);
            let from = cluster.net().id_at(p).expect("index below the population");
            let before = frames_sent(&cluster);
            let published = cluster.driver().publish(from, region).expect("publish");
            let frames = frames_sent(&cluster) - before;
            let OpOutcome::Published(PublishOutcome {
                delivered,
                routing_hops: hops,
                visited,
                ..
            }) = published
            else {
                panic!("side {side}, publish {p}: {published:?}");
            };
            let bound = u64::from(hops) + 2 * visited as u64 + 2;
            assert!(
                frames <= bound,
                "side {side}, publish {p}: {frames} frames over the bound {bound} \
                 ({hops} hops, {visited} visited, {} delivered)",
                delivered.len()
            );
            visited_total += visited as u64;
        }
        let mean = visited_total as f64 / PUBLISHES_PER_SIDE as f64;
        println!("publish side {side}: flood visited {mean:.1} objects on average");
        assert!(
            mean > smaller_mean,
            "side {side}: mean visited {mean:.1} must exceed the smaller side's {smaller_mean:.1}"
        );
        smaller_mean = mean;
    }
}
