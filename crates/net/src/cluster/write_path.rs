//! The write path — journal → touched set → compare with `shipped` →
//! sequenced pushes → one barrier — held to a full recomputation and to
//! counters on the scripted single-threaded cluster.  No wall clock.

use super::driver::Driver;
use super::scripted::{kill, revive, scripted, Scripted, HOSTS};
use super::{ClusterError, HostState};
use crate::wire::WireMsg;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;
use voronet_core::{ObjectId, VoroNetConfig};
use voronet_geom::{Point2, Rect};
use voronet_services::key_point;
use voronet_workloads::{Distribution, PointGenerator};

/// Everything a full pass over the live population would conclude,
/// against what the driver believes and what the hosts hold.
fn assert_in_sync(driver: &Driver<Scripted>, step: usize) {
    let net = driver.net();
    // What was shipped is what a recomputation of every live view gives.
    assert_eq!(driver.shipped.len(), net.len(), "step {step}");
    for id in net.ids() {
        let current = driver.current_view(id.0);
        assert_eq!(
            driver.shipped.get(&id.0),
            Some(&current),
            "step {step} {id}"
        );
    }
    // Every placement is what the full owner rule gives.
    let domain = net.config().domain;
    for (&key, placement) in &driver.kv {
        let kp = key_point(key, domain);
        let owner = net
            .ids()
            .map(|id| (net.coords(id).unwrap().distance2(kp), id))
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap()
            .1;
        let mut replicas = net.voronoi_neighbours(owner).unwrap();
        replicas.sort_unstable();
        let entry = &placement.entry;
        assert_eq!(
            (entry.owner, &entry.replicas),
            (owner, &replicas),
            "step {step} key {key}"
        );
        // Its copies are the replicas on other hosts, else one live
        // object elsewhere when there is one.
        let home = driver.host(owner.0);
        let elsewhere: Vec<u64> = (replicas.iter().map(|r| r.0))
            .filter(|&r| driver.host(r) != home)
            .collect();
        if elsewhere.is_empty() {
            let lone = net.ids().all(|id| driver.host(id.0) == home);
            assert_eq!(
                placement.copies.len(),
                usize::from(!lone),
                "step {step} key {key}"
            );
        } else {
            assert_eq!(placement.copies, elsewhere, "step {step} key {key}");
        }
        for &copy in &placement.copies {
            assert!(net.contains(ObjectId(copy)), "step {step} key {key}");
            assert_ne!(driver.host(copy), home, "step {step} key {key}");
        }
    }
    // Every live object counts towards its host's load.
    let mut load = vec![0; HOSTS as usize];
    for id in net.ids() {
        load[(driver.host(id.0) - 1) as usize] += 1;
    }
    assert_eq!(driver.load, load, "step {step}");
    // Every host the driver pushes to holds exactly its share of both.
    for (peer, host) in (1..).zip(&driver.t.inner.hosts) {
        if driver.host_state(peer) == HostState::Dead {
            continue;
        }
        let here = |object: &u64| driver.host(*object) == peer;
        assert_eq!(
            host.objects.len(),
            driver.shipped.keys().filter(|o| here(o)).count(),
            "step {step} host {peer}"
        );
        for (object, hosted) in &host.objects {
            // What was shipped, with the hosts the frame carried.
            let shipped = &driver.shipped[object];
            let routing: Vec<_> = shipped
                .routing
                .iter()
                .map(|&(id, at)| (id, driver.host(id), at))
                .collect();
            let vn: Vec<_> = shipped.vn.iter().map(|&id| (id, driver.host(id))).collect();
            let neighbours: Vec<_> = hosted.neighbours().collect();
            assert_eq!(
                (hosted.coords, &hosted.routing, &neighbours, &hosted.cell),
                (shipped.coords, &routing, &vn, &shipped.cell),
                "step {step} host {peer} object {object}"
            );
        }
        let (mut stored, mut mirrored) = (BTreeMap::new(), BTreeMap::new());
        for (&key, p) in &driver.kv {
            let (owner, value) = (p.entry.owner.0, p.entry.value);
            if here(&owner) {
                stored.insert((owner, key), value);
            }
            for &copy in &p.copies {
                if here(&copy) {
                    mirrored.insert((copy, key), (p.entry_seq, value));
                }
            }
        }
        let held: BTreeMap<_, _> = host.kv.clone().into_iter().collect();
        assert_eq!(held, stored, "step {step} host {peer}");
        let held: BTreeMap<_, _> = host.kv_replicas.clone().into_iter().collect();
        assert_eq!(held, mirrored, "step {step} host {peer}");
    }
}

/// A seeded write script: joins, departures by index (the overlay's
/// swap-remove reorders the survivors), KV puts and deletes over a small
/// key space, subscriptions — with host 2 declared dead a third of the
/// way in and back, amnesiac, at the half.  `after_write` sees the
/// cluster after every operation.
fn run_script(
    driver: &mut Driver<Scripted>,
    seed: u64,
    ops: usize,
    mut after_write: impl FnMut(&Driver<Scripted>, usize),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = PointGenerator::new(Distribution::Uniform, seed ^ 0xB0B);
    for _ in 0..40 {
        driver.insert(points.next_point()).unwrap();
        after_write(driver, 0);
    }
    for step in 0..ops {
        if step == ops / 3 {
            kill(driver, 2);
        } else if step == ops / 2 {
            revive(driver, 2);
        }
        let index = rng.random_range(0..driver.population());
        let id = driver.net().id_at(index).unwrap();
        match rng.random_range(0..20u32) {
            0..=5 => {
                driver.insert(points.next_point()).unwrap().unwrap();
            }
            6..=10 if driver.population() > 12 => {
                driver.leave(id).unwrap().unwrap();
            }
            11..=16 => {
                let (key, value) = (rng.random_range(0..48u64), rng.random::<u64>());
                driver.kv_put(id, key, value).unwrap();
            }
            17 => {
                driver.kv_delete(id, rng.random_range(0..48u64)).unwrap();
            }
            _ => {
                let corner = points.next_point();
                let region = Rect::new(corner, Point2::new(corner.x + 0.2, corner.y + 0.2));
                driver.subscribe(id, region).unwrap();
            }
        }
        after_write(driver, step);
    }
}

#[test]
fn write_path_matches_a_full_recomputation_after_every_write() {
    let mut driver = scripted(VoroNetConfig::new(512).with_seed(11));
    run_script(&mut driver, 0xA11CE, 360, assert_in_sync);
    let stats = driver.cluster_stats();
    assert_eq!(stats.revivals, 1);
    assert!(
        stats.skipped_pushes > 0,
        "writes went on while host 2 was dead"
    );
    assert!(driver.kv.len() > 20 && driver.subs.len() > 10);
    assert_eq!(driver.synced, Some(driver.net().snapshot_epoch()));
}

#[test]
fn write_path_frames_repeat_byte_for_byte() {
    // Push order must not follow `HashMap` iteration: two runs of one
    // script — KV migrations, a revival's eviction, view and service
    // replay included — put the same bytes on the wire in the same order.
    let frames = || {
        let mut driver = scripted(VoroNetConfig::new(512).with_seed(11));
        driver.t.script.sent_log = Some(Vec::new());
        run_script(&mut driver, 0xFACADE, 240, |_, _| {});
        driver.t.script.sent_log.take().unwrap()
    };
    let (first, second) = (frames(), frames());
    assert!(first.len() > 2_000);
    let differs = first.iter().zip(&second).position(|(a, b)| a != b);
    assert_eq!(differs, None, "first differing frame");
    assert_eq!(first.len(), second.len());
}

#[test]
fn write_path_repairs_a_view_whose_barrier_failed() {
    let mut driver = scripted(VoroNetConfig::new(512).with_seed(3));
    for p in PointGenerator::new(Distribution::Uniform, 5).take_points(24) {
        driver.insert(p).unwrap();
    }
    driver.barrier_deadline = Duration::from_millis(20);
    // A join right beside `victim` changes its view; every push of that
    // view is lost until the barrier runs out, on a host that is not dead.
    let victim = driver.net().id_at(7).unwrap();
    let at = driver.net().coords(victim).unwrap();
    driver.t.script.lost_view = Some(victim.0);
    let err = driver.insert(Point2::new(at.x + 1e-4, at.y)).unwrap_err();
    assert!(matches!(err, ClusterError::Timeout("view acks")), "{err}");
    assert_eq!(driver.host_state(driver.host(victim.0)), HostState::Alive);
    assert_eq!(driver.synced, None);
    assert!(
        !driver.shipped.contains_key(&victim.0),
        "an unconfirmed view must not count as shipped"
    );

    // The next write — far away, so its own journal record does not name
    // the victim — pushes the view again, and everything lines up.
    driver.t.script.lost_view = None;
    driver.t.script.sent_log = Some(Vec::new());
    let far = Point2::new(1.0 - at.x, 1.0 - at.y);
    driver.insert(far).unwrap().unwrap();
    let repushed = driver
        .t
        .script
        .sent_log
        .take()
        .unwrap()
        .iter()
        .any(|frame| {
            matches!(
                WireMsg::decode(frame),
                Ok((_, WireMsg::ViewUpdate { object, .. })) if object == victim.0
            )
        });
    assert!(repushed);
    assert_in_sync(&driver, 0);
    // And the write after that is incremental again.
    let builds = driver.cluster_stats().view_builds;
    driver.insert(Point2::new(0.5, 0.123)).unwrap().unwrap();
    assert!(driver.cluster_stats().view_builds - builds < 16);
}

/// Builds `n` uniform objects and returns `view_builds` after each join.
fn builds_while_joining(driver: &mut Driver<Scripted>, n: usize) -> Vec<u64> {
    let mut points = PointGenerator::new(Distribution::Uniform, 2007);
    (0..n)
        .map(|_| {
            driver.insert(points.next_point()).unwrap().unwrap();
            driver.cluster_stats().view_builds
        })
        .collect()
}

#[test]
fn write_path_builds_only_the_views_it_pushes() {
    let n = 3_000;
    let mut driver = scripted(VoroNetConfig::new(n).with_seed(7));
    builds_while_joining(&mut driver, n);
    let stats = driver.cluster_stats();
    // A join changes every view its journal record names, so nothing is
    // materialised that is not sent — and it is a neighbourhood, not the
    // population (about half of it, on average, before the journal).
    assert_eq!(stats.view_builds, stats.view_pushes);
    assert!(
        stats.view_builds <= 16 * n as u64,
        "{} views built for {n} joins",
        stats.view_builds
    );
    assert_in_sync(&driver, n);
}

/// The release-size case (CI's net smoke step runs it): the cost of a
/// join, as a count, does not grow with the population.
#[test]
#[ignore = "release-size: cargo test --release -p voronet-net -- --ignored write_path"]
fn write_path_cost_per_join_is_flat_from_2k_to_20k() {
    let n = 20_000;
    let mut driver = scripted(VoroNetConfig::new(n).with_seed(7));
    let builds = builds_while_joining(&mut driver, n);
    let per_join =
        |from: usize, to: usize| (builds[to - 1] - builds[from - 1]) as f64 / (to - from) as f64;
    let (small, large) = (per_join(1_000, 3_000), per_join(n - 2_000, n));
    println!("view_builds per join: {small:.2} at 1k-3k, {large:.2} at 18k-20k");
    assert!(
        large <= 1.25 * small,
        "{large:.2} views per join at 20k against {small:.2} at 2k"
    );
    let stats = driver.cluster_stats();
    assert_eq!(stats.view_builds, stats.view_pushes);
}
