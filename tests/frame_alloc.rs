//! Counting-allocator proof of the allocation-free socketed path: once
//! warmed up, a frame crossing the vnet hub reuses a buffer the hub kept,
//! and a cluster op — driver, codec, hub, host walk and reply — allocates
//! nothing.  The pin covers bare hub round trips, routes through the
//! [`Overlay`] surface of an ideal-hub [`InlineCluster`] (each hop that
//! crosses hosts a frame) and the driver's KV reads (a route to the key's
//! owner, then a fetch).  Warmed KV writes through the id-keyed driver
//! path are pinned at the exact count they make (a new placement record
//! with its replica and copy lists, and its push bookkeeping per put), and so are warmed range queries (the
//! flood's visited set, probe table and match list; cells clip into
//! buffers the host keeps) and one join through `Driver::insert` (the
//! overlay's own insertion, the views it touched materialised and pushed),
//! so a change to any count is seen.
//!
//! This file deliberately contains a single test: the counting allocator is
//! process-global, and a concurrently running test would perturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use voronet::net::{OpOutcome, Transport, VnetHub};
use voronet::prelude::*;
use voronet::sim::NetworkModel;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap allocations of the 64 warmed `kv_put`s below.
const PUT_ALLOCATIONS: u64 = 381;

/// Heap allocations of the 16 warmed range queries below.  Four of them
/// cross a border between two hosts' shares of the curve with more than
/// eleven probes in flight at once, so the flood's outstanding-probe
/// `BTreeMap` splits its root leaf: a second leaf and an internal node
/// each.
const RANGE_ALLOCATIONS: u64 = 188;

/// Heap allocations of the one warmed join below.
const INSERT_ALLOCATIONS: u64 = 95;

/// Heap allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_frames_and_cluster_ops_do_not_allocate() {
    // Bare hub round trips: each side receives into one kept buffer.
    let hub = VnetHub::new(NetworkModel::ideal());
    let (mut a, mut b) = (hub.endpoint(1), hub.endpoint(2));
    let frame = [7u8; 48];
    let mut buf = Vec::new();
    let mut round_trips = |n: usize| {
        for _ in 0..n {
            a.send(2, &frame).unwrap();
            assert_eq!(b.recv_into(&mut buf).unwrap(), Some(1));
            b.send(1, &buf).unwrap();
            assert_eq!(a.recv_into(&mut buf).unwrap(), Some(2));
        }
    };
    round_trips(8);
    let allocated = allocations(|| round_trips(1_000));
    assert_eq!(allocated, 0, "1 000 warmed hub round trips allocated");
    assert_eq!(buf, frame);

    // A 2 000-object cluster on three hosts of an ideal hub.
    let config = VoroNetConfig::new(2_000).with_seed(7);
    let mut cluster = InlineCluster::start(3, config);
    for p in PointGenerator::new(Distribution::Uniform, 11).take_points(2_000) {
        cluster.insert(p).unwrap();
    }
    let n = cluster.len();
    assert!(n > 1_900);
    let pairs: Vec<(ObjectId, ObjectId)> = (0..64)
        .map(|i| {
            let a = cluster.id_at((i * 31) % n).unwrap();
            let b = cluster.id_at((i * 97 + 13) % n).unwrap();
            (a, b)
        })
        .collect();
    let mut hops = Vec::new();
    let routes = |cluster: &mut InlineCluster, hops: &mut Vec<u32>| {
        hops.clear();
        for &(from, to) in &pairs {
            let routed = cluster.route_between(from, to).unwrap();
            assert_eq!(routed.owner, to);
            hops.push(routed.hops);
        }
    };
    routes(&mut cluster, &mut hops);
    let warm_hops = hops.clone();
    let allocated = allocations(|| routes(&mut cluster, &mut hops));
    assert_eq!(hops, warm_hops, "routing must be deterministic");
    let total_hops: u32 = hops.iter().sum();
    assert!(
        total_hops as usize > pairs.len(),
        "the routes must cross hosts ({total_hops} hops)"
    );
    assert_eq!(
        allocated,
        0,
        "{} warmed cluster routes ({total_hops} hops) allocated",
        pairs.len()
    );

    // KV writes: a route to the owner of the key's point, then the
    // owner's store and its copies on other hosts, pushed to their
    // barrier.
    // Warmed, each put overwrites a stored entry.
    let keys: Vec<u64> = (0..64u64)
        .map(|k| k.wrapping_mul(0x9E37_79B9) ^ 0x51)
        .collect();
    let at = |cluster: &InlineCluster, index: usize| cluster.id_at(index % n).unwrap();
    let puts: Vec<(ObjectId, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| (at(&cluster, i * 29), key))
        .collect();
    let put_all = |cluster: &mut InlineCluster| {
        for &(from, key) in &puts {
            let put = cluster.driver().kv_put(from, key, key + 1).unwrap();
            assert!(matches!(put, OpOutcome::KvStored { .. }), "{put:?}");
        }
    };
    put_all(&mut cluster);
    put_all(&mut cluster);
    let allocated = allocations(|| put_all(&mut cluster));
    assert_eq!(allocated, PUT_ALLOCATIONS, "{} warmed kv_puts", puts.len());

    // KV reads: a route to the owner of the key's point, then a fetch.
    let gets = |cluster: &mut InlineCluster| {
        for (i, &key) in keys.iter().enumerate() {
            let from = at(cluster, i * 41);
            let got = cluster.driver().kv_get(from, key).unwrap();
            assert!(
                matches!(got, OpOutcome::KvFetched { value: Some(v), .. } if v == key + 1),
                "{got:?}"
            );
        }
    };
    gets(&mut cluster);
    let allocated = allocations(|| gets(&mut cluster));
    assert_eq!(allocated, 0, "{} warmed kv_gets allocated", keys.len());

    // Range queries: a route to the rectangle's centre, then the owner's
    // host floods the cells touching it, probing those on other hosts.
    let mut queries = QueryGenerator::new(13);
    let ranges: Vec<_> = (0..16)
        .map(|i| (at(&cluster, i * 53), queries.range_query(0.1)))
        .collect();
    let mut found = Vec::new();
    let range_all = |cluster: &mut InlineCluster, found: &mut Vec<usize>| {
        found.clear();
        for &(from, query) in &ranges {
            found.push(cluster.range(from, query).unwrap().matches.len());
        }
    };
    range_all(&mut cluster, &mut found);
    let warm_found = found.clone();
    let allocated = allocations(|| range_all(&mut cluster, &mut found));
    assert_eq!(found, warm_found, "range queries must be deterministic");
    assert!(
        found.iter().sum::<usize>() > ranges.len(),
        "the ranges must match objects ({found:?})"
    );
    assert_eq!(
        allocated,
        RANGE_ALLOCATIONS,
        "{} warmed range queries",
        ranges.len()
    );

    // One join into the warmed overlay: located by the driver, then every
    // view it changed pushed to its host, to the barrier.
    let point = Point2::new(0.512_345, 0.487_654);
    let allocated = allocations(|| {
        assert!(cluster.driver().insert(point).unwrap().is_some());
    });
    assert_eq!(allocated, INSERT_ALLOCATIONS, "one warmed Driver::insert");
}
