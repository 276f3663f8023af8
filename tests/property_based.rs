//! Property-based tests on the geometric substrate and the overlay
//! invariants.
//!
//! Originally written against `proptest`, then as hand-rolled seeded
//! loops; now driven by the testkit's property harness
//! ([`voronet_testkit::check_cases`]), which keeps the seeded generation
//! (48 cases per property, like the original
//! `ProptestConfig::with_cases(48)`) and adds what the ad-hoc loops never
//! had: on failure the generated input is **shrunk** to a minimal witness
//! and the panic message carries the exact seed, case number and shrunk
//! input.  Coordinates are drawn either from a coarse 64×64 lattice — so
//! that duplicate, collinear and co-circular configurations appear
//! frequently (the degenerate cases the exact predicates must survive) —
//! or as arbitrary floats in the unit square.

use rand::rngs::StdRng;
use rand::RngExt;
use std::cell::Cell;
use voronet::prelude::*;
use voronet_core::VoroNetConfig;
use voronet_geom::hull::{convex_hull, delaunay_edges_bruteforce};
use voronet_geom::{orient2d, Orientation};
use voronet_testkit::{check_cases, tk_ensure, tk_ensure_eq};

const CASES: u64 = 48;

fn lattice_points(rng: &mut StdRng, max_len: usize) -> Vec<Point2> {
    let len = rng.random_range(1..max_len);
    (0..len)
        .map(|_| {
            Point2::new(
                rng.random_range(0..64u32) as f64 / 64.0,
                rng.random_range(0..64u32) as f64 / 64.0,
            )
        })
        .collect()
}

fn float_points(rng: &mut StdRng, max_len: usize) -> Vec<Point2> {
    let len = rng.random_range(1..max_len);
    (0..len)
        .map(|_| Point2::new(rng.random::<f64>(), rng.random::<f64>()))
        .collect()
}

/// The incremental triangulation stays structurally valid and Delaunay for
/// arbitrary (including degenerate) insertion sequences.
#[test]
fn triangulation_valid_after_lattice_insertions() {
    check_cases(
        "triangulation-valid-after-lattice-insertions",
        CASES,
        0x7A11,
        |rng| lattice_points(rng, 60),
        |pts| {
            let mut tri = Triangulation::unit_square();
            let mut inserted = 0usize;
            for p in pts {
                match tri.insert(*p) {
                    Ok(_) => inserted += 1,
                    Err(voronet_geom::InsertError::Duplicate(_)) => {}
                    Err(e) => return Err(format!("unexpected error {e} inserting {p}")),
                }
            }
            tk_ensure_eq!(tri.len(), inserted, "triangulation size");
            tk_ensure!(tri.euler_check(), "Euler characteristic violated");
            tk_ensure!(
                tri.validate().is_ok(),
                "triangulation invalid: {:?}",
                tri.validate()
            );
            Ok(())
        },
    );
}

/// Where a seeded insertion starts its walk: next to the point, as the
/// overlay does, or somewhere adversarial.
#[derive(Debug, Clone, Copy)]
enum Start {
    Nearest,
    Farthest,
    Sentinel,
    SentinelAdjacent,
    /// The id freed most recently: dead until an insertion recycles it,
    /// then live and wherever that insertion put it.
    Removed,
    NotAVertex,
}

const STARTS: [Start; 6] = [
    Start::Nearest,
    Start::Farthest,
    Start::Sentinel,
    Start::SentinelAdjacent,
    Start::Removed,
    Start::NotAVertex,
];

impl Start {
    fn pick(self, tri: &Triangulation, p: Point2, removed: Option<u32>) -> u32 {
        let by_distance = |v: &u32| tri.point(*v).distance2(p);
        match self {
            Start::Nearest => tri.nearest_vertex(p),
            Start::Farthest => tri
                .vertices()
                .max_by(|a, b| by_distance(a).total_cmp(&by_distance(b))),
            Start::Sentinel => Some(2),
            Start::SentinelAdjacent => tri.real_neighbors_iter(0).next(),
            Start::Removed => removed,
            Start::NotAVertex => None,
        }
        .unwrap_or(u32::MAX)
    }
}

/// Feeds one sequence to two triangulations — `insert(p)` on one,
/// `insert_near(p, start)` on the other, every third step also removing an
/// earlier vertex from both so the vertex-to-triangle hints are exercised
/// after ear clipping and flips — and holds them to the same answer at
/// every step and the same mesh, triangle for triangle and fan for fan.
fn seeded_insertion_agrees(points: &[Point2], start: Start) -> Result<(), String> {
    let mut plain = Triangulation::unit_square();
    let mut seeded = Triangulation::unit_square();
    let mut live: Vec<u32> = Vec::new();
    let mut removed = None;
    for (step, &p) in points.iter().enumerate() {
        let near = start.pick(&seeded, p, removed);
        let expected = plain.insert(p);
        tk_ensure_eq!(
            seeded.insert_near(p, near),
            expected,
            "step {step}: {p} from {start:?} (vertex {near})"
        );
        live.extend(expected.ok());
        if step % 3 == 2 && !live.is_empty() {
            let v = live.swap_remove((step * 7) % live.len());
            tk_ensure_eq!(seeded.remove(v), plain.remove(v), "step {step}: remove {v}");
            removed = Some(v);
        }
        tk_ensure!(
            plain.triangles().eq(seeded.triangles()),
            "step {step}: triangles differ after {p} from {start:?} (vertex {near})"
        );
        for v in plain.vertices() {
            tk_ensure!(
                plain.neighbors_iter(v).eq(seeded.neighbors_iter(v)),
                "step {step}: fan of {v} differs after {p} from {start:?}"
            );
        }
    }
    tk_ensure_eq!(seeded.len(), live.len(), "size");
    tk_ensure!(seeded.validate().is_ok(), "{:?}", seeded.validate());
    Ok(())
}

/// `insert_near` only shortens the walk: whatever vertex it starts from —
/// the nearest, the farthest, a sentinel, a dead or recycled id, no vertex
/// at all — it returns what `insert` returns and builds the same mesh, on
/// random points and on the degenerate families (duplicates, collinear
/// rows, exact grids and rings, points exactly on an existing edge).
#[test]
fn seeded_insertion_does_not_depend_on_the_start() {
    for start in STARTS {
        check_cases(
            "seeded-insertion-floats",
            CASES,
            0x5EED,
            |rng| float_points(rng, 60),
            |pts| seeded_insertion_agrees(pts, start),
        );
        check_cases(
            "seeded-insertion-lattice",
            CASES,
            0x1A77,
            |rng| lattice_points(rng, 60),
            |pts| seeded_insertion_agrees(pts, start),
        );
        let families = [
            Distribution::Grid {
                side: 8,
                jitter: 0.0,
            },
            Distribution::Ring { jitter: 0.0 },
        ];
        for family in families {
            for seed in 0..4 {
                let pts = PointGenerator::new(family, seed).take_points(120);
                seeded_insertion_agrees(&pts, start)
                    .unwrap_or_else(|e| panic!("{family:?} seed {seed}: {e}"));
            }
        }
        // A collinear row filled in from its ends inwards, so every later
        // point lies exactly on an existing edge (or on a vertex: the
        // repeats), then the same across it.
        let sixteenths = [0, 16, 8, 4, 12, 8, 2, 6, 10, 14, 1, 15, 7, 9, 0];
        let row = sixteenths.map(|k| Point2::new(k as f64 / 16.0, 0.5));
        let column = sixteenths.map(|k| Point2::new(0.5, k as f64 / 16.0));
        let cross: Vec<Point2> = row.into_iter().chain(column).collect();
        seeded_insertion_agrees(&cross, start).unwrap_or_else(|e| panic!("collinear rows: {e}"));
        // A square, then points exactly on its sides, on its diagonals
        // (one of which is an edge, whichever way the square was split) and
        // on the edges those insertions create.
        let on_edges = [
            (0.25, 0.25),
            (0.75, 0.25),
            (0.75, 0.75),
            (0.25, 0.75),
            (0.5, 0.25),
            (0.5, 0.5),
            (0.375, 0.375),
            (0.625, 0.375),
            (0.75, 0.5),
            (0.5, 0.375),
            (0.625, 0.625),
        ]
        .map(|(x, y)| Point2::new(x, y));
        seeded_insertion_agrees(&on_edges, start).unwrap_or_else(|e| panic!("on edges: {e}"));
    }
    // Rejections are decided before the walk, so the start cannot matter.
    let mut tri = Triangulation::unit_square();
    let v = tri.insert(Point2::new(0.5, 0.5)).unwrap();
    for near in [v, 0, u32::MAX] {
        for p in [Point2::new(f64::NAN, 0.5), Point2::new(1.5, 0.5)] {
            let expected = tri.clone().insert(p);
            assert!(expected.is_err());
            assert_eq!(tri.insert_near(p, near), expected, "{p} from {near}");
        }
    }
}

/// Inserting then removing every point returns the triangulation to its
/// empty state, whatever the order.
#[test]
fn triangulation_insert_remove_roundtrip() {
    check_cases(
        "triangulation-insert-remove-roundtrip",
        CASES,
        0xB0B,
        |rng| float_points(rng, 40),
        |pts| {
            let mut tri = Triangulation::unit_square();
            let mut ids = Vec::new();
            for p in pts {
                if let Ok(v) = tri.insert(*p) {
                    ids.push(v);
                }
            }
            for &v in ids.iter().rev() {
                tk_ensure!(tri.remove(v).is_ok(), "removal of {v:?} failed");
            }
            tk_ensure!(tri.is_empty(), "triangulation not empty after teardown");
            tk_ensure_eq!(tri.num_triangles(), 2, "sentinel triangle count");
            tk_ensure!(tri.validate().is_ok(), "invalid after teardown");
            Ok(())
        },
    );
}

/// The greedy nearest-vertex walk agrees with a brute-force scan.
#[test]
fn nearest_vertex_matches_bruteforce() {
    check_cases(
        "nearest-vertex-matches-bruteforce",
        CASES,
        0x4EA3,
        |rng| {
            let pts = float_points(rng, 40);
            let q = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            (pts, q)
        },
        |(pts, q)| {
            let mut tri = Triangulation::unit_square();
            let mut ids = Vec::new();
            for p in pts {
                if let Ok(v) = tri.insert(*p) {
                    ids.push(v);
                }
            }
            if ids.is_empty() {
                return Ok(());
            }
            let found = tri.nearest_vertex(*q).expect("non-empty");
            let best = ids
                .iter()
                .map(|&v| tri.point(v).distance2(*q))
                .fold(f64::INFINITY, f64::min);
            tk_ensure!(
                (tri.point(found).distance2(*q) - best).abs() < 1e-15,
                "nearest_vertex found d²={} but brute force found d²={best}",
                tri.point(found).distance2(*q)
            );
            Ok(())
        },
    );
}

/// Interior Delaunay edges found incrementally match the brute-force
/// empty-circle oracle (hull edges may differ because of the sentinel box;
/// see DESIGN.md).
#[test]
fn incremental_interior_edges_are_delaunay() {
    check_cases(
        "incremental-interior-edges-are-delaunay",
        CASES,
        0xDE1A,
        |rng| float_points(rng, 26),
        |pts| {
            if pts.len() < 4 {
                return Ok(());
            }
            let mut dedup = pts.clone();
            dedup.sort_by(|a, b| a.lex_cmp(b));
            dedup.dedup_by(|a, b| a.x == b.x && a.y == b.y);
            if dedup.len() < 4 {
                return Ok(());
            }

            let hull = convex_hull(&dedup);
            let is_hull = |p: Point2| hull.iter().any(|&h| h.x == p.x && h.y == p.y);

            let mut tri = Triangulation::unit_square();
            let ids: Vec<_> = dedup
                .iter()
                .map(|&p| tri.insert(p).expect("deduplicated"))
                .collect();
            let brute = delaunay_edges_bruteforce(&dedup);
            for (i, j) in brute {
                if is_hull(dedup[i]) || is_hull(dedup[j]) {
                    continue;
                }
                tk_ensure!(
                    tri.are_neighbors(ids[i], ids[j]),
                    "missing interior Delaunay edge between {} and {}",
                    dedup[i],
                    dedup[j]
                );
            }
            Ok(())
        },
    );
}

/// Convex hull output is convex and contains every input point.
#[test]
fn convex_hull_is_convex_superset() {
    check_cases(
        "convex-hull-is-convex-superset",
        CASES,
        0xC0DE,
        |rng| float_points(rng, 50),
        |pts| {
            let hull = convex_hull(pts);
            if hull.len() < 3 {
                return Ok(());
            }
            let n = hull.len();
            for i in 0..n {
                let a = hull[i];
                let b = hull[(i + 1) % n];
                tk_ensure_eq!(
                    orient2d(a, b, hull[(i + 2) % n]),
                    Orientation::Positive,
                    "hull turn at vertex {i}"
                );
                for &p in pts {
                    tk_ensure!(
                        orient2d(a, b, p) != Orientation::Negative,
                        "point {p} lies outside hull edge {a} → {b}"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Overlay invariants (close neighbours exact, long links owned, back-links
/// mirrored) hold after an arbitrary batch of insertions followed by a
/// prefix of removals.
#[test]
fn overlay_invariants_random_build_and_partial_teardown() {
    check_cases(
        "overlay-invariants-random-build-and-partial-teardown",
        CASES,
        0x1EA5,
        |rng| {
            let pts = float_points(rng, 30);
            let remove_count = rng.random_range(0..20usize);
            (pts, remove_count)
        },
        |(pts, remove_count)| {
            let cfg = VoroNetConfig::new(40).with_long_links(2).with_seed(99);
            let mut net = VoroNet::new(cfg);
            let mut ids = Vec::new();
            for p in pts {
                if let Ok(r) = net.insert(*p) {
                    ids.push(r.id);
                }
            }
            for &id in ids.iter().take((*remove_count).min(ids.len())) {
                tk_ensure!(net.remove(id).is_ok(), "removal of {id} failed");
            }
            tk_ensure!(
                net.check_invariants(true).is_ok(),
                "invariants violated: {:?}",
                net.check_invariants(true)
            );
            tk_ensure!(
                net.triangulation().validate().is_ok(),
                "triangulation invalid after teardown"
            );
            Ok(())
        },
    );
}

/// Greedy routing always terminates at the owner of the target region.
#[test]
fn greedy_routing_terminates_at_owner() {
    check_cases(
        "greedy-routing-terminates-at-owner",
        CASES,
        0x60A1,
        |rng| {
            let pts = float_points(rng, 30);
            let q = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            (pts, q)
        },
        |(pts, q)| {
            let cfg = VoroNetConfig::new(40).with_seed(5);
            let mut net = VoroNet::new(cfg);
            let mut ids = Vec::new();
            for p in pts {
                if let Ok(r) = net.insert(*p) {
                    ids.push(r.id);
                }
            }
            if ids.len() < 2 {
                return Ok(());
            }
            let expected = net.owner_of(*q).expect("non-empty");
            let got = net.route_to_point(ids[0], *q).expect("route succeeds");
            tk_ensure_eq!(got.owner, expected, "owner of {q}");
            tk_ensure_eq!(got.path.len() as u32, got.hops + 1, "path length vs hops");
            Ok(())
        },
    );
}

/// One overlay mutation of the routing-row property; indices pick a point
/// of the pool or a live object, modulo their count.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Insert(usize),
    Remove(usize),
}

fn mutations(rng: &mut StdRng) -> Vec<Mutation> {
    (0..rng.random_range(1..90usize))
        .map(|_| {
            let pick = rng.random_range(0..usize::MAX);
            match rng.random_range(0..30u32) {
                0..=19 => Mutation::Insert(pick),
                _ => Mutation::Remove(pick),
            }
        })
        .collect()
}

/// Applies `ops` to an overlay built from `points`, auditing after every
/// op: the audit rebuilds every object's routing row and must have
/// compared one per live object.
fn rows_stay_current(ops: &[Mutation], points: &[Point2]) -> Result<(), String> {
    // `d_min = 1/(2π)` ≈ 0.159, so close sets are large.
    let cfg = VoroNetConfig::new(2).with_long_links(2).with_seed(13);
    let mut net = VoroNet::new(cfg);
    let mut live: Vec<ObjectId> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        let failed = |e: VoronetError| format!("step {step} {op:?}: {e}");
        match op {
            Mutation::Insert(i) => {
                if let Ok(r) = net.insert(points[i % points.len()]) {
                    live.push(r.id);
                }
            }
            Mutation::Remove(i) if !live.is_empty() => {
                let id = live.swap_remove(i % live.len());
                net.remove(id).map_err(failed)?;
            }
            Mutation::Remove(_) => {}
        }
        let audit = net.audit_invariants(true).map_err(failed)?;
        tk_ensure_eq!(
            audit.rows,
            net.len(),
            "rows compared after step {step} {op:?}"
        );
        tk_ensure_eq!(
            audit.nodes,
            net.len(),
            "nodes visited after step {step} {op:?}"
        );
    }
    Ok(())
}

/// The live walk reads routing rows that joins and departures keep
/// current; after any sequence of them every
/// row equals the one rebuilt from the tessellation, the close set and the
/// long links, order included — on uniform points, on power-law points,
/// on the committed reproducers' collinear points and on points crowded
/// into one corner, whose few hull objects hold most back links.
#[test]
fn routing_rows_stay_current_under_any_mutation_sequence() {
    let reproducers = [
        "repro-seed5009-4ops",
        "repro-seed5009-5ops",
        "repro-seed2011-6ops",
    ];
    let mut collinear: Vec<Point2> = Vec::new();
    for name in reproducers {
        let path = format!(
            "{}/tests/reproducers/{name}.ron",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let case = voronet_testkit::parse_case(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        collinear.extend(case.script.iter().filter_map(|op| match op {
            voronet_workloads::WorkloadOp::Insert { position } => Some(*position),
            _ => None,
        }));
    }
    assert!(collinear.len() >= 12);
    // Every point inside [0, 0.02]²: almost every long-link target falls
    // outside the square, on two or three hull objects, so each departure
    // swap-removes from a hub's back links — with two links per object,
    // often moving the departing object's own other link.
    let corner: Vec<Point2> = PointGenerator::new(Distribution::Uniform, 47)
        .take_points(48)
        .into_iter()
        .map(|p| Point2::new(p.x * 0.02, p.y * 0.02))
        .collect();
    let pools = [
        (
            "uniform",
            PointGenerator::new(Distribution::Uniform, 41).take_points(48),
        ),
        (
            "power-law",
            PointGenerator::new(Distribution::PowerLaw { alpha: 5.0 }, 43).take_points(48),
        ),
        ("collinear", collinear),
        ("corner", corner),
    ];
    for (seed, (name, points)) in (0x2055u64..).zip(pools) {
        check_cases(
            &format!("routing-rows-stay-current-{name}"),
            CASES,
            seed,
            mutations,
            |ops| rows_stay_current(ops, &points),
        );
    }
}

/// One step of the message-accounting property; indices pick a point of
/// the pool or a live object, modulo their count.
#[derive(Debug, Clone, Copy)]
enum Traffic {
    Join(usize),
    Leave(usize),
    Route(usize, usize),
}

fn traffic_steps(rng: &mut StdRng) -> Vec<Traffic> {
    (0..rng.random_range(1..250usize))
        .map(|_| {
            let pick = rng.random_range(0..usize::MAX);
            match rng.random_range(0..20u32) {
                0..=10 => Traffic::Join(pick),
                11..=13 => Traffic::Leave(pick),
                _ => Traffic::Route(pick, rng.random_range(0..usize::MAX)),
            }
        })
        .collect()
}

/// Runs `steps` on a bare overlay and, in lockstep, on a [`SyncEngine`]
/// over an identical one, checking every op's traffic against its report:
/// a join's or a leave's `messages` is exactly what it adds to
/// `traffic().total()` (on both), and a route of `h` hops adds exactly `h`
/// to `RouteForward` and to the total — through `route_between`, through
/// `route_between_in` followed by `apply_traffic`, and through the
/// engine's `route`.
fn traffic_is_exact(steps: &[Traffic], points: &[Point2]) -> Result<(), String> {
    use voronet::sim::{MessageKind, TrafficStats};
    let cfg = VoroNetConfig::new(points.len()).with_seed(29);
    let mut net = VoroNet::new(cfg);
    let mut engine = SyncEngine::from_net(VoroNet::new(cfg));
    let mut live: Vec<ObjectId> = Vec::new();
    let mut scratch = RouteScratch::new();
    let routed = |before: &TrafficStats, hops: u32| {
        let mut after = before.clone();
        after.add(MessageKind::RouteForward, u64::from(hops));
        after
    };
    for (step, &op) in steps.iter().enumerate() {
        let at = format!("step {step} {op:?}");
        let (net_before, engine_before) = (net.traffic().clone(), engine.net().traffic().clone());
        // A join's or a leave's reported message count, checked on both
        // overlays below.
        let reported = match op {
            Traffic::Join(i) => {
                let p = points[i % points.len()];
                let (report, outcome) = (net.insert(p), engine.insert(p));
                let Ok(report) = report else {
                    tk_ensure!(outcome.is_err(), "{at}: only the engine joined");
                    continue;
                };
                tk_ensure_eq!(outcome.map(|o| o.id), Ok(report.id), "{at}: joined id");
                live.push(report.id);
                report.messages
            }
            Traffic::Leave(i) if !live.is_empty() => {
                let id = live.swap_remove(i % live.len());
                engine.remove(id).map_err(|e| format!("{at}: {e}"))?;
                net.remove(id).map_err(|e| format!("{at}: {e}"))?.messages
            }
            Traffic::Route(a, b) if !live.is_empty() => {
                let (a, b) = (live[a % live.len()], live[b % live.len()]);
                let hops = net
                    .route_between(a, b)
                    .map_err(|e| format!("{at}: {e}"))?
                    .hops;
                tk_ensure_eq!(net.traffic(), &routed(&net_before, hops), "{at}");

                let before = net.traffic().clone();
                let walked = net.route_between_in(a, b, &mut scratch);
                tk_ensure_eq!(walked, Ok((b, hops)), "{at}: deferred walk");
                tk_ensure_eq!(scratch.delta.len() as u64, u64::from(hops), "{at}: delta");
                net.apply_traffic(&scratch.delta);
                scratch.delta.clear();
                tk_ensure_eq!(net.traffic(), &routed(&before, hops), "{at}: deferred");

                let target = net.coords(b).expect("live");
                let outcome = engine.route(a, target).map_err(|e| format!("{at}: {e}"))?;
                tk_ensure_eq!((outcome.owner, outcome.hops), (b, hops), "{at}: engine");
                let expected = routed(&engine_before, hops);
                tk_ensure_eq!(engine.net().traffic(), &expected, "{at}: engine");
                continue;
            }
            Traffic::Leave(_) | Traffic::Route(..) => continue,
        };
        for (side, before, now) in [
            ("overlay", &net_before, net.traffic()),
            ("engine", &engine_before, engine.net().traffic()),
        ] {
            let added = now.total() - before.total();
            tk_ensure_eq!(added, reported, "{at}: messages on the {side}");
        }
    }
    Ok(())
}

/// Message accounting is exact per op, on uniform and on `PowerLaw{5}`
/// points, under joins, leaves and routes mixed.
#[test]
fn message_accounting_is_exact_per_op() {
    for (seed, law) in
        (0x7A1Fu64..).zip([Distribution::Uniform, Distribution::PowerLaw { alpha: 5.0 }])
    {
        let points = PointGenerator::new(law, seed).take_points(400);
        check_cases(
            &format!("message-accounting-{law:?}"),
            CASES,
            seed,
            traffic_steps,
            |steps| traffic_is_exact(steps, &points),
        );
    }
}

/// An object a batch route names; indices pick one modulo the count.
#[derive(Debug, Clone, Copy)]
enum Named {
    Live(usize),
    Departed(usize),
    /// An id the overlay never issued.
    Never,
}

/// Where a point route aims; indices pick modulo the count.
#[derive(Debug, Clone, Copy)]
enum Aim {
    /// A live object's point.
    Object(usize),
    /// A point of the pool, live or not.
    Pool(usize),
    /// The midpoint of two pool points: on the lattice, an exact tie.
    Between(usize, usize),
    /// Anywhere in `[-1, 2]²`, mostly outside the unit square.
    Outside(f64, f64),
    NotANumber,
}

/// One op of the batch property.
#[derive(Debug, Clone, Copy)]
enum BatchStep {
    Insert(usize),
    Remove(usize),
    Route(Named, Aim),
    RouteBetween(Named, Named),
    /// A route from an object to itself.
    ToItself(usize),
}

/// Runs of routes, shorter and longer than the sync engine's eight lanes,
/// broken by inserts and removes.
fn batch_steps(rng: &mut StdRng) -> Vec<BatchStep> {
    let pick = |rng: &mut StdRng| rng.random_range(0..usize::MAX);
    let named = |rng: &mut StdRng| match rng.random_range(0..20u32) {
        0 => Named::Departed(pick(rng)),
        1 => Named::Never,
        _ => Named::Live(pick(rng)),
    };
    let mut steps = Vec::new();
    for _ in 0..rng.random_range(0..8usize) {
        for _ in 0..rng.random_range(0..20usize) {
            steps.push(match rng.random_range(0..20u32) {
                0..=9 => {
                    let from = named(rng);
                    let aim = match rng.random_range(0..10u32) {
                        0 => Aim::NotANumber,
                        1..=2 => {
                            Aim::Outside(rng.random_range(-1.0..2.0), rng.random_range(-1.0..2.0))
                        }
                        3..=4 => Aim::Pool(pick(rng)),
                        5..=6 => Aim::Between(pick(rng), pick(rng)),
                        _ => Aim::Object(pick(rng)),
                    };
                    BatchStep::Route(from, aim)
                }
                10..=18 => BatchStep::RouteBetween(named(rng), named(rng)),
                _ => BatchStep::ToItself(pick(rng)),
            });
        }
        for _ in 0..rng.random_range(0..3usize) {
            steps.push(if rng.random::<bool>() {
                BatchStep::Insert(pick(rng))
            } else {
                BatchStep::Remove(pick(rng))
            });
        }
    }
    steps
}

/// Resolves `steps` against `engine`'s population as a script would be:
/// removals leave the mirror, so later ops can name what the batch removed.
fn resolve_steps(
    steps: &[BatchStep],
    engine: &SyncEngine,
    departed: &[ObjectId],
    pool: &[Point2],
) -> Vec<Op> {
    let never = ObjectId(u64::MAX);
    let mut live = engine.ids();
    let mut departed = departed.to_vec();
    let name = |n: Named, live: &[ObjectId], departed: &[ObjectId]| match n {
        Named::Live(i) if !live.is_empty() => live[i % live.len()],
        Named::Departed(i) if !departed.is_empty() => departed[i % departed.len()],
        _ => never,
    };
    steps
        .iter()
        .map(|&step| match step {
            BatchStep::Insert(i) => Op::Insert {
                position: pool[i % pool.len()],
            },
            BatchStep::Remove(i) => {
                let id = if live.is_empty() {
                    never
                } else {
                    live.swap_remove(i % live.len())
                };
                departed.push(id);
                Op::Remove { id }
            }
            BatchStep::Route(from, aim) => Op::Route {
                from: name(from, &live, &departed),
                target: match aim {
                    Aim::Object(i) => engine
                        .coords(name(Named::Live(i), &live, &departed))
                        .unwrap_or(pool[i % pool.len()]),
                    Aim::Pool(i) => pool[i % pool.len()],
                    Aim::Between(i, j) => {
                        let (a, b) = (pool[i % pool.len()], pool[j % pool.len()]);
                        Point2::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
                    }
                    Aim::Outside(x, y) => Point2::new(x, y),
                    Aim::NotANumber => Point2::new(f64::NAN, 0.5),
                },
            },
            BatchStep::RouteBetween(from, to) => Op::RouteBetween {
                from: name(from, &live, &departed),
                to: name(to, &live, &departed),
            },
            BatchStep::ToItself(i) => {
                let id = name(Named::Live(i), &live, &departed);
                Op::RouteBetween { from: id, to: id }
            }
        })
        .collect()
}

/// `apply_batch` on one clone of `base` against `apply` op by op on
/// another: the same results, stats and per-kind message counts.  Returns
/// the results.
fn batch_equals_loop(ops: &[Op], base: &SyncEngine) -> Result<Vec<OpResult>, String> {
    use voronet::sim::MessageKind;
    let (mut batched, mut looped) = (base.clone(), base.clone());
    let got = batched.apply_batch(ops);
    let want: Vec<OpResult> = ops.iter().map(|op| looped.apply(op)).collect();
    tk_ensure_eq!(got.len(), ops.len(), "one result per op");
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        tk_ensure_eq!(got, want, "op {i} {:?}", ops[i]);
    }
    let (a, b) = (batched.stats(), looped.stats());
    tk_ensure_eq!(
        (a.population, a.messages, a.routes_completed),
        (b.population, b.messages, b.routes_completed),
        "stats"
    );
    tk_ensure_eq!(
        a.mean_route_hops.to_bits(),
        b.mean_route_hops.to_bits(),
        "mean hops"
    );
    for kind in MessageKind::ALL {
        let counts = |e: &SyncEngine| e.net().traffic().count(kind);
        tk_ensure_eq!(counts(&batched), counts(&looped), "{kind:?} messages");
    }
    tk_ensure_eq!(batched.net().traffic(), looped.net().traffic(), "traffic");
    Ok(want)
}

/// A batch returns what the same ops return one at a time: `apply_batch`
/// walks each run of routes interleaved, and must keep every result at its
/// index, every failure (unknown source, unknown destination) and every
/// count.  On uniform, `PowerLaw{5}` and 5 × 5 lattice points, whose
/// midpoints tie.
#[test]
fn a_batch_equals_the_per_op_loop() {
    let lattice: Vec<Point2> = (0..25)
        .map(|i| Point2::new(f64::from(i % 5) * 0.25, f64::from(i / 5) * 0.25))
        .collect();
    let pools = [
        (
            "uniform",
            PointGenerator::new(Distribution::Uniform, 61).take_points(300),
        ),
        (
            "power-law",
            PointGenerator::new(Distribution::PowerLaw { alpha: 5.0 }, 67).take_points(300),
        ),
        ("lattice", lattice),
    ];
    for (seed, (name, pool)) in (0xBA7Cu64..).zip(pools) {
        let mut base = SyncEngine::new(VoroNetConfig::new(pool.len()).with_seed(seed));
        for &p in &pool[..pool.len() * 2 / 3] {
            base.insert(p).unwrap();
        }
        let departed: Vec<ObjectId> = base.ids().into_iter().step_by(7).collect();
        for &id in &departed {
            base.remove(id).unwrap();
        }
        // Earlier routes, so the stats compared are sums, not first values.
        let ids = base.ids();
        for (&a, &b) in ids.iter().zip(ids.iter().rev()).take(10) {
            base.route_between(a, b).unwrap();
        }
        let empty = base.clone().apply_batch(&[]);
        assert!(empty.is_empty(), "{name}: an empty batch returns nothing");
        // What the cases reached: routes walked, routes failed, the
        // longest run of routes.
        let (walked, failed, longest) = (Cell::new(0), Cell::new(0), Cell::new(0));
        check_cases(
            &format!("a-batch-equals-the-per-op-loop-{name}"),
            CASES,
            seed,
            batch_steps,
            |steps| {
                let ops = resolve_steps(steps, &base, &departed, &pool);
                let results = batch_equals_loop(&ops, &base)?;
                let mut run = 0;
                for (op, result) in ops.iter().zip(&results) {
                    if !matches!(op, Op::Route { .. } | Op::RouteBetween { .. }) {
                        run = 0;
                        continue;
                    }
                    run += 1;
                    longest.set(longest.get().max(run));
                    let count = if result.is_ok() { &walked } else { &failed };
                    count.set(count.get() + 1);
                }
                Ok(())
            },
        );
        let (walked, failed, longest) = (walked.get(), failed.get(), longest.get());
        assert!(
            walked > 1_000 && failed > 50 && longest > 16,
            "{name}: {walked} routes, {failed} failed, longest run {longest}"
        );
    }
}
