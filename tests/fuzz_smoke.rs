//! Bounded-iteration differential fuzzing as part of tier-1.
//!
//! The full budget lives in the `fuzz` CLI (`crates/testkit/src/bin`),
//! run by the CI `fuzz-smoke` step; this suite keeps a small always-on
//! slice in `cargo test`: a handful of seeded cases through the
//! differential harness (sync, cluster and oracle), the
//! detect→shrink→reproduce self-test with the deliberately planted
//! cluster-route fault, and replay of every reproducer file committed
//! under `tests/reproducers/`.

use voronet_testkit::{
    generate_case, list_reproducers, read_reproducer, run_case, shrink_case, write_reproducer,
    Fault, FuzzSpec,
};

/// A few seeded smoke cases must run divergence-free across all engines.
#[test]
fn seeded_smoke_cases_are_divergence_free() {
    for seed in 2007..2011u64 {
        let case = generate_case(&FuzzSpec {
            warmup: 20,
            ops: 140,
            ..FuzzSpec::smoke(seed)
        });
        let report = run_case(&case, Fault::None).unwrap_or_else(|d| {
            panic!("seed {seed}: divergence {d}\nreplay: FuzzSpec::smoke({seed}) with warmup 20, ops 140")
        });
        assert!(report.ops_run >= 100, "seed {seed}: {report:?}");
        assert!(
            report.invariants_checked > 0,
            "seed {seed}: vacuous invariant audits"
        );
    }
}

/// The acceptance self-test: a wrong hop planted in the cluster's route
/// results is caught, shrunk to ≤ 20 ops, and the reproducer file
/// round-trips and still reproduces after a parse.
#[test]
fn planted_fault_is_caught_shrunk_and_reproducible_from_file() {
    let case = generate_case(&FuzzSpec {
        warmup: 16,
        ops: 180,
        ..FuzzSpec::smoke(4242)
    });
    let outcome = shrink_case(&case, Fault::ClusterRouteExtraHop, 2_000);
    assert!(
        outcome.case.script.len() <= 20,
        "reproducer must shrink to at most 20 ops, got {}",
        outcome.case.script.len()
    );

    // Write/parse/replay round trip through a scratch directory.
    let dir = std::env::temp_dir().join(format!("voronet-fuzz-smoke-{}", std::process::id()));
    let path = write_reproducer(&dir, &outcome.case, Some(&outcome.divergence))
        .expect("reproducer writes");
    let parsed = read_reproducer(&path).expect("reproducer parses");
    assert_eq!(parsed, outcome.case, "reproducers round-trip bit-exactly");
    let replayed = run_case(&parsed, Fault::ClusterRouteExtraHop)
        .expect_err("the parsed reproducer still diverges under the fault");
    assert_eq!(replayed.kind, "result:cluster", "{replayed}");
    // Without the planted fault the same case is clean.
    run_case(&parsed, Fault::None)
        .unwrap_or_else(|d| panic!("fault-free replay must be clean: {d}"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every reproducer committed under `tests/reproducers/` must replay
/// cleanly: a file that still diverges marks an unfixed bug and fails
/// tier-1 (and the CI fuzz-smoke step) until it is fixed or retired.
#[test]
fn committed_reproducers_replay_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/reproducers");
    for path in list_reproducers(&dir) {
        let case = read_reproducer(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        run_case(&case, Fault::None).unwrap_or_else(|d| {
            panic!(
                "reproducer {} STILL DIVERGES: {d}\nfix the bug (or retire the file) before \
                 merging",
                path.display()
            )
        });
    }
}
