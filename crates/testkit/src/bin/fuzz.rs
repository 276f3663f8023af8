//! The testkit CLI: seeded differential fuzzing with shrinking
//! reproducers.
//!
//! ```text
//! fuzz [--seed S] [--cases N] [--ops N] [--warmup N] [--services]
//!      [--out DIR] [--replay FILE]... [--no-replay-dir]
//!      [--dump-ops FILE] [--demo-fault] [--codec] [--chaos]
//! ```
//!
//! `--services` biases case generation towards service segments (region
//! pub/sub and coordinate-keyed KV) — the CI `services-smoke` step runs
//! with it; service traffic appears in every case regardless.
//!
//! `--chaos` runs the chaos pass instead of differential fuzzing: it
//! replays every committed chaos reproducer under `tests/chaos/` (a
//! reproducer that fails its audit fails the run), then executes seeded
//! crash/partition timelines against the fault-injected cluster; a
//! failing timeline is ddmin-shrunk and written to `tests/chaos/`.  Each
//! case prints its counters and nothing timed (the wall time goes to
//! stderr), so two runs print the same stdout; the CI `chaos-smoke` step
//! runs it twice under `VORONET_SMOKE=1` and diffs them.
//!
//! `--dump-ops FILE` writes each generated case's resolved op stream to
//! `FILE` before running it, one `{op:?}` per line (the file ends up
//! holding the last case's ops), resolved op by op as the harness
//! resolves them — a debugging aid, not a replay format: reproducers are
//! the `.ron` files.
//!
//! `--codec` runs the standalone wire-codec property pass
//! ([`voronet_testkit::run_codec_pass`]) instead of differential
//! fuzzing — round-trip canonicality, truncation/corruption totality —
//! and exits; the CI `net-smoke` step uses it under `VORONET_SMOKE=1`.
//!
//! Default behaviour (the CI `fuzz-smoke` step):
//!
//! 1. replay every reproducer file under `--out` (default
//!    `tests/reproducers/`) — a reproducer that still diverges fails the
//!    run, so a divergence committed to the tree must be fixed before CI
//!    goes green again;
//! 2. run `--cases` generated cases of `--ops` ops from `--seed`
//!    upwards; on divergence, shrink the case and write a reproducer
//!    into `--out`, then exit non-zero.
//!
//! `VORONET_SMOKE=1` selects the CI budget (one 10k-op acceptance case
//! plus a handful of smaller mixed cases); without it the fuzzer runs
//! the same shape with a larger case count.  Each case runs on the sync
//! engine and a three-host inline cluster, checked against each other and
//! the O(n²) oracle.  `--demo-fault` plants the deliberate cluster-route
//! defect (one extra hop on every multi-hop route the cluster answers)
//! and *expects* to catch and shrink it — a self-test of the whole
//! detect→shrink→reproduce pipeline.

use std::path::PathBuf;
use std::process::ExitCode;
use voronet_testkit::{
    generate_case, generate_chaos, list_reproducers, read_chaos_reproducer, read_reproducer,
    resolve_op, run_case, run_chaos, shrink_case, shrink_chaos, write_chaos_reproducer,
    write_reproducer, ChaosReport, ChaosSpec, Fault, FuzzSpec, Panics,
};
use voronet_workloads::smoke_budget;

struct Args {
    seed: u64,
    cases: usize,
    ops: Option<usize>,
    warmup: usize,
    out: PathBuf,
    replay: Vec<PathBuf>,
    replay_dir: bool,
    dump_ops: Option<PathBuf>,
    demo_fault: bool,
    codec: bool,
    chaos: bool,
    services: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 2007,
        cases: if smoke_budget() { 4 } else { 16 },
        ops: None,
        warmup: 64,
        out: PathBuf::from("tests/reproducers"),
        replay: Vec::new(),
        replay_dir: true,
        dump_ops: None,
        demo_fault: false,
        codec: false,
        chaos: false,
        services: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--ops" => args.ops = Some(value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--warmup" => {
                args.warmup = value("--warmup")?
                    .parse()
                    .map_err(|e| format!("--warmup: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--replay" => args.replay.push(PathBuf::from(value("--replay")?)),
            "--no-replay-dir" => args.replay_dir = false,
            "--dump-ops" => args.dump_ops = Some(PathBuf::from(value("--dump-ops")?)),
            "--demo-fault" => args.demo_fault = true,
            "--codec" => args.codec = true,
            "--chaos" => args.chaos = true,
            "--services" => args.services = true,
            "--help" | "-h" => {
                println!(
                    "fuzz [--seed S] [--cases N] [--ops N] [--warmup N] [--services] \
                     [--out DIR] [--replay FILE]... [--no-replay-dir] \
                     [--dump-ops FILE] [--demo-fault] [--codec] [--chaos]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Dumps a case's resolved op stream, one `{op:?}` per line, for manual
/// debugging (replay the case itself from its reproducer file).
fn dump_resolved_ops(case: &voronet_testkit::FuzzCase, path: &PathBuf) -> std::io::Result<()> {
    use std::fmt::Write;
    use voronet_api::{Overlay, OverlayBuilder};
    let mut engine = OverlayBuilder::new(case.nmax).seed(case.seed).build_sync();
    let mut text = String::new();
    for step in &case.script {
        if let Some(op) = resolve_op(&engine, step) {
            writeln!(text, "{op:?}").expect("writing to a String cannot fail");
            engine.apply(&op);
        }
    }
    std::fs::write(path, text)
}

/// The `--chaos` pass: replay committed chaos reproducers, then run
/// seeded crash/partition timelines; shrink and persist any failure.
fn run_chaos_pass(args: &Args) -> ExitCode {
    let dir = PathBuf::from("tests/chaos");
    let mut failures = 0usize;
    for path in list_reproducers(&dir) {
        match read_chaos_reproducer(&path) {
            Err(e) => {
                eprintln!("fuzz: {}: {e}", path.display());
                failures += 1;
            }
            Ok(case) => match run_chaos(&case) {
                Ok(report) => println!(
                    "chaos replay {} … clean ({})",
                    path.display(),
                    summary(&report)
                ),
                Err(f) => {
                    eprintln!(
                        "fuzz: chaos reproducer {} STILL FAILS: {f}\n      fix the bug (or \
                         remove the file once obsolete) to unblock CI",
                        path.display()
                    );
                    failures += 1;
                }
            },
        }
    }
    if failures > 0 {
        return ExitCode::FAILURE;
    }
    let cases = if smoke_budget() { 3 } else { args.cases.max(8) } as u64;
    let started = std::time::Instant::now();
    for i in 0..cases {
        let spec = ChaosSpec::smoke(args.seed + i);
        let case = generate_chaos(&spec);
        match run_chaos(&case) {
            Ok(report) => println!("chaos seed {} … clean ({})", spec.seed, summary(&report)),
            Err(failure) => {
                eprintln!("chaos seed {}: FAILURE {failure}", spec.seed);
                eprintln!("chaos seed {}: shrinking …", spec.seed);
                let outcome = shrink_chaos(&case, 200);
                eprintln!(
                    "chaos seed {}: shrunk {} → {} steps in {} executions: {}",
                    spec.seed,
                    case.steps.len(),
                    outcome.case.steps.len(),
                    outcome.executions,
                    outcome.failure
                );
                report_panics("chaos seed", spec.seed, &outcome.panics);
                match write_chaos_reproducer(&dir, &outcome.case, Some(&outcome.failure)) {
                    Ok(path) => eprintln!(
                        "chaos seed {}: reproducer written to {}",
                        spec.seed,
                        path.display()
                    ),
                    Err(e) => eprintln!("chaos seed {}: cannot write reproducer: {e}", spec.seed),
                }
                return ExitCode::FAILURE;
            }
        }
    }
    println!("chaos: {cases} cases, no failure");
    eprintln!("chaos: wall time {:.1?}", started.elapsed());
    ExitCode::SUCCESS
}

/// Says how many shrink candidates panicked (each counted as not
/// reproducing), with the first one's message.
fn report_panics(label: &str, seed: u64, panics: &Panics) {
    if let Some(first) = &panics.first {
        eprintln!(
            "{label} {seed}: {} shrink candidates panicked; first: {first}",
            panics.count
        );
    }
}

/// One chaos run's line: counters only, so two runs of the pass print
/// the same text (CI diffs them).
fn summary(r: &ChaosReport) -> String {
    format!(
        "{} ops, {} faults, {} degraded reads, {} fail-fasts, {} retries, {} fast resends, \
         {} suspicions",
        r.ops_run,
        r.faults_fired,
        r.stats.degraded_reads,
        r.stats.fail_fast,
        r.stats.retries,
        r.stats.fast_resends,
        r.stats.suspicions
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    // ---- codec pass ---------------------------------------------------
    if args.codec {
        // Standalone wire-codec fuzzing (the CI `net-smoke` budget when
        // VORONET_SMOKE=1): panics with a shrunk frame on failure.
        let cases = if smoke_budget() { 256 } else { 2_048 } as u64;
        voronet_testkit::run_codec_pass(cases, args.seed);
        println!(
            "codec pass clean ({cases} cases per property from seed {})",
            args.seed
        );
        return ExitCode::SUCCESS;
    }

    // ---- chaos pass ---------------------------------------------------
    if args.chaos {
        return run_chaos_pass(&args);
    }

    let fault = if args.demo_fault {
        Fault::ClusterRouteExtraHop
    } else {
        Fault::None
    };

    // ---- replay phase -------------------------------------------------
    let mut replay_files = args.replay.clone();
    if args.replay_dir {
        replay_files.extend(list_reproducers(&args.out));
    }
    replay_files.sort();
    replay_files.dedup();
    let mut failures = 0usize;
    for path in &replay_files {
        match read_reproducer(path) {
            Err(e) => {
                eprintln!("fuzz: {}: {e}", path.display());
                failures += 1;
            }
            // Committed reproducers document *fixed* bugs: they must
            // replay clean on the faithful executions, so the planted
            // --demo-fault defect never applies here (it would falsely
            // flag any reproducer containing a multi-hop route).
            Ok(case) => match run_case(&case, Fault::None) {
                Ok(report) => println!(
                    "replay {} … clean ({} ops, {} rounds)",
                    path.display(),
                    report.ops_run,
                    report.rounds
                ),
                Err(d) => {
                    eprintln!(
                        "fuzz: reproducer {} STILL DIVERGES: {d}\n      fix the bug (or remove \
                         the file once obsolete) to unblock CI",
                        path.display()
                    );
                    failures += 1;
                }
            },
        }
    }
    if failures > 0 {
        return ExitCode::FAILURE;
    }

    // ---- fuzz phase ---------------------------------------------------
    let mut specs: Vec<FuzzSpec> = Vec::new();
    if args.cases > 0 {
        // The acceptance case: one deep 10k-op script on the base seed.
        let deep = FuzzSpec {
            warmup: args.warmup.max(100),
            services: args.services,
            ..FuzzSpec::deep(args.seed)
        };
        specs.push(match args.ops {
            Some(ops) => FuzzSpec { ops, ..deep },
            None => deep,
        });
    }
    // Smaller mixed cases on successor seeds.
    for i in 1..args.cases as u64 {
        let mut spec = FuzzSpec::smoke(args.seed + i);
        spec.warmup = args.warmup.min(48);
        spec.services = args.services;
        if let Some(ops) = args.ops {
            spec.ops = ops.min(600);
        }
        specs.push(spec);
    }

    let mut total_ops = 0usize;
    let started = std::time::Instant::now();
    for spec in &specs {
        let case = generate_case(spec);
        if let Some(path) = &args.dump_ops {
            if let Err(e) = dump_resolved_ops(&case, path) {
                eprintln!("fuzz: --dump-ops {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        match run_case(&case, fault) {
            Ok(report) => {
                total_ops += report.ops_run;
                println!(
                    "seed {} … clean ({} ops, {} rounds, population {}, \
                     {} invariant node-checks, ≤ {} close links, rows ≤ {} entries)",
                    spec.seed,
                    report.ops_run,
                    report.rounds,
                    report.population,
                    report.invariants_checked,
                    report.close_links,
                    report.longest_row
                );
            }
            Err(divergence) => {
                eprintln!("seed {}: DIVERGENCE {divergence}", spec.seed);
                eprintln!("seed {}: shrinking …", spec.seed);
                let outcome = shrink_case(&case, fault, 2_000);
                eprintln!(
                    "seed {}: shrunk {} → {} ops in {} executions: {}",
                    spec.seed,
                    case.script.len(),
                    outcome.case.script.len(),
                    outcome.executions,
                    outcome.divergence
                );
                report_panics("seed", spec.seed, &outcome.panics);
                if args.demo_fault {
                    // Self-test mode: catching and shrinking the planted
                    // fault is the *expected* outcome.
                    println!(
                        "demo-fault: planted defect caught and shrunk to {} ops — pipeline OK",
                        outcome.case.script.len()
                    );
                    return if outcome.case.script.len() <= 20 {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("demo-fault: reproducer larger than the 20-op acceptance bound");
                        ExitCode::FAILURE
                    };
                }
                match write_reproducer(&args.out, &outcome.case, Some(&outcome.divergence)) {
                    Ok(path) => eprintln!(
                        "seed {}: reproducer written to {}",
                        spec.seed,
                        path.display()
                    ),
                    Err(e) => eprintln!("seed {}: cannot write reproducer: {e}", spec.seed),
                }
                return ExitCode::FAILURE;
            }
        }
    }
    if args.demo_fault {
        eprintln!("demo-fault: the planted defect was NOT detected — the checker is broken");
        return ExitCode::FAILURE;
    }
    println!(
        "fuzz: {} cases, {total_ops} ops, no divergence ({:.1?})",
        specs.len(),
        started.elapsed()
    );
    ExitCode::SUCCESS
}
