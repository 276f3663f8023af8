//! The repository's benchmark: one command runs one workload and prints
//! every metric by name with its unit, then one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cargo run … -- --repeat-check [K] [--workload <name>]… [--smoke]
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics, the
//! timing rule and why the threaded and lossy clusters are not measured.

mod cluster;
mod json;
mod probes;
mod pump;
mod repeat;
mod spec;
mod sync;
mod timing;
mod trace;

use json::Json;
use spec::{Opts, RunOutput, WorkloadSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark --repeat-check [K] [--workload <name>]... [--seed N] [--seconds S] [--smoke]";

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workloads: Vec<WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat_check: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 2007,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat_check: None,
    };
    let mut it = args.iter().peekable();
    // A flag's value, when the next argument is one.
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next_if(|a| !a.starts_with("--")).cloned()
    };
    while let Some(arg) = it.next() {
        let need = |v: Option<String>| v.ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = need(value(&mut it))?;
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                cli.workloads.push(*w);
            }
            "--seed" => {
                cli.seed = need(value(&mut it))?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = need(value(&mut it))?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value(&mut it).as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => cli.smoke = true,
            "--repeat-check" => {
                cli.repeat_check = Some(match value(&mut it) {
                    None => 5,
                    Some(k) => k.parse().map_err(|e| format!("--repeat-check: {e}"))?,
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.repeat_check.is_none() && cli.workloads.len() != 1 {
        return Err("give exactly one --workload".into());
    }
    Ok(cli)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how this run was taken; echoed above the metrics and into the
/// trace file.
fn env_block(opts: &Opts) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("workload", Json::str(opts.workload.name)),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("mode", Json::str(if opts.smoke { "smoke" } else { "full" })),
        ("threads", Json::Int(1)),
    ])
}

/// `<target dir>/benchmark/trace-<workload>.json`, beside the build outputs
/// (the executable is `<target dir>/<profile>/benchmark`).
fn trace_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?.join("benchmark");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("trace-{workload}.json")))
}

fn metrics_json(out: &RunOutput) -> Json {
    Json::obj(out.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn write_trace(
    opts: &Opts,
    env: &Json,
    out: &RunOutput,
    spans: &[trace::Span],
) -> Result<PathBuf, String> {
    let path = trace_path(opts.workload.name).ok_or("no directory for the trace file")?;
    let doc = Json::obj([
        ("env", env.clone()),
        ("metrics", metrics_json(out)),
        ("span_cap", Json::Int(trace::SPAN_CAP as u64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Int(s.start_ns)),
                            ("end_ns", Json::Int(s.end_ns)),
                            (
                                "parent",
                                if s.parent == trace::NO_PARENT {
                                    Json::Num(f64::NAN) // null
                                } else {
                                    Json::Int(u64::from(s.parent))
                                },
                            ),
                            ("op", Json::Int(u64::from(s.op))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&path, doc.encode()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs one workload in one mode and prints its report; the last line is
/// the JSON result.
fn run_one(opts: &Opts) -> Result<(), String> {
    let env = env_block(opts);
    println!("# env {}", env.encode());
    let cluster = opts.workload.name == "cluster_kv_2k";
    let mut out = match (cluster, opts.trace) {
        (false, false) => sync::run(opts)?,
        (false, true) => sync::run_traced(opts)?,
        (true, false) => cluster::run(opts)?,
        (true, true) => cluster::run_traced(opts)?,
    };
    if opts.trace {
        let spans = trace::take_spans();
        let path = write_trace(opts, &env, &out, &spans)?;
        out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
    }
    let expected: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    got.sort_unstable();
    let mut want = expected.clone();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "metrics reported {got:?} differ from the manifest's {want:?}"
        ));
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    // A wrong result or a failed operation ended the run before this line.
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(0)),
        ("metrics", metrics_json(&out)),
    ]);
    println!("{}", result.encode());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.repeat_check {
        Some(k) => repeat::check(&cli.workloads, k, cli.seed, cli.seconds, cli.smoke),
        None => run_one(&Opts {
            workload: cli.workloads[0],
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            smoke: cli.smoke,
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A wrong result, a failed check or a pass that did not repeat:
            // no result line, non-zero exit.
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse(&args(
            "--workload cluster_kv_2k --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workloads[0].name, "cluster_kv_2k");
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 10.0, true));
        let cli = parse(&args("--workload mixed_zipf_20k --trace 0 --smoke")).unwrap();
        assert!(!cli.trace && cli.smoke && cli.seed == 2007);
        // A bare `--trace` means on.
        assert!(
            parse(&args("--trace --workload mixed_zipf_20k"))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload mixed_zipf_20k --seconds 0")).is_err());
        assert!(parse(&args("--workload mixed_zipf_20k --trace 2")).is_err());
        assert!(parse(&args("--workload mixed_zipf_20k --frobnicate")).is_err());
        assert_eq!(
            parse(&args("--repeat-check")).unwrap().repeat_check,
            Some(5)
        );
        assert_eq!(
            parse(&args("--repeat-check 3 --smoke"))
                .unwrap()
                .repeat_check,
            Some(3)
        );
    }
}
