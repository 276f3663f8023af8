//! `--repeat-check K`: does the benchmark repeat?
//!
//! Runs each selected workload `K` times in fresh child processes with the
//! same seed and compares the end-to-end metrics: a timing (or memory)
//! metric may spread by at most **half** its manifest bound, a count must be
//! identical in every run.  The bounds in `BENCHMARK.json` were set from
//! this output.

use crate::spec::{WorkloadSpec, END_TO_END, WORKLOADS};
use std::process::Command;

/// One child's metrics, as printed (`name value unit` lines).
fn run_child(
    w: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Vec<(String, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with(['#', '{']))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_owned(), f.next()?.to_owned()))
        })
        .collect())
}

/// Runs the check; `Err` when a metric does not repeat or a child fails.
pub fn check(
    selected: &[WorkloadSpec],
    k: usize,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<(), String> {
    let workloads = if selected.is_empty() {
        &WORKLOADS[..]
    } else {
        selected
    };
    let k = k.max(2);
    let mut bad = Vec::new();
    for w in workloads {
        let runs = (0..k)
            .map(|_| run_child(w, seed, seconds, smoke))
            .collect::<Result<Vec<_>, _>>()?;
        println!("{} ({k} runs, seed {seed})", w.name);
        println!(
            "  {:<12} {:>14} {:>14} {:>14} {:>8}  verdict",
            "metric", "min", "median", "max", "spread"
        );
        for m in &END_TO_END {
            let raw: Vec<&str> = runs
                .iter()
                .map(|r| r.iter().find(|(n, _)| n == m.name).map(|(_, v)| v.as_str()))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("{}: a run did not print {}", w.name, m.name))?;
            let mut values: Vec<f64> = raw.iter().filter_map(|v| v.parse().ok()).collect();
            values.sort_by(f64::total_cmp);
            let (min, max, median) = (
                values[0],
                values[values.len() - 1],
                values[values.len() / 2],
            );
            let spread = (max - min) / median;
            let (verdict, repeats) = match m.exact {
                true if raw.iter().all(|v| *v == raw[0]) => ("exact", true),
                true => ("DIFFERS", false),
                // A smoke run is milliseconds long: its timings say nothing.
                _ if smoke => ("not gated", true),
                _ if spread <= m.bound / 2.0 => ("ok", true),
                _ => ("TOO WIDE", false),
            };
            println!(
                "  {:<12} {min:>14.4} {median:>14.4} {max:>14.4} {:>7.2}%  {verdict} (bound {}%)",
                m.name,
                spread * 100.0,
                m.bound * 100.0
            );
            if !repeats {
                bad.push(format!("{}/{}", w.name, m.name));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("did not repeat: {}", bad.join(", ")))
    }
}
