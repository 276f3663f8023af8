//! `voronet-node demo` end to end: the whole cluster in one process, on
//! one thread and the hub's virtual clock, over a vnet that loses one
//! frame in ten — so two runs print the same report but for the ops/s
//! rate, and the driver's own walk agrees with every distributed route.

use std::process::Command;

/// One small lossy demo run's stdout, with the wall-clock rates masked.
fn demo() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_voronet-node"))
        .args(["demo", "--loss", "0.1", "--objects", "40", "--ops", "120"])
        .output()
        .expect("run voronet-node demo");
    assert!(
        out.status.success(),
        "demo exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mask = |line: &str| {
        let words: Vec<&str> = line.split(' ').collect();
        let rate = |i: usize| words.get(i + 1) == Some(&"ops/s");
        let masked: Vec<&str> = (0..words.len())
            .map(|i| if rate(i) { "_" } else { words[i] })
            .collect();
        masked.join(" ")
    };
    stdout.lines().map(mask).collect::<Vec<_>>().join("\n")
}

#[test]
fn lossy_demo_repeats_and_cross_checks_clean() {
    let first = demo();
    assert!(first.contains(" ops/s "), "progress lines carry a rate");
    assert!(
        first.contains("own walk, 0 mismatched"),
        "cross-check disagreed:\n{first}"
    );
    assert!(!first.contains(" 0 routes verified"), "{first}");
    assert_eq!(first, demo(), "two demo runs diverged");
}
