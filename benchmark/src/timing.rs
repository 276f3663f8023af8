//! The timing rule: replay one fixed script for several passes from an
//! identical starting state, time every *slot* (one call into the public
//! API) in every pass, and charge each slot its minimum over the passes.
//!
//! Interference on the shared sandbox is bursty and only ever adds time,
//! while the work of a slot is deterministic, so the minimum over passes
//! converges on the undisturbed cost as soon as each slot has seen one
//! quiet pass — unlike a mean (moved ±9 % by bursts here) or a median of
//! whole passes (±28 %).  Unlike a low quantile over slots it still counts
//! *every* slot, so a gain on cheap slots bought with slower expensive ones
//! cannot hide.

use std::time::{Duration, Instant};

/// Per-slot minimum accumulator of one timed phase.
#[derive(Debug, Clone)]
pub struct SlotMin {
    mins: Vec<u64>,
    /// Slots per coarse group (see [`SlotMin::noise_ratio`]).
    group: usize,
    group_mins: Vec<u64>,
    group_sums: Vec<u64>,
    best_pass: u64,
    passes: usize,
}

/// Coarse groups a phase is cut into for the noise ratio.
const GROUPS: usize = 256;

impl SlotMin {
    /// An accumulator for a phase of `slots` slots.
    pub fn new(slots: usize) -> Self {
        let group = slots.div_ceil(GROUPS).max(1);
        let groups = slots.div_ceil(group);
        SlotMin {
            mins: vec![u64::MAX; slots],
            group,
            group_mins: vec![u64::MAX; groups],
            group_sums: vec![0; groups],
            best_pass: u64::MAX,
            passes: 0,
        }
    }

    /// Records that `slot` took `ns` nanoseconds in the current pass.
    #[inline]
    pub fn record(&mut self, slot: usize, ns: u64) {
        let m = &mut self.mins[slot];
        if ns < *m {
            *m = ns;
        }
        self.group_sums[slot / self.group] += ns;
    }

    /// Times `f` as `slot` of the current pass and returns its result.
    #[inline]
    pub fn time<R>(&mut self, slot: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(slot, t0.elapsed().as_nanos() as u64);
        r
    }

    /// Closes the current pass.
    pub fn end_pass(&mut self) {
        let mut total = 0;
        for (min, sum) in self.group_mins.iter_mut().zip(&mut self.group_sums) {
            total += *sum;
            *min = (*min).min(*sum);
            *sum = 0;
        }
        self.best_pass = self.best_pass.min(total);
        self.passes += 1;
    }

    /// Completed passes.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.mins.len()
    }

    /// Per-slot minima in nanoseconds (`u64::MAX` for a slot never timed).
    pub fn mins(&self) -> &[u64] {
        &self.mins
    }

    /// The phase's time: the sum of the slot minima, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.mins.iter().filter(|&&m| m != u64::MAX).sum()
    }

    /// The phase's time in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns() as f64 * 1e-9
    }

    /// Best whole pass ÷ the sum of per-group minima, a group being a run
    /// of consecutive slots about 1/256 of the phase long.  Near 1 when at
    /// least one pass ran undisturbed; well above 1 when every pass caught a
    /// burst and the minima were stitched together from different passes.
    /// Groups, not single slots: the minimum of a microsecond-long slot
    /// over dozens of passes also removes timer and cache jitter, which is
    /// no sign of interference.
    pub fn noise_ratio(&self) -> f64 {
        let sum: u64 = self.group_mins.iter().filter(|&&m| m != u64::MAX).sum();
        if sum == 0 || self.best_pass == u64::MAX {
            return 1.0;
        }
        self.best_pass as f64 / sum as f64
    }
}

/// Nearest-rank quantile of an ascending slice: the `ceil(q·n)`-th smallest
/// value (1-based), clamped to the slice.  The caller states `n` beside any
/// number it reports.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How often a phase repeats its script: counts fixed by the command line,
/// never by how fast the code under test runs.  A minimum over passes falls
/// as passes are added, so two commits are only comparable at equal counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassPlan {
    /// Passes always run (the first also checks results).
    pub passes: usize,
    /// Passes at most; those beyond `passes` run only while the phase has
    /// not seen a quiet pass yet (see [`NOISY`]).
    pub cap: usize,
}

impl PassPlan {
    /// Exactly `n` passes.
    pub fn exactly(n: usize) -> Self {
        PassPlan { passes: n, cap: n }
    }

    /// Whether a phase that has completed `slots.passes()` passes runs
    /// another.
    pub fn wants_more(&self, slots: &SlotMin) -> bool {
        let done = slots.passes();
        done < self.passes || (done < self.cap && slots.noise_ratio() > NOISY)
    }
}

/// A phase whose noise ratio is above this had no quiet pass yet.
pub const NOISY: f64 = 1.10;

/// What the passes of a phase produced so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassReport {
    /// The digest every pass agreed on (`None` before the first pass).
    pub digest: Option<u64>,
    /// Wall time spent in the passes.
    pub wall: Duration,
    /// On-CPU time of this thread over the same intervals.
    pub oncpu: Duration,
}

impl PassReport {
    /// Share of the passes' wall time this thread spent on a CPU.
    pub fn oncpu_frac(&self) -> f64 {
        self.oncpu.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Runs one pass and closes it on `slots`.  `pass` must return the
    /// digest of its results; a digest differing from the earlier passes' is
    /// an error — the passes did not do identical work.
    pub fn pass(
        &mut self,
        slots: &mut SlotMin,
        pass: impl FnOnce(&mut SlotMin) -> Result<u64, String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let cpu0 = thread_cpu_time();
        let d = pass(slots)?;
        self.wall += start.elapsed();
        self.oncpu += thread_cpu_time().saturating_sub(cpu0);
        let i = slots.passes();
        slots.end_pass();
        match self.digest {
            Some(first) if first != d => Err(format!(
                "pass {i} produced digest {d:016x}, pass 0 produced {first:016x}"
            )),
            _ => {
                self.digest = Some(d);
                Ok(())
            }
        }
    }
}

/// Repeats `pass` on `slots` as often as `plan` says.  `pass` receives the
/// pass index.
pub fn run_passes(
    plan: PassPlan,
    slots: &mut SlotMin,
    mut pass: impl FnMut(usize, &mut SlotMin) -> Result<u64, String>,
) -> Result<PassReport, String> {
    let mut report = PassReport::default();
    while plan.wants_more(slots) {
        let i = slots.passes();
        report.pass(slots, |s| pass(i, s))?;
    }
    Ok(report)
}

/// Whether `round` of a run of `rounds` is one of its `builds` evenly spaced
/// set-up rounds (round 0 always is).  Builds are spread over the run so
/// that `setup_s`, like every phase, has the whole run in which to find its
/// quiet moments: the sandbox's undisturbed speed drifts over tens of seconds.
pub fn build_due(round: usize, rounds: usize, builds: usize) -> bool {
    round < rounds && (round * builds) % rounds < builds
}

/// On-CPU time of the calling thread so far, from the first field of
/// `/proc/thread-self/schedstat`; zero where that file is missing.
pub fn thread_cpu_time() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map(Duration::from_nanos)
        .unwrap_or_default()
}

/// A field of `/proc/self/status` given in kB (`VmRSS`, `VmHWM`), in MB;
/// zero where the file or field is missing.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Passes repeat identical work on identical state, so memory that keeps
/// growing is the harness leaking (an uncleared scratch, kept clones):
/// fails when `VmHWM` has grown by more than 5 % + 8 MB over `earlier_mb`,
/// the peak read at `when`.
pub fn check_hwm(earlier_mb: f64, when: &str) -> Result<(), String> {
    let hwm = status_mb("VmHWM");
    if earlier_mb > 0.0 && hwm > earlier_mb * 1.05 + 8.0 {
        return Err(format!(
            "VmHWM grew from {earlier_mb:.1} MB after {when} to {hwm:.1} MB"
        ));
    }
    Ok(())
}

/// FNV-1a over 64-bit words: the result digest passes must agree on.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    #[inline]
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_min_keeps_the_minimum_of_every_slot() {
        let mut s = SlotMin::new(3);
        for (slot, ns) in [(0, 10), (1, 50), (2, 7)] {
            s.record(slot, ns);
        }
        s.end_pass();
        for (slot, ns) in [(0, 30), (1, 20), (2, 9)] {
            s.record(slot, ns);
        }
        s.end_pass();
        assert_eq!(s.mins(), &[10, 20, 7]);
        assert_eq!(s.sum_ns(), 37);
        assert_eq!(s.passes(), 2);
        // Best whole pass is 59 (the second); no single pass was quiet.
        assert!((s.noise_ratio() - 59.0 / 37.0).abs() < 1e-12);
    }

    #[test]
    fn noise_ratio_compares_groups_of_slots() {
        // 1024 slots make groups of 4; jitter inside a group cancels.
        let mut s = SlotMin::new(1024);
        for pass in 0..2 {
            for slot in 0..1024 {
                s.record(slot, if (slot + pass) % 2 == 0 { 10 } else { 20 });
            }
            s.end_pass();
        }
        assert_eq!(s.sum_ns(), 10 * 1024);
        assert_eq!(s.noise_ratio(), 1.0);
    }

    #[test]
    fn untimed_slots_do_not_count() {
        let mut s = SlotMin::new(2);
        s.record(0, 5);
        s.end_pass();
        assert_eq!(s.sum_ns(), 5);
        assert_eq!(SlotMin::new(4).noise_ratio(), 1.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        // n = 5: ceil(0.5·5) = 3rd smallest.
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.5), 3);
    }

    #[test]
    fn passes_must_agree_on_their_digest() {
        let plan = PassPlan::exactly(3);
        let mut slots = SlotMin::new(1);
        let ok = run_passes(plan, &mut slots, |_, s| {
            s.record(0, 1);
            Ok(42)
        })
        .unwrap();
        assert_eq!((ok.digest, slots.passes()), (Some(42), 3));
        let mut slots = SlotMin::new(1);
        let err = run_passes(plan, &mut slots, |i, _| Ok(i as u64)).unwrap_err();
        assert!(err.contains("pass 1"), "{err}");
    }

    #[test]
    fn pass_counts_come_from_the_plan_and_extend_only_on_noise() {
        let plan = PassPlan { passes: 2, cap: 4 };
        // Quiet: every pass costs the same, so the ratio is 1.
        let mut quiet = SlotMin::new(2);
        run_passes(plan, &mut quiet, |_, s| {
            s.record(0, 10);
            s.record(1, 10);
            Ok(0)
        })
        .unwrap();
        assert_eq!(quiet.passes(), 2);
        // Noisy: each pass disturbs another slot, so no whole pass is near
        // the sum of minima and the passes run to the cap.
        let mut noisy = SlotMin::new(2);
        run_passes(plan, &mut noisy, |i, s| {
            s.record(i % 2, 10);
            s.record((i + 1) % 2, 30);
            Ok(0)
        })
        .unwrap();
        assert_eq!(noisy.passes(), 4);
    }

    #[test]
    fn builds_are_spread_evenly_over_the_rounds() {
        let due = |rounds, builds| -> Vec<usize> {
            (0..rounds + 4)
                .filter(|&r| build_due(r, rounds, builds))
                .collect()
        };
        assert_eq!(due(12, 3), [0, 4, 8]);
        assert_eq!(due(8, 3), [0, 3, 6]);
        assert_eq!(due(2, 3), [0, 1]);
        assert_eq!(due(5, 1), [0]);
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        let of = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.push(w));
            d.finish()
        };
        assert_ne!(of(&[1, 2]), of(&[2, 1]));
        assert_ne!(of(&[1]), of(&[1, 0]));
        assert_eq!(of(&[3, 4]), of(&[3, 4]));
    }
}
