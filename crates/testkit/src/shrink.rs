//! Delta-debugging shrinker for diverging fuzz cases, and the one ddmin
//! both fuzzers shrink through.
//!
//! `ddmin` minimises any step list against a failing predicate:
//! repeatedly try removing chunks — halves first, then smaller windows,
//! down to single steps — and keep every removal after which the
//! predicate still fails.  Fuzz scripts are sequences of index-named
//! [`WorkloadOp`](voronet_workloads::WorkloadOp)s, so *any* subsequence
//! is still executable (each op's participant indices are taken modulo
//! the live population, and an op naming a participant is skipped while
//! the population is empty), and chaos timelines
//! ([`crate::chaos::shrink_chaos`]) are op and fault steps with the same
//! property: ddmin applies to both without repair logic.
//! [`shrink_case`] keeps the final (usually much smaller) script plus the
//! divergence it still triggers.  A candidate whose run panics (a removal
//! can leave a defective build in a state its code never meant to reach)
//! counts as not reproducing, so the shrunk list still triggers the
//! original failure and replays without panicking.

use crate::grammar::FuzzCase;
use crate::harness::{run_case, Divergence, Fault};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, turning a panic into `Err` with the panic's message.
pub(crate) fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            s.to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "a non-string payload".to_string()
        }
    })
}

/// The shrink candidates whose run panicked; each counted as not
/// reproducing the failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Panics {
    /// Candidates that panicked.
    pub count: usize,
    /// The first one's panic message.
    pub first: Option<String>,
}

/// Classic ddmin over a step list.  Sweeps windows from half the list
/// down to single steps, keeping every removal after which `fails` still
/// reports a failure, until a whole sweep removes nothing (the list is
/// 1-minimal with respect to chunk removal) or `fails` has run `budget`
/// times.  A candidate on which `fails` panics is kept out, like one that
/// does not fail.  Returns the shrunk list, which always still fails, the
/// failure its last failing run reported (`failure`, the caller's own,
/// if none did), the number of runs spent and the panicking candidates.
pub(crate) fn ddmin<T: Clone, E>(
    mut steps: Vec<T>,
    mut failure: E,
    budget: usize,
    mut fails: impl FnMut(&[T]) -> Option<E>,
) -> (Vec<T>, E, usize, Panics) {
    let mut runs = 0;
    let mut panics = Panics::default();
    loop {
        let before = steps.len();
        let mut window = (steps.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < steps.len() && runs < budget {
                let end = (start + window).min(steps.len());
                let mut candidate = steps[..start].to_vec();
                candidate.extend_from_slice(&steps[end..]);
                runs += 1;
                match catch_panic(|| fails(&candidate)) {
                    Ok(Some(f)) => {
                        // The removal preserved a failure: keep it and
                        // stay at the same position (the next window slid
                        // into it).
                        steps = candidate;
                        failure = f;
                    }
                    Ok(None) => start = end,
                    Err(message) => {
                        panics.count += 1;
                        panics.first.get_or_insert(message);
                        start = end;
                    }
                }
            }
            if window == 1 || runs >= budget {
                break;
            }
            window /= 2;
        }
        if runs >= budget || steps.len() == before {
            return (steps, failure, runs, panics);
        }
    }
}

/// The result of shrinking a diverging case.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimised case (still diverging).
    pub case: FuzzCase,
    /// The divergence the minimised case triggers.
    pub divergence: Divergence,
    /// Harness executions spent shrinking.
    pub executions: usize,
    /// Shrink candidates whose run panicked.
    pub panics: Panics,
}

/// Minimises `case` (known to diverge under `fault`) by `ddmin` over
/// its script, with at most `max_executions` runs of the harness.  The
/// returned case always still diverges; if the budget runs out the
/// partially shrunk case is returned.
pub fn shrink_case(case: &FuzzCase, fault: Fault, max_executions: usize) -> ShrinkOutcome {
    let divergence = run_case(case, fault).expect_err("shrink_case requires a case that diverges");
    let budget = max_executions.saturating_sub(1);
    let (script, divergence, runs, panics) =
        ddmin(case.script.clone(), divergence, budget, |script| {
            let script = script.to_vec();
            run_case(&FuzzCase { script, ..*case }, fault).err()
        });
    ShrinkOutcome {
        case: FuzzCase { script, ..*case },
        divergence,
        executions: 1 + runs,
        panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate_case, FuzzSpec};

    /// The acceptance self-test: a wrong hop planted in the cluster's
    /// results is caught by the differential checker and shrunk to a
    /// reproducer of at most 20 ops.
    #[test]
    fn planted_cluster_fault_shrinks_to_a_tiny_reproducer() {
        let case = generate_case(&FuzzSpec {
            warmup: 16,
            ops: 160,
            ..FuzzSpec::smoke(2027)
        });
        let outcome = shrink_case(&case, Fault::ClusterRouteExtraHop, 2_000);
        assert!(
            outcome.case.script.len() <= 20,
            "shrunk script still has {} ops: {:?}",
            outcome.case.script.len(),
            outcome.case.script
        );
        assert!(outcome.case.script.len() >= 2, "needs at least two objects");
        // The minimised case still reproduces the same class of bug.
        let d = run_case(&outcome.case, Fault::ClusterRouteExtraHop)
            .expect_err("minimised case must still diverge");
        assert_eq!(d.kind, "result:cluster", "{d}");
        // … and is clean without the fault.
        run_case(&outcome.case, Fault::None)
            .unwrap_or_else(|d| panic!("fault-free replay must be clean, got {d}"));
    }

    /// The shared ddmin finds the two steps a failure needs, and a budget
    /// that runs out still leaves a failing list.
    #[test]
    fn ddmin_shrinks_to_the_failing_pair() {
        let fails = |v: &[u32]| (v.contains(&3) && v.contains(&7)).then_some(());
        let steps: Vec<u32> = (0..40).collect();
        let (shrunk, (), runs, panics) = ddmin(steps.clone(), (), 1_000, fails);
        assert_eq!(shrunk, [3, 7]);
        assert!(runs < 1_000, "{runs} runs");
        assert_eq!(panics, Panics::default());

        let (partial, (), runs, _) = ddmin(steps, (), 3, fails);
        assert_eq!(runs, 3);
        assert!(partial.len() > 2, "{partial:?}");
        assert!(fails(&partial).is_some(), "{partial:?}");
    }

    /// A candidate that panics (a removal that leaves the code under test
    /// in a state it never meant to reach) counts as not reproducing: the
    /// shrink finishes, and its result still fails without panicking.
    #[test]
    fn ddmin_survives_panicking_candidates() {
        let fails = |v: &[u32]| {
            assert!(!v.contains(&3) || v.contains(&5), "3 without 5");
            (v.contains(&3) && v.contains(&7)).then_some(())
        };
        let (shrunk, (), _, panics) = ddmin((0..40).collect(), (), 1_000, fails);
        assert_eq!(shrunk, [3, 5, 7]);
        assert!(panics.count > 0);
        assert_eq!(panics.first.as_deref(), Some("3 without 5"));
    }
}
