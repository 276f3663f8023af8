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
//! divergence it still triggers.

use crate::frozen::Fault;
use crate::grammar::FuzzCase;
use crate::harness::{run_case, Divergence};

/// Classic ddmin over a step list.  Sweeps windows from half the list
/// down to single steps, keeping every removal after which `fails` still
/// reports a failure, until a whole sweep removes nothing (the list is
/// 1-minimal with respect to chunk removal) or `fails` has run `budget`
/// times.  Returns the shrunk list, which always still fails, the
/// failure its last failing run reported (`failure`, the caller's own,
/// if none did) and the number of runs spent.
pub(crate) fn ddmin<T: Clone, E>(
    mut steps: Vec<T>,
    mut failure: E,
    budget: usize,
    mut fails: impl FnMut(&[T]) -> Option<E>,
) -> (Vec<T>, E, usize) {
    let mut runs = 0;
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
                match fails(&candidate) {
                    Some(f) => {
                        // The removal preserved a failure: keep it and
                        // stay at the same position (the next window slid
                        // into it).
                        steps = candidate;
                        failure = f;
                    }
                    None => start = end,
                }
            }
            if window == 1 || runs >= budget {
                break;
            }
            window /= 2;
        }
        if runs >= budget || steps.len() == before {
            return (steps, failure, runs);
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
}

/// Minimises `case` (known to diverge under `fault`) by `ddmin` over
/// its script, with at most `max_executions` runs of the harness.  The
/// returned case always still diverges; if the budget runs out the
/// partially shrunk case is returned.
pub fn shrink_case(case: &FuzzCase, fault: Fault, max_executions: usize) -> ShrinkOutcome {
    let divergence = run_case(case, fault).expect_err("shrink_case requires a case that diverges");
    let budget = max_executions.saturating_sub(1);
    let (script, divergence, runs) = ddmin(case.script.clone(), divergence, budget, |script| {
        let script = script.to_vec();
        run_case(&FuzzCase { script, ..*case }, fault).err()
    });
    ShrinkOutcome {
        case: FuzzCase { script, ..*case },
        divergence,
        executions: 1 + runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate_case, FuzzSpec};

    /// The acceptance self-test: a wrong hop planted in the frozen
    /// execution is caught by the differential checker and shrunk to a
    /// reproducer of at most 20 ops.
    #[test]
    fn planted_frozen_fault_shrinks_to_a_tiny_reproducer() {
        let case = generate_case(&FuzzSpec {
            warmup: 16,
            ops: 160,
            ..FuzzSpec::smoke(2027)
        });
        let outcome = shrink_case(&case, Fault::FrozenRouteExtraHop, 2_000);
        assert!(
            outcome.case.script.len() <= 20,
            "shrunk script still has {} ops: {:?}",
            outcome.case.script.len(),
            outcome.case.script
        );
        assert!(outcome.case.script.len() >= 2, "needs at least two objects");
        // The minimised case still reproduces the same class of bug.
        let d = run_case(&outcome.case, Fault::FrozenRouteExtraHop)
            .expect_err("minimised case must still diverge");
        assert_eq!(d.kind, "result:frozen", "{d}");
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
        let (shrunk, (), runs) = ddmin(steps.clone(), (), 1_000, fails);
        assert_eq!(shrunk, [3, 7]);
        assert!(runs < 1_000, "{runs} runs");

        let (partial, (), runs) = ddmin(steps, (), 3, fails);
        assert_eq!(runs, 3);
        assert!(partial.len() > 2, "{partial:?}");
        assert!(fails(&partial).is_some(), "{partial:?}");
    }
}
