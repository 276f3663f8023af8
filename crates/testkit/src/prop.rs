//! Seeded property checking with input shrinking — the light-weight
//! harness behind the workspace's hand-rolled property tests.
//!
//! [`check_cases`] replaces the bare `for case in 0..N { … }` loops: it
//! derives one RNG per case from a base seed, runs the property (a
//! closure returning `Err(diagnostic)` on failure — see
//! [`tk_ensure!`](crate::tk_ensure)),
//! and on failure shrinks the generated input (lists through the
//! testkit's one ddmin, the fuzzers' shrinker) before panicking with the
//! **seed, case number, shrunk input and diagnostic** — so every failure
//! is reproducible and minimal by construction.

use crate::shrink::{catch_panic, ddmin};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Inputs the harness knows how to shrink.
pub trait ShrinkInput: Clone {
    /// Shrinks `self`, known to fail with `failure`, with at most
    /// `budget` runs of `fails` (which reports a still-failing
    /// candidate's diagnostic).  Returns the smallest input found that
    /// still fails, its diagnostic and the runs spent.
    fn shrink(
        self,
        failure: String,
        budget: usize,
        fails: impl FnMut(&Self) -> Option<String>,
    ) -> (Self, String, usize);
}

/// Lists shrink by chunk removal: halves, then quarters, down to single
/// elements.
impl<T: Clone> ShrinkInput for Vec<T> {
    fn shrink(
        self,
        failure: String,
        budget: usize,
        mut fails: impl FnMut(&Self) -> Option<String>,
    ) -> (Self, String, usize) {
        let (list, failure, runs, _) = ddmin(self, failure, budget, |v| fails(&v.to_vec()));
        (list, failure, runs)
    }
}

/// Pairs shrink their first component and carry the second along (e.g. a
/// point set plus a fixed query point).
impl<A: ShrinkInput, B: Clone> ShrinkInput for (A, B) {
    fn shrink(
        self,
        failure: String,
        budget: usize,
        mut fails: impl FnMut(&Self) -> Option<String>,
    ) -> (Self, String, usize) {
        let (a, b) = self;
        let (a, failure, runs) = a.shrink(failure, budget, |a| fails(&(a.clone(), b.clone())));
        ((a, b), failure, runs)
    }
}

/// Triples shrink their first component like pairs do (a seed or a work
/// list plus two fixed parameters).
impl<A: ShrinkInput, B: Clone, C: Clone> ShrinkInput for (A, B, C) {
    fn shrink(
        self,
        failure: String,
        budget: usize,
        mut fails: impl FnMut(&Self) -> Option<String>,
    ) -> (Self, String, usize) {
        let (a, b, c) = self;
        let (a, failure, runs) = a.shrink(failure, budget, |a| {
            fails(&(a.clone(), b.clone(), c.clone()))
        });
        ((a, b, c), failure, runs)
    }
}

/// Scalars are atomic: a seed or a size parameter has no meaningful
/// reduced form — "shrinking" it would swap in an unrelated case rather
/// than minimise the witness — so properties over them report the
/// failing value as-is.
macro_rules! atomic_shrink_input {
    ($($t:ty),* $(,)?) => {
        $(impl ShrinkInput for $t {
            fn shrink(
                self,
                failure: String,
                _budget: usize,
                _fails: impl FnMut(&Self) -> Option<String>,
            ) -> (Self, String, usize) {
                (self, failure, 0)
            }
        })*
    };
}
atomic_shrink_input!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

/// Runs the property once, converting a panic inside it into an ordinary
/// failure diagnostic — so `.unwrap()`s and `assert!`s in property code
/// still get seed/case context attached and still shrink, instead of
/// unwinding straight past the harness.
fn run_property<T>(test: &impl Fn(&T) -> Result<(), String>, input: &T) -> Result<(), String> {
    catch_panic(|| test(input))
        .unwrap_or_else(|message| Err(format!("property panicked: {message}")))
}

/// Runs `cases` seeded cases of a property.  Each case derives its RNG
/// from `base_seed + case`; on failure — a returned `Err` *or* a panic
/// inside the property — the input is shrunk (up to 512 property
/// re-runs) and the final panic message carries the seed, the case
/// number, the shrunk input and the diagnostic.
pub fn check_cases<T, G, F>(name: &str, cases: u64, base_seed: u64, mut generate: G, test: F)
where
    T: ShrinkInput + std::fmt::Debug,
    G: FnMut(&mut StdRng) -> T,
    F: Fn(&T) -> Result<(), String>,
{
    for case in 0..cases {
        let seed = base_seed.wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = generate(&mut rng);
        if let Err(message) = run_property(&test, &input) {
            let (min_input, min_message, steps) = input.shrink(message, 512, |candidate| {
                run_property(&test, candidate).err()
            });
            panic!(
                "property `{name}` failed at seed {seed} (case {case} of {cases}, base seed \
                 {base_seed}):\n  {min_message}\n  shrunk input after {steps} shrink runs: \
                 {min_input:?}\n  replay: StdRng::seed_from_u64({seed})"
            );
        }
    }
}

/// `tk_ensure!(cond, "format", args…)` — the property-test analogue of
/// `assert!`: returns `Err(formatted)` from the enclosing
/// `Result<(), String>` closure instead of panicking, so
/// [`check_cases`] can shrink the input before reporting.
#[macro_export]
macro_rules! tk_ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

/// `tk_ensure_eq!(a, b, "context", args…)` — equality form of
/// [`tk_ensure!`](crate::tk_ensure), printing both sides on failure.
#[macro_export]
macro_rules! tk_ensure_eq {
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}: left {:?} != right {:?}",
                format!($($arg)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_properties_run_all_cases() {
        let ran = std::cell::Cell::new(0u64);
        check_cases(
            "always-passes",
            16,
            7,
            |rng| {
                use rand::RngExt;
                (0..rng.random_range(1..10usize))
                    .map(|_| rng.random::<u32>())
                    .collect::<Vec<u32>>()
            },
            |_| {
                ran.set(ran.get() + 1);
                Ok(())
            },
        );
        assert_eq!(ran.get(), 16);
    }

    #[test]
    fn failures_shrink_to_the_minimal_witness() {
        // Property: "no vector contains a multiple of 97".  The witness
        // must shrink to exactly one offending element.
        let result = std::panic::catch_unwind(|| {
            check_cases(
                "no-multiples-of-97",
                64,
                1,
                |rng| {
                    use rand::RngExt;
                    (0..rng.random_range(5..40usize))
                        .map(|_| rng.random_range(0..500u32))
                        .collect::<Vec<u32>>()
                },
                |xs| {
                    if let Some(x) = xs.iter().find(|&&x| x % 97 == 0) {
                        return Err(format!("found {x}"));
                    }
                    Ok(())
                },
            )
        });
        let message = match result {
            Ok(()) => panic!("a multiple of 97 must appear within 64 seeded cases"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic carries a String"),
        };
        assert!(message.contains("seed"), "{message}");
        assert!(message.contains("shrunk input"), "{message}");
        // The shrunk witness is a single-element vector.
        let witness = message
            .split("shrink runs: ")
            .nth(1)
            .and_then(|s| s.split('\n').next())
            .expect("message names the witness");
        let elements = witness.matches(',').count();
        assert_eq!(
            elements, 0,
            "witness should shrink to one element, got {witness}"
        );
    }

    #[test]
    fn panics_inside_the_property_still_get_seed_context_and_shrink() {
        let result = std::panic::catch_unwind(|| {
            check_cases(
                "no-multiples-of-101-via-panic",
                64,
                3,
                |rng| {
                    use rand::RngExt;
                    (0..rng.random_range(5..40usize))
                        .map(|_| rng.random_range(0..500u32))
                        .collect::<Vec<u32>>()
                },
                |xs| {
                    // A property written with a bare panic instead of Err.
                    if let Some(x) = xs.iter().find(|&&x| x % 101 == 0) {
                        panic!("found {x}");
                    }
                    Ok(())
                },
            )
        });
        let message = match result {
            Ok(()) => panic!("a multiple of 101 must appear within 64 seeded cases"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .expect("harness panic carries a String"),
        };
        assert!(message.contains("seed"), "{message}");
        assert!(message.contains("property panicked: found"), "{message}");
        assert!(message.contains("shrunk input"), "{message}");
    }

    #[test]
    fn lists_shrink_through_ddmin_and_tuples_carry_the_rest() {
        let fails = |(v, tag): &(Vec<u32>, char)| {
            assert_eq!(*tag, 'q', "the second component rides along");
            (v.contains(&3) && v.contains(&7)).then(|| "3 and 7".to_string())
        };
        let input = ((0..40).collect::<Vec<u32>>(), 'q');
        let ((shrunk, tag), message, runs) = input.shrink("3 and 7".into(), 512, fails);
        assert_eq!((shrunk, tag), (vec![3, 7], 'q'));
        assert_eq!(message, "3 and 7");
        assert!(runs > 0 && runs < 512, "{runs} runs");
        assert_eq!(
            7u64.shrink("seed".into(), 512, |_| None),
            (7, "seed".into(), 0)
        );
    }
}
