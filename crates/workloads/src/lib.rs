//! # voronet-workloads
//!
//! Workload generators for the VoroNet experiments: the object-placement
//! distributions of the paper's evaluation (uniform and power-law with
//! α ∈ {1, 2, 5}), stress distributions for robustness tests (clusters,
//! jittered grids, rings of co-circular points) and query generators
//! (random object pairs, range and radius queries).
//!
//! All generators are seeded and deterministic so every figure the
//! `figures` binary writes (and every reading `crates/README.md` records
//! from it) can be regenerated bit-for-bit.

#![warn(missing_docs)]

pub mod distribution;
pub mod ops;
pub mod queries;

pub use distribution::{Distribution, PointGenerator, ZipfSampler, ZIPF_VALUES};
pub use ops::{OpBatchGenerator, OpMix, WorkloadOp};
pub use queries::{QueryGenerator, RadiusQuery, RangeQuery};

/// Whether `VORONET_SMOKE` selects the CI-sized budget: set, non-empty and
/// not `"0"`.  The one parser of that variable — the benches, the fuzzer
/// and the multi-process tests all size themselves through it, so a value
/// like `true` cannot mean smoke to one of them and full size to another.
pub fn smoke_budget() -> bool {
    smoke_value(std::env::var_os("VORONET_SMOKE").as_deref())
}

fn smoke_value(value: Option<&std::ffi::OsStr>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::smoke_value;
    use std::ffi::OsStr;

    #[test]
    fn smoke_budget_is_set_non_empty_and_not_zero() {
        assert!(!smoke_value(None));
        assert!(!smoke_value(Some(OsStr::new(""))));
        assert!(!smoke_value(Some(OsStr::new("0"))));
        assert!(smoke_value(Some(OsStr::new("1"))));
        assert!(smoke_value(Some(OsStr::new("true"))));
    }
}
