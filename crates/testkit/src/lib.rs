//! # voronet-testkit
//!
//! The differential oracle testkit: model-based fuzzing of every VoroNet
//! execution engine, with shrinking, replayable reproducers.
//!
//! The workspace carries three executions of the same protocol
//! semantics — the live [`VoroNet`](voronet_core::VoroNet) walk over its
//! routing rows, the [`FrozenView`](voronet_core::FrozenView) snapshot
//! with independently derived rows, and the message-level
//! [`InlineCluster`](voronet_net::InlineCluster), whose hosts route over
//! the views the driver ships them.  This crate pins them to each other
//! and to a naive O(n²) reference model:
//!
//! * [`oracle`] — the brute-force [`oracle::OracleModel`]
//!   that predicts every op result from first principles;
//! * [`grammar`] — seeded generation of [`grammar::FuzzCase`]s
//!   from a weighted op grammar (built on
//!   [`OpMix`](voronet_workloads::OpMix));
//! * [`harness`] — [`harness::run_case`], the differential executor over
//!   sync, cluster and frozen on an ideal network;
//! * [`frozen`] — the frozen-snapshot execution plus deliberate
//!   [`frozen::Fault`] injection for self-testing the checker;
//! * [`shrink`] — the ddmin both fuzzers shrink through, and script
//!   minimisation of diverging cases;
//! * [`repro`] — `.ron`-style reproducer files under
//!   `tests/reproducers/`, written on divergence and replayed by CI;
//! * [`prop`] — the seeded property-check harness (with input
//!   shrinking) behind the workspace's property tests;
//! * [`codec`] — property fuzzing of the `voronet-net` wire codec
//!   (round-trip canonicality, truncation/corruption totality), run by
//!   the fuzz binary's `--codec` pass;
//! * [`chaos`] — seeded crash/partition fuzzing of the fault-tolerant
//!   cluster, the one place a cluster meets loss, partitions and crashes:
//!   replayable timelines of workload ops and fault events,
//!   a no-acked-write-lost/no-livelock oracle, ddmin shrinking and
//!   `.ron` reproducers under `tests/chaos/`, run by the fuzz binary's
//!   `--chaos` pass.
//!
//! The `fuzz` binary (`cargo run -p voronet-testkit --bin fuzz`) drives
//! all of it from the command line; `VORONET_SMOKE=1` selects the
//! CI-sized budget.

#![warn(missing_docs)]

pub mod chaos;
pub mod codec;
pub mod frozen;
pub mod grammar;
pub mod harness;
pub mod oracle;
pub mod prop;
pub mod repro;
pub mod shrink;

pub use chaos::{
    generate_chaos, parse_chaos_case, read_chaos_reproducer, run_chaos, shrink_chaos,
    write_chaos_reproducer, ChaosCase, ChaosFailure, ChaosReport, ChaosSpec, ChaosStep,
};
pub use codec::{
    check_corruption, check_roundtrip, check_truncations, random_frame, run_codec_pass,
};
pub use frozen::{Fault, FrozenReplay};
pub use grammar::{generate_case, FuzzCase, FuzzSpec};
pub use harness::{resolve_op, run_case, Divergence, RunReport};
pub use oracle::OracleModel;
pub use prop::{check_cases, ShrinkInput};
pub use repro::{
    encode_case, list_reproducers, parse_case, read_reproducer, write_reproducer, ReproError,
};
pub use shrink::{shrink_case, ShrinkOutcome};
