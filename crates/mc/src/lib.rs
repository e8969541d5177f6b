//! `dsm-mc`: exhaustive schedule-space model checking for the DSM
//! protocols.
//!
//! The simulation engine is deterministic, so the only sources of
//! nondeterminism in a run are (a) which of several events tied at the same
//! virtual time commits first and (b) what the fabric does to each
//! transmitted frame. This crate turns both into explicit search: a
//! controlled scheduler ([`dsm_sim::McHook`]) makes every commit-point tie
//! a branch, and a fault oracle ([`dsm_fabric::FaultOracle`]) makes every
//! transmission a clean/drop/duplicate/reorder branch bounded by a fault
//! budget. Depth-first replay-based search with sleep-set DPOR and
//! state-fingerprint dedup then explores *every* inequivalent schedule of a
//! bounded configuration (2–4 nodes, 1–2 coherence blocks, short
//! data-race-free programs) — for SC, SW-LRC, HLRC and Tardis alike.
//!
//! An execution is an ordinary parallel run with the hook installed
//! ([`dsm_core::run_parallel_mc`]): the micro-program's nodes are the
//! `async` bodies of a [`program::MicroRunner`] — a `DsmProgram` like any
//! application — on the engine's event loop ([`dsm_sim::run_nodes`]), where
//! the hook sits. Nothing is spawned, locked or unwound beneath
//! [`explore`]: a pruned schedule is `Err(RunError::Pruned)` and a
//! deadlocked one is `Err(RunError::Deadlock { .. })`, both plain values
//! the driver matches on, and no panic hook is installed.
//!
//! Each completed schedule is validated three ways:
//!
//! 1. the checker's mirror invariants + happens-before race detector
//!    (`dsm_proto::check`), installed through the ordinary run harness;
//! 2. literal consistency-model oracles re-deriving legal read values from
//!    the trace alone ([`oracle::witness_check`] for SC/Tardis,
//!    [`oracle::hb_check`] for the LRC protocols);
//! 3. deadlock (engine queue empty with unfinished nodes) and livelock
//!    (commit-point bound) detection.
//!
//! Entry point: [`explore`] over a [`program::MicroProgram`]. See
//! `DESIGN.md` § Model checking for the branch-point and soundness
//! discussion, and `tests/mc_*.rs` at the workspace root for the
//! schedule-count golden test and the exhaustive mutation kill matrix.

#![warn(missing_docs)]

pub mod oracle;
pub mod program;

mod driver;

pub use driver::{explore, McConfig, McReport, RULE_DEADLOCK, RULE_LIVELOCK};
