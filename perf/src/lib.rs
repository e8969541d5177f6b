#![warn(missing_docs)]

//! `dsm-perf`: the repository's benchmark.
//!
//! Four pinned workloads, end-to-end metrics measured untraced, and
//! per-layer attribution measured from outside — by timing calls into the
//! simulator's public functions. See `perf/README.md` for the catalogue.

pub mod catalogue;
pub mod golden;
pub mod host;
pub mod probes;
pub mod span;
pub mod stats;
pub mod workloads;
