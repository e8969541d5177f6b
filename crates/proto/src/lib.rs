#![warn(missing_docs)]

//! The paper's core contribution: three software coherence protocols —
//! sequential consistency (SC), single-writer lazy release consistency
//! (SW-LRC) and home-based lazy release consistency (HLRC) — plus the
//! timestamp-lease Tardis protocol as a fourth peer, running at a
//! configurable coherence granularity over the simulated cluster.
//!
//! The crate exposes:
//!
//! * [`ProtoWorld`] — all shared protocol state, pluggable into the
//!   simulation engine as its [`dsm_sim::World`];
//! * [`ops`] — node-side access-check and fault entry points;
//! * [`sync`] — protocol-aware locks and barriers;
//! * [`RunConfig`] — one run's configuration, from which
//!   [`ProtoWorld::new`] builds the world over a layout; [`Protocol`] and
//!   the per-region [`RegionPolicy`];
//! * [`check`] — the run-time checker ([`RunChecker`]: a happens-before
//!   race detector and protocol invariant mirrors, driven by typed hooks)
//!   and its [`Violation`] records;
//! * [`mutate`] — feature-gated protocol mutations for checker self-tests.

pub mod check;
pub mod config;
pub mod diff;
pub mod hlrc;
pub mod lrc;
pub mod msg;
pub mod mutate;
pub mod ops;
pub mod pool;
pub mod sc;
pub mod swlrc;
pub mod sync;
pub mod tardis;
pub mod vt;
pub mod world;

pub use check::{RunChecker, Violation};
pub use config::{Protocol, RegionPolicy, RunConfig};
pub use diff::Diff;
pub use msg::{Envelope, FaultKind, Notice, Packet, ProtoMsg};
pub use mutate::{MutFabric, MutRt, Mutation, MutationSpec, MUTATIONS};
pub use ops::Attempt;
pub use vt::VClock;
pub use world::{final_image, ProtoWorld};
