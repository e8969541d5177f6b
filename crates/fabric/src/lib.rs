//! Simulated network fabric for the DSM cluster.
//!
//! The analytic latency table in `dsm-net` charges every message an
//! isolated, load-independent one-way time. This crate layers a transport
//! under it:
//!
//! * **NI occupancy** — each node's network interface serializes outgoing
//!   and incoming frames (fixed per-message overhead plus a per-byte
//!   copy), so bursts queue and the queuing delay is charged to the run.
//! * **Fault injection** — a seeded, deterministic injector drops,
//!   duplicates, reorders (bounded jitter), or delay-spikes individual
//!   frames. Rolls are a stateless hash of `(seed, src, dst, seq,
//!   attempt)`, so outcomes are independent of host scheduling and
//!   reproducible across runs.
//! * **Reliability** — when faults are enabled, every frame carries a
//!   per-channel sequence number; receivers dedup and reassemble in
//!   order, ack every frame, and senders retransmit on ack timeout with
//!   exponential backoff. After the retry budget is exhausted the final
//!   attempt bypasses the injector (the model's stand-in for escalating
//!   to a reliable slow path), so delivery — and the application's final
//!   memory image — is guaranteed for any fault schedule.
//!
//! The crate is policy-only: [`Fabric`] turns sends, frame arrivals, acks
//! and timer pops into lists of schedule actions; the protocol world maps
//! those onto simulator events and statistics counters. [`FabricConfig::
//! ideal()`] (the default) disables everything and the caller keeps its
//! original one-shot send path, bit-for-bit.

mod config;
mod state;

pub use config::{FabricConfig, FaultPlan, NiModel, RetryPolicy};
pub use state::{Fabric, FaultDecision, FaultOracle, RxOutcome, TxAction, TxOutcome};
