#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for the DSM reproduction.
//!
//! Events are ordered by `(virtual time, sequence number)`, where the
//! sequence number is assigned at enqueue time, so a given program produces
//! exactly the same event order — and therefore the same statistics — on
//! every run. Messages posted with [`Sched::post`] are delivered by calling
//! [`World::deliver`] at their arrival time.
//!
//! There is one event loop, [`run_nodes`], and it runs on the caller's
//! thread: no threads, no locks, no unwinding. A node program has one shape
//! ([`NodeFuture`]): `async` code against a [`NodeHandle`].
//! [`NodeHandle::advance`] moves the node's virtual clock forward (modeling
//! computation) and [`NodeHandle::block`] parks it until some message
//! handler wakes it — the only two places a body suspends — while
//! [`NodeHandle::world`] lends the shared protocol state plus a [`Sched`]
//! handle to a closure, so the borrow can never span an `.await`. The
//! twelve paper applications, the scenario applications and the model
//! checker's micro-programs all run this way, behind
//! `dsm_core::run_parallel` and `dsm_core::run_parallel_mc`.
//!
//! An abandoned or deadlocked run is a [`RunError`] value; a panic in a node
//! program unwinds to the caller of [`run_nodes`]. The model checker's hook
//! ([`McHook`]) sits on the loop and controls every commit point.
//! Parallelism lives one level up: independent runs (sweep cells, scenario
//! repetitions) fan out over worker pools.

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{
    run_nodes, McChoice, McChoices, McEvent, McHook, McInstall, NodeFuture, NodeHandle, NodeStatus,
    RunError, Sched, World,
};
pub use time::{Time, MICROS, MILLIS, SECS};

/// Index of a simulated cluster node, `0..nodes`.
pub type NodeId = usize;
