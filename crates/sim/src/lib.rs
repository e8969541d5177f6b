#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for the DSM reproduction.
//!
//! Events are ordered by `(virtual time, sequence number)`, where the
//! sequence number is assigned at enqueue time, so a given program produces
//! exactly the same event order — and therefore the same statistics — on
//! every run. Messages posted with [`Sched::post`] are delivered by calling
//! [`World::deliver`] at their arrival time. Node programs run on one of
//! two substrates over that one queue (see [`engine`]):
//!
//! * **Tasks** — [`run_tasks`] resumes poll-shaped [`NodeTask`]s in place
//!   on one loop: no threads, no locks, no unwinding. A task yields a
//!   [`Step`] (`Advance(dt)`, `Block` or `Done`); an abandoned or
//!   deadlocked run is a [`RunError`] value. The model checker's hook
//!   ([`McHook`]) sits on this loop and nowhere else. `dsm-mc`'s
//!   micro-programs run here.
//! * **Threads** — [`run_cluster`] runs one OS thread per simulated node,
//!   each an ordinary closure against a [`NodeCtx`], for programs written
//!   as plain blocking code: the twelve paper applications, the scenario
//!   applications and everything else behind `dsm_core::run_parallel`. By
//!   default execution is fully serialized: exactly one logical entity (a
//!   node thread or an in-flight message handler) runs at any instant,
//!   under a single global lock, and handlers run inline on whichever
//!   thread is currently driving the event loop. With
//!   [`engine::SimPar::windowed`] (or `DSM_SIM_PAR > 1` at the runner
//!   level) a committer thread still executes every event in exact global
//!   order (keeping results bit-identical to serial), while node threads
//!   overlap their thread-local leading compute within a lookahead window
//!   derived from the minimum inter-node network latency. See `DESIGN.md`.
//!
//! Both substrates express a yield through the same scheduler transitions,
//! so the same program produces the same world, final time and event count
//! on either. Node threads interact with the engine through [`NodeCtx`]:
//!
//! * [`NodeCtx::advance`] moves the node's virtual clock forward (modeling
//!   computation), processing any intervening events;
//! * [`NodeCtx::block`] parks the node until some message handler wakes it;
//! * [`NodeCtx::world`] gives exclusive access to the shared protocol state
//!   plus a [`Sched`] handle for posting messages and waking nodes.

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{
    run_cluster, run_cluster_counted, run_cluster_with, run_tasks, McChoice, McEvent, McHook,
    McInstall, NodeCtx, NodeStatus, NodeTask, RunError, Sched, SimPar, Step, World,
};
pub use time::{Time, MICROS, MILLIS, SECS};

/// Index of a simulated cluster node, `0..nodes`.
pub type NodeId = usize;
