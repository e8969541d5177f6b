#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for the DSM reproduction.
//!
//! Events are ordered by `(virtual time, sequence number)`, where the
//! sequence number is assigned at enqueue time, so a given program produces
//! exactly the same event order — and therefore the same statistics — on
//! every run. Messages posted with [`Sched::post`] are delivered by calling
//! [`World::deliver`] at their arrival time.
//!
//! There is one event loop, [`run_tasks`], and it runs on the caller's
//! thread: no threads, no locks, no unwinding. A node program takes one of
//! two shapes ([`Node`]; see [`engine`] for which to use when):
//!
//! * **`async` code** ([`NodeFuture`]) against a [`NodeHandle`]:
//!   [`NodeHandle::advance`] moves the node's virtual clock forward
//!   (modeling computation) and [`NodeHandle::block`] parks it until some
//!   message handler wakes it — the only two places a body suspends —
//!   while [`NodeHandle::world`] lends the shared protocol state plus a
//!   [`Sched`] handle to a closure, so the borrow can never span an
//!   `.await`. The twelve paper applications, the scenario applications
//!   and everything else behind `dsm_core::run_parallel` run this way.
//! * **Poll-shaped tasks** ([`NodeTask`]): hand-written state machines
//!   that are lent the world on every resume and return a [`Step`]
//!   (`Advance(dt)`, `Block` or `Done`). `dsm-mc`'s micro-programs run
//!   this way.
//!
//! Both shapes express a yield through the same scheduler transitions, so
//! the same program produces the same world, final time and event count in
//! either. An abandoned or deadlocked run is a [`RunError`] value; a panic
//! in a node program unwinds to the caller of [`run_tasks`]. The model
//! checker's hook ([`McHook`]) sits on the loop and controls every commit
//! point. Parallelism lives one level up: independent runs (sweep cells,
//! scenario repetitions) fan out over worker pools.

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{
    run_tasks, McChoice, McEvent, McHook, McInstall, Node, NodeFuture, NodeHandle, NodeStatus,
    NodeTask, RunError, Sched, Step, World,
};
pub use time::{Time, MICROS, MILLIS, SECS};

/// Index of a simulated cluster node, `0..nodes`.
pub type NodeId = usize;
