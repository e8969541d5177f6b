//! `explore` leaves the process's panic hook alone.
//!
//! The threaded model-checking path pruned schedules by unwinding, and
//! kept the noise down with a process-global hook that swallowed every
//! panic whose message began `simulation deadlock`, `simulation aborted`
//! or `simulation poisoned` — installed once, for the life of the process,
//! so after one exploration a *genuine* deadlock in an ordinary threaded
//! run in the same process died without a message. Explorations now run on
//! the task loop, where a prune and a deadlock are values, and install
//! nothing. This file is its own test binary (its own process) with a
//! single test, because the panic hook is process-global state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dsm::mc::{explore, program, McConfig};
use dsm::sim::{run_cluster, NodeCtx, NodeId, Sched, World};
use dsm::Protocol;

struct Idle;
impl World for Idle {
    type Msg = ();
    fn deliver(&mut self, _sched: &mut Sched<()>, _to: NodeId, _msg: ()) {}
}

#[test]
fn a_genuine_deadlock_after_explore_still_reaches_the_panic_hook() {
    let seen = Arc::new(AtomicUsize::new(0));
    let sink = Arc::clone(&seen);
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map_or("", |s| s.as_str());
        if msg.starts_with("simulation deadlock") {
            sink.fetch_add(1, Ordering::Relaxed);
        }
    }));

    // An exploration that prunes (dedup and sleep sets) and completes.
    let report = explore(&McConfig::new(Protocol::Sc), &program::lock_counter(2, 1));
    assert!(report.complete && report.clean(), "{report:?}");
    assert!(
        report.executions() > report.schedules,
        "something was pruned"
    );
    assert_eq!(
        seen.load(Ordering::Relaxed),
        0,
        "explore itself panics nowhere"
    );

    // A node that blocks with nobody to wake it: the threaded engine's
    // deadlock is a panic, and the hook installed above must see it.
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_cluster(Idle, vec![Box::new(|ctx: &mut NodeCtx<Idle>| ctx.block())])
    }));
    let payload = r.err().expect("a deadlocked threaded run panics");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert!(msg.starts_with("simulation deadlock"), "{msg}");
    assert_eq!(seen.load(Ordering::Relaxed), 1, "the hook saw the deadlock");
}
