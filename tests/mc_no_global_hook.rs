//! `explore` leaves the process's panic hook alone.
//!
//! The first model-checking path pruned schedules by unwinding, and kept
//! the noise down with a process-global hook that swallowed every panic
//! whose message began `simulation deadlock`, `simulation aborted` or
//! `simulation poisoned` — installed once, for the life of the process, so
//! after one exploration a *genuine* deadlock in an ordinary run in the
//! same process died without a message. On the event loop a prune and a
//! deadlock are values, and `explore` installs nothing. This file is its
//! own test binary (its own process) with a single test, because the panic
//! hook is process-global state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dsm::mc::{explore, program, McConfig};
use dsm::{run_parallel, Dsm, DsmProgram, MemImage, NodeFuture, Protocol, RunConfig};

/// Node 1 waits at a barrier node 0 never reaches.
struct LonelyBarrier;
impl DsmProgram for LonelyBarrier {
    fn name(&self) -> String {
        "lonely-barrier".into()
    }
    fn shared_bytes(&self) -> usize {
        4096
    }
    fn init(&self, _mem: &mut MemImage) {}
    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            if d.node() == 1 {
                d.barrier(7).await;
            }
        })
    }
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

    // A node that waits with nobody to release it: `run_parallel` reports
    // the deadlock as a panic, and the hook installed above must see it.
    let cfg = RunConfig::new(Protocol::Sc, 256).with_nodes(2);
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_parallel(&cfg, Arc::new(LonelyBarrier))
    }));
    let payload = r.expect_err("a deadlocked run panics");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert!(msg.starts_with("simulation deadlock"), "{msg}");
    assert_eq!(seen.load(Ordering::Relaxed), 1, "the hook saw the deadlock");
}
