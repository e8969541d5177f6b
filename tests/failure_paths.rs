//! How a run that cannot finish fails, now that every node body runs on the
//! caller's thread: a deadlock is the event loop's own typed report turned
//! into one panic, and a panic in a program body is simply that panic —
//! there are no other threads to poison, abort or cascade through.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use dsm::apps::registry::AppSize;
use dsm::{run_checked, run_parallel, Dsm, DsmProgram, MemImage, NodeFuture, Protocol, RunConfig};

/// What a node body does besides counting: nothing, stop short of a
/// barrier, panic, or note which OS thread it is on.
enum Quirk {
    None,
    SkipsTheBarrier { node: usize },
    Panics { node: usize },
    RecordsItsThread(Mutex<Vec<ThreadId>>),
}

/// Every node bumps a lock-guarded counter, then all meet at a barrier.
struct Counter(Quirk);

impl DsmProgram for Counter {
    fn name(&self) -> String {
        "counter".into()
    }
    fn shared_bytes(&self) -> usize {
        4096
    }
    fn init(&self, _mem: &mut MemImage) {}
    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            d.lock(0).await;
            let v = d.read_u64(0).await;
            d.write_u64(0, v + 1).await;
            d.unlock(0).await;
            match &self.0 {
                Quirk::SkipsTheBarrier { node } if *node == d.node() => return,
                Quirk::Panics { node } if *node == d.node() => {
                    panic!("node {node} found the counter at {}", v + 1)
                }
                Quirk::RecordsItsThread(ids) => {
                    ids.lock().unwrap().push(std::thread::current().id())
                }
                _ => {}
            }
            d.barrier(0).await;
        })
    }
    fn check(&self, _seq: &MemImage, par: &MemImage) -> Result<(), String> {
        match par.read_u64(0) {
            4 => Ok(()),
            n => Err(format!("4 nodes counted to {n}")),
        }
    }
}

fn cfg() -> RunConfig {
    RunConfig::new(Protocol::Hlrc, 256).with_nodes(4)
}

/// The panic message `f` dies with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the run panics");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().expect("a message").to_string(),
    }
}

#[test]
fn a_lonely_barrier_is_reported_as_a_deadlock() {
    let msg = panic_message(|| {
        run_parallel(
            &cfg(),
            Arc::new(Counter(Quirk::SkipsTheBarrier { node: 2 })),
        );
    });
    assert_eq!(
        msg,
        "simulation deadlock: event queue empty, node states [Blocked, Blocked, Done, Blocked]"
    );
}

#[test]
fn a_body_panic_reaches_the_caller_as_raised_and_poisons_nothing() {
    let msg = panic_message(|| {
        run_parallel(&cfg(), Arc::new(Counter(Quirk::Panics { node: 3 })));
    });
    // The body's own words: no "simulation aborted" / "poisoned" cascade.
    assert!(
        msg.starts_with("node 3 found the counter at "),
        "unexpected panic message: {msg}"
    );
    // Nothing outlives a failed run: the next one in this process is clean.
    run_checked(&cfg(), Arc::new(Counter(Quirk::None)));
}

#[test]
fn every_node_body_runs_on_the_callers_thread() {
    let program = Arc::new(Counter(Quirk::RecordsItsThread(Mutex::new(Vec::new()))));
    run_checked(&cfg(), program.clone());
    let Quirk::RecordsItsThread(ids) = &program.0 else {
        unreachable!()
    };
    let ids = ids.lock().unwrap();
    // Four nodes in the parallel run, one in the sequential baseline.
    assert_eq!(ids.len(), 5);
    let me = std::thread::current().id();
    assert!(ids.iter().all(|&id| id == me), "{ids:?} vs caller {me:?}");
}

#[test]
fn a_cluster_larger_than_the_layout_holds_is_refused_by_name() {
    // Barnes keeps one allocation counter and one cell arena per processor
    // for 16 processors; a hand-built configuration that bypasses the run
    // line's check still stops before the run starts, naming both.
    let barnes = dsm::apps::registry::app_sized("barnes-original", AppSize::Small).unwrap();
    let msg = panic_message(|| {
        run_parallel(&cfg().with_nodes(32), barnes);
    });
    assert!(
        msg.contains("barnes-original") && msg.contains("16"),
        "unexpected panic message: {msg}"
    );
}
