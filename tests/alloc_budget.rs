//! Allocation budgets for a cell and for a model-checker execution, gated on
//! counts, not time: how often a run asks the allocator for memory is exact
//! and repeats on any host, so a shared runner can hold it where it cannot
//! hold a timing. What the cell budget guards: the event queue moves 32-byte
//! entries and keeps payloads in a slab, the golden image is held once, and
//! the bulk accessors reuse one buffer, and a write-notice set is gathered
//! into one buffer of its exact size — an allocation per event, per access
//! or per node copy coming back shows up here as a count over budget. What
//! the execution budget guards: a world holds per-block tables only for the
//! protocols it runs, a commit point gathers its tie into one reused buffer
//! and offers it as a view, a replayed commit point builds no sleep set, a
//! fresh one keeps its events in the driver's arena with their footprints
//! inline, the queue recycles bucket allocations, and a layout clone is a
//! reference count.
//! What the hook budgets guard: the requests the checker and the reliable
//! fabric *add* to a cell — the same cell with the hook on minus with it
//! off, so world construction cancels — stay what the hooks need to keep
//! (an interval's notices, a frame awaiting its ack), not what they format,
//! collect, sort or clone on the way.
//!
//! Its own test binary, so the counting `#[global_allocator]` touches no
//! other test; the count is per thread, so each `#[test]` reads its own and
//! the harness's threads stay out of the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use dsm::apps::registry::{app_sized, AppSize};
use dsm::apps::KvZipf;
use dsm::mc::program::{lock_counter, lock_pingpong};
use dsm::mc::{explore, McConfig};
use dsm::{run_parallel, run_sequential, FabricConfig, Protocol, RunConfig};

thread_local! {
    /// Requests for memory (`alloc`, `alloc_zeroed`, `realloc`) this thread
    /// has made.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note() {
        REQUESTS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialized
// thread-local without a destructor, so it neither allocates nor touches
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its result with the number of allocator requests it
/// made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTS.with(Cell::get);
    let out = f();
    (out, REQUESTS.with(Cell::get) - before)
}

#[test]
fn a_cell_stays_inside_its_allocation_budget() {
    // One bulk-access program under diffs, one 8-byte-accessor program, and
    // the message-heavy one — at Standard size: building a world asks for
    // the same few thousand allocations at any size, and a Small lu run
    // commits too few events (3 708) for a per-event budget to mean much.
    // The message-heavy one runs twice: under SC, which sends no write
    // notices, and under HLRC, whose every lock grant and barrier release
    // gathers them into one exactly sized buffer: 0.534 per event, where
    // growing an interval list and then a notice list per grant read 0.594.
    let cells = [
        ("lu", Protocol::Hlrc, 4096, 0.4),
        ("ocean-rowwise", Protocol::SwLrc, 4096, 0.4),
        ("kv-zipf", Protocol::Sc, 1024, 0.4),
        ("kv-zipf", Protocol::Hlrc, 1024, 0.54),
    ];
    for (app, protocol, block, budget) in cells {
        let program = app_sized(app, AppSize::Standard).expect("a registered application");
        let (_, seq) = counted(|| run_sequential(program.as_ref()));
        let (out, par) = counted(|| run_parallel(&RunConfig::new(protocol, block), program));
        let per_event = par as f64 / out.stats.sim_events as f64;
        println!(
            "{app}/{protocol:?}@{block}: sequential {seq} requests, parallel {par} over {} events = {per_event:.3} per event",
            out.stats.sim_events
        );
        assert!(
            seq <= 64,
            "{app}: the sequential baseline asked the allocator {seq} times (budget 64)"
        );
        assert!(
            per_event <= budget,
            "{app}/{protocol:?}@{block}: {per_event:.3} allocator requests per committed event (budget {budget})"
        );
    }
}

#[test]
fn an_execution_stays_inside_its_allocation_budget() {
    // Requests per execution, world construction and all, in a release
    // build. Before the shells, the reused tie buffer and the frontier sleep
    // set these read 328.9 and 835.2; before inline footprints, frames kept
    // in one arena, recycled queue buckets and shared layouts, 166.2 and
    // 329.5; now 91.4 and 215.9. A debug build re-derives every cached
    // fingerprint from scratch, which allocates: 196.9 and 377.5 then, 122.0
    // and 263.9 now. The budgets are the build's counts plus about 10 %. The
    // execution counts are pinned so the denominator cannot drift.
    let explorations = [
        (lock_pingpong(2), Protocol::Sc, 2, 1_381, (101.0, 135.0)),
        (
            lock_counter(3, 2),
            Protocol::SwLrc,
            1,
            1_680,
            (238.0, 290.0),
        ),
    ];
    for (program, protocol, faults, executions, (release, debug)) in explorations {
        let budget = if cfg!(debug_assertions) {
            debug
        } else {
            release
        };
        let cfg = McConfig::new(protocol).with_faults(faults);
        let (report, requests) = counted(|| explore(&cfg, &program));
        assert_eq!(report.executions(), executions, "{}", program.name);
        let per_execution = requests as f64 / executions as f64;
        println!(
            "{}/{protocol:?}/faults {faults}: {requests} requests over {executions} executions = {per_execution:.1} per execution",
            program.name
        );
        assert!(
            per_execution <= budget,
            "{}/{protocol:?}: {per_execution:.1} allocator requests per execution (budget {budget})",
            program.name
        );
    }
}

#[test]
fn the_hooks_stay_inside_their_added_allocation_budgets() {
    // The first repetitions of `scenarios/kv-hot-migration.json` and
    // `scenarios/tardis-lease-churn.json`: kv-zipf Small on 16 nodes.
    let run = |program: KvZipf, cfg: RunConfig| {
        let (out, requests) = counted(|| run_parallel(&cfg.with_nodes(16), Arc::new(program)));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        (out.stats.sim_events, requests)
    };
    // Checker-added, HLRC@1024. Before the in-order grant check, the sync
    // context kept as data and the in-place lock clocks: 28 811; now 4 867.
    let hot = || KvZipf::new(1000, 256, 4_000, 4, 99, 60);
    let hlrc = || RunConfig::new(Protocol::Hlrc, 1024);
    let (events, unchecked) = run(hot(), hlrc());
    let (checked_events, checked) = run(hot(), hlrc().with_check());
    assert_eq!((events, checked_events), (41_871, 41_871));
    let added = checked - unchecked;
    println!("kv-zipf/Hlrc@1024 checked: {checked} requests - {unchecked} unchecked = {added} added over {events} events");
    assert!(
        added <= 7_500,
        "the checker added {added} allocator requests (budget 7 500)"
    );
    // Fabric-added, Tardis@1024 under the plan's fault schedule. Before the
    // outcome lists became handed-back buffers: 44 041, 2.2 per message;
    // now 347.
    let churn = || KvZipf::new(11, 256, 3_000, 3, 99, 70);
    let tardis = || RunConfig::new(Protocol::Tardis, 1024);
    let faulty = FabricConfig::parse("faulty,seed=42,drop=10000,reorder=20000").unwrap();
    let (ideal_events, ideal) = run(churn(), tardis());
    let (faulty_events, lossy) = run(churn(), tardis().with_fabric(faulty));
    assert_eq!((ideal_events, faulty_events), (41_959, 109_901));
    let added = lossy - ideal;
    println!("kv-zipf/Tardis@1024 faulty: {lossy} requests - {ideal} ideal = {added} added over {faulty_events} events");
    assert!(
        added <= 1_000,
        "the reliable fabric added {added} allocator requests (budget 1 000)"
    );
}
