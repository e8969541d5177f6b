//! An allocation budget for a cell, gated on counts, not time: how often a
//! run asks the allocator for memory is exact and repeats on any host, so a
//! shared runner can hold it where it cannot hold a timing. What it guards:
//! the event queue moves 32-byte entries and keeps payloads in a slab, the
//! golden image is held once, and the bulk accessors reuse one buffer — an
//! allocation per event, per access or per node copy coming back shows up
//! here as a count over budget.
//!
//! Its own test binary, so the counting `#[global_allocator]` touches no
//! other test; one `#[test]`, and counting only on the thread that runs it,
//! so the harness's own threads stay out of the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dsm::apps::registry::{app_sized, AppSize};
use dsm::{run_parallel, run_sequential, Protocol, RunConfig};

/// Requests for memory (`alloc`, `alloc_zeroed`, `realloc`) made by a thread
/// that switched counting on.
static REQUESTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note() {
        if COUNTING.with(Cell::get) {
            REQUESTS.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic and
// the flag a `const`-initialized thread-local without a destructor, so
// neither allocates nor touches allocator state.
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
    let before = REQUESTS.load(Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, REQUESTS.load(Relaxed) - before)
}

#[test]
fn a_cell_stays_inside_its_allocation_budget() {
    // One bulk-access program under diffs, one 8-byte-accessor program, and
    // the message-heavy one — at Standard size: building a world asks for
    // the same few thousand allocations at any size, and a Small lu run
    // commits too few events (3 708) for a per-event budget to mean much.
    let cells = [
        ("lu", Protocol::Hlrc, 4096),
        ("ocean-rowwise", Protocol::SwLrc, 4096),
        ("kv-zipf", Protocol::Sc, 1024),
    ];
    for (app, protocol, block) in cells {
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
            per_event <= 0.4,
            "{app}/{protocol:?}@{block}: {per_event:.3} allocator requests per committed event (budget 0.4)"
        );
    }
}
