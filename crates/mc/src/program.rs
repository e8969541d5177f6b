//! Micro-program DSL for bounded model checking.
//!
//! Model-checked configurations are deliberately tiny — 2–4 nodes, one or
//! two coherence blocks, a handful of operations per thread — because the
//! schedule space grows exponentially in the number of co-enabled events.
//! A [`MicroProgram`] describes such a configuration declaratively, and
//! [`MicroRunner`] executes it — an ordinary `async` [`DsmProgram`] body, as
//! every application is — recording the value-carrying trace the legality
//! oracles in [`crate::oracle`] consume.

use std::sync::Mutex;

use dsm_core::{Dsm, DsmProgram, MemImage, NodeFuture};

/// One shared-memory or synchronization operation of a micro-program
/// thread. Addresses are byte offsets into the shared region and must be
/// 8-byte aligned (all data ops move `u64`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the `u64` at the address.
    Read(usize),
    /// Write the given `u64` to the address.
    Write(usize, u64),
    /// Read the `u64` at the address and write back `value + delta`
    /// (a classic lock-protected counter increment).
    Add(usize, u64),
    /// Acquire the lock.
    Lock(usize),
    /// Release the lock.
    Unlock(usize),
    /// Arrive at and pass the (global) barrier.
    Barrier(usize),
    /// Local compute for the given virtual nanoseconds.
    Compute(u64),
}

/// A bounded program for the model checker: initial shared memory plus one
/// straight-line operation list per node.
#[derive(Debug, Clone)]
pub struct MicroProgram {
    /// Program name (propagated into run output).
    pub name: String,
    /// Shared-region size in bytes.
    pub shared_bytes: usize,
    /// Initial `u64` values at 8-byte-aligned offsets (later entries win).
    pub init: Vec<(usize, u64)>,
    /// Per-node operation lists; `threads.len()` is the cluster size.
    pub threads: Vec<Vec<Op>>,
}

impl MicroProgram {
    /// Cluster size implied by the thread list.
    pub fn nodes(&self) -> usize {
        self.threads.len()
    }

    /// Initial value of the `u64` at `addr` (0 when not initialized).
    pub fn initial(&self, addr: usize) -> u64 {
        self.init
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map_or(0, |(_, v)| *v)
    }
}

/// One entry of the value-carrying execution trace. The engine is fully
/// serialized under model checking, so the global trace order *is* the
/// commit order of the corresponding operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEv {
    /// A completed read and the value it observed.
    Read {
        /// Reading node.
        node: usize,
        /// Byte offset.
        addr: usize,
        /// Observed value.
        val: u64,
    },
    /// A completed write and the value it stored.
    Write {
        /// Writing node.
        node: usize,
        /// Byte offset.
        addr: usize,
        /// Stored value.
        val: u64,
    },
    /// A completed lock acquire.
    Lock {
        /// Acquiring node.
        node: usize,
        /// Lock id.
        lock: usize,
    },
    /// A completed lock release.
    Unlock {
        /// Releasing node.
        node: usize,
        /// Lock id.
        lock: usize,
    },
    /// A barrier pass (the node observed the release).
    BarPass {
        /// Passing node.
        node: usize,
        /// Barrier id.
        bar: usize,
    },
}

impl TraceEv {
    /// The node the event belongs to.
    pub fn node(&self) -> usize {
        match *self {
            TraceEv::Read { node, .. }
            | TraceEv::Write { node, .. }
            | TraceEv::Lock { node, .. }
            | TraceEv::Unlock { node, .. }
            | TraceEv::BarPass { node, .. } => node,
        }
    }
}

/// [`DsmProgram`] adapter executing a [`MicroProgram`] as an `async` node
/// body and recording its trace; [`MicroRunner::take_trace`] yields the
/// trace after the run.
///
/// A [`TraceEv`] is recorded when its operation completes — for a data
/// access, after its cost has been charged, which can yield once the batch
/// reaches the flush quantum. Recording at the access's commit point
/// instead would differ only in where a data event sits relative to *other*
/// nodes' events, which neither oracle reads:
/// [`crate::oracle::witness_check`] uses per-node order alone and
/// [`crate::oracle::hb_check`] takes only lock and barrier order from the
/// global trace.
pub struct MicroRunner {
    prog: MicroProgram,
    trace: Mutex<Vec<TraceEv>>,
}

impl MicroRunner {
    /// Wrap a micro-program.
    pub fn new(prog: MicroProgram) -> Self {
        MicroRunner {
            prog,
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Take the recorded trace (global commit order). A run that stopped
    /// short — pruned or deadlocked — leaves a partial trace behind, so take
    /// it after every run, not only the completed ones.
    pub fn take_trace(&self) -> Vec<TraceEv> {
        std::mem::take(&mut *self.trace.lock().unwrap())
    }
}

impl DsmProgram for MicroRunner {
    fn name(&self) -> String {
        self.prog.name.clone()
    }

    fn shared_bytes(&self) -> usize {
        self.prog.shared_bytes
    }

    fn init(&self, mem: &mut MemImage) {
        for &(addr, val) in &self.prog.init {
            mem.write_u64(addr, val);
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let node = d.node();
            let record = |ev| self.trace.lock().unwrap().push(ev);
            for op in &self.prog.threads[node] {
                match *op {
                    Op::Read(addr) => {
                        let val = d.read_u64(addr).await;
                        record(TraceEv::Read { node, addr, val });
                    }
                    Op::Write(addr, val) => {
                        d.write_u64(addr, val).await;
                        record(TraceEv::Write { node, addr, val });
                    }
                    Op::Add(addr, delta) => {
                        let val = d.read_u64(addr).await;
                        record(TraceEv::Read { node, addr, val });
                        let val = val.wrapping_add(delta);
                        d.write_u64(addr, val).await;
                        record(TraceEv::Write { node, addr, val });
                    }
                    Op::Lock(lock) => {
                        d.lock(lock).await;
                        record(TraceEv::Lock { node, lock });
                    }
                    Op::Unlock(lock) => {
                        d.unlock(lock).await;
                        record(TraceEv::Unlock { node, lock });
                    }
                    Op::Barrier(bar) => {
                        d.barrier(bar).await;
                        record(TraceEv::BarPass { node, bar });
                    }
                    Op::Compute(ns) => d.compute(ns).await,
                }
            }
        })
    }
}

/// Canonical 2-node message-passing micro-program: node 0 publishes a value
/// and hits a barrier; node 1 passes the barrier and reads it. The smallest
/// program with a real happens-before edge, used by the schedule-count
/// golden test.
pub fn msg_pass() -> MicroProgram {
    MicroProgram {
        name: "mc-msg-pass".into(),
        shared_bytes: 4096,
        init: vec![(0, 7)],
        threads: vec![
            vec![Op::Write(0, 41), Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Read(0)],
        ],
    }
}

/// Lock-protected shared counter: every node performs `rounds`
/// lock/increment/unlock rounds on one counter, then a final barrier and a
/// read-back. Exercises lock handoff, notice propagation, and diff/flush
/// machinery on every protocol.
pub fn lock_counter(nodes: usize, rounds: usize) -> MicroProgram {
    let mut threads = Vec::new();
    for _ in 0..nodes {
        let mut ops = Vec::new();
        for _ in 0..rounds {
            ops.push(Op::Lock(0));
            ops.push(Op::Add(0, 1));
            ops.push(Op::Unlock(0));
        }
        ops.push(Op::Barrier(0));
        ops.push(Op::Read(0));
        threads.push(ops);
    }
    MicroProgram {
        name: "mc-lock-counter".into(),
        shared_bytes: 4096,
        init: vec![(0, 0)],
        threads,
    }
}

/// Producer/consumer rounds over barriers: in round `r`, node `1 + r %
/// (nodes-1)` writes a fresh value, everyone meets a barrier, everyone
/// reads. Node 0 never produces, which makes it the reader whose
/// happens-before join the `hb-skip-barrier` mutation elides.
pub fn ping_rounds(nodes: usize, rounds: usize) -> MicroProgram {
    let base = 1024usize;
    let mut threads = Vec::new();
    for me in 0..nodes {
        let mut ops = Vec::new();
        for r in 0..rounds {
            let addr = base + r * 8;
            if me == 1 + r % (nodes - 1) {
                ops.push(Op::Write(addr, 0x100 + r as u64));
            }
            ops.push(Op::Barrier(2 * r));
            ops.push(Op::Read(addr));
            ops.push(Op::Barrier(2 * r + 1));
        }
        threads.push(ops);
    }
    MicroProgram {
        name: "mc-ping-rounds".into(),
        shared_bytes: 4096,
        init: Vec::new(),
        threads,
    }
}

/// Miniaturized kill program (2 nodes): lock-counter rounds followed by
/// producer/consumer ping rounds. Reaches every mutation site that the
/// full 8-node seeded kill matrix reaches — lock grants carrying notices,
/// diffs and flushes at the HLRC home, SW version mints, SC invalidation
/// fan-out, Tardis lease renewals past the initial lease span, and the
/// barrier join node 0 depends on.
pub fn kill_program(lock_rounds: usize, ping_rounds_n: usize) -> MicroProgram {
    let mut threads = Vec::new();
    for me in 0..2usize {
        let mut ops = Vec::new();
        for _ in 0..lock_rounds {
            ops.push(Op::Lock(0));
            ops.push(Op::Add(0, 1));
            ops.push(Op::Unlock(0));
        }
        ops.push(Op::Barrier(100));
        for r in 0..ping_rounds_n {
            let addr = 1024 + r * 8;
            if me == 1 {
                ops.push(Op::Write(addr, 0x4000 + r as u64));
            }
            ops.push(Op::Barrier(2 * r));
            ops.push(Op::Read(addr));
            ops.push(Op::Barrier(2 * r + 1));
        }
        threads.push(ops);
    }
    MicroProgram {
        name: "mc-kill".into(),
        shared_bytes: 4096,
        init: vec![(0, 0)],
        threads,
    }
}

/// Lock ping-pong producing back-to-back in-flight frames on one channel:
/// node 1 releases and immediately re-acquires a lock managed by node 0, so
/// the asynchronous `LockRel` and the following `LockReq` overlap on the
/// `1 → 0` channel. Reordering or duplicating those frames exercises the
/// fabric's exactly-once and in-order obligations — the target of the two
/// fabric mutations.
pub fn lock_pingpong(rounds: usize) -> MicroProgram {
    let mut n1 = Vec::new();
    for _ in 0..rounds {
        n1.push(Op::Lock(0));
        n1.push(Op::Add(0, 1));
        n1.push(Op::Unlock(0));
    }
    MicroProgram {
        name: "mc-lock-pingpong".into(),
        shared_bytes: 4096,
        init: vec![(0, 0)],
        threads: vec![vec![Op::Lock(0), Op::Unlock(0)], n1],
    }
}
