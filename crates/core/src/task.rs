//! The poll-shaped run-time: [`ParDsm`](crate::ParDsm)'s counterpart for
//! hand-written state machines.
//!
//! A [`DsmTask`] is one node's handle onto the DSM for programs written as
//! [`dsm_sim::NodeTask`]s. Each operation is *poll-shaped*: it is called
//! with the world and scheduler the engine lent to `resume`, and returns
//! either `Continue(value)` — done, go on — or `Break(step)` — hand `step`
//! back to the engine and call the same operation again on the next
//! resume. Where the operation was is remembered here (a private `Cont`), so a
//! program's own state is just "which operation am I on": a straight-line
//! program is a program counter and `?`.
//!
//! Every operation yields at exactly the points where `ParDsm` awaits
//! `advance` or `block`, and does to the world exactly what `ParDsm`
//! does in between (the shared `node_ops` module), so one program
//! produces the same statistics, event count and memory image on either
//! run-time; `tests/mc_task_engine_equiv.rs` holds the differential test.

use std::ops::ControlFlow::{self, Break, Continue};

use dsm_proto::msg::{FaultKind, Packet};
use dsm_proto::ops::{self, Attempt};
use dsm_proto::{sync, ProtoWorld};
use dsm_sim::{Sched, Step, Time};

use crate::node_ops::{self, LocalTime};
use crate::runner::{poll_inflation, RunConfig, WARMUP_BARRIER};
use crate::DsmProgram;

/// Outcome of polling a [`DsmTask`] operation: `Continue(v)` when it
/// completed with `v`, `Break(step)` when the node must yield `step` to the
/// engine first. `?` propagates the yield.
pub type Poll<T> = ControlFlow<Step, T>;

/// Where a yielded operation continues on the next resume.
#[derive(Debug, Clone, Copy)]
enum Cont {
    /// At an operation boundary.
    Idle,
    /// `flush` pushed the batched local time; the operation proper starts.
    Flushed,
    /// The operation completed (this is the value read, if any) and its
    /// batched cost was pushed.
    Charged(u64),
    /// Flushed ahead of the remote fault on `b`.
    FaultFlushed { b: usize, kind: FaultKind },
    /// Blocked on the remote fault since `t0`.
    FaultWait { b: usize, kind: FaultKind, t0: Time },
    /// Flushed ahead of the locally resolved fault on `b` costing `t`.
    LocalFlushed { b: usize, t: Time },
    /// Advancing past that local protocol action.
    LocalAdvanced { b: usize, t: Time },
    /// Blocked on a lock or barrier since `t0`.
    SyncWait { t0: Time },
    /// Advancing past `t` ns of release-time protocol work.
    Releasing { t: Time },
}

/// How far the node body's fixed prologue has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Arm,
    Measured,
}

/// One node's resumable handle onto the DSM. See the module docs.
#[derive(Debug)]
pub struct DsmTask {
    me: usize,
    local: LocalTime,
    cont: Cont,
    phase: Phase,
    /// Fault-and-retry rounds of the access in progress (livelock guard).
    spins: u32,
}

impl DsmTask {
    /// Handle for node `me` of a run of `program` under `cfg`.
    pub fn new(cfg: &RunConfig, program: &dyn DsmProgram, me: usize) -> Self {
        DsmTask {
            me,
            local: LocalTime::new(poll_inflation(cfg, program)),
            cont: Cont::Idle,
            phase: Phase::Warmup,
            spins: 0,
        }
    }

    /// This node's id.
    pub fn node(&self) -> usize {
        self.me
    }

    /// What every node body does before its program: the warm-up barrier,
    /// then the start of measurement. (No warm-up touch phase: the
    /// straight-line programs that run here have none.)
    pub fn prologue(&mut self, w: &mut ProtoWorld, s: &mut Sched<Packet>) -> Poll<()> {
        if self.phase == Phase::Warmup {
            self.barrier(w, s, WARMUP_BARRIER)?;
            self.phase = Phase::Arm;
        }
        if self.phase == Phase::Arm {
            self.flushed(w)?;
            node_ops::begin_measurement(w, s, self.me);
            self.cont = Cont::Idle;
            self.phase = Phase::Measured;
        }
        Continue(())
    }

    /// What every node body does after its program: push the last batched
    /// time and close the measured interval. The node is `Done` after this.
    pub fn epilogue(&mut self, w: &mut ProtoWorld, s: &mut Sched<Packet>) -> Poll<()> {
        self.flushed(w)?;
        node_ops::note_end(w, s, self.me);
        self.cont = Cont::Idle;
        Continue(())
    }

    /// Charge `ns` nanoseconds of local computation.
    pub fn compute(&mut self, w: &mut ProtoWorld, ns: u64) -> Poll<()> {
        if let Cont::Idle = self.cont {
            self.cont = Cont::Charged(0);
            self.charge_local(w, ns)?;
        }
        self.cont = Cont::Idle;
        Continue(())
    }

    /// Read the little-endian `u64` at `addr` (8-byte aligned).
    pub fn read_u64(
        &mut self,
        w: &mut ProtoWorld,
        s: &mut Sched<Packet>,
        addr: usize,
    ) -> Poll<u64> {
        self.access(w, s, addr, None)
    }

    /// Write `val` as a little-endian `u64` at `addr` (8-byte aligned).
    pub fn write_u64(
        &mut self,
        w: &mut ProtoWorld,
        s: &mut Sched<Packet>,
        addr: usize,
        val: u64,
    ) -> Poll<()> {
        self.access(w, s, addr, Some(val))?;
        Continue(())
    }

    /// Acquire lock `l`.
    pub fn lock(&mut self, w: &mut ProtoWorld, s: &mut Sched<Packet>, l: usize) -> Poll<()> {
        match self.cont {
            Cont::Idle | Cont::Flushed => {
                self.flushed(w)?;
                sync::lock_acquire_start(w, s, self.me, l);
                self.cont = Cont::SyncWait { t0: s.now() };
                Break(Step::Block)
            }
            Cont::SyncWait { t0 } => {
                node_ops::lock_end(w, s, self.me, l, s.now() - t0);
                self.cont = Cont::Idle;
                Continue(())
            }
            other => unreachable!("lock resumed at {other:?}"),
        }
    }

    /// Release lock `l`.
    pub fn unlock(&mut self, w: &mut ProtoWorld, s: &mut Sched<Packet>, l: usize) -> Poll<()> {
        match self.cont {
            Cont::Idle | Cont::Flushed => {
                self.flushed(w)?;
                let t = sync::lock_release_start(w, s, self.me, l);
                if t > 0 {
                    // Release-time protocol work (diffing under HLRC) runs
                    // on the application thread; charge it as local
                    // protocol time.
                    self.cont = Cont::Releasing { t };
                    return Break(Step::Advance(t));
                }
            }
            Cont::Releasing { t } => w.stats[self.me].proto_local_ns += t,
            other => unreachable!("unlock resumed at {other:?}"),
        }
        self.cont = Cont::Idle;
        Continue(())
    }

    /// Wait at barrier `b` until all nodes arrive.
    pub fn barrier(&mut self, w: &mut ProtoWorld, s: &mut Sched<Packet>, b: usize) -> Poll<()> {
        match self.cont {
            Cont::Idle | Cont::Flushed => {
                self.flushed(w)?;
                let t = sync::barrier_arrive_start(w, s, self.me, b);
                if t > 0 {
                    // As in `unlock`: release actions are protocol work,
                    // not part of the wait for the other participants.
                    self.cont = Cont::Releasing { t };
                    return Break(Step::Advance(t));
                }
            }
            Cont::Releasing { t } => w.stats[self.me].proto_local_ns += t,
            Cont::SyncWait { t0 } => {
                node_ops::barrier_end(w, s, self.me, b, s.now() - t0);
                self.cont = Cont::Idle;
                return Continue(());
            }
            other => unreachable!("barrier resumed at {other:?}"),
        }
        self.cont = Cont::SyncWait { t0: s.now() };
        Break(Step::Block)
    }

    /// One 8-byte access, retried through local and remote faults until it
    /// hits: a read (`store == None`, yielding the value) or a write.
    fn access(
        &mut self,
        w: &mut ProtoWorld,
        s: &mut Sched<Packet>,
        addr: usize,
        store: Option<u64>,
    ) -> Poll<u64> {
        debug_assert_eq!(addr % 8, 0, "accesses move aligned u64s");
        let me = self.me;
        loop {
            match self.cont {
                Cont::Idle => {
                    let mut buf = [0u8; 8];
                    let now = s.now();
                    let (kind, attempt) = match store {
                        None => (FaultKind::Read, ops::try_read(w, me, addr, &mut buf, now)),
                        Some(v) => (
                            FaultKind::Write,
                            ops::try_write(w, me, addr, &v.to_le_bytes(), now),
                        ),
                    };
                    match attempt {
                        Attempt::Done(t) => {
                            self.spins = 0;
                            self.cont = Cont::Charged(u64::from_le_bytes(buf));
                            self.charge_local(w, t)?;
                        }
                        Attempt::LocalFault(t, b) => {
                            self.cont = Cont::LocalFlushed { b, t };
                            self.flush(w)?;
                        }
                        Attempt::Fault(b) => {
                            self.cont = Cont::FaultFlushed { b, kind };
                            self.flush(w)?;
                        }
                    }
                }
                Cont::Charged(val) => {
                    self.cont = Cont::Idle;
                    return Continue(val);
                }
                Cont::LocalFlushed { b, t } => {
                    self.cont = Cont::LocalAdvanced { b, t };
                    return Break(Step::Advance(t));
                }
                Cont::LocalAdvanced { b, t } => {
                    node_ops::local_fault_end(w, s, me, b, t);
                    self.retry(addr);
                }
                Cont::FaultFlushed { b, kind } => {
                    node_ops::fault_begin(w, s, me, b, kind);
                    self.cont = Cont::FaultWait {
                        b,
                        kind,
                        t0: s.now(),
                    };
                    return Break(Step::Block);
                }
                Cont::FaultWait { b, kind, t0 } => {
                    node_ops::fault_end(w, s, me, b, kind, s.now() - t0);
                    self.retry(addr);
                }
                other => unreachable!("access resumed at {other:?}"),
            }
        }
    }

    fn retry(&mut self, addr: usize) {
        self.spins += 1;
        assert!(self.spins < 100_000, "access at {addr:#x} livelocked");
        self.cont = Cont::Idle;
    }

    fn charge_local(&mut self, w: &mut ProtoWorld, t: Time) -> Poll<()> {
        if self.local.charge(t) {
            self.flush(w)?;
        }
        Continue(())
    }

    /// Push batched time into the simulator and flush stat accumulators.
    /// Yields when there was time to push; the caller has already recorded
    /// where to continue.
    fn flush(&mut self, w: &mut ProtoWorld) -> Poll<()> {
        self.local.fold_stats(w, self.me);
        match self.local.take_pending() {
            0 => Continue(()),
            t => Break(Step::Advance(t)),
        }
    }

    /// The `flush` every synchronization operation opens with: yields at
    /// most once, and falls through on re-entry.
    fn flushed(&mut self, w: &mut ProtoWorld) -> Poll<()> {
        if let Cont::Idle = self.cont {
            self.cont = Cont::Flushed;
            self.flush(w)?;
        }
        Continue(())
    }
}
