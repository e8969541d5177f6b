//! The parallel run-time: a [`Dsm`] implementation backed by the simulated
//! cluster and the coherence protocols.

use dsm_proto::msg::FaultKind;
use dsm_proto::ops::{self, Attempt};
use dsm_proto::ProtoWorld;
use dsm_sim::engine::NodeCtx;
use dsm_sim::Time;

use crate::api::Dsm;
use crate::node_ops::{self, LocalTime};

/// A node's handle onto the DSM: checks access on every read/write, runs
/// the protocol on faults, and charges virtual time for computation,
/// accesses, polling overhead and stalls.
///
/// This is the blocking form, for node bodies that are ordinary code on the
/// threaded engine; [`crate::DsmTask`] is its resumable counterpart on the
/// task loop. What either does to the world at each step is shared
/// (the `node_ops` module); only the control flow differs.
pub struct DsmThread<'a> {
    ctx: &'a mut NodeCtx<ProtoWorld>,
    me: usize,
    n: usize,
    lrc: bool,
    layout: dsm_mem::Layout,
    local: LocalTime,
}

impl<'a> DsmThread<'a> {
    /// Wrap a node context. `inflation_pct` is the polling instrumentation
    /// overhead for this application (0 when using interrupts).
    pub fn new(ctx: &'a mut NodeCtx<ProtoWorld>, inflation_pct: u32) -> Self {
        let me = ctx.node();
        let n = ctx.num_nodes();
        let (lrc, layout) = ctx.world(|w, _| (w.has_lrc || w.has_tardis, w.cfg.layout.clone()));
        DsmThread {
            ctx,
            me,
            n,
            lrc,
            layout,
            local: LocalTime::new(inflation_pct),
        }
    }

    /// Push batched time into the simulator and flush stat accumulators.
    pub fn flush(&mut self) {
        if self.local.has_stats() {
            let (local, me) = (&mut self.local, self.me);
            self.ctx.world(|w, _| local.fold_stats(w, me));
        }
        let t = self.local.take_pending();
        if t > 0 {
            self.ctx.advance(t);
        }
    }

    /// The tail every node body ends with: push the last batched time and
    /// close the node's measured interval.
    pub(crate) fn finish(&mut self) {
        self.flush();
        let me = self.me;
        self.ctx.world(|w, s| node_ops::note_end(w, s, me));
    }

    fn fault(&mut self, b: usize, kind: FaultKind) {
        self.flush();
        let t0 = self.ctx.now();
        let me = self.me;
        self.ctx
            .world(|w, s| node_ops::fault_begin(w, s, me, b, kind));
        self.ctx.block();
        let dt = self.ctx.now() - t0;
        self.ctx
            .world(|w, s| node_ops::fault_end(w, s, me, b, kind, dt));
    }

    fn charge_local(&mut self, t: Time) {
        if self.local.charge(t) {
            self.flush();
        }
    }

    /// A fault resolved locally (HLRC twin, SW-LRC re-enable): advance past
    /// the local protocol action and charge it to `proto_local_ns`.
    fn local_fault(&mut self, b: usize, t: Time) {
        self.flush();
        self.ctx.advance(t);
        let me = self.me;
        self.ctx
            .world(|w, s| node_ops::local_fault_end(w, s, me, b, t));
    }

    /// Split `[addr, addr+len)` at coherence-block boundaries and run `f`
    /// on each piece. Bulk accesses are sequences of loads/stores on real
    /// hardware: each block's piece completes individually, so a spanning
    /// access never needs two contended blocks to be held simultaneously
    /// (which can livelock under false-sharing ping-pong).
    fn for_each_block_chunk(
        &mut self,
        addr: usize,
        len: usize,
        mut f: impl FnMut(&mut Self, usize, std::ops::Range<usize>),
    ) {
        let mut off = 0;
        while off < len {
            let a = addr + off;
            // Blocks are region-relative: the piece ends at the enclosing
            // block's boundary in the region's own granularity.
            let in_block = self.layout.block_end(a) - a;
            let take = in_block.min(len - off);
            f(self, a, off..off + take);
            off += take;
        }
    }
}

impl Dsm for DsmThread<'_> {
    fn node(&self) -> usize {
        self.me
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn is_release_consistent(&self) -> bool {
        self.lrc
    }

    fn begin_measurement(&mut self) {
        self.flush();
        let me = self.me;
        self.ctx.world(|w, s| node_ops::begin_measurement(w, s, me));
    }

    fn compute(&mut self, ns: u64) {
        self.charge_local(ns);
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        let len = buf.len();
        self.for_each_block_chunk(addr, len, |this, a, range| {
            let me = this.me;
            let chunk = &mut buf[range];
            let mut spins = 0u32;
            loop {
                let attempt = {
                    let chunk_ref: &mut [u8] = chunk;
                    this.ctx
                        .world(|w, s| ops::try_read(w, me, a, chunk_ref, s.now()))
                };
                match attempt {
                    Attempt::Done(t) => {
                        this.charge_local(t);
                        return;
                    }
                    Attempt::LocalFault(t, b) => this.local_fault(b, t),
                    Attempt::Fault(b) => this.fault(b, FaultKind::Read),
                }
                spins += 1;
                assert!(spins < 100_000, "read at {a:#x} livelocked");
            }
        });
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        self.for_each_block_chunk(addr, data.len(), |this, a, range| {
            let me = this.me;
            let chunk = &data[range];
            let mut spins = 0u32;
            loop {
                let attempt = this
                    .ctx
                    .world(|w, s| ops::try_write(w, me, a, chunk, s.now()));
                match attempt {
                    Attempt::Done(t) => {
                        this.charge_local(t);
                        return;
                    }
                    Attempt::LocalFault(t, b) => this.local_fault(b, t),
                    Attempt::Fault(b) => this.fault(b, FaultKind::Write),
                }
                spins += 1;
                assert!(spins < 100_000, "write at {a:#x} livelocked");
            }
        });
    }

    fn lock(&mut self, l: usize) {
        self.flush();
        let t0 = self.ctx.now();
        let me = self.me;
        self.ctx
            .world(|w, s| dsm_proto::sync::lock_acquire_start(w, s, me, l));
        self.ctx.block();
        let dt = self.ctx.now() - t0;
        self.ctx.world(|w, s| node_ops::lock_end(w, s, me, l, dt));
    }

    fn unlock(&mut self, l: usize) {
        self.flush();
        let me = self.me;
        let t = self
            .ctx
            .world(|w, s| dsm_proto::sync::lock_release_start(w, s, me, l));
        if t > 0 {
            // Release-time protocol work (diffing under HLRC) runs on the
            // application thread; charge it as local protocol time.
            self.ctx.advance(t);
            self.ctx.world(|w, _| w.stats[me].proto_local_ns += t);
        }
    }

    fn barrier(&mut self, b: usize) {
        self.flush();
        let me = self.me;
        let t = self
            .ctx
            .world(|w, s| dsm_proto::sync::barrier_arrive_start(w, s, me, b));
        if t > 0 {
            // As in `unlock`: release actions are protocol work, not part of
            // the wait for the other participants.
            self.ctx.advance(t);
            self.ctx.world(|w, _| w.stats[me].proto_local_ns += t);
        }
        let t0 = self.ctx.now();
        self.ctx.block();
        let dt = self.ctx.now() - t0;
        self.ctx
            .world(|w, s| node_ops::barrier_end(w, s, me, b, dt));
    }
}
