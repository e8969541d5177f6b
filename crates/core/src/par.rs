//! The parallel run-time: a node's handle onto the simulated cluster and
//! the coherence protocols. What a node can observe of itself — the compute
//! it batched, how long a fault, lock or barrier held it, release-time work
//! it ran — it reports as one `ProtoWorld::emit` per fact; the counters,
//! recorder and span log all derive from those events.

use dsm_mem::BlockId;
use dsm_obs::EventKind;
use dsm_proto::msg::FaultKind;
use dsm_proto::ops::{self, Attempt};
use dsm_proto::{sync, ProtoWorld};
use dsm_sim::{NodeHandle, Time};

use crate::api::{decode_f64s, encode_f64s};

/// Unflushed local time is batched up to this much before being pushed into
/// the event loop, trading a little timing precision (bounded by the
/// quantum) for a large reduction in event-queue traffic.
const FLUSH_QUANTUM_NS: Time = 2_000;

/// A node's locally executed time not yet pushed into the simulator, and
/// the statistics that go with it.
struct LocalTime {
    /// Batched local time not yet pushed into the simulator.
    pending_ns: Time,
    /// Accumulated raw compute time (pre-inflation), reported at a flush.
    compute_acc: Time,
    /// Accumulated polling overhead, reported at a flush.
    poll_acc: Time,
    /// Polling inflation in percent (0 under interrupts).
    inflation_pct: u32,
}

impl LocalTime {
    /// Charge `t` ns of locally executed work. True when the batch has
    /// reached the flush quantum.
    #[inline]
    fn charge(&mut self, t: Time) -> bool {
        // Polling instrumentation inflates all locally executed work.
        let overhead = t * self.inflation_pct as Time / 100;
        self.pending_ns += t + overhead;
        self.compute_acc += t;
        self.poll_acc += overhead;
        self.pending_ns >= FLUSH_QUANTUM_NS
    }
}

/// A node's handle onto the DSM in a parallel run (the [`crate::Dsm::Par`]
/// arm): checks access on every read/write, runs the protocol on faults,
/// and charges virtual time for computation, accesses, polling overhead and
/// stalls.
///
/// An operation suspends only where it advances the node's clock or blocks
/// it (a flush of batched local time, a fault, a lock or barrier wait), and
/// a hit completes without suspending.
pub struct ParDsm {
    ctx: NodeHandle<ProtoWorld>,
    me: usize,
    n: usize,
    lrc: bool,
    layout: dsm_mem::Layout,
    local: LocalTime,
    /// The bulk accessors' byte buffer, reused from call to call.
    scratch: Vec<u8>,
}

// `#[inline]` on an `async fn` covers the function that *builds* its future
// (the body is compiled with whoever awaits it). The operations on the hit
// path carry it because their callers are compiled in the applications'
// crate: without it every access pays an out-of-line call that returns the
// future by copy.
impl ParDsm {
    /// Wrap a node handle. `inflation_pct` is the polling instrumentation
    /// overhead for this application (0 when using interrupts).
    pub fn new(mut ctx: NodeHandle<ProtoWorld>, inflation_pct: u32) -> Self {
        let me = ctx.node();
        let n = ctx.num_nodes();
        let (lrc, layout) = ctx.world(|w, _| (w.has_lrc || w.has_tardis, w.layout.clone()));
        ParDsm {
            ctx,
            me,
            n,
            lrc,
            layout,
            local: LocalTime {
                pending_ns: 0,
                compute_acc: 0,
                poll_acc: 0,
                inflation_pct,
            },
            scratch: Vec::new(),
        }
    }

    pub(crate) fn node(&self) -> usize {
        self.me
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.n
    }

    pub(crate) fn is_release_consistent(&self) -> bool {
        self.lrc
    }

    /// Report the compute accumulated since the last flush and push the
    /// batched time into the simulator.
    async fn flush(&mut self) {
        let ns = std::mem::take(&mut self.local.compute_acc);
        let poll_ns = std::mem::take(&mut self.local.poll_acc);
        if ns > 0 || poll_ns > 0 {
            let me = self.me;
            self.ctx
                .world(|w, s| w.emit(me, s.now(), EventKind::Compute { ns, poll_ns }));
        }
        let t = std::mem::take(&mut self.local.pending_ns);
        if t > 0 {
            self.ctx.advance(t).await;
        }
    }

    /// The tail every node body ends with: push the last batched time and
    /// close the node's measured interval.
    pub(crate) async fn finish(&mut self) {
        self.flush().await;
        let me = self.me;
        self.ctx.world(|w, s| w.obs.note_end(me, s.now()));
    }

    async fn fault(&mut self, b: usize, kind: FaultKind) {
        self.flush().await;
        let t0 = self.ctx.now();
        let me = self.me;
        let write = matches!(kind, FaultKind::Write);
        self.ctx.world(|w, s| ops::start_fault(w, s, me, b, kind));
        self.ctx.block().await;
        let dur = self.ctx.now() - t0;
        let end = EventKind::FaultEnd {
            block: b,
            write,
            dur,
        };
        self.ctx.world(|w, s| w.emit(me, s.now(), end));
    }

    #[inline]
    async fn charge_local(&mut self, t: Time) {
        if self.local.charge(t) {
            self.flush().await;
        }
    }

    /// A fault resolved locally (HLRC twin, SW-LRC re-enable): advance past
    /// the local protocol action, then report it.
    async fn local_fault(&mut self, b: usize, t: Time) {
        self.flush().await;
        self.ctx.advance(t).await;
        let me = self.me;
        let done = EventKind::LocalFault { block: b, dur: t };
        self.ctx.world(|w, s| w.emit(me, s.now(), done));
    }

    /// Release-time protocol work (diffing under HLRC) runs on the
    /// application thread: advance past it, then report it as local
    /// protocol time — it is not part of any wait.
    async fn release_work(&mut self, t: Time) {
        if t > 0 {
            self.ctx.advance(t).await;
            let me = self.me;
            self.ctx
                .world(|w, s| w.emit(me, s.now(), EventKind::ReleaseWork { dur: t }));
        }
    }

    /// The word path's handling of an attempt that did not hit: the local
    /// or remote fault it names, as [`ParDsm::access`]'s loop handles it.
    /// (`access` spells the match out: awaiting this inside its loop would
    /// nest one more future in every bulk access's state.)
    async fn miss(&mut self, tried: Attempt, kind: FaultKind) {
        match tried {
            Attempt::Done(_) => unreachable!("a hit is not a miss"),
            Attempt::LocalFault(t, b) => self.local_fault(b, t).await,
            Attempt::Fault(b) => self.fault(b, kind).await,
        }
    }

    /// Refuse an access outside the shared space, naming it. The end is
    /// computed with `checked_add`: an absurd address must not wrap past
    /// this test and fail later on an anonymous index.
    #[inline]
    fn check_range(&self, addr: usize, len: usize) {
        let size = self.layout.size();
        assert!(
            addr.checked_add(len).is_some_and(|end| end <= size),
            "access of {len} bytes at {addr:#x} out of shared space of {size} bytes"
        );
    }

    /// One access to `[addr, addr+len)`: split at coherence-block boundaries,
    /// each piece attempted — `attempt(world, piece's block, piece address,
    /// piece's range of the buffer, now)` — and retried through local and
    /// remote faults until it hits. Bulk accesses are sequences of
    /// loads/stores on real hardware: each block's piece completes
    /// individually, so a spanning access never needs two contended blocks
    /// to be held simultaneously (which can livelock under false-sharing
    /// ping-pong). This loop is the only place an access is cut, so a piece
    /// never spans and `ops` checks one block. `tried` attempts of the first
    /// piece were already made and handled by the caller (the word path's
    /// one attempt); they count toward the livelock bound.
    ///
    /// `attempt` is borrowed, not moved: the closure stays in the caller's
    /// future and this one holds a pointer to it. Moved, it was copied into
    /// this future's state at every call, stored field by field and
    /// reloaded as one 16-byte load: a store-to-load forwarding stall worth
    /// about 5 % of water-nsquared/HLRC@64 on x86-64 (EXPERIMENTS §
    /// Simulator performance).
    async fn access(
        &mut self,
        addr: usize,
        len: usize,
        kind: FaultKind,
        mut tried: u32,
        attempt: &mut impl FnMut(
            &mut ProtoWorld,
            BlockId,
            usize,
            std::ops::Range<usize>,
            Time,
        ) -> Attempt,
    ) {
        self.check_range(addr, len);
        let mut off = 0;
        while off < len {
            let a = addr + off;
            // Blocks are region-relative: the piece ends at the enclosing
            // block's boundary in the region's own granularity.
            let (b, block_end) = self.layout.locate(a);
            let take = (block_end - a).min(len - off);
            let mut spins = std::mem::take(&mut tried);
            loop {
                let got = self
                    .ctx
                    .world(|w, s| attempt(w, b, a, off..off + take, s.now()));
                match got {
                    Attempt::Done(t) => {
                        self.charge_local(t).await;
                        break;
                    }
                    Attempt::LocalFault(t, b) => self.local_fault(b, t).await,
                    Attempt::Fault(b) => self.fault(b, kind).await,
                }
                spins += 1;
                assert!(spins < 100_000, "{kind:?} at {a:#x} livelocked");
            }
            off += take;
        }
    }

    /// The block holding `[addr, addr + len)`, if one does (a word that
    /// spans blocks has none), after the range check.
    #[inline]
    fn word_block(&self, addr: usize, len: usize) -> Option<BlockId> {
        self.check_range(addr, len);
        let (b, block_end) = self.layout.locate(addr);
        (len <= block_end - addr).then_some(b)
    }

    /// Zero the node's statistics and mark the start of its measured phase.
    pub(crate) async fn begin_measurement(&mut self) {
        self.flush().await;
        let me = self.me;
        self.ctx.world(|w, s| w.begin_measurement(me, s.now()));
    }

    #[inline]
    pub(crate) async fn compute(&mut self, ns: u64) {
        self.charge_local(ns).await;
    }

    #[inline]
    pub(crate) async fn read(&mut self, addr: usize, buf: &mut [u8]) {
        let me = self.me;
        self.access(
            addr,
            buf.len(),
            FaultKind::Read,
            0,
            &mut |w, b, a, piece, now| ops::try_read(w, me, b, a, &mut buf[piece], now),
        )
        .await;
    }

    #[inline]
    pub(crate) async fn write(&mut self, addr: usize, data: &[u8]) {
        let me = self.me;
        self.access(
            addr,
            data.len(),
            FaultKind::Write,
            0,
            &mut |w, b, a, piece, now| ops::try_write(w, me, b, a, &data[piece], now),
        )
        .await;
    }

    /// A typed load of `N` bytes (the typed accessors of [`crate::Dsm`]).
    /// A word inside one block is attempted once here, without building
    /// [`ParDsm::access`]'s future: a hit is one charge, and a flush only
    /// when that tips the quantum. A miss is handled as `access` handles it
    /// — exactly once, since an attempt can report a fact (a Tardis lease
    /// expiring) — and the load then continues in `access` with this
    /// attempt counted. A word that spans blocks goes to `access` directly.
    #[inline]
    pub(crate) async fn read_word<const N: usize>(&mut self, addr: usize) -> [u8; N] {
        let mut buf = [0u8; N];
        let me = self.me;
        let mut tried = 0;
        if let Some(b) = self.word_block(addr, N) {
            let got = self
                .ctx
                .world(|w, s| ops::try_read(w, me, b, addr, &mut buf, s.now()));
            if let Attempt::Done(t) = got {
                if self.local.charge(t) {
                    self.flush().await;
                }
                return buf;
            }
            self.miss(got, FaultKind::Read).await;
            tried = 1;
        }
        self.access(
            addr,
            N,
            FaultKind::Read,
            tried,
            &mut |w, b, a, piece, now| ops::try_read(w, me, b, a, &mut buf[piece], now),
        )
        .await;
        buf
    }

    /// A typed store of `N` bytes: [`ParDsm::read_word`]'s path, for stores.
    #[inline]
    pub(crate) async fn write_word<const N: usize>(&mut self, addr: usize, data: [u8; N]) {
        let me = self.me;
        let mut tried = 0;
        if let Some(b) = self.word_block(addr, N) {
            let got = self
                .ctx
                .world(|w, s| ops::try_write(w, me, b, addr, &data, s.now()));
            if let Attempt::Done(t) = got {
                if self.local.charge(t) {
                    self.flush().await;
                }
                return;
            }
            self.miss(got, FaultKind::Write).await;
            tried = 1;
        }
        self.access(
            addr,
            N,
            FaultKind::Write,
            tried,
            &mut |w, b, a, piece, now| ops::try_write(w, me, b, a, &data[piece], now),
        )
        .await;
    }

    /// One bulk read, cut and charged like any other ([`ParDsm::access`]);
    /// the bytes pass through the node's reused buffer.
    pub(crate) async fn read_f64s(&mut self, addr: usize, out: &mut [f64]) {
        let mut raw = std::mem::take(&mut self.scratch);
        raw.resize(out.len() * 8, 0);
        self.read(addr, &mut raw).await;
        decode_f64s(&raw, out);
        self.scratch = raw;
    }

    /// One bulk write, through the same buffer.
    pub(crate) async fn write_f64s(&mut self, addr: usize, vals: &[f64]) {
        let mut raw = std::mem::take(&mut self.scratch);
        raw.resize(vals.len() * 8, 0);
        encode_f64s(vals, &mut raw);
        self.write(addr, &raw).await;
        self.scratch = raw;
    }

    pub(crate) async fn lock(&mut self, l: usize) {
        self.flush().await;
        let t0 = self.ctx.now();
        let me = self.me;
        self.ctx.world(|w, s| sync::lock_acquire_start(w, s, me, l));
        self.ctx.block().await;
        let dur = self.ctx.now() - t0;
        self.ctx.world(|w, s| {
            let remote = sync::lock_manager(w, l) != me;
            w.emit(
                me,
                s.now(),
                EventKind::LockWait {
                    lock: l,
                    remote,
                    dur,
                },
            );
        });
    }

    pub(crate) async fn unlock(&mut self, l: usize) {
        self.flush().await;
        let me = self.me;
        let t = self.ctx.world(|w, s| sync::lock_release_start(w, s, me, l));
        self.release_work(t).await;
    }

    pub(crate) async fn barrier(&mut self, b: usize) {
        self.flush().await;
        let me = self.me;
        let t = self
            .ctx
            .world(|w, s| sync::barrier_arrive_start(w, s, me, b));
        self.release_work(t).await;
        let t0 = self.ctx.now();
        self.ctx.block().await;
        let dur = self.ctx.now() - t0;
        let waited = EventKind::BarrierWait { barrier: b, dur };
        self.ctx.world(|w, s| w.emit(me, s.now(), waited));
    }
}
