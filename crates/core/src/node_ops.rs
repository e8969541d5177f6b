//! Node-side accounting shared by the two run-times.
//!
//! [`crate::ParDsm`] (`async`, for ordinary code) and [`crate::DsmTask`]
//! (poll-shaped, for hand-written state machines) differ only in control
//! flow: where one awaits `advance` / `block`, the other returns a
//! [`dsm_sim::Step`]. Everything either does *to the world* at those points
//! — stall statistics, recorder events, span waits, the measurement window
//! — is a function here, so it exists once.

use dsm_obs::{EventKind, WaitKind};
use dsm_proto::msg::{FaultKind, Packet};
use dsm_proto::{ops, ProtoWorld};
use dsm_sim::{Sched, Time};

/// Unflushed local time is batched up to this much before being pushed into
/// the event loop, trading a little timing precision (bounded by the
/// quantum) for a large reduction in event-queue traffic.
const FLUSH_QUANTUM_NS: Time = 2_000;

/// A node's locally executed time not yet pushed into the simulator, and
/// the statistics that go with it.
#[derive(Debug)]
pub(crate) struct LocalTime {
    /// Batched local time not yet pushed into the simulator.
    pending_ns: Time,
    /// Accumulated raw compute time (pre-inflation), flushed to stats.
    compute_acc: Time,
    /// Accumulated polling overhead, flushed to stats.
    poll_acc: Time,
    /// Polling inflation in percent (0 under interrupts).
    inflation_pct: u32,
}

impl LocalTime {
    pub(crate) fn new(inflation_pct: u32) -> Self {
        LocalTime {
            pending_ns: 0,
            compute_acc: 0,
            poll_acc: 0,
            inflation_pct,
        }
    }

    /// Charge `t` ns of locally executed work. True when the batch has
    /// reached the flush quantum.
    #[inline]
    pub(crate) fn charge(&mut self, t: Time) -> bool {
        // Polling instrumentation inflates all locally executed work.
        let overhead = t * self.inflation_pct as Time / 100;
        self.pending_ns += t + overhead;
        self.compute_acc += t;
        self.poll_acc += overhead;
        self.pending_ns >= FLUSH_QUANTUM_NS
    }

    /// Fold the stat accumulators into `me`'s counters.
    pub(crate) fn fold_stats(&mut self, w: &mut ProtoWorld, me: usize) {
        w.stats[me].compute_ns += std::mem::take(&mut self.compute_acc);
        w.stats[me].poll_overhead_ns += std::mem::take(&mut self.poll_acc);
    }

    /// Take the batched time: the caller advances by it when non-zero.
    pub(crate) fn take_pending(&mut self) -> Time {
        std::mem::take(&mut self.pending_ns)
    }
}

/// Start a remote fault on `b`; the caller blocks next.
pub(crate) fn fault_begin(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: usize,
    b: usize,
    kind: FaultKind,
) {
    let write = matches!(kind, FaultKind::Write);
    w.obs
        .record(me, s.now(), EventKind::FaultBegin { block: b, write });
    ops::start_fault(w, s, me, b, kind);
}

/// The fault on `b` completed after `dt` ns of stall.
pub(crate) fn fault_end(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: usize,
    b: usize,
    kind: FaultKind,
    dt: Time,
) {
    let st = &mut w.stats[me];
    match kind {
        FaultKind::Read => st.read_stall_ns += dt,
        FaultKind::Write => st.write_stall_ns += dt,
    }
    let write = matches!(kind, FaultKind::Write);
    w.obs.record(
        me,
        s.now(),
        EventKind::FaultEnd {
            block: b,
            write,
            dur: dt,
        },
    );
    w.obs.span_wait(me, s.now(), dt, WaitKind::Fetch);
}

/// A fault on `b` was resolved locally (HLRC twin, SW-LRC re-enable) and the
/// node has advanced past the `t` ns it took.
pub(crate) fn local_fault_end(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: usize,
    b: usize,
    t: Time,
) {
    w.stats[me].proto_local_ns += t;
    w.obs
        .record(me, s.now(), EventKind::LocalFault { block: b, dur: t });
}

/// Lock `l` was granted after `dt` ns of waiting.
pub(crate) fn lock_end(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: usize, l: usize, dt: Time) {
    w.stats[me].lock_wait_ns += dt;
    w.obs
        .record(me, s.now(), EventKind::LockWait { lock: l, dur: dt });
    w.obs.span_wait(me, s.now(), dt, WaitKind::Lock);
}

/// Barrier `b` released the node after `dt` ns of waiting.
pub(crate) fn barrier_end(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: usize,
    b: usize,
    dt: Time,
) {
    w.stats[me].barrier_wait_ns += dt;
    w.obs.record(
        me,
        s.now(),
        EventKind::BarrierWait {
            barrier: b,
            dur: dt,
        },
    );
    w.obs.span_wait(me, s.now(), dt, WaitKind::Barrier);
}

/// Zero `me`'s statistics and mark the start of its measured phase.
pub(crate) fn begin_measurement(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: usize) {
    w.stats[me] = Default::default();
    let now = s.now();
    w.obs.note_begin(me, now);
    if let Some(c) = w.check.as_deref_mut() {
        c.arm(me, now);
    }
    if w.measure_start < now {
        w.measure_start = now;
    }
}

/// Mark the end of `me`'s measured phase.
pub(crate) fn note_end(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: usize) {
    w.obs.note_end(me, s.now());
}
