//! Critical-path extraction from the causal span log.
//!
//! Rebuilds the happens-before DAG recorded by [`crate::SpanLog`] and walks
//! backward from the event that determined the end of the measured region,
//! producing the exact chain of intervals that bounded `parallel_time_ns`.
//! Each interval is attributed to one of six categories (compute, fetch
//! RTT, occupancy, retransmit, lock wait, barrier wait).
//!
//! Because the simulation is a deterministic discrete-event system and the
//! walk tiles `[measure_start, end]` with half-open intervals that
//! telescope (every step attributes exactly the time between the current
//! cursor and the event that caused it, clamped to the measured region),
//! the attribution sums to `parallel_time_ns` **exactly** — a hard
//! invariant, checked by `diag --critpath` and CI, not a ~1% estimate.

use std::collections::HashMap;

use dsm_json::Value;

use crate::recorder::ObsReport;
use crate::span::{SpanClass, SpanEv, WaitKind};

/// Where a critical-path interval's time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Application compute and local protocol work on the path.
    Compute,
    /// Wire latency of data/coherence messages on the path.
    FetchRtt,
    /// Protocol handler service, NI queuing/serialization, deferrals, and
    /// unattributed scheduling gaps.
    Occupancy,
    /// Extra wire delay on messages whose frame was retransmitted.
    Retransmit,
    /// Lock stalls: residual lock-wait time and lock-message wire latency.
    LockWait,
    /// Barrier stalls: residual barrier-wait time and barrier-message wire
    /// latency.
    BarrierWait,
}

impl Category {
    /// Number of categories (size of attribution arrays).
    pub const COUNT: usize = 6;

    /// Stable JSON field names, aligned with [`Category::index`].
    pub const NAMES: [&'static str; Self::COUNT] = [
        "compute_ns",
        "fetch_rtt_ns",
        "occupancy_ns",
        "retransmit_ns",
        "lock_wait_ns",
        "barrier_wait_ns",
    ];

    /// Dense index of this category.
    pub fn index(&self) -> usize {
        match self {
            Category::Compute => 0,
            Category::FetchRtt => 1,
            Category::Occupancy => 2,
            Category::Retransmit => 3,
            Category::LockWait => 4,
            Category::BarrierWait => 5,
        }
    }

    /// Stable short name.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }

    fn of_class(class: SpanClass) -> Category {
        match class {
            SpanClass::Fetch => Category::FetchRtt,
            SpanClass::Lock => Category::LockWait,
            SpanClass::Barrier => Category::BarrierWait,
        }
    }

    fn of_wait(kind: WaitKind) -> Category {
        match kind {
            WaitKind::Fetch => Category::FetchRtt,
            WaitKind::Lock => Category::LockWait,
            WaitKind::Barrier => Category::BarrierWait,
        }
    }
}

/// One interval on the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritSeg {
    /// Node the interval is charged to (the receiver, for wire intervals).
    pub node: usize,
    /// Interval start (virtual ns).
    pub start: u64,
    /// Interval end (virtual ns).
    pub end: u64,
    /// Attributed category.
    pub category: Category,
    /// What the interval was (e.g. `"wire:fetch"`, `"wait:lock"`).
    pub label: &'static str,
}

impl CritSeg {
    /// Interval length in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone)]
pub struct CritPath {
    /// The measured parallel time the path explains.
    pub parallel_time_ns: u64,
    /// Virtual time when measurement began (max of per-node begins).
    pub measure_start_ns: u64,
    /// Per-category attribution, indexed by [`Category::index`]. Sums to
    /// `parallel_time_ns` exactly.
    pub by_category: [u64; Category::COUNT],
    /// The path's intervals in chronological order, tiling the measured
    /// region.
    pub segments: Vec<CritSeg>,
    /// Number of span events the log held.
    pub span_events: usize,
    /// Total compute across all nodes inside the measured region (ns) —
    /// the numerator of the speedup bound.
    pub total_work_ns: u64,
    /// True when the walk hit its step cap and charged the remainder to
    /// occupancy (still sums exactly; should never happen in practice).
    pub truncated: bool,
}

impl CritPath {
    /// Sum of the per-category attribution.
    pub fn attributed_ns(&self) -> u64 {
        self.by_category.iter().sum()
    }

    /// True when the attribution sums to parallel time exactly — the hard
    /// invariant this module maintains.
    pub fn is_exact(&self) -> bool {
        self.attributed_ns() == self.parallel_time_ns
    }

    /// Upper bound on achievable speedup at this critical-path length:
    /// total work divided by the path (Brent-style `T_1 / T_inf`).
    pub fn speedup_bound(&self) -> f64 {
        if self.parallel_time_ns == 0 {
            return 0.0;
        }
        self.total_work_ns as f64 / self.parallel_time_ns as f64
    }

    /// The `k` longest intervals on the path, longest first.
    pub fn top_segments(&self, k: usize) -> Vec<CritSeg> {
        let mut segs = self.segments.clone();
        segs.sort_by(|a, b| b.dur().cmp(&a.dur()).then(a.start.cmp(&b.start)));
        segs.truncate(k);
        segs
    }

    /// The schema-versioned `"critpath"` JSONL record.
    pub fn to_json(&self, top_k: usize) -> Value {
        let mut v = crate::schema::record(crate::schema::CRITPATH);
        v.set("parallel_time_ns", self.parallel_time_ns);
        v.set("attributed_ns", self.attributed_ns());
        v.set("exact", self.is_exact());
        v.set("span_events", self.span_events);
        v.set("path_segments", self.segments.len());
        v.set("total_work_ns", self.total_work_ns);
        v.set("speedup_bound", self.speedup_bound());
        v.set("truncated", self.truncated);
        let mut cats = Value::obj();
        for (i, name) in Category::NAMES.iter().enumerate() {
            cats.set(name, self.by_category[i]);
        }
        v.set("categories", cats);
        let mut top = Vec::new();
        for seg in self.top_segments(top_k) {
            let mut s = Value::obj();
            s.set("node", seg.node);
            s.set("start_ns", seg.start);
            s.set("dur_ns", seg.dur());
            s.set("category", seg.category.name());
            s.set("label", seg.label);
            top.push(s);
        }
        v.set("top_segments", Value::Arr(top));
        v
    }
}

/// A node-local interval (compute segment or blocking wait).
#[derive(Debug, Clone, Copy)]
struct Iv {
    start: u64,
    end: u64,
    wait: Option<WaitKind>,
}

#[derive(Debug, Clone, Copy)]
struct SendInfo {
    cause: u64,
    from: usize,
    ts: u64,
    wire_ns: u64,
    class: SpanClass,
}

/// The walk cursor: either on a node's local timeline, or unwinding a
/// message chain.
#[derive(Debug, Clone, Copy)]
enum Cursor {
    /// Explain time on `node` up to `t`.
    Node { node: usize, t: u64 },
    /// Explain time up to `t` by message `id` (its handling, its wire
    /// trip, then its cause).
    Chain { id: u64, t: u64 },
}

struct Walker<'a> {
    ms: u64,
    sends: HashMap<u64, SendInfo>,
    recvs: HashMap<u64, (usize, u64)>,
    retx: HashMap<u64, ()>,
    wakes: HashMap<(usize, u64), u64>,
    intervals: Vec<Vec<Iv>>,
    out: Vec<CritSeg>,
    by_category: [u64; Category::COUNT],
    report: &'a ObsReport,
}

impl Walker<'_> {
    /// Attribute `[lo, hi]` (clamped to the measured region) on `node`.
    fn push(&mut self, node: usize, lo: u64, hi: u64, category: Category, label: &'static str) {
        let lo = lo.max(self.ms);
        if hi <= lo {
            return;
        }
        self.by_category[category.index()] += hi - lo;
        self.out.push(CritSeg {
            node,
            start: lo,
            end: hi,
            category,
            label,
        });
    }

    /// One walk step. Returns the next cursor, or `None` when the floor is
    /// reached.
    fn step(&mut self, cur: Cursor) -> Option<Cursor> {
        match cur {
            Cursor::Node { node, t } => self.step_node(node, t),
            Cursor::Chain { id, t } => self.step_chain(id, t),
        }
    }

    fn step_node(&mut self, node: usize, t: u64) -> Option<Cursor> {
        if t <= self.ms {
            return None;
        }
        let ivs = match self.intervals.get(node) {
            Some(ivs) => ivs,
            None => {
                self.push(node, self.ms, t, Category::Occupancy, "gap");
                return None;
            }
        };
        let idx = ivs.partition_point(|iv| iv.end < t);
        if let Some(iv) = ivs.get(idx).copied() {
            if iv.start < t {
                // The cursor is inside this interval.
                return match iv.wait {
                    Some(kind) => {
                        if t == iv.end {
                            if let Some(&cause) = self.wakes.get(&(node, t)) {
                                if cause != 0 && self.sends.contains_key(&cause) {
                                    // The wait ended because a message
                                    // handler woke us: unwind that chain.
                                    return Some(Cursor::Chain { id: cause, t });
                                }
                            }
                        }
                        // Residual wait (no recorded wake at this point —
                        // e.g. we entered mid-wait from a request this
                        // node sent while stalled).
                        self.push(node, iv.start, t, Category::of_wait(kind), wait_label(kind));
                        Some(Cursor::Node { node, t: iv.start })
                    }
                    None => {
                        self.push(node, iv.start, t, Category::Compute, "compute");
                        Some(Cursor::Node { node, t: iv.start })
                    }
                };
            }
        }
        // Gap: time between recorded intervals is occupancy stolen from
        // the node (NI serialization, handler service charged to it).
        let prev_end = if idx > 0 { ivs[idx - 1].end } else { self.ms };
        let prev_end = prev_end.min(t);
        self.push(node, prev_end, t, Category::Occupancy, "gap");
        if prev_end <= self.ms {
            None
        } else {
            Some(Cursor::Node { node, t: prev_end })
        }
    }

    fn step_chain(&mut self, id: u64, t: u64) -> Option<Cursor> {
        if t <= self.ms {
            return None;
        }
        let Some(&send) = self.sends.get(&id) else {
            self.push(0, self.ms, t, Category::Occupancy, "unlinked");
            return None;
        };
        let Some(&(rnode, rts)) = self.recvs.get(&id) else {
            // The message was never dispatched (should not happen for a
            // message on the path); fall back to the sender's timeline.
            return Some(Cursor::Node {
                node: send.from,
                t: t.min(send.ts),
            });
        };
        let rts = rts.min(t);
        // Handler service and wake slack after dispatch.
        self.push(rnode, rts, t, Category::Occupancy, "handle");
        // Wire trip: the configured uncontended latency goes to the
        // message-class category; anything on top is queuing/deferral
        // occupancy, or retransmission delay if the frame was resent.
        let sts = send.ts.min(rts);
        let trip = rts - sts;
        let base = send.wire_ns.min(trip);
        self.push(
            rnode,
            rts - base,
            rts,
            Category::of_class(send.class),
            wire_label(send.class),
        );
        if trip > base {
            let (cat, label) = if self.retx.contains_key(&id) {
                (Category::Retransmit, "retransmit")
            } else {
                (Category::Occupancy, "queue")
            };
            self.push(rnode, sts, rts - base, cat, label);
        }
        if sts <= self.ms {
            return None;
        }
        if send.cause != 0 && self.sends.contains_key(&send.cause) {
            Some(Cursor::Chain {
                id: send.cause,
                t: sts,
            })
        } else {
            Some(Cursor::Node {
                node: send.from,
                t: sts,
            })
        }
    }

    /// Pick the cursor that explains the instant `t_end`: the last span
    /// event recorded at exactly that time, else the node that finished
    /// last.
    fn entry(&self, t_end: u64) -> Cursor {
        let spans = self.report.spans.as_ref().unwrap();
        for ev in spans.events.iter().rev() {
            if ev.ts() != t_end {
                continue;
            }
            match *ev {
                SpanEv::Recv { id, .. } => return Cursor::Chain { id, t: t_end },
                SpanEv::Wake { node, .. }
                | SpanEv::Seg { node, .. }
                | SpanEv::Wait { node, .. }
                | SpanEv::End { node, .. } => return Cursor::Node { node, t: t_end },
                SpanEv::Send { .. } | SpanEv::Retx { .. } => continue,
            }
        }
        let node = self
            .report
            .nodes
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| n.end_ns)
            .map(|(i, _)| i)
            .unwrap_or(0);
        Cursor::Node { node, t: t_end }
    }
}

fn wait_label(kind: WaitKind) -> &'static str {
    match kind {
        WaitKind::Fetch => "wait:fetch",
        WaitKind::Lock => "wait:lock",
        WaitKind::Barrier => "wait:barrier",
    }
}

fn wire_label(class: SpanClass) -> &'static str {
    match class {
        SpanClass::Fetch => "wire:fetch",
        SpanClass::Lock => "wire:lock",
        SpanClass::Barrier => "wire:barrier",
    }
}

/// Extract the critical path that determined `parallel_time_ns` from a
/// report carrying a span log. Returns `None` when spans were not
/// recorded.
///
/// The per-category attribution sums to `parallel_time_ns` exactly (see
/// the module docs); [`CritPath::is_exact`] checks it.
pub fn critical_path(report: &ObsReport, parallel_time_ns: u64) -> Option<CritPath> {
    let spans = report.spans.as_ref()?;
    let ms = report.nodes.iter().map(|n| n.begin_ns).max().unwrap_or(0);
    let t_end = ms + parallel_time_ns;

    let nodes = report.nodes.len();
    let mut w = Walker {
        ms,
        sends: HashMap::new(),
        recvs: HashMap::new(),
        retx: HashMap::new(),
        wakes: HashMap::new(),
        intervals: vec![Vec::new(); nodes],
        out: Vec::new(),
        by_category: [0; Category::COUNT],
        report,
    };
    let mut total_work: u64 = 0;
    for ev in &spans.events {
        match *ev {
            SpanEv::Send {
                id,
                cause,
                from,
                ts,
                wire_ns,
                class,
                ..
            } => {
                w.sends.insert(
                    id,
                    SendInfo {
                        cause,
                        from,
                        ts,
                        wire_ns,
                        class,
                    },
                );
            }
            SpanEv::Recv { id, node, ts } => {
                w.recvs.insert(id, (node, ts));
            }
            SpanEv::Wake { node, ts, cause } => {
                w.wakes.insert((node, ts), cause);
            }
            SpanEv::Retx { id, .. } => {
                w.retx.insert(id, ());
            }
            SpanEv::Seg { node, ts, dur } | SpanEv::Wait { node, ts, dur, .. } => {
                if dur > 0 {
                    if let Some(ivs) = w.intervals.get_mut(node) {
                        ivs.push(Iv {
                            start: ts - dur,
                            end: ts,
                            wait: match *ev {
                                SpanEv::Wait { kind, .. } => Some(kind),
                                _ => None,
                            },
                        });
                    }
                    if matches!(ev, SpanEv::Seg { .. }) {
                        let lo = (ts - dur).max(ms);
                        let hi = ts.min(t_end);
                        if hi > lo {
                            total_work += hi - lo;
                        }
                    }
                }
            }
            SpanEv::End { .. } => {}
        }
    }
    for ivs in &mut w.intervals {
        ivs.sort_by_key(|iv| (iv.end, iv.start));
    }

    let span_events = spans.len();
    let mut truncated = false;
    if parallel_time_ns > 0 {
        let mut cur = w.entry(t_end);
        let cap = 4 * span_events + 64;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > cap {
                // Safety net: charge whatever the walk has not reached to
                // occupancy so the sum stays exact.
                let t = match cur {
                    Cursor::Node { t, .. } | Cursor::Chain { t, .. } => t,
                };
                let attributed: u64 = w.by_category.iter().sum();
                let remaining = parallel_time_ns.saturating_sub(attributed);
                let lo = t.saturating_sub(remaining).max(ms);
                w.push(0, lo, lo + remaining, Category::Occupancy, "truncated");
                truncated = true;
                break;
            }
            match w.step(cur) {
                Some(next) => cur = next,
                None => break,
            }
        }
    }

    w.out.reverse();
    Some(CritPath {
        parallel_time_ns,
        measure_start_ns: ms,
        by_category: w.by_category,
        segments: w.out,
        span_events,
        total_work_ns: total_work,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::recorder::{ObsConfig, Recorder};
    use crate::span::SpanLog;

    /// Build a report with a hand-written span log on two nodes, both
    /// measured from t=1000.
    fn report_with(log: SpanLog, ends: [u64; 2]) -> ObsReport {
        let mut r = Recorder::new(2, &ObsConfig::default());
        r.note_begin(0, 1000);
        r.note_begin(1, 1000);
        r.note_end(0, ends[0]);
        r.note_end(1, ends[1]);
        let mut rep = r.take_report();
        rep.spans = Some(log);
        rep
    }

    /// A node-local compute segment over `[ts - dur, ts]`.
    fn seg(log: &mut SpanLog, node: usize, ts: u64, dur: u64) {
        log.add(node, ts, &EventKind::Advance { dur });
    }

    #[test]
    fn no_spans_yields_none() {
        let mut r = Recorder::new(1, &ObsConfig::default());
        let rep = r.take_report();
        assert!(critical_path(&rep, 100).is_none());
    }

    #[test]
    fn pure_compute_path_is_exact() {
        let mut log = SpanLog::new();
        seg(&mut log, 0, 3000, 2000); // [1000, 3000] compute
        log.end(0, 3000);
        let rep = report_with(log, [3000, 1000]);
        let cp = critical_path(&rep, 2000).unwrap();
        assert!(cp.is_exact(), "attribution {:?}", cp.by_category);
        assert_eq!(cp.by_category[Category::Compute.index()], 2000);
        assert_eq!(cp.total_work_ns, 2000);
    }

    #[test]
    fn fetch_chain_decomposes_into_wire_handle_and_compute() {
        // Node 0 computes [1000,1400], spends 10ns issuing a fault
        // request, stalls; the request (wire 100) reaches home node 1 at
        // 1510, its handler takes 50 and sends the reply (wire 100),
        // whose handler on node 0 takes 50 and wakes the thread at 1710;
        // node 0 then computes [1710,2000].
        let mut log = SpanLog::new();
        seg(&mut log, 0, 1400, 400);
        let req = log.send(0, 1, 1410, 100, SpanClass::Fetch);
        log.recv(1, 1510, req);
        let reply = log.send(1, 0, 1560, 100, SpanClass::Fetch);
        log.dispatch_done();
        log.recv(0, 1660, reply);
        log.wake(0, 1710);
        log.dispatch_done();
        let stall = EventKind::FaultEnd {
            block: 0,
            write: false,
            dur: 310,
        };
        log.add(0, 1710, &stall);
        seg(&mut log, 0, 2000, 290);
        log.end(0, 2000);
        let rep = report_with(log, [2000, 1000]);
        let cp = critical_path(&rep, 1000).unwrap();
        assert!(cp.is_exact(), "categories {:?}", cp.by_category);
        // 400 + 290 compute.
        assert_eq!(cp.by_category[Category::Compute.index()], 690);
        // Two wire hops of 100, plus the 10ns fault-issue residue inside
        // the wait (also a fetch stall).
        assert_eq!(cp.by_category[Category::FetchRtt.index()], 210);
        // Request handler 50 + reply handler 50.
        assert_eq!(cp.by_category[Category::Occupancy.index()], 100);
        // Residual wait before the request departed (fault issue cost).
        let fetch_residue: u64 = cp
            .segments
            .iter()
            .filter(|s| s.label == "wait:fetch")
            .map(|s| s.dur())
            .sum();
        assert_eq!(fetch_residue, 10);
        assert!(!cp.truncated);
        // The path tiles [1000, 2000] contiguously in time order.
        assert_eq!(cp.segments.first().unwrap().start, 1000);
        assert_eq!(cp.segments.last().unwrap().end, 2000);
        for pair in cp.segments.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn retransmitted_wire_excess_goes_to_retransmit() {
        let mut log = SpanLog::new();
        seg(&mut log, 0, 1100, 100);
        let req = log.send(0, 1, 1100, 100, SpanClass::Fetch);
        log.retx(req, 1300);
        log.end(1, 1100);
        log.recv(1, 1500, req); // 400 trip = 100 wire + 300 retx excess
        let rep = report_with(log, [1100, 1100]);
        let cp = critical_path(&rep, 500).unwrap();
        assert!(cp.is_exact(), "categories {:?}", cp.by_category);
        assert_eq!(cp.by_category[Category::Retransmit.index()], 300);
        assert_eq!(cp.by_category[Category::FetchRtt.index()], 100);
        assert_eq!(cp.by_category[Category::Compute.index()], 100);
    }

    #[test]
    fn lock_wait_residue_and_wire_categorize_as_lock() {
        let mut log = SpanLog::new();
        // Node 1 holds the lock and computes [1000,1200]; its self-sent
        // release is handled for 50ns, the grant (wire 100) reaches node 0
        // at 1350 and wakes it immediately.
        seg(&mut log, 1, 1200, 200);
        let rel = log.send(1, 1, 1200, 0, SpanClass::Lock);
        log.recv(1, 1200, rel);
        let grant = log.send(1, 0, 1250, 100, SpanClass::Lock);
        log.dispatch_done();
        log.recv(0, 1350, grant);
        log.wake(0, 1350);
        log.dispatch_done();
        let wait = EventKind::LockWait {
            lock: 0,
            remote: true,
            dur: 350,
        };
        log.add(0, 1350, &wait); // waiting since t=1000
        log.end(0, 1350);
        let rep = report_with(log, [1350, 1200]);
        let cp = critical_path(&rep, 350).unwrap();
        assert!(cp.is_exact(), "categories {:?}", cp.by_category);
        // The grant's wire hop.
        assert_eq!(cp.by_category[Category::LockWait.index()], 100);
        // The release handler's 50ns.
        assert_eq!(cp.by_category[Category::Occupancy.index()], 50);
        // The holder's compute while node 0 waited.
        assert_eq!(cp.by_category[Category::Compute.index()], 200);
    }

    #[test]
    fn gap_time_is_occupancy() {
        let mut log = SpanLog::new();
        seg(&mut log, 0, 1500, 500); // [1000,1500]
        log.end(0, 1800); // 300ns of stolen occupancy before the end
        let rep = report_with(log, [1800, 1000]);
        let cp = critical_path(&rep, 800).unwrap();
        assert!(cp.is_exact());
        assert_eq!(cp.by_category[Category::Occupancy.index()], 300);
        assert_eq!(cp.by_category[Category::Compute.index()], 500);
    }

    #[test]
    fn zero_parallel_time_is_trivially_exact() {
        let log = SpanLog::new();
        let rep = report_with(log, [1000, 1000]);
        let cp = critical_path(&rep, 0).unwrap();
        assert!(cp.is_exact());
        assert!(cp.segments.is_empty());
    }

    #[test]
    fn json_record_shape() {
        let mut log = SpanLog::new();
        seg(&mut log, 0, 2000, 1000);
        log.end(0, 2000);
        let rep = report_with(log, [2000, 1000]);
        let cp = critical_path(&rep, 1000).unwrap();
        let v = cp.to_json(3);
        assert_eq!(v.get("type").unwrap().as_str(), Some("critpath"));
        assert_eq!(v.u64_field("schema"), Some(1));
        assert_eq!(v.get("exact").unwrap().as_bool(), Some(true));
        assert_eq!(v.u64_field("attributed_ns"), Some(1000));
        let cats = v.get("categories").unwrap();
        assert_eq!(cats.u64_field("compute_ns"), Some(1000));
        let top = v.get("top_segments").unwrap().as_arr().unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].get("category").unwrap().as_str(), Some("compute_ns"));
        let reparsed = Value::parse(&v.to_string()).unwrap();
        assert_eq!(reparsed.u64_field("parallel_time_ns"), Some(1000));
    }
}
