//! The event recorder: per-node ring buffers, per-kind counts, histograms
//! and wall-clock bracketing for the time breakdown.

use crate::event::{Event, EventKind};
use crate::filter::TraceFilter;
use crate::hist::Hist;
use crate::series::{SeriesRec, SeriesReport};
use crate::span::{SpanClass, SpanLog};

/// Observability configuration, carried in the run configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record events into per-node ring buffers (enables the exporters).
    /// Off by default: the disabled recording path is a single branch.
    pub record_events: bool,
    /// Capacity of each node's event ring. When full, the oldest events
    /// are overwritten and counted in `dropped`.
    pub ring_capacity: usize,
    /// Record causal spans (message ids, causes, waits, wakes) for
    /// critical-path extraction. Off by default: every span hook is a
    /// single `is_some` test when disabled, and spans never charge
    /// virtual time, so spans-off runs are bit-identical. The log's
    /// segments and waits are folded from the event stream, so spans
    /// alone make the recorder active (per-kind counts and histograms
    /// fill; the rings stay empty).
    pub spans: bool,
    /// Windowed time-series sampling width in virtual ns; 0 disables.
    pub series_window_ns: u64,
    /// Live stderr view: which events to print as they are recorded. Off
    /// by default; any other value makes the recorder active.
    pub trace: TraceFilter,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            record_events: false,
            ring_capacity: 65_536,
            spans: false,
            series_window_ns: 0,
            trace: TraceFilter::Off,
        }
    }
}

/// Per-node recording state.
#[derive(Debug, Clone, Default)]
struct NodeRec {
    /// Ring of most recent events; `head` is the oldest slot once full.
    ring: Vec<Event>,
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
    /// Per-kind totals (indexed by [`EventKind::index`]); immune to ring
    /// overflow, so invariants can be checked against them exactly.
    counts: [u64; EventKind::COUNT],
    /// Remote fault stall latencies (ns).
    fault_ns: Hist,
    /// Sent message sizes (control + data bytes).
    msg_bytes: Hist,
    /// Created diff payload sizes (bytes).
    diff_bytes: Hist,
    /// Fabric NI queuing delays (ns).
    queue_ns: Hist,
    /// Virtual time when measurement began on this node.
    begin_ns: u64,
    /// Virtual time when this node finished its measured region.
    end_ns: u64,
}

/// Records typed protocol events per node, stamped with virtual time.
///
/// Every sink it holds is a fold of the one stream [`Recorder::record`]
/// receives: the rings, the per-kind counts, the histograms, the windowed
/// series, the trace view, and the span log's segments and waits. When
/// inactive (no recording, spans, series or trace view requested),
/// `record` is a single branch — no allocation, no work.
#[derive(Debug)]
pub struct Recorder {
    active: bool,
    store_events: bool,
    cap: usize,
    trace: TraceFilter,
    nodes: Vec<NodeRec>,
    /// Span log, present only when span recording is on.
    spans: Option<Box<SpanLog>>,
    /// Windowed sampler, present only when series collection is on.
    series: Option<Box<SeriesRec>>,
}

impl Recorder {
    /// Build a recorder for `nodes` nodes. The recorder is active if any
    /// sink (rings, spans, series, the trace view) is on.
    pub fn new(nodes: usize, cfg: &ObsConfig) -> Recorder {
        Recorder {
            active: cfg.record_events || cfg.spans || cfg.trace.is_on() || cfg.series_window_ns > 0,
            store_events: cfg.record_events,
            cap: cfg.ring_capacity,
            trace: cfg.trace,
            spans: cfg.spans.then(|| Box::new(SpanLog::new())),
            series: (cfg.series_window_ns > 0)
                .then(|| Box::new(SeriesRec::new(nodes, cfg.series_window_ns))),
            nodes: vec![NodeRec::default(); nodes],
        }
    }

    /// True when [`Recorder::record`] does anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Record one event at virtual time `ts` on `node`. The disabled path
    /// is this single branch.
    #[inline]
    pub fn record(&mut self, node: usize, ts: u64, kind: EventKind) {
        if !self.active {
            return;
        }
        self.record_slow(node, ts, kind);
    }

    #[cold]
    fn record_slow(&mut self, node: usize, ts: u64, kind: EventKind) {
        if self.trace.matches(node, kind.block()) {
            eprintln!("[{ts:>12}] n{node}: {}", kind.describe());
        }
        if let Some(series) = self.series.as_deref_mut() {
            series.add(node, ts, &kind);
        }
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.add(node, ts, &kind);
        }
        let rec = &mut self.nodes[node];
        rec.counts[kind.index()] += 1;
        match kind {
            EventKind::FaultEnd { dur, .. } => rec.fault_ns.add(dur),
            EventKind::MsgSend { ctrl, data, .. } => rec.msg_bytes.add(ctrl + data),
            EventKind::DiffCreate { bytes, .. } => rec.diff_bytes.add(bytes),
            EventKind::NetQueue { dur } => rec.queue_ns.add(dur),
            _ => {}
        }
        if self.store_events {
            let ev = Event { ts, kind };
            if self.cap == 0 {
                rec.dropped += 1;
            } else if rec.ring.len() < self.cap {
                rec.ring.push(ev);
            } else {
                rec.ring[rec.head] = ev;
                rec.head = (rec.head + 1) % self.cap;
                rec.dropped += 1;
            }
        }
    }

    /// Mark the start of the measured region on `node`, discarding
    /// anything recorded before it (warm-up). Always cheap; called whether
    /// or not recording is active so wall-clock bracketing works for the
    /// time breakdown.
    pub fn note_begin(&mut self, node: usize, ts: u64) {
        let rec = &mut self.nodes[node];
        rec.ring.clear();
        rec.head = 0;
        rec.dropped = 0;
        rec.counts = [0; EventKind::COUNT];
        rec.fault_ns.reset();
        rec.msg_bytes.reset();
        rec.diff_bytes.reset();
        rec.queue_ns.reset();
        rec.begin_ns = ts;
        rec.end_ns = ts;
        if let Some(series) = self.series.as_deref_mut() {
            series.note_begin(node, ts);
        }
    }

    /// Mark the end of the measured region on `node`.
    pub fn note_end(&mut self, node: usize, ts: u64) {
        self.nodes[node].end_ns = ts;
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.end(node, ts);
        }
    }

    /// True when causal span recording is on.
    #[inline]
    pub fn spans_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Span hook: a message departs. Returns its span id (0 when spans are
    /// off). `wire_ns` is the predicted uncontended one-way latency (0 for
    /// self-sends).
    #[inline]
    pub fn span_send(
        &mut self,
        from: usize,
        to: usize,
        ts: u64,
        wire_ns: u64,
        class: SpanClass,
    ) -> u64 {
        match self.spans.as_deref_mut() {
            Some(spans) => spans.send(from, to, ts, wire_ns, class),
            None => 0,
        }
    }

    /// Span hook: a message is dispatched to its handler; marks it the
    /// current cause for sends and wakes the handler performs.
    #[inline]
    pub fn span_recv(&mut self, node: usize, ts: u64, id: u64) {
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.recv(node, ts, id);
        }
    }

    /// Span hook: the current message handler finished.
    #[inline]
    pub fn span_dispatch_done(&mut self) {
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.dispatch_done();
        }
    }

    /// Span hook: a blocked node is woken at `ts` by the current handler.
    #[inline]
    pub fn span_wake(&mut self, node: usize, ts: u64) {
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.wake(node, ts);
        }
    }

    /// Span hook: the fabric retransmits the frame carrying span `id`.
    #[inline]
    pub fn span_retx(&mut self, id: u64, ts: u64) {
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.retx(id, ts);
        }
    }

    /// Extract the collected observations, leaving the recorder empty.
    pub fn take_report(&mut self) -> ObsReport {
        let recorded = self.store_events;
        let nodes = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(|mut rec| {
                // Unroll the ring into chronological order.
                let mut events = rec.ring.split_off(rec.head);
                events.append(&mut rec.ring);
                NodeObs {
                    events,
                    dropped: rec.dropped,
                    counts: rec.counts,
                    fault_ns: rec.fault_ns,
                    msg_bytes: rec.msg_bytes,
                    diff_bytes: rec.diff_bytes,
                    queue_ns: rec.queue_ns,
                    begin_ns: rec.begin_ns,
                    end_ns: rec.end_ns,
                }
            })
            .collect();
        ObsReport {
            nodes,
            recorded,
            spans: self.spans.take().map(|b| *b),
            series: self.series.take().map(|b| b.into_report()),
        }
    }
}

/// Observations for one node, extracted from the recorder.
#[derive(Debug, Clone)]
pub struct NodeObs {
    /// Recorded events in chronological order (the ring's survivors).
    pub events: Vec<Event>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Per-kind totals, indexed by [`EventKind::index`]; counted even
    /// when the ring overflowed.
    pub counts: [u64; EventKind::COUNT],
    /// Remote fault stall latency histogram (ns).
    pub fault_ns: Hist,
    /// Sent message size histogram (control + data bytes).
    pub msg_bytes: Hist,
    /// Created diff payload size histogram (bytes).
    pub diff_bytes: Hist,
    /// Fabric NI queuing delay histogram (ns); empty on the ideal fabric.
    pub queue_ns: Hist,
    /// Virtual time when the measured region began on this node.
    pub begin_ns: u64,
    /// Virtual time when the measured region ended on this node.
    pub end_ns: u64,
}

impl NodeObs {
    /// Measured virtual wall time of this node.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// Observations for a whole run: one [`NodeObs`] per node.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Per-node observations.
    pub nodes: Vec<NodeObs>,
    /// True when event storage was enabled (rings are meaningful).
    pub recorded: bool,
    /// Causal span log, when span recording was on.
    pub spans: Option<SpanLog>,
    /// Windowed time-series, when series collection was on.
    pub series: Option<SeriesReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cap: usize) -> ObsConfig {
        ObsConfig {
            record_events: true,
            ring_capacity: cap,
            ..ObsConfig::default()
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(2, &ObsConfig::default());
        assert!(!r.is_active());
        r.record(0, 10, EventKind::Interrupt);
        let rep = r.take_report();
        assert!(!rep.recorded);
        assert_eq!(rep.nodes[0].counts, [0; EventKind::COUNT]);
        assert!(rep.nodes[0].events.is_empty());
    }

    #[test]
    fn spans_alone_activate_the_recorder_and_take_segments_and_waits() {
        use crate::span::{SpanEv, WaitKind};
        let cfg = ObsConfig {
            spans: true,
            ..ObsConfig::default()
        };
        let mut r = Recorder::new(1, &cfg);
        assert!(r.is_active());
        r.record(0, 40, EventKind::Advance { dur: 40 });
        r.record(
            0,
            90,
            EventKind::BarrierWait {
                barrier: 0,
                dur: 50,
            },
        );
        let rep = r.take_report();
        assert!(!rep.recorded);
        assert!(rep.nodes[0].events.is_empty(), "rings stay off");
        assert_eq!(rep.nodes[0].counts.iter().sum::<u64>(), 2);
        assert_eq!(
            rep.spans.unwrap().events,
            vec![
                SpanEv::Seg {
                    node: 0,
                    ts: 40,
                    dur: 40
                },
                SpanEv::Wait {
                    node: 0,
                    ts: 90,
                    dur: 50,
                    kind: WaitKind::Barrier
                },
            ]
        );
    }

    #[test]
    fn ring_overflow_keeps_newest_in_order() {
        let mut r = Recorder::new(1, &cfg(4));
        for i in 0..10u64 {
            r.record(0, i, EventKind::Advance { dur: i });
        }
        let rep = r.take_report();
        let node = &rep.nodes[0];
        assert_eq!(node.dropped, 6);
        assert_eq!(node.counts[EventKind::index_of("advance").unwrap()], 10);
        let ts: Vec<u64> = node.events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn histograms_fed_by_kinds() {
        let mut r = Recorder::new(1, &cfg(16));
        r.record(
            0,
            1,
            EventKind::FaultEnd {
                block: 0,
                write: false,
                dur: 500,
            },
        );
        r.record(
            0,
            2,
            EventKind::MsgSend {
                to: 0,
                tag: "t",
                block: None,
                ctrl: 16,
                data: 64,
            },
        );
        r.record(
            0,
            3,
            EventKind::DiffCreate {
                block: 0,
                bytes: 24,
            },
        );
        let rep = r.take_report();
        assert_eq!(rep.nodes[0].fault_ns.count(), 1);
        assert_eq!(rep.nodes[0].fault_ns.sum(), 500);
        assert_eq!(rep.nodes[0].msg_bytes.sum(), 80);
        assert_eq!(rep.nodes[0].diff_bytes.sum(), 24);
    }

    #[test]
    fn begin_discards_warmup_and_brackets_wall() {
        let mut r = Recorder::new(1, &cfg(16));
        r.record(0, 5, EventKind::Interrupt); // warm-up noise
        r.note_begin(0, 100);
        r.record(0, 150, EventKind::Interrupt);
        r.note_end(0, 400);
        let rep = r.take_report();
        let node = &rep.nodes[0];
        assert_eq!(node.counts[EventKind::index_of("interrupt").unwrap()], 1);
        assert_eq!(node.events.len(), 1);
        assert_eq!(node.wall_ns(), 300);
    }
}
