//! Windowed time-series metrics: virtual-time-bucketed per-node counters.
//!
//! When enabled ([`crate::ObsConfig::series_window_ns`] nonzero), recorded
//! events are additionally folded into fixed-width virtual-time windows per
//! node. Each window accumulates four counters — messages sent, remote
//! faults completed, diff bytes created, and stall time (fault + lock +
//! barrier waits) — the observable a phase detector consumes. Duration
//! events are attributed to the window containing the *end* of their
//! interval (the time the event was recorded), consistent with the event
//! log's timestamp convention.

use crate::event::EventKind;

/// One window's accumulated counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeriesBucket {
    /// Protocol messages sent (self-sends excluded, like `msgs_sent`).
    pub msgs: u64,
    /// Remote faults completed.
    pub faults: u64,
    /// Diff payload bytes created.
    pub diff_bytes: u64,
    /// Stall time (fault + lock wait + barrier wait) in ns. May exceed the
    /// window width: a long stall is charged to the window it ends in.
    pub stall_ns: u64,
}

impl SeriesBucket {
    /// True when nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        *self == SeriesBucket::default()
    }
}

/// Per-node window state.
#[derive(Debug, Clone, Default)]
struct NodeSeries {
    /// Virtual time of window 0's start (the node's measurement begin).
    base: u64,
    buckets: Vec<SeriesBucket>,
}

/// The windowed sampler, owned by the recorder when series collection is
/// on. Feeds from the same event stream as the ring buffers.
#[derive(Debug, Clone)]
pub struct SeriesRec {
    window_ns: u64,
    nodes: Vec<NodeSeries>,
}

/// Cap on windows per node, to bound memory if a run is far longer than
/// the chosen window width. Later events collapse into the last window.
const MAX_WINDOWS: usize = 1 << 20;

impl SeriesRec {
    /// A sampler with the given window width (ns, must be nonzero).
    pub fn new(nodes: usize, window_ns: u64) -> SeriesRec {
        SeriesRec {
            window_ns: window_ns.max(1),
            nodes: vec![NodeSeries::default(); nodes],
        }
    }

    /// Reset a node at measurement begin: clear windows, anchor window 0.
    pub fn note_begin(&mut self, node: usize, ts: u64) {
        let n = &mut self.nodes[node];
        n.base = ts;
        n.buckets.clear();
    }

    /// Fold one recorded event into its window.
    pub fn add(&mut self, node: usize, ts: u64, kind: &EventKind) {
        let (msgs, faults, diff_bytes, stall_ns) = match *kind {
            EventKind::MsgSend { .. } => (1, 0, 0, 0),
            EventKind::FaultEnd { dur, .. } => (0, 1, 0, dur),
            EventKind::LockWait { dur, .. } | EventKind::BarrierWait { dur, .. } => (0, 0, 0, dur),
            EventKind::DiffCreate { bytes, .. } => (0, 0, bytes, 0),
            _ => return,
        };
        let n = &mut self.nodes[node];
        let idx = ((ts.saturating_sub(n.base) / self.window_ns) as usize).min(MAX_WINDOWS - 1);
        if n.buckets.len() <= idx {
            n.buckets.resize(idx + 1, SeriesBucket::default());
        }
        let b = &mut n.buckets[idx];
        b.msgs += msgs;
        b.faults += faults;
        b.diff_bytes += diff_bytes;
        b.stall_ns += stall_ns;
    }

    /// Extract the collected series.
    pub fn into_report(self) -> SeriesReport {
        SeriesReport {
            window_ns: self.window_ns,
            nodes: self
                .nodes
                .into_iter()
                .map(|n| NodeSeriesObs {
                    base_ns: n.base,
                    buckets: n.buckets,
                })
                .collect(),
        }
    }
}

/// One node's extracted series.
#[derive(Debug, Clone)]
pub struct NodeSeriesObs {
    /// Virtual time of window 0's start on this node.
    pub base_ns: u64,
    /// Consecutive windows from `base_ns`; trailing empty windows are not
    /// materialized.
    pub buckets: Vec<SeriesBucket>,
}

/// The extracted windowed time-series for a whole run.
#[derive(Debug, Clone)]
pub struct SeriesReport {
    /// Window width in virtual ns.
    pub window_ns: u64,
    /// Per-node series.
    pub nodes: Vec<NodeSeriesObs>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_end_windows() {
        let mut s = SeriesRec::new(1, 100);
        s.note_begin(0, 1_000);
        s.add(
            0,
            1_010,
            &EventKind::MsgSend {
                to: 1,
                tag: "t",
                block: None,
                ctrl: 8,
                data: 0,
            },
        );
        s.add(
            0,
            1_250,
            &EventKind::FaultEnd {
                block: 0,
                write: false,
                dur: 400,
            },
        );
        s.add(
            0,
            1_250,
            &EventKind::BarrierWait {
                barrier: 0,
                dur: 30,
            },
        );
        s.add(
            0,
            1_130,
            &EventKind::DiffCreate {
                block: 0,
                bytes: 64,
            },
        );
        s.add(0, 1_300, &EventKind::Interrupt); // not sampled
        let rep = s.into_report();
        let n = &rep.nodes[0];
        assert_eq!(n.base_ns, 1_000);
        assert_eq!(n.buckets.len(), 3);
        assert_eq!(n.buckets[0].msgs, 1);
        assert_eq!(n.buckets[1].diff_bytes, 64);
        assert_eq!(n.buckets[2].faults, 1);
        assert_eq!(n.buckets[2].stall_ns, 430);
    }

    #[test]
    fn begin_resets_windows() {
        let mut s = SeriesRec::new(1, 100);
        s.add(0, 50, &EventKind::BarrierWait { barrier: 0, dur: 5 });
        s.note_begin(0, 500);
        assert!(s.into_report().nodes[0].buckets.is_empty());
    }

    #[test]
    fn pre_base_events_clamp_to_window_zero() {
        let mut s = SeriesRec::new(1, 100);
        s.note_begin(0, 1_000);
        s.add(0, 900, &EventKind::BarrierWait { barrier: 0, dur: 5 });
        let rep = s.into_report();
        assert_eq!(rep.nodes[0].buckets[0].stall_ns, 5);
    }
}
