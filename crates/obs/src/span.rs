//! Causal spans: protocol transactions tagged with ids threaded through
//! message paths.
//!
//! When enabled ([`crate::ObsConfig::spans`]), every protocol message gets a
//! unique span id carried inside its envelope across the network fabric
//! (including retransmitted frames and service-time deferrals), and every
//! send records the id of the message whose handler performed it (its
//! *cause*). Together with the node-local execution record (compute
//! segments and wait intervals, folded from the event stream by
//! [`SpanLog::add`]; wake-ups) this reconstructs the run's complete
//! happens-before DAG, from which [`crate::critical_path`] extracts the
//! exact chain that determined parallel execution time.
//!
//! Ids and causes are not events — an id is allocated by the log and
//! travels in the envelope, a cause is the log's own state — so sends,
//! dispatches, wakes and retransmissions keep their own hooks, each a
//! single `is_some` test when spans are off. The log never charges virtual
//! time, and spans-off runs are bit-identical to builds without the
//! feature.

use crate::event::EventKind;

/// Coarse class of a spanned message, used for critical-path category
/// attribution and for naming Perfetto flow arrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClass {
    /// Data/coherence traffic: fetch requests and replies, invalidations,
    /// write-backs, diff flushes.
    Fetch,
    /// Lock protocol traffic: requests, grants, releases.
    Lock,
    /// Barrier protocol traffic: arrivals and releases.
    Barrier,
}

impl SpanClass {
    /// Stable short name (Perfetto flow-event name).
    pub fn name(&self) -> &'static str {
        match self {
            SpanClass::Fetch => "fetch",
            SpanClass::Lock => "lock",
            SpanClass::Barrier => "barrier",
        }
    }
}

/// What a node was waiting for during a recorded wait interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Remote fault stall (read or write).
    Fetch,
    /// Lock acquire wait.
    Lock,
    /// Barrier wait.
    Barrier,
}

/// One entry in the span log. Timestamps are virtual ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEv {
    /// A message left a node. `ts` is the wire departure time; `wire_ns` is
    /// the pure (uncontended) one-way latency the configuration predicts
    /// for it — zero for self-sends, which skip the network.
    Send {
        /// Span id of the message (unique, nonzero).
        id: u64,
        /// Span id of the message whose handler performed this send, or 0
        /// for node-local sends (fault requests, lock/barrier calls,
        /// release-time flushes issued by the application thread).
        cause: u64,
        /// Sending node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Departure time (virtual ns).
        ts: u64,
        /// Predicted uncontended one-way wire latency (ns).
        wire_ns: u64,
        /// Message class.
        class: SpanClass,
    },
    /// A message was dispatched to its protocol handler at `node`. Recorded
    /// at final dispatch: service-time and delayed-invalidation deferrals
    /// have already been applied, so `ts - send.ts - wire_ns` is the
    /// occupancy (queuing, deferral, retransmission) the message absorbed.
    Recv {
        /// Span id of the message.
        id: u64,
        /// Receiving node.
        node: usize,
        /// Dispatch time (virtual ns).
        ts: u64,
    },
    /// A blocked node was woken, ending its current wait at `ts`. `cause`
    /// is the span id of the message whose handler issued the wake.
    Wake {
        /// Woken node.
        node: usize,
        /// Scheduled resume time (virtual ns).
        ts: u64,
        /// Span id of the waking message (0 if none was being handled).
        cause: u64,
    },
    /// The fabric retransmitted the frame carrying span `id`.
    Retx {
        /// Span id of the retransmitted message.
        id: u64,
        /// Retransmission departure time (virtual ns).
        ts: u64,
    },
    /// A node advanced its local clock (compute or local protocol work)
    /// over `[ts - dur, ts]`. Occupancy stolen from the segment afterwards
    /// is *not* included: gaps between consecutive node-local intervals are
    /// exactly the stolen occupancy.
    Seg {
        /// Advancing node.
        node: usize,
        /// Segment end (virtual ns).
        ts: u64,
        /// Segment length (ns).
        dur: u64,
    },
    /// A node's blocking wait ended: the interval `[ts - dur, ts]` was
    /// spent stalled on `kind`.
    Wait {
        /// Waiting node.
        node: usize,
        /// Wait end (virtual ns).
        ts: u64,
        /// Wait length (ns).
        dur: u64,
        /// What the node was waiting for.
        kind: WaitKind,
    },
    /// A node finished its measured region.
    End {
        /// Finishing node.
        node: usize,
        /// Completion time (virtual ns).
        ts: u64,
    },
}

impl SpanEv {
    /// The event's timestamp.
    pub fn ts(&self) -> u64 {
        match *self {
            SpanEv::Send { ts, .. }
            | SpanEv::Recv { ts, .. }
            | SpanEv::Wake { ts, .. }
            | SpanEv::Retx { ts, .. }
            | SpanEv::Seg { ts, .. }
            | SpanEv::Wait { ts, .. }
            | SpanEv::End { ts, .. } => ts,
        }
    }
}

/// The complete span log of one run: a flat, append-only event list in
/// recording order. Never ring-dropped — critical-path extraction needs the
/// full happens-before DAG.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    /// All recorded span events, in recording order.
    pub events: Vec<SpanEv>,
    next_id: u64,
    cur: u64,
}

impl SpanLog {
    /// An empty log. Ids start at 1; 0 means "no span".
    pub fn new() -> SpanLog {
        SpanLog {
            events: Vec::new(),
            next_id: 1,
            cur: 0,
        }
    }

    /// Record a send, allocating and returning the message's span id.
    pub fn send(&mut self, from: usize, to: usize, ts: u64, wire_ns: u64, class: SpanClass) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.events.push(SpanEv::Send {
            id,
            cause: self.cur,
            from,
            to,
            ts,
            wire_ns,
            class,
        });
        id
    }

    /// Record a message dispatch and mark it the current cause for sends
    /// and wakes issued by its handler.
    pub fn recv(&mut self, node: usize, ts: u64, id: u64) {
        if id != 0 {
            self.events.push(SpanEv::Recv { id, node, ts });
        }
        self.cur = id;
    }

    /// The handler finished: clear the current cause.
    pub fn dispatch_done(&mut self) {
        self.cur = 0;
    }

    /// Record a wake issued by the currently-dispatched message.
    pub fn wake(&mut self, node: usize, ts: u64) {
        self.events.push(SpanEv::Wake {
            node,
            ts,
            cause: self.cur,
        });
    }

    /// Record a frame retransmission for span `id`.
    pub fn retx(&mut self, id: u64, ts: u64) {
        if id != 0 {
            self.events.push(SpanEv::Retx { id, ts });
        }
    }

    /// Fold one protocol event into the log: a clock advance is a node-local
    /// segment, a completed fault, lock or barrier wait is a wait interval,
    /// each over `[ts - dur, ts]`. Other kinds leave the log alone.
    pub fn add(&mut self, node: usize, ts: u64, kind: &EventKind) {
        let wait = |dur, kind| SpanEv::Wait {
            node,
            ts,
            dur,
            kind,
        };
        self.events.push(match *kind {
            EventKind::Advance { dur } => SpanEv::Seg { node, ts, dur },
            EventKind::FaultEnd { dur, .. } => wait(dur, WaitKind::Fetch),
            EventKind::LockWait { dur, .. } => wait(dur, WaitKind::Lock),
            EventKind::BarrierWait { dur, .. } => wait(dur, WaitKind::Barrier),
            _ => return,
        });
    }

    /// Record the end of a node's measured region.
    pub fn end(&mut self, node: usize, ts: u64) {
        self.events.push(SpanEv::End { node, ts });
    }

    /// Number of recorded span events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut log = SpanLog::new();
        let a = log.send(0, 1, 10, 5, SpanClass::Fetch);
        let b = log.send(1, 0, 20, 5, SpanClass::Lock);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn cause_tracks_current_dispatch() {
        let mut log = SpanLog::new();
        let req = log.send(0, 1, 10, 5, SpanClass::Fetch);
        log.recv(1, 15, req);
        let reply = log.send(1, 0, 16, 5, SpanClass::Fetch);
        log.wake(0, 21);
        log.dispatch_done();
        let free = log.send(0, 2, 30, 5, SpanClass::Barrier);
        assert!(matches!(
            log.events[2],
            SpanEv::Send { id, cause, .. } if id == reply && cause == req
        ));
        assert!(matches!(
            log.events[3],
            SpanEv::Wake { cause, .. } if cause == req
        ));
        assert!(matches!(
            log.events[4],
            SpanEv::Send { id, cause: 0, .. } if id == free
        ));
    }

    #[test]
    fn advances_and_waits_fold_into_segments_and_wait_intervals() {
        let mut log = SpanLog::new();
        log.add(1, 50, &EventKind::Advance { dur: 20 });
        log.add(1, 90, &EventKind::Interrupt);
        let lock_wait = EventKind::LockWait {
            lock: 0,
            remote: true,
            dur: 30,
        };
        log.add(1, 90, &lock_wait);
        assert_eq!(
            log.events,
            vec![
                SpanEv::Seg {
                    node: 1,
                    ts: 50,
                    dur: 20
                },
                SpanEv::Wait {
                    node: 1,
                    ts: 90,
                    dur: 30,
                    kind: WaitKind::Lock
                },
            ]
        );
    }

    #[test]
    fn zero_span_recv_only_sets_cause() {
        let mut log = SpanLog::new();
        log.recv(0, 5, 0);
        assert!(log.is_empty());
    }
}
