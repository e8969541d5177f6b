//! The fabric state machine: NI queues, channels, inflight tracking.
//!
//! [`Fabric`] is generic over the payload `P` and free of simulator
//! types beyond `NodeId`/`Time`: every entry point returns the schedule
//! actions the caller must post, which keeps the whole transport unit-
//! testable with integer payloads.
//!
//! A payload is moved, not copied, along the send path: the one deep copy
//! a reliable send makes is the retransmission source kept until the ack,
//! and an injected duplicate is the only other. The action and delivery
//! lists an outcome carries are buffers: a caller that hands them back
//! ([`Fabric::reuse_actions`], [`Fabric::reuse_deliveries`]) spares the
//! next outcome its allocation.

use std::collections::BTreeMap;

use dsm_sim::rng::{hit, roll, StableMap};
use dsm_sim::{NodeId, Time};

use crate::config::FabricConfig;

/// Decision lanes for the fault injector (one hash stream per decision).
const LANE_DROP: u64 = 1;
const LANE_DUP: u64 = 2;
const LANE_REORDER: u64 = 3;
const LANE_SPIKE: u64 = 4;
const LANE_JITTER: u64 = 5;

/// Gap between an injected duplicate and its original (ns).
const DUP_GAP_NS: u64 = 10_000;

/// One transmission attempt's fault outcome, as decided by a model-checking
/// oracle (instead of the sampled ppm dice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Drop this transmission (all copies).
    pub drop: bool,
    /// Emit a duplicate copy shortly behind the original.
    pub dup: bool,
    /// Reorder jitter added to the arrival time (0 = in order).
    pub reorder_ns: Time,
}

/// Callback consulted once per transmission attempt `(from, to, seq,
/// attempt)` when installed via [`Fabric::set_fault_oracle`]. The forced
/// post-budget attempt still bypasses it, so delivery stays guaranteed and
/// every fault schedule terminates.
pub type FaultOracle = Box<dyn FnMut(NodeId, NodeId, u64, u32) -> FaultDecision>;

/// A schedule action produced by a transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxAction<P> {
    /// Post a data frame to node `to` arriving at `at`.
    Frame {
        /// Destination node.
        to: NodeId,
        /// Arrival time at the destination NI.
        at: Time,
        /// Channel sequence number.
        seq: u64,
        /// Transmission attempt (0 = original send).
        attempt: u32,
        /// Wire size (header + control + data).
        bytes: u64,
        /// Protocol payload.
        payload: P,
    },
    /// Post a retransmission timer back to the *sender* firing at `at`.
    Timer {
        /// Fire time.
        at: Time,
        /// The frame's destination (identifies the channel).
        peer: NodeId,
        /// Channel sequence number.
        seq: u64,
        /// Attempt the timer guards.
        attempt: u32,
    },
}

/// Everything one transmission did: actions to schedule plus accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOutcome<P> {
    /// Frames and timers to post.
    pub actions: Vec<TxAction<P>>,
    /// Time the frame waited behind the send engine (ns).
    pub queue_ns: Time,
    /// The injector dropped this transmission (all copies).
    pub dropped: bool,
    /// The injector added a duplicate copy.
    pub duplicated: bool,
    /// The injector added reorder jitter.
    pub reordered: bool,
    /// The injector added a delay spike.
    pub spiked: bool,
    /// This is the forced, injector-bypassing attempt after the retry
    /// budget ran out.
    pub exhausted: bool,
}

/// Everything one frame arrival did at the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxOutcome<P> {
    /// Payloads now deliverable to the protocol layer, in channel order,
    /// each at its delivery time.
    pub deliver: Vec<(Time, P)>,
    /// When set, send an ack for this frame back to its source, departing
    /// at this time.
    pub ack_at: Option<Time>,
    /// Time the frame waited behind the receive engine (ns).
    pub queue_ns: Time,
    /// The frame was a duplicate the dedup layer discarded.
    pub duplicate: bool,
}

/// An unacknowledged reliable transmission at the sender.
#[derive(Debug, Clone)]
struct Inflight<P> {
    payload: P,
    bytes: u64,
    wire_ns: Time,
    attempt: u32,
}

/// Receiver side of one (src → dst) channel: in-order reassembly.
#[derive(Debug, Clone)]
struct RxChannel<P> {
    /// Next sequence number to deliver.
    next: u64,
    /// Frames received ahead of a gap, keyed by sequence number.
    held: BTreeMap<u64, P>,
}

impl<P> Default for RxChannel<P> {
    fn default() -> Self {
        RxChannel {
            next: 0,
            held: BTreeMap::new(),
        }
    }
}

/// The whole cluster's transport state.
pub struct Fabric<P> {
    cfg: FabricConfig,
    nodes: usize,
    /// Per-node time the send engine frees up.
    send_free: Vec<Time>,
    /// Per-node time the receive engine frees up.
    recv_free: Vec<Time>,
    /// Per-channel next send sequence number (`src * nodes + dst`).
    next_seq: Vec<u64>,
    /// Per-channel receive reassembly state (reliable mode only).
    rx: Vec<RxChannel<P>>,
    /// Unacked transmissions keyed by `(src, dst, seq)`.
    inflight: StableMap<(NodeId, NodeId, u64), Inflight<P>>,
    /// Model-checking fault oracle; replaces the ppm dice when installed.
    oracle: Option<FaultOracle>,
    /// Emptied `TxOutcome::actions` / `RxOutcome::deliver` lists handed
    /// back by the caller, for the next outcome.
    spare_actions: Vec<TxAction<P>>,
    spare_deliveries: Vec<(Time, P)>,
}

impl<P: std::fmt::Debug> std::fmt::Debug for Fabric<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("cfg", &self.cfg)
            .field("nodes", &self.nodes)
            .field("send_free", &self.send_free)
            .field("recv_free", &self.recv_free)
            .field("next_seq", &self.next_seq)
            .field("inflight", &self.inflight)
            .field("oracle", &self.oracle.as_ref().map(|_| "installed"))
            .finish_non_exhaustive()
    }
}

impl<P: Clone> Fabric<P> {
    /// A fabric for an `nodes`-node cluster.
    pub fn new(cfg: FabricConfig, nodes: usize) -> Self {
        let channels = nodes * nodes;
        Fabric {
            cfg,
            nodes,
            send_free: vec![0; nodes],
            recv_free: vec![0; nodes],
            next_seq: vec![0; channels],
            rx: vec![RxChannel::default(); channels],
            inflight: StableMap::default(),
            oracle: None,
            spare_actions: Vec::new(),
            spare_deliveries: Vec::new(),
        }
    }

    /// Hand back the action list of a [`TxOutcome`] once its actions are
    /// posted; the next transmission fills it again.
    pub fn reuse_actions(&mut self, mut actions: Vec<TxAction<P>>) {
        actions.clear();
        self.spare_actions = actions;
    }

    /// Hand back the delivery list of an [`RxOutcome`] once its payloads
    /// are posted; the next frame arrival fills it again.
    pub fn reuse_deliveries(&mut self, mut deliver: Vec<(Time, P)>) {
        deliver.clear();
        self.spare_deliveries = deliver;
    }

    /// The configuration this fabric runs.
    pub fn cfg(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Install a model-checking fault oracle: every non-forced transmission
    /// attempt consults it instead of rolling the configured ppm rates.
    /// Use with a reliable configuration (zero-rate [`crate::FaultPlan`]):
    /// retransmission is the recovery path for oracle-decided drops exactly
    /// as for sampled ones.
    pub fn set_fault_oracle(&mut self, oracle: FaultOracle) {
        self.oracle = Some(oracle);
    }

    /// Stable fingerprint of the transport state, for model-checking state
    /// deduplication. Unordered collections are combined commutatively so
    /// the hash is independent of map iteration order.
    pub fn mc_hash(&self) -> u64
    where
        P: std::hash::Hash,
    {
        use dsm_sim::rng::StableHasher;
        use std::hash::{Hash, Hasher};
        // One hasher over the ordered state: the per-node and per-channel
        // tables go in as whole slices, a held frame as its key and payload.
        let mut h = StableHasher::new();
        (&self.send_free, &self.recv_free, &self.next_seq).hash(&mut h);
        for c in &self.rx {
            h.write_u64(c.next);
            c.held.hash(&mut h);
        }
        let inflight = self.inflight.iter().fold(0, |acc, (key, e)| {
            acc ^ StableHasher::fingerprint(&(key, e.bytes, e.wire_ns, e.attempt, &e.payload))
        });
        h.write_u64(inflight);
        h.finish()
    }

    /// True when no reliable transmission is awaiting an ack.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// The attempt of `(sender → peer, seq)` awaiting an ack, if any: an ack
    /// or a timer for a frame with none changes nothing ([`Fabric::on_ack`],
    /// [`Fabric::on_timer`]), and a caller that keeps a fingerprint of the
    /// fabric can tell so without a mutable borrow.
    pub fn awaiting_ack(&self, sender: NodeId, peer: NodeId, seq: u64) -> Option<u32> {
        self.inflight.get(&(sender, peer, seq)).map(|e| e.attempt)
    }

    #[inline]
    fn chan(&self, src: NodeId, dst: NodeId) -> usize {
        src * self.nodes + dst
    }

    /// A new application send from `from` to `to` departing at `now`.
    /// `bytes` is the wire size and `wire_ns` the unloaded one-way time
    /// (the caller owns the latency model).
    pub fn on_send(
        &mut self,
        now: Time,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        wire_ns: Time,
        payload: P,
    ) -> TxOutcome<P> {
        let ch = self.chan(from, to);
        let seq = self.next_seq[ch];
        self.next_seq[ch] += 1;
        if self.cfg.reliable() {
            self.inflight.insert(
                (from, to, seq),
                Inflight {
                    payload: payload.clone(),
                    bytes,
                    wire_ns,
                    attempt: 0,
                },
            );
        }
        self.transmit(now, from, to, seq, 0, bytes, wire_ns, payload)
    }

    /// A frame arrived at `dst`'s receive NI. Returns what to deliver,
    /// whether to ack, and the queuing delay paid.
    pub fn on_frame(
        &mut self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        bytes: u64,
        payload: P,
    ) -> RxOutcome<P> {
        let (rx_done, queue_ns) = match &self.cfg.ni {
            Some(ni) => {
                let start = now.max(self.recv_free[dst]);
                let done = start + ni.rx_occupancy(bytes);
                self.recv_free[dst] = done;
                (done, start - now)
            }
            None => (now, 0),
        };
        let mut deliver = std::mem::take(&mut self.spare_deliveries);
        if !self.cfg.reliable() {
            // Lossless fabric: every frame is unique; deliver as processed.
            deliver.push((rx_done, payload));
            return RxOutcome {
                deliver,
                ack_at: None,
                queue_ns,
                duplicate: false,
            };
        }
        // Reliable path: ack everything (duplicates re-ack, in case the
        // sender retransmitted), dedup, and release in channel order.
        let ch = self.chan(src, dst);
        let c = &mut self.rx[ch];
        let duplicate = seq < c.next || c.held.contains_key(&seq);
        if !duplicate {
            if seq == c.next {
                deliver.push((rx_done, payload));
                c.next += 1;
                while let Some(held) = c.held.remove(&c.next) {
                    deliver.push((rx_done, held));
                    c.next += 1;
                }
            } else {
                c.held.insert(seq, payload);
            }
        }
        RxOutcome {
            deliver,
            ack_at: Some(rx_done),
            queue_ns,
            duplicate,
        }
    }

    /// An ack for `(sender → peer, seq)` reached the sender: the
    /// transmission is complete. Idempotent (late/duplicate acks no-op).
    pub fn on_ack(&mut self, sender: NodeId, peer: NodeId, seq: u64) {
        self.inflight.remove(&(sender, peer, seq));
    }

    /// A retransmission timer fired at `sender`. Returns the retransmission
    /// to schedule, or `None` when the frame was already acked (or a stale
    /// timer from a superseded attempt).
    pub fn on_timer(
        &mut self,
        now: Time,
        sender: NodeId,
        peer: NodeId,
        seq: u64,
        attempt: u32,
    ) -> Option<TxOutcome<P>> {
        let entry = self.inflight.get_mut(&(sender, peer, seq))?;
        if entry.attempt != attempt {
            return None;
        }
        entry.attempt += 1;
        let (next, bytes, wire_ns) = (entry.attempt, entry.bytes, entry.wire_ns);
        let payload = if next > self.cfg.retry.max_retries {
            // Budget exhausted: the forced attempt bypasses the injector
            // and is guaranteed to land, so the entry can go now.
            self.inflight
                .remove(&(sender, peer, seq))
                .expect("inflight entry vanished")
                .payload
        } else {
            entry.payload.clone()
        };
        Some(self.transmit(now, sender, peer, seq, next, bytes, wire_ns, payload))
    }

    /// One transmission attempt: serialize through the send NI, roll the
    /// injector, emit the frame (and its timer in reliable mode).
    #[allow(clippy::too_many_arguments)] // a frame's full wire identity
    fn transmit(
        &mut self,
        now: Time,
        from: NodeId,
        to: NodeId,
        seq: u64,
        attempt: u32,
        bytes: u64,
        wire_ns: Time,
        payload: P,
    ) -> TxOutcome<P> {
        let (tx_done, queue_ns) = match &self.cfg.ni {
            Some(ni) => {
                let start = now.max(self.send_free[from]);
                let done = start + ni.tx_occupancy(bytes);
                self.send_free[from] = done;
                (done, start - now)
            }
            None => (now, 0),
        };
        let exhausted = attempt > self.cfg.retry.max_retries;
        let mut out = TxOutcome {
            actions: std::mem::take(&mut self.spare_actions),
            queue_ns,
            dropped: false,
            duplicated: false,
            reordered: false,
            spiked: false,
            exhausted,
        };
        let mut arrival = tx_done + wire_ns;
        if let Some(oracle) = self.oracle.as_mut().filter(|_| !exhausted) {
            // Model-checked runs: the oracle decides, the dice stay unrolled.
            let d = oracle(from, to, seq, attempt);
            out.dropped = d.drop;
            out.duplicated = d.dup;
            out.reordered = d.reorder_ns > 0;
            arrival += d.reorder_ns;
        } else if let Some(f) = self.cfg.faults.as_ref().filter(|_| !exhausted) {
            let id = (from as u64, to as u64, seq, u64::from(attempt));
            let r = |lane| roll(f.seed, lane, id.0, id.1, id.2, id.3);
            out.dropped = hit(r(LANE_DROP), f.drop_ppm);
            out.duplicated = hit(r(LANE_DUP), f.dup_ppm);
            out.reordered = hit(r(LANE_REORDER), f.reorder_ppm);
            out.spiked = hit(r(LANE_SPIKE), f.spike_ppm);
            if out.reordered {
                arrival += 1 + r(LANE_JITTER) % f.reorder_jitter_ns.max(1);
            }
            if out.spiked {
                arrival += f.spike_ns;
            }
        }
        if !out.dropped {
            // The payload moves into its frame; an injected duplicate is
            // the one copy made here.
            let copy = out.duplicated.then(|| payload.clone());
            let frame = |at, payload| TxAction::Frame {
                to,
                at,
                seq,
                attempt,
                bytes,
                payload,
            };
            out.actions.push(frame(arrival, payload));
            if let Some(copy) = copy {
                out.actions.push(frame(arrival + DUP_GAP_NS, copy));
            }
        }
        if self.cfg.reliable() && !exhausted {
            out.actions.push(TxAction::Timer {
                at: tx_done + self.cfg.retry.timeout_for(attempt),
                peer: to,
                seq,
                attempt,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPlan, RetryPolicy};

    fn frames(out: &TxOutcome<u32>) -> Vec<(Time, u64, u32)> {
        out.actions
            .iter()
            .filter_map(|a| match a {
                TxAction::Frame {
                    at, seq, attempt, ..
                } => Some((*at, *seq, *attempt)),
                _ => None,
            })
            .collect()
    }

    fn timers(out: &TxOutcome<u32>) -> Vec<(Time, u64, u32)> {
        out.actions
            .iter()
            .filter_map(|a| match a {
                TxAction::Timer {
                    at, seq, attempt, ..
                } => Some((*at, *seq, *attempt)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn contended_serializes_back_to_back_sends() {
        let mut f: Fabric<u32> = Fabric::new(FabricConfig::contended(), 2);
        // 100-byte frames: 1000 + 250 ns NI occupancy each.
        let a = f.on_send(0, 0, 1, 100, 30_000, 1);
        let b = f.on_send(0, 0, 1, 100, 30_000, 2);
        assert_eq!(a.queue_ns, 0);
        assert_eq!(b.queue_ns, 1_250); // waited for the first frame
        assert_eq!(frames(&a), vec![(31_250, 0, 0)]);
        assert_eq!(frames(&b), vec![(32_500, 1, 0)]);
        assert!(timers(&a).is_empty()); // lossless: no reliability
                                        // Receive side serializes too.
        let ra = f.on_frame(31_250, 0, 1, 0, 100, 1);
        let rb = f.on_frame(31_250, 0, 1, 1, 100, 2);
        assert_eq!(ra.deliver, vec![(32_500, 1)]);
        assert_eq!(rb.queue_ns, 1_250);
        assert_eq!(rb.deliver, vec![(33_750, 2)]);
        assert!(ra.ack_at.is_none());
    }

    #[test]
    fn ideal_config_adds_nothing() {
        let mut f: Fabric<u32> = Fabric::new(FabricConfig::ideal(), 2);
        let out = f.on_send(500, 0, 1, 4_000, 100_000, 9);
        assert_eq!(out.queue_ns, 0);
        assert_eq!(frames(&out), vec![(100_500, 0, 0)]);
        let rx = f.on_frame(100_500, 0, 1, 0, 4_000, 9);
        assert_eq!(rx.deliver, vec![(100_500, 9)]);
        assert_eq!(rx.queue_ns, 0);
    }

    /// A lossless reliable config (zero fault rates, but the machinery on).
    fn reliable_quiet() -> FabricConfig {
        FabricConfig {
            ni: None,
            faults: Some(FaultPlan {
                seed: 3,
                drop_ppm: 0,
                dup_ppm: 0,
                reorder_ppm: 0,
                spike_ppm: 0,
                ..FaultPlan::default()
            }),
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn ack_cancels_retransmission() {
        let mut f: Fabric<u32> = Fabric::new(reliable_quiet(), 2);
        let out = f.on_send(0, 0, 1, 64, 30_000, 7);
        assert_eq!(frames(&out), vec![(30_000, 0, 0)]);
        assert_eq!(timers(&out), vec![(2_000_000, 0, 0)]);
        let rx = f.on_frame(30_000, 0, 1, 0, 64, 7);
        assert_eq!(rx.deliver, vec![(30_000, 7)]);
        assert_eq!(rx.ack_at, Some(30_000));
        f.on_ack(0, 1, 0);
        assert!(f.idle());
        assert!(f.on_timer(2_000_000, 0, 1, 0, 0).is_none());
    }

    #[test]
    fn timeout_retransmits_with_backoff_until_forced() {
        let cfg = FabricConfig {
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            ..reliable_quiet()
        };
        let mut f: Fabric<u32> = Fabric::new(cfg, 2);
        f.on_send(0, 0, 1, 64, 30_000, 7);
        let r1 = f.on_timer(2_000_000, 0, 1, 0, 0).unwrap();
        assert!(!r1.exhausted);
        assert_eq!(frames(&r1), vec![(2_030_000, 0, 1)]);
        assert_eq!(timers(&r1), vec![(6_000_000, 0, 1)]); // 4 ms backoff
        assert!(f.on_timer(2_000_000, 0, 1, 0, 0).is_none()); // stale
        let r2 = f.on_timer(6_000_000, 0, 1, 0, 1).unwrap();
        assert!(!r2.exhausted);
        let r3 = f.on_timer(14_000_000, 0, 1, 0, 2).unwrap();
        assert!(r3.exhausted); // attempt 3 > max_retries 2: forced
        assert!(timers(&r3).is_empty());
        assert_eq!(frames(&r3), vec![(14_030_000, 0, 3)]);
        assert!(f.idle()); // forced attempt retires the entry
    }

    #[test]
    fn receiver_dedups_and_reassembles_in_order() {
        let mut f: Fabric<u32> = Fabric::new(reliable_quiet(), 2);
        for v in 0..3 {
            f.on_send(0, 0, 1, 64, 1_000, v);
        }
        // Frame 1 arrives first: held, acked, nothing delivered.
        let r = f.on_frame(1_000, 0, 1, 1, 64, 1);
        assert!(r.deliver.is_empty());
        assert_eq!(r.ack_at, Some(1_000));
        // Duplicate of the held frame: discarded, re-acked.
        let r = f.on_frame(1_100, 0, 1, 1, 64, 1);
        assert!(r.duplicate && r.deliver.is_empty());
        // Frame 0 fills the gap: 0 and 1 released in order.
        let r = f.on_frame(1_200, 0, 1, 0, 64, 0);
        assert_eq!(r.deliver, vec![(1_200, 0), (1_200, 1)]);
        // Frame 2 flows straight through; a late copy of 0 is a duplicate.
        let r = f.on_frame(1_300, 0, 1, 2, 64, 2);
        assert_eq!(r.deliver, vec![(1_300, 2)]);
        assert!(f.on_frame(1_400, 0, 1, 0, 64, 0).duplicate);
    }

    #[test]
    fn forced_attempt_bypasses_injector() {
        // Drop everything; one retry.
        let cfg = FabricConfig {
            ni: None,
            faults: Some(FaultPlan {
                seed: 9,
                drop_ppm: 1_000_000,
                dup_ppm: 0,
                reorder_ppm: 0,
                spike_ppm: 0,
                ..FaultPlan::default()
            }),
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
        };
        let mut f: Fabric<u32> = Fabric::new(cfg, 2);
        let s = f.on_send(0, 0, 1, 64, 1_000, 5);
        assert!(s.dropped && frames(&s).is_empty());
        assert_eq!(timers(&s).len(), 1);
        let r1 = f.on_timer(2_000_000, 0, 1, 0, 0).unwrap();
        assert!(r1.dropped && frames(&r1).is_empty());
        let r2 = f.on_timer(6_000_000, 0, 1, 0, 1).unwrap();
        assert!(r2.exhausted && !r2.dropped);
        assert_eq!(frames(&r2).len(), 1); // guaranteed delivery
    }

    #[test]
    fn duplicate_injection_produces_two_copies() {
        let cfg = FabricConfig {
            ni: None,
            faults: Some(FaultPlan {
                seed: 4,
                drop_ppm: 0,
                dup_ppm: 1_000_000,
                reorder_ppm: 0,
                spike_ppm: 0,
                ..FaultPlan::default()
            }),
            retry: RetryPolicy::default(),
        };
        let mut f: Fabric<u32> = Fabric::new(cfg, 2);
        let s = f.on_send(0, 0, 1, 64, 1_000, 5);
        assert!(s.duplicated);
        let fr = frames(&s);
        assert_eq!(fr.len(), 2);
        assert_eq!(fr[1].0, fr[0].0 + DUP_GAP_NS);
        // Receiver delivers exactly one copy.
        let a = f.on_frame(fr[0].0, 0, 1, 0, 64, 5);
        let b = f.on_frame(fr[1].0, 0, 1, 0, 64, 5);
        assert_eq!(a.deliver.len(), 1);
        assert!(b.duplicate && b.deliver.is_empty());
    }

    /// A payload that counts how often it is deep-copied.
    #[derive(Debug)]
    struct Counted(std::rc::Rc<std::cell::Cell<usize>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn a_send_copies_its_payload_once_for_retransmission_and_once_per_duplicate() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let payload = || Counted(clones.clone());
        // Lossless fabric: nothing to retransmit, nothing copied.
        let mut f: Fabric<Counted> = Fabric::new(FabricConfig::contended(), 2);
        let out = f.on_send(0, 0, 1, 64, 1_000, payload());
        assert_eq!((out.actions.len(), clones.get()), (1, 0));
        // Reliable fabric: the one copy is the retransmission source.
        let cfg = FabricConfig {
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..reliable_quiet()
        };
        let mut f: Fabric<Counted> = Fabric::new(cfg, 2);
        f.set_fault_oracle(Box::new(|_, _, seq, _| FaultDecision {
            dup: seq == 1,
            ..FaultDecision::default()
        }));
        let out = f.on_send(0, 0, 1, 64, 1_000, payload());
        assert_eq!((out.actions.len(), clones.get()), (2, 1), "frame + timer");
        // An injected duplicate is one more.
        let out = f.on_send(0, 0, 1, 64, 1_000, payload());
        assert!(out.duplicated);
        assert_eq!(
            (out.actions.len(), clones.get()),
            (3, 3),
            "2 frames + timer"
        );
        // A retransmission inside the budget copies the kept source; the
        // forced final attempt takes the source itself.
        f.on_timer(2_000_000, 0, 1, 0, 0).unwrap();
        assert_eq!(clones.get(), 4);
        let last = f.on_timer(6_000_000, 0, 1, 0, 1).unwrap();
        assert!(last.exhausted);
        assert_eq!(clones.get(), 4);
    }

    #[test]
    fn handed_back_buffers_carry_the_next_outcome() {
        let mut f: Fabric<u32> = Fabric::new(reliable_quiet(), 2);
        let mut out = f.on_send(0, 0, 1, 64, 1_000, 7);
        out.actions.reserve(30);
        let (at, room) = (out.actions.as_ptr(), out.actions.capacity());
        f.reuse_actions(out.actions);
        let out = f.on_send(0, 0, 1, 64, 1_000, 8);
        assert_eq!(frames(&out), vec![(1_000, 1, 0)], "handed back emptied");
        assert_eq!((out.actions.as_ptr(), out.actions.capacity()), (at, room));
        let rx = f.on_frame(1_000, 0, 1, 0, 64, 7);
        let at = rx.deliver.as_ptr();
        f.reuse_deliveries(rx.deliver);
        let rx = f.on_frame(1_000, 0, 1, 1, 64, 8);
        assert_eq!(rx.deliver, vec![(1_000, 8)]);
        assert_eq!(rx.deliver.as_ptr(), at);
    }

    #[test]
    fn fault_oracle_replaces_the_dice() {
        let mut f: Fabric<u32> = Fabric::new(reliable_quiet(), 2);
        f.set_fault_oracle(Box::new(|_, _, seq, attempt| match (seq, attempt) {
            (0, 0) => FaultDecision {
                drop: true,
                ..FaultDecision::default()
            },
            (1, 0) => FaultDecision {
                dup: true,
                ..FaultDecision::default()
            },
            (2, 0) => FaultDecision {
                reorder_ns: 500,
                ..FaultDecision::default()
            },
            _ => FaultDecision::default(),
        }));
        let a = f.on_send(0, 0, 1, 64, 1_000, 1);
        assert!(a.dropped && frames(&a).is_empty());
        assert_eq!(timers(&a).len(), 1, "retransmission recovers the drop");
        let b = f.on_send(0, 0, 1, 64, 1_000, 2);
        assert!(b.duplicated);
        assert_eq!(frames(&b).len(), 2);
        let c = f.on_send(0, 0, 1, 64, 1_000, 3);
        assert!(c.reordered);
        assert_eq!(frames(&c), vec![(1_500, 2, 0)]);
        // The retransmission of the dropped frame consults the oracle again
        // (attempt 1, decided clean above).
        let r = f.on_timer(2_000_000, 0, 1, 0, 0).unwrap();
        assert!(!r.dropped);
        assert_eq!(frames(&r), vec![(2_001_000, 0, 1)]);
    }

    #[test]
    fn mc_hash_tracks_transport_state() {
        let mut a: Fabric<u32> = Fabric::new(reliable_quiet(), 2);
        let mut b: Fabric<u32> = Fabric::new(reliable_quiet(), 2);
        assert_eq!(a.mc_hash(), b.mc_hash());
        a.on_send(0, 0, 1, 64, 1_000, 7);
        assert_ne!(a.mc_hash(), b.mc_hash(), "inflight entry changes the hash");
        b.on_send(0, 0, 1, 64, 1_000, 7);
        assert_eq!(a.mc_hash(), b.mc_hash(), "same state, same hash");
        a.on_ack(0, 1, 0);
        assert_ne!(a.mc_hash(), b.mc_hash(), "retiring the entry changes it");
    }

    #[test]
    fn channels_are_independent() {
        let mut f: Fabric<u32> = Fabric::new(reliable_quiet(), 3);
        f.on_send(0, 0, 1, 64, 1_000, 1);
        f.on_send(0, 2, 1, 64, 1_000, 2);
        // Each channel's first frame is seq 0 and delivers immediately.
        assert_eq!(f.on_frame(1_000, 0, 1, 0, 64, 1).deliver.len(), 1);
        assert_eq!(f.on_frame(1_000, 2, 1, 0, 64, 2).deliver.len(), 1);
    }

    /// No fabric configuration ever makes a frame arrive earlier than
    /// `depart + wire_ns`: NI occupancy pushes `tx_done` past the depart
    /// time, frame arrival is `tx_done + wire_ns` plus non-negative
    /// reorder-jitter/spike terms, duplicates arrive after the original,
    /// and retransmission timers fire at `tx_done + timeout` — everything
    /// only adds delay, so no configuration delivers a frame faster than
    /// the latency model's one-way time for its size. Exercised here with
    /// heavy fault rates across seeds and message sizes.
    #[test]
    fn fabric_only_adds_delay_over_the_wire_time() {
        for seed in [1u64, 7, 42, 0xBEEF] {
            let cfg = FabricConfig {
                ni: Some(crate::config::NiModel::default()),
                faults: Some(FaultPlan {
                    seed,
                    drop_ppm: 100_000,
                    dup_ppm: 100_000,
                    reorder_ppm: 300_000,
                    spike_ppm: 100_000,
                    ..FaultPlan::default()
                }),
                retry: RetryPolicy::default(),
            };
            let mut f: Fabric<u32> = Fabric::new(cfg, 4);
            let mut now = 0;
            for i in 0..500u64 {
                let (from, to) = ((i % 4) as usize, ((i + 1 + i / 4) % 4) as usize);
                if from == to {
                    continue;
                }
                let wire = 20_000 + (i % 5) * 17_000; // all >= the floor
                let out = f.on_send(now, from, to, 16 + i % 4096, wire, i as u32);
                for a in &out.actions {
                    match a {
                        TxAction::Frame { at, .. } => {
                            assert!(
                                *at >= now + wire,
                                "seed {seed}: frame at {at} < depart {now} + wire {wire}"
                            );
                        }
                        // Timers are sender-local (self-posts): they need
                        // only be non-decreasing in time.
                        TxAction::Timer { at, .. } => assert!(*at >= now),
                    }
                }
                now += 3_000 + (i % 7) * 1_000;
            }
        }
    }
}
