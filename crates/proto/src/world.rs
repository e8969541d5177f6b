//! The protocol world: all shared protocol state plus message dispatch.
//!
//! Telemetry has one entry point, [`ProtoWorld::emit`]: a protocol fact is
//! reported there once, as a `dsm_obs::EventKind`, and the node counters,
//! the region counters, the sharing profile and the recorder's sinks are
//! all folds of that call. Nothing else writes `stats`, `region_stats` or
//! `profile`, or calls `obs.record` (`tools/lint_determinism.sh` holds the
//! protocol files and `dsm-core` to it). What is not an event keeps a typed
//! hook: span ids and causes (`obs.span_*`, all called from this file; a
//! handler wakes a node through [`ProtoWorld::wake`]), and the checker,
//! whose hooks all run through [`ProtoWorld::audit`] and read the world
//! they check.

use dsm_fabric::{Fabric, RxOutcome, TxAction, TxOutcome};
use dsm_mem::{Access, AccessTable, BlockId, DataStore, HomeDirectory, Layout};
use dsm_net::{LatencyModel, Notify, MSG_HEADER_BYTES};
use dsm_obs::Counters;
use dsm_obs::{EventKind, Recorder, SharingProfile};
use dsm_sim::rng::{Fingerprinted, StableHasher, StableMap};
use dsm_sim::{NodeId, Sched, Time, World};

use crate::check::RunChecker;
use crate::config::{Protocol, RunConfig};
use crate::hlrc::HlState;
use crate::lrc::NoticeLog;
use crate::msg::{Envelope, FaultKind, Packet, ProtoMsg, Service};
use crate::mutate::MutRt;
use crate::pool::{BufPool, TwinTable};
use crate::sc::ScState;
use crate::swlrc::SwState;
use crate::sync::{BarrierState, LockState, SyncObj};
use crate::tardis::TdState;
use crate::vt::VClock;
use crate::{hlrc, sc, swlrc, sync, tardis};

/// Per-node protocol runtime state.
#[derive(Debug, Hash)]
pub struct NodeRt {
    /// Vector timestamp (LRC protocols).
    pub vt: VClock,
    /// Interrupts-deferred deadline after the node obtained a block
    /// (delayed-consistency effect of interrupts, §5.4).
    pub intr_disabled_until: Time,
    /// Blocks dirtied in the current interval (LRC), deduplicated.
    pub dirty: Vec<BlockId>,
    /// HLRC: twins of blocks dirtied this interval (remote blocks only).
    pub twins: TwinTable,
    /// HLRC: blocks whose diff was flushed early (mid-interval, on an
    /// incoming notice) and must still be announced at the next release.
    pub flushed_early: Vec<BlockId>,
    /// SC: the node's outstanding fault, used to detect an invalidation
    /// racing a read grant (the grant is then discarded and retried).
    pub pending_fault: Option<(BlockId, FaultKind)>,
    /// SC: set when an invalidation hit the outstanding fault's block.
    pub fault_poisoned: bool,
    /// SC: consecutive retries of the outstanding fault (livelock guard).
    pub fault_retries: u32,
}

impl NodeRt {
    fn new(n: usize) -> Self {
        NodeRt {
            vt: VClock::new(n),
            intr_disabled_until: 0,
            dirty: Vec::new(),
            twins: TwinTable::default(),
            flushed_early: Vec::new(),
            pending_fault: None,
            fault_poisoned: false,
            fault_retries: 0,
        }
    }

    /// Record a block as dirty in the current interval (idempotent; the
    /// caller only invokes this on access-state transitions so duplicates
    /// are already rare; dedup keeps release-time work linear).
    pub fn mark_dirty(&mut self, b: BlockId) {
        if !self.dirty.contains(&b) {
            self.dirty.push(b);
        }
    }
}

/// The complete protocol world, plugged into the simulation engine.
pub struct ProtoWorld {
    /// Run configuration.
    pub cfg: RunConfig,
    /// Shared space layout: the regions and each one's coherence
    /// granularity.
    pub layout: Layout,
    /// Every node's local copy of the shared space.
    pub data: DataStore,
    /// Per-node per-block access-control state.
    pub access: Fingerprinted<AccessTable>,
    /// First-touch home directory.
    pub homes: Fingerprinted<HomeDirectory>,
    /// Per-node statistics: the fold of each node's events, written only
    /// by [`ProtoWorld::emit`].
    pub stats: Vec<Counters>,
    /// Per-node protocol runtime.
    pub nodes: Fingerprinted<Vec<NodeRt>>,
    /// SC directory state (no entries unless some region runs SC).
    pub sc: Fingerprinted<ScState>,
    /// SW-LRC ownership state (per-node vectors always; per-block tables
    /// empty unless some region runs SW-LRC).
    pub sw: Fingerprinted<SwState>,
    /// HLRC home state (likewise).
    pub hl: Fingerprinted<HlState>,
    /// Tardis timestamp-lease state (empty shell for non-Tardis runs).
    pub td: Fingerprinted<TdState>,
    /// Lock manager state, grown on demand (lock ids are dense).
    pub locks: Fingerprinted<Vec<LockState>>,
    /// Barrier manager state, keyed by barrier id (ids may be sparse, e.g.
    /// the reserved warm-up barrier).
    pub barriers: Fingerprinted<StableMap<usize, BarrierState>>,
    /// Global write-notice log indexed by (node, interval).
    pub log: Fingerprinted<NoticeLog>,
    /// Virtual time at which measurement began (see the warm-up phase).
    pub measure_start: Time,
    /// Structured event recorder (one branch per event when disabled),
    /// fed by [`ProtoWorld::emit`].
    pub obs: Recorder,
    /// Protocol per layout region (resolved from the config at build time).
    pub region_proto: Vec<Protocol>,
    /// Whether any region runs an LRC protocol (drives the sync substrate's
    /// consistency-information transport).
    pub has_lrc: bool,
    /// Whether any region runs Tardis (drives the program-timestamp
    /// piggyback on sync messages and the lazy lease-expiry check).
    pub has_tardis: bool,
    /// Per-region counters, summed over nodes: the same fold over the
    /// events that name a block of the region (sync-only messages and
    /// node-level facts carry no block and are not attributed).
    pub region_stats: Vec<Counters>,
    /// Exact fine-grain sharing profile (profiling runs only).
    pub profile: Option<SharingProfile>,
    /// Recycled byte buffers for twins and diff payloads.
    pub pool: BufPool,
    /// The network fabric (NI queues, fault injector, retransmission).
    pub fabric: Fingerprinted<Fabric<Envelope>>,
    /// Installed run-time checker, if any ([`ProtoWorld::with_check`]).
    /// Protocol code reaches it only through [`ProtoWorld::audit`], a
    /// single `is_some` test when it is absent; the checker never charges
    /// virtual time, so runs with no checker are bit-identical to checked
    /// ones.
    pub check: Option<Box<RunChecker>>,
    /// Armed protocol mutation (checker self-tests), from
    /// [`RunConfig::mutation`]. `None` leaves every mutation site inert.
    pub mutate: Option<MutRt>,
    /// Virtual time of the last application-level activity (an envelope
    /// delivered or a node clock advance). With the reliable fabric,
    /// pending retransmission timers drain past the application's real
    /// end; the runner uses this instead of the engine's final clock.
    pub quiesce: Time,
}

impl ProtoWorld {
    /// Build a world from a run configuration over `layout`; each region
    /// runs the protocol [`RunConfig::policy_of`] gives its name. All access
    /// state starts Invalid; all node copies start zeroed (use
    /// [`ProtoWorld::load_golden`] after application setup).
    pub fn new(cfg: RunConfig, layout: Layout) -> Self {
        let n = cfg.nodes;
        let nb = layout.num_blocks();
        let mut homes = HomeDirectory::new(n, nb);
        if !cfg.first_touch {
            // Ablation baseline: static round-robin homes, no migration.
            for b in 0..nb {
                homes.assign(b, b % n);
            }
        }
        let region_proto: Vec<Protocol> = layout
            .regions()
            .iter()
            .map(|r| cfg.policy_of(r.name()).0)
            .collect();
        let has_lrc = region_proto.iter().any(|p| p.is_lrc());
        let has_tardis = region_proto.contains(&Protocol::Tardis);
        // Per-block protocol state exists for the protocols some region
        // runs; the others carry tables of length 0.
        let blocks_of = |p: Protocol| if region_proto.contains(&p) { nb } else { 0 };
        ProtoWorld {
            data: DataStore::new(n, layout.clone()),
            access: Fingerprinted::new(AccessTable::new(n, nb)),
            homes: Fingerprinted::new(homes),
            stats: vec![Counters::default(); n],
            nodes: Fingerprinted::new((0..n).map(|_| NodeRt::new(n)).collect()),
            sc: Fingerprinted::new(ScState::new(blocks_of(Protocol::Sc))),
            sw: Fingerprinted::new(SwState::new(n, blocks_of(Protocol::SwLrc))),
            hl: Fingerprinted::new(HlState::new(n, blocks_of(Protocol::Hlrc))),
            td: Fingerprinted::new(TdState::new(n, nb, has_tardis)),
            locks: Fingerprinted::default(),
            barriers: Fingerprinted::default(),
            log: Fingerprinted::new(NoticeLog::new(n)),
            measure_start: 0,
            obs: Recorder::new(n, &cfg.obs),
            region_stats: vec![Counters::default(); region_proto.len()],
            profile: cfg.profile.then(|| SharingProfile::new(layout.size())),
            region_proto,
            has_lrc,
            has_tardis,
            pool: BufPool::default(),
            fabric: Fingerprinted::new(Fabric::new(cfg.fabric.clone(), n)),
            check: None,
            mutate: cfg.mutation.map(|(m, seed)| MutRt::new(m, seed)),
            quiesce: 0,
            cfg,
            layout,
        }
    }

    /// This world with the run-time checker installed, for a run of `app`
    /// (its name is quoted in race reports); the checker is sized from the
    /// world's cluster, layout and fabric.
    pub fn with_check(mut self, app: &str) -> Self {
        self.check = Some(Box::new(RunChecker::new(app, &self)));
        self
    }

    /// Run checker hook `f`, if a checker is installed, with a read-only
    /// view of this world: the one way protocol code reaches the checker.
    /// Without one this is a single `is_some` test; with one, the checker
    /// is taken out for the call and put back.
    #[inline(always)]
    pub fn audit(&mut self, f: impl FnOnce(&mut RunChecker, &ProtoWorld)) {
        if let Some(mut c) = self.check.take() {
            f(&mut c, self);
            self.check = Some(c);
        }
    }

    /// Make the golden initial image the contents of every node's copy.
    ///
    /// Access state stays Invalid everywhere: cold faults still happen and
    /// still move (identical) data, so fault and traffic counts are
    /// faithful while values are trivially correct. The image is kept once;
    /// a node's copy of a block is filled from it when the node is first
    /// granted access ([`ProtoWorld::grant`]) or receives the block.
    pub fn load_golden(&mut self, image: Vec<u8>) {
        self.data.load_image(image);
    }

    /// Give `node` access `a` — `Read` or `ReadWrite` — to block `b`, whose
    /// bytes its copy holds from here on. The only way protocol code raises
    /// or keeps an access (`access.set` is for `Invalid`;
    /// `tools/lint_determinism.sh` holds the protocol files to it): a first
    /// toucher that claims a home, or is granted an unclaimed block, gets no
    /// data message, and its bytes are the golden image's.
    #[inline]
    pub fn grant(&mut self, node: NodeId, b: BlockId, a: Access) {
        debug_assert_ne!(a, Access::Invalid, "grant of no access");
        self.data.ensure(node, b);
        self.access.set(node, b, a);
    }

    /// Block size of block `b`'s region.
    #[inline]
    pub fn block_size_of(&self, b: BlockId) -> usize {
        self.layout.block_size_of(b)
    }

    /// Index of the region containing block `b`.
    #[inline]
    pub fn region_of(&self, b: BlockId) -> usize {
        self.layout.region_of_block(b)
    }

    /// The protocol governing block `b` (mixed-mode dispatch point).
    #[inline]
    pub fn protocol_of(&self, b: BlockId) -> Protocol {
        self.region_proto[self.region_of(b)]
    }

    /// Report one protocol fact, once: every sink derives what it keeps from
    /// this call. The event is folded into `node`'s counters and, when it
    /// names a block, into the counters of the block's region; a fault is
    /// noted in the sharing profile; and the recorder takes the event for
    /// its rings, per-kind counts, histograms, series, trace view and span
    /// segments and waits. Call sites pass a literal variant, so — inlined,
    /// which `inline(always)` here and on the fold guarantees — this is the
    /// increments the variant names and the recorder's one branch.
    #[inline(always)]
    pub fn emit(&mut self, node: NodeId, ts: Time, ev: EventKind) {
        ev.count(&mut self.stats[node]);
        if let Some(b) = ev.block() {
            let r = self.region_of(b);
            ev.count(&mut self.region_stats[r]);
            let faulted = match ev {
                EventKind::FaultBegin { write, .. } => Some(write),
                EventKind::LocalFault { .. } => Some(true),
                _ => None,
            };
            if let (Some(p), Some(write)) = (self.profile.as_mut(), faulted) {
                let r = self.layout.block_range(b);
                p.note(node, r.start, r.end, write);
            }
        }
        self.obs.record(node, ts, ev);
    }

    /// Report a batch of `n` write notices published by (`acquire` false)
    /// or processed at (`acquire` true) `node`. An empty batch is not an
    /// event.
    #[inline]
    pub fn emit_notices(&mut self, node: NodeId, ts: Time, n: usize, acquire: bool) {
        if n > 0 {
            let count = n as u64;
            self.emit(node, ts, EventKind::WriteNotices { count, acquire });
        }
    }

    /// Wake blocked `node` at `at`, on behalf of the message being handled
    /// (which the span log records as the wake's cause).
    #[inline]
    pub fn wake(&mut self, s: &mut Sched<Packet>, node: NodeId, at: Time) {
        self.obs.span_wake(node, at);
        s.wake(node, at);
    }

    /// Start `me`'s measured phase at `now`: zero its statistics (the one
    /// reset of the fold), discard what the recorder holds for it, arm the
    /// checker.
    pub fn begin_measurement(&mut self, me: NodeId, now: Time) {
        self.stats[me] = Counters::default();
        self.obs.note_begin(me, now);
        self.audit(|c, _| c.arm(me, now));
        self.measure_start = self.measure_start.max(now);
    }

    /// Stable fingerprint of everything that determines future protocol
    /// behavior, for model-checker state deduplication. Two worlds with
    /// equal fingerprints (at the same engine state) explore identical
    /// subtrees, so one can be pruned.
    ///
    /// Deliberately excluded: statistics, the observability recorder, the
    /// sharing profile, the buffer pool, and `measure_start` — none of
    /// them feed back into protocol decisions. The checker digest IS
    /// included so a pruned prefix cannot hide a later violation.
    ///
    /// Each component contributes one word, cached by its
    /// [`Fingerprinted`] wrapper until the component's next mutable borrow
    /// (the store keeps its own per-block cache), so a call re-hashes only
    /// what changed since the last one.
    pub fn mc_fingerprint(&self) -> u64 {
        use dsm_sim::rng::fold64;
        let mut h = StableHasher::fingerprint(&(
            &self.data,
            &self.access,
            &self.homes,
            &self.nodes,
            &self.sc,
            &self.sw,
            &self.hl,
            &self.td,
            &self.locks,
            &self.log,
        ));
        // Barriers are keyed; XOR-fold the entries so insertion order
        // cannot leak into the fingerprint.
        let bars = self.barriers.fingerprint_with(|bars| {
            bars.iter()
                .fold(0, |acc, e| acc ^ StableHasher::fingerprint(&e))
        });
        h = fold64(h, bars);
        h = fold64(h, self.fabric.fingerprint_with(Fabric::mc_hash));
        h = fold64(h, self.quiesce);
        if let Some(m) = &self.mutate {
            h = fold64(h, StableHasher::fingerprint(m));
        }
        if let Some(c) = &self.check {
            h = fold64(h, c.mc_fingerprint());
        }
        h
    }

    /// Ensure lock `l` exists.
    pub fn lock_mut(&mut self, l: usize) -> &mut LockState {
        if self.locks.len() <= l {
            self.locks.resize_with(l + 1, LockState::default);
        }
        &mut self.locks[l]
    }

    /// Ensure barrier `b` exists.
    pub fn barrier_mut(&mut self, b: usize) -> &mut BarrierState {
        self.barriers.entry(b).or_default()
    }

    /// Send a protocol message. Its size is the header plus what
    /// [`ProtoMsg::wire_bytes`] states, split into control and data bytes
    /// for traffic accounting. Self-sends skip the network and its
    /// accounting entirely and are delivered at `depart` (the local handler
    /// turnaround).
    pub fn send(
        &mut self,
        s: &mut Sched<Packet>,
        from: NodeId,
        to: NodeId,
        depart: Time,
        msg: ProtoMsg,
    ) {
        if from == to {
            let span = self.obs.span_send(from, to, depart, 0, msg.span_class());
            s.post(
                to,
                depart,
                Packet::App(Envelope::immediate(msg).with_span(span)),
            );
            return;
        }
        let (ctrl, data) = msg.wire_bytes(&self.layout);
        self.emit(
            from,
            depart,
            EventKind::MsgSend {
                to,
                tag: msg.tag(),
                block: msg.concerns_block(),
                ctrl: ctrl + MSG_HEADER_BYTES,
                data,
            },
        );
        let bytes = MSG_HEADER_BYTES + ctrl + data;
        let wire = LatencyModel::default().one_way(bytes);
        let span = self.obs.span_send(from, to, depart, wire, msg.span_class());
        if self.cfg.fabric.is_ideal() {
            // The analytic fast path: one event per message, posted exactly
            // as before the fabric existed (bit-for-bit invariant).
            s.post(
                to,
                depart + wire,
                Packet::App(Envelope::new(msg).with_span(span)),
            );
            return;
        }
        let out = self.fabric.on_send(
            depart,
            from,
            to,
            bytes,
            wire,
            Envelope::new(msg).with_span(span),
        );
        self.apply_tx(s, from, out);
    }

    /// Account a transmission's outcome and post its frames and timers.
    fn apply_tx(&mut self, s: &mut Sched<Packet>, from: NodeId, mut out: TxOutcome<Envelope>) {
        let now = s.now();
        self.emit(
            from,
            now,
            EventKind::FrameTx {
                dropped: out.dropped,
                duplicated: out.duplicated,
                exhausted: out.exhausted,
            },
        );
        if out.queue_ns > 0 {
            self.emit(from, now, EventKind::NetQueue { dur: out.queue_ns });
        }
        for a in out.actions.drain(..) {
            match a {
                TxAction::Frame {
                    to,
                    at,
                    seq,
                    attempt,
                    bytes,
                    payload,
                } => {
                    if attempt > 0 {
                        self.obs.span_retx(payload.span, at);
                    }
                    s.post(
                        to,
                        at,
                        Packet::Frame {
                            src: from,
                            seq,
                            attempt,
                            bytes,
                            env: payload,
                        },
                    )
                }
                TxAction::Timer {
                    at,
                    peer,
                    seq,
                    attempt,
                } => s.post(from, at, Packet::Timer { peer, seq, attempt }),
            }
        }
        self.fabric.reuse_actions(out.actions);
    }

    /// A fabric frame reached `to`'s receive NI: dedup/reassemble, ack,
    /// and release deliverable envelopes as `App` packets.
    fn frame_arrived(
        &mut self,
        s: &mut Sched<Packet>,
        to: NodeId,
        src: NodeId,
        seq: u64,
        bytes: u64,
        env: Envelope,
    ) {
        let now = s.now();
        let RxOutcome {
            mut deliver,
            ack_at,
            queue_ns,
            duplicate,
        } = self.fabric.on_frame(now, src, to, seq, bytes, env);
        let acked = ack_at.is_some();
        self.emit(to, now, EventKind::FrameRx { duplicate, acked });
        if queue_ns > 0 {
            self.emit(to, now, EventKind::NetQueue { dur: queue_ns });
        }
        if let Some(at) = ack_at {
            let ack_wire = LatencyModel::default().one_way(self.cfg.fabric.retry.ack_bytes);
            s.post(src, at + ack_wire, Packet::Ack { from: to, seq });
        }
        let mut posted = deliver.len();
        if let Some(m) = self.mutate.as_mut() {
            use crate::mutate::Mutation;
            // Model a misbehaving transport: a duplicate slipping past
            // suppression, or a held out-of-order frame released early.
            // Only the delivery report is corrupted; see `crate::mutate`.
            if m.fire_if(Mutation::FabricDupDeliver, duplicate)
                || m.fire_if(Mutation::FabricReorder, !duplicate && deliver.is_empty())
            {
                posted += 1;
            }
        }
        self.audit(|c, w| c.fabric_frame(w, src, to, seq, posted, now));
        for (at, env) in deliver.drain(..) {
            s.post(to, at, Packet::App(env));
        }
        self.fabric.reuse_deliveries(deliver);
    }

    /// Charge `node` the occupancy of copying block `b` between its memory
    /// and the network interface (a block put on, or taken off, the wire),
    /// and return the copy time.
    pub fn charge_block_copy(&mut self, s: &mut Sched<Packet>, node: NodeId, b: BlockId) -> Time {
        let c = self.cfg.cost.copy_cost(self.block_size_of(b) as u64);
        self.occupy(s, node, c);
        c
    }

    /// Charge `cost` ns of request-service occupancy to a node that is
    /// currently computing (no-op for blocked/done nodes, whose spin loop
    /// absorbs the work).
    pub fn occupy(&mut self, s: &mut Sched<Packet>, node: NodeId, cost: Time) {
        let now = s.now();
        let mut stolen_ns = 0;
        if let Some(r) = s.resume_at(node) {
            // The node is mid-compute-segment: the delay extends that
            // segment by exactly `cost` (`r >= now` always holds, because a
            // Ready node with an earlier resume time would already have been
            // resumed before this delivery). Blocked/done nodes absorb the
            // service inside their measured stall windows instead.
            stolen_ns = cost;
            s.delay(node, r.max(now) + cost);
        }
        self.emit(
            node,
            now,
            EventKind::Service {
                ns: cost,
                stolen_ns,
            },
        );
    }

    /// Mark that `node` just obtained a block (fault completed): under the
    /// interrupt mechanism further asynchronous requests to it are deferred
    /// for the grace window.
    pub fn block_obtained(&mut self, s: &Sched<Packet>, node: NodeId) {
        if self.cfg.notify == Notify::Interrupt {
            self.nodes[node].intr_disabled_until = s.now() + self.cfg.cost.intr_grace_ns;
        }
    }

    /// The home a requester should target for a block: the claimed home if
    /// known, otherwise the static directory node (interim home).
    pub fn route_home(&self, b: BlockId) -> NodeId {
        self.homes
            .home(b)
            .unwrap_or_else(|| self.homes.directory_node(b))
    }
}

impl World for ProtoWorld {
    type Msg = Packet;

    fn deliver(&mut self, s: &mut Sched<Packet>, to: NodeId, pkt: Packet) {
        let env = match pkt {
            Packet::App(env) => env,
            Packet::Frame {
                src,
                seq,
                attempt: _,
                bytes,
                env,
            } => return self.frame_arrived(s, to, src, seq, bytes, env),
            // Most timers find their frame acked, and a duplicate ack finds
            // it gone: neither changes the fabric, so neither borrows it
            // mutably and spends its cached fingerprint.
            Packet::Ack { from, seq } => {
                if self.fabric.awaiting_ack(to, from, seq).is_some() {
                    self.fabric.on_ack(to, from, seq);
                }
                return;
            }
            Packet::Timer { peer, seq, attempt } => {
                if self.fabric.awaiting_ack(to, peer, seq) != Some(attempt) {
                    return;
                }
                let now = s.now();
                if let Some(out) = self.fabric.on_timer(now, to, peer, seq, attempt) {
                    self.emit(
                        to,
                        now,
                        EventKind::Retransmit {
                            to: peer,
                            seq,
                            attempt: attempt + 1,
                        },
                    );
                    self.apply_tx(s, to, out);
                }
                return;
            }
        };
        self.quiesce = self.quiesce.max(s.now());
        // One-shot service-time deferral for asynchronous requests arriving
        // at a node that is busy computing.
        let service = env.msg.service();
        if !env.deferred
            && service != Service::Reply
            && !s.is_blocked(to)
            && s.resume_at(to).is_some()
        {
            let svc = self.cfg.cost.async_service_time(
                s.now(),
                self.cfg.notify,
                self.nodes[to].intr_disabled_until,
            );
            if svc > s.now() {
                if self.cfg.notify == Notify::Interrupt {
                    self.emit(to, s.now(), EventKind::Interrupt);
                }
                s.post(
                    to,
                    svc,
                    Packet::App(Envelope {
                        msg: env.msg,
                        deferred: true,
                        span: env.span,
                    }),
                );
                return;
            }
        }
        // Delayed-consistency extension: coherence-destroying requests
        // (invalidations, fetch-backs) are additionally deferred by a fixed
        // window, batching the holder's accesses (Dubois et al.; the
        // paper's §7 future work). One-shot like the service deferral.
        if !env.deferred
            && self.cfg.cost.delayed_inval_ns > 0
            && matches!(
                env.msg,
                ProtoMsg::ScInval { .. } | ProtoMsg::ScFetchBack { .. }
            )
        {
            let at = s.now() + self.cfg.cost.delayed_inval_ns;
            s.post(
                to,
                at,
                Packet::App(Envelope {
                    msg: env.msg,
                    deferred: true,
                    span: env.span,
                }),
            );
            return;
        }
        // Feeds no counter, and `tag()` is not free: only built when some
        // sink will look at it.
        if self.obs.is_active() {
            self.emit(
                to,
                s.now(),
                EventKind::MsgRecv {
                    tag: env.msg.tag(),
                    block: env.msg.concerns_block(),
                },
            );
        }
        // Final dispatch: record the span arrival (deferrals already
        // applied) and make this message the causal parent of everything
        // its handler sends or wakes.
        if self.obs.spans_on() {
            let now = s.now();
            self.obs.span_recv(to, now, env.span);
        }
        match service {
            Service::Handler => self.occupy(s, to, self.cfg.cost.handler_ns),
            Service::SyncHandler => self.occupy(s, to, self.cfg.cost.sync_handler_ns),
            Service::Reply | Service::OwnCost => {}
        }
        match env.msg {
            // SC
            ProtoMsg::ScReadReq { from, block } => {
                sc::handle_request(self, s, to, from, block, FaultKind::Read);
            }
            ProtoMsg::ScWriteReq { from, block } => {
                sc::handle_request(self, s, to, from, block, FaultKind::Write);
            }
            ProtoMsg::ScFetchBack { block } => {
                sc::handle_fetch_back(self, s, to, block);
            }
            ProtoMsg::ScInval { block } => {
                sc::handle_inval(self, s, to, block);
            }
            ProtoMsg::ScWriteBack {
                from,
                block,
                invalidated,
            } => {
                sc::handle_write_back(self, s, to, from, block, invalidated);
            }
            ProtoMsg::ScInvalAck { from, block } => {
                sc::handle_inval_ack(self, s, to, from, block);
            }
            ProtoMsg::ScGrant {
                block,
                exclusive,
                with_data,
                home,
            } => {
                sc::handle_grant(self, s, to, block, exclusive, with_data, home);
            }
            ProtoMsg::ScNowHome { block, kind } => {
                sc::handle_now_home(self, s, to, block, kind);
            }
            ProtoMsg::ScGrantAck { from, block } => {
                sc::handle_grant_ack(self, s, to, from, block);
            }
            // SW-LRC
            ProtoMsg::SwReq {
                from,
                block,
                kind,
                hops,
            } => {
                swlrc::handle_request(self, s, to, from, block, kind, hops);
            }
            ProtoMsg::SwReply {
                block,
                version,
                ownership,
                owner,
            } => {
                swlrc::handle_reply(self, s, to, block, version, ownership, owner);
            }
            ProtoMsg::SwNowOwner { block } => {
                swlrc::handle_now_owner(self, s, to, block);
            }
            // HLRC
            ProtoMsg::HlFetchReq {
                from,
                block,
                kind,
                needs,
            } => {
                hlrc::handle_fetch(self, s, to, from, block, kind, needs);
            }
            ProtoMsg::HlData { block, home } => {
                hlrc::handle_data(self, s, to, block, home);
            }
            ProtoMsg::HlDiff {
                from,
                block,
                diff,
                interval,
            } => {
                hlrc::handle_diff(self, s, to, from, block, diff, interval);
            }
            ProtoMsg::HlNowHome { block } => {
                hlrc::handle_now_home(self, s, to, block);
            }
            // Tardis
            ProtoMsg::TdFetch {
                from,
                block,
                kind,
                pts,
                have_wts,
            } => {
                tardis::handle_fetch(
                    self,
                    s,
                    to,
                    block,
                    tardis::TdWaiter {
                        from,
                        kind,
                        pts,
                        have_wts,
                    },
                );
            }
            ProtoMsg::TdData {
                block,
                wts,
                lease,
                home,
            } => {
                tardis::handle_data(self, s, to, block, wts, lease, home);
            }
            ProtoMsg::TdLease { block, lease } => {
                tardis::handle_lease(self, s, to, block, lease);
            }
            ProtoMsg::TdWGrant {
                block,
                wts,
                with_data,
                home,
            } => {
                tardis::handle_wgrant(self, s, to, block, wts, with_data, home);
            }
            ProtoMsg::TdRecall { block } => {
                tardis::handle_recall(self, s, to, block);
            }
            ProtoMsg::TdWriteback { from, block } => {
                tardis::handle_writeback(self, s, to, from, block);
            }
            ProtoMsg::TdAck { from, block } => {
                tardis::handle_ack(self, s, to, from, block);
            }
            // Synchronization
            ProtoMsg::LockReq { from, lock, vt } => {
                sync::handle_lock_req(self, s, to, from, lock, vt);
            }
            ProtoMsg::LockGrant {
                lock,
                vt,
                notices,
                pts,
            } => {
                sync::handle_acquired(self, s, to, SyncObj::Lock(lock), vt, notices, pts);
            }
            ProtoMsg::LockRel {
                from,
                lock,
                vt,
                pts,
            } => {
                sync::handle_lock_rel(self, s, to, from, lock, vt, pts);
            }
            ProtoMsg::BarArrive {
                from,
                barrier,
                vt,
                pts,
            } => {
                sync::handle_bar_arrive(self, s, to, from, barrier, vt, pts);
            }
            ProtoMsg::BarRelease {
                barrier,
                vt,
                notices,
                pts,
            } => {
                let bar = SyncObj::Barrier(barrier);
                sync::handle_acquired(self, s, to, bar, vt, notices, pts);
            }
        }
        self.obs.span_dispatch_done();
    }

    fn on_advance(&mut self, node: NodeId, from: Time, to_t: Time) {
        self.quiesce = self.quiesce.max(to_t);
        self.emit(node, to_t, EventKind::Advance { dur: to_t - from });
    }
}

/// Final authoritative memory image after a run (for result verification).
///
/// Applications end with a barrier, so under the LRC protocols all diffs are
/// flushed and home copies are current; under SC the latest copy is the
/// exclusive owner's (else the home's).
pub fn final_image(w: &ProtoWorld) -> Vec<u8> {
    let layout = &w.layout;
    let authoritative = |b: BlockId| match w.protocol_of(b) {
        Protocol::Sc => {
            w.sc.dir(b)
                .and_then(|d| d.owner)
                .unwrap_or_else(|| w.route_home(b))
        }
        Protocol::SwLrc => {
            w.sw.authoritative(b)
                .unwrap_or_else(|| w.homes.directory_node(b))
        }
        Protocol::Hlrc => w.route_home(b),
        // Tardis: the exclusive owner's copy is the only one ahead of the
        // home's master copy (writebacks land at every recall).
        Protocol::Tardis => w.td.owner_of(b).unwrap_or_else(|| w.route_home(b)),
    };
    // Blocks tile the space in id order. A block nobody ever held reads,
    // at the directory node it falls back to, as the golden image.
    let mut img = Vec::with_capacity(layout.size());
    for b in 0..layout.num_blocks() {
        img.extend_from_slice(w.data.block(authoritative(b), b));
    }
    img
}

/// Convenience for constructing the access-table `Access` from a fault kind.
pub fn grant_access(kind: FaultKind) -> Access {
    match kind {
        FaultKind::Read => Access::Read,
        FaultKind::Write => Access::ReadWrite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegionPolicy;

    const NODES: usize = 3;
    const BLOCKS: usize = 16;

    /// A world over `layout` whose `i`-th region runs `regions[i]`.
    fn world(layout: Layout, regions: &[Protocol]) -> ProtoWorld {
        let policies = layout
            .regions()
            .iter()
            .zip(regions)
            .map(|(r, &p)| RegionPolicy::new(r.name(), p, r.block_size()))
            .collect();
        let cfg = RunConfig::new(regions[0], 256)
            .with_nodes(NODES)
            .with_region_policies(policies);
        ProtoWorld::new(cfg, layout)
    }

    /// Per protocol, in `Protocol::ALL`'s order: (longest per-block table,
    /// per-node vector).
    fn table_lens(w: &ProtoWorld) -> [(usize, usize); 4] {
        let sc = (0..BLOCKS).filter(|&b| w.sc.dir(b).is_some()).count();
        let td = [w.td.wts.len(), w.td.lease.len(), w.td.copy_wts.len()];
        [
            (sc, NODES), // the SC directory is per block only
            w.sw.table_lens(),
            w.hl.table_lens(),
            (td.into_iter().max().unwrap(), w.td.pts.len()),
        ]
    }

    #[test]
    fn a_protocol_no_region_runs_holds_no_per_block_table() {
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            let w = world(Layout::new(4096, 256), &[p]);
            for (j, (per_block, per_node)) in table_lens(&w).into_iter().enumerate() {
                let active = i == j;
                assert_eq!(per_block > 0, active, "{p:?} world, table {j}");
                // Per-node state stays: the release path the LRC protocols
                // share reads SW-LRC's under HLRC and the other way round.
                // Tardis alone is an empty shell throughout when inactive.
                let tardis_shell = Protocol::ALL[j] == Protocol::Tardis && !active;
                assert_eq!(per_node, if tardis_shell { 0 } else { NODES });
            }
        }
    }

    #[test]
    fn a_mixed_layout_holds_the_tables_of_the_protocols_it_names() {
        let parts = [
            ("a".to_string(), 0, 256),
            ("b".to_string(), 1024, 256),
            ("c".to_string(), 2048, 256),
        ];
        let layout = Layout::with_regions(4096, &parts);
        let w = world(layout, &[Protocol::Sc, Protocol::Hlrc, Protocol::Tardis]);
        let [sc, sw, hl, td] = table_lens(&w);
        assert_eq!(sc, (BLOCKS, NODES));
        assert_eq!(sw, (0, NODES), "no region runs SW-LRC");
        assert_eq!(hl, (NODES * BLOCKS, NODES));
        assert_eq!(td, (NODES * BLOCKS, NODES));
    }

    #[test]
    fn the_fingerprint_covers_the_active_protocols_tables() {
        let a = world(Layout::new(4096, 256), &[Protocol::Tardis]);
        let mut b = world(Layout::new(4096, 256), &[Protocol::Tardis]);
        assert_eq!(a.mc_fingerprint(), b.mc_fingerprint());
        b.td.wts[3] += 1;
        assert_ne!(a.mc_fingerprint(), b.mc_fingerprint());
    }
}
