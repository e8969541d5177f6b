//! Protocol messages routed through the simulation event queue.

use dsm_mem::BlockId;
use dsm_sim::NodeId;

use crate::diff::Diff;
use crate::vt::VClock;

/// A write notice: "node `writer` modified `block`; its copy is stale unless
/// at least `version`".
///
/// For SW-LRC, `version` is the block's global version counter and `writer`
/// doubles as the new-owner hint. For HLRC, `version` is the writer's
/// interval index and the fetch must wait until the home has applied that
/// interval's diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Notice {
    /// Block the notice covers.
    pub block: BlockId,
    /// The writing node.
    pub writer: NodeId,
    /// Version (SW-LRC) or writer interval (HLRC).
    pub version: u32,
}

/// Fault kind, used in requests that behave differently for loads and
/// stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Load fault.
    Read,
    /// Store fault.
    Write,
}

/// All protocol messages. One enum covers the three protocols; each protocol
/// only ever sends its own subset.
///
/// Field meanings are uniform across variants: `from` is the sending node,
/// `block` the coherence block, `vt` a vector timestamp, `home`/`owner` a
/// node id the receiver should cache, and `hops` a forwarding count.
#[allow(missing_docs)]
#[derive(Debug, Clone, Hash)]
pub enum ProtoMsg {
    // ---- SC (Stache-style directory) ----
    /// Requester -> home: read miss.
    ScReadReq { from: NodeId, block: BlockId },
    /// Requester -> home: write miss or upgrade.
    ScWriteReq { from: NodeId, block: BlockId },
    /// Home -> exclusive owner: downgrade and write back (read miss at a
    /// third node).
    ScFetchBack { block: BlockId },
    /// Home -> sharer/owner: invalidate (write miss elsewhere).
    ScInval { block: BlockId },
    /// Owner -> home: block data written back (carries block payload);
    /// `invalidated` tells the home whether the owner dropped (true) or
    /// downgraded (false) its copy.
    ScWriteBack {
        from: NodeId,
        block: BlockId,
        invalidated: bool,
    },
    /// Sharer -> home: invalidation acknowledged (no data).
    ScInvalAck { from: NodeId, block: BlockId },
    /// Home -> requester: grant. `with_data` carries the block payload;
    /// `exclusive` grants write access. `home` lets the requester cache the
    /// resolved home. Wakes the requester.
    ScGrant {
        block: BlockId,
        exclusive: bool,
        with_data: bool,
        home: NodeId,
    },
    /// Directory -> requester: the requester claimed the block by first
    /// touch and is now its home. Wakes the requester.
    ScNowHome { block: BlockId, kind: FaultKind },
    /// Requester -> home: grant received and installed. The home keeps the
    /// directory entry busy until this arrives, which serializes grants
    /// against later invalidations of the same block (no grant/inval race).
    ScGrantAck { from: NodeId, block: BlockId },

    // ---- SW-LRC ----
    /// Requester -> believed owner (forwarded along hint chains).
    SwReq {
        from: NodeId,
        block: BlockId,
        kind: FaultKind,
        /// Hop count so far, for forwarding statistics.
        hops: u32,
    },
    /// Owner -> requester: block data (+version); for `Write` requests this
    /// also transfers ownership. Wakes the requester.
    SwReply {
        block: BlockId,
        version: u32,
        ownership: bool,
        owner: NodeId,
    },
    /// Directory -> requester: block was unowned; requester claimed
    /// ownership (store touch). Wakes the requester.
    SwNowOwner { block: BlockId },

    // ---- HLRC ----
    /// Requester -> home: fetch block contents. `needs` lists the
    /// (writer, interval) diffs the reply must already include.
    HlFetchReq {
        from: NodeId,
        block: BlockId,
        kind: FaultKind,
        needs: Vec<(NodeId, u32)>,
    },
    /// Home -> requester: block data. Wakes the requester.
    HlData { block: BlockId, home: NodeId },
    /// Writer -> home: eager diff at release.
    HlDiff {
        from: NodeId,
        block: BlockId,
        diff: Diff,
        interval: u32,
    },
    /// Directory -> requester: block was unclaimed; the requester's store
    /// touch claimed the home. Wakes the requester.
    HlNowHome { block: BlockId },

    // ---- Tardis (timestamp leases) ----
    /// Requester -> home: read or write miss. `pts` is the requester's
    /// program timestamp; `have_wts` the write timestamp of its current
    /// copy (0 = none), which lets the home answer an expired-but-current
    /// read with a header-only lease renewal.
    TdFetch {
        from: NodeId,
        block: BlockId,
        kind: FaultKind,
        pts: u64,
        have_wts: u64,
    },
    /// Home -> requester: block data plus a read lease ending at `lease`.
    /// Wakes the requester.
    TdData {
        block: BlockId,
        wts: u64,
        lease: u64,
        home: NodeId,
    },
    /// Home -> requester: header-only lease renewal (the requester's copy
    /// is still current). Wakes the requester.
    TdLease { block: BlockId, lease: u64 },
    /// Home -> requester: exclusive write grant at the freshly minted
    /// `wts` (jumped past every outstanding lease). `with_data` carries
    /// the block payload (false = the requester's copy is current: an
    /// upgrade). Wakes the requester.
    TdWGrant {
        block: BlockId,
        wts: u64,
        with_data: bool,
        home: NodeId,
    },
    /// Home -> exclusive owner: surrender the block (another node
    /// faulted on it).
    TdRecall { block: BlockId },
    /// Owner -> home: dirty block contents after a recall (block
    /// payload); the owner's copy is invalidated.
    TdWriteback { from: NodeId, block: BlockId },
    /// Requester -> home: exclusive grant received and installed. The
    /// home keeps the block busy until this arrives, so a recall can
    /// never overtake the grant it would revoke.
    TdAck { from: NodeId, block: BlockId },

    // ---- Synchronization (all protocols) ----
    /// Requester -> lock manager. `vt` present for the LRC protocols.
    LockReq {
        from: NodeId,
        lock: usize,
        vt: Option<VClock>,
    },
    /// Manager -> new holder: lock granted, with consistency information.
    /// `pts` carries the last releaser's program timestamp (Tardis).
    /// Wakes the requester.
    LockGrant {
        lock: usize,
        vt: Option<VClock>,
        notices: Vec<Notice>,
        pts: Option<u64>,
    },
    /// Holder -> manager: lock released. `pts` is the releaser's program
    /// timestamp (Tardis).
    LockRel {
        from: NodeId,
        lock: usize,
        vt: Option<VClock>,
        pts: Option<u64>,
    },
    /// Participant -> barrier manager. `pts` as for [`ProtoMsg::LockRel`].
    BarArrive {
        from: NodeId,
        barrier: usize,
        vt: Option<VClock>,
        pts: Option<u64>,
    },
    /// Manager -> participant: everyone arrived. `pts` is the maximum
    /// program timestamp over all arrivals (Tardis). Wakes the
    /// participant.
    BarRelease {
        barrier: usize,
        vt: Option<VClock>,
        notices: Vec<Notice>,
        pts: Option<u64>,
    },
}

/// Envelope adding one-shot service-time deferral (polling/interrupt model).
#[derive(Debug, Clone, Hash)]
pub struct Envelope {
    /// The payload.
    pub msg: ProtoMsg,
    /// True once the service time has been computed (prevents re-deferral).
    pub deferred: bool,
    /// Causal span id (0 when span tracing is off). Rides with the message
    /// through fabric frames, retransmissions and deferral re-posts, so the
    /// dispatch can be tied back to the send that caused it.
    pub span: u64,
}

impl Envelope {
    /// Fresh envelope, subject to notification-model deferral.
    pub fn new(msg: ProtoMsg) -> Self {
        Envelope {
            msg,
            deferred: false,
            span: 0,
        }
    }

    /// Envelope that is processed at its arrival time (replies to spinning
    /// nodes, self-posts, already-deferred requests).
    pub fn immediate(msg: ProtoMsg) -> Self {
        Envelope {
            msg,
            deferred: true,
            span: 0,
        }
    }

    /// Attach a causal span id.
    pub fn with_span(mut self, span: u64) -> Self {
        self.span = span;
        self
    }
}

/// What actually travels through the simulation event queue: either an
/// application-level envelope (the ideal fabric's only traffic, and what
/// the fabric's receive path releases after reassembly) or a fabric
/// transport packet.
#[derive(Debug, Clone, Hash)]
pub enum Packet {
    /// Protocol payload, dispatched to the protocol handlers.
    App(Envelope),
    /// A data frame in flight on the simulated fabric.
    Frame {
        /// Sending node.
        src: NodeId,
        /// Channel sequence number.
        seq: u64,
        /// Transmission attempt (0 = original send).
        attempt: u32,
        /// Wire size (header + control + data), for receive occupancy.
        bytes: u64,
        /// The protocol payload the frame carries.
        env: Envelope,
    },
    /// Acknowledgement of a frame, returning to its sender.
    Ack {
        /// The acknowledging node (the frame's destination).
        from: NodeId,
        /// Acknowledged channel sequence number.
        seq: u64,
    },
    /// Retransmission timer, posted to the sending node.
    Timer {
        /// The unacked frame's destination.
        peer: NodeId,
        /// Channel sequence number the timer guards.
        seq: u64,
        /// Attempt the timer belongs to (stale timers no-op).
        attempt: u32,
    },
}

impl Packet {
    /// The application envelope, when this is an [`Packet::App`] packet.
    pub fn app(&self) -> Option<&Envelope> {
        match self {
            Packet::App(env) => Some(env),
            _ => None,
        }
    }
}

impl ProtoMsg {
    /// Stable short name of the message variant, used as the event tag in
    /// the observability stream.
    pub fn tag(&self) -> &'static str {
        match self {
            ProtoMsg::ScReadReq { .. } => "ScReadReq",
            ProtoMsg::ScWriteReq { .. } => "ScWriteReq",
            ProtoMsg::ScFetchBack { .. } => "ScFetchBack",
            ProtoMsg::ScInval { .. } => "ScInval",
            ProtoMsg::ScWriteBack { .. } => "ScWriteBack",
            ProtoMsg::ScInvalAck { .. } => "ScInvalAck",
            ProtoMsg::ScGrant { .. } => "ScGrant",
            ProtoMsg::ScNowHome { .. } => "ScNowHome",
            ProtoMsg::ScGrantAck { .. } => "ScGrantAck",
            ProtoMsg::SwReq { .. } => "SwReq",
            ProtoMsg::SwReply { .. } => "SwReply",
            ProtoMsg::SwNowOwner { .. } => "SwNowOwner",
            ProtoMsg::HlFetchReq { .. } => "HlFetchReq",
            ProtoMsg::HlData { .. } => "HlData",
            ProtoMsg::HlDiff { .. } => "HlDiff",
            ProtoMsg::HlNowHome { .. } => "HlNowHome",
            ProtoMsg::TdFetch { .. } => "TdFetch",
            ProtoMsg::TdData { .. } => "TdData",
            ProtoMsg::TdLease { .. } => "TdLease",
            ProtoMsg::TdWGrant { .. } => "TdWGrant",
            ProtoMsg::TdRecall { .. } => "TdRecall",
            ProtoMsg::TdWriteback { .. } => "TdWriteback",
            ProtoMsg::TdAck { .. } => "TdAck",
            ProtoMsg::LockReq { .. } => "LockReq",
            ProtoMsg::LockGrant { .. } => "LockGrant",
            ProtoMsg::LockRel { .. } => "LockRel",
            ProtoMsg::BarArrive { .. } => "BarArrive",
            ProtoMsg::BarRelease { .. } => "BarRelease",
        }
    }

    /// The coherence block this message concerns, if any (synchronization
    /// messages have none).
    pub fn concerns_block(&self) -> Option<BlockId> {
        match *self {
            ProtoMsg::ScReadReq { block, .. }
            | ProtoMsg::ScWriteReq { block, .. }
            | ProtoMsg::ScFetchBack { block }
            | ProtoMsg::ScInval { block }
            | ProtoMsg::ScWriteBack { block, .. }
            | ProtoMsg::ScInvalAck { block, .. }
            | ProtoMsg::ScGrant { block, .. }
            | ProtoMsg::ScNowHome { block, .. }
            | ProtoMsg::ScGrantAck { block, .. }
            | ProtoMsg::SwReq { block, .. }
            | ProtoMsg::SwReply { block, .. }
            | ProtoMsg::SwNowOwner { block }
            | ProtoMsg::HlFetchReq { block, .. }
            | ProtoMsg::HlData { block, .. }
            | ProtoMsg::HlDiff { block, .. }
            | ProtoMsg::HlNowHome { block }
            | ProtoMsg::TdFetch { block, .. }
            | ProtoMsg::TdData { block, .. }
            | ProtoMsg::TdLease { block, .. }
            | ProtoMsg::TdWGrant { block, .. }
            | ProtoMsg::TdRecall { block }
            | ProtoMsg::TdWriteback { block, .. }
            | ProtoMsg::TdAck { block, .. } => Some(block),
            ProtoMsg::LockReq { .. }
            | ProtoMsg::LockGrant { .. }
            | ProtoMsg::LockRel { .. }
            | ProtoMsg::BarArrive { .. }
            | ProtoMsg::BarRelease { .. } => None,
        }
    }

    /// Coarse span class of this message, for critical-path category
    /// attribution and flow-arrow naming: lock traffic, barrier traffic,
    /// or data/coherence traffic (everything else).
    pub fn span_class(&self) -> dsm_obs::SpanClass {
        match self {
            ProtoMsg::LockReq { .. } | ProtoMsg::LockGrant { .. } | ProtoMsg::LockRel { .. } => {
                dsm_obs::SpanClass::Lock
            }
            ProtoMsg::BarArrive { .. } | ProtoMsg::BarRelease { .. } => dsm_obs::SpanClass::Barrier,
            _ => dsm_obs::SpanClass::Fetch,
        }
    }

    /// Resource labels for DPOR independence: the protocol objects this
    /// message's handler can touch besides its delivery target's local
    /// state. Two deliveries commute when their targets differ and their
    /// resource sets are disjoint. Block messages touch the block's global
    /// directory/owner state; lock and barrier messages touch the named
    /// synchronization object, and grants/releases that carry write notices
    /// additionally touch each noticed block (applying a notice updates
    /// per-block protocol hints at the acquirer).
    /// Each label is handed to `out`, so the caller decides where they go.
    pub fn mc_resources(&self, mut out: impl FnMut(u64)) {
        const BLOCK: u64 = 1 << 32;
        const LOCK: u64 = 2 << 32;
        const BARRIER: u64 = 3 << 32;
        if let Some(b) = self.concerns_block() {
            out(BLOCK | b as u64);
        }
        match self {
            ProtoMsg::LockReq { lock, .. } | ProtoMsg::LockRel { lock, .. } => {
                out(LOCK | *lock as u64)
            }
            ProtoMsg::LockGrant { lock, notices, .. } => {
                out(LOCK | *lock as u64);
                for n in notices {
                    out(BLOCK | n.block as u64);
                }
            }
            ProtoMsg::BarArrive { barrier, .. } => out(BARRIER | *barrier as u64),
            ProtoMsg::BarRelease {
                barrier, notices, ..
            } => {
                out(BARRIER | *barrier as u64);
                for n in notices {
                    out(BLOCK | n.block as u64);
                }
            }
            _ => {}
        }
    }

    /// Whether this message is an asynchronous *request* whose service time
    /// depends on the target's notification mechanism. Replies that wake a
    /// spinning (blocked) requester are never deferred.
    pub fn needs_service(&self) -> bool {
        matches!(
            self,
            ProtoMsg::ScReadReq { .. }
                | ProtoMsg::ScWriteReq { .. }
                | ProtoMsg::ScFetchBack { .. }
                | ProtoMsg::ScInval { .. }
                | ProtoMsg::SwReq { .. }
                | ProtoMsg::HlFetchReq { .. }
                | ProtoMsg::HlDiff { .. }
                | ProtoMsg::TdFetch { .. }
                | ProtoMsg::TdRecall { .. }
                | ProtoMsg::LockReq { .. }
                | ProtoMsg::LockRel { .. }
                | ProtoMsg::BarArrive { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_need_service_replies_do_not() {
        assert!(ProtoMsg::ScReadReq { from: 0, block: 1 }.needs_service());
        assert!(ProtoMsg::ScInval { block: 1 }.needs_service());
        assert!(!ProtoMsg::ScGrant {
            block: 1,
            exclusive: false,
            with_data: true,
            home: 0
        }
        .needs_service());
        assert!(!ProtoMsg::ScInvalAck { from: 0, block: 1 }.needs_service());
        assert!(!ProtoMsg::ScWriteBack {
            from: 0,
            block: 1,
            invalidated: true
        }
        .needs_service());
        assert!(ProtoMsg::TdFetch {
            from: 0,
            block: 1,
            kind: FaultKind::Read,
            pts: 1,
            have_wts: 0
        }
        .needs_service());
        assert!(ProtoMsg::TdRecall { block: 1 }.needs_service());
        assert!(!ProtoMsg::TdData {
            block: 1,
            wts: 2,
            lease: 10,
            home: 0
        }
        .needs_service());
        assert!(!ProtoMsg::TdWriteback { from: 0, block: 1 }.needs_service());
        assert!(!ProtoMsg::TdAck { from: 0, block: 1 }.needs_service());
    }

    #[test]
    fn envelope_deferral_flags() {
        let e = Envelope::new(ProtoMsg::ScInval { block: 0 });
        assert!(!e.deferred);
        let e2 = Envelope::immediate(ProtoMsg::ScInval { block: 0 });
        assert!(e2.deferred);
    }
}
