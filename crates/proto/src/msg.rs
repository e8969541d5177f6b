//! Protocol messages routed through the simulation event queue.

use dsm_mem::{BlockId, Layout};
use dsm_sim::NodeId;

use crate::diff::Diff;
use crate::vt::VClock;

// The wire format: what each field a message carries costs in bytes, besides
// the `dsm_net::MSG_HEADER_BYTES` header every message pays. Only
// `ProtoMsg::wire_bytes` and `VClock::wire_bytes` read them.

/// One vector-timestamp entry.
pub const VT_ENTRY_BYTES: u64 = 4;

/// One write notice carried in lock grants and barrier releases (block id +
/// version/timestamp + owner hint).
pub const WRITE_NOTICE_BYTES: u64 = 12;

/// One Tardis logical timestamp: a program timestamp (pts), a write
/// timestamp (wts) or a lease end.
pub const TS_BYTES: u64 = 8;

/// An SW-LRC block version.
pub const VERSION_BYTES: u64 = 4;

/// One HLRC fetch requirement: a (writer, interval) pair.
pub const NEED_BYTES: u64 = 8;

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

    /// What this message puts on the wire besides the header, as
    /// `(ctrl, data)` bytes: control fields, and a payload (a block or a
    /// diff). Only a message between two nodes is sized; a self-send never
    /// leaves its node.
    pub fn wire_bytes(&self, layout: &Layout) -> (u64, u64) {
        let size = |b: BlockId| layout.block_size_of(b) as u64;
        let payload = |with_data: bool, b: BlockId| if with_data { size(b) } else { 0 };
        let vt_bytes = |vt: &Option<VClock>| vt.as_ref().map_or(0, VClock::wire_bytes);
        let ts_bytes = |ts: &Option<u64>| ts.map_or(0, |_| TS_BYTES);
        match self {
            ProtoMsg::ScReadReq { .. }
            | ProtoMsg::ScWriteReq { .. }
            | ProtoMsg::ScFetchBack { .. }
            | ProtoMsg::ScInval { .. }
            | ProtoMsg::ScInvalAck { .. }
            | ProtoMsg::ScNowHome { .. }
            | ProtoMsg::ScGrantAck { .. }
            | ProtoMsg::SwReq { .. }
            | ProtoMsg::SwNowOwner { .. }
            | ProtoMsg::HlNowHome { .. }
            | ProtoMsg::TdRecall { .. }
            | ProtoMsg::TdAck { .. } => (0, 0),
            ProtoMsg::ScWriteBack { block, .. }
            | ProtoMsg::HlData { block, .. }
            | ProtoMsg::TdWriteback { block, .. } => (0, size(*block)),
            ProtoMsg::ScGrant {
                block, with_data, ..
            } => (0, payload(*with_data, *block)),
            ProtoMsg::SwReply { block, .. } => (VERSION_BYTES, size(*block)),
            ProtoMsg::HlFetchReq { needs, .. } => (needs.len() as u64 * NEED_BYTES, 0),
            ProtoMsg::HlDiff { diff, .. } => (0, diff.wire_bytes()),
            // TdFetch: pts and the copy's wts; TdData: wts and lease end.
            ProtoMsg::TdFetch { .. } => (2 * TS_BYTES, 0),
            ProtoMsg::TdData { block, .. } => (2 * TS_BYTES, size(*block)),
            ProtoMsg::TdLease { .. } => (TS_BYTES, 0),
            ProtoMsg::TdWGrant {
                block, with_data, ..
            } => (TS_BYTES, payload(*with_data, *block)),
            ProtoMsg::LockReq { vt, .. } => (vt_bytes(vt), 0),
            ProtoMsg::LockRel { vt, pts, .. } | ProtoMsg::BarArrive { vt, pts, .. } => {
                (vt_bytes(vt) + ts_bytes(pts), 0)
            }
            ProtoMsg::LockGrant {
                vt, notices, pts, ..
            }
            | ProtoMsg::BarRelease {
                vt, notices, pts, ..
            } => {
                let notices = notices.len() as u64 * WRITE_NOTICE_BYTES;
                (vt_bytes(vt) + notices + ts_bytes(pts), 0)
            }
        }
    }

    /// How the target services this message.
    pub fn service(&self) -> Service {
        match self {
            ProtoMsg::ScReadReq { .. }
            | ProtoMsg::ScWriteReq { .. }
            | ProtoMsg::ScFetchBack { .. }
            | ProtoMsg::ScInval { .. }
            | ProtoMsg::SwReq { .. }
            | ProtoMsg::HlFetchReq { .. }
            | ProtoMsg::TdFetch { .. }
            | ProtoMsg::TdRecall { .. } => Service::Handler,
            ProtoMsg::LockReq { .. } | ProtoMsg::LockRel { .. } | ProtoMsg::BarArrive { .. } => {
                Service::SyncHandler
            }
            ProtoMsg::HlDiff { .. } => Service::OwnCost,
            _ => Service::Reply,
        }
    }
}

/// How a message is serviced at its target. A *request* (every case but
/// [`Service::Reply`]) is asynchronous: its service time depends on the
/// target's notification mechanism, so it may be deferred while the target
/// computes, and its dispatch occupies the target for the cost its case
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// A reply that wakes a blocked requester: never deferred, and charged
    /// no occupancy on delivery.
    Reply,
    /// A request charged the protocol handler's cost (`handler_ns`).
    Handler,
    /// A request charged the synchronization handler's cost
    /// (`sync_handler_ns`).
    SyncHandler,
    /// A request whose handler charges its own cost: an `HlDiff` occupies
    /// its home for the diff apply.
    OwnCost,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant at least once, with what it costs written out: its
    /// `(ctrl, data)` wire bytes on a 256-byte block, with three-node
    /// vector times and a one-word diff, and its service.
    #[test]
    fn every_message_states_its_wire_bytes_and_service() {
        use Service::{Handler, OwnCost, Reply, SyncHandler};
        let layout = Layout::new(4096, 256);
        let vt = Some(VClock::new(3));
        let notice = Notice {
            block: 1,
            writer: 2,
            version: 3,
        };
        let mut word = [0u8; 256];
        word[8..16].fill(7);
        let diff = Diff::create(&[0u8; 256], &word);
        let (from, block, home, kind) = (0, 1, 2, FaultKind::Read);
        #[rustfmt::skip]
        let table: Vec<(ProtoMsg, u64, u64, Service)> = vec![
            (ProtoMsg::ScReadReq { from, block }, 0, 0, Handler),
            (ProtoMsg::ScWriteReq { from, block }, 0, 0, Handler),
            (ProtoMsg::ScFetchBack { block }, 0, 0, Handler),
            (ProtoMsg::ScInval { block }, 0, 0, Handler),
            (ProtoMsg::ScWriteBack { from, block, invalidated: true }, 0, 256, Reply),
            (ProtoMsg::ScInvalAck { from, block }, 0, 0, Reply),
            (ProtoMsg::ScGrant { block, exclusive: false, with_data: true, home }, 0, 256, Reply),
            (ProtoMsg::ScGrant { block, exclusive: true, with_data: false, home }, 0, 0, Reply),
            (ProtoMsg::ScNowHome { block, kind }, 0, 0, Reply),
            (ProtoMsg::ScGrantAck { from, block }, 0, 0, Reply),
            (ProtoMsg::SwReq { from, block, kind, hops: 2 }, 0, 0, Handler),
            (ProtoMsg::SwReply { block, version: 5, ownership: true, owner: home }, 4, 256, Reply),
            (ProtoMsg::SwNowOwner { block }, 0, 0, Reply),
            (ProtoMsg::HlFetchReq { from, block, kind, needs: vec![(1, 2), (2, 4)] }, 16, 0, Handler),
            (ProtoMsg::HlData { block, home }, 0, 256, Reply),
            (ProtoMsg::HlDiff { from, block, diff, interval: 1 }, 0, 16, OwnCost),
            (ProtoMsg::HlNowHome { block }, 0, 0, Reply),
            (ProtoMsg::TdFetch { from, block, kind, pts: 3, have_wts: 2 }, 16, 0, Handler),
            (ProtoMsg::TdData { block, wts: 2, lease: 10, home }, 16, 256, Reply),
            (ProtoMsg::TdLease { block, lease: 10 }, 8, 0, Reply),
            (ProtoMsg::TdWGrant { block, wts: 11, with_data: true, home }, 8, 256, Reply),
            (ProtoMsg::TdWGrant { block, wts: 11, with_data: false, home }, 8, 0, Reply),
            (ProtoMsg::TdRecall { block }, 0, 0, Handler),
            (ProtoMsg::TdWriteback { from, block }, 0, 256, Reply),
            (ProtoMsg::TdAck { from, block }, 0, 0, Reply),
            (ProtoMsg::LockReq { from, lock: 4, vt: vt.clone() }, 12, 0, SyncHandler),
            (ProtoMsg::LockReq { from, lock: 4, vt: None }, 0, 0, SyncHandler),
            (ProtoMsg::LockGrant { lock: 4, vt: vt.clone(), notices: vec![notice; 2], pts: None }, 36, 0, Reply),
            (ProtoMsg::LockGrant { lock: 4, vt: None, notices: vec![], pts: Some(9) }, 8, 0, Reply),
            (ProtoMsg::LockRel { from, lock: 4, vt: vt.clone(), pts: Some(9) }, 20, 0, SyncHandler),
            (ProtoMsg::BarArrive { from, barrier: 0, vt: vt.clone(), pts: None }, 12, 0, SyncHandler),
            (ProtoMsg::BarArrive { from, barrier: 0, vt: None, pts: Some(9) }, 8, 0, SyncHandler),
            (ProtoMsg::BarRelease { barrier: 0, vt, notices: vec![notice], pts: Some(9) }, 32, 0, Reply),
            (ProtoMsg::BarRelease { barrier: 0, vt: None, notices: vec![], pts: None }, 0, 0, Reply),
        ];
        let mut tags: Vec<&str> = table.iter().map(|(m, ..)| m.tag()).collect();
        tags.dedup();
        assert_eq!(
            tags.len(),
            28,
            "one row or more for each of the 28 variants"
        );
        for (msg, ctrl, data, service) in &table {
            assert_eq!(msg.wire_bytes(&layout), (*ctrl, *data), "{msg:?}");
            assert_eq!(msg.service(), *service, "{msg:?}");
        }
    }

    #[test]
    fn envelope_deferral_flags() {
        let e = Envelope::new(ProtoMsg::ScInval { block: 0 });
        assert!(!e.deferred);
        let e2 = Envelope::immediate(ProtoMsg::ScInval { block: 0 });
        assert!(e2.deferred);
    }
}
