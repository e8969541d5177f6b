//! The single-writer lazy release consistency protocol (paper §2.2).
//!
//! One writable copy coexists with any number of read-only copies. A write
//! fault migrates ownership (with the block contents) but does *not*
//! invalidate readers; stale read-only copies are invalidated lazily at
//! acquire time from write notices. Blocks are versioned on every ownership
//! migration and on every release that dirtied them, so notices can be
//! compared against local copy versions to skip unnecessary invalidations,
//! and read faults are serviced in one hop from the noted owner.

use dsm_mem::{Access, BlockId};
use dsm_obs::EventKind;
use dsm_sim::{NodeId, Sched, Time};

use crate::msg::{FaultKind, Notice, Packet, ProtoMsg};
use crate::mutate::Mutation;
use crate::world::ProtoWorld;

/// Maximum forwarding chain length before we declare a protocol bug.
/// Chains are bounded by the number of ownership migrations, which heavy
/// lock-free sharing can push into the tens of thousands.
const MAX_HOPS: u32 = 100_000;

/// A request parked while ownership is in flight: (requester, kind, hops).
type QueuedReq = (NodeId, FaultKind, u32);

/// SW-LRC protocol state.
#[derive(Debug, Hash)]
pub struct SwState {
    n_blocks: usize,
    /// Current owner per block (`Some` only when settled at a node).
    owner: Vec<Option<NodeId>>,
    /// First owner, as recorded at the static directory by the claim.
    first_owner: Vec<Option<NodeId>>,
    /// Ownership in flight to a node (requests chase it there and queue).
    in_transfer: Vec<Option<NodeId>>,
    /// Current version per block.
    version: Vec<u32>,
    /// Version of each node's local copy (node-major).
    node_version: Vec<u32>,
    /// Believed owner per node (node-major); `u16::MAX` = unknown.
    hint: Vec<u16>,
    /// Version at which the hint was learned (monotone, so forwarding
    /// chains strictly advance and terminate).
    hint_version: Vec<u32>,
    /// Requests queued at a node awaiting its in-flight ownership
    /// (requester, fault kind, hops so far), indexed `[node * n_blocks + b]`.
    waiting: Vec<Vec<QueuedReq>>,
    /// Notices for blocks whose ownership migrated away mid-interval,
    /// emitted at the old owner's next release.
    pending_notices: Vec<Vec<Notice>>,
}

impl SwState {
    /// Fresh state for `n` nodes and `n_blocks` blocks. A world no region
    /// of which runs SW-LRC passes 0 blocks: the per-block tables are then
    /// empty, and the per-node `pending_notices` keeps its length because
    /// the release path shared by the LRC protocols reads it whichever one
    /// runs.
    pub fn new(n: usize, n_blocks: usize) -> Self {
        SwState {
            n_blocks,
            owner: vec![None; n_blocks],
            first_owner: vec![None; n_blocks],
            in_transfer: vec![None; n_blocks],
            version: vec![0; n_blocks],
            node_version: vec![0; n * n_blocks],
            hint: vec![u16::MAX; n * n_blocks],
            hint_version: vec![0; n * n_blocks],
            waiting: (0..n * n_blocks).map(|_| Vec::new()).collect(),
            pending_notices: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Lengths of the longest per-block table and of the per-node vector.
    #[cfg(test)]
    pub(crate) fn table_lens(&self) -> (usize, usize) {
        let per_block = [
            self.owner.len(),
            self.first_owner.len(),
            self.in_transfer.len(),
            self.version.len(),
            self.node_version.len(),
            self.hint.len(),
            self.hint_version.len(),
            self.waiting.len(),
        ];
        (
            per_block.into_iter().max().unwrap(),
            self.pending_notices.len(),
        )
    }

    /// The node holding the authoritative copy (owner, or in-flight target).
    pub fn authoritative(&self, b: BlockId) -> Option<NodeId> {
        self.owner[b]
            .or(self.in_transfer[b])
            .or(self.first_owner[b])
    }

    /// True if `node` currently owns `b`.
    pub fn is_owner(&self, node: NodeId, b: BlockId) -> bool {
        self.owner[b] == Some(node)
    }

    #[inline]
    fn idx(&self, node: NodeId, b: BlockId) -> usize {
        node * self.n_blocks + b
    }

    fn hint_of(&self, node: NodeId, b: BlockId) -> Option<NodeId> {
        let h = self.hint[self.idx(node, b)];
        (h != u16::MAX).then_some(h as NodeId)
    }

    fn set_hint(&mut self, node: NodeId, b: BlockId, to: NodeId, version: u32) {
        let i = self.idx(node, b);
        if version >= self.hint_version[i] {
            self.hint[i] = to as u16;
            self.hint_version[i] = version;
        }
    }

    /// Version of `node`'s local copy of `b`.
    pub fn copy_version(&self, node: NodeId, b: BlockId) -> u32 {
        self.node_version[self.idx(node, b)]
    }

    fn set_copy_version(&mut self, node: NodeId, b: BlockId, v: u32) {
        let i = self.idx(node, b);
        self.node_version[i] = v;
    }

    /// Number of requests queued at `node` awaiting in-flight ownership of
    /// `b` (observability / tests).
    pub fn waiting_len(&self, node: NodeId, b: BlockId) -> usize {
        self.waiting[self.idx(node, b)].len()
    }
}

/// Node-side fault entry point: route the request toward the owner.
pub fn start_fault(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    let depart = s.now() + w.cfg.cost.fault_exception_ns + w.cfg.cost.handler_ns;
    let target =
        w.sw.hint_of(me, b)
            .filter(|&h| h != me)
            .unwrap_or_else(|| w.homes.directory_node(b));
    w.send(
        s,
        me,
        target,
        depart,
        ProtoMsg::SwReq {
            from: me,
            block: b,
            kind,
            hops: 0,
        },
    );
}

/// A request arriving at `me`: serve if owner, queue if ownership is in
/// flight to us, claim if we are the directory and the block is unowned,
/// otherwise forward along the hint chain.
pub fn handle_request(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
    kind: FaultKind,
    hops: u32,
) {
    assert!(
        hops < MAX_HOPS,
        "SW-LRC forwarding chain did not terminate: at={me} from={from} b={b} kind={kind:?} \
         owner={:?} in_transfer={:?} first={:?} hint={:?}",
        w.sw.owner[b],
        w.sw.in_transfer[b],
        w.sw.first_owner[b],
        w.sw.hint_of(me, b),
    );
    let now = s.now();
    let handler = w.cfg.cost.handler_ns;
    if w.sw.is_owner(me, b) {
        serve(w, s, me, from, b, kind, now + handler);
        return;
    }
    if w.sw.in_transfer[b] == Some(me) {
        let i = w.sw.idx(me, b);
        w.sw.waiting[i].push((from, kind, hops));
        return;
    }
    let directory = w.homes.directory_node(b);
    if me == directory && w.sw.authoritative(b).is_none() {
        match kind {
            FaultKind::Write => {
                // First store touch: claim ownership (and the home) for the
                // requester.
                w.sw.first_owner[b] = Some(from);
                w.sw.in_transfer[b] = Some(from);
                w.homes.claim_for(b, from);
                w.send(
                    s,
                    me,
                    from,
                    now + handler,
                    ProtoMsg::SwNowOwner { block: b },
                );
            }
            FaultKind::Read => {
                // Unowned read: the directory serves its (golden) copy at
                // version 0 without claiming.
                let c = w.charge_block_copy(s, me, b);
                w.emit(me, s.now(), EventKind::FetchServe { block: b });
                w.send(
                    s,
                    me,
                    from,
                    now + handler + c,
                    ProtoMsg::SwReply {
                        block: b,
                        version: 0,
                        ownership: false,
                        owner: me,
                    },
                );
            }
        }
        return;
    }
    // Forward along the chain: our hint, the first owner, or the directory.
    let target =
        w.sw.hint_of(me, b)
            .filter(|&h| h != me)
            .or(w.sw.first_owner[b].filter(|&h| h != me))
            .unwrap_or(directory);
    debug_assert_ne!(target, me, "forwarding to self");
    w.send(
        s,
        me,
        target,
        now + handler,
        ProtoMsg::SwReq {
            from,
            block: b,
            kind,
            hops: hops + 1,
        },
    );
}

/// Serve a request at the settled owner.
fn serve(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
    kind: FaultKind,
    at: Time,
) {
    let c = w.charge_block_copy(s, me, b);
    w.emit(me, s.now(), EventKind::FetchServe { block: b });
    match kind {
        FaultKind::Read => {
            let v = w.sw.version[b];
            w.send(
                s,
                me,
                from,
                at + c,
                ProtoMsg::SwReply {
                    block: b,
                    version: v,
                    ownership: false,
                    owner: me,
                },
            );
        }
        FaultKind::Write => {
            // Migrate ownership: bump the version, keep a read-only copy.
            w.sw.version[b] += 1;
            let v = w.sw.version[b];
            w.audit(|c, _| c.sw_version(b, v, at));
            w.sw.owner[b] = None;
            w.sw.in_transfer[b] = Some(from);
            w.sw.set_hint(me, b, from, v);
            // If we dirtied the block this interval, the migration carries
            // our writes to the new owner, but readers of older versions
            // still need a notice at our next release.
            if let Some(pos) = w.nodes[me].dirty.iter().position(|&d| d == b) {
                w.nodes[me].dirty.swap_remove(pos);
                w.sw.pending_notices[me].push(Notice {
                    block: b,
                    writer: from,
                    version: v,
                });
            }
            if w.access.get(me, b) == Access::ReadWrite {
                w.grant(me, b, Access::Read);
            }
            w.send(
                s,
                me,
                from,
                at + c,
                ProtoMsg::SwReply {
                    block: b,
                    version: v,
                    ownership: true,
                    owner: me,
                },
            );
        }
    }
}

/// Reply at the requester: install data (and possibly ownership).
pub fn handle_reply(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    version: u32,
    ownership: bool,
    owner: NodeId,
) {
    w.data.copy_block(b, owner, me);
    w.sw.set_copy_version(me, b, version);
    let at = s.now() + w.cfg.cost.handler_ns;
    if ownership {
        w.sw.owner[b] = Some(me);
        w.sw.in_transfer[b] = None;
        w.sw.set_hint(me, b, me, version);
        w.grant(me, b, Access::ReadWrite);
        w.nodes[me].mark_dirty(b);
        drain_waiting(w, s, me, b, at);
    } else {
        w.sw.set_hint(me, b, owner, version);
        w.grant(me, b, Access::Read);
    }
    w.fault_done(s, me, at);
}

/// Claim confirmation at the first owner.
pub fn handle_now_owner(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId) {
    w.sw.owner[b] = Some(me);
    w.sw.in_transfer[b] = None;
    w.sw.version[b] = 1;
    w.audit(|c, _| c.sw_version(b, 1, s.now()));
    w.sw.set_copy_version(me, b, 1);
    w.sw.set_hint(me, b, me, 1);
    w.homes.learn(me, b, me);
    w.grant(me, b, Access::ReadWrite);
    w.nodes[me].mark_dirty(b);
    let at = s.now() + w.cfg.cost.handler_ns;
    drain_waiting(w, s, me, b, at);
    w.fault_done(s, me, at);
}

fn drain_waiting(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId, at: Time) {
    let qi = w.sw.idx(me, b);
    if !w.sw.waiting[qi].is_empty() {
        let queue = std::mem::take(&mut w.sw.waiting[qi]);
        let handler = w.cfg.cost.handler_ns;
        for (i, (from, kind, hops)) in queue.into_iter().enumerate() {
            // Requests are re-presented to ourselves in arrival order,
            // strictly *after* the wake at `at`: the node that just received
            // ownership must get to retry its own access before a queued
            // rival steals the block away, or a contended block livelocks.
            let when = at + handler * (i as Time + 1);
            w.send(
                s,
                me,
                me,
                when,
                ProtoMsg::SwReq {
                    from,
                    block: b,
                    kind,
                    hops,
                },
            );
        }
    }
}

/// Local write fault at the settled owner after a release downgraded its
/// copy: re-enable write access without communication. Returns the local
/// cost; the caller reports the local fault once it has charged it.
pub fn local_reenable(w: &mut ProtoWorld, me: NodeId, b: BlockId) -> Time {
    debug_assert!(w.sw.is_owner(me, b));
    debug_assert_eq!(w.access.get(me, b), Access::Read);
    w.grant(me, b, Access::ReadWrite);
    w.nodes[me].mark_dirty(b);
    w.cfg.cost.fault_exception_ns
}

/// Release-time versioning of this interval's SW-LRC dirty blocks (already
/// taken from the node's dirty list and filtered to this protocol by the
/// caller). Returns the interval's write notices. (Interval index was
/// already ticked by the caller.)
pub fn release_dirty(
    w: &mut ProtoWorld,
    me: NodeId,
    dirty: Vec<BlockId>,
    now: Time,
) -> Vec<Notice> {
    let mut notices = std::mem::take(&mut w.sw.pending_notices[me]);
    // Notices deferred across a mid-interval migration: already versioned
    // at migration time, re-announced here.
    w.audit(|c, _| {
        for n in &notices {
            c.sw_notice(me, n.block, n.version, false, now);
        }
    });
    notices.reserve(dirty.len());
    for b in dirty {
        debug_assert!(w.sw.is_owner(me, b), "dirty block not owned at release");
        // Publish a notice that reuses the block's current version: readers
        // holding that version skip the invalidation and keep reading stale
        // data.
        if !w.fires(Mutation::SwStaleVersion, true) {
            w.sw.version[b] += 1;
        }
        let v = w.sw.version[b];
        w.sw.set_copy_version(me, b, v);
        w.sw.set_hint(me, b, me, v);
        if w.access.get(me, b) == Access::ReadWrite {
            w.grant(me, b, Access::Read);
        }
        w.audit(|c, _| c.sw_notice(me, b, v, true, now));
        notices.push(Notice {
            block: b,
            writer: me,
            version: v,
        });
    }
    notices
}

/// Acquire-time notice application: invalidate stale read-only copies and
/// refresh owner hints. Returns extra processing time (none beyond the
/// fixed per-notice cost).
pub fn apply_notice(w: &mut ProtoWorld, me: NodeId, n: &Notice, now: Time) -> Time {
    w.sw.set_hint(me, n.block, n.writer, n.version);
    if w.sw.is_owner(me, n.block) {
        debug_assert!(
            n.version <= w.sw.version[n.block],
            "notice newer than the owner's version"
        );
        return 0;
    }
    if w.sw.copy_version(me, n.block) < n.version && w.access.get(me, n.block) != Access::Invalid {
        w.access.set(me, n.block, Access::Invalid);
        w.emit(me, now, EventKind::Invalidate { block: n.block });
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::msg::Envelope;
    use dsm_mem::Layout;
    use dsm_sim::engine::Sched;

    fn setup() -> (ProtoWorld, Sched<Packet>) {
        let cfg = RunConfig::new(crate::Protocol::SwLrc, 256).with_nodes(4);
        let mut w = ProtoWorld::new(cfg, Layout::new(4096, 256));
        w.load_golden(vec![0u8; 4096]);
        (w, Sched::for_testing(4))
    }

    #[test]
    fn first_store_touch_claims_ownership_at_the_directory() {
        let (mut w, mut s) = setup();
        // Block 1's directory is node 1; a write request from node 2 claims.
        handle_request(&mut w, &mut s, 1, 2, 1, FaultKind::Write, 0);
        assert_eq!(w.sw.in_transfer[1], Some(2));
        assert_eq!(w.sw.first_owner[1], Some(2));
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 2
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::SwNowOwner { .. },
                    ..
                }))
            )));
    }

    #[test]
    fn unowned_read_is_served_by_the_directory_without_claiming() {
        let (mut w, mut s) = setup();
        handle_request(&mut w, &mut s, 1, 3, 1, FaultKind::Read, 0);
        assert_eq!(w.sw.first_owner[1], None, "reads do not claim");
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 3
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::SwReply {
                        version: 0,
                        ownership: false,
                        ..
                    },
                    ..
                }))
            )));
    }

    #[test]
    fn ownership_transfer_bumps_version_and_downgrades_the_old_owner() {
        let (mut w, mut s) = setup();
        w.sw.owner[0] = Some(1);
        w.sw.version[0] = 3;
        w.grant(1, 0, Access::ReadWrite);
        handle_request(&mut w, &mut s, 1, 2, 0, FaultKind::Write, 0);
        assert_eq!(w.sw.version[0], 4);
        assert_eq!(w.sw.owner[0], None);
        assert_eq!(w.sw.in_transfer[0], Some(2));
        assert_eq!(
            w.access.get(1, 0),
            Access::Read,
            "old owner keeps a read copy"
        );
    }

    #[test]
    fn requests_chasing_in_flight_ownership_queue_at_the_target() {
        let (mut w, mut s) = setup();
        w.sw.in_transfer[0] = Some(2);
        handle_request(&mut w, &mut s, 2, 3, 0, FaultKind::Read, 1);
        assert_eq!(w.sw.waiting_len(2, 0), 1);
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn notices_invalidate_only_older_copies() {
        let (mut w, _s) = setup();
        w.grant(2, 0, Access::Read);
        w.sw.set_copy_version(2, 0, 5);
        // Older notice: skipped.
        apply_notice(
            &mut w,
            2,
            &Notice {
                block: 0,
                writer: 1,
                version: 4,
            },
            0,
        );
        assert_eq!(w.access.get(2, 0), Access::Read);
        assert_eq!(w.stats[2].invalidations, 0);
        // Newer notice: invalidates and updates the owner hint.
        apply_notice(
            &mut w,
            2,
            &Notice {
                block: 0,
                writer: 3,
                version: 9,
            },
            0,
        );
        assert_eq!(w.access.get(2, 0), Access::Invalid);
        assert_eq!(w.stats[2].invalidations, 1);
        assert_eq!(w.sw.hint_of(2, 0), Some(3));
    }

    #[test]
    fn release_versions_dirty_blocks_and_downgrades_write_access() {
        let (mut w, _s) = setup();
        w.sw.owner[0] = Some(1);
        w.sw.version[0] = 2;
        w.grant(1, 0, Access::ReadWrite);
        w.nodes[1].mark_dirty(0);
        let dirty = std::mem::take(&mut w.nodes[1].dirty);
        let notices = release_dirty(&mut w, 1, dirty, 0);
        assert_eq!(notices.len(), 1);
        assert_eq!(
            notices[0],
            Notice {
                block: 0,
                writer: 1,
                version: 3
            }
        );
        assert_eq!(w.access.get(1, 0), Access::Read);
        assert!(w.nodes[1].dirty.is_empty());
    }

    #[test]
    fn hints_are_version_monotone() {
        let mut sw = SwState::new(4, 16);
        sw.set_hint(0, 5, 2, 7);
        sw.set_hint(0, 5, 1, 3); // older: ignored
        assert_eq!(sw.hint_of(0, 5), Some(2));
        sw.set_hint(0, 5, 3, 9); // newer: wins
        assert_eq!(sw.hint_of(0, 5), Some(3));
    }
}
