//! The Tardis timestamp-lease coherence protocol, the fourth protocol
//! peer (after Yu & Devadas' Tardis 2.0, adapted to software DSM
//! granularity).
//!
//! No sharer lists and no invalidation traffic: the home orders accesses
//! in *logical* time. Every block carries a write timestamp `wts` (the
//! logical time of its latest exclusive grant) and a read timestamp `rts`
//! (the end of the furthest read lease ever granted). A read is served
//! with a lease ending at [`crate::vt::lease_grant`]; the reader may hit
//! on its copy until its own program timestamp `pts` passes the lease
//! end, at which point the copy is *expired* — not invalid — and a
//! header-only renewal restores it if the block has not been rewritten.
//! A write takes exclusive ownership at a fresh `wts` jumped strictly
//! past every outstanding lease ([`crate::vt::wts_grant`]), which orders
//! the write after every promised read without contacting any reader.
//! Program timestamps advance at installs and at synchronization (lock
//! grants and barrier releases piggyback the releaser's `pts`), so
//! release consistency falls out of timestamp order: an acquirer whose
//! `pts` jumped past a stale lease self-expires the copy and refetches.
//!
//! Serialization: after an exclusive grant the home keeps the block
//! *busy* until the owner's [`crate::msg::ProtoMsg::TdAck`] — a
//! header-only recall must never overtake the (larger, slower) data
//! grant it would revoke. Self-grants ack too: `owner` is set
//! synchronously at the grant decision but the grantee's access is only
//! installed when the grant event *delivers*, so a recall triggered by
//! a fetch arriving inside that window must still queue behind the bar.

use std::collections::VecDeque;

use dsm_mem::{Access, BlockId};
use dsm_obs::EventKind;
use dsm_sim::{NodeId, Sched, Time};

use crate::msg::{FaultKind, Packet, ProtoMsg};
use crate::vt::{lease_grant, wts_grant};
use crate::world::ProtoWorld;

/// A fault parked at the home while the block is busy or owned.
#[derive(Debug, Hash)]
pub struct TdWaiter {
    /// The faulting node.
    pub from: NodeId,
    /// Read or write fault.
    pub kind: FaultKind,
    /// The faulter's program timestamp at fault time.
    pub pts: u64,
    /// `wts` of the faulter's existing copy (0 = none), for header-only
    /// renewals.
    pub have_wts: u64,
}

/// Tardis state: per-block home-side timestamp tables plus per-node
/// program timestamps and per-copy lease tables. Homes are static (the
/// directory node); Tardis blocks never migrate and never twin.
#[derive(Debug, Hash)]
pub struct TdState {
    /// Number of blocks (row stride of the per-copy tables).
    pub n_blocks: usize,
    /// Per block: timestamp of the latest exclusive write grant.
    pub wts: Vec<u64>,
    /// Per block: end of the furthest read lease ever granted.
    pub rts: Vec<u64>,
    /// Per block: current exclusive owner, if any.
    pub owner: Vec<Option<NodeId>>,
    /// Per block: a remote grant or recall is in flight; requests queue
    /// behind it until the ack / writeback arrives.
    pub busy: Vec<bool>,
    /// Per block: faults parked at the home.
    waiting: Vec<VecDeque<TdWaiter>>,
    /// Per node: program timestamp, advanced by installs and sync merges.
    pub pts: Vec<u64>,
    /// Per node: the outstanding fault's kind.
    pub pending_kind: Vec<Option<FaultKind>>,
    /// Per `[node * n_blocks + block]`: lease end of the node's copy.
    pub lease: Vec<u64>,
    /// Per `[node * n_blocks + block]`: `wts` of the node's copy
    /// (0 = no copy), quoted in fetches to enable header-only renewals.
    pub copy_wts: Vec<u64>,
}

impl TdState {
    /// Fresh state. `active` false allocates nothing: non-Tardis runs
    /// carry an empty shell.
    pub fn new(nodes: usize, n_blocks: usize, active: bool) -> Self {
        let (n, nb) = if active { (nodes, n_blocks) } else { (0, 0) };
        TdState {
            n_blocks: nb,
            // The golden image counts as the write at logical time 1, and
            // every node starts at pts 1 so initial leases are never born
            // expired.
            wts: vec![1; nb],
            rts: vec![1; nb],
            owner: vec![None; nb],
            busy: vec![false; nb],
            waiting: (0..nb).map(|_| VecDeque::new()).collect(),
            pts: vec![1; n],
            pending_kind: vec![None; n],
            lease: vec![0; n * nb],
            copy_wts: vec![0; n * nb],
        }
    }

    /// The block's current exclusive owner (inactive state: none).
    pub fn owner_of(&self, b: BlockId) -> Option<NodeId> {
        self.owner.get(b).copied().flatten()
    }

    #[inline]
    fn ni(&self, node: NodeId, b: BlockId) -> usize {
        node * self.n_blocks + b
    }
}

/// Is a readable Tardis copy still covered by its lease? Expiry is lazy:
/// the copy stays `Access::Read` with its data intact (a renewal may
/// revive it); the read merely faults back to the home.
pub fn lease_valid(w: &mut ProtoWorld, me: NodeId, b: BlockId, now: Time) -> bool {
    let ni = w.td.ni(me, b);
    // `pts == lease` is still covered: any write the reader could be
    // required to see carries `wts > lease >= pts`.
    if w.td.pts[me] <= w.td.lease[ni] {
        return true;
    }
    if let Some(m) = w.mutate.as_mut() {
        // Read straight through the expired lease once: the value may be
        // stale past a causally required write (td-lease-overrun).
        if m.fire(crate::mutate::Mutation::TdLeaseOverrun) {
            return true;
        }
    }
    w.emit(me, now, EventKind::LeaseExpire { block: b });
    false
}

/// Node-side fault entry point: request the block from its static home,
/// quoting our program timestamp and our copy's `wts` (0 = none).
pub fn start_fault(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    w.td.pending_kind[me] = Some(kind);
    let pts = w.td.pts[me];
    let have_wts = w.td.copy_wts[w.td.ni(me, b)];
    let depart = s.now() + w.cfg.cost.fault_exception_ns + w.cfg.cost.handler_ns;
    let home = w.route_home(b);
    w.send(
        s,
        me,
        home,
        depart,
        ProtoMsg::TdFetch {
            from: me,
            block: b,
            kind,
            pts,
            have_wts,
        },
    );
}

/// Fetch request at the home: queue it and drain the queue.
pub fn handle_fetch(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    wt: TdWaiter,
) {
    debug_assert_eq!(me, w.route_home(b), "tardis homes are static");
    w.td.waiting[b].push_back(wt);
    pump(w, s, me, b, s.now() + w.cfg.cost.handler_ns);
}

/// Drain the block's waiter queue at the home. Reads are granted in
/// arrival order (each extends `rts`); a write grant hands out exclusive
/// ownership and — for remote grantees — stalls the queue until the ack.
/// An owned block is recalled before anyone else is served.
fn pump(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId, mut at: Time) {
    loop {
        if w.td.busy[b] || w.td.waiting[b].is_empty() {
            return;
        }
        if let Some(owner) = w.td.owner[b] {
            w.td.busy[b] = true;
            w.send(s, me, owner, at, ProtoMsg::TdRecall { block: b });
            return;
        }
        let wtr = w.td.waiting[b].pop_front().unwrap();
        let now = s.now();
        match wtr.kind {
            FaultKind::Read => {
                let wts = w.td.wts[b];
                let lease = lease_grant(w.td.rts[b], wts, wtr.pts);
                w.td.rts[b] = lease;
                let renewal = wtr.have_wts == wts && wtr.have_wts != 0;
                w.audit(|c, w| c.td_read(w, wtr.from, b));
                if renewal {
                    // The requester's copy is current: extend the lease
                    // header-only, no payload moves.
                    w.emit(me, now, EventKind::LeaseRenew { block: b });
                    w.send(s, me, wtr.from, at, ProtoMsg::TdLease { block: b, lease });
                } else {
                    let c = w.charge_block_copy(s, me, b);
                    w.emit(me, now, EventKind::FetchServe { block: b });
                    w.send(
                        s,
                        me,
                        wtr.from,
                        at + c,
                        ProtoMsg::TdData {
                            block: b,
                            wts,
                            lease,
                            home: me,
                        },
                    );
                }
            }
            FaultKind::Write => {
                let old = w.td.wts[b];
                let rts = w.td.rts[b];
                let mut wts = wts_grant(old, rts);
                if let Some(m) = w.mutate.as_mut() {
                    use crate::mutate::Mutation;
                    if m.fire(Mutation::TdWtsStall) {
                        // Forget to mint a timestamp: the write reuses the
                        // previous one (td-wts-monotone).
                        wts = old;
                    } else if m.fire_if(Mutation::TdWtsUnderLease, rts > old) {
                        // Ignore outstanding leases: the write lands inside
                        // a promised read window (td-write-under-lease).
                        wts = old + 1;
                    }
                }
                if rts > old {
                    w.emit(me, now, EventKind::WtsBump { block: b });
                }
                w.audit(|c, _| c.td_write(wtr.from, b, wts, now));
                w.td.wts[b] = wts;
                w.td.owner[b] = Some(wtr.from);
                // A requester whose copy carries the current wts only needs
                // the upgrade: no payload.
                let with_data = wtr.have_wts != old;
                let dly = if with_data {
                    let c = w.charge_block_copy(s, me, b);
                    w.emit(me, now, EventKind::FetchServe { block: b });
                    c
                } else {
                    0
                };
                w.send(
                    s,
                    me,
                    wtr.from,
                    at + dly,
                    ProtoMsg::TdWGrant {
                        block: b,
                        wts,
                        with_data,
                        home: me,
                    },
                );
                // Busy until the ack: a header-only recall must never
                // overtake the data grant it would revoke. Self-grants
                // included — `owner` is already set but the access right
                // only installs at the grant event's delivery time.
                w.td.busy[b] = true;
                return;
            }
        }
        at += w.cfg.cost.handler_ns;
    }
}

/// Block data plus lease at the requester: install the read copy.
pub fn handle_data(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    wts: u64,
    lease: u64,
    home: NodeId,
) {
    let kind = w.td.pending_kind[me]
        .take()
        .expect("TdData without a pending fault");
    debug_assert_eq!(kind, FaultKind::Read);
    if me != home {
        w.data.copy_block(b, home, me);
    }
    let ni = w.td.ni(me, b);
    w.td.copy_wts[ni] = wts;
    w.td.lease[ni] = lease;
    w.td.pts[me] = w.td.pts[me].max(wts);
    w.grant(me, b, Access::Read);
    let at = s.now() + w.cfg.cost.handler_ns;
    w.block_obtained(s, me);
    w.wake(s, me, at);
}

/// Header-only lease renewal at the requester: the expired copy (still
/// `Access::Read`, data intact) is live again.
pub fn handle_lease(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId, lease: u64) {
    let kind = w.td.pending_kind[me]
        .take()
        .expect("TdLease without a pending fault");
    debug_assert_eq!(kind, FaultKind::Read);
    let ni = w.td.ni(me, b);
    debug_assert_ne!(w.td.copy_wts[ni], 0, "renewal without a copy");
    w.td.lease[ni] = lease;
    let cw = w.td.copy_wts[ni];
    w.td.pts[me] = w.td.pts[me].max(cw);
    debug_assert_eq!(w.access.get(me, b), Access::Read);
    let at = s.now() + w.cfg.cost.handler_ns;
    w.block_obtained(s, me);
    w.wake(s, me, at);
}

/// Exclusive write grant at the requester.
pub fn handle_wgrant(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    wts: u64,
    with_data: bool,
    home: NodeId,
) {
    let kind = w.td.pending_kind[me]
        .take()
        .expect("TdWGrant without a pending fault");
    debug_assert_eq!(kind, FaultKind::Write);
    if with_data && me != home {
        w.data.copy_block(b, home, me);
    }
    let ni = w.td.ni(me, b);
    w.td.copy_wts[ni] = wts;
    // Ownership needs no lease: reads hit on the ReadWrite copy, and the
    // expiry check only applies to read-only copies.
    w.td.lease[ni] = 0;
    w.td.pts[me] = w.td.pts[me].max(wts);
    w.grant(me, b, Access::ReadWrite);
    // Tardis blocks are never twinned or diffed — the recall writeback
    // carries the whole block — so the dirty list stays LRC-only.
    w.send(
        s,
        me,
        home,
        s.now() + w.cfg.cost.handler_ns,
        ProtoMsg::TdAck { from: me, block: b },
    );
    let at = s.now() + w.cfg.cost.handler_ns;
    w.block_obtained(s, me);
    w.wake(s, me, at);
}

/// Recall at the exclusive owner: surrender the block, writing the dirty
/// contents back. The busy/ack protocol guarantees the recall finds a
/// fully installed owner.
pub fn handle_recall(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId) {
    debug_assert_eq!(w.access.get(me, b), Access::ReadWrite);
    w.access.set(me, b, Access::Invalid);
    w.emit(me, s.now(), EventKind::Invalidate { block: b });
    let ni = w.td.ni(me, b);
    w.td.copy_wts[ni] = 0;
    w.td.lease[ni] = 0;
    let home = w.route_home(b);
    let c = w.charge_block_copy(s, me, b);
    w.send(
        s,
        me,
        home,
        s.now() + w.cfg.cost.handler_ns + c,
        ProtoMsg::TdWriteback { from: me, block: b },
    );
}

/// Writeback at the home: the master copy is current again; serve the
/// queue that forced the recall.
pub fn handle_writeback(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
) {
    debug_assert_eq!(w.td.owner[b], Some(from), "writeback by non-owner");
    if from != me {
        w.data.copy_block(b, from, me);
    }
    w.td.owner[b] = None;
    w.td.busy[b] = false;
    pump(w, s, me, b, s.now() + w.cfg.cost.handler_ns);
}

/// Grant ack at the home: the remote owner is installed; the block may be
/// recalled (or further requests served once it is surrendered).
pub fn handle_ack(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, from: NodeId, b: BlockId) {
    debug_assert_eq!(w.td.owner[b], Some(from), "ack by non-owner");
    debug_assert!(w.td.busy[b], "ack for a non-busy block");
    w.td.busy[b] = false;
    pump(w, s, me, b, s.now() + w.cfg.cost.handler_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::msg::Envelope;
    use crate::ops::{self, Attempt};
    use crate::vt::LEASE_TS;
    use dsm_mem::Layout;
    use dsm_sim::engine::Sched;

    fn setup() -> (ProtoWorld, Sched<Packet>) {
        let cfg = RunConfig::new(crate::Protocol::Tardis, 256).with_nodes(4);
        let mut w = ProtoWorld::new(cfg, Layout::new(4096, 256));
        w.load_golden(vec![3u8; 4096]);
        (w, Sched::for_testing(4))
    }

    /// Drain the queue and advance test-time past the last drained event,
    /// so a follow-up handler call never posts into the drained past.
    fn drain(s: &mut Sched<Packet>) -> Vec<(dsm_sim::Time, NodeId, Option<Packet>)> {
        let evs = s.take_events();
        if let Some(t) = evs.iter().map(|(t, ..)| *t).max() {
            s.set_now_for_testing(t);
        }
        evs
    }

    /// `handle_fetch` with the waiter fields spelled out flat.
    #[allow(clippy::too_many_arguments)]
    fn fetch(
        w: &mut ProtoWorld,
        s: &mut Sched<Packet>,
        me: NodeId,
        from: NodeId,
        b: BlockId,
        kind: FaultKind,
        pts: u64,
        have_wts: u64,
    ) {
        handle_fetch(
            w,
            s,
            me,
            b,
            TdWaiter {
                from,
                kind,
                pts,
                have_wts,
            },
        );
    }

    fn sent(
        evs: &[(dsm_sim::Time, NodeId, Option<Packet>)],
        to: NodeId,
    ) -> impl Iterator<Item = &ProtoMsg> {
        evs.iter().filter_map(move |(_, t, m)| match m {
            Some(Packet::App(Envelope { msg, .. })) if *t == to => Some(msg),
            _ => None,
        })
    }

    #[test]
    fn read_fetch_grants_data_with_lease() {
        let (mut w, mut s) = setup();
        // Block 0's static home is node 0.
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, 1, 0);
        let evs = s.take_events();
        let lease = sent(&evs, 2)
            .find_map(|m| match *m {
                ProtoMsg::TdData { wts, lease, .. } => {
                    assert_eq!(wts, 1);
                    Some(lease)
                }
                _ => None,
            })
            .expect("data grant sent");
        assert_eq!(lease, 1 + LEASE_TS);
        assert_eq!(w.td.rts[0], lease, "rts advanced to the lease end");
        assert_eq!(w.stats[0].fetches_served, 1);
        assert_eq!(w.stats[0].lease_renewals, 0);
    }

    #[test]
    fn current_copy_read_renews_header_only() {
        let (mut w, mut s) = setup();
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, 1, 0);
        let _ = drain(&mut s);
        // Same reader again, now quoting its copy's wts: header-only.
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, 9, 1);
        let evs = s.take_events();
        assert!(sent(&evs, 2).any(|m| matches!(m, ProtoMsg::TdLease { .. })));
        assert!(!sent(&evs, 2).any(|m| matches!(m, ProtoMsg::TdData { .. })));
        assert_eq!(w.stats[0].lease_renewals, 1);
        assert_eq!(w.stats[0].fetches_served, 1, "no second payload");
        // The renewed lease covers the new pts.
        assert_eq!(w.td.rts[0], 9 + LEASE_TS);
    }

    #[test]
    fn write_grant_jumps_past_outstanding_leases() {
        let (mut w, mut s) = setup();
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, 1, 0);
        let _ = drain(&mut s);
        let rts = w.td.rts[0];
        fetch(&mut w, &mut s, 0, 3, 0, FaultKind::Write, 1, 0);
        let evs = s.take_events();
        let wts = sent(&evs, 3)
            .find_map(|m| match *m {
                ProtoMsg::TdWGrant { wts, with_data, .. } => {
                    assert!(with_data, "cold writer needs the payload");
                    Some(wts)
                }
                _ => None,
            })
            .expect("write grant sent");
        assert!(wts > rts, "write ordered after every promised read");
        assert_eq!(w.td.owner[0], Some(3));
        assert!(w.td.busy[0], "remote grant keeps the block busy");
        assert_eq!(w.stats[0].wts_bumps, 1);
    }

    #[test]
    fn upgrade_of_current_copy_carries_no_data() {
        let (mut w, mut s) = setup();
        // Reader 2 holds the current copy (wts 1) and upgrades to write
        // before anyone else reads: no payload needed.
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, 1, 0);
        let _ = drain(&mut s);
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Write, 9, 1);
        let evs = s.take_events();
        assert!(sent(&evs, 2).any(|m| matches!(
            m,
            ProtoMsg::TdWGrant {
                with_data: false,
                ..
            }
        )));
    }

    #[test]
    fn renewal_racing_wts_bump_gets_fresh_data() {
        let (mut w, mut s) = setup();
        // Reader 2 installs the block at wts 1.
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, 1, 0);
        let _ = drain(&mut s);
        // Writer 3 takes the block exclusive and surrenders it again.
        fetch(&mut w, &mut s, 0, 3, 0, FaultKind::Write, 1, 0);
        let _ = drain(&mut s);
        handle_ack(&mut w, &mut s, 0, 3, 0);
        handle_writeback(&mut w, &mut s, 0, 3, 0);
        // Reader 2's renewal (quoting the stale wts 1) races the bump:
        // the home must ship fresh data, not a header-only lease.
        fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, 9, 1);
        let evs = s.take_events();
        assert!(sent(&evs, 2).any(|m| matches!(m, ProtoMsg::TdData { .. })));
        assert!(!sent(&evs, 2).any(|m| matches!(m, ProtoMsg::TdLease { .. })));
        assert_eq!(w.stats[0].lease_renewals, 0);
    }

    #[test]
    fn owned_block_is_recalled_before_the_next_grant() {
        let (mut w, mut s) = setup();
        fetch(&mut w, &mut s, 0, 3, 0, FaultKind::Write, 1, 0);
        let _ = drain(&mut s);
        handle_ack(&mut w, &mut s, 0, 3, 0);
        // A read from node 1 while node 3 owns the block: recall first.
        fetch(&mut w, &mut s, 0, 1, 0, FaultKind::Read, 1, 0);
        let evs = drain(&mut s);
        assert!(sent(&evs, 3).any(|m| matches!(m, ProtoMsg::TdRecall { .. })));
        assert!(
            !sent(&evs, 1).any(|m| matches!(m, ProtoMsg::TdData { .. })),
            "no grant while owned"
        );
        // Owner surrenders: install its (dirty) copy at the home, then the
        // parked read is served.
        w.grant(3, 0, Access::ReadWrite);
        w.data.node_mut(3, 0)[0] = 0xEE;
        w.td.pending_kind[3] = None;
        handle_recall(&mut w, &mut s, 3, 0);
        assert_eq!(w.access.get(3, 0), Access::Invalid);
        handle_writeback(&mut w, &mut s, 0, 3, 0);
        let evs = s.take_events();
        assert!(sent(&evs, 1).any(|m| matches!(m, ProtoMsg::TdData { .. })));
        assert_eq!(w.data.node(0)[0], 0xEE, "writeback landed at the home");
        assert_eq!(w.td.owner[0], None);
    }

    #[test]
    fn lease_expiring_exactly_at_pts_still_reads() {
        let (mut w, _s) = setup();
        w.grant(2, 0, Access::Read);
        let ni = w.td.ni(2, 0);
        w.td.copy_wts[ni] = 1;
        w.td.lease[ni] = 9;
        w.td.pts[2] = 9;
        let mut buf = [0u8; 8];
        // pts == lease end: still covered.
        assert!(matches!(
            ops::try_read(&mut w, 2, 0, 0, &mut buf, 0),
            Attempt::Done(_)
        ));
        assert_eq!(w.stats[2].lease_expiries, 0);
        // One tick past: expired — fault, but the copy survives for a
        // renewal (access stays Read, data intact).
        w.td.pts[2] = 10;
        assert_eq!(
            ops::try_read(&mut w, 2, 0, 0, &mut buf, 0),
            Attempt::Fault(0)
        );
        assert_eq!(w.stats[2].lease_expiries, 1);
        assert_eq!(w.access.get(2, 0), Access::Read, "expired, not invalid");
    }

    #[test]
    fn write_on_read_copy_faults_to_the_home() {
        let (mut w, _s) = setup();
        w.grant(2, 0, Access::Read);
        let ni = w.td.ni(2, 0);
        w.td.copy_wts[ni] = 1;
        w.td.lease[ni] = 9;
        assert_eq!(
            ops::try_write(&mut w, 2, 0, 0, &[1, 2, 3], 0),
            Attempt::Fault(0),
            "tardis upgrades go through the home"
        );
    }

    #[test]
    fn installs_advance_the_program_timestamp() {
        let (mut w, mut s) = setup();
        w.td.pending_kind[2] = Some(FaultKind::Read);
        handle_data(&mut w, &mut s, 2, 0, 7, 15, 0);
        assert_eq!(w.td.pts[2], 7, "pts catches up to the copy's wts");
        assert_eq!(w.td.copy_wts[w.td.ni(2, 0)], 7);
        assert_eq!(w.td.lease[w.td.ni(2, 0)], 15);
        assert_eq!(w.access.get(2, 0), Access::Read);
        w.td.pending_kind[2] = Some(FaultKind::Write);
        handle_wgrant(&mut w, &mut s, 2, 1, 12, true, 0);
        assert_eq!(w.td.pts[2], 12);
        assert_eq!(w.access.get(2, 1), Access::ReadWrite);
        assert!(w.nodes[2].dirty.is_empty(), "tardis blocks never twin/diff");
        // Remote grantee acks so the home can lift the busy bar.
        let evs = s.take_events();
        assert!(sent(&evs, 0).any(|m| matches!(m, ProtoMsg::TdAck { .. })));
    }

    #[test]
    fn self_grant_serializes_through_the_ack() {
        let (mut w, mut s) = setup();
        w.td.pending_kind[0] = Some(FaultKind::Write);
        fetch(&mut w, &mut s, 0, 0, 0, FaultKind::Write, 1, 0);
        // `owner` is set but the access right only installs when the
        // grant event delivers: a recall for a fetch arriving inside
        // that window must queue behind the busy bar, self or not.
        assert!(w.td.busy[0], "busy until the self-ack");
        assert_eq!(w.td.owner[0], Some(0));
        let evs = drain(&mut s);
        assert!(sent(&evs, 0).any(|m| matches!(m, ProtoMsg::TdWGrant { .. })));
        let wts = w.td.wts[0];
        handle_wgrant(&mut w, &mut s, 0, 0, wts, true, 0);
        assert_eq!(w.access.get(0, 0), Access::ReadWrite);
        let evs = drain(&mut s);
        assert!(sent(&evs, 0).any(|m| matches!(m, ProtoMsg::TdAck { .. })));
        handle_ack(&mut w, &mut s, 0, 0, 0);
        assert!(!w.td.busy[0]);
    }
}
