//! The sequentially consistent protocol (paper §2.1): a Stache-style
//! directory kept at each block's (first-touch) home.
//!
//! States per block: at most one exclusive owner, or any number of sharers.
//! Read misses fetch from the home (with a fetch-back from an exclusive
//! owner if needed); write misses invalidate all sharers, collecting acks at
//! the home before the exclusive grant. A directory entry stays *busy* from
//! the start of a transaction until the requester acknowledges its grant,
//! which serializes conflicting transactions (later requests queue).

use std::collections::VecDeque;

use dsm_mem::{Access, BlockId};
use dsm_obs::EventKind;
use dsm_sim::{NodeId, Sched, Time};

use crate::msg::{FaultKind, Packet, ProtoMsg};
use crate::world::{grant_access, ProtoWorld};

/// One directory entry, conceptually located at the block's home.
#[derive(Debug, Default, Clone, Hash)]
pub struct DirEntry {
    /// Exclusive owner, if the block is in the modified state somewhere.
    pub owner: Option<NodeId>,
    /// Bitmask of nodes holding read-only copies (includes the home when
    /// its own copy is registered read-only).
    pub sharers: u64,
    /// In-flight transaction; queues later requests.
    pub pending: Option<Pending>,
    /// Requests that arrived while the entry was busy.
    pub waiters: VecDeque<(NodeId, FaultKind)>,
}

/// An in-flight directory transaction.
#[derive(Debug, Clone, Hash)]
pub struct Pending {
    /// The node being served.
    pub requester: NodeId,
    /// Load or store miss.
    pub kind: FaultKind,
    /// Invalidation / fetch-back acknowledgments still outstanding.
    pub acks_left: u32,
}

/// SC protocol state: the (logically distributed) directory.
#[derive(Debug, Hash)]
pub struct ScState {
    dir: Vec<DirEntry>,
}

impl ScState {
    /// Empty directory for `n_blocks` blocks (0 for a world no region of
    /// which runs SC).
    pub fn new(n_blocks: usize) -> Self {
        ScState {
            dir: vec![DirEntry::default(); n_blocks],
        }
    }

    /// Directory entry for a block (None only for out-of-range ids).
    pub fn dir(&self, b: BlockId) -> Option<&DirEntry> {
        self.dir.get(b)
    }

    fn entry(&mut self, b: BlockId) -> &mut DirEntry {
        &mut self.dir[b]
    }
}

#[inline]
fn bit(n: NodeId) -> u64 {
    1u64 << n
}

/// Node-side fault entry point: send the miss request toward the home.
/// The caller blocks afterwards; the grant (or NowHome) wakes it.
pub fn start_fault(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    w.nodes[me].pending_fault = Some((b, kind));
    w.nodes[me].fault_poisoned = false;
    w.nodes[me].fault_retries = 0;
    let depart = s.now() + w.cfg.cost.fault_exception_ns + w.cfg.cost.handler_ns;
    let target = w
        .homes
        .cached(me, b)
        .unwrap_or_else(|| w.homes.directory_node(b));
    let msg = match kind {
        FaultKind::Read => ProtoMsg::ScReadReq { from: me, block: b },
        FaultKind::Write => ProtoMsg::ScWriteReq { from: me, block: b },
    };
    w.send(s, me, target, depart, msg);
}

/// A read or write request arriving at `me` (home, directory, or stale
/// target to forward from).
pub fn handle_request(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    let now = s.now();
    let handler = w.cfg.cost.handler_ns;
    match w.homes.home(b) {
        Some(h) if h == me => {
            process_dir_request(w, s, me, from, b, kind, now + handler);
        }
        Some(h) => {
            // Not (or no longer) ours: forward to the claimed home.
            let msg = match kind {
                FaultKind::Read => ProtoMsg::ScReadReq { from, block: b },
                FaultKind::Write => ProtoMsg::ScWriteReq { from, block: b },
            };
            w.send(s, me, h, now + handler, msg);
        }
        None => {
            // We are the static directory node and the block is untouched:
            // first touch claims it for the requester.
            debug_assert_eq!(me, w.homes.directory_node(b));
            w.homes.claim_for(b, from);
            w.homes.learn(me, b, from);
            // Initialize the entry and keep it busy until the claimer
            // confirms (handle_now_home completes it at the new home).
            let e = w.sc.entry(b);
            debug_assert!(e.pending.is_none() && e.owner.is_none() && e.sharers == 0);
            e.pending = Some(Pending {
                requester: from,
                kind,
                acks_left: 0,
            });
            match kind {
                FaultKind::Read => e.sharers = bit(from),
                FaultKind::Write => e.owner = Some(from),
            }
            w.send(
                s,
                me,
                from,
                now + handler,
                ProtoMsg::ScNowHome { block: b, kind },
            );
        }
    }
}

/// Begin (or queue) a directory transaction at the home.
fn process_dir_request(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    home: NodeId,
    from: NodeId,
    b: BlockId,
    kind: FaultKind,
    at: Time,
) {
    {
        let e = w.sc.entry(b);
        if e.pending.is_some() {
            e.waiters.push_back((from, kind));
            return;
        }
        e.pending = Some(Pending {
            requester: from,
            kind,
            acks_left: 0,
        });
    }
    match kind {
        FaultKind::Read => begin_read(w, s, home, from, b, at),
        FaultKind::Write => begin_write(w, s, home, from, b, at),
    }
}

fn begin_read(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    home: NodeId,
    from: NodeId,
    b: BlockId,
    at: Time,
) {
    let owner = w.sc.entry(b).owner;
    match owner {
        Some(o) if o != home && o != from => {
            // Fetch back from the exclusive owner; completion in
            // handle_write_back.
            w.sc.entry(b).pending.as_mut().expect("pending").acks_left = 1;
            w.send(s, home, o, at, ProtoMsg::ScFetchBack { block: b });
        }
        Some(o) if o == home => {
            // Home itself is the exclusive owner: downgrade locally.
            let e = w.sc.entry(b);
            e.owner = None;
            e.sharers |= bit(home);
            w.grant(home, b, Access::Read);
            send_read_grant(w, s, home, from, b, at);
        }
        Some(_) /* o == from: requester already owns it exclusively */ => {
            // Can only happen through a stale fault races; re-grant.
            send_read_grant(w, s, home, from, b, at);
        }
        None => {
            send_read_grant(w, s, home, from, b, at);
        }
    }
}

fn send_read_grant(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    home: NodeId,
    from: NodeId,
    b: BlockId,
    at: Time,
) {
    w.sc.entry(b).sharers |= bit(from);
    let with_data = from != home;
    let extra = if with_data {
        let c = w.charge_block_copy(s, home, b);
        w.emit(home, s.now(), EventKind::FetchServe { block: b });
        c
    } else {
        0
    };
    w.send(
        s,
        home,
        from,
        at + extra,
        ProtoMsg::ScGrant {
            block: b,
            exclusive: false,
            with_data,
            home,
        },
    );
    // Read grants complete immediately: concurrent readers are served
    // back-to-back. The grant/invalidation race this opens is handled at
    // the requester by fault poisoning (see handle_inval / handle_grant).
    complete_transaction(w, s, home, b, at + extra);
}

fn begin_write(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    home: NodeId,
    from: NodeId,
    b: BlockId,
    at: Time,
) {
    // Collect every node with a copy other than the requester. The home's
    // own copy is invalidated locally (no message to self).
    let (owner, sharers) = {
        let e = w.sc.entry(b);
        (e.owner, e.sharers)
    };
    let mut targets: u64 = sharers;
    if let Some(o) = owner {
        targets |= bit(o);
    }
    targets &= !bit(from);
    if targets & bit(home) != 0 {
        targets &= !bit(home);
        // The home invalidates its own copy without a message, so the
        // poisoning that handle_inval performs for remote sharers must
        // happen here too: a read grant the home sent *to itself* may
        // still be in flight (read transactions complete at send time),
        // and installing it after this invalidation would leave the home
        // a stale read copy invisible to the directory.
        if w.nodes[home].pending_fault == Some((b, FaultKind::Read)) {
            w.nodes[home].fault_poisoned = true;
        }
        if w.access.get(home, b) != Access::Invalid {
            w.access.set(home, b, Access::Invalid);
            w.emit(home, at, EventKind::Invalidate { block: b });
        }
    }
    let mut skip_mask = 0u64;
    if let Some(m) = w.mutate.as_mut() {
        // Leave the lowest-numbered remote sharer un-invalidated: its stale
        // read-only copy survives into the requester's exclusive grant. The
        // skipped ack is not counted, so the transaction still completes.
        if m.fire_if(crate::mutate::Mutation::ScKeepReader, targets != 0) {
            skip_mask = 1u64 << targets.trailing_zeros();
        }
    }
    let mut acks = 0u32;
    for t in 0..w.cfg.nodes {
        if (targets & !skip_mask) & bit(t) != 0 {
            acks += 1;
            w.send(s, home, t, at, ProtoMsg::ScInval { block: b });
        }
    }
    {
        let e = w.sc.entry(b);
        e.sharers &= bit(from); // only a requester's own RO copy survives
        if e.owner != Some(from) {
            e.owner = None;
        }
        e.pending.as_mut().expect("pending").acks_left = acks;
    }
    if acks == 0 {
        complete_write(w, s, home, from, b, at);
    }
}

fn complete_write(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    home: NodeId,
    from: NodeId,
    b: BlockId,
    at: Time,
) {
    let with_data = w.access.get(from, b) == Access::Invalid && from != home;
    {
        let e = w.sc.entry(b);
        e.owner = Some(from);
        e.sharers = 0;
    }
    // Home's own copy becomes stale under a remote exclusive owner. Poison
    // any in-flight self-grant for the same reason as in begin_write.
    if from != home {
        if w.nodes[home].pending_fault == Some((b, FaultKind::Read)) {
            w.nodes[home].fault_poisoned = true;
        }
        if w.access.get(home, b) != Access::Invalid {
            w.access.set(home, b, Access::Invalid);
        }
    }
    let extra = if with_data {
        let c = w.charge_block_copy(s, home, b);
        w.emit(home, s.now(), EventKind::FetchServe { block: b });
        c
    } else {
        0
    };
    w.send(
        s,
        home,
        from,
        at + extra,
        ProtoMsg::ScGrant {
            block: b,
            exclusive: true,
            with_data,
            home,
        },
    );
}

/// Fetch-back at the exclusive owner: downgrade to read-only, ship data home.
pub fn handle_fetch_back(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId) {
    debug_assert_eq!(w.access.get(me, b), Access::ReadWrite);
    w.grant(me, b, Access::Read);
    let c = w.charge_block_copy(s, me, b);
    let home = w.route_home(b);
    w.send(
        s,
        me,
        home,
        s.now() + w.cfg.cost.handler_ns + c,
        ProtoMsg::ScWriteBack {
            from: me,
            block: b,
            invalidated: false,
        },
    );
}

/// Invalidation at a sharer or owner.
pub fn handle_inval(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId) {
    // An invalidation overtaking our in-flight read grant for the same
    // block poisons the grant: it must be discarded and retried.
    if w.nodes[me].pending_fault == Some((b, FaultKind::Read)) {
        w.nodes[me].fault_poisoned = true;
    }
    let home = w.route_home(b);
    let at = s.now() + w.cfg.cost.handler_ns;
    match w.access.get(me, b) {
        Access::ReadWrite => {
            w.access.set(me, b, Access::Invalid);
            w.emit(me, at, EventKind::Invalidate { block: b });
            let c = w.charge_block_copy(s, me, b);
            w.send(
                s,
                me,
                home,
                at + c,
                ProtoMsg::ScWriteBack {
                    from: me,
                    block: b,
                    invalidated: true,
                },
            );
        }
        Access::Read => {
            w.access.set(me, b, Access::Invalid);
            w.emit(me, at, EventKind::Invalidate { block: b });
            w.send(s, me, home, at, ProtoMsg::ScInvalAck { from: me, block: b });
        }
        Access::Invalid => {
            // Copy already dropped (e.g. replaced during our own fault);
            // the home still needs the ack.
            w.send(s, me, home, at, ProtoMsg::ScInvalAck { from: me, block: b });
        }
    }
}

/// Data written back to the home (fetch-back or invalidation of the owner).
pub fn handle_write_back(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
    invalidated: bool,
) {
    // Install the latest data in the home copy.
    w.data.copy_block(b, from, me);
    let c = w.charge_block_copy(s, me, b);
    {
        let e = w.sc.entry(b);
        // In the write-invalidation path the directory already cleared the
        // owner when it fanned out; in the read fetch-back path it is still
        // recorded.
        debug_assert!(e.owner == Some(from) || (invalidated && e.owner.is_none()));
        e.owner = None;
        if !invalidated {
            // Read fetch-back: the old owner keeps a read-only copy, and the
            // home copy is now valid too.
            e.sharers |= bit(from) | bit(me);
        }
    }
    if !invalidated && w.access.get(me, b) == Access::Invalid {
        w.grant(me, b, Access::Read);
    }
    ack_received(w, s, me, b, s.now() + c + w.cfg.cost.handler_ns);
}

/// Invalidation ack from a read-only sharer.
pub fn handle_inval_ack(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    _from: NodeId,
    b: BlockId,
) {
    ack_received(w, s, me, b, s.now() + w.cfg.cost.handler_ns);
}

fn ack_received(w: &mut ProtoWorld, s: &mut Sched<Packet>, home: NodeId, b: BlockId, at: Time) {
    let (requester, kind, done) = {
        let e = w.sc.entry(b);
        let p = e.pending.as_mut().expect("ack without transaction");
        p.acks_left -= 1;
        (p.requester, p.kind, p.acks_left == 0)
    };
    if !done {
        return;
    }
    match kind {
        FaultKind::Read => send_read_grant(w, s, home, requester, b, at),
        FaultKind::Write => complete_write(w, s, home, requester, b, at),
    }
}

/// Grant arriving at the requester: install access, confirm to the home.
pub fn handle_grant(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    exclusive: bool,
    with_data: bool,
    home: NodeId,
) {
    if let Some((pb, pk)) = w.nodes[me].pending_fault {
        assert!(
            pb == b && (pk == FaultKind::Write) == exclusive,
            "grant mismatch: node {me} pending ({pb},{pk:?}) got block {b} exclusive={exclusive}"
        );
    } else {
        panic!("grant for node {me} block {b} with no pending fault");
    }
    w.homes.learn(me, b, home);
    let at = s.now() + w.cfg.cost.handler_ns;
    if !exclusive && w.nodes[me].fault_poisoned {
        // The copy this grant carries was invalidated while in flight:
        // discard it and retry the miss from scratch.
        w.nodes[me].fault_poisoned = false;
        w.nodes[me].fault_retries += 1;
        assert!(
            w.nodes[me].fault_retries < 10_000,
            "read fault on block {b} livelocked under invalidation pressure"
        );
        // The retry is a second fault on the same access.
        let again = EventKind::FaultBegin {
            block: b,
            write: false,
        };
        w.emit(me, s.now(), again);
        let target = w
            .homes
            .cached(me, b)
            .unwrap_or_else(|| w.homes.directory_node(b));
        w.send(
            s,
            me,
            target,
            at,
            ProtoMsg::ScReadReq { from: me, block: b },
        );
        return;
    }
    if with_data {
        w.data.copy_block(b, home, me);
    }
    w.grant(
        me,
        b,
        if exclusive {
            Access::ReadWrite
        } else {
            Access::Read
        },
    );
    w.audit(|c, w| c.sc_install(w, me, b, exclusive, s.now()));
    w.nodes[me].pending_fault = None;
    if exclusive {
        if me == home {
            complete_transaction(w, s, home, b, at);
        } else {
            w.send(s, me, home, at, ProtoMsg::ScGrantAck { from: me, block: b });
        }
    }
    w.block_obtained(s, me);
    w.wake(s, me, at);
}

/// First-touch claim confirmation at the new home.
pub fn handle_now_home(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    w.homes.learn(me, b, me);
    w.nodes[me].pending_fault = None;
    w.nodes[me].fault_poisoned = false;
    w.grant(me, b, grant_access(kind));
    let at = s.now() + w.cfg.cost.handler_ns;
    complete_transaction(w, s, me, b, at);
    w.block_obtained(s, me);
    w.wake(s, me, at);
}

/// Grant-ack at the home: transaction complete; serve the next waiter.
pub fn handle_grant_ack(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    _from: NodeId,
    b: BlockId,
) {
    complete_transaction(w, s, me, b, s.now() + w.cfg.cost.handler_ns);
}

fn complete_transaction(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    home: NodeId,
    b: BlockId,
    at: Time,
) {
    let next = {
        let e = w.sc.entry(b);
        debug_assert!(e.pending.is_some());
        e.pending = None;
        e.waiters.pop_front()
    };
    if let Some((from, kind)) = next {
        // Re-present the waiting request through the event queue strictly
        // after `at`: when the home itself was the requester, its wake is
        // scheduled at `at` and it must get to retry its access before the
        // next transaction can snatch the block back (otherwise a home
        // node's own writes livelock under read pressure).
        let msg = match kind {
            FaultKind::Read => ProtoMsg::ScReadReq { from, block: b },
            FaultKind::Write => ProtoMsg::ScWriteReq { from, block: b },
        };
        w.send(s, home, home, at + w.cfg.cost.handler_ns, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::msg::Envelope;
    use dsm_mem::Layout;
    use dsm_sim::engine::Sched;

    fn setup() -> (ProtoWorld, Sched<Packet>) {
        let cfg = RunConfig::new(crate::Protocol::Sc, 256).with_nodes(4);
        let mut w = ProtoWorld::new(cfg, Layout::new(4096, 256));
        w.load_golden(vec![7u8; 4096]);
        (w, Sched::for_testing(4))
    }

    #[test]
    fn read_request_at_unclaimed_block_claims_for_requester() {
        let (mut w, mut s) = setup();
        // Block 1's static directory node is 1; a read request from node 3
        // arriving there claims the block for node 3.
        handle_request(&mut w, &mut s, 1, 3, 1, FaultKind::Read);
        assert_eq!(w.homes.home(1), Some(3));
        let e = w.sc.dir(1).unwrap();
        assert!(e.pending.is_some(), "claim keeps the entry busy");
        assert_eq!(e.sharers, bit(3));
        // A NowHome message is in flight to node 3.
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 3
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::ScNowHome { .. },
                    ..
                }))
            )));
    }

    #[test]
    fn write_request_fans_out_invalidations_to_all_sharers() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 0);
        {
            let e = w.sc.entry(0);
            e.sharers = bit(1) | bit(2) | bit(3);
        }
        w.grant(1, 0, Access::Read);
        w.grant(2, 0, Access::Read);
        w.grant(3, 0, Access::Read);
        handle_request(&mut w, &mut s, 0, 1, 0, FaultKind::Write);
        // Node 1 is the requester: nodes 2 and 3 get invalidations.
        let evs = s.take_events();
        let inval_targets: Vec<_> = evs
            .iter()
            .filter(|(_, _, m)| {
                matches!(
                    m,
                    Some(Packet::App(Envelope {
                        msg: ProtoMsg::ScInval { .. },
                        ..
                    }))
                )
            })
            .map(|(_, to, _)| *to)
            .collect();
        assert_eq!(inval_targets, vec![2, 3]);
        assert_eq!(w.sc.dir(0).unwrap().pending.as_ref().unwrap().acks_left, 2);
    }

    #[test]
    fn requests_queue_behind_a_busy_entry() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 0);
        w.sc.entry(0).pending = Some(Pending {
            requester: 2,
            kind: FaultKind::Read,
            acks_left: 1,
        });
        handle_request(&mut w, &mut s, 0, 3, 0, FaultKind::Write);
        let e = w.sc.dir(0).unwrap();
        assert_eq!(e.waiters.len(), 1);
        assert_eq!(e.waiters[0], (3, FaultKind::Write));
        assert!(
            s.take_events().is_empty(),
            "queued requests send nothing yet"
        );
    }

    #[test]
    fn inval_of_exclusive_copy_writes_data_back() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 0);
        w.grant(2, 0, Access::ReadWrite);
        w.sc.entry(0).owner = Some(2);
        w.sc.entry(0).pending = Some(Pending {
            requester: 3,
            kind: FaultKind::Write,
            acks_left: 1,
        });
        w.data.node_mut(2, 0)[0] = 99;
        handle_inval(&mut w, &mut s, 2, 0);
        assert_eq!(w.access.get(2, 0), Access::Invalid);
        assert_eq!(w.stats[2].invalidations, 1);
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 0
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::ScWriteBack {
                        invalidated: true,
                        ..
                    },
                    ..
                }))
            )));
    }

    #[test]
    fn inval_poisons_a_pending_read_fault() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 0);
        w.nodes[2].pending_fault = Some((0, FaultKind::Read));
        handle_inval(&mut w, &mut s, 2, 0);
        assert!(w.nodes[2].fault_poisoned);
        // A pending WRITE fault is not poisoned (serialized by grant-ack).
        w.nodes[3].pending_fault = Some((0, FaultKind::Write));
        handle_inval(&mut w, &mut s, 3, 0);
        assert!(!w.nodes[3].fault_poisoned);
    }
}
