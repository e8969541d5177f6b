//! Synchronization substrate: queued locks and centralized barriers.
//!
//! Every lock has a static manager (`lock mod nodes`) holding the grant
//! queue; every barrier has a static manager likewise. Under the LRC
//! protocols, lock grants and barrier releases carry vector timestamps and
//! the write notices the acquirer is causally missing — this is the entire
//! consistency-information transport of LRC. Under Tardis they carry the
//! releaser's scalar program timestamp instead (the acquirer's
//! merge is what expires stale leases). Under SC the same messages flow
//! but carry no consistency payload (synchronization is cheap in SC, paper
//! §5.2.2).

use std::collections::VecDeque;

use dsm_sim::{NodeId, Sched, Time};

use crate::lrc;
use crate::msg::{Notice, Packet, ProtoMsg};
use crate::mutate::Mutation;
use crate::vt::VClock;
use crate::world::ProtoWorld;

/// State of one lock at its manager.
#[derive(Debug, Default, Hash)]
pub struct LockState {
    /// Currently held.
    pub held: bool,
    /// Current holder (meaningful when held).
    pub holder: NodeId,
    /// Vector time of the last release (LRC).
    pub last_vt: Option<VClock>,
    /// Largest program timestamp released through this lock (Tardis).
    pub last_pts: u64,
    /// Waiting acquirers in arrival order, with their request timestamps.
    pub queue: VecDeque<(NodeId, Option<VClock>)>,
}

/// State of one barrier at its manager.
#[derive(Debug, Default, Hash)]
pub struct BarrierState {
    /// Nodes that have arrived this episode, with their vector times and
    /// program timestamps.
    pub arrived: Vec<(NodeId, Option<VClock>, Option<u64>)>,
}

/// Manager node for a lock.
pub fn lock_manager(w: &ProtoWorld, l: usize) -> NodeId {
    l % w.cfg.nodes
}

/// Manager node for a barrier.
pub fn barrier_manager(w: &ProtoWorld, b: usize) -> NodeId {
    b % w.cfg.nodes
}

/// Node-side acquire entry point; the caller blocks until the grant wakes
/// it.
pub fn lock_acquire_start(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, l: usize) {
    let mgr = lock_manager(w, l);
    let vt = w.has_lrc.then(|| w.nodes[me].vt.clone());
    let depart = s.now() + w.cfg.cost.handler_ns;
    w.send(
        s,
        me,
        mgr,
        depart,
        ProtoMsg::LockReq {
            from: me,
            lock: l,
            vt,
        },
    );
}

/// Node-side release entry point. Returns the local time to charge (release
/// actions: diffing, versioning); the release message is already in flight.
pub fn lock_release_start(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, l: usize) -> Time {
    let elapsed = lrc::release_actions(w, s, me);
    w.audit(|c, w| c.lock_release(w, me, l, s.now()));
    let mgr = lock_manager(w, l);
    let vt = w.has_lrc.then(|| w.nodes[me].vt.clone());
    let pts = w.has_tardis.then(|| w.td.pts[me]);
    let depart = s.now() + elapsed + w.cfg.cost.handler_ns;
    w.send(
        s,
        me,
        mgr,
        depart,
        ProtoMsg::LockRel {
            from: me,
            lock: l,
            vt,
            pts,
        },
    );
    elapsed
}

/// Node-side barrier entry point; the caller blocks until the release wakes
/// it. Returns the local time to charge before blocking.
pub fn barrier_arrive_start(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    bar: usize,
) -> Time {
    let elapsed = lrc::release_actions(w, s, me);
    w.audit(|c, _| c.bar_arrive(me, bar));
    let mgr = barrier_manager(w, bar);
    let vt = w.has_lrc.then(|| w.nodes[me].vt.clone());
    let pts = w.has_tardis.then(|| w.td.pts[me]);
    let depart = s.now() + elapsed + w.cfg.cost.handler_ns;
    w.send(
        s,
        me,
        mgr,
        depart,
        ProtoMsg::BarArrive {
            from: me,
            barrier: bar,
            vt,
            pts,
        },
    );
    elapsed
}

/// Lock request at the manager.
pub fn handle_lock_req(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    l: usize,
    vt: Option<VClock>,
) {
    let lock = w.lock_mut(l);
    if lock.held {
        lock.queue.push_back((from, vt));
        return;
    }
    lock.held = true;
    lock.holder = from;
    send_grant(w, s, me, from, l, vt);
}

/// Lock release at the manager: record the release time, pass to the next
/// waiter if any.
pub fn handle_lock_rel(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    l: usize,
    mut vt: Option<VClock>,
    pts: Option<u64>,
) {
    // The manager records a stale release time, forgetting the releaser's
    // final interval (and with it that interval's notices in later grants).
    let eligible = vt.as_ref().is_some_and(|v| v.get(from) > 0);
    if w.fires(Mutation::LockStaleVt, eligible) {
        vt.as_mut().unwrap().rollback(from);
    }
    let lock = w.lock_mut(l);
    debug_assert!(lock.held && lock.holder == from, "release by non-holder");
    lock.last_vt = vt;
    if let Some(p) = pts {
        lock.last_pts = lock.last_pts.max(p);
    }
    match lock.queue.pop_front() {
        Some((next, req_vt)) => {
            lock.holder = next;
            send_grant(w, s, me, next, l, req_vt);
        }
        None => {
            lock.held = false;
        }
    }
}

fn send_grant(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    to: NodeId,
    l: usize,
    req_vt: Option<VClock>,
) {
    let (vt, mut notices) = match (&w.locks[l].last_vt, req_vt) {
        (Some(last), Some(req)) => (Some(last.clone()), w.log.collect_missing(&req, last)),
        (last, _) => (last.clone(), Vec::new()),
    };
    // A grant that loses one of the write notices the acquirer is causally
    // owed.
    if w.fires(Mutation::DropWriteNotice, !notices.is_empty()) {
        notices.pop();
    }
    w.emit_notices(me, s.now(), notices.len(), false);
    let pts = w.has_tardis.then(|| w.locks[l].last_pts);
    let depart = s.now() + w.cfg.cost.sync_handler_ns;
    w.send(
        s,
        me,
        to,
        depart,
        ProtoMsg::LockGrant {
            lock: l,
            vt,
            notices,
            pts,
        },
    );
}

/// Merge a program timestamp carried by a grant or barrier release into
/// the acquirer's (Tardis): a pts jumped past a lease end is what expires
/// the corresponding copy at the next read.
fn merge_pts(w: &mut ProtoWorld, me: NodeId, pts: Option<u64>) {
    let Some(p) = pts else { return };
    debug_assert!(w.has_tardis, "pts piggyback on a non-Tardis run");
    w.audit(|c, _| c.td_merge(me, p));
    w.td.pts[me] = w.td.pts[me].max(p);
}

/// Barrier arrival at the manager.
pub fn handle_bar_arrive(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    bar: usize,
    vt: Option<VClock>,
    pts: Option<u64>,
) {
    let n = w.cfg.nodes;
    let barrier = w.barrier_mut(bar);
    barrier.arrived.push((from, vt, pts));
    if barrier.arrived.len() < n {
        return;
    }
    let arrived = std::mem::take(&mut barrier.arrived);
    // Merge every participant's vector time.
    let merged = if w.has_lrc {
        let mut m = VClock::new(n);
        for (_, vt, _) in &arrived {
            m.merge(vt.as_ref().expect("LRC barrier arrival without vt"));
        }
        Some(m)
    } else {
        None
    };
    // Merge every participant's program timestamp: the release carries the
    // episode's maximum, so stale leases expire cluster-wide.
    let merged_pts = if w.has_tardis {
        Some(
            arrived
                .iter()
                .map(|(_, _, p)| p.expect("Tardis barrier arrival without pts"))
                .max()
                .unwrap_or(0),
        )
    } else {
        None
    };
    // Release everyone; the manager serializes the sends.
    let per_send = w.cfg.cost.sync_handler_ns;
    for (i, (node, vt_j, _)) in arrived.into_iter().enumerate() {
        let notices = match (&merged, &vt_j) {
            (Some(m), Some(have)) => w.log.collect_missing(have, m),
            _ => Vec::new(),
        };
        w.emit_notices(me, s.now(), notices.len(), false);
        let depart = s.now() + per_send * (i as Time + 1);
        w.occupy(s, me, per_send);
        w.send(
            s,
            me,
            node,
            depart,
            ProtoMsg::BarRelease {
                barrier: bar,
                vt: merged.clone(),
                notices,
                pts: merged_pts,
            },
        );
    }
}

/// What an acquirer waited for: a lock's grant or a barrier's release.
#[derive(Debug, Clone, Copy)]
pub enum SyncObj {
    /// Lock `id`.
    Lock(usize),
    /// Barrier `id`.
    Barrier(usize),
}

/// Lock grant or barrier release at the acquirer: apply the consistency
/// information it carries and resume.
pub fn handle_acquired(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    what: SyncObj,
    vt: Option<VClock>,
    notices: Vec<Notice>,
    pts: Option<u64>,
) {
    let now = s.now();
    match what {
        SyncObj::Lock(l) => w.audit(|c, w| c.lock_acquire(w, me, l, vt.as_ref(), &notices, now)),
        SyncObj::Barrier(bar) => {
            // Node 0's detector misses the barrier's happens-before join
            // (sticky): a cross-node access pair ordered only by this
            // barrier must then surface as a race.
            let skip_join = me == 0 && w.fires_sticky(Mutation::HbSkipBarrier);
            w.audit(|c, w| c.bar_pass(w, me, bar, vt.as_ref(), &notices, skip_join, now));
        }
    }
    merge_pts(w, me, pts);
    let elapsed = lrc::acquire_actions(w, s, me, vt.as_ref(), &notices);
    let at = s.now() + w.cfg.cost.handler_ns + elapsed;
    w.wake(s, me, at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::msg::Envelope;
    use dsm_mem::Layout;
    use dsm_sim::engine::Sched;

    fn setup(protocol: crate::Protocol) -> (ProtoWorld, Sched<Packet>) {
        let cfg = RunConfig::new(protocol, 256).with_nodes(4);
        (
            ProtoWorld::new(cfg, Layout::new(4096, 256)),
            Sched::for_testing(4),
        )
    }

    #[test]
    fn free_lock_is_granted_immediately() {
        let (mut w, mut s) = setup(crate::Protocol::Sc);
        handle_lock_req(&mut w, &mut s, 1, 2, 1, None);
        assert!(w.locks[1].held);
        assert_eq!(w.locks[1].holder, 2);
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 2
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::LockGrant { .. },
                    ..
                }))
            )));
    }

    #[test]
    fn held_lock_queues_and_release_hands_over() {
        let (mut w, mut s) = setup(crate::Protocol::Sc);
        handle_lock_req(&mut w, &mut s, 1, 2, 1, None);
        let _ = s.take_events();
        handle_lock_req(&mut w, &mut s, 1, 3, 1, None);
        assert_eq!(w.locks[1].queue.len(), 1);
        assert!(s.take_events().is_empty(), "queued acquire sends nothing");
        handle_lock_rel(&mut w, &mut s, 1, 2, 1, None, None);
        assert!(w.locks[1].held);
        assert_eq!(w.locks[1].holder, 3);
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 3
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::LockGrant { .. },
                    ..
                }))
            )));
    }

    #[test]
    fn lrc_grant_carries_the_missing_notices() {
        let (mut w, mut s) = setup(crate::Protocol::Hlrc);
        // Node 2 released the lock at interval vt=[0,0,1,0] having written
        // block 5 in its interval 1.
        w.log.push_interval(
            2,
            1,
            vec![Notice {
                block: 5,
                writer: 2,
                version: 1,
            }],
        );
        let mut rel_vt = VClock::new(4);
        rel_vt.tick(2);
        w.lock_mut(1).held = true;
        w.lock_mut(1).holder = 2;
        handle_lock_rel(&mut w, &mut s, 1, 2, 1, Some(rel_vt), None);
        // Node 3 acquires with an empty vt: the grant must carry the notice.
        handle_lock_req(&mut w, &mut s, 1, 3, 1, Some(VClock::new(4)));
        let evs = s.take_events();
        let grant = evs
            .iter()
            .find_map(|(_, to, m)| match m {
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::LockGrant { notices, .. },
                    ..
                })) if *to == 3 => Some(notices.clone()),
                _ => None,
            })
            .expect("grant sent");
        assert_eq!(grant.len(), 1);
        assert_eq!(grant[0].block, 5);
        assert_eq!(w.stats[1].write_notices_sent, 1);
    }

    #[test]
    fn barrier_releases_only_when_everyone_arrived() {
        let (mut w, mut s) = setup(crate::Protocol::Sc);
        for node in 0..3 {
            handle_bar_arrive(&mut w, &mut s, 0, node, 0, None, None);
            assert!(
                s.take_events().is_empty(),
                "node {node} must not release early"
            );
        }
        handle_bar_arrive(&mut w, &mut s, 0, 3, 0, None, None);
        let evs = s.take_events();
        let released: Vec<_> = evs
            .iter()
            .filter(|(_, _, m)| match m {
                // The manager's own release is a self-send, served at once.
                Some(Packet::App(env) | Packet::Serve(env)) => {
                    matches!(env.msg, ProtoMsg::BarRelease { .. })
                }
                _ => false,
            })
            .map(|(_, to, _)| *to)
            .collect();
        assert_eq!(released, vec![0, 1, 2, 3]);
        assert!(w.barriers[&0].arrived.is_empty(), "episode state resets");
    }

    #[test]
    fn managers_are_statically_distributed() {
        let (w, _s) = setup(crate::Protocol::Sc);
        assert_eq!(lock_manager(&w, 0), 0);
        assert_eq!(lock_manager(&w, 5), 1);
        assert_eq!(barrier_manager(&w, 7), 3);
    }
}
