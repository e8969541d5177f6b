//! The home-based lazy release consistency protocol (paper §2.3).
//!
//! Multiple concurrent writers per block: each writer twins the block at its
//! first write in an interval, and at release diffs it against the twin and
//! eagerly ships the diff to the block's home, which applies it. Write
//! notices (tagged with the writer's interval) propagate lazily with lock
//! grants and barrier releases; an invalidated copy is re-fetched whole from
//! the home, which defers the fetch until every causally required diff has
//! been applied.

use dsm_mem::{Access, BlockId};
use dsm_obs::EventKind;
use dsm_sim::{NodeId, Sched, Time};

use crate::diff::Diff;
use crate::msg::{FaultKind, Notice, Packet, ProtoMsg};
use crate::world::ProtoWorld;

/// A fetch queued at the home until the required diffs arrive.
#[derive(Debug, Hash)]
struct Waiter {
    from: NodeId,
    kind: FaultKind,
    needs: Vec<(NodeId, u32)>,
}

/// HLRC home-side and requester-side state.
///
/// All tables are dense `Vec`s indexed by small integer keys (block ids,
/// node ids) — the former tuple-keyed `HashMap`s put a hash+probe on every
/// fault and every diff arrival, which dominated the home-side hot path.
#[derive(Debug, Hash)]
pub struct HlState {
    nodes: usize,
    n_blocks: usize,
    /// At the home: latest interval flushed by `writer` for block `b`,
    /// stored at `[b * nodes + writer]` as `interval + 1` (`0` = never).
    flushed: Vec<u32>,
    /// At each node: per invalidated block, the (writer, interval) diffs the
    /// next fetch must wait for; indexed `[node * n_blocks + b]`.
    needs: Vec<Vec<(NodeId, u32)>>,
    /// Fetches parked at the home for missing diffs, per block.
    waiting: Vec<Vec<Waiter>>,
    /// Outstanding fault kind per node (a node has at most one).
    pending_kind: Vec<Option<FaultKind>>,
}

impl HlState {
    /// Fresh state for `nodes` nodes and `n_blocks` blocks; 0 blocks — no
    /// per-block table, the per-node `pending_kind` as ever — for a world no
    /// region of which runs HLRC.
    pub fn new(nodes: usize, n_blocks: usize) -> Self {
        HlState {
            nodes,
            n_blocks,
            flushed: vec![0; nodes * n_blocks],
            needs: (0..nodes * n_blocks).map(|_| Vec::new()).collect(),
            waiting: (0..n_blocks).map(|_| Vec::new()).collect(),
            pending_kind: vec![None; nodes],
        }
    }

    /// Lengths of the longest per-block table and of the per-node vector.
    #[cfg(test)]
    pub(crate) fn table_lens(&self) -> (usize, usize) {
        let per_block = [self.flushed.len(), self.needs.len(), self.waiting.len()];
        (
            per_block.into_iter().max().unwrap(),
            self.pending_kind.len(),
        )
    }

    fn satisfied(&self, b: BlockId, needs: &[(NodeId, u32)]) -> bool {
        needs.iter().all(|&(wr, k)| {
            // `flushed` stores interval+1 (0 = never flushed), so
            // "flushed interval >= k" is exactly `have > k`.
            let have = self.flushed[b * self.nodes + wr];
            have > k
        })
    }

    fn add_need(&mut self, node: NodeId, b: BlockId, writer: NodeId, interval: u32) {
        let v = &mut self.needs[node * self.n_blocks + b];
        match v.iter_mut().find(|(wr, _)| *wr == writer) {
            Some((_, k)) => *k = (*k).max(interval),
            None => v.push((writer, interval)),
        }
    }
}

/// Node-side fault entry point: fetch the block from its home.
pub fn start_fault(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    w.hl.pending_kind[me] = Some(kind);
    let needs = w.hl.needs[me * w.hl.n_blocks + b].clone();
    let depart = s.now() + w.cfg.cost.fault_exception_ns + w.cfg.cost.handler_ns;
    let target = w
        .homes
        .cached(me, b)
        .unwrap_or_else(|| w.homes.directory_node(b));
    w.send(
        s,
        me,
        target,
        depart,
        ProtoMsg::HlFetchReq {
            from: me,
            block: b,
            kind,
            needs,
        },
    );
}

/// Fetch request at the home (or directory / stale target).
pub fn handle_fetch(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
    kind: FaultKind,
    needs: Vec<(NodeId, u32)>,
) {
    let now = s.now();
    let handler = w.cfg.cost.handler_ns;
    match w.homes.home(b) {
        Some(h) if h == me => {
            if w.hl.satisfied(b, &needs) {
                serve_fetch(w, s, me, from, b, now + handler);
            } else {
                w.hl.waiting[b].push(Waiter { from, kind, needs });
            }
        }
        Some(h) => {
            // Forward to the claimed home.
            w.send(
                s,
                me,
                h,
                now + handler,
                ProtoMsg::HlFetchReq {
                    from,
                    block: b,
                    kind,
                    needs,
                },
            );
        }
        None => {
            debug_assert_eq!(me, w.homes.directory_node(b));
            match kind {
                FaultKind::Write => {
                    // First store touch claims the home for the writer; its
                    // (golden) copy is already current since nobody has ever
                    // written the block.
                    w.homes.claim_for(b, from);
                    w.homes.learn(me, b, from);
                    w.send(s, me, from, now + handler, ProtoMsg::HlNowHome { block: b });
                }
                FaultKind::Read => {
                    // Unclaimed read: the directory is the interim home and
                    // serves its golden copy. No needs can exist (no writer).
                    debug_assert!(needs.is_empty());
                    serve_fetch(w, s, me, from, b, now + handler);
                }
            }
        }
    }
}

fn serve_fetch(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
    at: Time,
) {
    let c = w.charge_block_copy(s, me, b);
    w.emit(me, s.now(), EventKind::FetchServe { block: b });
    w.send(s, me, from, at + c, ProtoMsg::HlData { block: b, home: me });
}

/// Block data at the requester: install access (twinning on write faults).
pub fn handle_data(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    home: NodeId,
) {
    // Only cache the home if it is the claimed one: a directory serving an
    // unclaimed read stays an interim home that a later store may displace.
    if w.homes.home(b) == Some(home) {
        w.homes.learn(me, b, home);
    }
    w.data.copy_block(b, home, me);
    let ni = me * w.hl.n_blocks + b;
    w.hl.needs[ni].clear();
    let kind = w.hl.pending_kind[me]
        .take()
        .expect("HlData without a pending fault");
    let mut at = s.now() + w.cfg.cost.handler_ns;
    match kind {
        FaultKind::Read => w.grant(me, b, Access::Read),
        FaultKind::Write => {
            // The home writes its master copy in place; everyone else twins.
            if w.homes.home(b) != Some(me) {
                at += make_twin(w, me, b, s.now());
            }
            w.grant(me, b, Access::ReadWrite);
            w.nodes[me].mark_dirty(b);
        }
    }
    w.block_obtained(s, me);
    w.wake(s, me, at);
}

/// Home-claim confirmation at the first writer.
pub fn handle_now_home(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId) {
    w.homes.learn(me, b, me);
    let kind = w.hl.pending_kind[me]
        .take()
        .expect("HlNowHome without a pending fault");
    debug_assert_eq!(kind, FaultKind::Write);
    // The home writes its master copy in place: no twin.
    w.grant(me, b, Access::ReadWrite);
    w.nodes[me].mark_dirty(b);
    let at = s.now() + w.cfg.cost.handler_ns;
    w.block_obtained(s, me);
    w.wake(s, me, at);
}

/// Diff arriving at the home: apply it and serve any now-satisfied fetches.
pub fn handle_diff(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    from: NodeId,
    b: BlockId,
    diff: Diff,
    interval: u32,
) {
    debug_assert_eq!(w.homes.home(b), Some(me), "diff sent to a non-home");
    let apply_cost = w.cfg.cost.diff_apply_cost(diff.data_bytes().max(8));
    let bytes = diff.wire_bytes();
    w.emit(me, s.now(), EventKind::DiffApply { block: b, bytes });
    // A statically assigned home may never have touched the block.
    w.data.ensure(me, b);
    let r = w.layout.block_range(b);
    diff.apply(&mut w.data.node_mut(me, b)[r]);
    for run in diff.runs {
        w.pool.put(run.bytes);
    }
    w.occupy(s, me, apply_cost);
    record_flush(w, b, from, interval, s.now());
    serve_satisfied(w, s, me, b, s.now() + apply_cost + w.cfg.cost.handler_ns);
}

/// Record that `writer`'s diffs through `interval` are present at the home.
pub fn record_flush(w: &mut ProtoWorld, b: BlockId, writer: NodeId, interval: u32, now: Time) {
    w.audit(|c, _| c.hl_flush(b, writer, interval, now));
    let i = b * w.hl.nodes + writer;
    let f = &mut w.hl.flushed[i];
    *f = (*f).max(interval + 1);
}

/// Serve queued fetches whose requirements are now met.
fn serve_satisfied(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, b: BlockId, at: Time) {
    if w.hl.waiting[b].is_empty() {
        return;
    }
    let mut queue = std::mem::take(&mut w.hl.waiting[b]);
    let mut ready = Vec::new();
    let mut i = 0;
    while i < queue.len() {
        if w.hl.satisfied(b, &queue[i].needs) {
            ready.push(queue.swap_remove(i));
        } else {
            i += 1;
        }
    }
    w.hl.waiting[b] = queue;
    for (k, waiter) in ready.into_iter().enumerate() {
        let _ = waiter.kind; // kind is re-read from pending_kind at the requester
        serve_fetch(
            w,
            s,
            me,
            waiter.from,
            b,
            at + k as Time * w.cfg.cost.handler_ns,
        );
    }
}

/// Local write fault on a valid read-only copy: twin it (remote blocks) or
/// write in place (home blocks). Returns the local cost; the caller reports
/// the local fault once it has charged it.
pub fn local_write_fault(w: &mut ProtoWorld, me: NodeId, b: BlockId, now: Time) -> Time {
    debug_assert_eq!(w.access.get(me, b), Access::Read);
    let mut cost = w.cfg.cost.fault_exception_ns;
    if w.homes.home(b) != Some(me) {
        cost += make_twin(w, me, b, now);
    }
    w.grant(me, b, Access::ReadWrite);
    w.nodes[me].mark_dirty(b);
    cost
}

fn make_twin(w: &mut ProtoWorld, me: NodeId, b: BlockId, now: Time) -> Time {
    let r = w.layout.block_range(b);
    let mut twin = w.pool.get();
    twin.extend_from_slice(&w.data.node(me)[r]);
    w.nodes[me].twins.set(b, twin);
    let held = w.nodes[me].twins.held_bytes();
    w.emit(me, now, EventKind::TwinCreate { block: b, held });
    w.cfg.cost.twin_cost(w.block_size_of(b) as u64)
}

/// Release-time actions: diff the given HLRC dirty blocks (already taken
/// from the node's dirty list and filtered to this protocol by the caller)
/// against their twins and ship the diffs home; home blocks just record the
/// flush. Returns (notices, local processing time).
pub fn release_dirty(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    interval: u32,
    dirty: Vec<BlockId>,
) -> (Vec<Notice>, Time) {
    let mut notices = Vec::with_capacity(dirty.len());
    let mut elapsed: Time = 0;
    for b in dirty {
        if let Some(twin) = w.nodes[me].twins.take(b) {
            elapsed += w.cfg.cost.diff_scan_cost(w.block_size_of(b) as u64);
            let r = w.layout.block_range(b);
            let mut diff = Diff::create_pooled(&twin, &w.data.node(me)[r], &mut w.pool);
            if let Some(m) = w.mutate.as_mut() {
                // Lose the tail word of the diff's last run: the home copy
                // silently misses part of this interval's writes.
                let eligible = diff.runs.last().is_some_and(|run| run.bytes.len() > 1);
                if m.fire_if(crate::mutate::Mutation::SkipDiffWord, eligible) {
                    let run = diff.runs.last_mut().unwrap();
                    let keep = run.bytes.len().saturating_sub(8).max(1);
                    run.bytes.truncate(keep);
                }
            }
            if w.access.get(me, b) == Access::ReadWrite {
                w.grant(me, b, Access::Read);
            }
            if diff.is_empty() {
                w.pool.put(twin);
                continue; // silent rewrite of identical bytes: nothing to publish
            }
            w.audit(|c, w| c.hl_diff(w, me, b, &twin, &diff, s.now()));
            w.pool.put(twin);
            w.emit(
                me,
                s.now(),
                EventKind::DiffCreate {
                    block: b,
                    bytes: diff.wire_bytes(),
                },
            );
            let home = w.route_home(b);
            debug_assert_ne!(home, me);
            w.send(
                s,
                me,
                home,
                s.now() + elapsed,
                ProtoMsg::HlDiff {
                    from: me,
                    block: b,
                    diff,
                    interval,
                },
            );
            notices.push(Notice {
                block: b,
                writer: me,
                version: interval,
            });
        } else if w.homes.home(b) == Some(me) {
            // Home block: the master copy already has the writes.
            record_flush(w, b, me, interval, s.now());
            if w.access.get(me, b) == Access::ReadWrite {
                w.grant(me, b, Access::Read);
            }
            notices.push(Notice {
                block: b,
                writer: me,
                version: interval,
            });
            // A queued fetch may have been waiting on our own flush.
            serve_satisfied(w, s, me, b, s.now() + w.cfg.cost.handler_ns);
        } else {
            // Twin was flushed early (on an incoming notice mid-interval):
            // the diff is already home-bound tagged with this interval;
            // announce it now.
            notices.push(Notice {
                block: b,
                writer: me,
                version: interval,
            });
        }
    }
    (notices, elapsed)
}

/// Acquire-time notice application: record the requirement and invalidate
/// the local copy (flushing our own concurrent dirty twin first).
pub fn apply_notice(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId, n: &Notice) -> Time {
    debug_assert_ne!(n.writer, me);
    w.hl.add_need(me, n.block, n.writer, n.version);
    let mut elapsed: Time = 0;
    // A dirty twin of ours must be published before we drop the copy.
    if let Some(twin) = w.nodes[me].twins.take(n.block) {
        let bs = w.block_size_of(n.block) as u64;
        elapsed += w.cfg.cost.diff_scan_cost(bs);
        let r = w.layout.block_range(n.block);
        let diff = Diff::create_pooled(&twin, &w.data.node(me)[r], &mut w.pool);
        if !diff.is_empty() {
            w.emit(
                me,
                s.now(),
                EventKind::DiffCreate {
                    block: n.block,
                    bytes: diff.wire_bytes(),
                },
            );
            let home = w.route_home(n.block);
            let my_interval = w.nodes[me].vt.get(me) + 1;
            w.audit(|c, w| c.hl_diff(w, me, n.block, &twin, &diff, s.now()));
            w.send(
                s,
                me,
                home,
                s.now() + elapsed,
                ProtoMsg::HlDiff {
                    from: me,
                    block: n.block,
                    diff,
                    interval: my_interval,
                },
            );
        }
        // Stays in the dirty list: the next release announces the interval.
    }
    if w.access.get(me, n.block) != Access::Invalid {
        w.access.set(me, n.block, Access::Invalid);
        w.emit(me, s.now(), EventKind::Invalidate { block: n.block });
    }
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::msg::Envelope;
    use dsm_mem::Layout;
    use dsm_sim::engine::Sched;

    fn setup() -> (ProtoWorld, Sched<Packet>) {
        let cfg = RunConfig::new(crate::Protocol::Hlrc, 256).with_nodes(4);
        let mut w = ProtoWorld::new(cfg, Layout::new(4096, 256));
        w.load_golden(vec![3u8; 4096]);
        (w, Sched::for_testing(4))
    }

    #[test]
    fn fetch_with_unsatisfied_needs_parks_at_the_home() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 0);
        handle_fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, vec![(1, 4)]);
        assert!(
            s.take_events().is_empty(),
            "fetch must wait for writer 1's diff"
        );
        // The diff for interval 4 arrives: the parked fetch is served.
        let mut diff = Diff::default();
        diff.runs.push(crate::diff::DiffRun {
            offset: 0,
            bytes: vec![9, 9],
        });
        handle_diff(&mut w, &mut s, 0, 1, 0, diff, 4);
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 2
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::HlData { .. },
                    ..
                }))
            )));
        // And the diff landed in the home copy.
        assert_eq!(w.data.node(0)[0], 9);
    }

    #[test]
    fn fetch_with_satisfied_needs_is_served_immediately() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 0);
        record_flush(&mut w, 0, 1, 6, 0);
        handle_fetch(&mut w, &mut s, 0, 2, 0, FaultKind::Read, vec![(1, 5)]);
        let evs = s.take_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            &evs[0].2,
            Some(Packet::App(Envelope {
                msg: ProtoMsg::HlData { .. },
                ..
            }))
        ));
    }

    #[test]
    fn store_touch_claims_home_at_directory() {
        let (mut w, mut s) = setup();
        // Block 1's directory node is 1.
        handle_fetch(&mut w, &mut s, 1, 3, 1, FaultKind::Write, vec![]);
        assert_eq!(w.homes.home(1), Some(3));
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 3
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::HlNowHome { .. },
                    ..
                }))
            )));
    }

    #[test]
    fn local_write_fault_twins_remote_blocks_only() {
        let (mut w, _s) = setup();
        w.homes.assign(0, 1);
        w.homes.assign(1, 2);
        w.grant(2, 0, Access::Read);
        let cost = local_write_fault(&mut w, 2, 0, 0);
        assert!(cost > 0);
        assert!(w.nodes[2].twins.has(0), "remote block must twin");
        // A home block is written in place.
        w.grant(2, 1, Access::Read);
        local_write_fault(&mut w, 2, 1, 0);
        assert!(!w.nodes[2].twins.has(1), "home block must not twin");
        assert_eq!(w.nodes[2].dirty, vec![0, 1]);
    }

    #[test]
    fn release_flushes_diffs_and_skips_silent_rewrites() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 1);
        w.homes.assign(1, 1);
        w.grant(2, 0, Access::Read);
        w.grant(2, 1, Access::Read);
        local_write_fault(&mut w, 2, 0, 0);
        local_write_fault(&mut w, 2, 1, 0);
        // Block 0 really changes; block 1 is rewritten with identical bytes.
        w.data.node_mut(2, 0)[5] = 0xAB;
        let dirty = std::mem::take(&mut w.nodes[2].dirty);
        let (notices, elapsed) = release_dirty(&mut w, &mut s, 2, 1, dirty);
        assert_eq!(notices.len(), 1, "identical rewrite publishes nothing");
        assert_eq!(notices[0].block, 0);
        assert!(elapsed > 0, "diff scans take time");
        assert_eq!(w.stats[2].diffs_created, 1);
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 1
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::HlDiff { .. },
                    ..
                }))
            )));
    }

    #[test]
    fn notice_records_needs_and_flushes_dirty_twin_early() {
        let (mut w, mut s) = setup();
        w.homes.assign(0, 1);
        w.grant(2, 0, Access::Read);
        local_write_fault(&mut w, 2, 0, 0);
        w.data.node_mut(2, 0)[7] = 0xCD;
        apply_notice(
            &mut w,
            &mut s,
            2,
            &Notice {
                block: 0,
                writer: 3,
                version: 2,
            },
        );
        assert_eq!(w.access.get(2, 0), Access::Invalid);
        assert!(!w.nodes[2].twins.has(0), "twin flushed early");
        // Our own uncommitted change went home as a diff.
        let evs = s.take_events();
        assert!(evs.iter().any(|(_, to, m)| *to == 1
            && matches!(
                m,
                Some(Packet::App(Envelope {
                    msg: ProtoMsg::HlDiff { .. },
                    ..
                }))
            )));
        // And the need for writer 3's interval 2 is remembered.
        assert!(!w.hl.satisfied(0, &[(3, 2)]));
    }
}
