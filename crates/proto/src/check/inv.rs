//! Online protocol invariant mirrors.
//!
//! Each mirror independently re-derives a piece of protocol metadata from
//! the checker hooks and compares it against what the protocol actually
//! produced. The mirrors never read protocol state directly — a protocol
//! bug that corrupts its own bookkeeping is exactly what they must survive.

use std::collections::BTreeSet;
use std::fmt::Display;

use crate::msg::Notice;
use crate::vt::VClock;
use dsm_mem::BlockId;
use dsm_sim::rng::{fold64, StableHasher, StableMap, StableSet};
use dsm_sim::NodeId;

use super::xor_fold;

/// A rule failure detected by a mirror: `(rule, detail)`. The caller wraps
/// it into a full [`super::Violation`] with node/block/time context.
pub type Fail = (&'static str, String);

fn notice_key(n: &Notice) -> (BlockId, NodeId, u32) {
    (n.block, n.writer, n.version)
}

/// Mirror of the LRC interval log plus per-lock release snapshots: checks
/// that every grant carries *exactly* the write notices its interval vector
/// promises, and that a lock grant's vector time dominates the last
/// release observed on that lock.
#[derive(Debug, Default)]
pub struct LrcMirror {
    /// `log[node][k-1]` = notices of node's interval `k`, as announced at
    /// release time.
    log: Vec<Vec<Vec<Notice>>>,
    /// The releaser's vector time at the last release of each lock.
    lock_vt: StableMap<usize, VClock>,
}

#[cfg(test)]
thread_local! {
    /// Grant checks that left the in-order walk for the multiset comparison.
    static SLOW_GRANT_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl LrcMirror {
    pub fn new(n: usize) -> Self {
        LrcMirror {
            log: vec![Vec::new(); n],
            lock_vt: StableMap::default(),
        }
    }

    /// A release closed interval `interval` at `me` with these notices.
    pub fn on_release(&mut self, me: NodeId, interval: u32, notices: &[Notice]) {
        let v = &mut self.log[me];
        debug_assert_eq!(v.len() + 1, interval as usize, "mirror log out of sequence");
        v.push(notices.to_vec());
    }

    /// Record the releaser's clock at a lock release.
    pub fn on_lock_release(&mut self, l: usize, vt: &VClock) {
        self.lock_vt
            .entry(l)
            .and_modify(|v| v.clone_from(vt))
            .or_insert_with(|| vt.clone());
    }

    /// Validate a grant's notices against the interval gap `cur → vt`.
    /// `what` names the grant in the detail ("lock 3" / "barrier 1"); it is
    /// rendered only if the check fails.
    ///
    /// The protocol builds a grant by walking the gap node by node, interval
    /// by interval, and concatenating what each interval logged, so a
    /// correct grant is the mirror's log read in that order. The walk below
    /// compares exactly that: equal sequences are equal multisets, so a
    /// match is a pass with nothing collected or sorted. Anything else — a
    /// notice missing, extra or changed, but also a grant a protocol chose
    /// to order differently — falls through to the multiset comparison
    /// (collect what the vector promises, sort both sides, compare), which
    /// decides and words the failure.
    pub fn check_grant(
        &self,
        what: impl Display,
        vt: &VClock,
        notices: &[Notice],
        cur: &VClock,
    ) -> Option<Fail> {
        let mut rest = notices;
        let in_order = (0..vt.len()).all(|j| {
            // `k` is interval `k + 1`'s index in the log.
            (cur.get(j)..vt.get(j)).all(|k| match self.log[j].get(k as usize) {
                Some(ns) if rest.starts_with(ns) => {
                    rest = &rest[ns.len()..];
                    true
                }
                _ => false,
            })
        });
        if in_order && rest.is_empty() {
            return None;
        }
        #[cfg(test)]
        SLOW_GRANT_CHECKS.with(|n| n.set(n.get() + 1));
        let mut expected: Vec<(BlockId, NodeId, u32)> = Vec::new();
        for (j, k) in VClock::missing_intervals(cur, vt) {
            match self.log[j].get((k - 1) as usize) {
                Some(ns) => expected.extend(ns.iter().map(notice_key)),
                None => {
                    return Some((
                        "lrc-notice-completeness",
                        format!("{what}: grant references unlogged interval ({j}, {k})"),
                    ))
                }
            }
        }
        let mut got: Vec<_> = notices.iter().map(notice_key).collect();
        expected.sort_unstable();
        got.sort_unstable();
        if expected != got {
            let missing = expected.iter().filter(|k| !got.contains(k)).count();
            let extra = got.iter().filter(|k| !expected.contains(k)).count();
            return Some((
                "lrc-notice-completeness",
                format!(
                    "{what}: grant carries {} notices, interval vector promises {} \
                     ({missing} missing, {extra} unexpected)",
                    got.len(),
                    expected.len()
                ),
            ));
        }
        None
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        fold64(
            StableHasher::fingerprint(&self.log),
            xor_fold(self.lock_vt.iter()),
        )
    }

    /// A lock grant's time must dominate the last release on that lock —
    /// a grant built from a stale clock passes the completeness check (its
    /// notices are self-consistent with the stale time) but fails here.
    pub fn check_lock_dominates(&self, l: usize, vt: &VClock) -> Option<Fail> {
        let last = self.lock_vt.get(&l)?;
        if !vt.dominates(last) {
            return Some((
                "lrc-lock-stale-vt",
                format!("lock {l}: grant time does not dominate the last release's time"),
            ));
        }
        None
    }
}

/// HLRC mirror: every diff must exactly cover the twin→current delta at
/// creation, flushes must be unique per `(block, writer, interval)`, and at
/// the end of the run no interval may have been flushed *around* (a later
/// interval present at the home while an earlier one never arrived).
#[derive(Debug, Default)]
pub struct HlMirror {
    flushed: StableSet<(BlockId, NodeId, u32)>,
    /// Highest flushed interval per (block, writer).
    max_flushed: StableMap<(BlockId, NodeId), u32>,
    /// HLRC write notices observed in release order.
    notices: Vec<(BlockId, NodeId, u32)>,
}

impl HlMirror {
    /// A diff was created against `twin` for the current contents `cur`.
    pub fn on_diff(
        &self,
        block: BlockId,
        twin: &[u8],
        cur: &[u8],
        diff: &crate::diff::Diff,
    ) -> Option<Fail> {
        let mut image = twin.to_vec();
        diff.apply(&mut image);
        if image != cur {
            let off = image.iter().zip(cur).position(|(a, b)| a != b).unwrap_or(0);
            return Some((
                "hlrc-diff-coverage",
                format!(
                    "block {block}: applying the diff to the twin does not reproduce \
                     the current contents (first mismatch at offset {off})"
                ),
            ));
        }
        None
    }

    /// A writer's interval reached the home (diff applied or home-local).
    pub fn on_flush(&mut self, block: BlockId, writer: NodeId, interval: u32) -> Option<Fail> {
        if !self.flushed.insert((block, writer, interval)) {
            return Some((
                "hlrc-duplicate-flush",
                format!("block {block}: writer {writer} interval {interval} flushed twice"),
            ));
        }
        let m = self.max_flushed.entry((block, writer)).or_insert(0);
        *m = (*m).max(interval);
        None
    }

    /// An HLRC write notice was published.
    pub fn on_notice(&mut self, block: BlockId, writer: NodeId, interval: u32) {
        self.notices.push((block, writer, interval));
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        let h = fold64(
            xor_fold(self.flushed.iter()),
            xor_fold(self.max_flushed.iter()),
        );
        fold64(h, StableHasher::fingerprint(&self.notices))
    }

    /// End-of-run reconciliation: a notice whose interval never reached the
    /// home is only a violation when a *later* interval of the same
    /// (block, writer) did — diffs still in flight when the run quiesces
    /// are benign, out-of-order arrival at the home is not.
    pub fn finalize(&self) -> Vec<Fail> {
        let mut out = Vec::new();
        for &(b, w, i) in &self.notices {
            if self.flushed.contains(&(b, w, i)) {
                continue;
            }
            if self.max_flushed.get(&(b, w)).is_some_and(|&m| m > i) {
                out.push((
                    "hlrc-missing-flush",
                    format!(
                        "block {b}: writer {w} interval {i} never reached the home, \
                         but a later interval did"
                    ),
                ));
            }
        }
        out
    }
}

/// SW-LRC version mirror: block versions advance strictly on every
/// migration and every fresh release notice; stale versions let readers
/// skip invalidations they need.
#[derive(Debug, Default)]
pub struct SwMirror {
    version: StableMap<BlockId, u32>,
}

impl SwMirror {
    /// The protocol assigned `v` to `block` (migration / first claim).
    pub fn on_version(&mut self, block: BlockId, v: u32) -> Option<Fail> {
        let cur = self.version.entry(block).or_insert(0);
        if v <= *cur {
            return Some((
                "sw-version-monotonic",
                format!("block {block}: version moved {} -> {v}", *cur),
            ));
        }
        *cur = v;
        None
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        xor_fold(self.version.iter())
    }

    /// A release published a notice at version `v`. Fresh notices (newly
    /// versioned this release) must strictly advance the block; deferred
    /// migration notices re-announce an already-assigned version.
    pub fn on_notice(&mut self, block: BlockId, v: u32, fresh: bool) -> Option<Fail> {
        let cur = self.version.entry(block).or_insert(0);
        if fresh {
            if v <= *cur {
                return Some((
                    "sw-stale-version",
                    format!(
                        "block {block}: release notice reuses version {v} (current {})",
                        *cur
                    ),
                ));
            }
            *cur = v;
        } else if v > *cur {
            return Some((
                "sw-version-monotonic",
                format!(
                    "block {block}: deferred notice announces unassigned version {v} \
                     (current {})",
                    *cur
                ),
            ));
        }
        None
    }
}

/// Tardis timestamp-lease mirror: write timestamps must strictly advance
/// per block and jump past every outstanding read lease, and no read may
/// execute above its copy's lease against the reader's program timestamp.
///
/// The mirror re-derives the home's `wts`/`rts` tables and every node's
/// program timestamp from the grant and merge hooks alone. Initial values
/// bake in the protocol's definition — the golden image is the write at
/// logical time 1 and every node starts at program timestamp 1 — not its
/// runtime state.
#[derive(Debug)]
pub struct TdMirror {
    /// Per block: timestamp of the last write grant (default 1).
    wts: StableMap<BlockId, u64>,
    /// Per block: furthest lease end ever granted (default 1).
    rts: StableMap<BlockId, u64>,
    /// Per block: current exclusive owner. Set at a write grant, cleared
    /// by the next read grant — which the home can only issue after the
    /// owner's writeback, so the map is exact at every access.
    owner: StableMap<BlockId, NodeId>,
    /// Per node: program timestamp re-derived from grants and sync merges
    /// (starts at 1).
    pts: Vec<u64>,
    /// Per (node, block): lease end of the node's read copy.
    lease: StableMap<(NodeId, BlockId), u64>,
}

impl TdMirror {
    /// Mirror for an `n`-node run.
    pub fn new(n: usize) -> Self {
        TdMirror {
            wts: StableMap::default(),
            rts: StableMap::default(),
            owner: StableMap::default(),
            pts: vec![1; n],
            lease: StableMap::default(),
        }
    }

    /// The home granted `reader` a read at `wts` with a lease to `lease`.
    pub fn on_read(&mut self, reader: NodeId, block: BlockId, wts: u64, lease: u64) {
        self.owner.remove(&block);
        let r = self.rts.entry(block).or_insert(1);
        *r = (*r).max(lease);
        self.lease.insert((reader, block), lease);
        self.pts[reader] = self.pts[reader].max(wts);
    }

    /// The home granted `writer` exclusive ownership at `new_wts`.
    pub fn on_write(&mut self, writer: NodeId, block: BlockId, new_wts: u64) -> Option<Fail> {
        let rts = *self.rts.get(&block).unwrap_or(&1);
        let wts = self.wts.entry(block).or_insert(1);
        let fail = if new_wts <= *wts {
            Some((
                "td-wts-monotone",
                format!(
                    "block {block}: write grant reuses timestamp {new_wts} (current wts {})",
                    *wts
                ),
            ))
        } else if new_wts <= rts {
            Some((
                "td-write-under-lease",
                format!(
                    "block {block}: write timestamp {new_wts} lands inside a promised \
                     read window (rts {rts})"
                ),
            ))
        } else {
            None
        };
        *wts = (*wts).max(new_wts);
        self.owner.insert(block, writer);
        self.pts[writer] = self.pts[writer].max(new_wts);
        fail
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        let mut h = xor_fold(self.wts.iter());
        h = fold64(h, xor_fold(self.rts.iter()));
        h = fold64(h, xor_fold(self.owner.iter()));
        h = fold64(h, StableHasher::fingerprint(&self.pts));
        fold64(h, xor_fold(self.lease.iter()))
    }

    /// Node `me` merged a program timestamp carried by a sync grant.
    pub fn on_merge(&mut self, me: NodeId, pts: u64) {
        self.pts[me] = self.pts[me].max(pts);
    }

    /// A completed read access on a Tardis block: the reader's program
    /// timestamp must sit inside its copy's lease. The exclusive owner is
    /// exempt — it holds the authoritative copy, no lease involved.
    pub fn on_access(&self, me: NodeId, block: BlockId, write: bool) -> Option<Fail> {
        if write || self.owner.get(&block) == Some(&me) {
            return None;
        }
        let pts = self.pts[me];
        let lease = *self.lease.get(&(me, block)).unwrap_or(&0);
        if pts > lease {
            return Some((
                "td-lease-overrun",
                format!("block {block}: node {me} read at pts {pts} above its lease end {lease}"),
            ));
        }
        None
    }
}

/// SC install legality: at the instant a grant installs, an exclusive copy
/// must be the only copy, and no read copy may coexist with a writer.
pub fn check_sc_install(
    block: BlockId,
    exclusive: bool,
    readers: &[NodeId],
    writers: &[NodeId],
) -> Option<Fail> {
    if !writers.is_empty() {
        return Some((
            "sc-single-writer",
            format!(
                "block {block}: grant installed while node(s) {writers:?} still hold \
                 a writable copy"
            ),
        ));
    }
    if exclusive && !readers.is_empty() {
        return Some((
            "sc-exclusive-with-readers",
            format!(
                "block {block}: exclusive grant installed while node(s) {readers:?} \
                 still hold read copies"
            ),
        ));
    }
    None
}

/// Per-channel exactly-once in-order mirror for the reliable fabric: the
/// checker re-derives what each frame event should have delivered to the
/// application and compares it with what the fabric reported.
#[derive(Debug)]
pub struct FabricMirror {
    nodes: usize,
    /// Receive state per channel, `src * nodes + to`.
    chan: Vec<Chan>,
}

#[derive(Debug, Default, Clone, Hash)]
struct Chan {
    next: u64,
    held: BTreeSet<u64>,
}

impl FabricMirror {
    /// Mirror for an `n`-node run.
    pub fn new(n: usize) -> Self {
        FabricMirror {
            nodes: n,
            chan: vec![Chan::default(); n * n],
        }
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        StableHasher::fingerprint(&self.chan)
    }

    /// Frame `seq` arrived on `src → to` and the fabric reports delivering
    /// `posted` payloads to the application.
    pub fn on_frame(&mut self, src: NodeId, to: NodeId, seq: u64, posted: usize) -> Option<Fail> {
        let c = &mut self.chan[src * self.nodes + to];
        let duplicate = seq < c.next || c.held.contains(&seq);
        if duplicate {
            if posted != 0 {
                return Some((
                    "fabric-exactly-once",
                    format!("channel {src}->{to}: duplicate frame seq {seq} delivered {posted} payload(s)"),
                ));
            }
            return None;
        }
        // The frame the channel waits for releases itself and the run of
        // held frames behind it; any other is held.
        let mut run = 0usize;
        if seq == c.next {
            c.next += 1;
            run = 1;
            while c.held.remove(&c.next) {
                c.next += 1;
                run += 1;
            }
        } else {
            c.held.insert(seq);
        }
        if posted != run {
            return Some((
                "fabric-in-order",
                format!(
                    "channel {src}->{to}: frame seq {seq} should deliver {run} consecutive \
                     payload(s), fabric delivered {posted}"
                ),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{Diff, DiffRun};

    fn notice(b: usize, w: usize, v: u32) -> Notice {
        Notice {
            block: b,
            writer: w,
            version: v,
        }
    }

    fn vc(parts: &[u32]) -> VClock {
        let mut v = VClock::new(parts.len());
        for (i, &k) in parts.iter().enumerate() {
            for _ in 0..k {
                v.tick(i);
            }
        }
        v
    }

    #[test]
    fn grant_missing_a_notice_fails_completeness() {
        let mut m = LrcMirror::new(2);
        m.on_release(0, 1, &[notice(3, 0, 1), notice(4, 0, 1)]);
        let vt = vc(&[1, 0]);
        let cur = vc(&[0, 0]);
        assert!(m
            .check_grant("lock 0", &vt, &[notice(3, 0, 1), notice(4, 0, 1)], &cur)
            .is_none());
        let f = m.check_grant("lock 0", &vt, &[notice(3, 0, 1)], &cur);
        assert_eq!(f.unwrap().0, "lrc-notice-completeness");
    }

    /// A three-interval log, the gap `[0, 0] → [2, 1]` and the grant the
    /// protocol would build for it.
    fn logged() -> (LrcMirror, VClock, VClock, [Notice; 4]) {
        let mut m = LrcMirror::new(2);
        m.on_release(0, 1, &[notice(3, 0, 1), notice(4, 0, 1)]);
        m.on_release(0, 2, &[notice(5, 0, 2)]);
        m.on_release(1, 1, &[notice(9, 1, 1)]);
        let grant = [
            notice(3, 0, 1),
            notice(4, 0, 1),
            notice(5, 0, 2),
            notice(9, 1, 1),
        ];
        (m, vc(&[2, 1]), vc(&[0, 0]), grant)
    }

    fn slow_grant_checks() -> usize {
        SLOW_GRANT_CHECKS.with(|n| n.get())
    }

    #[test]
    fn a_grant_in_log_order_passes_on_the_walk_and_a_permutation_on_the_fallback() {
        let (m, vt, cur, g) = logged();
        let before = slow_grant_checks();
        assert_eq!(m.check_grant("lock 7", &vt, &g, &cur), None);
        assert_eq!(m.check_grant("lock 7", &vc(&[1, 0]), &g[..2], &cur), None);
        assert_eq!(m.check_grant("lock 7", &vt, &g[2..], &vc(&[1, 0])), None);
        assert_eq!(m.check_grant("lock 7", &vt, &[], &vt), None, "no gap");
        assert_eq!(slow_grant_checks(), before, "nothing collected or sorted");
        // In order is a fast path, not the rule: the same notices in
        // another order are the same multiset.
        let permuted = [g[3], g[0], g[2], g[1]];
        assert_eq!(m.check_grant("lock 7", &vt, &permuted, &cur), None);
        assert_eq!(slow_grant_checks(), before + 1);
    }

    /// The four ways a grant fails, worded as before the in-order walk
    /// existed (the literals were captured at that commit).
    #[test]
    fn a_wrong_grant_fails_with_the_rule_and_the_words_it_always_had() {
        let (m, vt, cur, g) = logged();
        let fail = |detail: &str| Some(("lrc-notice-completeness", detail.to_string()));
        assert_eq!(
            m.check_grant("lock 7", &vt, &g[..3], &cur),
            fail("lock 7: grant carries 3 notices, interval vector promises 4 (1 missing, 0 unexpected)")
        );
        let mut extra = g.to_vec();
        extra.push(notice(6, 1, 1));
        assert_eq!(
            m.check_grant(format_args!("barrier {}", 1), &vt, &extra, &cur),
            fail("barrier 1: grant carries 5 notices, interval vector promises 4 (0 missing, 1 unexpected)")
        );
        let mut swapped = g;
        swapped[1] = notice(8, 0, 1);
        assert_eq!(
            m.check_grant("lock 7", &vt, &swapped, &cur),
            fail("lock 7: grant carries 4 notices, interval vector promises 4 (1 missing, 1 unexpected)")
        );
        assert_eq!(
            m.check_grant("barrier 1", &vc(&[2, 2]), &g, &cur),
            fail("barrier 1: grant references unlogged interval (1, 2)")
        );
    }

    #[test]
    fn stale_lock_grant_fails_domination() {
        let mut m = LrcMirror::new(2);
        m.on_lock_release(5, &vc(&[2, 1]));
        assert!(m.check_lock_dominates(5, &vc(&[2, 1])).is_none());
        assert!(m.check_lock_dominates(5, &vc(&[3, 4])).is_none());
        let f = m.check_lock_dominates(5, &vc(&[1, 1]));
        assert_eq!(f.unwrap().0, "lrc-lock-stale-vt");
    }

    #[test]
    fn truncated_diff_fails_coverage() {
        let m = HlMirror::default();
        let twin = vec![0u8; 16];
        let mut cur = twin.clone();
        cur[3] = 9;
        cur[10] = 7;
        let good = Diff::create(&twin, &cur);
        assert!(m.on_diff(0, &twin, &cur, &good).is_none());
        let bad = Diff {
            runs: vec![DiffRun {
                offset: 3,
                bytes: vec![9],
            }],
        };
        assert_eq!(
            m.on_diff(0, &twin, &cur, &bad).unwrap().0,
            "hlrc-diff-coverage"
        );
    }

    #[test]
    fn out_of_order_flush_is_reconciled_at_finalize() {
        let mut m = HlMirror::default();
        m.on_notice(2, 1, 1);
        m.on_notice(2, 1, 2);
        assert!(m.on_flush(2, 1, 2).is_none());
        // Interval 1 never arrived but 2 did: violation.
        let fails = m.finalize();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].0, "hlrc-missing-flush");
        // A merely in-flight *latest* interval is benign.
        let mut m2 = HlMirror::default();
        m2.on_notice(2, 1, 1);
        assert!(m2.finalize().is_empty());
        // Double flush of the same interval is caught immediately.
        assert!(m.on_flush(2, 1, 2).is_some());
    }

    #[test]
    fn sw_versions_must_strictly_advance() {
        let mut m = SwMirror::default();
        assert!(m.on_version(0, 1).is_none());
        assert!(m.on_notice(0, 2, true).is_none());
        assert_eq!(m.on_notice(0, 2, true).unwrap().0, "sw-stale-version");
        assert!(
            m.on_notice(0, 2, false).is_none(),
            "deferred re-announce ok"
        );
        assert_eq!(m.on_version(0, 2).unwrap().0, "sw-version-monotonic");
    }

    #[test]
    fn sc_install_legality() {
        assert!(check_sc_install(0, true, &[], &[]).is_none());
        assert!(check_sc_install(0, false, &[1, 2], &[]).is_none());
        assert_eq!(
            check_sc_install(0, true, &[1], &[]).unwrap().0,
            "sc-exclusive-with-readers"
        );
        assert_eq!(
            check_sc_install(0, false, &[], &[2]).unwrap().0,
            "sc-single-writer"
        );
    }

    #[test]
    fn td_write_timestamps_must_strictly_advance() {
        let mut m = TdMirror::new(4);
        // The golden image counts as the write at logical time 1: a first
        // grant reusing it is already a violation.
        assert_eq!(m.on_write(2, 0, 1).unwrap().0, "td-wts-monotone");
        assert!(m.on_write(2, 0, 5).is_none());
        assert_eq!(m.on_write(3, 0, 5).unwrap().0, "td-wts-monotone");
        assert!(m.on_write(3, 0, 6).is_none());
    }

    #[test]
    fn td_write_inside_a_read_window_is_flagged() {
        let mut m = TdMirror::new(4);
        // A lease to 9 promises reads of the old version until then.
        m.on_read(1, 0, 1, 9);
        assert_eq!(m.on_write(2, 0, 4).unwrap().0, "td-write-under-lease");
        let mut m2 = TdMirror::new(4);
        m2.on_read(1, 0, 1, 9);
        assert!(m2.on_write(2, 0, 10).is_none(), "jumping past rts is legal");
    }

    #[test]
    fn td_read_above_the_lease_is_flagged() {
        let mut m = TdMirror::new(4);
        m.on_read(1, 0, 1, 9);
        assert!(m.on_access(1, 0, false).is_none());
        // pts == lease end is still covered.
        m.on_merge(1, 9);
        assert!(m.on_access(1, 0, false).is_none());
        m.on_merge(1, 10);
        assert_eq!(m.on_access(1, 0, false).unwrap().0, "td-lease-overrun");
    }

    #[test]
    fn td_owner_accesses_need_no_lease() {
        let mut m = TdMirror::new(4);
        assert!(m.on_write(2, 0, 12).is_none());
        m.on_merge(2, 40);
        assert!(m.on_access(2, 0, false).is_none(), "owner is exempt");
        assert!(m.on_access(2, 0, true).is_none());
        // The next read grant clears ownership: a later ownerless read by
        // the ex-owner is checked again.
        m.on_read(1, 0, 12, 20);
        assert_eq!(m.on_access(2, 0, false).unwrap().0, "td-lease-overrun");
    }

    #[test]
    fn fabric_mirror_catches_duplicates_and_phantom_deliveries() {
        let mut m = FabricMirror::new(2);
        assert!(m.on_frame(0, 1, 0, 1).is_none());
        // Out-of-order frame 2 is held: nothing delivered.
        assert!(m.on_frame(0, 1, 2, 0).is_none());
        // Frame 1 releases both.
        assert!(m.on_frame(0, 1, 1, 2).is_none());
        // Retransmit of an already-delivered frame must deliver nothing.
        assert_eq!(m.on_frame(0, 1, 2, 1).unwrap().0, "fabric-exactly-once");
        // A held frame reported as delivered is an in-order break.
        assert_eq!(m.on_frame(0, 1, 4, 1).unwrap().0, "fabric-in-order");
    }
}
