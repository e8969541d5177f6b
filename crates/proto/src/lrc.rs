//! Machinery shared by the two lazy-release-consistency protocols:
//! the global write-notice log, release-time actions, and acquire-time
//! notice application.

use dsm_sim::{NodeId, Sched, Time};

use crate::config::Protocol;
use crate::msg::{Notice, Packet};
use crate::vt::VClock;
use crate::world::ProtoWorld;
use crate::{hlrc, swlrc};

/// The global interval log: `log[node][k-1]` holds the write notices of
/// node `node`'s interval `k`.
///
/// The log is conceptually distributed (each node owns its own intervals);
/// it is stored centrally for implementation convenience, but it is only
/// ever *read* on behalf of a node that causally knows the interval — a lock
/// grant or barrier release computes exactly the interval set
/// `have[j] < k <= upto[j]` where `upto` is the releaser's vector time, so
/// every read is backed by information the releaser legitimately has.
#[derive(Debug, Default, Hash)]
pub struct NoticeLog {
    per_node: Vec<Vec<Vec<Notice>>>,
}

impl NoticeLog {
    /// Empty log for `n` nodes.
    pub fn new(n: usize) -> Self {
        NoticeLog {
            per_node: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Append `notices` as node `node`'s interval `interval` (must be the
    /// next interval in sequence).
    pub fn push_interval(&mut self, node: NodeId, interval: u32, notices: Vec<Notice>) {
        let v = &mut self.per_node[node];
        assert_eq!(
            v.len() + 1,
            interval as usize,
            "interval log out of sequence for node {node}"
        );
        v.push(notices);
    }

    /// Collect the notices of the given `(node, interval)` pairs.
    pub fn collect(&self, pairs: &[(usize, u32)]) -> Vec<Notice> {
        let mut out = Vec::new();
        for &(j, k) in pairs {
            out.extend_from_slice(&self.per_node[j][(k - 1) as usize]);
        }
        out
    }

    /// The notices a grant owes an acquirer at `have` from a releaser at
    /// `upto`: `collect(&VClock::missing_intervals(have, upto))`, gathered
    /// in the same order into one buffer of exactly their number.
    pub fn collect_missing(&self, have: &VClock, upto: &VClock) -> Vec<Notice> {
        let owed = |j: usize| {
            let (lo, hi) = (have.get(j) as usize, upto.get(j) as usize);
            &self.per_node[j][lo.min(hi)..hi]
        };
        let total = (0..upto.len()).flat_map(owed).map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for interval in (0..upto.len()).flat_map(owed) {
            out.extend_from_slice(interval);
        }
        out
    }

    /// Number of intervals logged for a node.
    pub fn intervals(&self, node: NodeId) -> usize {
        self.per_node[node].len()
    }
}

/// Perform the release-time protocol actions for `me` (called on lock
/// release and barrier arrival): close the current interval, version/diff
/// the dirty blocks, and log the interval's write notices.
///
/// Returns the local processing time (twin scans, diff creation) the calling
/// thread must charge before its release message departs.
pub fn release_actions(w: &mut ProtoWorld, s: &mut Sched<Packet>, me: NodeId) -> Time {
    if !w.has_lrc {
        return 0; // SC-only run: eager coherence, no release actions
    }
    let interval = w.nodes[me].vt.tick(me);
    // Mixed mode: partition this interval's dirty blocks by their region's
    // protocol; SC blocks are kept coherent eagerly and never appear here.
    let dirty = std::mem::take(&mut w.nodes[me].dirty);
    let mut sw_dirty = Vec::new();
    let mut hl_dirty = Vec::new();
    for b in dirty {
        match w.protocol_of(b) {
            Protocol::SwLrc => sw_dirty.push(b),
            Protocol::Hlrc => hl_dirty.push(b),
            Protocol::Sc => unreachable!("SC block {b} in the dirty list"),
            // Tardis blocks never twin or diff: recalls write back whole
            // blocks, so they never enter the dirty list.
            Protocol::Tardis => unreachable!("Tardis block {b} in the dirty list"),
        }
    }
    // Union transport: both protocols' notices are logged in one interval,
    // so a single vector-time/notice mechanism carries cross-region
    // causality regardless of which protocols coexist.
    let mut notices = swlrc::release_dirty(w, me, sw_dirty, s.now());
    let (hl_notices, elapsed) = hlrc::release_dirty(w, s, me, interval, hl_dirty);
    notices.extend(hl_notices);
    w.audit(|c, w| c.lrc_release(w, me, interval, &notices));
    w.emit_notices(me, s.now(), notices.len(), false);
    w.log.push_interval(me, interval, notices);
    elapsed
}

/// Apply acquire-time consistency information (from a lock grant or barrier
/// release): merge the vector time and process the write notices.
///
/// Returns the processing time to add before the acquirer resumes.
pub fn acquire_actions(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    vt: Option<&VClock>,
    notices: &[Notice],
) -> Time {
    let Some(vt) = vt else {
        return 0; // SC: no consistency actions at acquires
    };
    w.nodes[me].vt.merge(vt);
    w.emit_notices(me, s.now(), notices.len(), true);
    let mut elapsed = notices.len() as Time * NOTICE_PROC_NS;
    for n in notices {
        if n.writer == me {
            continue;
        }
        elapsed += match w.protocol_of(n.block) {
            Protocol::SwLrc => swlrc::apply_notice(w, me, n, s.now()),
            Protocol::Hlrc => hlrc::apply_notice(w, s, me, n),
            Protocol::Sc => unreachable!("write notice for an SC block"),
            Protocol::Tardis => unreachable!("write notice for a Tardis block"),
        };
    }
    elapsed
}

/// Per-notice fixed processing cost at the acquirer (table walk + state
/// change), in ns.
pub const NOTICE_PROC_NS: Time = 200;

#[cfg(test)]
mod tests {
    use super::*;

    fn notice(b: usize, w: usize, v: u32) -> Notice {
        Notice {
            block: b,
            writer: w,
            version: v,
        }
    }

    #[test]
    fn log_appends_in_sequence() {
        let mut l = NoticeLog::new(2);
        l.push_interval(0, 1, vec![notice(1, 0, 1)]);
        l.push_interval(0, 2, vec![]);
        l.push_interval(1, 1, vec![notice(2, 1, 1)]);
        assert_eq!(l.intervals(0), 2);
        assert_eq!(l.intervals(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of sequence")]
    fn log_rejects_gaps() {
        let mut l = NoticeLog::new(1);
        l.push_interval(0, 2, vec![]);
    }

    #[test]
    fn collect_concatenates_requested_intervals() {
        let mut l = NoticeLog::new(2);
        l.push_interval(0, 1, vec![notice(1, 0, 1)]);
        l.push_interval(0, 2, vec![notice(2, 0, 2), notice(3, 0, 2)]);
        l.push_interval(1, 1, vec![notice(9, 1, 1)]);
        let got = l.collect(&[(0, 2), (1, 1)]);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].block, 2);
        assert_eq!(got[2].block, 9);
    }
}
