//! Run-time checker interface.
//!
//! A [`Checker`] installed on [`crate::ProtoWorld`] observes the protocol
//! engine through narrow hooks: per-word shared accesses, synchronization
//! edges, write-notice traffic, diff creation/application, SC access-state
//! installs, and fabric frame delivery. The hooks carry only borrowed data
//! and the checker never charges virtual time or mutates protocol state, so
//! an installed checker cannot perturb a run — and with no checker installed
//! every hook site is a single `Option::is_some` test.
//!
//! The concrete implementation (happens-before race detector + protocol
//! invariant checkers) lives in the `dsm-check` crate; keeping the trait
//! here avoids a dependency cycle between the protocol and checker crates.

use dsm_mem::BlockId;
use dsm_sim::{NodeId, Time};

use crate::diff::Diff;
use crate::msg::Notice;
use crate::vt::VClock;

/// One invariant violation found by a checker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Violation {
    /// Stable rule identifier (e.g. `"hb-race"`, `"lrc-notice-set"`).
    pub rule: &'static str,
    /// Node at which the violation was observed.
    pub node: NodeId,
    /// Coherence block involved, when the rule concerns one.
    pub block: Option<BlockId>,
    /// Virtual time of the observation, in nanoseconds.
    pub time: Time,
    /// Human-readable description with rule-specific fields.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] node {}", self.rule, self.node)?;
        if let Some(b) = self.block {
            write!(f, " block {b}")?;
        }
        write!(f, " t={}ns: {}", self.time, self.detail)
    }
}

/// Observer interface the protocol engine drives when a checker is
/// installed.
///
/// All methods default to no-ops so partial checkers (and tests) only
/// implement what they watch. Hook order follows engine execution order,
/// which is fully serialized and deterministic; in particular every
/// release-side hook runs before the acquire-side hook it
/// happens-before.
pub trait Checker {
    /// Node `me` entered the measured phase; accesses before this call
    /// (warm-up) are not race-checked.
    fn arm(&mut self, me: NodeId, now: Time) {
        let _ = (me, now);
    }

    /// Node `me` completed a shared-memory access of `len` bytes at `addr`.
    /// Fires after access rights were obtained (never for faulting
    /// retries).
    fn on_access(&mut self, me: NodeId, addr: usize, len: usize, write: bool, now: Time) {
        let _ = (me, addr, len, write, now);
    }

    /// Node `me` released lock `lock`. `vt` is the node's vector time
    /// after the release's interval tick (all-zero under SC).
    fn lock_release(&mut self, me: NodeId, lock: usize, vt: &VClock, now: Time) {
        let _ = (me, lock, vt, now);
    }

    /// Node `me` received the grant for `lock`. `vt`/`notices` are the
    /// consistency data carried by the grant (`vt` is `None` under SC);
    /// `cur` is the acquirer's vector time before applying the grant.
    fn lock_acquire(
        &mut self,
        me: NodeId,
        lock: usize,
        vt: Option<&VClock>,
        notices: &[Notice],
        cur: &VClock,
        now: Time,
    ) {
        let _ = (me, lock, vt, notices, cur, now);
    }

    /// Node `me` arrived at barrier `bar` (a release operation).
    fn bar_arrive(&mut self, me: NodeId, bar: usize, now: Time) {
        let _ = (me, bar, now);
    }

    /// Node `me` passed barrier `bar`. Fields as for
    /// [`Checker::lock_acquire`]. `skip_join` asks the detector to skip
    /// the happens-before join for this pass while still consuming the
    /// barrier episode — only ever true under the `hb-skip-barrier`
    /// self-test mutation.
    #[allow(clippy::too_many_arguments)]
    fn bar_pass(
        &mut self,
        me: NodeId,
        bar: usize,
        vt: Option<&VClock>,
        notices: &[Notice],
        cur: &VClock,
        skip_join: bool,
        now: Time,
    ) {
        let _ = (me, bar, vt, notices, cur, skip_join, now);
    }

    /// Node `me` closed interval `interval` at a release, logging
    /// `notices` for its dirty blocks. `vt` is the post-tick vector time.
    /// LRC protocols only.
    fn lrc_release(
        &mut self,
        me: NodeId,
        interval: u32,
        vt: &VClock,
        notices: &[Notice],
        now: Time,
    ) {
        let _ = (me, interval, vt, notices, now);
    }

    /// HLRC: node `me` encoded its writes to `block` in interval
    /// `interval` as `diff`, computed from clean copy `twin` and current
    /// contents `cur`.
    #[allow(clippy::too_many_arguments)]
    fn hl_diff(
        &mut self,
        me: NodeId,
        block: BlockId,
        twin: &[u8],
        cur: &[u8],
        diff: &Diff,
        interval: u32,
        now: Time,
    ) {
        let _ = (me, block, twin, cur, diff, interval, now);
    }

    /// HLRC: the home of `block` now incorporates `writer`'s interval
    /// `interval` (an applied diff, or the writer being home).
    fn hl_flush(&mut self, block: BlockId, writer: NodeId, interval: u32, now: Time) {
        let _ = (block, writer, interval, now);
    }

    /// SW-LRC: the authoritative version of `block` is now `version`
    /// (ownership migration or first claim).
    fn sw_version(&mut self, block: BlockId, version: u32, now: Time) {
        let _ = (block, version, now);
    }

    /// SW-LRC: node `me` published a write notice for `block` at
    /// `version`. `fresh` distinguishes a new version minted at this
    /// release from a pending notice re-published after an ownership
    /// migration.
    fn sw_notice(&mut self, me: NodeId, block: BlockId, version: u32, fresh: bool, now: Time) {
        let _ = (me, block, version, fresh, now);
    }

    /// SC: node `me` installed a copy of `block` (`exclusive` = write
    /// access). `readers`/`writers` list the *other* nodes that held
    /// Read / ReadWrite access at install time.
    fn sc_install(
        &mut self,
        me: NodeId,
        block: BlockId,
        exclusive: bool,
        readers: &[NodeId],
        writers: &[NodeId],
        now: Time,
    ) {
        let _ = (me, block, exclusive, readers, writers, now);
    }

    /// Tardis: the home granted `reader` a read of `block` at write
    /// timestamp `wts` with a lease ending at `lease`. `renewal` marks a
    /// header-only renewal (the reader's copy was already current).
    fn td_read(
        &mut self,
        reader: NodeId,
        block: BlockId,
        wts: u64,
        lease: u64,
        renewal: bool,
        now: Time,
    ) {
        let _ = (reader, block, wts, lease, renewal, now);
    }

    /// Tardis: the home granted `writer` exclusive ownership of `block`
    /// at the freshly minted `new_wts`; `rts` is the largest lease end
    /// outstanding at grant time.
    fn td_write(&mut self, writer: NodeId, block: BlockId, new_wts: u64, rts: u64, now: Time) {
        let _ = (writer, block, new_wts, rts, now);
    }

    /// Tardis: node `me` merged an incoming program timestamp `pts`
    /// carried by a lock grant or barrier release.
    fn td_merge(&mut self, me: NodeId, pts: u64, now: Time) {
        let _ = (me, pts, now);
    }

    /// A fabric data frame `(src → to, seq)` arrived at the receive side.
    /// `duplicate` is the fabric's own duplicate-suppression verdict;
    /// `posted` is how many reassembled envelopes this arrival released to
    /// the protocol layer.
    fn fabric_frame(
        &mut self,
        src: NodeId,
        to: NodeId,
        seq: u64,
        duplicate: bool,
        posted: usize,
        now: Time,
    ) {
        let _ = (src, to, seq, duplicate, posted, now);
    }

    /// End of run: perform whole-run reconciliation (e.g. notice ↔ diff
    /// matching) and return every violation found, in discovery order.
    fn finalize(&mut self, now: Time) -> Vec<Violation> {
        let _ = now;
        Vec::new()
    }

    /// Stable digest of the checker's internal state, folded into the
    /// model checker's state fingerprint so a pruned prefix can never
    /// hide a violation the checker would have reported later. Checkers
    /// that do not participate in model checking may keep the default.
    fn mc_fingerprint(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingChecker {
        accesses: usize,
    }

    impl Checker for CountingChecker {
        fn on_access(&mut self, _me: NodeId, _addr: usize, _len: usize, _write: bool, _now: Time) {
            self.accesses += 1;
        }
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut c = CountingChecker { accesses: 0 };
        c.arm(0, 0);
        c.lock_release(0, 1, &VClock::new(2), 10);
        c.on_access(0, 8, 8, true, 20);
        assert_eq!(c.accesses, 1);
        assert!(c.finalize(100).is_empty());
    }
}
