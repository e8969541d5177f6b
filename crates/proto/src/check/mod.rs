//! The run-time checker: happens-before race detection and online protocol
//! invariant checking for the simulated DSM cluster.
//!
//! A [`RunChecker`] is installed on [`crate::ProtoWorld`] by the run harness
//! when checking is requested (`RunConfig::with_check`, or `diag --check`)
//! and is entirely absent otherwise. It observes the protocol engine through
//! narrow hooks, its inherent methods: per-word shared accesses,
//! synchronization edges, write-notice traffic, diff creation/application,
//! SC access-state installs, Tardis grants and fabric frame delivery. The
//! hooks carry only borrowed data and the checker never charges virtual
//! time or mutates protocol state, so a checked run produces bit-identical
//! results to an unchecked one — and with no checker installed every hook
//! site is a single `Option::is_some` test. Hook order follows engine
//! execution order, which is fully serialized and deterministic; in
//! particular every release-side hook runs before the acquire-side hook it
//! happens-before.
//!
//! Two layers run side by side:
//!
//! - a FastTrack-style **race detector** (`race`) that rebuilds
//!   happens-before from the synchronization hooks alone and shadows every
//!   8-byte word of the shared space;
//! - **protocol invariant mirrors** (`inv`) that independently re-derive
//!   LRC write-notice completeness, HLRC diff coverage and flush
//!   reconciliation, SW-LRC version monotonicity, SC install legality,
//!   Tardis timestamp-lease legality (monotone write timestamps, writes
//!   ordered past outstanding leases, no read above its lease), and the
//!   reliable fabric's exactly-once in-order delivery.
//!
//! Violations accumulate (capped) and are returned by
//! [`RunChecker::finalize`].

mod inv;
mod race;

use dsm_mem::{BlockId, Layout};
use dsm_sim::rng::{fold64, Fingerprinted, StableHasher};
use dsm_sim::{NodeId, Time};

use crate::diff::Diff;
use crate::msg::Notice;
use crate::vt::VClock;
use crate::Protocol;

use inv::{FabricMirror, HlMirror, LrcMirror, SwMirror, TdMirror};
use race::RaceDetector;

/// One invariant violation found by the checker.
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

/// XOR of the entries' fingerprints: the digest of an unordered collection,
/// whatever order it iterates in.
fn xor_fold<T: std::hash::Hash>(entries: impl Iterator<Item = T>) -> u64 {
    entries.fold(0, |acc, e| acc ^ StableHasher::fingerprint(&e))
}

/// Hard cap on stored violations: a genuinely broken run would otherwise
/// report every access; the count of suppressed reports is kept.
const MAX_VIOLATIONS: usize = 200;

/// The last synchronization operation of a node, kept as data and worded
/// (`Display`) only when a race report quotes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SyncCtx {
    Start,
    Begin(Time),
    Released(usize, Time),
    Acquired(usize, Time),
    Passed(usize, Time),
}

impl std::fmt::Display for SyncCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SyncCtx::Start => f.write_str("before any synchronization"),
            SyncCtx::Begin(t) => write!(f, "measurement begin @ {t}"),
            SyncCtx::Released(lock, t) => write!(f, "released lock {lock} @ {t}"),
            SyncCtx::Acquired(lock, t) => write!(f, "acquired lock {lock} @ {t}"),
            SyncCtx::Passed(bar, t) => write!(f, "passed barrier {bar} @ {t}"),
        }
    }
}

/// The full per-run checker. See the module docs for the layer breakdown.
pub struct RunChecker {
    app: String,
    layout: Layout,
    /// Protocol per layout region (same indexing as `layout.regions()`).
    region_protocols: Vec<Protocol>,
    /// Whether some region runs Tardis: only then does an access have a
    /// lease to be checked against.
    has_tardis: bool,
    /// Fabric delivery checks only apply under the reliable fabric; the
    /// ideal fire-and-forget network has no sequencing to validate.
    fabric_reliable: bool,
    // The state the model checker fingerprints, one cached word each.
    det: Fingerprinted<RaceDetector>,
    lrc: Fingerprinted<LrcMirror>,
    hl: Fingerprinted<HlMirror>,
    sw: Fingerprinted<SwMirror>,
    td: Fingerprinted<TdMirror>,
    fab: Fingerprinted<FabricMirror>,
    /// Last synchronization operation per node, for race attribution.
    sync_ctx: Fingerprinted<Vec<SyncCtx>>,
    violations: Fingerprinted<Vec<Violation>>,
    suppressed: usize,
}

impl RunChecker {
    /// Checker for an `nodes`-node run of `app` over `layout`, with one
    /// protocol per layout region (uniform runs pass the same protocol for
    /// every region).
    pub fn new(
        app: &str,
        nodes: usize,
        layout: Layout,
        region_protocols: Vec<Protocol>,
        fabric_reliable: bool,
    ) -> Self {
        assert_eq!(
            region_protocols.len(),
            layout.regions().len(),
            "one protocol per layout region"
        );
        RunChecker {
            app: app.to_string(),
            has_tardis: region_protocols.contains(&Protocol::Tardis),
            det: Fingerprinted::new(RaceDetector::new(nodes, layout.size() / race::WORD)),
            layout,
            region_protocols,
            fabric_reliable,
            lrc: Fingerprinted::new(LrcMirror::new(nodes)),
            hl: Fingerprinted::default(),
            sw: Fingerprinted::default(),
            td: Fingerprinted::new(TdMirror::new(nodes)),
            // No channel has sequence numbers to mirror on the ideal fabric.
            fab: Fingerprinted::new(FabricMirror::new(if fabric_reliable { nodes } else { 0 })),
            sync_ctx: Fingerprinted::new(vec![SyncCtx::Start; nodes]),
            violations: Fingerprinted::default(),
            suppressed: 0,
        }
    }

    /// Violations recorded so far (finalize drains them; this is for tests
    /// and incremental inspection).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn push(
        &mut self,
        rule: &'static str,
        node: NodeId,
        block: Option<BlockId>,
        time: Time,
        detail: String,
    ) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation {
            rule,
            node,
            block,
            time,
            detail,
        });
    }

    fn push_fail(&mut self, f: inv::Fail, node: NodeId, block: Option<BlockId>, time: Time) {
        self.push(f.0, node, block, time, f.1);
    }

    fn protocol_of(&self, b: BlockId) -> Protocol {
        self.region_protocols[self.layout.region_of_block(b)]
    }

    fn region_name(&self, addr: usize) -> &str {
        self.layout.regions()[self.layout.region_of_addr(addr)].name()
    }
}

/// The hooks the protocol engine drives, in engine execution order.
impl RunChecker {
    /// Node `me` entered the measured phase; accesses before this call
    /// (warm-up) are not race-checked.
    pub fn arm(&mut self, me: NodeId, now: Time) {
        self.det.arm(me);
        self.sync_ctx[me] = SyncCtx::Begin(now);
    }

    /// Node `me` completed a shared-memory access of `len` bytes at `addr`.
    /// Fires after access rights were obtained (never for faulting
    /// retries).
    pub fn on_access(&mut self, me: NodeId, addr: usize, len: usize, write: bool, now: Time) {
        // Tardis lease legality is checked on every access, armed or not —
        // leases and program timestamps are live from the first fault.
        // Accesses arrive pre-split at block boundaries, so one block per
        // call.
        if self.has_tardis
            && self.region_protocols[self.layout.region_of_addr(addr)] == Protocol::Tardis
        {
            let block = self.layout.block_of(addr);
            if let Some(f) = self.td.on_access(me, block, write) {
                self.push_fail(f, me, Some(block), now);
            }
        }
        let races = self.det.access(me, addr, len, write);
        for r in races {
            let waddr = r.word * race::WORD;
            let block = self.layout.block_of(waddr);
            let off = waddr - self.layout.block_range(block).start;
            let detail = format!(
                "app={} region={} addr={waddr:#x} (block {block} offset {off}) {}: \
                 node {} @ clock {} vs node {me} @ clock {}; {me}'s sync context: {}",
                self.app,
                self.region_name(waddr),
                r.kind,
                r.prior.node(),
                r.prior.clock(),
                r.current_clock,
                self.sync_ctx[me],
            );
            self.push("hb-race", me, Some(block), now, detail);
        }
    }

    /// Node `me` released lock `lock`. `vt` is the node's vector time
    /// after the release's interval tick (all-zero under SC).
    pub fn lock_release(&mut self, me: NodeId, lock: usize, vt: &VClock, now: Time) {
        self.lrc.on_lock_release(lock, vt);
        self.det.release_lock(me, lock);
        self.sync_ctx[me] = SyncCtx::Released(lock, now);
    }

    /// Node `me` received the grant for `lock`. `vt`/`notices` are the
    /// consistency data carried by the grant (`vt` is `None` under SC);
    /// `cur` is the acquirer's vector time before applying the grant.
    pub fn lock_acquire(
        &mut self,
        me: NodeId,
        lock: usize,
        vt: Option<&VClock>,
        notices: &[Notice],
        cur: &VClock,
        now: Time,
    ) {
        if let Some(vt) = vt {
            let what = format_args!("lock {lock}");
            if let Some(f) = self.lrc.check_grant(what, vt, notices, cur) {
                self.push_fail(f, me, None, now);
            }
            if let Some(f) = self.lrc.check_lock_dominates(lock, vt) {
                self.push_fail(f, me, None, now);
            }
        }
        self.det.acquire_lock(me, lock);
        self.sync_ctx[me] = SyncCtx::Acquired(lock, now);
    }

    /// Node `me` arrived at barrier `bar` (a release operation).
    pub fn bar_arrive(&mut self, me: NodeId, bar: usize) {
        self.det.bar_arrive(me, bar);
    }

    /// Node `me` passed barrier `bar`. Fields as for
    /// [`RunChecker::lock_acquire`]. `skip_join` asks the detector to skip
    /// the happens-before join for this pass while still consuming the
    /// barrier episode — only ever true under the `hb-skip-barrier`
    /// self-test mutation.
    #[allow(clippy::too_many_arguments)]
    pub fn bar_pass(
        &mut self,
        me: NodeId,
        bar: usize,
        vt: Option<&VClock>,
        notices: &[Notice],
        cur: &VClock,
        skip_join: bool,
        now: Time,
    ) {
        if let Some(vt) = vt {
            let what = format_args!("barrier {bar}");
            if let Some(f) = self.lrc.check_grant(what, vt, notices, cur) {
                self.push_fail(f, me, None, now);
            }
        }
        self.det.bar_pass(me, bar, skip_join);
        self.sync_ctx[me] = SyncCtx::Passed(bar, now);
    }

    /// Node `me` closed interval `interval` at a release, logging
    /// `notices` for its dirty blocks. LRC protocols only.
    pub fn lrc_release(&mut self, me: NodeId, interval: u32, notices: &[Notice]) {
        self.lrc.on_release(me, interval, notices);
        for n in notices {
            if self.protocol_of(n.block) == Protocol::Hlrc {
                self.hl.on_notice(n.block, n.writer, n.version);
            }
        }
    }

    /// HLRC: node `me` encoded its writes to `block` as `diff`, computed
    /// from clean copy `twin` and current contents `cur`.
    pub fn hl_diff(
        &mut self,
        me: NodeId,
        block: BlockId,
        twin: &[u8],
        cur: &[u8],
        diff: &Diff,
        now: Time,
    ) {
        if let Some(f) = self.hl.on_diff(block, twin, cur, diff) {
            self.push_fail(f, me, Some(block), now);
        }
    }

    /// HLRC: the home of `block` now incorporates `writer`'s interval
    /// `interval` (an applied diff, or the writer being home).
    pub fn hl_flush(&mut self, block: BlockId, writer: NodeId, interval: u32, now: Time) {
        if let Some(f) = self.hl.on_flush(block, writer, interval) {
            self.push_fail(f, writer, Some(block), now);
        }
    }

    /// SW-LRC: the authoritative version of `block` is now `version`
    /// (ownership migration or first claim).
    pub fn sw_version(&mut self, block: BlockId, version: u32, now: Time) {
        if let Some(f) = self.sw.on_version(block, version) {
            self.push_fail(f, 0, Some(block), now);
        }
    }

    /// SW-LRC: node `me` published a write notice for `block` at
    /// `version`. `fresh` distinguishes a new version minted at this
    /// release from a pending notice re-published after an ownership
    /// migration.
    pub fn sw_notice(&mut self, me: NodeId, block: BlockId, version: u32, fresh: bool, now: Time) {
        if let Some(f) = self.sw.on_notice(block, version, fresh) {
            self.push_fail(f, me, Some(block), now);
        }
    }

    /// SC: node `me` installed a copy of `block` (`exclusive` = write
    /// access). `readers`/`writers` list the *other* nodes that held
    /// Read / ReadWrite access at install time.
    pub fn sc_install(
        &mut self,
        me: NodeId,
        block: BlockId,
        exclusive: bool,
        readers: &[NodeId],
        writers: &[NodeId],
        now: Time,
    ) {
        if let Some(f) = inv::check_sc_install(block, exclusive, readers, writers) {
            self.push_fail(f, me, Some(block), now);
        }
    }

    /// Tardis: the home granted `reader` a read of `block` at write
    /// timestamp `wts` with a lease ending at `lease`.
    pub fn td_read(&mut self, reader: NodeId, block: BlockId, wts: u64, lease: u64) {
        self.td.on_read(reader, block, wts, lease);
    }

    /// Tardis: the home granted `writer` exclusive ownership of `block`
    /// at the freshly minted `new_wts`.
    pub fn td_write(&mut self, writer: NodeId, block: BlockId, new_wts: u64, now: Time) {
        if let Some(f) = self.td.on_write(writer, block, new_wts) {
            self.push_fail(f, writer, Some(block), now);
        }
    }

    /// Tardis: node `me` merged an incoming program timestamp `pts`
    /// carried by a lock grant or barrier release.
    pub fn td_merge(&mut self, me: NodeId, pts: u64) {
        self.td.on_merge(me, pts);
    }

    /// A fabric data frame `(src → to, seq)` arrived at the receive side.
    /// `posted` is how many reassembled envelopes this arrival released to
    /// the protocol layer.
    pub fn fabric_frame(&mut self, src: NodeId, to: NodeId, seq: u64, posted: usize, now: Time) {
        if !self.fabric_reliable {
            return;
        }
        if let Some(f) = self.fab.on_frame(src, to, seq, posted) {
            self.push_fail(f, to, None, now);
        }
    }

    /// Stable digest of the checker's internal state, folded into the
    /// model checker's state fingerprint so a pruned prefix can never
    /// hide a violation the checker would have reported later.
    pub fn mc_fingerprint(&self) -> u64 {
        let mut h = self.det.fingerprint_with(RaceDetector::mc_hash);
        h = fold64(h, self.lrc.fingerprint_with(LrcMirror::mc_hash));
        h = fold64(h, self.hl.fingerprint_with(HlMirror::mc_hash));
        h = fold64(h, self.sw.fingerprint_with(SwMirror::mc_hash));
        h = fold64(h, self.td.fingerprint_with(TdMirror::mc_hash));
        h = fold64(h, self.fab.fingerprint_with(FabricMirror::mc_hash));
        h = fold64(
            h,
            self.violations.fingerprint_with(StableHasher::fingerprint),
        );
        h = fold64(h, self.sync_ctx.fingerprint_with(StableHasher::fingerprint));
        fold64(h, self.suppressed as u64)
    }

    /// End of run: perform whole-run reconciliation (notice ↔ diff
    /// matching) and return every violation found, in discovery order.
    pub fn finalize(&mut self, now: Time) -> Vec<Violation> {
        let fails = self.hl.finalize();
        for f in fails {
            self.push_fail(f, 0, None, now);
        }
        if self.suppressed > 0 {
            // Bypasses the cap: the summary must always make it out.
            self.violations.push(Violation {
                rule: "suppressed",
                node: 0,
                block: None,
                time: now,
                detail: format!(
                    "{} further violation(s) suppressed after the first {MAX_VIOLATIONS}",
                    self.suppressed
                ),
            });
        }
        std::mem::take(&mut *self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(nodes: usize) -> RunChecker {
        let layout = Layout::new(4096, 256);
        let protos = vec![Protocol::Hlrc; layout.regions().len()];
        RunChecker::new("unit", nodes, layout, protos, true)
    }

    #[test]
    fn race_reports_carry_app_region_and_block_attribution() {
        let mut c = checker(2);
        c.arm(0, 10);
        c.arm(1, 10);
        c.on_access(0, 304, 8, true, 20);
        c.on_access(1, 304, 8, true, 30);
        let v = c.finalize(40);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hb-race");
        assert_eq!(v[0].node, 1);
        assert_eq!(v[0].block, Some(1));
        assert!(v[0].detail.contains("app=unit"));
        assert!(v[0].detail.contains("block 1"));
    }

    #[test]
    fn lock_ordered_accesses_are_clean() {
        let mut c = checker(2);
        c.arm(0, 0);
        c.arm(1, 0);
        let mut vt = VClock::new(2);
        c.on_access(0, 0, 8, true, 1);
        vt.tick(0);
        let notices = [Notice {
            block: 0,
            writer: 0,
            version: 1,
        }];
        c.lrc_release(0, 1, &notices);
        c.lock_release(0, 3, &vt, 2);
        c.lock_acquire(1, 3, Some(&vt), &notices, &VClock::new(2), 3);
        c.on_access(1, 0, 8, true, 4);
        assert!(c.finalize(5).is_empty());
    }

    #[test]
    fn violations_are_capped_with_a_summary_record() {
        let mut c = checker(2);
        c.arm(0, 0);
        c.arm(1, 0);
        for w in 0..(MAX_VIOLATIONS + 10) {
            c.on_access(0, w * 8, 8, true, 1);
            c.on_access(1, w * 8, 8, true, 2);
        }
        let v = c.finalize(3);
        assert_eq!(v.len(), MAX_VIOLATIONS + 1);
        assert_eq!(v.last().unwrap().rule, "suppressed");
    }

    #[test]
    fn sc_install_violation_names_the_stale_holder() {
        let mut c = checker(4);
        c.sc_install(2, 5, true, &[1], &[], 100);
        let v = c.finalize(101);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "sc-exclusive-with-readers");
        assert_eq!(v[0].block, Some(5));
    }

    /// A race report quotes the racing node's last synchronization: the five
    /// contexts, each byte for byte what it read when the context was kept
    /// as a rendered string (the literals were captured at that commit).
    #[test]
    fn race_reports_quote_the_sync_context_in_the_words_they_always_had() {
        type Setup = fn(&mut RunChecker);
        let cases: [(Setup, u32, &str); 5] = [
            // Arming sets a context, so only a test can see the initial one.
            (
                |c| c.sync_ctx[1] = SyncCtx::Start,
                1,
                "before any synchronization",
            ),
            (|_| {}, 1, "measurement begin @ 11"),
            (
                |c| c.lock_release(1, 7, &VClock::new(2), 1234),
                2,
                "released lock 7 @ 1234",
            ),
            (
                |c| c.lock_acquire(1, 12, None, &[], &VClock::new(2), 99),
                1,
                "acquired lock 12 @ 99",
            ),
            (
                |c| {
                    c.bar_arrive(0, 3);
                    c.bar_arrive(1, 3);
                    c.bar_pass(1, 3, None, &[], &VClock::new(2), true, 70);
                },
                2,
                "passed barrier 3 @ 70",
            ),
        ];
        for (setup, clock, ctx) in cases {
            let mut c = checker(2);
            c.arm(0, 10);
            c.arm(1, 11);
            c.on_access(0, 304, 8, true, 20);
            setup(&mut c);
            c.on_access(1, 304, 8, false, 30);
            let v = c.finalize(40);
            assert_eq!(v.len(), 1, "{ctx}");
            assert_eq!(
                v[0].to_string(),
                format!(
                    "[hb-race] node 1 block 1 t=30ns: app=unit region=shared addr=0x130 \
                     (block 1 offset 48) write-read: node 0 @ clock 1 vs node 1 @ clock {clock}; \
                     1's sync context: {ctx}"
                )
            );
        }
    }
}
