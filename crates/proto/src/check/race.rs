//! FastTrack-style happens-before race detection over the simulated
//! cluster's shared space.
//!
//! The detector keeps its *own* vector clocks, built purely from the
//! synchronization hooks (lock release/acquire, barrier arrive/pass), so it
//! defines the same happens-before relation under every protocol — under SC
//! the protocol carries no vector times at all, and under the LRC protocols
//! the detector must not inherit a bug in the protocol's own clocks.
//!
//! Shadow state is kept per 8-byte word, FastTrack-style: the last write is
//! a single epoch `(node, clock)`, and reads are an epoch that inflates to
//! a full per-node clock vector only when genuinely concurrent readers
//! appear. Sub-word accesses are attributed to their containing word, which
//! can merge distinct scalars that share a word — an accepted source of
//! (rare) false positives at word granularity.
//!
//! The shadow is dense: two `u64` per word of the shared space, indexed by
//! word, zero until the word is first touched (the vectors come from
//! `calloc`, so an untouched page of shadow costs no memory). A read slot
//! that had to inflate holds the index of a per-node clock row in a side
//! table instead of an epoch; a write clears the slot and recycles the row.

use std::collections::VecDeque;

use crate::vt::VClock;
use dsm_sim::rng::{fold64, StableHasher, StableMap, StableSet};
use dsm_sim::NodeId;

use super::xor_fold;

/// Shadow granularity in bytes.
pub const WORD: usize = 8;

/// A packed `(node, clock)` epoch; raw 0 means "no access recorded".
/// Node ids fit in 16 bits ([`RaceDetector::new`] asserts it) and clocks are
/// ≥ 1 (each node's own component starts ticked), so a real epoch is
/// non-zero and leaves bit 63 clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch(u64);

impl Epoch {
    #[inline]
    fn new(node: NodeId, clock: u32) -> Self {
        Epoch((clock as u64) << 16 | node as u64)
    }
    pub fn node(self) -> NodeId {
        (self.0 & 0xffff) as NodeId
    }
    pub fn clock(self) -> u32 {
        (self.0 >> 16) as u32
    }
    /// True when the access this epoch records is not ordered before the
    /// current access of `me`, whose clock is `c`.
    #[inline]
    fn concurrent_with(self, me: NodeId, c: &VClock) -> bool {
        self.node() != me && c.get(self.node()) < self.clock()
    }
}

/// Tag bit of a read slot that holds a side-table row instead of an epoch.
const MANY: u64 = 1 << 63;

/// One detected race, reported back to the caller for attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// `"write-write"`, `"read-write"` (prior read vs this write) or
    /// `"write-read"` (prior write vs this read).
    pub kind: &'static str,
    /// Word index (byte address / 8) the race was found at.
    pub word: usize,
    /// The prior access's epoch.
    pub prior: Epoch,
    /// The current accessor's own component at the time of the access.
    pub current_clock: u32,
}

/// In-flight state of one barrier episode queue entry: the merged clock of
/// all arrivers and how many passes have yet to consume it.
#[derive(Debug, Hash)]
struct BarEpisode {
    snapshot: VClock,
    reads_left: usize,
}

#[derive(Debug, Default, Hash)]
struct BarState {
    gather: Option<VClock>,
    arrived: usize,
    queue: VecDeque<BarEpisode>,
}

/// The detector: per-node clocks, lock/barrier clock bookkeeping, and the
/// per-word shadow.
#[derive(Debug)]
pub struct RaceDetector {
    n: usize,
    clocks: Vec<VClock>,
    armed: Vec<bool>,
    locks: StableMap<usize, VClock>,
    bars: StableMap<usize, BarState>,
    /// Per word: the last write's epoch, raw-packed (0 = never written).
    wr: Vec<u64>,
    /// Per word: the reads since the last write. 0 = none; an epoch = all of
    /// them totally ordered, only the latest kept; `MANY | i` = concurrent
    /// readers, whose last read clock per node (0 = never read) is row `i`
    /// of `many`.
    rd: Vec<u64>,
    /// Side table of concurrent-reader rows, `n` clocks each.
    many: Vec<u32>,
    /// Rows of `many` whose slot a write has cleared, for reuse.
    free_rows: Vec<usize>,
    /// Words with a non-zero `wr` or `rd`, in first-touch order. A touched
    /// word never returns to all-zero (a write sets the epoch, a read sets
    /// the slot), so each appears once; `mc_hash` walks this list instead
    /// of the whole shadow.
    touched: Vec<usize>,
    /// Words already reported: one race per word keeps the output readable.
    raced: StableSet<usize>,
}

impl RaceDetector {
    /// Detector for an `n`-node cluster over `words` 8-byte words of shared
    /// space. Accesses are ignored until the node is armed (measurement
    /// begin); synchronization is tracked from the start so warm-up
    /// ordering carries over correctly.
    pub fn new(n: usize, words: usize) -> Self {
        assert!(n <= 1 << 16, "{n} nodes do not fit an epoch's 16 bits");
        let clocks = (0..n)
            .map(|i| {
                let mut c = VClock::new(n);
                c.tick(i); // own component starts at 1: epochs are non-zero
                c
            })
            .collect();
        RaceDetector {
            n,
            clocks,
            armed: vec![false; n],
            locks: StableMap::default(),
            bars: StableMap::default(),
            wr: vec![0; words],
            rd: vec![0; words],
            many: Vec::new(),
            free_rows: Vec::new(),
            touched: Vec::new(),
            raced: StableSet::default(),
        }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.many[i * self.n..(i + 1) * self.n]
    }

    /// Digest of everything but the shadow: clocks, arming, and the lock and
    /// barrier tables (unordered, so XOR-folded per entry).
    fn sync_hash(&self) -> u64 {
        let h = StableHasher::fingerprint(&(self.n, &self.clocks, &self.armed));
        fold64(
            fold64(h, xor_fold(self.locks.iter())),
            xor_fold(self.bars.iter()),
        )
    }

    /// Stable digest of the detector state (model-checker fingerprinting).
    /// The shadow is XOR-folded per touched word, so first-touch order cannot
    /// leak into the digest, and a concurrent-reader slot hashes its row's
    /// contents, never the (recycled) row index.
    pub fn mc_hash(&self) -> u64 {
        let words = self.touched.iter().map(|&w| {
            let r = self.rd[w];
            if r & MANY == 0 {
                StableHasher::fingerprint(&(w, self.wr[w], r))
            } else {
                StableHasher::fingerprint(&(w, self.wr[w], MANY, self.row((r & !MANY) as usize)))
            }
        });
        let h = fold64(self.sync_hash(), words.fold(0, |acc, e| acc ^ e));
        fold64(h, xor_fold(self.raced.iter()))
    }

    /// Start checking `me`'s accesses.
    pub fn arm(&mut self, me: NodeId) {
        self.armed[me] = true;
    }

    /// Lock release: publish the releaser's clock on the lock and open a
    /// new interval.
    pub fn release_lock(&mut self, me: NodeId, l: usize) {
        let c = &self.clocks[me];
        self.locks
            .entry(l)
            .and_modify(|v| v.clone_from(c))
            .or_insert_with(|| c.clone());
        self.clocks[me].tick(me);
    }

    /// Lock acquire: join the last releaser's published clock.
    pub fn acquire_lock(&mut self, me: NodeId, l: usize) {
        if let Some(lv) = self.locks.get(&l) {
            self.clocks[me].merge(lv);
        }
    }

    /// Barrier arrival: contribute the arriver's clock to the episode and
    /// open a new interval. When the last of `n` arrives, the episode's
    /// merged snapshot is queued for the matching passes.
    pub fn bar_arrive(&mut self, me: NodeId, bar: usize) {
        let n = self.n;
        let st = self.bars.entry(bar).or_default();
        match &mut st.gather {
            Some(g) => g.merge(&self.clocks[me]),
            None => st.gather = Some(self.clocks[me].clone()),
        }
        self.clocks[me].tick(me);
        st.arrived += 1;
        if st.arrived == n {
            let snapshot = st.gather.take().expect("episode clock");
            st.arrived = 0;
            st.queue.push_back(BarEpisode {
                snapshot,
                reads_left: n,
            });
        }
    }

    /// Barrier pass: join the episode snapshot (unless the `hb-skip-barrier`
    /// mutation suppresses the join — the episode bookkeeping still
    /// advances so later episodes stay aligned).
    pub fn bar_pass(&mut self, me: NodeId, bar: usize, skip_join: bool) {
        let st = self.bars.entry(bar).or_default();
        let Some(ep) = st.queue.front_mut() else {
            debug_assert!(false, "barrier pass without a completed episode");
            return;
        };
        if !skip_join {
            self.clocks[me].merge(&ep.snapshot);
        }
        ep.reads_left -= 1;
        if ep.reads_left == 0 {
            st.queue.pop_front();
        }
    }

    /// A zeroed concurrent-reader row: a recycled one, or a new one.
    fn take_row(&mut self) -> usize {
        match self.free_rows.pop() {
            Some(i) => {
                self.many[i * self.n..(i + 1) * self.n].fill(0);
                i
            }
            None => {
                self.many.resize(self.many.len() + self.n, 0);
                self.many.len() / self.n - 1
            }
        }
    }

    /// Check one access against the shadow words it covers. Returns at most
    /// one race per word, and never re-reports a word. An access past the
    /// shared space the detector was sized for panics.
    pub fn access(&mut self, me: NodeId, addr: usize, len: usize, write: bool) -> Vec<Race> {
        if !self.armed[me] || len == 0 {
            return Vec::new();
        }
        let mut races = Vec::new();
        let n = self.n;
        let own = self.clocks[me].get(me);
        let mine = Epoch::new(me, own);
        for word in (addr / WORD)..=((addr + len - 1) / WORD) {
            let c = &self.clocks[me];
            let (w, r) = (self.wr[word], self.rd[word]);
            if w | r == 0 {
                self.touched.push(word);
            }
            // Write epoch vs this access (both reads and writes race with a
            // concurrent prior write).
            let mut race: Option<(&'static str, Epoch)> = None;
            if w != 0 && Epoch(w).concurrent_with(me, c) {
                race = Some((if write { "write-write" } else { "write-read" }, Epoch(w)));
            }
            if write {
                // Prior reads vs this write.
                if r & MANY != 0 {
                    let i = (r & !MANY) as usize;
                    if race.is_none() {
                        let row = self.row(i);
                        let hit = (0..n).find(|&j| row[j] > 0 && j != me && c.get(j) < row[j]);
                        race = hit.map(|j| ("read-write", Epoch::new(j, row[j])));
                    }
                    self.free_rows.push(i);
                } else if r != 0 && race.is_none() && Epoch(r).concurrent_with(me, c) {
                    race = Some(("read-write", Epoch(r)));
                }
                self.wr[word] = mine.0;
                self.rd[word] = 0;
            } else if r & MANY != 0 {
                self.many[(r & !MANY) as usize * n + me] = own;
            } else if r != 0 && Epoch(r).concurrent_with(me, c) {
                // Record the read: stay in the cheap single-epoch form while
                // reads are ordered, inflate on true concurrency.
                let i = self.take_row();
                self.many[i * n + Epoch(r).node()] = Epoch(r).clock();
                self.many[i * n + me] = own;
                self.rd[word] = MANY | i as u64;
            } else {
                self.rd[word] = mine.0;
            }
            if let Some((kind, prior)) = race {
                if self.raced.insert(word) {
                    races.push(Race {
                        kind,
                        word,
                        prior,
                        current_clock: own,
                    });
                }
            }
        }
        races
    }
}

/// The shadow this detector's replaced — a map from word to a `(write
/// epoch, Readers)` record — kept as the oracle of the differential test
/// below. It reads the clocks and arming of the detector it shadows, so the
/// two differ in nothing but the shadow.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Readers {
        None,
        One(Epoch),
        Many(Box<[u32]>),
    }

    #[derive(Debug, Hash)]
    struct WordState {
        w: u64,
        r: Readers,
    }

    #[derive(Default)]
    pub struct MapShadow {
        words: StableMap<usize, WordState>,
        raced: StableSet<usize>,
    }

    impl MapShadow {
        pub fn mc_hash(&self, d: &RaceDetector) -> u64 {
            let h = fold64(d.sync_hash(), xor_fold(self.words.iter()));
            fold64(h, xor_fold(self.raced.iter()))
        }

        pub fn access(
            &mut self,
            d: &RaceDetector,
            me: NodeId,
            addr: usize,
            len: usize,
            write: bool,
        ) -> Vec<Race> {
            if !d.armed[me] || len == 0 {
                return Vec::new();
            }
            let mut races = Vec::new();
            let c = &d.clocks[me];
            let own = c.get(me);
            for word in (addr / WORD)..=((addr + len - 1) / WORD) {
                let st = self.words.entry(word).or_insert(WordState {
                    w: 0,
                    r: Readers::None,
                });
                let mut race: Option<(&'static str, Epoch)> = None;
                if st.w != 0 {
                    let e = Epoch(st.w);
                    if e.node() != me && c.get(e.node()) < e.clock() {
                        race = Some((if write { "write-write" } else { "write-read" }, e));
                    }
                }
                if write {
                    match &st.r {
                        Readers::None => {}
                        Readers::One(e) => {
                            if race.is_none() && e.node() != me && c.get(e.node()) < e.clock() {
                                race = Some(("read-write", *e));
                            }
                        }
                        Readers::Many(v) => {
                            for (j, &rc) in v.iter().enumerate() {
                                if race.is_none() && rc > 0 && j != me && c.get(j) < rc {
                                    race = Some(("read-write", Epoch::new(j, rc)));
                                }
                            }
                        }
                    }
                    st.w = Epoch::new(me, own).0;
                    st.r = Readers::None;
                } else {
                    let mine = Epoch::new(me, own);
                    st.r = match std::mem::replace(&mut st.r, Readers::None) {
                        Readers::None => Readers::One(mine),
                        Readers::One(e) if e.node() == me || c.get(e.node()) >= e.clock() => {
                            Readers::One(mine)
                        }
                        Readers::One(e) => {
                            let mut v = vec![0u32; d.n].into_boxed_slice();
                            v[e.node()] = e.clock();
                            v[me] = own;
                            Readers::Many(v)
                        }
                        Readers::Many(mut v) => {
                            v[me] = own;
                            Readers::Many(v)
                        }
                    };
                }
                if let Some((kind, prior)) = race {
                    if self.raced.insert(word) {
                        races.push(Race {
                            kind,
                            word,
                            prior,
                            current_clock: own,
                        });
                    }
                }
            }
            races
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words of shadow the unit tests give a detector.
    const WORDS: usize = 64;

    fn armed(n: usize) -> RaceDetector {
        let mut d = RaceDetector::new(n, WORDS);
        for i in 0..n {
            d.arm(i);
        }
        d
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let mut d = armed(2);
        assert!(d.access(0, 0, 8, true).is_empty());
        let r = d.access(1, 0, 8, true);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, "write-write");
        assert_eq!(r[0].prior.node(), 0);
        // The same word is never reported twice.
        assert!(d.access(0, 0, 8, true).is_empty());
    }

    #[test]
    fn lock_ordering_suppresses_the_race() {
        let mut d = armed(2);
        d.acquire_lock(0, 7);
        assert!(d.access(0, 16, 8, true).is_empty());
        d.release_lock(0, 7);
        d.acquire_lock(1, 7);
        assert!(d.access(1, 16, 8, true).is_empty(), "ordered by the lock");
        // A write ordered only by a *different* lock still races.
        d.release_lock(1, 9);
        let r = d.access(0, 16, 8, true);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn barrier_orders_all_participants() {
        let mut d = armed(3);
        d.access(0, 0, 8, true);
        for i in 0..3 {
            d.bar_arrive(i, 1);
        }
        for i in 0..3 {
            d.bar_pass(i, 1, false);
        }
        assert!(d.access(2, 0, 8, true).is_empty(), "barrier creates order");
    }

    #[test]
    fn skipped_barrier_join_leaves_accesses_concurrent() {
        let mut d = armed(2);
        d.access(1, 32, 8, true);
        d.bar_arrive(0, 4);
        d.bar_arrive(1, 4);
        d.bar_pass(0, 4, true); // node 0's join suppressed
        d.bar_pass(1, 4, false);
        let r = d.access(0, 32, 8, false);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, "write-read");
    }

    #[test]
    fn concurrent_readers_inflate_and_catch_a_later_writer() {
        let mut d = armed(3);
        assert!(d.access(0, 8, 4, false).is_empty());
        assert_eq!(d.rd[1], Epoch::new(0, 1).0, "one reader: an epoch");
        assert!(d.access(1, 12, 4, false).is_empty(), "reads never race");
        assert_eq!(d.rd[1], MANY, "concurrent readers: row 0 of the side table");
        assert_eq!(d.row(0), [1, 1, 0]);
        let r = d.access(2, 8, 8, true);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, "read-write");
        assert_eq!(r[0].prior, Epoch::new(0, 1), "the lowest concurrent reader");
        // The write clears the slot and hands the row back.
        assert_eq!((d.wr[1], d.rd[1]), (Epoch::new(2, 1).0, 0));
        assert_eq!(d.free_rows, [0]);
        assert_eq!(
            d.touched,
            [1],
            "a word is listed once, however often touched"
        );
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn an_access_outside_the_shadow_panics() {
        armed(2).access(0, WORDS * WORD, 8, true);
    }

    #[test]
    fn unarmed_nodes_are_ignored() {
        let mut d = RaceDetector::new(2, WORDS);
        d.arm(0);
        d.access(1, 0, 8, true); // unarmed: not recorded
        assert!(d.access(0, 0, 8, true).is_empty());
    }

    /// One step of a fixed-seed operation stream, applied to both detectors.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Arm(NodeId),
        Release(NodeId, usize),
        Acquire(NodeId, usize),
        /// Everyone arrives at the barrier, then everyone passes; the flags
        /// are the per-node `skip_join`s (bit `i` = node `i`).
        Barrier(usize, u64),
        Access(NodeId, usize, usize, bool),
    }

    fn stream(seed: u64, n: usize, len: usize) -> Vec<Op> {
        use dsm_sim::rng::mix64;
        let bytes = (WORDS * WORD) as u64;
        (0..len as u64)
            .map(|i| {
                let r = |lane: u64| mix64(seed ^ mix64(i ^ mix64(lane)));
                let me = (r(1) % n as u64) as usize;
                match r(2) % 100 {
                    0..=2 => Op::Arm(me),
                    3..=9 => Op::Release(me, (r(3) % 3) as usize),
                    10..=16 => Op::Acquire(me, (r(3) % 3) as usize),
                    // One barrier in three skips somebody's join.
                    17..=19 => {
                        Op::Barrier((r(3) % 2) as usize, if r(4) % 3 == 0 { r(5) } else { 0 })
                    }
                    _ => {
                        let len = 1 + r(4) % 64;
                        let addr = r(5) % (bytes - len + 1);
                        Op::Access(me, addr as usize, len as usize, r(6) % 2 == 0)
                    }
                }
            })
            .collect()
    }

    /// Apply `op` to the detector and, if it is an access, to the map shadow
    /// beside it; the races each reports.
    fn apply(d: &mut RaceDetector, map: &mut reference::MapShadow, op: Op) -> [Vec<Race>; 2] {
        let n = d.n;
        match op {
            Op::Arm(me) => d.arm(me),
            Op::Release(me, l) => d.release_lock(me, l),
            Op::Acquire(me, l) => d.acquire_lock(me, l),
            Op::Barrier(bar, skips) => {
                (0..n).for_each(|i| d.bar_arrive(i, bar));
                (0..n).for_each(|i| d.bar_pass(i, bar, skips >> i & 1 == 1));
            }
            Op::Access(me, addr, len, write) => {
                let want = map.access(d, me, addr, len, write);
                return [d.access(me, addr, len, write), want];
            }
        }
        [Vec::new(), Vec::new()]
    }

    /// The dense shadow is the map shadow: the same races after every
    /// operation of 200 fixed-seed streams, and the same state identity —
    /// of the states sampled (every eighth), two the old digest told apart
    /// the new one tells apart, and two it identified the new one identifies.
    #[test]
    fn the_dense_shadow_reports_what_the_map_detector_reports() {
        let mut races = 0;
        let mut inflated = 0;
        for seed in 0..200u64 {
            let n = 2 + (seed % 4) as usize;
            let mut dense = RaceDetector::new(n, WORDS);
            let mut map = reference::MapShadow::default();
            let mut new_of_old = StableMap::default();
            let mut old_of_new = StableMap::default();
            for (i, op) in stream(seed, n, 2_000).into_iter().enumerate() {
                let [got, want] = apply(&mut dense, &mut map, op);
                assert_eq!(got, want, "seed {seed}, operation {i}: {op:?}");
                races += got.len();
                if i % 8 == 0 {
                    let (old, new) = (map.mc_hash(&dense), dense.mc_hash());
                    assert_eq!(
                        *new_of_old.entry(old).or_insert(new),
                        new,
                        "seed {seed}, {i}"
                    );
                    assert_eq!(
                        *old_of_new.entry(new).or_insert(old),
                        old,
                        "seed {seed}, {i}"
                    );
                }
            }
            inflated += dense.many.len() / n;
        }
        // The streams reach what they are meant to reach.
        assert!(races > 1_000, "only {races} races over all streams");
        assert!(inflated > 1_000, "only {inflated} concurrent-reader rows");
    }

    #[test]
    fn equal_shadow_states_hash_equally_however_they_were_reached() {
        // Two orders of touching the same words with the same epochs.
        let mut a = armed(3);
        let mut b = armed(3);
        a.access(0, 0, 8, true);
        a.access(1, 40, 8, false);
        a.access(2, 40, 8, false);
        b.access(1, 40, 8, false);
        b.access(2, 40, 8, false);
        b.access(0, 0, 8, true);
        assert_ne!(a.touched, b.touched, "first-touch order differs");
        assert_eq!(a.mc_hash(), b.mc_hash());
        // A state reached through a recycled side-table row: `c` inflates
        // word 2 (row 0), writes it away, then inflates word 5 into the
        // recycled row 0, while `d` first burns row 0 on word 7 so that word
        // 5 gets a fresh row 1. Bring both to the same shadow and compare.
        let concurrent_reads = |d: &mut RaceDetector, word: usize| {
            d.access(0, word * WORD, 8, false);
            d.access(1, word * WORD, 8, false);
        };
        let mut c = armed(3);
        concurrent_reads(&mut c, 2);
        c.access(2, 2 * WORD, 8, true);
        concurrent_reads(&mut c, 5);
        concurrent_reads(&mut c, 7);
        let mut d = armed(3);
        concurrent_reads(&mut d, 7);
        concurrent_reads(&mut d, 2);
        d.access(2, 2 * WORD, 8, true);
        concurrent_reads(&mut d, 5);
        assert_eq!((c.rd[5], c.rd[7]), (MANY, MANY | 1));
        assert_eq!(
            (d.rd[5], d.rd[7]),
            (MANY | 1, MANY),
            "other rows, same contents"
        );
        assert_eq!(c.mc_hash(), d.mc_hash());
        // And the digest does see a row's contents.
        d.access(2, 5 * WORD, 8, false);
        assert_ne!(c.mc_hash(), d.mc_hash());
    }
}
