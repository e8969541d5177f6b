//! The event queue: a calendar of near-future buckets with a binary heap
//! fallback for far-future events ([`BucketQueue`]).
//!
//! The simulator's event population is dense and near-sighted: at any
//! instant the queue holds one resume per runnable node plus the messages in
//! flight, and almost every event lands within a few hundred microseconds of
//! `now` (network latencies are 20–440 µs one-way, compute segments are
//! shorter still). A general-purpose [`BinaryHeap`] pays `O(log n)` with
//! branchy sift loops on every operation; a calendar queue turns the common
//! case into an append to an unsorted bucket and an occasional small sort.
//!
//! Layout: time is divided into fixed-width buckets of `2^BUCKET_SHIFT` ns.
//! A ring of `NUM_BUCKETS` unsorted buckets covers the near horizon
//! (`cursor .. cursor + NUM_BUCKETS`); events beyond the horizon overflow
//! into a min-heap and are pulled back into the ring as the cursor advances.
//! The bucket currently being drained is kept sorted (descending, so `pop`
//! takes from the back); same-bucket inserts go into it by binary search.
//!
//! Pop order is exactly ascending `(time, sequence)` — what a `BinaryHeap`
//! keyed on the pair would give, which is what keeps the simulation
//! deterministic. The differential test at the bottom asserts this against
//! a reference heap on randomized workloads.
//!
//! Entries are moved by push, binary insert, sort and pop, so the queue
//! wants them small: the engine queues a 16-byte `Copy` slot (32 bytes with
//! its key) and keeps message payloads in a slab of its own.

use std::collections::BinaryHeap;

use crate::time::Time;

/// log2 of the bucket width in ns (8.2 µs per bucket).
const BUCKET_SHIFT: u32 = 13;
/// Ring size; the near horizon is `NUM_BUCKETS << BUCKET_SHIFT` ≈ 4.2 ms.
const NUM_BUCKETS: usize = 512;

/// A far-future event, ordered ascending by `(time, seq)` through a
/// reversed `Ord` so it can live in a max-[`BinaryHeap`].
struct FarEntry<V> {
    at: Time,
    seq: u64,
    v: V,
}

impl<V> PartialEq for FarEntry<V> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<V> Eq for FarEntry<V> {}
impl<V> PartialOrd for FarEntry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V> Ord for FarEntry<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the heap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Calendar/bucket event queue with heap overflow. `push` tags each event
/// with an internal monotone sequence number; `pop` returns events in
/// ascending `(time, sequence)` order.
pub struct BucketQueue<V> {
    seq: u64,
    len: usize,
    /// Events currently stored in ring buckets (excludes `active` and far).
    near_len: usize,
    /// Unsorted buckets; absolute bucket `b` lives at `b % NUM_BUCKETS` for
    /// `b` in `[cursor, cursor + NUM_BUCKETS)`. Slots from `ring.len()` on
    /// are empty and not yet made, so a run that spans a few buckets — a
    /// model-checker execution — makes and drops only those.
    ring: Vec<Vec<(Time, u64, V)>>,
    /// One bit per ring slot, set while the slot holds events: opening the
    /// next bucket finds it in a few words instead of stepping over every
    /// empty slot before it.
    occupied: [u64; NUM_BUCKETS / 64],
    /// Allocations of opened-and-drained buckets, for the next empty ring
    /// slot that takes an event: a run holds as many bucket allocations as
    /// it has buckets in use at once, not one per bucket it ever used.
    spare: Vec<Vec<(Time, u64, V)>>,
    /// Next absolute bucket the cursor will open.
    cursor: u64,
    /// The sorted front segment (descending by `(time, seq)` so the next
    /// event is at the back): the contents of every bucket opened so far.
    active: Vec<(Time, u64, V)>,
    /// Time of the last popped event (debug-assert monotonicity guard).
    last_pop: Time,
    /// Far-future overflow (beyond the ring horizon).
    far: BinaryHeap<FarEntry<V>>,
}

impl<V> Default for BucketQueue<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BucketQueue<V> {
    /// An empty queue starting at time 0.
    pub fn new() -> Self {
        BucketQueue {
            seq: 0,
            len: 0,
            near_len: 0,
            ring: Vec::with_capacity(NUM_BUCKETS),
            occupied: [0; NUM_BUCKETS / 64],
            spare: Vec::new(),
            cursor: 1,
            active: Vec::new(),
            last_pop: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `v` at time `at`. Events must not be pushed before the time of
    /// the last popped event (the engine clamps all posts to `now`).
    pub fn push(&mut self, at: Time, v: V) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(at, seq, v);
    }

    /// Re-insert an event removed by [`BucketQueue::pop_entry`] under its
    /// original key, restoring it to exactly its former position. The model
    /// checker pops every event tied at the head time to expose the choice,
    /// then returns the unchosen ones; `at` must equal the just-popped head
    /// time (the monotonicity guard allows re-insertion *at* the last popped
    /// time, not before it).
    pub fn unpop(&mut self, at: Time, seq: u64, v: V) {
        self.len += 1;
        self.place(at, seq, v);
    }

    // `#[inline]`: out of line, `v` arrives by pointer and is reloaded as
    // one 16-byte load just after the caller stored it field by field — a
    // store-to-load forwarding stall on every resume scheduled. Whether
    // LLVM inlined it unasked depended on what else shared the codegen
    // unit, so an unrelated change could turn the stall on.
    #[inline]
    fn place(&mut self, at: Time, seq: u64, v: V) {
        let b = at >> BUCKET_SHIFT;
        debug_assert!(
            at >= self.last_pop,
            "event pushed into the past: t={at} < last popped {}",
            self.last_pop
        );
        if b < self.cursor {
            // The bucket was already opened (or passed over while peeking
            // ahead): the sorted front segment `active` is the only place
            // left for it. Everything in the ring or far heap is at bucket
            // `cursor` or later, so a binary insert keeps global order.
            let key = (at, seq);
            let pos = self.active.partition_point(|e| (e.0, e.1) > key);
            self.active.insert(pos, (at, seq, v));
        } else if b < self.cursor + NUM_BUCKETS as u64 {
            self.bucket(b).push((at, seq, v));
            self.near_len += 1;
        } else {
            self.far.push(FarEntry { at, seq, v });
        }
    }

    /// The ring slot of absolute bucket `b`, about to take an event: made if
    /// it is not yet, marked occupied, and given a spare allocation if it
    /// has none.
    #[inline]
    fn bucket(&mut self, b: u64) -> &mut Vec<(Time, u64, V)> {
        let i = (b % NUM_BUCKETS as u64) as usize;
        if i >= self.ring.len() {
            self.ring.resize_with(i + 1, Vec::new);
        }
        self.occupied[i / 64] |= 1 << (i % 64);
        let slot = &mut self.ring[i];
        if slot.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *slot = spare;
            }
        }
        slot
    }

    /// Move far events that the advancing horizon now covers into the ring.
    fn drain_far(&mut self) {
        let horizon = self.cursor + NUM_BUCKETS as u64;
        while let Some(top) = self.far.peek() {
            if top.at >> BUCKET_SHIFT >= horizon {
                break;
            }
            let e = self.far.pop().unwrap();
            self.bucket(e.at >> BUCKET_SHIFT).push((e.at, e.seq, e.v));
            self.near_len += 1;
        }
    }

    /// Ensure the head event (if any) sits at the back of `active`.
    /// Returns false when the queue is empty.
    fn settle(&mut self) -> bool {
        if !self.active.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        loop {
            if self.near_len == 0 {
                let minb = match self.far.peek() {
                    Some(top) => top.at >> BUCKET_SHIFT,
                    None => return false, // unreachable while len > 0
                };
                // Jump the cursor straight to the earliest far event instead
                // of scanning empty buckets.
                self.cursor = self.cursor.max(minb);
            }
            self.drain_far();
            if self.near_len > 0 {
                // Open the next non-empty bucket. The far events are all
                // beyond the horizon the cursor had here, so past that
                // bucket: the next settle moves in those the jump brought
                // within it.
                self.cursor += self.to_next_occupied();
                let idx = (self.cursor % NUM_BUCKETS as u64) as usize;
                self.occupied[idx / 64] &= !(1 << (idx % 64));
                // `active` is empty here: its spent allocation goes to the
                // spares instead of being freed while the next bucket grows
                // one of its own.
                let spent =
                    std::mem::replace(&mut self.active, std::mem::take(&mut self.ring[idx]));
                if spent.capacity() > 0 {
                    self.spare.push(spent);
                }
                self.near_len -= self.active.len();
                // Unique (time, seq) keys: unstable sort is deterministic.
                self.active
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                self.cursor += 1;
                return true;
            }
        }
    }

    /// Buckets from the cursor to the next occupied ring slot, wrapping
    /// around the ring (some slot is occupied).
    fn to_next_occupied(&self) -> u64 {
        const WORDS: usize = NUM_BUCKETS / 64;
        let start = (self.cursor % NUM_BUCKETS as u64) as usize;
        let (first, bit) = (start / 64, start % 64);
        for k in 0..=WORDS {
            let w = (first + k) % WORDS;
            let mut bits = self.occupied[w];
            if k == 0 {
                bits &= u64::MAX << bit;
            } else if k == WORDS {
                bits &= (1 << bit) - 1;
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                return ((slot + NUM_BUCKETS - start) % NUM_BUCKETS) as u64;
            }
        }
        unreachable!("a queue with near events has an occupied slot")
    }

    /// Remove and return the earliest `(time, value)`, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, V)> {
        self.pop_entry().map(|(at, _, v)| (at, v))
    }

    /// [`BucketQueue::pop`] including the tie-break sequence number: stable
    /// event identity, which [`BucketQueue::unpop`] preserves.
    pub fn pop_entry(&mut self) -> Option<(Time, u64, V)> {
        if !self.settle() {
            return None;
        }
        let e = self.active.pop().expect("settled queue has a head");
        self.len -= 1;
        self.last_pop = e.0;
        Some(e)
    }

    /// Every queued event with its time, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = (Time, &V)> {
        let near = self.ring.iter().flatten();
        let far = self.far.iter().map(|e| (e.at, &e.v));
        self.active
            .iter()
            .chain(near)
            .map(|(at, _, v)| (*at, v))
            .chain(far)
    }

    /// The `(time, seq)` key of the earliest event without removing it.
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        if !self.settle() {
            return None;
        }
        self.active.last().map(|e| (e.0, e.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = BucketQueue::new();
        q.push(300, "c");
        q.push(100, "a");
        q.push(200, "b");
        assert_eq!(q.pop(), Some((100, "a")));
        assert_eq!(q.pop(), Some((200, "b")));
        assert_eq!(q.pop(), Some((300, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_push_order() {
        let mut q = BucketQueue::new();
        for i in 0..10u32 {
            q.push(500, i);
        }
        for i in 0..10u32 {
            assert_eq!(q.pop(), Some((500, i)));
        }
    }

    #[test]
    fn pop_entry_and_unpop_preserve_order() {
        let mut q = BucketQueue::new();
        q.push(100, "a0");
        q.push(100, "b0");
        q.push(200, "later");
        // Pop both events tied at t=100, then put the first one back: it
        // must come out again at its original position, before the second.
        let (at_a, seq_a, v_a) = q.pop_entry().unwrap();
        assert_eq!((at_a, v_a), (100, "a0"));
        let (at_b, seq_b, v_b) = q.pop_entry().unwrap();
        assert_eq!((at_b, v_b), (100, "b0"));
        q.unpop(at_b, seq_b, v_b);
        q.unpop(at_a, seq_a, v_a);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_key(), Some((100, seq_a)));
        assert_eq!(q.pop(), Some((100, "a0")));
        assert_eq!(q.pop(), Some((100, "b0")));
        assert_eq!(q.pop(), Some((200, "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = BucketQueue::new();
        let far = (NUM_BUCKETS as u64 + 10) << BUCKET_SHIFT;
        q.push(far, "far");
        q.push(10, "near");
        assert_eq!(q.pop(), Some((10, "near")));
        assert_eq!(q.pop(), Some((far, "far")));
    }

    #[test]
    fn interleaved_push_pop_within_one_bucket() {
        let mut q = BucketQueue::new();
        q.push(10, 0u32);
        q.push(50, 1);
        assert_eq!(q.pop(), Some((10, 0)));
        // Insert into the bucket currently being drained.
        q.push(20, 2);
        q.push(15, 3);
        assert_eq!(q.pop(), Some((15, 3)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((50, 1)));
    }

    #[test]
    fn cursor_jumps_over_long_empty_gaps() {
        let mut q = BucketQueue::new();
        q.push(5, "a");
        assert_eq!(q.pop(), Some((5, "a")));
        // Next event is millions of buckets away: pop must not scan them.
        let t = 1u64 << 40;
        q.push(t, "b");
        q.push(t + 1, "c");
        assert_eq!(q.pop(), Some((t, "b")));
        assert_eq!(q.pop(), Some((t + 1, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_events_merge_correctly_with_near_ones() {
        // A far event that becomes near as the cursor advances must
        // interleave in exact time order with ring events.
        let mut q = BucketQueue::new();
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        q.push(horizon + 500, 1u32); // far at push time
        q.push(100, 0);
        assert_eq!(q.pop(), Some((100, 0)));
        q.push(horizon + 600, 2); // near now? still beyond cursor+NB: far
        q.push(horizon + 200, 3);
        assert_eq!(q.pop(), Some((horizon + 200, 3)));
        assert_eq!(q.pop(), Some((horizon + 500, 1)));
        assert_eq!(q.pop(), Some((horizon + 600, 2)));
    }

    /// Deterministic xorshift for the differential test.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn differential_against_reference_heap() {
        // Random interleaved push/pop traffic, compared op-for-op against a
        // reference BinaryHeap with explicit (time, seq) ordering. Spans
        // bucket boundaries, the far horizon, ties, and monotone `now`
        // clamping — the exact contract the engine relies on.
        for seed in [1u64, 7, 0xDEAD_BEEF, 0x1234_5678_9ABC] {
            let mut rng = Rng(seed);
            let mut q = BucketQueue::new();
            let mut reference: BinaryHeap<FarEntry<u64>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for step in 0..20_000 {
                if !rng.next().is_multiple_of(3) || reference.is_empty() {
                    // Push at now + a skewed delta: mostly near, sometimes
                    // far beyond the horizon.
                    let delta = match rng.next() % 10 {
                        0 => 0,
                        1..=6 => rng.next() % 300_000,   // near
                        7 | 8 => rng.next() % 4_000_000, // mid
                        _ => rng.next() % 50_000_000,    // beyond horizon
                    };
                    let at = now + delta;
                    q.push(at, step);
                    reference.push(FarEntry { at, seq, v: step });
                    seq += 1;
                } else {
                    let got = q.pop();
                    let want = reference.pop().map(|e| {
                        now = e.at;
                        (e.at, e.v)
                    });
                    assert_eq!(got, want, "seed {seed} step {step}");
                }
                assert_eq!(q.len(), reference.len());
            }
            // Drain both completely.
            while let Some(want) = reference.pop() {
                assert_eq!(q.pop(), Some((want.at, want.v)), "seed {seed} drain");
            }
            assert_eq!(q.pop(), None);
        }
    }
}
