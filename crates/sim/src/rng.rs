//! Stateless deterministic randomness shared across the workspace.
//!
//! Random decisions (fabric fault rolls, mutation-site selection in the
//! checker's self-tests) must not depend on the order the simulator happens
//! to process events in, only on the decision's identity — otherwise
//! resuming, caching, or re-running a configuration could perturb the
//! schedule. So instead of a stateful generator there is a single hash:
//! every roll is `mix` over `(seed, src, dst, seq, attempt)` plus a
//! per-decision lane.
//!
//! The same mixing keys the deterministic crates' tables ([`StableMap`],
//! [`StableSet`]) and fingerprints the model checker's states
//! ([`StableHasher`], cached per component by [`Fingerprinted`]).

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic roll for one decision `lane` about one frame identity.
pub fn roll(seed: u64, lane: u64, src: u64, dst: u64, seq: u64, attempt: u64) -> u64 {
    mix64(seed ^ mix64(lane ^ mix64(src ^ mix64(dst ^ mix64(seq ^ mix64(attempt))))))
}

/// Whether a roll hits a per-million rate.
pub fn hit(r: u64, ppm: u32) -> bool {
    r % 1_000_000 < u64::from(ppm)
}

/// Fold `x` into a running SplitMix64-based fingerprint. Order-sensitive:
/// `fold64(fold64(a, x), y) != fold64(fold64(a, y), x)` in general, so
/// sequences hash by structure. Commutative combination (e.g. hashing a
/// `HashMap`'s entries independent of iteration order) is done by XORing
/// per-entry fingerprints instead.
#[inline]
pub fn fold64(acc: u64, x: u64) -> u64 {
    mix64(acc ^ mix64(x))
}

/// A stable `std::hash::Hasher`, for state fingerprints that must not depend
/// on the standard library's hasher (whose output may change between Rust
/// releases). Usable with `#[derive(Hash)]` types.
///
/// Fingerprints identify states — nothing prints or persists them — so the
/// function is built for the model checker's hot loop rather than for
/// adversaries: a scalar costs one xor-multiply-shift step,
/// a byte slice is consumed in 32-byte stripes by four independent lanes of
/// that same step so the multiplies overlap, and only [`finish`] pays for a
/// full-avalanche [`mix64`]. Every step is a bijection of the running state
/// for a fixed word and of the word for a fixed state, and so is the lane
/// fold: two inputs that differ in exactly one word (of one `write`, or one
/// scalar) can never collide.
///
/// [`finish`]: std::hash::Hasher::finish
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

/// Initial state. Non-zero, because zero is the step's one fixed point on
/// zero input (all-zero prefixes of different shapes would otherwise meet).
const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Multiplier of the scalar step and of the lane/tail/length fold.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One distinct odd multiplier per stripe lane, so equal words at the same
/// stripe offset in different lanes evolve differently.
const LANE_K: [u64; 4] = [
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
    0xFF51_AFD7_ED55_8CCD,
];

/// Bytes consumed per round of the four lanes.
const STRIPE: usize = 32;

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        StableHasher(SEED)
    }

    /// Hash one `Hash` value to a stable fingerprint.
    pub fn fingerprint<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
        use std::hash::Hasher;
        let mut h = StableHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Absorb one word: xor, multiply by an odd constant, fold the high half
    /// down (the multiply only carries upwards). Three dependent operations.
    #[inline(always)]
    fn step(acc: u64, word: u64, k: u64) -> u64 {
        let x = (acc ^ word).wrapping_mul(k);
        x ^ (x >> 32)
    }
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

impl std::hash::Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut stripes = bytes.chunks_exact(STRIPE);
        if stripes.len() > 0 {
            let mut lanes = LANE_K.map(|k| h ^ k.rotate_left(32));
            for s in stripes.by_ref() {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = Self::step(*lane, le_word(&s[i * 8..i * 8 + 8]), LANE_K[i]);
                }
            }
            for lane in lanes {
                h = Self::step(h, lane, K);
            }
        }
        // The < 32-byte tail, whole words first, then a zero-padded one.
        let mut words = stripes.remainder().chunks_exact(8);
        for w in words.by_ref() {
            h = Self::step(h, le_word(w), K);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            h = Self::step(h, u64::from_le_bytes(word), K);
        }
        // Fold the length so "ab"+"c" and "a"+"bc" differ, and so does
        // zero padding from zero data.
        self.0 = Self::step(h, bytes.len() as u64, K);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = Self::step(self.0, i, K);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
}

/// Hash map keyed through [`StableHasher`]: the one spelling of a keyed table
/// in the deterministic crates (`tools/lint_determinism.sh` rule 2). The
/// hasher has no per-process key, so such a map iterates in one order on
/// every host and run, and a small-integer or tuple key costs a few
/// multiplies instead of a SipHash.
pub type StableMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<StableHasher>>;

/// Hash set keyed through [`StableHasher`]; see [`StableMap`].
pub type StableSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<StableHasher>>;

/// A value that keeps its fingerprint until its next mutable borrow.
///
/// The model checker fingerprints a world at every fresh commit point, and
/// between two calls an event changes one or two of its components. So each
/// component sits in one of these: [`Deref`] hands out `&T`, [`DerefMut`]
/// forgets the cached fingerprint before it hands out `&mut T`, and
/// [`Fingerprinted::fingerprint_with`] recomputes only what was forgotten.
/// No change can bypass the cache except through interior mutability, which
/// the state this wraps does not use (`tools/lint_determinism.sh`, rule 8);
/// every debug-build call recomputes the value from scratch and asserts that
/// it matches the cached one.
///
/// [`Deref`]: std::ops::Deref
/// [`DerefMut`]: std::ops::DerefMut
#[derive(Default)]
pub struct Fingerprinted<T> {
    value: T,
    fp: std::cell::Cell<Option<u64>>,
}

impl<T> Fingerprinted<T> {
    /// Wrap `value`, with nothing cached.
    pub fn new(value: T) -> Self {
        Fingerprinted {
            value,
            fp: std::cell::Cell::new(None),
        }
    }

    /// The value's fingerprint: the cached one, or `f(value)`, which is
    /// then cached. A wrapper is fingerprinted by one function throughout.
    #[inline]
    pub fn fingerprint_with(&self, f: impl Fn(&T) -> u64) -> u64 {
        let fp = self.fp.get().unwrap_or_else(|| {
            let fp = f(&self.value);
            self.fp.set(Some(fp));
            fp
        });
        debug_assert_eq!(
            fp,
            f(&self.value),
            "a fingerprinted value changed without a mutable borrow"
        );
        fp
    }
}

impl<T> std::ops::Deref for Fingerprinted<T> {
    type Target = T;

    #[inline(always)]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for Fingerprinted<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        self.fp.set(None);
        &mut self.value
    }
}

/// One word: the value's [`StableHasher`] fingerprint, cached.
impl<T: std::hash::Hash> std::hash::Hash for Fingerprinted<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint_with(StableHasher::fingerprint));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_lane_independent() {
        let a = roll(1, 0, 2, 3, 4, 0);
        assert_eq!(a, roll(1, 0, 2, 3, 4, 0));
        assert_ne!(a, roll(1, 1, 2, 3, 4, 0)); // lane changes the roll
        assert_ne!(a, roll(2, 0, 2, 3, 4, 0)); // seed changes the roll
        assert_ne!(a, roll(1, 0, 2, 3, 4, 1)); // retransmits re-roll
    }

    #[test]
    fn hit_rates_are_approximately_calibrated() {
        // 100k distinct frame identities at 10% should hit within ±10%.
        let mut hits = 0u32;
        for seq in 0..100_000u64 {
            if hit(roll(99, 0, 1, 2, seq, 0), 100_000) {
                hits += 1;
            }
        }
        assert!((9_000..=11_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn fold_is_order_sensitive_and_stable() {
        let a = fold64(fold64(0, 1), 2);
        assert_eq!(a, fold64(fold64(0, 1), 2));
        assert_ne!(a, fold64(fold64(0, 2), 1));
    }

    #[test]
    fn stable_hasher_distinguishes_structure() {
        let ab_c = StableHasher::fingerprint(&("ab", "c"));
        let a_bc = StableHasher::fingerprint(&("a", "bc"));
        assert_ne!(ab_c, a_bc);
        assert_eq!(
            StableHasher::fingerprint(&vec![1u64, 2, 3]),
            StableHasher::fingerprint(&vec![1u64, 2, 3])
        );
        assert_ne!(
            StableHasher::fingerprint(&vec![1u64, 2, 3]),
            StableHasher::fingerprint(&vec![1u64, 3, 2])
        );
    }

    /// Fixed-seed filler: a SplitMix64 stream.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        (0..len.div_ceil(8) as u64)
            .flat_map(|i| mix64(seed.wrapping_add(i)).to_le_bytes())
            .take(len)
            .collect()
    }

    fn fp(bytes: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut h = StableHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// Sort and compare neighbours: the first fingerprint that occurs twice.
    fn first_duplicate(mut fps: Vec<u64>) -> Option<u64> {
        fps.sort_unstable();
        fps.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }

    #[test]
    fn every_single_bit_flip_of_a_block_is_a_distinct_fingerprint() {
        let mut buf = random_bytes(0x5EED, 4096);
        let original = fp(&buf);
        let mut flips = Vec::with_capacity(32_768);
        for bit in 0..4096 * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            flips.push(fp(&buf));
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(fp(&buf), original);
        assert_eq!(flips.len(), 32_768);
        assert!(!flips.contains(&original), "a flip went unnoticed");
        assert_eq!(first_duplicate(flips), None, "two flips collide");
    }

    #[test]
    fn swapping_unequal_words_changes_the_fingerprint() {
        // Word i sits in lane i % 4 of stripe i / 4: the pairs below cover
        // same-lane, cross-lane, same-stripe, stripe-to-tail and
        // tail-to-tail swaps. The buffer is 16 stripes plus a 3-word tail.
        let buf = random_bytes(0xFACE, (16 * 4 + 3) * 8);
        let words = buf.len() / 8;
        let original = fp(&buf);
        for i in 0..words {
            for j in i + 1..words {
                let mut swapped = buf.clone();
                for k in 0..8 {
                    swapped.swap(i * 8 + k, j * 8 + k);
                }
                assert_ne!(swapped, buf, "random words are unequal");
                assert_ne!(fp(&swapped), original, "swap of words {i} and {j}");
            }
        }
        // Mostly-zero data, the DSM's usual contents: moving the one
        // non-zero word anywhere else is seen too.
        let mut sparse = vec![0u8; 4096];
        let mut moved = Vec::with_capacity(512);
        for i in 0..512 {
            sparse[i * 8] = 1;
            moved.push(fp(&sparse));
            sparse[i * 8] = 0;
        }
        assert_eq!(first_duplicate(moved), None);
    }

    #[test]
    fn zero_buffers_of_different_lengths_are_distinct() {
        let lens = (0..=40).chain([4095, 4096, 4097]);
        let fps: Vec<(usize, u64)> = lens.map(|n| (n, fp(&vec![0u8; n]))).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a.1, b.1, "zero buffers of {} and {} bytes", a.0, b.0);
            }
        }
    }

    #[test]
    fn a_million_structured_states_do_not_collide() {
        // The shape of a model-checker state: a small tag and a short
        // vector of small counters, enumerated densely.
        let mut fps = Vec::with_capacity(1_000_000);
        for tag in 0..10u64 {
            for a in 0..10u64 {
                for b in 0..100u64 {
                    for c in 0..100u64 {
                        fps.push(StableHasher::fingerprint(&(tag, vec![a, b, c, a ^ c])));
                    }
                }
            }
        }
        assert_eq!(fps.len(), 1_000_000);
        assert_eq!(first_duplicate(fps), None);
    }

    /// The function is part of no interface, but nothing should change it
    /// by accident: fingerprints of one exploration are compared across the
    /// engine, the fabric, the checker and the driver. Pinned through
    /// direct `Hasher` calls only — how `derive(Hash)` feeds a hasher
    /// (length prefixes, `str` terminators) is the standard library's
    /// business.
    #[test]
    fn pinned_fingerprints() {
        use std::hash::Hasher;
        assert_eq!(fp(b""), 0x7D2C_6638_F312_2BC3);
        assert_eq!(fp(b"dsm"), 0x46CE_169C_60B5_4C0C);
        assert_eq!(fp(&random_bytes(1, 4096)), 0xE325_9B08_5AD6_1454);
        let mut h = StableHasher::new();
        h.write_u64(7);
        h.write_u32(3);
        h.write_u8(5);
        h.write_usize(9);
        h.write(b"ab");
        assert_eq!(h.finish(), 0xDC6E_AC09_2508_6C92);
    }

    /// Calls `f` makes beyond the ones that fill the cache: a debug build
    /// recomputes the value on every `fingerprint_with`, as its cross-check.
    const CHECKS: u32 = if cfg!(debug_assertions) { 1 } else { 0 };

    #[test]
    fn a_fingerprint_is_computed_once_across_shared_borrows() {
        use std::cell::Cell;
        use std::hash::Hasher;
        let calls = Cell::new(0);
        let f = |v: &Vec<u64>| {
            calls.set(calls.get() + 1);
            StableHasher::fingerprint(v)
        };
        let v = Fingerprinted::new(vec![1u64, 2, 3]);
        let first = v.fingerprint_with(f);
        assert_eq!(first, StableHasher::fingerprint(&vec![1u64, 2, 3]));
        for _ in 0..3 {
            assert_eq!(v.len(), 3, "a shared borrow");
            assert_eq!(v.fingerprint_with(f), first);
        }
        assert_eq!(calls.get(), 1 + 4 * CHECKS);
        // As a `Hash`, the wrapper is that one word.
        let mut h = StableHasher::new();
        h.write_u64(first);
        assert_eq!(StableHasher::fingerprint(&v), h.finish());
    }

    #[test]
    fn a_mutable_borrow_that_changes_nothing_recomputes_the_same_value() {
        use std::cell::Cell;
        let calls = Cell::new(0);
        let f = |v: &Vec<u64>| {
            calls.set(calls.get() + 1);
            StableHasher::fingerprint(v)
        };
        let mut v = Fingerprinted::new(vec![7u64; 5]);
        let first = v.fingerprint_with(f);
        let unchanged: &mut Vec<u64> = &mut v;
        assert_eq!(unchanged.len(), 5);
        assert_eq!(v.fingerprint_with(f), first);
        assert_eq!(calls.get(), 2 + 2 * CHECKS, "one recomputation");
        v[2] = 8;
        assert_ne!(v.fingerprint_with(f), first);
        assert_eq!(calls.get(), 3 + 3 * CHECKS);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "without a mutable borrow")]
    fn a_change_behind_a_shared_borrow_trips_the_cross_check() {
        let v = Fingerprinted::new(std::cell::Cell::new(1u64));
        v.fingerprint_with(|c| c.get());
        v.set(2);
        v.fingerprint_with(|c| c.get());
    }

    #[test]
    fn zero_rate_never_hits_and_full_rate_always_hits() {
        for seq in 0..1_000u64 {
            let r = roll(5, 2, 0, 1, seq, 0);
            assert!(!hit(r, 0));
            assert!(hit(r, 1_000_000));
        }
    }
}
