//! Partitioned key-value store with Zipfian access skew and hot-key
//! migration — the first of the "modern workload" families beside the
//! twelve SPLASH-2 kernels.
//!
//! The store keeps `keys` 8-byte values in shared memory, striped over a
//! small lock table. A global operation stream of `ops` operations is
//! derived purely from the seed: operation `i` targets key `zipf(i)` and is
//! a read with probability `read_pct`, otherwise a lock-protected
//! commutative update (`value += delta(i)`, `count += 1`). Each node
//! executes exactly the operations whose key it *owns*, so the multiset of
//! applied updates — and therefore the final image — is independent of the
//! cluster size, which is what lets the default bit-identical verification
//! against the sequential run hold. Being pure, the stream is built once
//! per program, at its first run, and every node's run and the sequential
//! baseline index that one copy instead of re-deriving every operation.
//!
//! Ownership starts as a static hash partition and then *migrates*: the
//! stream is split into `epochs` separated by barriers, and at each
//! boundary every node reads the shared per-key access counts and
//! recomputes the same assignment — the hottest keys are re-spread
//! round-robin over the cluster by hot-rank, modeling a store that rebalances
//! its hottest shards. Migration changes who touches what (the sharing
//! pattern the protocols see), never what is computed.

use std::fmt;
use std::sync::{Arc, OnceLock};

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::XorShift;
use crate::zipf::Zipf;

/// Number of stripe locks guarding the value/count tables.
const STRIPES: usize = 64;

/// How many keys an epoch boundary re-homes (the "hot set").
const HOT_KEYS: usize = 16;

/// One operation of the global stream: key, is-read, update delta.
type Op = (u32, bool, u64);

/// Partitioned Zipfian key-value store program.
///
/// The shape is fixed at construction (the fields are private) because the
/// op stream is derived from it once, at the first run, and shared by every
/// node's run, the sequential baseline and every clone made after that.
#[derive(Clone)]
pub struct KvZipf {
    /// Seed for the operation stream and initial values.
    seed: u64,
    /// Number of keys.
    keys: usize,
    /// Total operations in the global stream (split over epochs).
    ops: usize,
    /// Epochs (hot-key migration happens at each boundary).
    epochs: usize,
    /// Zipfian exponent × 100 (kept integral so specs round-trip exactly;
    /// 99 = the YCSB-style 0.99 default).
    theta_x100: u32,
    /// Percentage of operations that are reads.
    read_pct: u32,
    /// `op(i)` for every `i`, built on first use.
    stream: OnceLock<Arc<[Op]>>,
}

impl fmt::Debug for KvZipf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvZipf")
            .field("seed", &self.seed)
            .field("keys", &self.keys)
            .field("ops", &self.ops)
            .field("epochs", &self.epochs)
            .field("theta_x100", &self.theta_x100)
            .field("read_pct", &self.read_pct)
            .finish_non_exhaustive()
    }
}

impl KvZipf {
    /// A store with the given shape: `keys` 8-byte values, a stream of `ops`
    /// operations split over `epochs`, Zipfian exponent `theta_x100` / 100,
    /// and `read_pct` percent reads. Panics where [`KvZipf::try_new`] errs.
    pub fn new(
        seed: u64,
        keys: usize,
        ops: usize,
        epochs: usize,
        theta_x100: u32,
        read_pct: u32,
    ) -> Self {
        Self::try_new(seed, keys, ops, epochs, theta_x100, read_pct)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`KvZipf::new`], or the first parameter outside its range, named.
    pub fn try_new(
        seed: u64,
        keys: usize,
        ops: usize,
        epochs: usize,
        theta_x100: u32,
        read_pct: u32,
    ) -> Result<Self, String> {
        if keys < HOT_KEYS || u32::try_from(keys).is_err() {
            return Err(format!(
                "keys = {keys}: must be at least {HOT_KEYS} (the hot set) and fit in u32"
            ));
        }
        if epochs == 0 {
            return Err("epochs = 0: must be at least 1".to_string());
        }
        if ops < epochs {
            return Err(format!(
                "ops = {ops}: must be at least epochs = {epochs} (one op per epoch)"
            ));
        }
        if read_pct > 100 {
            return Err(format!(
                "read_pct = {read_pct}: a percentage is at most 100"
            ));
        }
        Ok(KvZipf {
            seed,
            keys,
            ops,
            epochs,
            theta_x100,
            read_pct,
            stream: OnceLock::new(),
        })
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.keys
    }

    fn value_addr(&self, k: usize) -> usize {
        k * 8
    }

    /// Start of the count table. The value table is padded out to a page
    /// boundary so the two region hints survive mixed-mode carving (region
    /// starts are aligned down to the coarsest granularity, 4096).
    pub fn counts_base(&self) -> usize {
        (self.keys * 8).div_ceil(4096) * 4096
    }

    fn count_addr(&self, k: usize) -> usize {
        self.counts_base() + k * 8
    }

    /// The key, kind, and update delta of global operation `i` (pure in
    /// (seed, i): every node derives the identical stream).
    fn op(&self, zipf: &Zipf, i: usize) -> (usize, bool, u64) {
        let mut rng = XorShift::new(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let key = zipf.sample(&mut rng);
        let is_read = rng.below(100) < self.read_pct as usize;
        (key, is_read, rng.next_u64() >> 16)
    }

    /// The whole stream, `op(i)` at index `i`, built by the first caller.
    fn stream(&self) -> &[Op] {
        self.stream.get_or_init(|| {
            let zipf = Zipf::new(self.keys, self.theta_x100 as f64 / 100.0);
            (0..self.ops)
                .map(|i| {
                    let (key, is_read, delta) = self.op(&zipf, i);
                    (key as u32, is_read, delta)
                })
                .collect()
        })
    }

    /// Static hash partition used for epoch 0 and for every cold key.
    fn base_owner(&self, k: usize, p: usize) -> usize {
        (k * 0x9E37 + 7) % p
    }

    /// Ownership for `epoch`, given the per-key access counts visible at
    /// its opening barrier: the `HOT_KEYS` hottest keys (by count, ties
    /// broken by key id for determinism) are dealt round-robin over the
    /// cluster by hot-rank; everything else stays hash-partitioned.
    fn assign(&self, counts: &[u64], p: usize, epoch: usize) -> Vec<usize> {
        let mut owner: Vec<usize> = (0..self.keys).map(|k| self.base_owner(k, p)).collect();
        if epoch == 0 {
            return owner;
        }
        // Keys are unique, so the order is total and the hot set is exactly
        // a full sort's first `HOT_KEYS`, in the same order.
        let hotter = |&k: &usize| (std::cmp::Reverse(counts[k]), k);
        let mut ranked: Vec<usize> = (0..self.keys).collect();
        ranked.select_nth_unstable_by_key(HOT_KEYS - 1, hotter);
        let hot = &mut ranked[..HOT_KEYS];
        hot.sort_unstable_by_key(hotter);
        for (rank, &k) in hot.iter().enumerate() {
            // Offset by the epoch so hot shards keep moving between nodes
            // run to run, not merely away from their hash home once.
            owner[k] = (rank + epoch) % p;
        }
        owner
    }
}

impl DsmProgram for KvZipf {
    fn name(&self) -> String {
        "kv-zipf".into()
    }

    fn shared_bytes(&self) -> usize {
        // values (page-padded) | counts
        self.counts_base() + self.keys * 8
    }

    fn regions(&self) -> Vec<RegionHint> {
        vec![
            RegionHint::new("values", 0, self.counts_base()),
            RegionHint::new("counts", self.counts_base(), self.keys * 8),
        ]
    }

    fn init(&self, mem: &mut MemImage) {
        let mut rng = XorShift::new(self.seed);
        for k in 0..self.keys {
            mem.write_u64(self.value_addr(k), rng.next_u64() >> 8);
            mem.write_u64(self.count_addr(k), 0);
        }
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            // Touch the keys this node initially owns (value + count words), so
            // first-touch homing matches the epoch-0 partition.
            let (me, p) = (d.node(), d.num_nodes());
            for k in 0..self.keys {
                if self.base_owner(k, p) == me {
                    touch_region(d, self.value_addr(k), 8).await;
                    touch_region(d, self.count_addr(k), 8).await;
                }
            }
        })
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let stream = self.stream();
            let per_epoch = self.ops / self.epochs;
            let mut counts_snapshot = vec![0u64; self.keys];
            let mut owner = self.assign(&counts_snapshot, p, 0);
            for epoch in 0..self.epochs {
                let lo = epoch * per_epoch;
                let hi = if epoch + 1 == self.epochs {
                    self.ops
                } else {
                    lo + per_epoch
                };
                for &(k, is_read, delta) in &stream[lo..hi] {
                    let k = k as usize;
                    if owner[k] != me {
                        continue;
                    }
                    // A read still takes the stripe latch: concurrent naked
                    // reads of a value under mutation would be data races the
                    // checker rightly reports.
                    d.lock(k % STRIPES).await;
                    if is_read {
                        let _ = d.read_u64(self.value_addr(k)).await;
                    } else {
                        let v = d.read_u64(self.value_addr(k)).await;
                        d.write_u64(self.value_addr(k), v.wrapping_add(delta)).await;
                        let c = d.read_u64(self.count_addr(k)).await;
                        d.write_u64(self.count_addr(k), c + 1).await;
                    }
                    d.unlock(k % STRIPES).await;
                    d.compute(250).await;
                }
                // Epoch boundary: settle all updates, snapshot the heat map,
                // and migrate the hot set. The second barrier keeps next-epoch
                // updates from racing the snapshot reads.
                d.barrier(0).await;
                if epoch + 1 < self.epochs {
                    for (k, slot) in counts_snapshot.iter_mut().enumerate() {
                        *slot = d.read_u64(self.count_addr(k)).await;
                    }
                    owner = self.assign(&counts_snapshot, p, epoch + 1);
                    d.compute((self.keys as u64) * 20).await;
                    d.barrier(0).await;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_node_invariant() {
        let kv = KvZipf::new(11, 128, 1000, 4, 99, 70);
        let z = Zipf::new(kv.keys, 0.99);
        for i in [0usize, 1, 17, 999] {
            assert_eq!(kv.op(&z, i), kv.op(&z, i), "op {i} must be pure");
        }
    }

    #[test]
    fn the_stream_is_op_of_every_index_and_clones_share_it() {
        let kv = KvZipf::new(1, 256, 4_000, 4, 99, 70);
        let z = Zipf::new(kv.keys, 0.99);
        let stream = kv.stream();
        assert_eq!(stream.len(), kv.ops);
        for (i, &(key, is_read, delta)) in stream.iter().enumerate() {
            assert_eq!((key as usize, is_read, delta), kv.op(&z, i), "op {i}");
        }
        let copy = kv.clone();
        assert!(
            std::ptr::eq(copy.stream(), stream),
            "a clone rebuilt the stream"
        );
        let shown = format!("{kv:?}");
        assert!(shown.len() < 120 && !shown.contains("stream"), "{shown}");
    }

    #[test]
    fn the_hot_set_is_a_full_sorts_prefix() {
        // The ranking before the partial select: a full sort of every key.
        let full_sort = |kv: &KvZipf, counts: &[u64], p: usize, epoch: usize| {
            let mut owner: Vec<usize> = (0..kv.keys).map(|k| kv.base_owner(k, p)).collect();
            let mut ranked: Vec<usize> = (0..kv.keys).collect();
            ranked.sort_by_key(|&k| (std::cmp::Reverse(counts[k]), k));
            for (rank, &k) in ranked.iter().take(HOT_KEYS).enumerate() {
                owner[k] = (rank + epoch) % p;
            }
            owner
        };
        let mut rng = XorShift::new(29);
        for case in 0..200 {
            let keys = HOT_KEYS + rng.below(300);
            let kv = KvZipf::new(3, keys, 640, 2, 99, 50);
            // Narrow count ranges make ties common; case 0 is all equal.
            let spread = [1, 2, 5, 1000][case % 4];
            let counts: Vec<u64> = (0..keys)
                .map(|_| {
                    if case == 0 {
                        7
                    } else {
                        rng.below(spread) as u64
                    }
                })
                .collect();
            let (p, epoch) = (1 + rng.below(16), 1 + rng.below(5));
            assert_eq!(
                kv.assign(&counts, p, epoch),
                full_sort(&kv, &counts, p, epoch),
                "case {case}"
            );
        }
    }

    #[test]
    fn migration_moves_hot_keys() {
        let kv = KvZipf::new(3, 64, 640, 2, 120, 50);
        let mut counts = vec![0u64; 64];
        counts[5] = 1000;
        counts[9] = 900;
        let before = kv.assign(&vec![0; 64], 4, 0);
        let after = kv.assign(&counts, 4, 1);
        // The two hottest keys land on (hot-rank + epoch) % nodes:
        // rank 0 + epoch 1 and rank 1 + epoch 1.
        assert_eq!(after[5], 1);
        assert_eq!(after[9], 2);
        // Cold keys keep their hash homes.
        let moved: Vec<usize> = (0..64).filter(|&k| before[k] != after[k]).collect();
        assert!(moved.len() <= HOT_KEYS, "{moved:?}");
    }

    #[test]
    fn assignment_is_deterministic_under_ties() {
        let kv = KvZipf::new(3, 64, 640, 2, 99, 50);
        let counts = vec![7u64; 64];
        assert_eq!(kv.assign(&counts, 5, 2), kv.assign(&counts, 5, 2));
    }
}
