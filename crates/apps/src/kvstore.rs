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
//! against the sequential run hold.
//!
//! Ownership starts as a static hash partition and then *migrates*: the
//! stream is split into `epochs` separated by barriers, and at each
//! boundary every node reads the shared per-key access counts and
//! recomputes the same assignment — the hottest keys are re-spread
//! round-robin over the cluster by hot-rank, modeling a store that rebalances
//! its hottest shards. Migration changes who touches what (the sharing
//! pattern the protocols see), never what is computed.

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::XorShift;
use crate::zipf::Zipf;

/// Number of stripe locks guarding the value/count tables.
const STRIPES: usize = 64;

/// How many keys an epoch boundary re-homes (the "hot set").
const HOT_KEYS: usize = 16;

/// Partitioned Zipfian key-value store program.
#[derive(Debug, Clone)]
pub struct KvZipf {
    /// Seed for the operation stream and initial values.
    pub seed: u64,
    /// Number of keys.
    pub keys: usize,
    /// Total operations in the global stream (split over epochs).
    pub ops: usize,
    /// Epochs (hot-key migration happens at each boundary).
    pub epochs: usize,
    /// Zipfian exponent × 100 (kept integral so specs round-trip exactly;
    /// 99 = the YCSB-style 0.99 default).
    pub theta_x100: u32,
    /// Percentage of operations that are reads.
    pub read_pct: u32,
}

impl KvZipf {
    /// A store with the given shape (see field docs).
    pub fn new(
        seed: u64,
        keys: usize,
        ops: usize,
        epochs: usize,
        theta_x100: u32,
        read_pct: u32,
    ) -> Self {
        assert!(keys >= HOT_KEYS, "need at least {HOT_KEYS} keys");
        assert!(epochs >= 1 && ops >= epochs, "need >= 1 op per epoch");
        assert!(read_pct <= 100);
        KvZipf {
            seed,
            keys,
            ops,
            epochs,
            theta_x100,
            read_pct,
        }
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
        let mut ranked: Vec<usize> = (0..self.keys).collect();
        ranked.sort_by_key(|&k| (std::cmp::Reverse(counts[k]), k));
        for (rank, &k) in ranked.iter().take(HOT_KEYS).enumerate() {
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
            let zipf = Zipf::new(self.keys, self.theta_x100 as f64 / 100.0);
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
                for i in lo..hi {
                    let (k, is_read, delta) = self.op(&zipf, i);
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
