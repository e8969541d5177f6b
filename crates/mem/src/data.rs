//! Per-node data copies of the shared space.
//!
//! Every node caches the shared space in local memory (the SVM analogue of
//! mapping shared pages to local physical frames). The protocol layer moves
//! block contents between copies; applications read and write through their
//! node's copy only after the access-control check passes, so a protocol bug
//! that fails to move data surfaces as a wrong application result.
//!
//! The run's initial image is held once. Homes are assigned by first touch,
//! so a node needs initial contents only for the blocks it claims or
//! serves: a node's copy of a block is *absent* until the node is first
//! granted access to it ([`DataStore::ensure`]) or receives it
//! ([`DataStore::copy_block`]), and an absent block *reads as* the image
//! ([`DataStore::block`]). Nothing is copied, and no page of a copy is
//! touched, for a block its node never uses.
//!
//! The model checker fingerprints the store fifteen to twenty-four times an
//! execution, and an execution writes one or two blocks. So the store's
//! [`Hash`] keeps a fingerprint per (node, block) of the block's logical
//! bytes and re-hashes only the blocks changed since the last call: bytes
//! change through [`DataStore::node_mut`] and [`DataStore::copy_block`]
//! alone, and both say which block.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};

use dsm_sim::rng::{fold64, StableHasher};

use crate::layout::{BlockId, Layout};

/// What [`DataStore`]'s `Hash` remembers between calls.
#[derive(Debug, Clone)]
struct FpCache {
    /// The store's fingerprint as of the last call: the fingerprint of the
    /// layout and node count XOR every entry of `part`.
    sum: u64,
    /// Per (node, block), node-major: what the block's logical bytes
    /// contributed to `sum` when last hashed.
    part: Vec<u64>,
    /// One bit per (node, block), laid out as [`DataStore::present`]: the
    /// block changed since its `part` was taken.
    stale: Vec<u64>,
}

/// All nodes' local copies of the shared address space.
///
/// A clone keeps the fingerprint cache — it describes the clone's bytes as
/// well as the original's. The cache sits behind a `RefCell` (`Hash` takes
/// `&self`), so a store is not `Sync`; a world belongs to one thread.
#[derive(Debug, Clone)]
pub struct DataStore {
    layout: Layout,
    /// Node-major flat storage: node `n`'s copy is
    /// `bytes[n*size .. (n+1)*size]`.
    bytes: Vec<u8>,
    n_nodes: usize,
    /// The initial image every absent block reads as; empty until one is
    /// loaded, and then nothing is absent.
    image: Vec<u8>,
    /// One bit per (node, block): set when the node's copy holds the
    /// block's bytes. Node `n`'s row is `present[n*row .. (n+1)*row]`, with
    /// the row's unused high bits set.
    present: Vec<u64>,
    /// Words per node in `present`.
    row: usize,
    /// Born at the first `hash`: a store nobody fingerprints — every cell
    /// outside the model checker — holds none and marks nothing.
    fp: RefCell<Option<FpCache>>,
}

impl DataStore {
    /// Zero-filled copies for `n_nodes` nodes, every block present.
    pub fn new(n_nodes: usize, layout: Layout) -> Self {
        let row = layout.num_blocks().div_ceil(64);
        DataStore {
            bytes: vec![0u8; n_nodes * layout.size()],
            n_nodes,
            image: Vec::new(),
            present: vec![u64::MAX; n_nodes * row],
            row,
            fp: RefCell::new(None),
            layout,
        }
    }

    /// The layout this store was built with.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Make `image` the initial contents of every node's copy (run setup,
    /// before any copy is written). No byte moves here: every block of
    /// every node becomes absent and reads as the image until its node
    /// first needs it. An image of zeros is what the copies already hold,
    /// so nothing becomes absent (and a fingerprint of the store never has
    /// to patch a copy: the model checker's programs mostly start so).
    pub fn load_image(&mut self, image: Vec<u8>) {
        assert_eq!(image.len(), self.layout.size());
        if is_zero(&image) {
            return;
        }
        let nb = self.layout.num_blocks();
        for node in self.present.chunks_exact_mut(self.row) {
            node.fill(0);
            if !nb.is_multiple_of(64) {
                node[nb / 64] = u64::MAX << (nb % 64);
            }
        }
        self.image = image;
        // Every block reads differently now.
        *self.fp.get_mut() = None;
    }

    /// Whether `node`'s copy holds block `b`'s bytes.
    #[inline]
    pub fn is_present(&self, node: usize, b: BlockId) -> bool {
        self.present[node * self.row + b / 64] >> (b % 64) & 1 == 1
    }

    #[inline]
    fn mark_present(&mut self, node: usize, b: BlockId) {
        self.present[node * self.row + b / 64] |= 1 << (b % 64);
    }

    /// Note that `node`'s logical bytes of block `b` are about to change.
    #[inline]
    fn mark_stale(&mut self, node: usize, b: BlockId) {
        if let Some(c) = self.fp.get_mut() {
            c.stale[node * self.row + b / 64] |= 1 << (b % 64);
        }
    }

    /// Byte range of block `b` inside [`DataStore::bytes`] for `node`.
    #[inline]
    fn span(&self, node: usize, b: BlockId) -> std::ops::Range<usize> {
        let r = self.layout.block_range(b);
        let base = node * self.layout.size();
        base + r.start..base + r.end
    }

    /// Make block `b` present in `node`'s copy, from the image if it is not
    /// yet (what the node reads does not change, so nothing goes stale).
    /// Called wherever `node` is about to use its own bytes of `b` without
    /// having received them: when it is granted access, and when it applies
    /// a diff as a home that never touched the block.
    #[inline]
    pub fn ensure(&mut self, node: usize, b: BlockId) {
        if !self.is_present(node, b) {
            self.fill(node, b);
        }
    }

    /// Copy the image's block `b` into `node`'s copy.
    fn fill(&mut self, node: usize, b: BlockId) {
        let span = self.span(node, b);
        self.bytes[span].copy_from_slice(&self.image[self.layout.block_range(b)]);
        self.mark_present(node, b);
    }

    /// Block `b` as `node` holds it: its copy's bytes, or the image's while
    /// the block is absent.
    #[inline]
    pub fn block(&self, node: usize, b: BlockId) -> &[u8] {
        if self.is_present(node, b) {
            &self.bytes[self.span(node, b)]
        } else {
            &self.image[self.layout.block_range(b)]
        }
    }

    /// Immutable view of one node's copy. Absent blocks hold zeros here;
    /// [`DataStore::block`] is the view that reads them as the image.
    #[inline]
    pub fn node(&self, node: usize) -> &[u8] {
        let s = self.layout.size();
        &self.bytes[node * s..(node + 1) * s]
    }

    /// Mutable view of `node`'s copy, for changing bytes of block `b` —
    /// which must be present, and whose cached fingerprint goes stale. The
    /// only mutable view, and it cannot be had without naming the block
    /// about to change. It is the whole copy, indexed by address like
    /// [`DataStore::node`]: the store path is a check, a mark and a word
    /// copy, and looking the block's range up there doubles it. A write
    /// that strays outside `b` fails the next fingerprint of any debug run
    /// (`Hash` re-derives the cached value there).
    #[inline]
    pub fn node_mut(&mut self, node: usize, b: BlockId) -> &mut [u8] {
        debug_assert!(self.is_present(node, b), "node {node} lacks block {b}");
        self.mark_stale(node, b);
        let s = self.layout.size();
        &mut self.bytes[node * s..(node + 1) * s]
    }

    /// Copy block `b` as `src` holds it into `dst` node's copy, where it
    /// becomes present. An absent source — an interim home serving a block
    /// it never touched — delivers the image and stays absent.
    pub fn copy_block(&mut self, b: BlockId, src: usize, dst: usize) {
        if src == dst {
            return;
        }
        self.mark_stale(dst, b);
        if self.is_present(src, b) {
            let (from, to) = (self.span(src, b), self.span(dst, b).start);
            self.bytes.copy_within(from, to);
            self.mark_present(dst, b);
        } else {
            self.fill(dst, b);
        }
    }
}

/// Whether every byte is zero: an OR of 16-byte words over each 256-byte
/// chunk, with an early exit between chunks. A test byte by byte with an
/// early exit took 2–4 µs for a 4 KiB image (the compiler cannot vectorise
/// it); this takes about 0.13 µs.
fn is_zero(bytes: &[u8]) -> bool {
    bytes.chunks(256).all(|chunk| {
        let mut words = chunk.chunks_exact(16);
        let or = words.by_ref().fold(0, |acc, w| {
            acc | u128::from_ne_bytes(w.try_into().expect("a 16-byte word"))
        });
        or == 0 && words.remainder().iter().all(|&x| x == 0)
    })
}

/// The hash of a block's logical bytes, before its salt.
fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

impl DataStore {
    /// The salt of `node`'s block `b`: the pair's index, so that two blocks
    /// exchanging contents is a different state.
    fn salted(&self, hash: u64, node: usize, b: BlockId) -> u64 {
        fold64(hash, (node * self.layout.num_blocks() + b) as u64)
    }

    /// What `node`'s block `b` contributes to the fingerprint: a hash of its
    /// logical bytes, salted.
    fn part(&self, node: usize, b: BlockId) -> u64 {
        self.salted(content_hash(self.block(node, b)), node, b)
    }

    /// Whether `node`'s block `b` reads as the run's initial contents: it is
    /// absent, or it holds the image's bytes (zeros when no image was
    /// loaded).
    fn reads_as_image(&self, node: usize, b: BlockId) -> bool {
        if !self.is_present(node, b) {
            return true;
        }
        let bytes = &self.bytes[self.span(node, b)];
        if self.image.is_empty() {
            is_zero(bytes)
        } else {
            *bytes == self.image[self.layout.block_range(b)]
        }
    }

    /// A cache computed from nothing but the bytes, none stale. A copy that
    /// still reads as the initial contents — at an execution's first
    /// fingerprint, most of them — shares one content hash per distinct
    /// initial block, taken once (a zero image is one block's worth of
    /// zeros per block size); only the blocks that moved away from it are
    /// hashed each.
    fn fresh_cache(&self) -> FpCache {
        let nb = self.layout.num_blocks();
        let mut part = vec![0; self.n_nodes * nb];
        // The last initial block hashed: the next block that reads the same
        // takes its hash.
        let mut last: Option<(&[u8], u64)> = None;
        for b in 0..nb {
            for node in 0..self.n_nodes {
                let bytes = self.block(node, b);
                let hash = match last {
                    _ if !self.reads_as_image(node, b) => content_hash(bytes),
                    Some((seen, hash)) if seen == bytes => hash,
                    _ => {
                        let hash = content_hash(bytes);
                        last = Some((bytes, hash));
                        hash
                    }
                };
                part[node * nb + b] = self.salted(hash, node, b);
            }
        }
        let shape = StableHasher::fingerprint(&(&self.layout, self.n_nodes));
        FpCache {
            sum: part.iter().fold(shape, |sum, p| sum ^ p),
            part,
            stale: vec![0; self.present.len()],
        }
    }

    /// Whether a fingerprint cache exists.
    #[cfg(test)]
    fn has_cache(&self) -> bool {
        self.fp.borrow().is_some()
    }
}

/// The model checker's state fingerprint hashes the store. What identifies
/// a state is what the nodes can read — layout, node count and every copy
/// with its absent blocks read as the image — not which blocks happen to
/// have been copied in, so the present bits stay out. One word is written:
/// the XOR over (node, block) of each block's salted fingerprint, kept
/// between calls and brought up to date by re-hashing the stale blocks.
impl Hash for DataStore {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut fp = self.fp.borrow_mut();
        let c = fp.get_or_insert_with(|| self.fresh_cache());
        let nb = self.layout.num_blocks();
        for w in 0..c.stale.len() {
            let mut bits = std::mem::take(&mut c.stale[w]);
            while bits != 0 {
                let (node, b) = (
                    w / self.row,
                    w % self.row * 64 + bits.trailing_zeros() as usize,
                );
                bits &= bits - 1;
                let part = self.part(node, b);
                c.sum ^= std::mem::replace(&mut c.part[node * nb + b], part) ^ part;
            }
        }
        debug_assert_eq!(c.sum, self.fresh_cache().sum);
        state.write_u64(c.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DataStore {
        DataStore::new(3, Layout::new(256, 64))
    }

    fn image() -> Vec<u8> {
        (0..256).map(|i| (i % 251) as u8 + 1).collect()
    }

    fn loaded() -> DataStore {
        let mut d = store();
        d.load_image(image());
        d
    }

    /// `node`'s copy as the node reads it, block by block.
    fn logical(d: &DataStore, node: usize) -> Vec<u8> {
        (0..4).flat_map(|b| d.block(node, b).to_vec()).collect()
    }

    fn fingerprint(d: &DataStore) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        d.hash(&mut h);
        h.finish()
    }

    #[test]
    fn copies_are_independent() {
        let mut d = store();
        d.node_mut(0, 0)[10] = 42;
        assert_eq!(d.node(0)[10], 42);
        assert_eq!(d.node(1)[10], 0);
    }

    #[test]
    fn copy_block_moves_only_that_block() {
        let mut d = store();
        d.node_mut(0, 1)[64..128].fill(7);
        d.node_mut(0, 0)[0..64].fill(9);
        d.copy_block(1, 0, 2);
        assert!(d.node(2)[64..128].iter().all(|&x| x == 7));
        assert!(d.node(2)[0..64].iter().all(|&x| x == 0));
        // And in the other direction.
        d.node_mut(2, 1)[64..128].fill(3);
        d.copy_block(1, 2, 0);
        assert!(d.node(0)[64..128].iter().all(|&x| x == 3));
    }

    #[test]
    fn a_loaded_image_reads_the_same_on_every_node_before_any_byte_moves() {
        let d = loaded();
        for n in 0..3 {
            assert_eq!(logical(&d, n), image());
            assert!((0..4).all(|b| !d.is_present(n, b)));
            assert!(d.node(n).iter().all(|&x| x == 0), "nothing was copied");
        }
    }

    #[test]
    fn a_store_without_an_image_starts_all_present() {
        let mut d = store();
        assert!((0..3).all(|n| (0..4).all(|b| d.is_present(n, b))));
        // And so does one whose image is what the copies already hold.
        d.load_image(vec![0; 256]);
        assert!((0..3).all(|n| (0..4).all(|b| d.is_present(n, b))));
    }

    #[test]
    fn ensure_copies_the_block_in_once() {
        let mut d = loaded();
        d.ensure(1, 2);
        assert!(d.is_present(1, 2));
        assert_eq!(d.node(1)[128..192], image()[128..192]);
        assert!(d.node(1)[..128].iter().all(|&x| x == 0), "only that block");
        assert!(!d.is_present(0, 2) && !d.is_present(1, 1), "only that node");
        // A second call must not bring the image back over the node's writes.
        d.node_mut(1, 2)[130] = 0xEE;
        d.ensure(1, 2);
        assert_eq!(d.node(1)[130], 0xEE);
        assert_eq!(d.block(1, 2)[2], 0xEE);
    }

    #[test]
    fn copy_block_from_an_absent_source_delivers_the_image() {
        let mut d = loaded();
        d.copy_block(3, 0, 2);
        assert_eq!(d.node(2)[192..256], image()[192..256]);
        assert!(d.is_present(2, 3), "the destination holds the block now");
        assert!(!d.is_present(0, 3), "the source only served it");
        // From a present source it is the source's bytes that move.
        d.node_mut(2, 3)[200] = 0xAB;
        d.copy_block(3, 2, 1);
        assert_eq!(d.block(1, 3)[8], 0xAB);
    }

    #[test]
    fn the_fingerprint_is_of_what_the_nodes_read_not_of_what_was_copied() {
        // The same logical contents reached three ways: nothing copied in,
        // some blocks copied in, and an eager store written byte for byte.
        let lazy = loaded();
        let mut partly = loaded();
        partly.ensure(0, 1);
        partly.copy_block(2, 1, 2);
        let mut eager = store();
        for (n, b) in (0..3).flat_map(|n| (0..4).map(move |b| (n, b))) {
            let r = 64 * b..64 * (b + 1);
            eager.node_mut(n, b)[r.clone()].copy_from_slice(&image()[r]);
        }
        assert_eq!(fingerprint(&lazy), fingerprint(&eager));
        assert_eq!(fingerprint(&partly), fingerprint(&eager));
        // The one way to change a byte names its block, so the cached
        // fingerprints taken above cannot go on standing for it.
        partly.node_mut(0, 1)[64] ^= 1;
        assert_ne!(fingerprint(&partly), fingerprint(&eager));
        partly.node_mut(0, 1)[64] ^= 1;
        assert_eq!(fingerprint(&partly), fingerprint(&eager));
    }

    #[test]
    fn copy_to_self_is_noop() {
        let mut d = store();
        d.node_mut(1, 0)[0] = 1;
        d.copy_block(0, 1, 1);
        assert_eq!(d.node(1)[0], 1);
    }

    #[test]
    fn a_store_that_was_never_hashed_holds_no_cache() {
        let mut d = loaded();
        d.ensure(0, 1);
        d.node_mut(0, 1)[67] = 9;
        d.copy_block(1, 0, 2);
        assert!(!d.has_cache(), "writes and copies alone build nothing");
        fingerprint(&d);
        assert!(d.has_cache());
        assert!(d.clone().has_cache(), "and a clone keeps it");
        // A new image changes what every block reads as.
        let mut fresh = store();
        fingerprint(&fresh);
        fresh.load_image(image());
        assert!(!fresh.has_cache());
    }

    #[test]
    fn the_cached_fingerprint_is_the_from_scratch_fingerprint() {
        // Fixed-seed differential: random multi-region layouts, random
        // operations, and after each one the store's hash — kept up to date
        // block by block — against that of a store built eagerly from the
        // logical bytes, which hashes every block for the first time.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let rebuilt = |d: &DataStore| {
            let mut eager = DataStore::new(d.n_nodes, d.layout.clone());
            for (n, b) in
                (0..d.n_nodes).flat_map(|n| (0..d.layout.num_blocks()).map(move |b| (n, b)))
            {
                eager.node_mut(n, b)[d.layout.block_range(b)].copy_from_slice(d.block(n, b));
            }
            eager
        };
        for _ in 0..200 {
            let mut parts = Vec::new();
            let mut size = 0;
            for i in 0..1 + next(3) {
                parts.push((format!("r{i}"), size, 8usize << next(6)));
                size += 256 * (1 + next(3));
            }
            let layout = Layout::with_regions(size, &parts);
            let (nodes, nb) = (1 + next(4), layout.num_blocks());
            let mut d = DataStore::new(nodes, layout);
            if next(4) > 0 {
                // Sometimes hashed before the image arrives, sometimes not.
                if next(2) == 0 {
                    fingerprint(&d);
                }
                d.load_image((0..size).map(|_| next(3) as u8).collect());
            }
            for op in 0..10 {
                let (n, b) = (next(nodes), next(nb));
                match next(3) {
                    0 => {
                        d.ensure(n, b);
                        let r = d.layout.block_range(b);
                        d.node_mut(n, b)[r.start + next(r.len())] = next(256) as u8;
                    }
                    // From present and absent sources alike, and to itself.
                    1 => d.copy_block(b, next(nodes), n),
                    _ => d.ensure(n, b),
                }
                // Some operations go unhashed, so marks accumulate.
                if op == 9 || next(3) > 0 {
                    assert_eq!(fingerprint(&d), fingerprint(&rebuilt(&d)));
                }
            }
        }
    }
}
