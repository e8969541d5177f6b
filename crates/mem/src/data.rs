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

use std::hash::{Hash, Hasher};

use crate::layout::{BlockId, Layout};

/// All nodes' local copies of the shared address space.
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
        if image.iter().all(|&x| x == 0) {
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

    /// Byte range of block `b` inside [`DataStore::bytes`] for `node`.
    #[inline]
    fn span(&self, node: usize, b: BlockId) -> std::ops::Range<usize> {
        let r = self.layout.block_range(b);
        let base = node * self.layout.size();
        base + r.start..base + r.end
    }

    /// Make block `b` present in `node`'s copy, from the image if it is not
    /// yet. Called wherever `node` is about to use its own bytes of `b`
    /// without having received them: when it is granted access, and when it
    /// applies a diff as a home that never touched the block.
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

    /// Mutable view of one node's copy (of the blocks present in it).
    #[inline]
    pub fn node_mut(&mut self, node: usize) -> &mut [u8] {
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
        if self.is_present(src, b) {
            let (from, to) = (self.span(src, b), self.span(dst, b).start);
            self.bytes.copy_within(from, to);
            self.mark_present(dst, b);
        } else {
            self.fill(dst, b);
        }
    }
}

/// The model checker's state fingerprint hashes the store. What identifies
/// a state is what the nodes can read — layout, node count and every copy
/// with its absent blocks read as the image — not which blocks happen to
/// have been copied in, so the present bits stay out and each copy is one
/// write whether or not it is complete.
impl Hash for DataStore {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.layout.hash(state);
        self.n_nodes.hash(state);
        for node in 0..self.n_nodes {
            let row = &self.present[node * self.row..(node + 1) * self.row];
            if row.iter().all(|&w| w == u64::MAX) {
                state.write(self.node(node));
                continue;
            }
            let mut copy = self.node(node).to_vec();
            for b in (0..self.layout.num_blocks()).filter(|&b| !self.is_present(node, b)) {
                let r = self.layout.block_range(b);
                copy[r.clone()].copy_from_slice(&self.image[r]);
            }
            state.write(&copy);
        }
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
        d.node_mut(0)[10] = 42;
        assert_eq!(d.node(0)[10], 42);
        assert_eq!(d.node(1)[10], 0);
    }

    #[test]
    fn copy_block_moves_only_that_block() {
        let mut d = store();
        d.node_mut(0)[64..128].fill(7);
        d.node_mut(0)[0..64].fill(9);
        d.copy_block(1, 0, 2);
        assert!(d.node(2)[64..128].iter().all(|&x| x == 7));
        assert!(d.node(2)[0..64].iter().all(|&x| x == 0));
        // And in the other direction.
        d.node_mut(2)[64..128].fill(3);
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
        d.node_mut(1)[130] = 0xEE;
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
        d.node_mut(2)[200] = 0xAB;
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
        for n in 0..3 {
            eager.node_mut(n).copy_from_slice(&image());
        }
        assert_eq!(fingerprint(&lazy), fingerprint(&eager));
        assert_eq!(fingerprint(&partly), fingerprint(&eager));
        partly.node_mut(0)[64] ^= 1;
        assert_ne!(fingerprint(&partly), fingerprint(&eager));
    }

    #[test]
    fn copy_to_self_is_noop() {
        let mut d = store();
        d.node_mut(1)[0] = 1;
        d.copy_block(0, 1, 1);
        assert_eq!(d.node(1)[0], 1);
    }
}
