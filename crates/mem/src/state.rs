//! Per-node per-block access-control state (the Typhoon-0 role).

use crate::layout::BlockId;

/// Access permission of one node for one coherence block.
///
/// Mirrors the hardware access-control lattice: `Invalid` blocks fault on
/// any access, `Read` blocks fault on stores, `ReadWrite` blocks never
/// fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Access {
    /// No valid local copy; loads and stores fault.
    Invalid = 0,
    /// Valid read-only copy; stores fault.
    Read = 1,
    /// Valid writable copy.
    ReadWrite = 2,
}

impl Access {
    /// Whether a load is permitted.
    #[inline]
    pub fn readable(self) -> bool {
        self != Access::Invalid
    }

    /// Whether a store is permitted.
    #[inline]
    pub fn writable(self) -> bool {
        self == Access::ReadWrite
    }
}

/// Dense (node × block) access-state table.
///
/// One byte per entry; for a 4 MB space at 64-byte blocks and 16 nodes this
/// is 1 MB — the simulated analogue of the Typhoon-0 SRAM tag store.
#[derive(Debug, Clone, Hash)]
pub struct AccessTable {
    n_blocks: usize,
    states: Vec<u8>,
}

impl AccessTable {
    /// All-Invalid table for `n_nodes` nodes and `n_blocks` blocks.
    pub fn new(n_nodes: usize, n_blocks: usize) -> Self {
        AccessTable {
            n_blocks,
            states: vec![Access::Invalid as u8; n_nodes * n_blocks],
        }
    }

    #[inline]
    fn idx(&self, node: usize, b: BlockId) -> usize {
        debug_assert!(b < self.n_blocks);
        node * self.n_blocks + b
    }

    /// Current access of `node` for block `b`.
    #[inline]
    pub fn get(&self, node: usize, b: BlockId) -> Access {
        match self.states[self.idx(node, b)] {
            0 => Access::Invalid,
            1 => Access::Read,
            _ => Access::ReadWrite,
        }
    }

    /// Set the access of `node` for block `b`.
    #[inline]
    pub fn set(&mut self, node: usize, b: BlockId, a: Access) {
        let i = self.idx(node, b);
        self.states[i] = a as u8;
    }

    /// Number of blocks per node.
    pub fn num_blocks(&self) -> usize {
        self.n_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_predicates() {
        assert!(!Access::Invalid.readable());
        assert!(Access::Read.readable());
        assert!(!Access::Read.writable());
        assert!(Access::ReadWrite.writable());
        assert!(Access::ReadWrite.readable());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = AccessTable::new(4, 8);
        assert_eq!(t.get(2, 5), Access::Invalid);
        t.set(2, 5, Access::Read);
        assert_eq!(t.get(2, 5), Access::Read);
        t.set(2, 5, Access::ReadWrite);
        assert_eq!(t.get(2, 5), Access::ReadWrite);
        // Neighbours untouched.
        assert_eq!(t.get(2, 4), Access::Invalid);
        assert_eq!(t.get(1, 5), Access::Invalid);
    }
}
