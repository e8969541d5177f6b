//! Home assignment with first-touch migration (paper §2).
//!
//! Every block has a *static* home (`block mod nodes`) that acts as the
//! distributed lookup directory. After the parallel phase begins, the first
//! node to "touch" a block (a load or store for SC, a store for HLRC)
//! claims it; later touches by other nodes go to the static directory node,
//! learn the claimed home, and cache it locally.

use crate::layout::BlockId;

/// Result of consulting the home directory from a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HomeLookup {
    /// The asking node already had the home cached — no messages needed.
    Cached(usize),
    /// The home had to be fetched from the static directory node (one
    /// round trip, unless the asker *is* the directory node).
    Fetched {
        /// The claimed home.
        home: usize,
        /// The static directory node that answered.
        directory: usize,
    },
    /// No home was claimed yet; the asker claimed it (registering with the
    /// static directory node).
    Claimed {
        /// The static directory node that recorded the claim.
        directory: usize,
    },
}

/// "No home": the one `u32` that is not a node id.
const NONE: u32 = u32::MAX;

#[inline]
fn get(slot: u32) -> Option<usize> {
    (slot != NONE).then_some(slot as usize)
}

/// First-touch home directory.
///
/// An entry is a `u32` node id or `u32::MAX` for none — a quarter of an
/// `Option<usize>`, in a cell's memory and in the words a state fingerprint
/// hashes (each table is one slice `write`).
#[derive(Debug, Clone, Hash)]
pub struct HomeDirectory {
    n_nodes: usize,
    /// Claimed home per block; `NONE` until first touch.
    claimed: Vec<u32>,
    /// Per-node cache of learned homes (node-major).
    cache: Vec<u32>,
}

impl HomeDirectory {
    /// New directory with no claims.
    pub fn new(n_nodes: usize, n_blocks: usize) -> Self {
        assert!(
            u32::try_from(n_nodes).is_ok_and(|n| n < NONE),
            "node ids are stored as u32, u32::MAX meaning none"
        );
        HomeDirectory {
            n_nodes,
            claimed: vec![NONE; n_blocks],
            cache: vec![NONE; n_nodes * n_blocks],
        }
    }

    fn n_blocks(&self) -> usize {
        self.claimed.len()
    }

    /// The static directory node for a block.
    #[inline]
    pub fn directory_node(&self, b: BlockId) -> usize {
        b % self.n_nodes
    }

    /// The claimed home of a block, if any.
    #[inline]
    pub fn home(&self, b: BlockId) -> Option<usize> {
        get(self.claimed[b])
    }

    /// Touch block `b` from `node`: returns how the home was resolved and
    /// (for `Claimed`) records `node` as the home. The caller charges the
    /// message costs implied by the variant.
    pub fn touch(&mut self, node: usize, b: BlockId) -> HomeLookup {
        let ci = node * self.n_blocks() + b;
        if let Some(h) = get(self.cache[ci]) {
            return HomeLookup::Cached(h);
        }
        let directory = self.directory_node(b);
        match get(self.claimed[b]) {
            Some(h) => {
                self.cache[ci] = self.claimed[b];
                HomeLookup::Fetched { home: h, directory }
            }
            None => {
                self.claimed[b] = self.id(node);
                self.cache[ci] = self.claimed[b];
                HomeLookup::Claimed { directory }
            }
        }
    }

    /// `node` as a table entry.
    #[inline]
    fn id(&self, node: usize) -> u32 {
        assert!(node < self.n_nodes, "home {node} of {}", self.n_nodes);
        node as u32
    }

    /// The home `node` believes block `b` has (its local cache), if any.
    #[inline]
    pub fn cached(&self, node: usize, b: BlockId) -> Option<usize> {
        get(self.cache[node * self.n_blocks() + b])
    }

    /// Record in `node`'s local cache that block `b`'s home is `home`
    /// (learned from a grant or forward).
    pub fn learn(&mut self, node: usize, b: BlockId, home: usize) {
        let nb = self.n_blocks();
        self.cache[node * nb + b] = self.id(home);
    }

    /// Claim block `b` for `node` if unclaimed (directory-side first-touch).
    /// Returns the home after the call (the new claim or the prior one).
    pub fn claim_for(&mut self, b: BlockId, node: usize) -> usize {
        if self.claimed[b] == NONE {
            self.claimed[b] = self.id(node);
        }
        self.claimed[b] as usize
    }

    /// Pre-assign a home without message accounting (used for warm starts
    /// and tests).
    pub fn assign(&mut self, b: BlockId, home: usize) {
        self.claimed[b] = self.id(home);
        let nb = self.n_blocks();
        for node in 0..self.n_nodes {
            self.cache[node * nb + b] = self.claimed[b];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_claims() {
        let mut d = HomeDirectory::new(4, 8);
        assert_eq!(d.touch(2, 5), HomeLookup::Claimed { directory: 1 });
        assert_eq!(d.home(5), Some(2));
        // The claimer now has it cached.
        assert_eq!(d.touch(2, 5), HomeLookup::Cached(2));
    }

    #[test]
    fn later_touchers_fetch_then_cache() {
        let mut d = HomeDirectory::new(4, 8);
        let _ = d.touch(2, 5);
        assert_eq!(
            d.touch(0, 5),
            HomeLookup::Fetched {
                home: 2,
                directory: 1
            }
        );
        assert_eq!(d.touch(0, 5), HomeLookup::Cached(2));
    }

    #[test]
    fn exactly_one_home_per_block() {
        let mut d = HomeDirectory::new(4, 4);
        let _ = d.touch(3, 0);
        let _ = d.touch(1, 0);
        let _ = d.touch(2, 0);
        assert_eq!(d.home(0), Some(3));
    }

    #[test]
    fn directory_node_round_robin() {
        let d = HomeDirectory::new(4, 8);
        assert_eq!(d.directory_node(0), 0);
        assert_eq!(d.directory_node(5), 1);
        assert_eq!(d.directory_node(7), 3);
    }

    #[test]
    fn assign_prepopulates_caches() {
        let mut d = HomeDirectory::new(2, 2);
        d.assign(1, 1);
        assert_eq!(d.touch(0, 1), HomeLookup::Cached(1));
        assert_eq!(d.touch(1, 1), HomeLookup::Cached(1));
    }

    #[test]
    fn every_node_id_round_trips_and_the_sentinel_reads_as_none() {
        // No entries, so the largest cluster the tables can name costs
        // nothing to build.
        let largest = NONE as usize - 1;
        let d = HomeDirectory::new(largest, 0);
        let ids = (0..largest).step_by(65_521).chain([largest - 1]);
        for node in ids {
            assert_eq!(get(d.id(node)), Some(node));
        }
        assert_eq!(get(NONE), None);
        // Through the tables: unclaimed and unlearned read as none.
        let mut d = HomeDirectory::new(3, 2);
        assert_eq!((d.home(1), d.cached(2, 1)), (None, None));
        d.learn(2, 1, 0);
        assert_eq!(d.claim_for(1, 2), 2);
        assert_eq!((d.home(1), d.cached(2, 1)), (Some(2), Some(0)));
        assert_eq!(d.claim_for(1, 0), 2, "a claimed block keeps its home");
    }

    #[test]
    #[should_panic(expected = "u32::MAX meaning none")]
    fn a_cluster_whose_last_id_would_be_the_sentinel_is_refused() {
        HomeDirectory::new(NONE as usize, 0);
    }

    #[test]
    #[should_panic(expected = "home 4 of 4")]
    fn a_home_outside_the_cluster_is_refused() {
        HomeDirectory::new(4, 8).learn(0, 0, 4);
    }
}
