//! Bump allocator for carving the shared virtual address space.
//!
//! Applications lay out their shared data structures during setup (before
//! the parallel phase) using this allocator, exactly like the SPLASH-2
//! programs call `G_MALLOC`. Alignment control lets an application choose
//! block-aligned (padding) or packed layouts — the paper's restructured
//! application versions differ largely in these choices.

/// A monotone bump allocator over `[0, limit)` of the shared space.
#[derive(Debug, Clone)]
pub struct BumpAlloc {
    next: usize,
    limit: usize,
}

impl BumpAlloc {
    /// Allocator over the whole shared space of `limit` bytes.
    pub fn new(limit: usize) -> Self {
        BumpAlloc { next: 0, limit }
    }

    /// Allocate `size` bytes aligned to `align` (a power of two). Returns
    /// the shared-space byte address.
    ///
    /// Panics if the shared space is exhausted — sizing the space is part of
    /// the run configuration, and running out indicates a misconfiguration
    /// rather than a recoverable condition.
    pub fn alloc(&mut self, size: usize, align: usize) -> usize {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        let end = addr.checked_add(size).expect("allocation overflow");
        assert!(
            end <= self.limit,
            "shared space exhausted: need {end} bytes, have {}",
            self.limit
        );
        self.next = end;
        addr
    }

    /// Bytes allocated so far (high-water mark).
    pub fn used(&self) -> usize {
        self.next
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.limit - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_sequentially() {
        let mut a = BumpAlloc::new(1024);
        assert_eq!(a.alloc(10, 1), 0);
        assert_eq!(a.alloc(10, 1), 10);
        assert_eq!(a.used(), 20);
    }

    #[test]
    fn aligns_up() {
        let mut a = BumpAlloc::new(1024);
        let _ = a.alloc(3, 1);
        assert_eq!(a.alloc(8, 8), 8);
        assert_eq!(a.alloc(1, 64), 64);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = BumpAlloc::new(16);
        let _ = a.alloc(17, 1);
    }

    #[test]
    fn remaining_tracks_usage() {
        let mut a = BumpAlloc::new(100);
        let _ = a.alloc(40, 1);
        assert_eq!(a.remaining(), 60);
    }
}
