//! Block layout of the shared virtual address space.
//!
//! The shared space is partitioned into contiguous **regions**, each with
//! its own coherence block size. The classic uniform layout is the
//! single-region special case ([`Layout::new`]). Block ids are assigned
//! region-major and increase monotonically with byte address, so a byte
//! range always maps onto a contiguous range of block ids regardless of
//! how many regions (and block sizes) it crosses.

use std::sync::Arc;

/// Index of a coherence block within the shared space.
pub type BlockId = usize;

/// The four coherence granularities studied in the paper, in bytes.
pub const GRANULARITIES: [usize; 4] = [64, 256, 1024, 4096];

/// One contiguous span of the shared space with a single block size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    name: String,
    /// First byte of the region.
    start: usize,
    /// One past the last byte of the region.
    end: usize,
    /// log2 of the coherence block size inside this region: block
    /// arithmetic on the access path is shifts, not divisions.
    shift: u32,
    /// Block id of the region's first block.
    base: BlockId,
}

impl Region {
    /// Region name (for reports and policy lookups).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First byte address of the region.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last byte address of the region.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region is empty (never true for a constructed layout).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Coherence block size inside this region.
    #[inline]
    pub fn block_size(&self) -> usize {
        1 << self.shift
    }

    /// Block id of the region's first block.
    pub fn base_block(&self) -> BlockId {
        self.base
    }

    /// Number of blocks in the region.
    pub fn num_blocks(&self) -> usize {
        (self.end - self.start) >> self.shift
    }
}

/// Shared address space layout: total size plus its region table.
///
/// A run's world, its store, its checker and every node's handle each hold
/// the layout, so the region table is shared: a clone is a reference count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    size: usize,
    regions: Arc<[Region]>,
}

fn check_block(block: usize) {
    assert!(block.is_power_of_two(), "block size must be a power of two");
    assert!(block >= 8, "block size must be at least a word");
}

impl Layout {
    /// Create a uniform layout. `block` must be a power of two; `size` is
    /// rounded up to a whole number of blocks.
    pub fn new(size: usize, block: usize) -> Self {
        check_block(block);
        let size = size.div_ceil(block) * block;
        assert!(size > 0, "empty shared space");
        Layout {
            size,
            regions: Arc::new([Region {
                name: "shared".into(),
                start: 0,
                end: size,
                shift: block.trailing_zeros(),
                base: 0,
            }]),
        }
    }

    /// Create a multi-region layout from `(name, start, block)` triples.
    ///
    /// Parts must be sorted by `start`, begin at 0, and each part's span
    /// (up to the next part's start, or `size`) must be a whole number of
    /// its blocks. Callers are responsible for snapping boundaries to
    /// suitable alignment before constructing the layout.
    pub fn with_regions(size: usize, parts: &[(String, usize, usize)]) -> Self {
        assert!(!parts.is_empty(), "layout needs at least one region");
        assert!(size > 0, "empty shared space");
        assert_eq!(parts[0].1, 0, "first region must start at address 0");
        let mut regions = Vec::with_capacity(parts.len());
        let mut base = 0;
        for (i, (name, start, block)) in parts.iter().enumerate() {
            check_block(*block);
            let end = parts.get(i + 1).map_or(size, |p| p.1);
            assert!(
                *start < end,
                "region {name:?} is empty or out of order ({start:#x}..{end:#x})"
            );
            assert!(
                (end - start).is_multiple_of(*block),
                "region {name:?} span {} is not a multiple of its block size {block}",
                end - start
            );
            regions.push(Region {
                name: name.clone(),
                start: *start,
                end,
                shift: block.trailing_zeros(),
                base,
            });
            base += (end - start) / block;
        }
        Layout {
            size,
            regions: regions.into(),
        }
    }

    /// Total bytes of shared space.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Largest block size across regions (the uniform block size for
    /// single-region layouts).
    pub fn block_size(&self) -> usize {
        1 << self.regions.iter().map(|r| r.shift).max().unwrap()
    }

    /// Number of coherence blocks across all regions.
    pub fn num_blocks(&self) -> usize {
        let last = self.regions.last().unwrap();
        last.base + last.num_blocks()
    }

    /// The region table.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Region with index `i`.
    pub fn region(&self, i: usize) -> &Region {
        &self.regions[i]
    }

    /// Index of the region containing byte address `addr`.
    #[inline]
    pub fn region_of_addr(&self, addr: usize) -> usize {
        debug_assert!(addr < self.size, "address {addr:#x} out of shared space");
        if self.regions.len() == 1 {
            return 0;
        }
        self.regions.partition_point(|r| r.end <= addr)
    }

    /// Index of the region containing block `b`.
    #[inline]
    pub fn region_of_block(&self, b: BlockId) -> usize {
        if self.regions.len() == 1 {
            return 0;
        }
        debug_assert!(b < self.num_blocks(), "block {b} out of range");
        self.regions
            .partition_point(|r| r.base + r.num_blocks() <= b)
    }

    /// Block size of the region containing block `b`.
    #[inline]
    pub fn block_size_of(&self, b: BlockId) -> usize {
        self.regions[self.region_of_block(b)].block_size()
    }

    /// Block containing byte address `addr`.
    #[inline]
    pub fn block_of(&self, addr: usize) -> BlockId {
        debug_assert!(addr < self.size, "address {addr:#x} out of shared space");
        self.locate(addr).0
    }

    /// Byte range of block `b`.
    #[inline]
    pub fn block_range(&self, b: BlockId) -> std::ops::Range<usize> {
        let r = &self.regions[self.region_of_block(b)];
        let start = r.start + ((b - r.base) << r.shift);
        start..start + r.block_size()
    }

    /// The block containing byte address `addr` and one past that block's
    /// last byte (the first address that falls in the next block): what the
    /// access path needs to cut an access into per-block pieces, from one
    /// region lookup.
    #[inline]
    pub fn locate(&self, addr: usize) -> (BlockId, usize) {
        debug_assert!(addr < self.size, "address {addr:#x} out of shared space");
        let r = &self.regions[self.region_of_addr(addr)];
        let i = (addr - r.start) >> r.shift;
        (r.base + i, r.start + ((i + 1) << r.shift))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_size_up_to_blocks() {
        let l = Layout::new(100, 64);
        assert_eq!(l.size(), 128);
        assert_eq!(l.num_blocks(), 2);
    }

    #[test]
    fn block_of_and_range() {
        let l = Layout::new(4096, 256);
        assert_eq!(l.block_of(0), 0);
        assert_eq!(l.block_of(255), 0);
        assert_eq!(l.block_of(256), 1);
        assert_eq!(l.block_range(3), 768..1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Layout::new(1024, 100);
    }

    fn three_regions() -> Layout {
        // [0, 4096) @ 256 | [4096, 8192) @ 1024 | [8192, 8448) @ 64
        Layout::with_regions(
            8448,
            &[
                ("a".into(), 0, 256),
                ("b".into(), 4096, 1024),
                ("c".into(), 8192, 64),
            ],
        )
    }

    #[test]
    fn regions_get_monotone_block_ids() {
        let l = three_regions();
        assert_eq!(l.regions().len(), 3);
        assert_eq!(l.num_blocks(), 16 + 4 + 4);
        assert_eq!(l.region(0).base_block(), 0);
        assert_eq!(l.region(1).base_block(), 16);
        assert_eq!(l.region(2).base_block(), 20);
        // Monotone: block ids strictly increase across boundaries.
        assert_eq!(l.block_of(4095), 15);
        assert_eq!(l.block_of(4096), 16);
        assert_eq!(l.block_of(8191), 19);
        assert_eq!(l.block_of(8192), 20);
        assert_eq!(l.block_of(8447), 23);
    }

    #[test]
    fn per_region_block_sizes_and_ranges() {
        let l = three_regions();
        assert_eq!(l.block_size_of(0), 256);
        assert_eq!(l.block_size_of(16), 1024);
        assert_eq!(l.block_size_of(20), 64);
        assert_eq!(l.block_range(16), 4096..5120);
        assert_eq!(l.block_range(20), 8192..8256);
        assert_eq!(l.block_size(), 1024, "layout-wide block size is the max");
        assert_eq!(l.region_of_block(15), 0);
        assert_eq!(l.region_of_block(19), 1);
        assert_eq!(l.region_of_block(23), 2);
    }

    #[test]
    fn locate_respects_region_grain() {
        let l = three_regions();
        assert_eq!(l.locate(0), (0, 256));
        assert_eq!(l.locate(255), (0, 256));
        assert_eq!(l.locate(4096), (16, 5120));
        assert_eq!(l.locate(8200), (20, 8256));
    }

    #[test]
    fn locate_agrees_with_block_of_and_block_range_on_random_layouts() {
        // Fixed-seed differential: random multi-region layouts (4 KB-aligned
        // spans, each with its own power-of-two block size), random addresses.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for _ in 0..200 {
            let mut parts = Vec::new();
            let mut start = 0;
            for i in 0..1 + next(5) {
                parts.push((format!("r{i}"), start, 8usize << next(10)));
                start += 4096 * (1 + next(4));
            }
            let l = Layout::with_regions(start, &parts);
            for _ in 0..200 {
                let addr = next(l.size());
                let (b, end) = l.locate(addr);
                assert_eq!(b, l.block_of(addr));
                let range = l.block_range(b);
                assert!(
                    range.contains(&addr),
                    "{addr:#x} not in block {b}'s {range:?}"
                );
                assert_eq!(end, range.end);
                let r = l.region(l.region_of_addr(addr));
                assert_eq!(b, r.base_block() + (addr - r.start()) / r.block_size());
                assert_eq!(end, r.start() + (b - r.base_block() + 1) * r.block_size());
            }
        }
    }

    #[test]
    fn uniform_equivalence_of_multi_region_layout() {
        // Regions that all share one block size behave exactly like the
        // uniform layout: same ids, ranges, and covering sets.
        let u = Layout::new(8192, 256);
        let m = Layout::with_regions(8192, &[("x".into(), 0, 256), ("y".into(), 4096, 256)]);
        for addr in (0..8192).step_by(97) {
            assert_eq!(u.locate(addr), m.locate(addr));
        }
        for b in 0..u.num_blocks() {
            assert_eq!(u.block_range(b), m.block_range(b));
            assert_eq!(m.block_size_of(b), 256);
        }
        assert_eq!(u.num_blocks(), m.num_blocks());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_misaligned_region_span() {
        Layout::with_regions(8192, &[("x".into(), 0, 256), ("y".into(), 4100, 256)]);
    }
}
