//! Ocean: red/black successive-over-relaxation solver standing in for the
//! SPLASH-2 Ocean eddy-current simulation.
//!
//! The substitution (documented in DESIGN.md) keeps exactly the property
//! the paper studies: the communication pattern of a nearest-neighbour grid
//! solver under two partitionings.
//!
//! * [`OceanOriginal`] — square-subgrid partitioning with each processor's
//!   subgrid allocated *contiguously* (the SPLASH-2 4-D array layout):
//!   column-border exchanges read 8-byte elements scattered through the
//!   neighbour's rows — single-writer, **fine-grain** access, heavy
//!   fragmentation at coarse granularity.
//! * [`OceanRowwise`] — row-band partitioning of a single row-major grid:
//!   border exchanges read whole contiguous rows — single-writer,
//!   **coarse-grain** access.
//!
//! Red/black ordering makes the result independent of update order, so the
//! parallel image is bit-identical to the sequential one.

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{XorShift, FLOP_NS};

const OMEGA: f64 = 1.15;
const FLOPS_PER_POINT: u64 = 7;

fn init_interior(mem: &mut MemImage, at: impl Fn(usize, usize) -> usize, n: usize) {
    let mut rng = XorShift::new(0x0CEA);
    for i in 0..n + 2 {
        for j in 0..n + 2 {
            let v = if i == 0 || j == 0 || i == n + 1 || j == n + 1 {
                // Fixed boundary condition.
                (i + j) as f64 / (2 * n) as f64
            } else {
                rng.range_f64(0.0, 1.0)
            };
            mem.write_f64(at(i, j), v);
        }
    }
}

/// One red/black half-sweep over the rows/cols this processor owns,
/// against an arbitrary (i, j) -> address mapping.
#[allow(clippy::too_many_arguments)]
async fn sor_halfsweep(
    d: &mut Dsm,
    at: &dyn Fn(usize, usize) -> usize,
    i_range: std::ops::Range<usize>,
    j_range: std::ops::Range<usize>,
    color: usize,
) {
    for i in i_range {
        for j in j_range.clone() {
            if (i + j) % 2 != color {
                continue;
            }
            let up = d.read_f64(at(i - 1, j)).await;
            let down = d.read_f64(at(i + 1, j)).await;
            let left = d.read_f64(at(i, j - 1)).await;
            let right = d.read_f64(at(i, j + 1)).await;
            let cur = d.read_f64(at(i, j)).await;
            let next = cur + OMEGA * ((up + down + left + right) / 4.0 - cur);
            d.write_f64(at(i, j), next).await;
            d.compute(FLOPS_PER_POINT * FLOP_NS).await;
        }
    }
}

/// Row-band partitioning over a row-major grid (the restructured version).
pub struct OceanRowwise {
    /// Interior dimension (grid is (n+2)² including boundary).
    pub n: usize,
    /// Red/black iterations.
    pub iters: usize,
}

impl OceanRowwise {
    /// New solver; `n` should be a multiple of the node count.
    pub fn new(n: usize, iters: usize) -> Self {
        OceanRowwise { n, iters }
    }

    fn at(&self, i: usize, j: usize) -> usize {
        (i * (self.n + 2) + j) * 8
    }
}

impl DsmProgram for OceanRowwise {
    fn name(&self) -> String {
        "ocean-rowwise".into()
    }

    fn shared_bytes(&self) -> usize {
        (self.n + 2) * (self.n + 2) * 8
    }

    fn regions(&self) -> Vec<RegionHint> {
        vec![RegionHint::new("grid", 0, self.shared_bytes())]
    }

    fn poll_inflation_pct(&self) -> u32 {
        15
    }

    fn init(&self, mem: &mut MemImage) {
        init_interior(mem, |i, j| self.at(i, j), self.n);
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let rows = self.n / p;
            let lo = 1 + me * rows;
            let hi = if me == p - 1 { self.n + 1 } else { lo + rows };
            for i in lo..hi {
                touch_region(d, self.at(i, 1), self.n * 8).await;
            }
            if me == 0 {
                // Boundary rows/columns.
                touch_region(d, self.at(0, 0), (self.n + 2) * 8).await;
                touch_region(d, self.at(self.n + 1, 0), (self.n + 2) * 8).await;
            }
        })
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let rows = self.n / p;
            let lo = 1 + me * rows;
            let hi = if me == p - 1 { self.n + 1 } else { lo + rows };
            d.barrier(0).await;
            for _ in 0..self.iters {
                for color in 0..2 {
                    let at = |i: usize, j: usize| self.at(i, j);
                    sor_halfsweep(d, &at, lo..hi, 1..self.n + 1, color).await;
                    d.barrier(0).await;
                }
            }
        })
    }
}

/// Square-subgrid partitioning with contiguous per-processor subgrids (the
/// SPLASH-2 "contiguous partitions" 4-D layout).
pub struct OceanOriginal {
    /// Interior dimension.
    pub n: usize,
    /// Red/black iterations.
    pub iters: usize,
}

impl OceanOriginal {
    /// New solver.
    pub fn new(n: usize, iters: usize) -> Self {
        OceanOriginal { n, iters }
    }

    /// Processor grid: as square as possible.
    fn grid(p: usize) -> (usize, usize) {
        let mut pr = (p as f64).sqrt() as usize;
        while !p.is_multiple_of(pr) {
            pr -= 1;
        }
        (pr, p / pr)
    }

    /// Address of global element (i, j) in the 4-D layout: the boundary
    /// ring lives in a separate strip; interior elements live inside the
    /// owning processor's contiguous subgrid. The layout is computed for a
    /// FIXED 4x4 decomposition so that sequential and parallel runs agree
    /// on addresses.
    fn at(&self, i: usize, j: usize) -> usize {
        let n = self.n;
        if i == 0 || j == 0 || i == n + 1 || j == n + 1 {
            // Boundary strip after all subgrids: ring index.
            let ring = if i == 0 {
                j
            } else if i == n + 1 {
                (n + 2) + j
            } else if j == 0 {
                2 * (n + 2) + i
            } else {
                3 * (n + 2) + i
            };
            return n * n * 8 + ring * 8;
        }
        // Interior: fixed 4x4 blocks regardless of the actual node count.
        let (pr, pc) = (4, 4);
        let (bi, bj) = ((n / pr), (n / pc));
        let (sub_r, sub_c) = ((i - 1) / bi, (j - 1) / bj);
        let (loc_r, loc_c) = ((i - 1) % bi, (j - 1) % bj);
        let sub = sub_r * pc + sub_c;
        (sub * bi * bj + loc_r * bj + loc_c) * 8
    }
}

impl DsmProgram for OceanOriginal {
    fn name(&self) -> String {
        "ocean-original".into()
    }

    fn shared_bytes(&self) -> usize {
        self.n * self.n * 8 + 4 * (self.n + 2) * 8
    }

    fn regions(&self) -> Vec<RegionHint> {
        // The contiguous subgrids are near-single-writer; the boundary
        // ring strip is read-shared by all edge owners.
        vec![
            RegionHint::new("interior", 0, self.n * self.n * 8),
            RegionHint::new("boundary", self.n * self.n * 8, 4 * (self.n + 2) * 8),
        ]
    }

    fn poll_inflation_pct(&self) -> u32 {
        15
    }

    fn init(&self, mem: &mut MemImage) {
        init_interior(mem, |i, j| self.at(i, j), self.n);
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            // Touch the contiguous subgrids this node will write. The layout is
            // fixed 4×4; with fewer nodes each node touches several subgrids.
            let per_side = 4;
            let (bi, bj) = (self.n / per_side, self.n / per_side);
            for sub in 0..16 {
                if sub % p == me {
                    touch_region(d, sub * bi * bj * 8, bi * bj * 8).await;
                }
            }
            if me == 0 {
                // Boundary ring strip.
                touch_region(d, self.n * self.n * 8, 4 * (self.n + 2) * 8).await;
            }
        })
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let (pr, pc) = Self::grid(p);
            let (my_r, my_c) = (me / pc, me % pc);
            // Near-equal bands: every row and column is owned even when the
            // processor grid does not divide the dimension.
            let (ilo, ihi) = (1 + self.n * my_r / pr, 1 + self.n * (my_r + 1) / pr);
            let (jlo, jhi) = (1 + self.n * my_c / pc, 1 + self.n * (my_c + 1) / pc);
            d.barrier(0).await;
            for _ in 0..self.iters {
                for color in 0..2 {
                    let at = |i: usize, j: usize| self.at(i, j);
                    sor_halfsweep(d, &at, ilo..ihi, jlo..jhi, color).await;
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
    fn original_layout_is_contiguous_per_subgrid() {
        let o = OceanOriginal::new(64, 1);
        // Elements of the same 16x16 subgrid are within one 2048-byte span.
        let base = o.at(1, 1);
        let last = o.at(16, 16);
        assert_eq!(last - base, (16 * 16 - 1) * 8);
        // First element of the next column subgrid starts a new span.
        assert_eq!(o.at(1, 17), base + 16 * 16 * 8);
    }

    #[test]
    fn original_layout_has_no_overlap() {
        let o = OceanOriginal::new(16, 1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..18 {
            for j in 0..18 {
                assert!(seen.insert(o.at(i, j)), "overlap at ({i},{j})");
                assert!(o.at(i, j) < o.shared_bytes());
            }
        }
    }

    #[test]
    fn rowwise_layout_is_row_major() {
        let o = OceanRowwise::new(16, 1);
        assert_eq!(o.at(0, 0), 0);
        assert_eq!(o.at(0, 1), 8);
        assert_eq!(o.at(1, 0), 18 * 8);
    }

    #[test]
    fn column_border_reads_are_scattered_in_original() {
        // Reading the column border of a neighbour subgrid touches
        // addresses 8*bj bytes apart (one per row): the fine-grain pattern.
        let o = OceanOriginal::new(64, 1);
        let d1 = o.at(1, 16);
        let d2 = o.at(2, 16);
        assert_eq!(d2 - d1, 16 * 8);
    }
}
