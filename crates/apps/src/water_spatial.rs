//! Water-Spatial: the cell-list molecular dynamics version of Water
//! (SPLASH-2) — multiple-writer, fine-grain access, coarse-grain
//! synchronization.
//!
//! The box is divided into a cubic grid of cells, each holding a bounded
//! list of molecule slots; processors own contiguous ranges of cells. Force
//! computation reads molecule data from neighbouring cells (fine-grained
//! reads across partition boundaries); after integration, molecules that
//! crossed into another processor's cell are moved under per-cell locks
//! (the multiple-writer part).

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{XorShift, FLOP_NS};

const DT: f64 = 5e-4;
const PAIR_FLOPS: u64 = 30;

/// Fixed capacity of one cell's molecule list.
const CELL_CAP: usize = 24;

/// Bytes per molecule record: id (u64) + pos[3] + vel[3].
const MOL_BYTES: usize = 8 + 48;

/// Water-Spatial program.
pub struct WaterSpatial {
    /// Cells per box edge (total cells = c³).
    pub c: usize,
    /// Number of molecules.
    pub n: usize,
    /// Time steps.
    pub steps: usize,
}

impl WaterSpatial {
    /// Molecules per cell the initial placement may average: `n` is at most
    /// this times the `c³` cells.
    pub const CELL_SLOTS: usize = CELL_CAP / 2;

    /// Scaled default: paper used 4096 molecules; we default to c=4 cells
    /// per edge.
    pub fn new(c: usize, n: usize, steps: usize) -> Self {
        assert!(n <= c * c * c * Self::CELL_SLOTS, "box too dense");
        WaterSpatial { c, n, steps }
    }

    fn num_cells(&self) -> usize {
        self.c * self.c * self.c
    }

    fn cell_idx(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.c + y) * self.c + z
    }

    /// Cell record: [count u64][CELL_CAP molecule records].
    fn cell_addr(&self, cell: usize) -> usize {
        cell * (8 + CELL_CAP * MOL_BYTES)
    }

    fn mol_addr(&self, cell: usize, slot: usize) -> usize {
        self.cell_addr(cell) + 8 + slot * MOL_BYTES
    }

    fn cell_of_pos(&self, p: &[f64; 3]) -> usize {
        let f = |v: f64| ((v * self.c as f64) as usize).min(self.c - 1);
        self.cell_idx(f(p[0]), f(p[1]), f(p[2]))
    }

    /// Owner of a cell: contiguous ranges of cell indices.
    fn owner(&self, cell: usize, p: usize) -> usize {
        (cell * p / self.num_cells()).min(p - 1)
    }

    async fn read_mol(&self, d: &mut Dsm, cell: usize, slot: usize) -> (u64, [f64; 3], [f64; 3]) {
        let a = self.mol_addr(cell, slot);
        let id = d.read_u64(a).await;
        let mut pos = [0.0; 3];
        let mut vel = [0.0; 3];
        d.read_f64s(a + 8, &mut pos).await;
        d.read_f64s(a + 32, &mut vel).await;
        (id, pos, vel)
    }

    async fn write_mol(
        &self,
        d: &mut Dsm,
        cell: usize,
        slot: usize,
        id: u64,
        pos: &[f64; 3],
        vel: &[f64; 3],
    ) {
        let a = self.mol_addr(cell, slot);
        d.write_u64(a, id).await;
        d.write_f64s(a + 8, pos).await;
        d.write_f64s(a + 32, vel).await;
    }

    /// Neighbour cell coordinates (including self), clamped to the box.
    fn neighbours(&self, cell: usize) -> Vec<usize> {
        let c = self.c as isize;
        let z = (cell % self.c) as isize;
        let y = ((cell / self.c) % self.c) as isize;
        let x = (cell / (self.c * self.c)) as isize;
        let mut out = Vec::with_capacity(27);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    let (nx, ny, nz) = (x + dx, y + dy, z + dz);
                    if nx < 0 || ny < 0 || nz < 0 || nx >= c || ny >= c || nz >= c {
                        continue;
                    }
                    out.push(self.cell_idx(nx as usize, ny as usize, nz as usize));
                }
            }
        }
        out
    }
}

impl DsmProgram for WaterSpatial {
    fn name(&self) -> String {
        "water-spatial".into()
    }

    fn shared_bytes(&self) -> usize {
        self.num_cells() * (8 + CELL_CAP * MOL_BYTES)
    }

    fn regions(&self) -> Vec<RegionHint> {
        vec![RegionHint::new("cells", 0, self.shared_bytes())]
    }

    fn poll_inflation_pct(&self) -> u32 {
        15
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            for cell in 0..self.num_cells() {
                if self.owner(cell, p) == me {
                    touch_region(d, self.cell_addr(cell), 8 + CELL_CAP * MOL_BYTES).await;
                }
            }
        })
    }

    fn init(&self, mem: &mut MemImage) {
        let mut rng = XorShift::new(0x57A7);
        for i in 0..self.n {
            let pos = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
            let vel = [
                rng.range_f64(-0.05, 0.05),
                rng.range_f64(-0.05, 0.05),
                rng.range_f64(-0.05, 0.05),
            ];
            let cell = self.cell_of_pos(&pos);
            let ca = self.cell_addr(cell);
            let count = mem.read_u64(ca) as usize;
            assert!(count < CELL_CAP, "cell overflow during init");
            let a = self.mol_addr(cell, count);
            mem.write_u64(a, i as u64);
            for k in 0..3 {
                mem.write_f64(a + 8 + k * 8, pos[k]);
                mem.write_f64(a + 32 + k * 8, vel[k]);
            }
            mem.write_u64(ca, count as u64 + 1);
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let cells = self.num_cells();
            let my_cells: Vec<usize> = (0..cells).filter(|&c| self.owner(c, p) == me).collect();

            for _ in 0..self.steps {
                d.barrier(0).await;
                // Force phase: private accumulation keyed by (cell, slot) for
                // own molecules. Each own molecule interacts with every
                // molecule of id greater than its own in the neighbourhood
                // (each pair computed once, by the owner of the lower id —
                // deterministic per molecule).
                let mut forces: Vec<(usize, usize, [f64; 3])> = Vec::new();
                for &cell in &my_cells {
                    let count = d.read_u64(self.cell_addr(cell)).await as usize;
                    for slot in 0..count {
                        let (id_i, pi, _) = self.read_mol(d, cell, slot).await;
                        let mut f = [0.0f64; 3];
                        for ncell in self.neighbours(cell) {
                            let ncount = d.read_u64(self.cell_addr(ncell)).await as usize;
                            for ns in 0..ncount {
                                if ncell == cell && ns == slot {
                                    continue;
                                }
                                let (id_j, pj, _) = self.read_mol(d, ncell, ns).await;
                                if id_j == id_i {
                                    continue;
                                }
                                let dx = pi[0] - pj[0];
                                let dy = pi[1] - pj[1];
                                let dz = pi[2] - pj[2];
                                let r2 = dx * dx + dy * dy + dz * dz;
                                let cut = 1.0 / (self.c as f64);
                                d.compute(PAIR_FLOPS * FLOP_NS).await;
                                if r2 < cut * cut && r2 > 1e-12 {
                                    let fm = (cut * cut - r2) / (r2 + 1e-3);
                                    f[0] += fm * dx;
                                    f[1] += fm * dy;
                                    f[2] += fm * dz;
                                }
                            }
                        }
                        forces.push((cell, slot, f));
                    }
                }
                d.barrier(0).await;
                // Integration + movement: molecules leaving an owned cell are
                // appended to the destination cell under its lock.
                for (cell, slot, f) in forces {
                    let (id, mut pos, mut vel) = self.read_mol(d, cell, slot).await;
                    for k in 0..3 {
                        vel[k] += DT * f[k];
                        pos[k] += DT * vel[k];
                        if pos[k] < 0.0 {
                            pos[k] = -pos[k];
                            vel[k] = -vel[k];
                        } else if pos[k] > 1.0 {
                            pos[k] = 2.0 - pos[k];
                            vel[k] = -vel[k];
                        }
                    }
                    d.compute(12 * FLOP_NS).await;
                    let dest = self.cell_of_pos(&pos);
                    if dest == cell {
                        self.write_mol(d, cell, slot, id, &pos, &vel).await;
                    } else {
                        // Mark the old slot dead now; compact after the move
                        // barrier. Dead slots keep their position so later
                        // movers in this cell keep consistent slot indices.
                        self.write_mol(d, cell, slot, u64::MAX, &pos, &vel).await;
                        d.lock(dest).await;
                        let dc = d.read_u64(self.cell_addr(dest)).await as usize;
                        assert!(dc < CELL_CAP, "cell overflow during move");
                        self.write_mol(d, dest, dc, id, &pos, &vel).await;
                        d.write_u64(self.cell_addr(dest), dc as u64 + 1).await;
                        d.unlock(dest).await;
                    }
                }
                d.barrier(0).await;
                // Compaction of own cells: drop dead slots.
                for &cell in &my_cells {
                    let ca = self.cell_addr(cell);
                    let count = d.read_u64(ca).await as usize;
                    let mut keep = 0usize;
                    for slot in 0..count {
                        let (id, pos, vel) = self.read_mol(d, cell, slot).await;
                        if id != u64::MAX {
                            if keep != slot {
                                self.write_mol(d, cell, keep, id, &pos, &vel).await;
                            }
                            keep += 1;
                        }
                    }
                    if keep != count {
                        d.write_u64(ca, keep as u64).await;
                    }
                }
                d.barrier(0).await;
            }
        })
    }

    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        // Cell list order is nondeterministic; compare the sorted
        // (id -> position) mapping with a tolerance.
        let collect = |m: &MemImage| {
            let mut v: Vec<(u64, [f64; 3])> = Vec::new();
            for cell in 0..self.num_cells() {
                let ca = self.cell_addr(cell);
                let count = m.read_u64(ca) as usize;
                for slot in 0..count.min(CELL_CAP) {
                    let a = self.mol_addr(cell, slot);
                    let id = m.read_u64(a);
                    let pos = [m.read_f64(a + 8), m.read_f64(a + 16), m.read_f64(a + 24)];
                    v.push((id, pos));
                }
            }
            v.sort_by_key(|e| e.0);
            v
        };
        let a = collect(seq);
        let b = collect(par);
        if a.len() != b.len() {
            return Err(format!(
                "molecule count differs: {} vs {}",
                a.len(),
                b.len()
            ));
        }
        for (x, y) in a.iter().zip(&b) {
            if x.0 != y.0 {
                return Err(format!("molecule ids differ: {} vs {}", x.0, y.0));
            }
            for k in 0..3 {
                if (x.1[k] - y.1[k]).abs() > 1e-6 {
                    return Err(format!(
                        "molecule {} axis {k}: {} vs {}",
                        x.0, x.1[k], y.1[k]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_partition_the_box() {
        let w = WaterSpatial::new(4, 64, 1);
        assert_eq!(w.cell_of_pos(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(w.cell_of_pos(&[0.99, 0.99, 0.99]), w.num_cells() - 1);
        // 1.0 exactly clamps into the last cell.
        assert_eq!(w.cell_of_pos(&[1.0, 0.0, 0.0]), w.cell_idx(3, 0, 0));
    }

    #[test]
    fn neighbours_count_interior_and_corner() {
        let w = WaterSpatial::new(4, 64, 1);
        assert_eq!(w.neighbours(w.cell_idx(1, 1, 1)).len(), 27);
        assert_eq!(w.neighbours(w.cell_idx(0, 0, 0)).len(), 8);
    }

    #[test]
    fn owners_are_contiguous_and_complete() {
        let w = WaterSpatial::new(4, 64, 1);
        let mut last = 0;
        for c in 0..w.num_cells() {
            let o = w.owner(c, 16);
            assert!(o >= last, "ownership must be monotone");
            last = o;
        }
        assert_eq!(w.owner(w.num_cells() - 1, 16), 15);
    }

    #[test]
    fn init_places_all_molecules() {
        let w = WaterSpatial::new(4, 100, 1);
        let mut mem = MemImage::new(w.shared_bytes());
        w.init(&mut mem);
        let total: u64 = (0..w.num_cells())
            .map(|c| mem.read_u64(w.cell_addr(c)))
            .sum();
        assert_eq!(total, 100);
    }
}
