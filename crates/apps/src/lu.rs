//! LU: blocked dense LU factorization (SPLASH-2, contiguous-blocks
//! version).
//!
//! Each `b × b` block is stored contiguously in shared memory and owned by
//! one processor under a 2-D scatter decomposition — the classic
//! single-writer, coarse-grain-access application. No pivoting (the matrix
//! is made diagonally dominant), so the parallel result is bit-identical to
//! the sequential one.

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{XorShift, FLOP_NS};

/// Blocked LU factorization program.
pub struct Lu {
    /// Matrix dimension (n × n doubles).
    pub n: usize,
    /// Block dimension.
    pub b: usize,
    nb: usize,
}

impl Lu {
    /// Scaled-down default (paper: 1024×1024, here 256×256 with 16×16
    /// blocks).
    pub fn new(n: usize, b: usize) -> Self {
        assert_eq!(n % b, 0, "block size must divide n");
        Lu { n, b, nb: n / b }
    }

    /// Blocks are grouped by their (fixed 4×4-scatter) owner and laid out
    /// contiguously per owner — the SPLASH-2 contiguous-blocks allocation
    /// the paper uses, which keeps every page single-writer.
    fn block_addr(&self, bi: usize, bj: usize) -> usize {
        let owner = (bi % 4) * 4 + (bj % 4);
        let per_side = self.nb.div_ceil(4);
        let slot = (bi / 4) * per_side + (bj / 4);
        (owner * per_side * per_side + slot) * self.b * self.b * 8
    }

    fn owner(&self, bi: usize, bj: usize, p: usize) -> usize {
        // 2-D scatter over a pr × pc grid of processors.
        let (pr, pc) = proc_grid(p);
        (bi % pr) * pc + (bj % pc)
    }

    async fn read_block(&self, d: &mut Dsm, bi: usize, bj: usize, out: &mut [f64]) {
        d.read_f64s(self.block_addr(bi, bj), out).await;
    }

    async fn write_block(&self, d: &mut Dsm, bi: usize, bj: usize, vals: &[f64]) {
        d.write_f64s(self.block_addr(bi, bj), vals).await;
    }
}

/// Factor processors into the most square pr × pc grid.
fn proc_grid(p: usize) -> (usize, usize) {
    let mut pr = (p as f64).sqrt() as usize;
    while !p.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr, p / pr)
}

impl DsmProgram for Lu {
    fn name(&self) -> String {
        "lu".into()
    }

    fn shared_bytes(&self) -> usize {
        let per_side = self.nb.div_ceil(4);
        16 * per_side * per_side * self.b * self.b * 8
    }

    fn regions(&self) -> Vec<RegionHint> {
        // One homogeneous single-writer matrix; the hint names it so
        // per-region reports and the adaptive runtime can still target it.
        vec![RegionHint::new("matrix", 0, self.shared_bytes())]
    }

    fn poll_inflation_pct(&self) -> u32 {
        // Paper §5.4: LU with polling instrumentation runs 55% slower on
        // one processor.
        55
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            // Touch-array phase: each processor touches the blocks it owns so
            // they are homed locally before measurement (paper §2).
            let p = d.num_nodes();
            let me = d.node();
            for bi in 0..self.nb {
                for bj in 0..self.nb {
                    if self.owner(bi, bj, p) == me {
                        touch_region(d, self.block_addr(bi, bj), self.b * self.b * 8).await;
                    }
                }
            }
        })
    }

    fn init(&self, mem: &mut MemImage) {
        let mut rng = XorShift::new(0x1_u64);
        // Diagonally dominant so that unpivoted LU is stable.
        for bi in 0..self.nb {
            for bj in 0..self.nb {
                let base = self.block_addr(bi, bj);
                for r in 0..self.b {
                    for c in 0..self.b {
                        let (gi, gj) = (bi * self.b + r, bj * self.b + c);
                        let mut v = rng.range_f64(-1.0, 1.0);
                        if gi == gj {
                            v += self.n as f64;
                        }
                        mem.write_f64(base + (r * self.b + c) * 8, v);
                    }
                }
            }
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let me = d.node();
            let p = d.num_nodes();
            let (b, nb) = (self.b, self.nb);
            let bb = b * b;
            let mut kk = vec![0.0f64; bb];
            let mut blk = vec![0.0f64; bb];
            let mut other = vec![0.0f64; bb];

            for k in 0..nb {
                // Factor the diagonal block.
                if self.owner(k, k, p) == me {
                    self.read_block(d, k, k, &mut kk).await;
                    lu0(&mut kk, b);
                    self.write_block(d, k, k, &kk).await;
                    d.compute((2 * bb * b / 3) as u64 * FLOP_NS).await;
                }
                d.barrier(0).await;
                // Perimeter blocks.
                let mut have_kk = false;
                for j in k + 1..nb {
                    if self.owner(k, j, p) == me {
                        if !have_kk {
                            self.read_block(d, k, k, &mut kk).await;
                            have_kk = true;
                        }
                        self.read_block(d, k, j, &mut blk).await;
                        bdiv(&kk, &mut blk, b);
                        self.write_block(d, k, j, &blk).await;
                        d.compute((bb * b) as u64 * FLOP_NS).await;
                    }
                }
                for i in k + 1..nb {
                    if self.owner(i, k, p) == me {
                        if !have_kk {
                            self.read_block(d, k, k, &mut kk).await;
                            have_kk = true;
                        }
                        self.read_block(d, i, k, &mut blk).await;
                        bmodd(&kk, &mut blk, b);
                        self.write_block(d, i, k, &blk).await;
                        d.compute((bb * b) as u64 * FLOP_NS).await;
                    }
                }
                d.barrier(0).await;
                // Interior updates.
                for i in k + 1..nb {
                    for j in k + 1..nb {
                        if self.owner(i, j, p) == me {
                            self.read_block(d, i, k, &mut kk).await;
                            self.read_block(d, k, j, &mut other).await;
                            self.read_block(d, i, j, &mut blk).await;
                            bmod(&kk, &other, &mut blk, b);
                            self.write_block(d, i, j, &blk).await;
                            d.compute((2 * bb * b) as u64 * FLOP_NS).await;
                        }
                    }
                }
                d.barrier(0).await;
            }
            d.barrier(0).await;
        })
    }
}

// The block kernels are host code, but their results are the model's: every
// parallel cell is checked against the sequential image, and the tests pin
// that image. So each element sees the same IEEE operations in the same
// order as the plain triple loops kept under `tests::reference` — a
// rewrite may change which loop is outermost where elements are
// independent, never how one element is computed (no `mul_add`, no
// reassociation, the `x != 0.0` skip kept). Rows are taken as slices so the
// inner loops carry no bounds checks and the compiler sees that the row
// being written and the row being read do not alias.

/// `dst[j] -= x * src[j]` for every `j`.
#[inline]
fn axpy_sub(dst: &mut [f64], x: f64, src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d -= x * s;
    }
}

/// In-place unpivoted LU of one block.
fn lu0(a: &mut [f64], b: usize) {
    for c in 0..b {
        let (upper, lower) = a.split_at_mut((c + 1) * b);
        let row_c = &upper[c * b..];
        let pivot = row_c[c];
        for row in lower.chunks_exact_mut(b) {
            row[c] /= pivot;
            let l = row[c];
            axpy_sub(&mut row[c + 1..], l, &row_c[c + 1..]);
        }
    }
}

/// Solve L(kk) · X = blk in place (perimeter row blocks).
fn bdiv(kk: &[f64], blk: &mut [f64], b: usize) {
    for c in 0..b {
        let (upper, lower) = blk.split_at_mut((c + 1) * b);
        let row_c = &upper[c * b..];
        for (row, kk_row) in lower
            .chunks_exact_mut(b)
            .zip(kk.chunks_exact(b).skip(c + 1))
        {
            axpy_sub(row, kk_row[c], row_c);
        }
    }
}

/// Solve X · U(kk) = blk in place (perimeter column blocks). A row of the
/// result depends on that row and `kk` only, so rows go outermost.
fn bmodd(kk: &[f64], blk: &mut [f64], b: usize) {
    for row in blk.chunks_exact_mut(b) {
        for (c, kk_row) in kk.chunks_exact(b).enumerate() {
            row[c] /= kk_row[c];
            let x = row[c];
            axpy_sub(&mut row[c + 1..], x, &kk_row[c + 1..]);
        }
    }
}

/// Columns of an output row `bmod` keeps in registers across a whole row of
/// `ik`.
const CHUNK: usize = 8;

/// Interior update: blk -= ik · kj. Each output row is taken `CHUNK`
/// columns at a time, held in a local array while every row of `kj` is
/// subtracted from it in order, then stored once; the last `b % CHUNK`
/// columns one at a time the same way.
fn bmod(ik: &[f64], kj: &[f64], blk: &mut [f64], b: usize) {
    for (row, ik_row) in blk.chunks_exact_mut(b).zip(ik.chunks_exact(b)) {
        let mut chunks = row.chunks_exact_mut(CHUNK);
        for (i, out) in (&mut chunks).enumerate() {
            let j0 = i * CHUNK;
            let mut acc = [0.0f64; CHUNK];
            acc.copy_from_slice(out);
            for (&x, kj_row) in ik_row.iter().zip(kj.chunks_exact(b)) {
                if x != 0.0 {
                    axpy_sub(&mut acc, x, &kj_row[j0..j0 + CHUNK]);
                }
            }
            out.copy_from_slice(&acc);
        }
        let tail = chunks.into_remainder();
        let j0 = b - tail.len();
        for (j, out) in (j0..).zip(tail) {
            let mut acc = *out;
            for (&x, kj_row) in ik_row.iter().zip(kj.chunks_exact(b)) {
                if x != 0.0 {
                    acc -= x * kj_row[j];
                }
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{app_sized, AppSize};
    use dsm_core::run_sequential;
    use dsm_sim::rng::StableHasher;

    /// The kernels as plain indexed triple loops: the order of operations
    /// the row-slice kernels above must reproduce bit for bit.
    mod reference {
        pub fn lu0(a: &mut [f64], b: usize) {
            for c in 0..b {
                let pivot = a[c * b + c];
                for r in c + 1..b {
                    a[r * b + c] /= pivot;
                    let l = a[r * b + c];
                    for j in c + 1..b {
                        a[r * b + j] -= l * a[c * b + j];
                    }
                }
            }
        }

        pub fn bdiv(kk: &[f64], blk: &mut [f64], b: usize) {
            for c in 0..b {
                for r in c + 1..b {
                    let l = kk[r * b + c];
                    for j in 0..b {
                        blk[r * b + j] -= l * blk[c * b + j];
                    }
                }
            }
        }

        pub fn bmodd(kk: &[f64], blk: &mut [f64], b: usize) {
            for c in 0..b {
                let pivot = kk[c * b + c];
                for r in 0..b {
                    blk[r * b + c] /= pivot;
                    let x = blk[r * b + c];
                    for j in c + 1..b {
                        blk[r * b + j] -= x * kk[c * b + j];
                    }
                }
            }
        }

        pub fn bmod(ik: &[f64], kj: &[f64], blk: &mut [f64], b: usize) {
            for r in 0..b {
                for c in 0..b {
                    let x = ik[r * b + c];
                    if x != 0.0 {
                        for j in 0..b {
                            blk[r * b + j] -= x * kj[c * b + j];
                        }
                    }
                }
            }
        }
    }

    /// A `b × b` block of awkward values: zeros of both signs (the skip
    /// branch), subnormals and magnitudes near 1e300 (overflow to infinities
    /// and NaNs) among ordinary ones, diagonally dominant when `dominant`.
    fn awkward_block(rng: &mut XorShift, b: usize, dominant: bool) -> Vec<f64> {
        let mut blk: Vec<f64> = (0..b * b)
            .map(|_| match rng.below(16) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => rng.range_f64(-1.0, 1.0) * 1e-310,
                4 => rng.range_f64(-1.0, 1.0) * 1e300,
                _ => rng.range_f64(-1.0, 1.0),
            })
            .collect();
        if dominant {
            for i in 0..b {
                blk[i * b + i] += b as f64;
            }
        }
        blk
    }

    fn assert_same_bits(kernel: &str, b: usize, trial: usize, new: &[f64], old: &[f64]) {
        let at = new
            .iter()
            .zip(old)
            .position(|(x, y)| x.to_bits() != y.to_bits());
        if let Some(i) = at {
            panic!(
                "{kernel} b={b} trial {trial}: element {i} is {:e}, reference {:e}",
                new[i], old[i]
            );
        }
    }

    #[test]
    fn kernels_are_the_reference_kernels_bit_for_bit() {
        let mut rng = XorShift::new(0x5eed_0026);
        for b in 1..=20 {
            for trial in 0..6 {
                let dominant = trial % 2 == 0;
                let kk = awkward_block(&mut rng, b, dominant);
                let other = awkward_block(&mut rng, b, dominant);
                let blk = awkward_block(&mut rng, b, dominant);

                let (mut new, mut old) = (kk.clone(), kk.clone());
                lu0(&mut new, b);
                reference::lu0(&mut old, b);
                assert_same_bits("lu0", b, trial, &new, &old);

                let (mut new, mut old) = (blk.clone(), blk.clone());
                bdiv(&kk, &mut new, b);
                reference::bdiv(&kk, &mut old, b);
                assert_same_bits("bdiv", b, trial, &new, &old);

                let (mut new, mut old) = (blk.clone(), blk.clone());
                bmodd(&kk, &mut new, b);
                reference::bmodd(&kk, &mut old, b);
                assert_same_bits("bmodd", b, trial, &new, &old);

                let (mut new, mut old) = (blk.clone(), blk.clone());
                bmod(&kk, &other, &mut new, b);
                reference::bmod(&kk, &other, &mut old, b);
                assert_same_bits("bmod", b, trial, &new, &old);
            }
        }
    }

    #[test]
    fn sequential_images_are_pinned() {
        // Image fingerprints and modelled times of the sequential baseline,
        // taken with the reference kernels: every LU cell is verified
        // against this image, and every speedup divides by this time.
        for (size, hash, time_ns) in [
            (AppSize::Small, 0x3b1b_a92b_8b9d_07dd, 28_885_300),
            (AppSize::Standard, 0x2422_c50a_b05f_dae1, 14_093_671_780),
        ] {
            let (img, t) = run_sequential(app_sized("lu", size).unwrap().as_ref());
            assert_eq!(
                (StableHasher::fingerprint(img.bytes()), t),
                (hash, time_ns),
                "{size:?} lu"
            );
        }
    }

    #[test]
    fn proc_grid_is_square_for_16() {
        assert_eq!(proc_grid(16), (4, 4));
        assert_eq!(proc_grid(1), (1, 1));
        assert_eq!(proc_grid(8), (2, 4));
    }

    #[test]
    fn lu0_factors_small_matrix() {
        // A = L·U for a 2x2: [[4,2],[2,3]] -> L21=0.5, U=[[4,2],[0,2]]
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        lu0(&mut a, 2);
        assert_eq!(a, vec![4.0, 2.0, 0.5, 2.0]);
    }

    #[test]
    fn blocked_equals_unblocked() {
        // Factor an 8x8 matrix with the blocked kernels (b=4) and compare
        // against plain lu0 on the whole matrix.
        let n = 8;
        let mut rng = XorShift::new(3);
        let mut full = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                full[i * n + j] = rng.range_f64(-1.0, 1.0) + if i == j { 8.0 } else { 0.0 };
            }
        }
        let mut expect = full.clone();
        lu0(&mut expect, n);

        // Blocked: 2x2 grid of 4x4 blocks.
        let b = 4;
        let nb = 2;
        let get = |m: &Vec<f64>, bi: usize, bj: usize| -> Vec<f64> {
            let mut out = vec![0.0; b * b];
            for r in 0..b {
                for c in 0..b {
                    out[r * b + c] = m[(bi * b + r) * n + (bj * b + c)];
                }
            }
            out
        };
        let put = |m: &mut Vec<f64>, bi: usize, bj: usize, blk: &Vec<f64>| {
            for r in 0..b {
                for c in 0..b {
                    m[(bi * b + r) * n + (bj * b + c)] = blk[r * b + c];
                }
            }
        };
        let mut m = full.clone();
        for k in 0..nb {
            let mut kk = get(&m, k, k);
            lu0(&mut kk, b);
            put(&mut m, k, k, &kk);
            for j in k + 1..nb {
                let mut kj = get(&m, k, j);
                bdiv(&kk, &mut kj, b);
                put(&mut m, k, j, &kj);
            }
            for i in k + 1..nb {
                let mut ik = get(&m, i, k);
                bmodd(&kk, &mut ik, b);
                put(&mut m, i, k, &ik);
            }
            for i in k + 1..nb {
                let ik = get(&m, i, k);
                for j in k + 1..nb {
                    let kj = get(&m, k, j);
                    let mut ij = get(&m, i, j);
                    bmod(&ik, &kj, &mut ij, b);
                    put(&mut m, i, j, &ij);
                }
            }
        }
        for i in 0..n * n {
            assert!(
                (m[i] - expect[i]).abs() < 1e-9,
                "mismatch at {i}: {} vs {}",
                m[i],
                expect[i]
            );
        }
    }
}
