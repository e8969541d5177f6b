//! FFT: the SPLASH-2 six-step 1-D FFT kernel.
//!
//! The n complex points live in a √n × √n matrix; each processor owns a
//! contiguous band of rows. Row FFTs and twiddles are local and coarse
//! grained; the three transposes read one complex (16 bytes) at a time from
//! every other processor's partition — the paper's canonical single-writer,
//! fine-grained-read pattern (their 192-byte subrow reads).

use std::f64::consts::PI;

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{XorShift, FLOP_NS};

/// Six-step FFT program over `n = m*m` complex points.
pub struct Fft {
    /// √n: the matrix dimension.
    pub m: usize,
}

impl Fft {
    /// `m` must be a power of two (row FFTs are radix-2).
    pub fn new(m: usize) -> Self {
        assert!(m.is_power_of_two());
        Fft { m }
    }

    fn n(&self) -> usize {
        self.m * self.m
    }

    /// Address of element (row, col) of matrix `which` (0 or 1).
    fn at(&self, which: usize, row: usize, col: usize) -> usize {
        which * self.n() * 16 + (row * self.m + col) * 16
    }

    /// Rows `me` owns of `p` processors' near-equal bands; every row is
    /// owned even when `p` does not divide the dimension.
    fn my_rows(&self, me: usize, p: usize) -> std::ops::Range<usize> {
        self.m * me / p..self.m * (me + 1) / p
    }

    /// Blocked transpose src -> dst: each processor writes its own rows of
    /// dst, reading columns of src element-wise.
    async fn transpose(&self, d: &mut Dsm, src: usize, dst: usize) {
        let (me, p) = (d.node(), d.num_nodes());
        let mut buf = [0.0f64; 2];
        for r in self.my_rows(me, p) {
            for c in 0..self.m {
                d.read_f64s(self.at(src, c, r), &mut buf).await;
                d.write_f64s(self.at(dst, r, c), &buf).await;
                d.compute(2 * FLOP_NS).await;
            }
        }
    }

    /// FFT every owned row of matrix `which` in place.
    async fn fft_rows(&self, d: &mut Dsm, which: usize, inverse: bool) {
        let (me, p) = (d.node(), d.num_nodes());
        let mut row = vec![0.0f64; 2 * self.m];
        for r in self.my_rows(me, p) {
            d.read_f64s(self.at(which, r, 0), &mut row).await;
            fft_in_place(&mut row, inverse);
            d.write_f64s(self.at(which, r, 0), &row).await;
            let logm = self.m.trailing_zeros() as u64;
            d.compute(5 * self.m as u64 * logm * FLOP_NS).await;
        }
    }

    /// Multiply owned rows of `which` by the twiddle factors W^(r*c).
    async fn twiddle(&self, d: &mut Dsm, which: usize) {
        let (me, p) = (d.node(), d.num_nodes());
        let n = self.n() as f64;
        let mut row = vec![0.0f64; 2 * self.m];
        for r in self.my_rows(me, p) {
            d.read_f64s(self.at(which, r, 0), &mut row).await;
            for c in 0..self.m {
                let ang = -2.0 * PI * (r * c) as f64 / n;
                let (s, co) = ang.sin_cos();
                let (re, im) = (row[2 * c], row[2 * c + 1]);
                row[2 * c] = re * co - im * s;
                row[2 * c + 1] = re * s + im * co;
            }
            d.write_f64s(self.at(which, r, 0), &row).await;
            d.compute(20 * self.m as u64 * FLOP_NS).await;
        }
    }
}

impl DsmProgram for Fft {
    fn name(&self) -> String {
        "fft".into()
    }

    fn shared_bytes(&self) -> usize {
        2 * self.n() * 16
    }

    fn regions(&self) -> Vec<RegionHint> {
        // The two matrices have distinct roles per phase (transpose source
        // vs destination), so they can profit from different policies.
        vec![
            RegionHint::new("matrix0", 0, self.n() * 16),
            RegionHint::new("matrix1", self.n() * 16, self.n() * 16),
        ]
    }

    fn poll_inflation_pct(&self) -> u32 {
        20
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            for which in 0..2 {
                for r in self.my_rows(me, p) {
                    touch_region(d, self.at(which, r, 0), self.m * 16).await;
                }
            }
        })
    }

    fn init(&self, mem: &mut MemImage) {
        let mut rng = XorShift::new(0xFF7);
        for i in 0..self.n() {
            mem.write_f64(i * 16, rng.range_f64(-1.0, 1.0));
            mem.write_f64(i * 16 + 8, rng.range_f64(-1.0, 1.0));
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            // Six-step: transpose, row FFTs, twiddle, transpose, row FFTs,
            // transpose. The result lands in matrix 1.
            d.barrier(0).await;
            self.transpose(d, 0, 1).await;
            d.barrier(0).await;
            self.fft_rows(d, 1, false).await;
            self.twiddle(d, 1).await;
            d.barrier(0).await;
            self.transpose(d, 1, 0).await;
            d.barrier(0).await;
            self.fft_rows(d, 0, false).await;
            d.barrier(0).await;
            self.transpose(d, 0, 1).await;
            d.barrier(0).await;
        })
    }
}

/// Iterative radix-2 FFT of interleaved (re, im) pairs.
fn fft_in_place(row: &mut [f64], inverse: bool) {
    let n = row.len() / 2;
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            row.swap(2 * i, 2 * j);
            row.swap(2 * i + 1, 2 * j + 1);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (ws, wc) = ang.sin_cos();
        let mut i = 0;
        while i < n {
            let (mut cur_re, mut cur_im) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let a = i + k;
                let b = a + len / 2;
                let (bre, bim) = (row[2 * b], row[2 * b + 1]);
                let tre = bre * cur_re - bim * cur_im;
                let tim = bre * cur_im + bim * cur_re;
                let (are, aim) = (row[2 * a], row[2 * a + 1]);
                row[2 * a] = are + tre;
                row[2 * a + 1] = aim + tim;
                row[2 * b] = are - tre;
                row[2 * b + 1] = aim - tim;
                let nre = cur_re * wc - cur_im * ws;
                cur_im = cur_re * ws + cur_im * wc;
                cur_re = nre;
            }
            i += len;
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut row = vec![0.0; 16];
        row[0] = 1.0; // delta at 0
        fft_in_place(&mut row, false);
        for k in 0..8 {
            assert!((row[2 * k] - 1.0).abs() < 1e-12);
            assert!(row[2 * k + 1].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_inverse_round_trips() {
        let mut rng = XorShift::new(11);
        let orig: Vec<f64> = (0..32).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut row = orig.clone();
        fft_in_place(&mut row, false);
        fft_in_place(&mut row, true);
        let n = 16.0;
        for i in 0..32 {
            assert!((row[i] / n - orig[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn fft_matches_dft() {
        let mut rng = XorShift::new(5);
        let src: Vec<f64> = (0..16).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut row = src.clone();
        fft_in_place(&mut row, false);
        let n = 8;
        for k in 0..n {
            let (mut re, mut im) = (0.0, 0.0);
            for t in 0..n {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                let (s, c) = ang.sin_cos();
                re += src[2 * t] * c - src[2 * t + 1] * s;
                im += src[2 * t] * s + src[2 * t + 1] * c;
            }
            assert!((row[2 * k] - re).abs() < 1e-10);
            assert!((row[2 * k + 1] - im).abs() < 1e-10);
        }
    }
}
