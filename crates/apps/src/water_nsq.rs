//! Water-Nsquared: O(n²/2) molecular dynamics with a cutoff radius
//! (SPLASH-2), the paper's multiple-writer, coarse-grain-access,
//! fine-grain-synchronization application.
//!
//! Molecules are a contiguous array partitioned into contiguous chunks of
//! n/p. In the force phase each processor computes interactions between its
//! molecules and the following n/2 molecules (wrapping), accumulates
//! partial forces privately, and then merges them into the shared force
//! array under per-partition locks — the migratory multi-writer pattern.
//! Force merge order depends on lock acquisition order, so verification is
//! an epsilon check on positions.

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{XorShift, FLOP_NS};

const CUTOFF2: f64 = 0.25 * 0.25;
const DT: f64 = 1e-4;
const PAIR_FLOPS: u64 = 30;

/// Water-Nsquared program.
pub struct WaterNsq {
    /// Number of molecules.
    pub n: usize,
    /// Time steps.
    pub steps: usize,
}

impl WaterNsq {
    /// Scaled default: paper used 4096 molecules, 3 steps.
    pub fn new(n: usize, steps: usize) -> Self {
        WaterNsq { n, steps }
    }

    // Layout: one 256-byte record per molecule (pos, vel, force, plus the
    // higher-order-derivative state the SPLASH-2 molecule carries, which
    // our simplified force law never reads but which keeps the spatial
    // density realistic: a partition spans multiple pages, as in the
    // paper's 4096-molecule runs).
    const REC: usize = 256;

    fn pos(&self, i: usize) -> usize {
        i * Self::REC
    }
    fn vel(&self, i: usize) -> usize {
        i * Self::REC + 24
    }
    fn force(&self, i: usize) -> usize {
        i * Self::REC + 48
    }
}

impl DsmProgram for WaterNsq {
    fn name(&self) -> String {
        "water-nsquared".into()
    }

    fn shared_bytes(&self) -> usize {
        self.n * Self::REC
    }

    fn regions(&self) -> Vec<RegionHint> {
        vec![RegionHint::new("molecules", 0, self.shared_bytes())]
    }

    fn poll_inflation_pct(&self) -> u32 {
        15
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let per = self.n / p;
            let lo = me * per;
            let hi = if me == p - 1 { self.n } else { lo + per };
            touch_region(d, self.pos(lo), (hi - lo) * Self::REC).await;
        })
    }

    fn init(&self, mem: &mut MemImage) {
        let mut rng = XorShift::new(0x3A7E6);
        for i in 0..self.n {
            for k in 0..3 {
                mem.write_f64(self.pos(i) + k * 8, rng.range_f64(0.0, 1.0));
                mem.write_f64(self.vel(i) + k * 8, rng.range_f64(-0.05, 0.05));
                mem.write_f64(self.force(i) + k * 8, 0.0);
            }
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let per = self.n / p;
            let lo = me * per;
            let hi = if me == p - 1 { self.n } else { lo + per };
            let half = self.n / 2;

            for _ in 0..self.steps {
                d.barrier(0).await;
                // Force phase: interactions between own molecules and the next
                // n/2 (wrapping), accumulated privately.
                let mut acc = vec![0.0f64; 3 * self.n];
                let mut pi = [0.0f64; 3];
                let mut pj = [0.0f64; 3];
                for i in lo..hi {
                    d.read_f64s(self.pos(i), &mut pi).await;
                    for off in 1..=half {
                        let j = (i + off) % self.n;
                        d.read_f64s(self.pos(j), &mut pj).await;
                        let dx = pi[0] - pj[0];
                        let dy = pi[1] - pj[1];
                        let dz = pi[2] - pj[2];
                        let r2 = dx * dx + dy * dy + dz * dz;
                        d.compute(PAIR_FLOPS * FLOP_NS).await;
                        if r2 < CUTOFF2 && r2 > 1e-12 {
                            // Soft short-range repulsion.
                            let f = (CUTOFF2 - r2) / (r2 + 1e-3);
                            acc[3 * i] += f * dx;
                            acc[3 * i + 1] += f * dy;
                            acc[3 * i + 2] += f * dz;
                            acc[3 * j] -= f * dx;
                            acc[3 * j + 1] -= f * dy;
                            acc[3 * j + 2] -= f * dz;
                        }
                    }
                }
                // Merge private accumulations under per-partition locks.
                let mut f = [0.0f64; 3];
                for q in 0..p {
                    let target = (me + q) % p;
                    let qlo = target * per;
                    let qhi = if target == p - 1 { self.n } else { qlo + per };
                    let any = (qlo..qhi).any(|i| {
                        acc[3 * i] != 0.0 || acc[3 * i + 1] != 0.0 || acc[3 * i + 2] != 0.0
                    });
                    if !any {
                        continue;
                    }
                    d.lock(target).await;
                    for i in qlo..qhi {
                        if acc[3 * i] == 0.0 && acc[3 * i + 1] == 0.0 && acc[3 * i + 2] == 0.0 {
                            continue;
                        }
                        d.read_f64s(self.force(i), &mut f).await;
                        f[0] += acc[3 * i];
                        f[1] += acc[3 * i + 1];
                        f[2] += acc[3 * i + 2];
                        d.write_f64s(self.force(i), &f).await;
                        d.compute(3 * FLOP_NS).await;
                    }
                    d.unlock(target).await;
                }
                d.barrier(0).await;
                // Integration: own molecules only (single writer).
                let mut v = [0.0f64; 3];
                for i in lo..hi {
                    d.read_f64s(self.force(i), &mut f).await;
                    d.read_f64s(self.vel(i), &mut v).await;
                    d.read_f64s(self.pos(i), &mut pi).await;
                    for k in 0..3 {
                        v[k] += DT * f[k];
                        pi[k] += DT * v[k];
                        // Reflecting walls keep the box bounded.
                        if pi[k] < 0.0 {
                            pi[k] = -pi[k];
                            v[k] = -v[k];
                        } else if pi[k] > 1.0 {
                            pi[k] = 2.0 - pi[k];
                            v[k] = -v[k];
                        }
                        f[k] = 0.0;
                    }
                    d.write_f64s(self.vel(i), &v).await;
                    d.write_f64s(self.pos(i), &pi).await;
                    d.write_f64s(self.force(i), &f).await;
                    d.compute(12 * FLOP_NS).await;
                }
                d.barrier(0).await;
            }
        })
    }

    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        // Force merges reassociate additions; positions and velocities must
        // agree to a tight tolerance.
        let mut worst = 0.0f64;
        for i in 0..self.n {
            for k in 0..6 {
                let a = seq.read_f64(self.pos(i) + k * 8);
                let b = par.read_f64(self.pos(i) + k * 8);
                worst = worst.max((a - b).abs());
            }
        }
        if worst < 1e-6 {
            Ok(())
        } else {
            Err(format!("positions/velocities diverge by {worst}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_disjoint() {
        let w = WaterNsq::new(8, 1);
        assert_eq!(w.vel(3), w.pos(3) + 24);
        assert_eq!(w.force(3), w.pos(3) + 48);
        assert_eq!(w.pos(7) + 256, w.shared_bytes());
    }
}
