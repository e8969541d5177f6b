//! Vertex-centric graph analytics: PageRank over a seeded synthetic graph —
//! the second "modern workload" family.
//!
//! The graph is generated deterministically from the seed at init time:
//! every vertex gets a few out-edges whose targets are drawn Zipfian, so a
//! small set of hub vertices collects most in-edges (a power-law-ish degree
//! profile). The in-edges are stored as a CSR in shared memory, read-only
//! after init; two rank buffers are double-buffered across iterations with
//! a barrier between them.
//!
//! Each vertex has exactly one writer (its block owner) and per-vertex
//! in-edge order is fixed, so the floating-point sums — and therefore the
//! final image — are bit-identical for any cluster size, and the program is
//! data-race-free by construction (reads of the previous buffer, writes to
//! the next, separated by barriers).

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{XorShift, FLOP_NS};
use crate::zipf::Zipf;

/// PageRank damping factor.
const DAMPING: f64 = 0.85;

/// Zipf exponent (×100) for edge targets: mild skew, pronounced hubs.
const TARGET_THETA_X100: u32 = 70;

/// Pull-based PageRank program.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Seed for graph generation.
    pub seed: u64,
    /// Vertex count.
    pub vertices: usize,
    /// Maximum out-degree per vertex (actual degree is 1..=max drawn from
    /// the seed).
    pub max_out: usize,
    /// Rank iterations.
    pub iters: usize,
}

impl PageRank {
    /// A graph kernel with the given shape. Panics where
    /// [`PageRank::try_new`] errs.
    pub fn new(seed: u64, vertices: usize, max_out: usize, iters: usize) -> Self {
        Self::try_new(seed, vertices, max_out, iters).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PageRank::new`], or the first parameter outside its range, named.
    pub fn try_new(
        seed: u64,
        vertices: usize,
        max_out: usize,
        iters: usize,
    ) -> Result<Self, String> {
        for (name, value, min) in [
            ("vertices", vertices, 2),
            ("max_out", max_out, 1),
            ("iters", iters, 1),
        ] {
            if value < min {
                return Err(format!("{name} = {value}: must be at least {min}"));
            }
        }
        Ok(PageRank {
            seed,
            vertices,
            max_out,
            iters,
        })
    }

    /// Deterministic edge list: `(u, targets_of_u)` in vertex order.
    fn edges(&self) -> Vec<Vec<usize>> {
        let mut rng = XorShift::new(self.seed ^ 0xA5A5_5A5A);
        let zipf = Zipf::new(self.vertices, TARGET_THETA_X100 as f64 / 100.0);
        (0..self.vertices)
            .map(|_| {
                let deg = 1 + rng.below(self.max_out);
                (0..deg).map(|_| zipf.sample(&mut rng)).collect()
            })
            .collect()
    }

    fn total_edges(&self) -> usize {
        self.edges().iter().map(Vec::len).sum()
    }

    // Layout: ranks0 | ranks1 | (page pad) | outdeg | in_offsets | in_edges
    fn ranks_addr(&self, buf: usize, v: usize) -> usize {
        (buf * self.vertices + v) * 8
    }
    /// Start of the read-only CSR area. The rank buffers are padded out to
    /// a page boundary so the two region hints survive mixed-mode carving
    /// (region starts are aligned down to the coarsest granularity, 4096).
    pub fn graph_base(&self) -> usize {
        (2 * self.vertices * 8).div_ceil(4096) * 4096
    }
    fn outdeg_addr(&self, v: usize) -> usize {
        self.graph_base() + v * 8
    }
    fn offsets_addr(&self, v: usize) -> usize {
        self.graph_base() + (self.vertices + v) * 8
    }
    fn in_edges_addr(&self, i: usize) -> usize {
        self.graph_base() + (2 * self.vertices + 1 + i) * 8
    }

    /// Vertex range owned by `me` in a `p`-node run (block partition).
    fn my_range(&self, me: usize, p: usize) -> (usize, usize) {
        let per = self.vertices.div_ceil(p);
        (
            (me * per).min(self.vertices),
            ((me + 1) * per).min(self.vertices),
        )
    }
}

impl DsmProgram for PageRank {
    fn name(&self) -> String {
        "pagerank".into()
    }

    fn shared_bytes(&self) -> usize {
        self.graph_base() + (2 * self.vertices + 1 + self.total_edges()) * 8
    }

    fn regions(&self) -> Vec<RegionHint> {
        // The rank buffers churn every iteration; the CSR is read-only
        // after warm-up — exactly the split the adaptive planner should see.
        vec![
            RegionHint::new("ranks", 0, self.graph_base()),
            RegionHint::new(
                "graph",
                self.graph_base(),
                self.shared_bytes() - self.graph_base(),
            ),
        ]
    }

    fn init(&self, mem: &mut MemImage) {
        let edges = self.edges();
        let r0 = 1.0 / self.vertices as f64;
        for (v, out) in edges.iter().enumerate() {
            mem.write_f64(self.ranks_addr(0, v), r0);
            mem.write_f64(self.ranks_addr(1, v), 0.0);
            mem.write_u64(self.outdeg_addr(v), out.len() as u64);
        }
        // In-CSR: for each vertex, the list of its in-neighbours in
        // (source-vertex, position) order — deterministic.
        let mut in_lists: Vec<Vec<usize>> = vec![Vec::new(); self.vertices];
        for (u, ts) in edges.iter().enumerate() {
            for &t in ts {
                in_lists[t].push(u);
            }
        }
        let mut off = 0usize;
        for (v, ins) in in_lists.iter().enumerate() {
            mem.write_u64(self.offsets_addr(v), off as u64);
            for (i, &u) in ins.iter().enumerate() {
                mem.write_u64(self.in_edges_addr(off + i), u as u64);
            }
            off += ins.len();
        }
        mem.write_u64(self.offsets_addr(self.vertices), off as u64);
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let (lo, hi) = self.my_range(me, p);
            if lo >= hi {
                return;
            }
            // Own rank slots (both buffers) and the owned slice of the CSR.
            touch_region(d, self.ranks_addr(0, lo), (hi - lo) * 8).await;
            touch_region(d, self.ranks_addr(1, lo), (hi - lo) * 8).await;
            touch_region(d, self.outdeg_addr(lo), (hi - lo) * 8).await;
            let s = d.read_u64(self.offsets_addr(lo)).await as usize;
            let e = d.read_u64(self.offsets_addr(hi)).await as usize;
            touch_region(d, self.offsets_addr(lo), (hi - lo + 1) * 8).await;
            if e > s {
                touch_region(d, self.in_edges_addr(s), (e - s) * 8).await;
            }
        })
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let (lo, hi) = self.my_range(me, p);
            let base = (1.0 - DAMPING) / self.vertices as f64;
            for t in 0..self.iters {
                let (cur, next) = (t % 2, 1 - t % 2);
                for v in lo..hi {
                    let s = d.read_u64(self.offsets_addr(v)).await as usize;
                    let e = d.read_u64(self.offsets_addr(v + 1)).await as usize;
                    let mut sum = 0.0;
                    for i in s..e {
                        let u = d.read_u64(self.in_edges_addr(i)).await as usize;
                        let r = d.read_f64(self.ranks_addr(cur, u)).await;
                        let deg = d.read_u64(self.outdeg_addr(u)).await as f64;
                        sum += r / deg;
                    }
                    d.write_f64(self.ranks_addr(next, v), base + DAMPING * sum)
                        .await;
                    d.compute((3 * (e - s) as u64 + 4) * FLOP_NS).await;
                }
                d.barrier(0).await;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_generation_is_deterministic() {
        let a = PageRank::new(9, 64, 4, 2).edges();
        let b = PageRank::new(9, 64, 4, 2).edges();
        assert_eq!(a, b);
        assert_ne!(a, PageRank::new(10, 64, 4, 2).edges());
    }

    #[test]
    fn hubs_attract_in_edges() {
        // Zipfian targets: the most-cited vertex must collect far more
        // in-edges than the median vertex.
        let pr = PageRank::new(4, 256, 6, 1);
        let mut indeg = vec![0usize; 256];
        for ts in pr.edges() {
            for t in ts {
                indeg[t] += 1;
            }
        }
        let max = *indeg.iter().max().unwrap();
        let mut sorted = indeg.clone();
        sorted.sort_unstable();
        let median = sorted[128];
        assert!(max >= 8 * median.max(1), "max {max} median {median}");
    }

    #[test]
    fn layout_covers_all_edges() {
        let pr = PageRank::new(2, 32, 3, 1);
        let e = pr.total_edges();
        assert_eq!(pr.graph_base() % 4096, 0);
        assert_eq!(pr.shared_bytes(), pr.graph_base() + (2 * 32 + 1 + e) * 8);
        let mut mem = MemImage::new(pr.shared_bytes());
        pr.init(&mut mem);
        assert_eq!(mem.read_u64(pr.offsets_addr(32)), e as u64);
    }
}
