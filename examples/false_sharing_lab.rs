//! False-sharing laboratory: watch write-write false sharing appear as the
//! coherence granularity grows, and how each protocol copes.
//!
//! Sixteen nodes update interleaved array slots between barriers. At 64 B
//! almost every node has private blocks; at 4096 B every block has sixteen
//! writers. SC ping-pongs exclusive ownership, SW-LRC migrates a single
//! writable copy, and HLRC lets all sixteen write concurrently and merges
//! diffs at the home.
//!
//! ```sh
//! cargo run --release --example false_sharing_lab -- 8
//! ```
//! The argument is the stride in words between a node's slots (default 8).

use dsm::{
    run_experiment, Dsm, DsmProgram, MemImage, NodeFuture, Protocol, RunConfig, GRANULARITIES,
};
use dsm_bench::table::Table;
use std::sync::Arc;

struct Interleaved {
    words: usize,
    stride: usize,
    rounds: usize,
}

impl DsmProgram for Interleaved {
    fn name(&self) -> String {
        format!("interleaved-stride-{}", self.stride)
    }

    fn shared_bytes(&self) -> usize {
        self.words * 8
    }

    fn init(&self, mem: &mut MemImage) {
        for i in 0..self.words {
            mem.write_u64(i * 8, i as u64);
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            for round in 0..self.rounds {
                // Node j owns word indices where (i / stride) % p == j: stripes
                // of `stride` words, interleaved across nodes.
                let mut i = 0;
                while i < self.words {
                    if (i / self.stride) % p == me {
                        for k in 0..self.stride.min(self.words - i) {
                            let a = (i + k) * 8;
                            let v = d.read_u64(a).await;
                            d.write_u64(a, v.wrapping_mul(31).wrapping_add(round as u64))
                                .await;
                            d.compute(120).await;
                        }
                        i += self.stride * p;
                    } else {
                        i += self.stride;
                    }
                }
                d.barrier(0).await;
            }
        })
    }
}

fn main() {
    let stride: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let mk = move || {
        Arc::new(Interleaved {
            words: 16 * 1024,
            stride,
            rounds: 4,
        })
    };

    println!(
        "interleaved writers, stride {stride} words ({} bytes per stripe):\n",
        stride * 8
    );
    let mut speed = Table::new(&["Protocol", "64 B", "256 B", "1024 B", "4096 B"]);
    let mut faults = Table::new(&["Protocol", "64 B", "256 B", "1024 B", "4096 B"]);
    for p in Protocol::ALL {
        let mut srow = vec![p.name().to_string()];
        let mut frow = vec![p.name().to_string()];
        for g in GRANULARITIES {
            let r = run_experiment(&RunConfig::new(p, g), mk());
            assert!(r.check.is_ok());
            let t = r.stats.totals();
            srow.push(format!("{:.2}", r.speedup()));
            frow.push(format!("{}", t.read_faults + t.write_faults));
        }
        speed.row(&srow);
        faults.row(&frow);
    }
    println!("speedups:\n{}", speed.render());
    println!("remote faults:\n{}", faults.render());
    println!("try stride 1 (maximal false sharing) or 512 (page-aligned stripes)");
}
