//! Quickstart: write a shared-memory program against the `Dsm` API, run it
//! under two very different protocol/granularity combinations, and compare.
//!
//! This is the reference for the shape of a program. The per-node body is
//! ordinary `async` code: `run` returns one boxed future
//! (`Box::pin(async move { .. })`), and every operation on the `Dsm` handle
//! is awaited. Under the parallel run-time an operation suspends the node
//! exactly where a real one would wait — a fault, a lock, a barrier, or the
//! flush of its batched compute time — and the simulator's event loop
//! resumes it when that wait is over in virtual time; a hit completes
//! without suspending. Under the sequential baseline nothing ever waits and
//! the same body runs straight through. Two rules: await nothing but `Dsm`
//! operations (nothing else will ever wake the node), and write helpers
//! that touch `d` as `async fn helper(&self, d: &mut Dsm, ..)`, awaited at
//! the call site.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dsm::{run_experiment, Dsm, DsmProgram, MemImage, NodeFuture, Protocol, RunConfig};
use std::sync::Arc;

/// A parallel histogram: every node scans its share of a data array and
/// counts values into a shared, lock-guarded histogram, then node 0 folds
/// the result.
struct Histogram {
    items: usize,
    buckets: usize,
}

impl Histogram {
    // Shared layout: [histogram buckets][data items], all u64.
    fn bucket_addr(&self, b: usize) -> usize {
        b * 8
    }
    fn item_addr(&self, i: usize) -> usize {
        (self.buckets + i) * 8
    }
}

impl DsmProgram for Histogram {
    fn name(&self) -> String {
        "histogram".into()
    }

    fn shared_bytes(&self) -> usize {
        (self.buckets + self.items) * 8
    }

    fn init(&self, mem: &mut MemImage) {
        // Deterministic pseudo-random data.
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..self.items {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            mem.write_u64(self.item_addr(i), x % self.buckets as u64);
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let per = self.items / p;
            let lo = me * per;
            let hi = if me == p - 1 { self.items } else { lo + per };

            // Count privately first (good parallel manners), then merge under
            // one lock per bucket group.
            let mut local = vec![0u64; self.buckets];
            for i in lo..hi {
                let v = d.read_u64(self.item_addr(i)).await as usize;
                local[v] += 1;
                // Pretend each item needs real work (2.5 us): communication
                // only pays off when there is computation to amortize it.
                d.compute(2_500).await;
            }
            // Merge in four bucket groups, one lock acquisition per group.
            let group = self.buckets / 4;
            for g in 0..4 {
                d.lock(g).await;
                for (b, &cnt) in local.iter().enumerate().skip(g * group).take(group) {
                    if cnt == 0 {
                        continue;
                    }
                    let cur = d.read_u64(self.bucket_addr(b)).await;
                    d.write_u64(self.bucket_addr(b), cur + cnt).await;
                }
                d.unlock(g).await;
            }
            d.barrier(0).await;
        })
    }

    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        for b in 0..self.buckets {
            let (s, p) = (seq.read_u64(b * 8), par.read_u64(b * 8));
            if s != p {
                return Err(format!("bucket {b}: sequential {s} != parallel {p}"));
            }
        }
        Ok(())
    }
}

fn main() {
    let app = Arc::new(Histogram {
        items: 64 * 1024,
        buckets: 64,
    });

    println!("running the same program under two configurations:\n");
    for cfg in [
        RunConfig::new(Protocol::Sc, 64),
        RunConfig::new(Protocol::Hlrc, 4096),
    ] {
        let r = run_experiment(&cfg, app.clone());
        let t = r.stats.totals();
        println!(
            "{:>6} @ {:>4} B | speedup {:>5.2} | read faults {:>6} | write faults {:>5} | \
             traffic {:>6} KB | verified: {}",
            cfg.protocol.name(),
            cfg.block_size,
            r.speedup(),
            t.read_faults,
            t.write_faults,
            t.total_traffic() / 1024,
            r.check.is_ok(),
        );
    }
    println!("\nBoth runs produce exactly the sequential result — the protocols");
    println!("differ only in how much communication it takes to get there.");
}
