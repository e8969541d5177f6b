//! End-to-end smoke tests: small programs run under every protocol and
//! granularity must produce exactly the sequential result.

use std::sync::Arc;

use dsm_core::{
    run_checked, run_experiment, Dsm, DsmProgram, MemImage, NodeFuture, Notify, Protocol, RunConfig,
};

/// Each node fills its own contiguous partition of an array, then all nodes
/// read the full array and write a checksum into their slot (single-writer,
/// coarse-grain pattern).
struct Partitioned {
    elems: usize,
}

impl Partitioned {
    const SUM_BASE: usize = 0; // 16 u64 slots
    const DATA: usize = 16 * 8;
}

impl DsmProgram for Partitioned {
    fn name(&self) -> String {
        "partitioned".into()
    }

    fn shared_bytes(&self) -> usize {
        Self::DATA + self.elems * 8
    }

    fn init(&self, mem: &mut MemImage) {
        for i in 0..self.elems {
            mem.write_u64(Self::DATA + i * 8, 0);
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, n) = (d.node(), d.num_nodes());
            let per = self.elems / n;
            let lo = me * per;
            let hi = if me == n - 1 { self.elems } else { lo + per };
            for i in lo..hi {
                d.write_u64(Self::DATA + i * 8, (i * i + 7) as u64).await;
                d.compute(50).await;
            }
            d.barrier(0).await;
            let mut sum = 0u64;
            for i in 0..self.elems {
                sum = sum.wrapping_add(d.read_u64(Self::DATA + i * 8).await);
            }
            d.write_u64(Self::SUM_BASE + me * 8, sum).await;
            d.barrier(1).await;
            // In the sequential run, mirror what the other 15 slots would hold:
            // nothing — slots beyond num_nodes stay zero, and the check only
            // compares what both runs wrote.
        })
    }

    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        // Every node's checksum must equal node 0's sequential checksum.
        let want = seq.read_u64(Self::SUM_BASE);
        for slot in 0..16 {
            let got = par.read_u64(Self::SUM_BASE + slot * 8);
            if got != 0 && got != want {
                return Err(format!("slot {slot}: {got} != {want}"));
            }
        }
        if par.read_u64(Self::SUM_BASE) != want {
            return Err("node 0 checksum mismatch".into());
        }
        // Data region must be identical.
        let end = Self::DATA + self.elems * 8;
        if seq.bytes()[Self::DATA..end] != par.bytes()[Self::DATA..end] {
            return Err("data region differs".into());
        }
        Ok(())
    }
}

/// Nodes increment a shared counter under a lock, and append to per-node
/// logs (migratory, lock-heavy pattern).
struct LockedCounter {
    rounds: usize,
}

impl LockedCounter {
    const COUNTER: usize = 0;
    const LOG: usize = 4096; // one u64 per (node, round), node-major
}

impl DsmProgram for LockedCounter {
    fn name(&self) -> String {
        "locked-counter".into()
    }

    fn shared_bytes(&self) -> usize {
        Self::LOG + 16 * self.rounds * 8
    }

    fn init(&self, mem: &mut MemImage) {
        mem.write_u64(Self::COUNTER, 0);
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let me = d.node();
            for r in 0..self.rounds {
                d.lock(0).await;
                let v = d.read_u64(Self::COUNTER).await;
                d.compute(200).await;
                d.write_u64(Self::COUNTER, v + 1).await;
                d.unlock(0).await;
                d.write_u64(Self::LOG + (me * self.rounds + r) * 8, v + 1)
                    .await;
            }
            d.barrier(0).await;
        })
    }

    fn check(&self, _seq: &MemImage, par: &MemImage) -> Result<(), String> {
        // The counter must equal nodes*rounds and the logged tickets must be
        // a permutation of 1..=counter.
        let total = par.read_u64(Self::COUNTER);
        let mut tickets: Vec<u64> = Vec::new();
        for node in 0..16 {
            for r in 0..self.rounds {
                let t = par.read_u64(Self::LOG + (node * self.rounds + r) * 8);
                if t != 0 {
                    tickets.push(t);
                }
            }
        }
        tickets.sort_unstable();
        if total as usize != tickets.len() {
            return Err(format!("counter {total} != {} tickets", tickets.len()));
        }
        for (i, t) in tickets.iter().enumerate() {
            if *t != i as u64 + 1 {
                return Err(format!("ticket {i} is {t}, want {}", i + 1));
            }
        }
        Ok(())
    }
}

/// False-sharing stress: nodes repeatedly write adjacent words of the same
/// blocks between barriers (multiple-writer fine-grain pattern).
struct FalseSharing {
    words: usize,
    phases: usize,
}

impl DsmProgram for FalseSharing {
    fn name(&self) -> String {
        "false-sharing".into()
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
            let (me, n) = (d.node(), d.num_nodes());
            for phase in 0..self.phases {
                // Interleaved word ownership: node j writes words j, j+n, ...
                let mut i = me;
                while i < self.words {
                    let v = d.read_u64(i * 8).await;
                    d.write_u64(i * 8, v.wrapping_mul(3).wrapping_add(phase as u64))
                        .await;
                    i += n;
                }
                d.barrier(phase).await;
                // Everyone reads a few neighbours' words.
                let probe = (me * 7 + phase) % self.words;
                let _ = d.read_u64(probe * 8).await;
                d.barrier(self.phases + phase).await;
            }
        })
    }
}

fn all_configs() -> Vec<RunConfig> {
    let mut v = Vec::new();
    for p in Protocol::ALL {
        for g in [64usize, 1024, 4096] {
            v.push(RunConfig::new(p, g));
        }
    }
    v
}

#[test]
fn partitioned_matches_sequential_everywhere() {
    for cfg in all_configs() {
        let r = run_checked(&cfg, Arc::new(Partitioned { elems: 512 }));
        assert!(r.speedup() > 0.0);
    }
}

#[test]
fn a_program_that_names_no_inflation_pays_the_default() {
    // Paper §5.4: polling's backedge instrumentation inflates compute by an
    // application-dependent share; a program that does not state its own
    // is charged 15 %.
    let p = Partitioned { elems: 1 };
    assert_eq!(p.poll_inflation_pct(), 15, "default backedge inflation");
}

#[test]
fn locked_counter_is_atomic_everywhere() {
    for cfg in all_configs() {
        run_checked(&cfg, Arc::new(LockedCounter { rounds: 5 }));
    }
}

#[test]
fn false_sharing_converges_everywhere() {
    for cfg in all_configs() {
        run_checked(
            &cfg,
            Arc::new(FalseSharing {
                words: 64,
                phases: 4,
            }),
        );
    }
}

#[test]
fn interrupt_mechanism_also_correct() {
    for p in Protocol::ALL {
        let cfg = RunConfig::new(p, 1024).with_notify(Notify::Interrupt);
        run_checked(
            &cfg,
            Arc::new(FalseSharing {
                words: 64,
                phases: 3,
            }),
        );
        run_checked(&cfg, Arc::new(LockedCounter { rounds: 4 }));
    }
}

#[test]
fn runs_are_deterministic() {
    let cfg = RunConfig::new(Protocol::Hlrc, 256);
    let a = run_experiment(
        &cfg,
        Arc::new(FalseSharing {
            words: 96,
            phases: 3,
        }),
    );
    let b = run_experiment(
        &cfg,
        Arc::new(FalseSharing {
            words: 96,
            phases: 3,
        }),
    );
    assert_eq!(a.stats.parallel_time_ns, b.stats.parallel_time_ns);
    assert_eq!(a.stats.totals(), b.stats.totals());
}

#[test]
fn relaxed_protocols_reduce_faults_on_false_sharing_at_coarse_grain() {
    let mk = || {
        Arc::new(FalseSharing {
            words: 512,
            phases: 6,
        })
    };
    let sc = run_experiment(&RunConfig::new(Protocol::Sc, 4096), mk());
    let hlrc = run_experiment(&RunConfig::new(Protocol::Hlrc, 4096), mk());
    let sc_faults = sc.stats.totals().read_faults + sc.stats.totals().write_faults;
    let hl_faults = hlrc.stats.totals().read_faults + hlrc.stats.totals().write_faults;
    assert!(
        hl_faults < sc_faults,
        "HLRC should fault less than SC under false sharing: {hl_faults} vs {sc_faults}"
    );
}
