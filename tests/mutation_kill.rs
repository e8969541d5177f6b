//! Mutation kill matrix: every deliberate protocol mutation must be caught
//! by the checker, and the same program must be violation-free without one.
//!
//! The driver program is purpose-built to hit every mutation site at least
//! three times (the seeded target occurrence is `roll(..) % 3`): a
//! lock-protected shared-counter phase exercises lock grants, write
//! notices, releases, diffs and SC write-fault fan-out; a barrier-ordered
//! producer/consumer phase gives the race detector a cross-node
//! write-then-read pair ordered only by barriers, with node 0 always on the
//! reading side (the `hb-skip-barrier` mutation is sticky on node 0).

use std::sync::Arc;

use dsm::core::{Mutation, Violation};
use dsm::proto::{MutFabric, MUTATIONS};
use dsm::{run_parallel, Dsm, DsmProgram, FabricConfig, MemImage, NodeFuture, Protocol, RunConfig};

const NODES: usize = 8;
const LOCKS: usize = 3;
const LOCK_ROUNDS: usize = 4;
const PING_ROUNDS: usize = 6;
/// Lock-protected counters live one page apart so each sits in its own
/// block at every granularity.
const CTR_STRIDE: usize = 4096;
const PING_BASE: usize = 16384;
const SEED: u64 = 0xD5;

struct KillApp;

impl DsmProgram for KillApp {
    fn name(&self) -> String {
        "mutkill".into()
    }

    fn shared_bytes(&self) -> usize {
        32 * 1024
    }

    fn init(&self, _mem: &mut MemImage) {}

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            if d.node() == 0 {
                for l in 0..LOCKS {
                    d.write_u64(l * CTR_STRIDE, 0).await;
                }
                for r in 0..PING_ROUNDS {
                    d.write_u64(PING_BASE + r * 8, 0).await;
                }
            }
        })
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let n = d.num_nodes();
            let me = d.node();
            // Phase 1: lock-ordered counters. Every increment is a remote
            // read-modify-write: lock grants carry write notices (LRC), each
            // release diffs the dirty block (HLRC) or publishes a bumped
            // version (SW-LRC), and each write fault invalidates sharers (SC).
            for _ in 0..LOCK_ROUNDS {
                for l in 0..LOCKS {
                    d.lock(l).await;
                    let a = l * CTR_STRIDE;
                    let v = d.read_u64(a).await;
                    // Every byte of the counter changes, so HLRC diffs carry a
                    // full 8-byte run (the diff-truncation site needs one).
                    d.write_u64(a, v + 0x0101_0101_0101_0101).await;
                    d.unlock(l).await;
                    d.compute(500).await;
                }
            }
            d.barrier(0).await;
            // Phase 2: one producer per round, everyone reads after the
            // barrier. The write/read pair is ordered *only* by the barrier,
            // and node 0 is never the producer, so a skipped happens-before
            // join on node 0 must surface as a race.
            for r in 0..PING_ROUNDS {
                let a = PING_BASE + r * 8;
                if me == 1 + r % (n - 1) {
                    d.write_u64(a, r as u64 + 1).await;
                }
                d.barrier(1).await;
                let _ = d.read_u64(a).await;
                d.barrier(2).await;
            }
        })
    }
}

fn run_one(proto: Protocol, fabric: FabricConfig, mutation: Option<Mutation>) -> Vec<Violation> {
    let mut cfg = RunConfig::new(proto, 256)
        .with_nodes(NODES)
        .with_fabric(fabric)
        .with_check();
    if let Some(m) = mutation {
        cfg = cfg.with_mutation(m, SEED);
    }
    run_parallel(&cfg, Arc::new(KillApp)).violations
}

/// A heavily duplicating (but otherwise clean) reliable fabric: real
/// duplicate frames reach the dedup layer, which the `fabric-dup-deliver`
/// mutation then pretends leaked through.
fn dup_fabric() -> FabricConfig {
    FabricConfig::parse("faulty,seed=7,drop=0,dup=200000,reorder=0,spike=0").unwrap()
}

/// A heavily reordering reliable fabric: frames genuinely arrive out of
/// order and are held for in-order release, which the `fabric-reorder`
/// mutation then pretends were released early.
fn reorder_fabric() -> FabricConfig {
    FabricConfig::parse("faulty,seed=7,drop=0,dup=0,reorder=300000,spike=0,jitter=200000").unwrap()
}

/// The fabric a registry row needs to reach its mutation site.
fn fabric_of(f: MutFabric) -> FabricConfig {
    match f {
        MutFabric::Ideal => FabricConfig::ideal(),
        MutFabric::Dup => dup_fabric(),
        MutFabric::Reorder => reorder_fabric(),
    }
}

fn assert_killed(proto: Protocol, fabric: FabricConfig, m: Mutation, rule: &str) {
    let v = run_one(proto, fabric, Some(m));
    assert!(
        !v.is_empty(),
        "{} under {proto:?} produced no violations at all",
        m.name()
    );
    assert!(
        v.iter().any(|x| x.rule == rule),
        "{} under {proto:?} must be caught by rule {rule}; got {:?}",
        m.name(),
        v.iter().map(|x| x.rule).collect::<Vec<_>>()
    );
}

#[test]
fn clean_runs_have_no_violations() {
    for p in Protocol::ALL {
        let v = run_one(p, FabricConfig::ideal(), None);
        assert!(v.is_empty(), "{p:?} ideal: {v:?}");
    }
    // The checker must also stay quiet when the fabric injects (recovered)
    // faults: dedup and in-order release are working as designed.
    for fabric in [dup_fabric(), reorder_fabric()] {
        let v = run_one(Protocol::Hlrc, fabric, None);
        assert!(v.is_empty(), "faulty-but-recovered fabric: {v:?}");
    }
}

/// Every registry row dies under its canonical (protocol, fabric) setup.
/// The row data — which rule catches which mutation, and which fabric is
/// needed to reach the site — lives in [`MUTATIONS`], shared with the
/// model checker's exhaustive kill matrix (`tests/mc_exhaustive_kill.rs`).
#[test]
fn kill_matrix_from_registry() {
    for spec in MUTATIONS.iter() {
        assert_killed(
            spec.protocol,
            fabric_of(spec.fabric),
            spec.mutation,
            spec.rule,
        );
    }
}

/// What the checker says first about three armed mutations — rule, node,
/// block, time and detail — one per layer a report's words come from: the
/// grant check's fallback, the race detector with its sync context, the
/// fabric mirror. The literals were captured before the grant check walked
/// the log in order, the shadow became dense and the context became data;
/// a checker that checks what it checked still prints them.
#[test]
fn first_violations_read_as_they_always_did() {
    let pinned = [
        (
            Mutation::DropWriteNotice,
            "[lrc-notice-completeness] node 2 t=317260ns: lock 0: grant carries 0 notices, \
             interval vector promises 1 (1 missing, 0 unexpected)",
        ),
        (
            Mutation::HbSkipBarrier,
            "[hb-race] node 0 block 64 t=10284518ns: app=mutkill region=shared addr=0x4000 \
             (block 64 offset 0) write-read: node 1 @ clock 15 vs node 0 @ clock 16; \
             0's sync context: passed barrier 1 @ 10187953",
        ),
        (
            Mutation::FabricReorder,
            "[fabric-in-order] node 0 t=1912582ns: channel 6->0: frame seq 4 should deliver \
             0 consecutive payload(s), fabric delivered 1",
        ),
    ];
    for (m, first) in pinned {
        let spec = MUTATIONS.iter().find(|s| s.mutation == m).unwrap();
        let v = run_one(spec.protocol, fabric_of(spec.fabric), Some(m));
        assert_eq!(v[0].to_string(), first, "{}", m.name());
    }
}

/// The same mutations under the *other* LRC protocol still register: the
/// kill matrix is not an artifact of one protocol's timing.
#[test]
fn kill_matrix_cross_protocol_spot_checks() {
    assert_killed(
        Protocol::SwLrc,
        FabricConfig::ideal(),
        Mutation::DropWriteNotice,
        "lrc-notice-completeness",
    );
    assert_killed(
        Protocol::SwLrc,
        FabricConfig::ideal(),
        Mutation::LockStaleVt,
        "lrc-lock-stale-vt",
    );
    assert_killed(
        Protocol::Hlrc,
        FabricConfig::ideal(),
        Mutation::HbSkipBarrier,
        "hb-race",
    );
}
