//! Poll-shaped run-time ≡ `async` run-time, on the one event loop.
//!
//! The model checker runs micro-programs as hand-written state machines
//! (`MicroTask` over `DsmTask`, through `run_tasks_mc`); the same programs
//! are ordinary `async` bodies under `run_parallel` (`MicroRunner` over
//! `Dsm::Par`), as every application is. The two run-times share what they
//! do to the world and differ only in control flow, so on the default
//! schedule — no hook, ties in queue order — they must agree on
//! everything a run reports: every per-node counter, both modeled times,
//! the simulator's event count, region counters, the final memory image,
//! and each node's value-carrying trace.

use std::cell::RefCell;
use std::sync::Arc;

use dsm::core::RunOutcome;
use dsm::mc::program::{self, MicroProgram, MicroRunner, MicroTask, Op, TraceEv};
use dsm::{run_parallel, run_tasks_mc, FabricConfig, Protocol, RunConfig};

fn futures(rc: &RunConfig, prog: &MicroProgram) -> (RunOutcome, Vec<TraceEv>) {
    let runner = Arc::new(MicroRunner::new(prog.clone()));
    let outcome = run_parallel(rc, runner.clone());
    (outcome, runner.take_trace())
}

fn tasks(rc: &RunConfig, prog: &MicroProgram) -> (RunOutcome, Vec<TraceEv>) {
    let runner = MicroRunner::new(prog.clone());
    let trace = RefCell::new(Vec::new());
    let tasks = MicroTask::for_program(prog, rc, &runner, &trace);
    let outcome = run_tasks_mc(rc, &runner, tasks, None, None).expect("runs to completion");
    (outcome, trace.into_inner())
}

fn per_node(trace: &[TraceEv], nodes: usize) -> Vec<Vec<TraceEv>> {
    (0..nodes)
        .map(|n| trace.iter().copied().filter(|e| e.node() == n).collect())
        .collect()
}

/// A program no preset resembles: compute segments long enough to flush
/// the batched local time mid-program (so an access's charge itself
/// yields), and an `Add` whose read and write can both fault. Race-free:
/// barrier 0 and barrier 1 order every conflicting pair.
fn compute_heavy() -> MicroProgram {
    MicroProgram {
        name: "mc-compute-heavy".into(),
        shared_bytes: 4096,
        init: vec![(0, 3), (512, 9)],
        threads: vec![
            vec![
                Op::Read(512),
                // With polling inflation, 1 966 ns are batched after this
                // (69 of them the read above): the 69 ns hit on the same
                // block below tips the batch over the 2 µs flush quantum.
                Op::Compute(1_650),
                Op::Read(520),
                Op::Compute(7_000),
                Op::Barrier(0),
                Op::Add(512, 5),
                Op::Compute(100),
                Op::Barrier(1),
                Op::Read(0),
            ],
            vec![
                Op::Write(0, 11),
                Op::Compute(2_500),
                Op::Barrier(0),
                Op::Lock(3),
                Op::Add(0, 1),
                Op::Unlock(3),
                Op::Barrier(1),
                Op::Read(512),
                Op::Compute(4_321),
            ],
        ],
    }
}

#[test]
fn every_preset_agrees_on_both_engines() {
    let presets = [
        program::msg_pass(),
        program::lock_counter(2, 2),
        program::lock_counter(3, 1),
        program::ping_rounds(3, 2),
        program::lock_pingpong(2),
        program::kill_program(2, 2),
        compute_heavy(),
    ];
    // The two fabrics an exploration runs on: ideal (fault budget 0) and
    // the reliable fabric with every stochastic rate zeroed.
    let fabrics = [
        FabricConfig::ideal(),
        FabricConfig::parse("faulty,seed=0,drop=0,dup=0,reorder=0,spike=0").unwrap(),
    ];
    for prog in &presets {
        for proto in Protocol::ALL {
            for fabric in &fabrics {
                let rc = RunConfig::new(proto, 256)
                    .with_nodes(prog.nodes())
                    .with_static_homes()
                    .with_fabric(fabric.clone())
                    .with_check();
                let what = format!("{} / {proto:?} / reliable={}", prog.name, fabric.reliable());
                let (t_out, t_trace) = futures(&rc, prog);
                let (k_out, k_trace) = tasks(&rc, prog);
                assert!(k_out.stats.sim_events > 0, "{what}");
                assert_eq!(
                    k_out.stats.to_json().to_string(),
                    t_out.stats.to_json().to_string(),
                    "{what}: statistics"
                );
                assert_eq!(k_out.image, t_out.image, "{what}: final image");
                assert_eq!(
                    per_node(&k_trace, prog.nodes()),
                    per_node(&t_trace, prog.nodes()),
                    "{what}: per-node traces"
                );
                for (k, t) in k_out.regions.iter().zip(&t_out.regions) {
                    assert_eq!(
                        k.counters.to_json().to_string(),
                        t.counters.to_json().to_string(),
                        "{what}: region counters"
                    );
                }
                assert_eq!(k_out.violations, t_out.violations, "{what}");
                assert!(
                    k_out.violations.is_empty(),
                    "{what}: {:?}",
                    k_out.violations
                );
            }
        }
    }
}
