//! The outcomes of `explore` other than "clean": a schedule that
//! deadlocks, a barrier one node never joins, and the commit-point bound.
//! On the event loop these are values the driver matches on, not panics it
//! catches; the reported counts, rules and detail strings are the ones the
//! threaded path produced.

use dsm::mc::program::{lock_counter, MicroProgram, Op};
use dsm::mc::{explore, McConfig, McReport, RULE_DEADLOCK, RULE_LIVELOCK};
use dsm::Protocol;

fn two_nodes(name: &str, n0: Vec<Op>, n1: Vec<Op>) -> MicroProgram {
    MicroProgram {
        name: name.into(),
        shared_bytes: 4096,
        init: vec![(0, 0)],
        threads: vec![n0, n1],
    }
}

fn deadlock_details(report: &McReport) -> Vec<&str> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == RULE_DEADLOCK)
        .map(|v| v.detail.as_str())
        .collect()
}

/// Two locks taken in opposite orders. Each node manages the lock it takes
/// first, so both first acquires succeed at once and each node then waits
/// for the lock the other holds. The search records the deadlock and runs
/// on to exhaust the space.
#[test]
fn lock_order_inversion_deadlocks_on_some_schedule() {
    let prog = two_nodes(
        "mc-lock-inversion",
        vec![Op::Lock(0), Op::Lock(1), Op::Unlock(1), Op::Unlock(0)],
        vec![Op::Lock(1), Op::Lock(0), Op::Unlock(0), Op::Unlock(1)],
    );
    for proto in Protocol::ALL {
        let report = explore(&McConfig::new(proto), &prog);
        assert!(report.complete, "{proto:?}: {report:?}");
        assert!(report.deadlocks >= 1, "{proto:?}: {report:?}");
        assert_eq!(
            report.violation_counts.get(RULE_DEADLOCK),
            Some(&report.deadlocks),
            "{proto:?}: deadlock is the only finding: {report:?}"
        );
        assert_eq!(report.violation_counts.len(), 1, "{proto:?}: {report:?}");
        for detail in deadlock_details(&report) {
            assert_eq!(
                detail,
                "simulation deadlock: event queue empty, node states [Blocked, Blocked]"
            );
        }
    }
}

/// A barrier only node 0 arrives at: node 1 finishes, node 0 waits for
/// ever, on every schedule.
#[test]
fn a_barrier_one_node_never_joins_deadlocks_everywhere() {
    let prog = two_nodes("mc-lonely-barrier", vec![Op::Barrier(0)], vec![Op::Read(0)]);
    for proto in Protocol::ALL {
        let report = explore(&McConfig::new(proto), &prog);
        assert!(report.complete, "{proto:?}: {report:?}");
        assert_eq!(report.schedules, 0, "{proto:?}: no schedule completes");
        assert!(report.deadlocks >= 1, "{proto:?}: {report:?}");
        assert_eq!(
            deadlock_details(&report),
            vec![
                "simulation deadlock: event queue empty, node states [Blocked, Done]";
                report.deadlocks as usize
            ],
            "{proto:?}"
        );
    }
}

/// `max_steps` bounds an execution's commit points; the first execution to
/// exceed it is abandoned and reported as a livelock.
#[test]
fn the_step_bound_reports_a_livelock() {
    let mut cfg = McConfig::new(Protocol::Sc);
    cfg.max_steps = 8;
    let report = explore(&cfg, &lock_counter(2, 1));
    assert_eq!(report.pruned_steps, 1, "{report:?}");
    assert_eq!(report.schedules, 0, "{report:?}");
    assert_eq!(report.violation_counts.get(RULE_LIVELOCK), Some(&1));
    assert_eq!(
        report.violations[0].detail,
        "execution exceeded 8 commit points"
    );
    assert_eq!(report.deadlocks, 0);
}
