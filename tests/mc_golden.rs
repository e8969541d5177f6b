//! The model checker's reports, pinned: every search statistic of 28
//! explorations against a committed fixture.
//!
//! `tests/fixtures/mc_golden.txt` holds one line per configuration —
//! `program protocol faults reduce dedup schedules pruned_sleep pruned_dedup
//! pruned_steps branches_skipped states choice_points max_depth deadlocks
//! complete violation_counts` — for six preset configurations and one
//! compute-heavy program under each of the four protocols. It was captured
//! with the micro-programs running as hand-written state machines
//! (`MicroTask` over `DsmTask`) under `explore`, immediately before that
//! run-time was deleted, and is the reference the `async` bodies are held
//! to: a schedule space that gains or loses one commit point, tie or state
//! moves a number here. `bless` is the only writer.

use dsm::mc::program::{self, MicroProgram, Op};
use dsm::mc::{explore, McConfig};
use dsm::Protocol;
use dsm_bench::default_jobs;
use dsm_scenario::exec::pool_map;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/mc_golden.txt");

/// A program no preset resembles: compute segments long enough to flush
/// the batched local time mid-program, so an access's own charge tips the
/// flush quantum and a yield *inside* an access is explored under the hook,
/// and an `Add` whose read and write can both fault. Race-free: barrier 0
/// and barrier 1 order every conflicting pair.
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

/// Every pinned configuration, in fixture order: `(program, faults, reduce,
/// dedup)` under each protocol.
fn configs() -> Vec<(MicroProgram, McConfig)> {
    let programs = [
        (program::msg_pass(), 1, true, true),
        (program::lock_counter(2, 2), 0, true, true),
        (program::lock_pingpong(2), 1, true, true),
        (program::ping_rounds(3, 2), 0, true, true),
        (program::msg_pass(), 1, false, false),
        (compute_heavy(), 0, true, true),
        (program::lock_counter(3, 1), 1, true, true),
    ];
    let mut configs = Vec::new();
    for (prog, faults, reduce, dedup) in programs {
        for p in Protocol::ALL {
            let mut cfg = McConfig::new(p).with_faults(faults);
            cfg.reduce = reduce;
            cfg.dedup = dedup;
            configs.push((prog.clone(), cfg));
        }
    }
    configs
}

/// Explore one configuration and render its fixture line.
fn line(prog: &MicroProgram, cfg: &McConfig) -> String {
    let r = explore(cfg, prog);
    let counts: Vec<String> = r
        .violation_counts
        .iter()
        .map(|(rule, n)| format!("{rule}={n}"))
        .collect();
    format!(
        "{} {} f{} reduce={} dedup={} {} {} {} {} {} {} {} {} {} {} [{}]",
        prog.name,
        cfg.protocol.name(),
        cfg.fault_budget,
        cfg.reduce,
        cfg.dedup,
        r.schedules,
        r.pruned_sleep,
        r.pruned_dedup,
        r.pruned_steps,
        r.branches_skipped,
        r.states,
        r.choice_points,
        r.max_depth,
        r.deadlocks,
        r.complete,
        counts.join(",")
    )
}

fn render() -> Vec<String> {
    let configs = configs();
    let n = configs.len();
    // The last configuration (three nodes under Tardis with a fault) is over
    // half the file's work: hand the pool the list back to front.
    let mut lines = pool_map(n, default_jobs().min(4), |i| {
        let (prog, cfg) = &configs[n - 1 - i];
        line(prog, cfg)
    });
    lines.reverse();
    lines
}

#[test]
fn every_report_matches_the_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let want: Vec<&str> = text.lines().collect();
    let got = render();
    assert_eq!(got.len(), 24 + 4);
    assert_eq!(
        got.len(),
        want.len(),
        "fixture has a line per configuration"
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "schedule-space drift (left: this build, right: fixture)"
        );
    }
}

/// Explore `cfg` with dedup on and with it off, and assert that the two
/// searches saw the same outcomes and the same violations. Dedup merges two
/// prefixes that reach one engine and world state, and the values the nodes
/// have read are in neither, so a merge could in principle drop an outcome
/// or an oracle's verdict that only the pruned prefix leads to.
fn dedup_hides_nothing(prog: &MicroProgram, cfg: &McConfig) {
    assert!(cfg.dedup, "a configuration that dedups");
    let deduped = explore(cfg, prog);
    let full = explore(
        &McConfig {
            dedup: false,
            ..cfg.clone()
        },
        prog,
    );
    let name = format!(
        "{} {} f{}",
        prog.name,
        cfg.protocol.name(),
        cfg.fault_budget
    );
    assert!(
        deduped.complete && full.complete,
        "{name}: both searches exhaust"
    );
    assert!(
        !deduped.outcomes.is_empty(),
        "{name}: some schedule completes"
    );
    assert_eq!(deduped.outcomes, full.outcomes, "{name}: outcomes");
    assert_eq!(
        deduped.violation_counts, full.violation_counts,
        "{name}: violations"
    );
}

/// `lock_counter(3, 1)`, the one configuration pinned with three nodes.
fn three_node_counter(prog: &MicroProgram) -> bool {
    prog.name == "mc-lock-counter" && prog.nodes() == 3
}

/// The configurations that dedup, less the three-node lock counter with a
/// fault, whose undeduplicated spaces take seconds even in release.
#[test]
fn dedup_hides_no_outcome_and_no_violation() {
    let configs: Vec<_> = configs()
        .into_iter()
        .filter(|(prog, cfg)| cfg.dedup && !three_node_counter(prog))
        .collect();
    assert_eq!(configs.len(), 20);
    pool_map(configs.len(), default_jobs().min(4), |i| {
        let (prog, cfg) = &configs[i];
        dedup_hides_nothing(prog, cfg)
    });
}

/// The three-node lock counter with a fault under each protocol: 9 632,
/// 5 992, 1 776 and 30 960 schedules without dedup (SC, SW-LRC, HLRC,
/// Tardis), about 8 s in release.
#[test]
#[ignore = "seconds in release; run with --release -- --ignored three_node"]
fn dedup_hides_nothing_on_the_three_node_lock_counter() {
    let configs: Vec<_> = configs()
        .into_iter()
        .filter(|(prog, cfg)| cfg.dedup && three_node_counter(prog))
        .collect();
    assert_eq!(configs.len(), 4);
    pool_map(configs.len(), default_jobs().min(4), |i| {
        let (prog, cfg) = &configs[i];
        dedup_hides_nothing(prog, cfg)
    });
}

#[test]
#[ignore = "rewrites the fixture; run deliberately, and say why in the PR"]
fn bless() {
    std::fs::write(FIXTURE, render().join("\n") + "\n").unwrap();
}
