//! Invariant tests for the observability layer: the per-node execution-time
//! breakdown must partition each node's measured virtual wall time, the
//! recorded event stream must reproduce the protocol counters, and both
//! exporters must produce valid output.

use dsm::{run_experiment, FabricConfig, Protocol, RunConfig};
use dsm_apps::registry::{app_sized, AppSize};
use dsm_json::Value;
use dsm_obs::{chrome_trace, jsonl_metrics, EventKind, TimeBreakdown};
use dsm_stats::Counters;

/// Run one cell with recording on and check every observability invariant.
/// Returns the run's counter totals.
fn check_cell(app: &str, cfg: RunConfig) -> Counters {
    let program = app_sized(app, AppSize::Small).unwrap();
    let (p, block) = (cfg.protocol, cfg.block_size);
    let mut cfg = cfg.with_recording();
    // Large enough that no node's ring wraps: the fold below needs every
    // event.
    cfg.obs.ring_capacity = 1 << 22;
    let nodes = cfg.nodes;
    let r = run_experiment(&cfg, program);
    assert!(r.check.is_ok(), "{app} {p:?}@{block}: {:?}", r.check);
    assert!(
        r.obs.recorded,
        "{app} {p:?}@{block}: recording was requested"
    );
    assert_eq!(r.obs.nodes.len(), nodes);

    for (i, (obs, c)) in r.obs.nodes.iter().zip(&r.stats.per_node).enumerate() {
        // Breakdown components partition the node's measured wall time
        // (within 1% to absorb rounding at component boundaries).
        let wall = obs.wall_ns();
        assert!(
            wall > 0,
            "{app} {p:?}@{block} node {i}: empty measured region"
        );
        let b = TimeBreakdown::from_counters(c, wall);
        let residual = b.residual_ns().unsigned_abs();
        assert!(
            residual <= wall / 100,
            "{app} {p:?}@{block} node {i}: wall {wall} != accounted {} \
             (residual {residual})\n{}",
            b.accounted_ns(),
            b.render(),
        );
        // The trace reproduces the counters: folding the node's recorded
        // events gives its `Counters` exactly, all fields.
        assert_eq!(obs.dropped, 0, "{app} {p:?}@{block} node {i}: ring wrapped");
        let mut folded = Counters::default();
        for e in &obs.events {
            e.kind.count(&mut folded);
        }
        assert_eq!(
            &folded, c,
            "{app} {p:?}@{block} node {i}: recorded events do not fold to the counters",
        );
    }

    // The run produced events worth exporting (any app at small block sizes
    // communicates), and the fault histogram agrees with the fault counter.
    let msg_send = EventKind::index_of("msg_send").unwrap();
    let total_sends: u64 = r.obs.nodes.iter().map(|n| n.counts[msg_send]).sum();
    assert!(total_sends > 0, "{app} {p:?}@{block}: no messages recorded");

    // Chrome trace: valid JSON, every record carries ph/pid/name, timed
    // records carry ts/tid, and each node got its own track.
    let trace = chrome_trace(&r.obs);
    let v = Value::parse(&trace).expect("chrome trace must be valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let mut tids = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert!(ev.get("pid").unwrap().as_u64().is_some());
        assert!(ev.get("name").unwrap().as_str().is_some());
        if ph != "M" {
            assert!(ev.get("ts").unwrap().as_f64().is_some());
            tids.insert(ev.u64_field("tid").unwrap());
        }
    }
    let expect: std::collections::BTreeSet<u64> = (0..nodes as u64).collect();
    assert_eq!(
        tids, expect,
        "{app} {p:?}@{block}: one trace track per node"
    );

    // JSONL metrics: every line parses, one node record per node plus the
    // run record, and the run record's speedup matches the stats.
    let metrics = jsonl_metrics(&r.obs, &r.stats);
    let lines: Vec<Value> = metrics
        .lines()
        .map(|l| Value::parse(l).expect("each JSONL line must parse"))
        .collect();
    assert_eq!(lines.len(), nodes + 1);
    for (i, line) in lines.iter().take(nodes).enumerate() {
        assert_eq!(line.get("type").unwrap().as_str(), Some("node"));
        assert_eq!(line.u64_field("node"), Some(i as u64));
        assert_eq!(
            line.get("breakdown").unwrap().u64_field("wall_ns"),
            Some(r.obs.nodes[i].wall_ns()),
        );
    }
    let run = &lines[nodes];
    assert_eq!(run.get("type").unwrap().as_str(), Some("run"));
    assert_eq!(
        run.u64_field("parallel_time_ns"),
        Some(r.stats.parallel_time_ns)
    );
    r.stats.totals()
}

#[test]
fn breakdown_partitions_wall_time_lu() {
    for p in Protocol::ALL {
        check_cell("lu", RunConfig::new(p, 1024));
    }
}

#[test]
fn breakdown_partitions_wall_time_fft() {
    for p in Protocol::ALL {
        check_cell("fft", RunConfig::new(p, 1024));
    }
}

#[test]
fn breakdown_partitions_wall_time_barnes_original() {
    // 64-byte blocks: Barnes-Original's false sharing makes the larger
    // granularities much slower to simulate (the paper's point).
    for p in Protocol::ALL {
        check_cell("barnes-original", RunConfig::new(p, 64));
    }
}

/// On a faulty fabric the eight `fabric_*` counters are live too, and the
/// recorded frames, retransmissions and queuing delays must fold to them.
#[test]
fn recorded_events_fold_to_the_fabric_counters() {
    let cfg = RunConfig::new(Protocol::Hlrc, 1024).with_fabric(FabricConfig::faulty(7));
    let t = check_cell("lu", cfg);
    assert!(
        t.fabric_frames > 0 && t.fabric_retries > 0 && t.fabric_drops > 0 && t.fabric_acks > 0,
        "the faulty cell must exercise the fabric counters: {t:?}"
    );
}

/// A disabled recorder stays disabled end to end: no events stored, but the
/// wall-clock bracketing still feeds the time breakdown.
#[test]
fn default_config_records_no_events() {
    let program = app_sized("lu", AppSize::Small).unwrap();
    let cfg = RunConfig::new(Protocol::Hlrc, 1024);
    let r = run_experiment(&cfg, program);
    assert!(r.check.is_ok());
    assert!(!r.obs.recorded);
    for (obs, c) in r.obs.nodes.iter().zip(&r.stats.per_node) {
        assert!(obs.events.is_empty());
        assert_eq!(obs.counts, [0; EventKind::COUNT]);
        // Bracketing works even without event recording.
        let b = TimeBreakdown::from_counters(c, obs.wall_ns());
        assert!(b.residual_ns().unsigned_abs() <= b.wall_ns / 100);
    }
}
