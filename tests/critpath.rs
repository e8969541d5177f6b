//! Invariant tests for causal span tracing, critical-path extraction and
//! windowed time-series collection.
//!
//! The load-bearing guarantees:
//!
//! * the per-category attribution sums to `parallel_time_ns` **exactly**
//!   (the path tiles the measured interval by construction) on every
//!   application under every protocol;
//! * span tracing never perturbs the simulation: a spans-on run is
//!   bit-identical to a spans-off run;
//! * the Perfetto export renders cross-node flow arrows for fetch and
//!   lock-transfer spans;
//! * series buckets reconcile with the protocol counters.

use dsm::{run_experiment, Protocol, RunConfig};
use dsm_apps::registry::{all_app_names, app_sized, AppSize};
use dsm_json::Value;
use dsm_obs::{chrome_trace, critical_path, series_jsonl, CritPath};

/// Run one application under `cfg` with spans on and check that it
/// verifies with no checker violation (there are none to find when `cfg`
/// leaves the checker off) and every critical-path invariant: exact
/// attribution, contiguous chronological tiling of the measured interval,
/// and a sane speedup bound.
fn check_critpath(app: &str, cfg: RunConfig, size: AppSize) -> CritPath {
    let (p, block) = (cfg.protocol, cfg.block_size);
    let r = run_experiment(&cfg.with_spans(), app_sized(app, size).unwrap());
    assert!(r.check.is_ok(), "{app} {p:?}@{block}: {:?}", r.check);
    assert!(
        r.violations.is_empty(),
        "{app} {p:?}@{block}: {}",
        r.violations[0]
    );
    let spans = r.obs.spans.as_ref().expect("spans enabled");
    assert!(!spans.is_empty(), "{app} {p:?}@{block}: no span events");
    let cp = critical_path(&r.obs, r.stats.parallel_time_ns)
        .unwrap_or_else(|| panic!("{app} {p:?}@{block}: no critical path"));
    assert!(
        cp.is_exact(),
        "{app} {p:?}@{block}: attributed {} != parallel {}",
        cp.attributed_ns(),
        cp.parallel_time_ns
    );
    assert!(!cp.truncated, "{app} {p:?}@{block}: walk truncated");
    assert!(cp.span_events > 0);
    // The segments tile [measure_start, measure_start + parallel_time]
    // contiguously in chronological order — that is *why* the sum is exact.
    let mut t = cp.measure_start_ns;
    for seg in &cp.segments {
        assert_eq!(
            seg.start, t,
            "{app} {p:?}@{block}: gap or overlap at {t} ({seg:?})"
        );
        assert!(seg.end > seg.start);
        t = seg.end;
    }
    assert_eq!(t, cp.measure_start_ns + cp.parallel_time_ns);
    // Category totals are just the segments re-binned.
    let seg_sum: u64 = cp.segments.iter().map(|s| s.dur()).sum();
    assert_eq!(seg_sum, cp.by_category.iter().sum::<u64>());
    cp
}

#[test]
fn critpath_exact_all_apps_sc() {
    for app in all_app_names() {
        check_critpath(app, RunConfig::new(Protocol::Sc, 4096), AppSize::Small);
    }
}

#[test]
fn critpath_exact_all_apps_swlrc() {
    for app in all_app_names() {
        check_critpath(app, RunConfig::new(Protocol::SwLrc, 4096), AppSize::Small);
    }
}

#[test]
fn critpath_exact_all_apps_hlrc() {
    for app in all_app_names() {
        check_critpath(app, RunConfig::new(Protocol::Hlrc, 4096), AppSize::Small);
    }
}

#[test]
fn critpath_exact_all_apps_tardis() {
    for app in all_app_names() {
        check_critpath(app, RunConfig::new(Protocol::Tardis, 4096), AppSize::Small);
    }
}

/// The paper's size, with the checker on, on four applications that cover
/// its sharing styles (blocked, scatter-gather, lock-heavy irregular,
/// all-pairs).
#[test]
#[cfg_attr(debug_assertions, ignore = "Standard cells; run with --release")]
fn critpath_exact_and_checker_clean_at_standard_size() {
    for app in ["lu", "fft", "barnes-spatial", "water-nsquared"] {
        for p in Protocol::ALL {
            check_critpath(app, RunConfig::new(p, 4096).with_check(), AppSize::Standard);
        }
    }
}

/// Span tracing is observation only: enabling it changes neither the
/// modeled times nor the event count nor any per-node counter.
#[test]
fn spans_off_runs_are_bit_identical() {
    for app in ["lu", "water-nsquared"] {
        let p = Protocol::Hlrc;
        let off = run_experiment(
            &RunConfig::new(p, 1024),
            app_sized(app, AppSize::Small).unwrap(),
        );
        let on = run_experiment(
            &RunConfig::new(p, 1024).with_spans(),
            app_sized(app, AppSize::Small).unwrap(),
        );
        assert!(off.obs.spans.is_none());
        assert!(on.obs.spans.is_some());
        assert_eq!(off.stats.parallel_time_ns, on.stats.parallel_time_ns);
        assert_eq!(off.stats.sim_events, on.stats.sim_events);
        assert_eq!(
            off.stats.totals().to_json().to_string(),
            on.stats.totals().to_json().to_string(),
            "{app}: spans-on run diverged from spans-off"
        );
    }
}

/// The Perfetto export carries cross-node flow arrows ("s"/"f" pairs in the
/// `span` category) for at least the fetch and lock-transfer span classes,
/// and stays valid JSON.
#[test]
fn chrome_trace_renders_fetch_and_lock_flow_arrows() {
    let program = app_sized("water-nsquared", AppSize::Small).unwrap();
    let cfg = RunConfig::new(Protocol::SwLrc, 1024)
        .with_recording()
        .with_spans();
    let r = run_experiment(&cfg, program);
    assert!(r.check.is_ok());
    let trace = chrome_trace(&r.obs);
    let v = Value::parse(&trace).expect("trace must be valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let mut fetch = (0u32, 0u32); // (starts, finishes)
    let mut lock = (0u32, 0u32);
    for ev in events {
        if ev.get("cat").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        let name = ev.get("name").unwrap().as_str().unwrap();
        assert!(ev.u64_field("id").is_some(), "flow events need an id");
        match (name, ph) {
            ("fetch", "s") => fetch.0 += 1,
            ("fetch", "f") => fetch.1 += 1,
            ("lock", "s") => lock.0 += 1,
            ("lock", "f") => lock.1 += 1,
            _ => {}
        }
    }
    assert!(fetch.0 > 0, "no fetch flow arrows");
    assert!(lock.0 > 0, "no lock flow arrows");
    assert_eq!(fetch.0, fetch.1, "unpaired fetch flows");
    assert_eq!(lock.0, lock.1, "unpaired lock flows");
}

/// Series buckets reconcile with the counters: the summed per-node message
/// counts equal `msgs_sent`, and every JSONL record is schema-versioned and
/// parseable.
#[test]
fn series_buckets_reconcile_with_counters() {
    let program = app_sized("fft", AppSize::Small).unwrap();
    let cfg = RunConfig::new(Protocol::Sc, 4096).with_series(100_000);
    let r = run_experiment(&cfg, program);
    assert!(r.check.is_ok());
    let sr = r.obs.series.as_ref().expect("series enabled");
    assert_eq!(sr.window_ns, 100_000);
    assert_eq!(sr.nodes.len(), cfg.nodes);
    for (i, (n, c)) in sr.nodes.iter().zip(&r.stats.per_node).enumerate() {
        let msgs: u64 = n.buckets.iter().map(|b| b.msgs).sum();
        assert_eq!(msgs, c.msgs_sent, "node {i}: series msgs != msgs_sent");
    }
    let jsonl = series_jsonl(&r.obs);
    let mut records = 0;
    for line in jsonl.lines() {
        let v = Value::parse(line).expect("series line must parse");
        assert_eq!(v.get("type").unwrap().as_str(), Some("series"));
        assert_eq!(v.u64_field("schema"), Some(1));
        assert!(v.u64_field("window_ns").is_some());
        assert!(v.u64_field("start_ns").is_some());
        records += 1;
    }
    assert!(records > 0, "no series records emitted");
}
