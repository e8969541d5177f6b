//! The JSONL records `diag --json` and `probe --json` print, as functions
//! (`tests/schema_golden.rs` pins each one's version and key set). Types
//! and versions come from [`dsm_obs::schema`].

use dsm_adapt::RegionDecision;
use dsm_core::{ExperimentResult, RegionReport, Violation};
use dsm_json::Value;
use dsm_mc::program::MicroProgram;
use dsm_mc::{McConfig, McReport};
use dsm_obs::schema::{self, Kind};

/// `"config"`: what was run and whether it verified.
pub fn config_record(app: &str, adaptive: bool, r: &ExperimentResult) -> Value {
    let cfg = &r.config;
    let mut head = schema::record(schema::CONFIG);
    head.set("app", app);
    head.set("adaptive", adaptive);
    head.set("protocol", cfg.protocol.name());
    head.set("block", cfg.block_size);
    head.set("speedup", r.speedup());
    head.set("check_ok", r.check.is_ok());
    head.set("checked", cfg.check);
    head.set("violations", r.violations.len());
    let mut fab = Value::obj();
    fab.set("contended", cfg.fabric.ni.is_some());
    fab.set("reliable", cfg.fabric.reliable());
    if let Some(f) = &cfg.fabric.faults {
        fab.set("seed", f.seed);
        fab.set("drop_ppm", u64::from(f.drop_ppm));
    }
    head.set("fabric", fab);
    head
}

/// `"region"`: one region's policy and measured counters, plus — under
/// `--adaptive` — the decision and the profiled statistics behind it.
pub fn region_record(r: &RegionReport, decision: Option<&RegionDecision>) -> Value {
    let mut v = schema::record(schema::REGION);
    if let Some(Value::Obj(fields)) = decision.map(RegionDecision::to_json) {
        for (key, val) in fields {
            v.set(&key, val);
        }
    }
    v.set("region", r.name.as_str());
    v.set("start", r.start);
    v.set("len", r.len);
    v.set("protocol", r.protocol.name());
    v.set("block", r.block);
    v.set("counters", r.counters.to_json());
    v
}

fn violation_record(kind: Kind, v: &Violation) -> Value {
    let mut rec = schema::record(kind);
    rec.set("rule", v.rule);
    rec.set("node", v.node);
    match v.block {
        Some(b) => rec.set("block", b),
        None => rec.set("block", Value::Null),
    };
    rec.set("time_ns", v.time);
    rec.set("detail", v.detail.as_str());
    rec
}

/// `"check"`: one run-time checker violation.
pub fn check_record(v: &Violation) -> Value {
    violation_record(schema::CHECK, v)
}

/// `"mc-violation"`: one violation example from an exploration.
pub fn mc_violation_record(v: &Violation) -> Value {
    let mut rec = violation_record(schema::MC_VIOLATION, v);
    rec.set("display", v.to_string());
    rec
}

/// `"mc"`: the statistics of one exhaustive exploration.
pub fn mc_record(cfg: &McConfig, prog: &MicroProgram, rep: &McReport, elapsed_ms: f64) -> Value {
    let mut v = schema::record(schema::MC);
    v.set("protocol", cfg.protocol.name());
    v.set("program", prog.name.as_str());
    v.set("nodes", prog.nodes());
    v.set("block", cfg.block_size);
    v.set("fault_budget", u64::from(cfg.fault_budget));
    v.set("reduce", cfg.reduce);
    v.set("dedup", cfg.dedup);
    v.set("schedules", rep.schedules);
    v.set("pruned_sleep", rep.pruned_sleep);
    v.set("pruned_dedup", rep.pruned_dedup);
    v.set("pruned_steps", rep.pruned_steps);
    v.set("branches_skipped", rep.branches_skipped);
    v.set("executions", rep.executions());
    v.set("states", rep.states);
    v.set("choice_points", rep.choice_points);
    v.set("max_depth", rep.max_depth);
    v.set("deadlocks", rep.deadlocks);
    v.set("complete", rep.complete);
    v.set("reduction_ratio", rep.reduction_ratio());
    v.set("violations", rep.violation_counts.values().sum::<u64>());
    let mut counts = Value::obj();
    for (rule, n) in &rep.violation_counts {
        counts.set(rule.as_str(), *n);
    }
    v.set("violation_counts", counts);
    v.set("elapsed_ms", elapsed_ms);
    v
}

/// `"cell"`: one (application, protocol, granularity) result of `probe`.
pub fn cell_record(app: &str, r: &ExperimentResult, host_seconds: f64) -> Value {
    let t = r.stats.totals();
    let mut v = schema::record(schema::CELL);
    v.set("app", app);
    v.set("protocol", r.config.protocol.name());
    v.set("block", r.config.block_size);
    v.set("speedup", r.speedup());
    v.set("check_ok", r.check.is_ok());
    v.set("parallel_time_ns", r.stats.parallel_time_ns);
    v.set("sequential_time_ns", r.stats.sequential_time_ns);
    v.set("lease_renewals", t.lease_renewals);
    v.set("lease_expiries", t.lease_expiries);
    v.set("wts_bumps", t.wts_bumps);
    v.set("host_seconds", host_seconds);
    v
}
