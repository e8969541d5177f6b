//! Scenario execution: fan repetitions over a worker pool, collect
//! per-repetition results, and aggregate them into schema-versioned JSONL.
//!
//! Every repetition is an independent deterministic simulation, so the
//! output is bit-identical regardless of the pool width — the same property
//! the cell sweeps rely on. Aggregates are computed over the
//! repetition-ordered result list with a fixed summation order, so the
//! whole JSONL document is byte-identical across invocations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dsm_adapt::{choose_policies, profile_run};
use dsm_core::RunStats;
use dsm_core::{run_experiment, schema, FabricConfig, Protocol, RegionPolicy, RunConfig};
use dsm_json::Value;

use crate::spec::{Mode, ScenarioSpec};

/// Result of one repetition.
#[derive(Debug)]
pub struct RepOutcome {
    /// Repetition index (0-based).
    pub rep: usize,
    /// Seed the repetition ran under.
    pub seed: u64,
    /// Effective default protocol (the adaptive planner's uniform winner
    /// when the mode is adaptive).
    pub protocol: Protocol,
    /// Effective default granularity.
    pub block: usize,
    /// Per-region policies actually applied (empty for a uniform run).
    pub policies: Vec<RegionPolicy>,
    /// Full run statistics, sequential baseline included.
    pub stats: RunStats,
    /// Error text if the parallel image diverged from the sequential one.
    pub check_err: Option<String>,
    /// Checker violation count (races + protocol invariants; zero with the
    /// checker off or on a clean run).
    pub violations: usize,
    /// The first few violations, preformatted via `Violation`'s `Display`
    /// (`[rule] node N block B t=..ns: detail`), for human-readable
    /// diagnostics without re-running.
    pub violation_details: Vec<String>,
}

impl RepOutcome {
    fn ok(&self) -> bool {
        self.check_err.is_none() && self.violations == 0
    }
}

/// Everything one scenario produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// One outcome per repetition, in repetition order.
    pub reps: Vec<RepOutcome>,
}

/// Build the effective `RunConfig` for one repetition — the mode decides
/// protocol/granularity/policies, the rest of the spec decides everything
/// else. Adaptive mode profiles this repetition's program (the seed
/// reshapes it) and applies the planner's choice.
fn config_for(spec: &ScenarioSpec, program: &dsm_core::Program) -> RunConfig {
    let fabric = FabricConfig::parse(&spec.fabric).expect("fabric validated at parse time");
    let apply = |mut cfg: RunConfig| {
        cfg = cfg
            .with_nodes(spec.nodes)
            .with_notify(spec.notify)
            .with_fabric(fabric.clone());
        if spec.check {
            cfg = cfg.with_check();
        }
        if spec.spans {
            cfg = cfg.with_spans();
        }
        cfg
    };
    match &spec.mode {
        Mode::Fixed { protocol, block } => apply(RunConfig::new(*protocol, *block)),
        Mode::Mixed {
            protocol,
            block,
            regions,
        } => apply(RunConfig::new(*protocol, *block)).with_region_policies(
            regions
                .iter()
                .map(|(n, p, b)| RegionPolicy::new(n, *p, *b))
                .collect(),
        ),
        Mode::Adaptive => {
            let data = profile_run(program);
            let base = apply(RunConfig::new(Protocol::Sc, 4096));
            choose_policies(program, &data, &base).apply(base)
        }
    }
}

/// Run one repetition.
fn run_rep(spec: &ScenarioSpec, rep: usize) -> Result<RepOutcome, String> {
    let seed = spec.seeds.seed_for(rep);
    let program = spec.app.build(seed)?;
    let cfg = config_for(spec, &program);
    let r = run_experiment(&cfg, Arc::clone(&program));
    Ok(RepOutcome {
        rep,
        seed,
        protocol: cfg.protocol,
        block: cfg.block_size,
        policies: cfg.region_policies,
        stats: r.stats,
        check_err: r.check.err(),
        violations: r.violations.len(),
        violation_details: r.violations.iter().take(8).map(|v| v.to_string()).collect(),
    })
}

/// Run `f(i)` for every `i in 0..n` on up to `jobs` worker threads, returning
/// results in index order. Work is claimed from a shared atomic counter;
/// each item's result is independent of scheduling, so the output is
/// identical to the serial (`jobs == 1`) execution. Public because the
/// bench sweeps fan their cells out over the same pool.
pub fn pool_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                slots.lock().unwrap()[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker pool left a slot unfilled"))
        .collect()
}

/// Execute every repetition of `spec` across up to `jobs` worker threads.
/// Results are identical to a serial run; errors (unknown app or parameter)
/// surface from the first repetition they affect.
pub fn run_scenario(spec: &ScenarioSpec, jobs: usize) -> Result<ScenarioOutcome, String> {
    // Surface build errors before spinning up the pool: a bad app spec
    // fails identically for every repetition.
    spec.app.build(spec.seeds.seed_for(0))?;
    let reps: Result<Vec<RepOutcome>, String> = pool_map(spec.reps, jobs, |i| run_rep(spec, i))
        .into_iter()
        .collect();
    Ok(ScenarioOutcome {
        spec: spec.clone(),
        reps: reps?,
    })
}

/// The per-repetition metrics that get aggregated, as `(name, value)`
/// pairs in a fixed order.
fn metrics(r: &RepOutcome) -> Vec<(&'static str, f64)> {
    let t = r.stats.totals();
    vec![
        ("speedup", r.stats.speedup()),
        ("parallel_time_ns", r.stats.parallel_time_ns as f64),
        ("msgs", t.msgs_sent as f64),
        ("traffic_bytes", t.total_traffic() as f64),
        ("read_faults", t.read_faults as f64),
        ("write_faults", t.write_faults as f64),
        ("invalidations", t.invalidations as f64),
        ("diffs_created", t.diffs_created as f64),
        ("lease_renewals", t.lease_renewals as f64),
        ("lease_expiries", t.lease_expiries as f64),
        ("wts_bumps", t.wts_bumps as f64),
        ("fabric_retries", t.fabric_retries as f64),
        ("sim_events", r.stats.sim_events as f64),
        ("sim_events_per_sec", sim_events_per_sec(&r.stats)),
    ]
}

/// Simulator event density: events per *virtual* second of measured
/// parallel time. Deliberately not a wall-clock rate — both inputs are
/// deterministic, so the JSONL stays byte-identical across hosts and job
/// widths (the host-side throughput metric is `dsm-perf`'s `events_per_s`).
fn sim_events_per_sec(s: &RunStats) -> f64 {
    if s.parallel_time_ns == 0 {
        return 0.0;
    }
    s.sim_events as f64 / (s.parallel_time_ns as f64 / 1e9)
}

fn policy_json(p: &RegionPolicy) -> Value {
    let mut v = Value::obj();
    v.set("name", p.name.as_str());
    v.set("protocol", p.protocol.name().to_lowercase());
    v.set("block", p.block);
    v
}

impl ScenarioOutcome {
    /// Did every repetition verify with zero checker violations?
    pub fn ok(&self) -> bool {
        self.reps.iter().all(RepOutcome::ok)
    }

    /// The header record: scenario identity plus the canonical spec.
    pub fn header_json(&self) -> Value {
        let mut v = schema::record(schema::SCENARIO);
        v.set("name", self.spec.name.as_str());
        v.set("spec", self.spec.to_json());
        v
    }

    /// One record per repetition.
    pub fn rep_json(&self, r: &RepOutcome) -> Value {
        let mut v = schema::record(schema::SCENARIO_REP);
        v.set("scenario", self.spec.name.as_str());
        v.set("rep", r.rep);
        v.set("seed", r.seed);
        v.set("protocol", r.protocol.name().to_lowercase());
        v.set("block", r.block);
        if !r.policies.is_empty() {
            v.set(
                "policies",
                Value::Arr(r.policies.iter().map(policy_json).collect()),
            );
        }
        v.set("check_ok", r.ok());
        if let Some(e) = &r.check_err {
            v.set("check_err", e.as_str());
        }
        v.set("violations", r.violations);
        if !r.violation_details.is_empty() {
            v.set(
                "violation_details",
                Value::Arr(
                    r.violation_details
                        .iter()
                        .map(|d| Value::from(d.as_str()))
                        .collect(),
                ),
            );
        }
        v.set("sequential_time_ns", r.stats.sequential_time_ns);
        // Same metric names as the aggregate record, but counters stay
        // integers here; only the cross-rep statistics are floats.
        let t = r.stats.totals();
        v.set("speedup", r.stats.speedup());
        v.set("parallel_time_ns", r.stats.parallel_time_ns);
        v.set("msgs", t.msgs_sent);
        v.set("traffic_bytes", t.total_traffic());
        v.set("read_faults", t.read_faults);
        v.set("write_faults", t.write_faults);
        v.set("invalidations", t.invalidations);
        v.set("diffs_created", t.diffs_created);
        // Tardis lease traffic (schema v3): zero under the other protocols.
        v.set("lease_renewals", t.lease_renewals);
        v.set("lease_expiries", t.lease_expiries);
        v.set("wts_bumps", t.wts_bumps);
        v.set("fabric_retries", t.fabric_retries);
        v.set("sim_events", r.stats.sim_events);
        v.set("sim_events_per_sec", sim_events_per_sec(&r.stats));
        v
    }

    /// The aggregate record: mean/min/max of every metric over the
    /// repetitions, plus run-health totals.
    pub fn aggregate_json(&self) -> Value {
        let mut v = schema::record(schema::SCENARIO_AGGREGATE);
        v.set("scenario", self.spec.name.as_str());
        v.set("reps", self.reps.len());
        v.set(
            "checks_failed",
            self.reps.iter().filter(|r| r.check_err.is_some()).count(),
        );
        v.set(
            "violations",
            self.reps.iter().map(|r| r.violations).sum::<usize>(),
        );
        let per_rep: Vec<Vec<(&str, f64)>> = self.reps.iter().map(metrics).collect();
        let mut m = Value::obj();
        for (i, (name, _)) in per_rep[0].iter().enumerate() {
            let vals: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
            let mut stat = Value::obj();
            stat.set("mean", vals.iter().sum::<f64>() / vals.len() as f64);
            stat.set("min", vals.iter().copied().fold(f64::INFINITY, f64::min));
            stat.set(
                "max",
                vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            m.set(name, stat);
        }
        v.set("metrics", m);
        v
    }

    /// The complete JSONL document: header, one line per repetition, and
    /// the aggregate. Byte-identical across invocations of the same spec.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header_json().to_string());
        out.push('\n');
        for r in &self.reps {
            out.push_str(&self.rep_json(r).to_string());
            out.push('\n');
        }
        out.push_str(&self.aggregate_json().to_string());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> ScenarioSpec {
        ScenarioSpec::parse(text).unwrap()
    }

    #[test]
    fn output_is_byte_identical_across_invocations_and_pool_widths() {
        let s = spec(
            r#"{
            "name": "det",
            "app": {"name": "random-drf", "size": "small"},
            "nodes": 8,
            "mode": {"kind": "fixed", "protocol": "sw-lrc", "block": 256},
            "check": true,
            "reps": 3,
            "seed": 41
        }"#,
        );
        let serial = run_scenario(&s, 1).unwrap();
        let pooled = run_scenario(&s, 4).unwrap();
        let again = run_scenario(&s, 4).unwrap();
        assert!(serial.ok());
        assert_eq!(serial.jsonl(), pooled.jsonl());
        assert_eq!(pooled.jsonl(), again.jsonl());
        // Three lines of body: header + 3 reps + aggregate.
        assert_eq!(serial.jsonl().lines().count(), 5);
    }

    #[test]
    fn seeds_differentiate_repetitions() {
        let s = spec(
            r#"{
            "name": "seeded",
            "app": {"name": "kv-zipf", "size": "small", "params": {"ops": 2000, "epochs": 2}},
            "mode": {"kind": "fixed", "protocol": "hlrc", "block": 1024},
            "reps": 2,
            "seed": 7
        }"#,
        );
        let out = run_scenario(&s, 2).unwrap();
        assert!(out.ok());
        assert_eq!(out.reps[0].seed, 7);
        assert_eq!(out.reps[1].seed, 8);
        // Different seeds reshape the op stream, so the traffic differs.
        assert_ne!(
            out.reps[0].stats.totals().msgs_sent,
            out.reps[1].stats.totals().msgs_sent
        );
    }

    #[test]
    fn adaptive_mode_reports_the_planned_policies() {
        let s = spec(
            r#"{
            "name": "adapt",
            "app": "fft",
            "mode": {"kind": "adaptive"},
            "check": true
        }"#,
        );
        let out = run_scenario(&s, 1).unwrap();
        assert!(out.ok());
        let r = &out.reps[0];
        // The planner always pins an explicit policy per region.
        assert!(!r.policies.is_empty());
        let line = out.rep_json(r).to_string();
        assert!(line.contains("\"policies\""), "{line}");
    }

    #[test]
    fn faulty_fabric_scenario_retries_and_still_verifies() {
        let s = spec(
            r#"{
            "name": "chaos",
            "app": {"name": "random-drf", "size": "small"},
            "mode": {"kind": "fixed", "protocol": "hlrc", "block": 1024},
            "fabric": "faulty,seed=9,drop=10000,reorder=20000",
            "check": true,
            "reps": 2,
            "seed": 100
        }"#,
        );
        let out = run_scenario(&s, 2).unwrap();
        assert!(out.ok(), "chaos scenario failed verification");
        let retries: u64 = out
            .reps
            .iter()
            .map(|r| r.stats.totals().fabric_retries)
            .sum();
        assert!(retries > 0, "1% drop produced no retransmissions");
        let agg = out.aggregate_json().to_string();
        assert!(agg.contains("\"fabric_retries\""), "{agg}");
    }

    #[test]
    fn bad_app_errors_before_running() {
        // The parser rejects this; a spec built in code reaches the runner.
        let mut s = spec(
            r#"{
            "name": "broken",
            "app": {"name": "kv-zipf"},
            "mode": {"kind": "fixed", "protocol": "sc", "block": 64}
        }"#,
        );
        s.app.params.push(("warp".to_string(), 9));
        let e = run_scenario(&s, 1).unwrap_err();
        assert!(e.contains("unknown parameter"), "{e}");
    }
}
