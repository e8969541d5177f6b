//! Scenario execution: fan repetitions over a worker pool, collect
//! per-repetition results, and aggregate them into schema-versioned JSONL.
//!
//! Every repetition is an independent deterministic simulation, so the
//! output is bit-identical regardless of the pool width — the same property
//! the cell sweeps rely on. Aggregates are computed over the
//! repetition-ordered result list with a fixed summation order, so the
//! whole JSONL document is byte-identical across invocations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dsm_core::RunStats;
use dsm_core::{run_experiment, schema};
use dsm_json::Value;

use crate::run::RunSpec;
use crate::spec::{policy_json, ScenarioSpec};

/// Result of one repetition.
#[derive(Debug)]
pub struct RepOutcome {
    /// Repetition index (0-based).
    pub rep: usize,
    /// The run the repetition made: the plan's run with this repetition's
    /// seed and, under the adaptive mode, the planned policies.
    pub run: RunSpec,
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

/// Run one repetition.
fn run_rep(spec: &ScenarioSpec, rep: usize) -> Result<RepOutcome, String> {
    let mut run = RunSpec {
        seed: spec.seeds.seed_for(rep),
        ..spec.run.clone()
    };
    let program = run.program()?;
    if spec.adaptive {
        run.adapt(&program);
    }
    let r = run_experiment(&run.to_config(), program);
    Ok(RepOutcome {
        rep,
        run,
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
    spec.run.program()?;
    let reps: Result<Vec<RepOutcome>, String> = pool_map(spec.reps, jobs, |i| run_rep(spec, i))
        .into_iter()
        .collect();
    Ok(ScenarioOutcome {
        spec: spec.clone(),
        reps: reps?,
    })
}

/// The per-repetition metrics, as `(name, value)` pairs in record order.
/// The `scenario-rep` record writes each value as it is (counters stay
/// integers); the aggregate takes mean/min/max over their `f64` readings.
fn metrics(r: &RepOutcome) -> [(&'static str, Value); 14] {
    let t = r.stats.totals();
    [
        ("speedup", r.stats.speedup().into()),
        ("parallel_time_ns", r.stats.parallel_time_ns.into()),
        ("msgs", t.msgs_sent.into()),
        ("traffic_bytes", t.total_traffic().into()),
        ("read_faults", t.read_faults.into()),
        ("write_faults", t.write_faults.into()),
        ("invalidations", t.invalidations.into()),
        ("diffs_created", t.diffs_created.into()),
        // Tardis lease traffic (schema v3): zero under the other protocols.
        ("lease_renewals", t.lease_renewals.into()),
        ("lease_expiries", t.lease_expiries.into()),
        ("wts_bumps", t.wts_bumps.into()),
        ("fabric_retries", t.fabric_retries.into()),
        ("sim_events", r.stats.sim_events.into()),
        ("sim_events_per_sec", sim_events_per_sec(&r.stats).into()),
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
        v.set("seed", r.run.seed);
        v.set("run", r.run.to_string());
        v.set("protocol", r.run.protocol.name().to_lowercase());
        v.set("block", r.run.block);
        if !r.run.regions.is_empty() {
            v.set(
                "policies",
                Value::Arr(r.run.regions.iter().map(policy_json).collect()),
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
        for (name, value) in metrics(r) {
            v.set(name, value);
        }
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
        let per_rep: Vec<_> = self.reps.iter().map(metrics).collect();
        let mut m = Value::obj();
        for (i, (name, _)) in per_rep[0].iter().enumerate() {
            let vals: Vec<f64> = per_rep
                .iter()
                .map(|r| r[i].1.as_f64().expect("a metric is a number"))
                .collect();
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
        assert_eq!(out.reps[0].run.seed, 7);
        assert_eq!(out.reps[1].run.seed, 8);
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
        assert!(!r.run.regions.is_empty());
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
        s.run.app.params.push(("warp".to_string(), 9));
        let e = run_scenario(&s, 1).unwrap_err();
        assert!(e.contains("unknown parameter"), "{e}");
    }
}
