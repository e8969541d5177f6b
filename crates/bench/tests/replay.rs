//! A scenario repetition's `"run"` is the `diag` argument list that re-runs
//! it: for the first repetition of every bundled plan, `diag --json` on that
//! line reports the repetition's counters and modelled times.

use std::process::Command;

use dsm_json::Value;
use dsm_scenario::{run_scenario, ScenarioSpec, SeedSeq};

/// The `scenario-rep` keys and the `run` record's counter each one is.
const COUNTERS: [(&str, &str); 9] = [
    ("msgs", "msgs_sent"),
    ("read_faults", "read_faults"),
    ("write_faults", "write_faults"),
    ("invalidations", "invalidations"),
    ("diffs_created", "diffs_created"),
    ("lease_renewals", "lease_renewals"),
    ("lease_expiries", "lease_expiries"),
    ("wts_bumps", "wts_bumps"),
    ("fabric_retries", "fabric_retries"),
];

#[test]
fn every_bundled_plan_replays_through_diag() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut plans: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ is committed")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    plans.sort();
    assert_eq!(plans.len(), 6, "{plans:?}");
    for path in plans {
        let mut spec = ScenarioSpec::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        spec.reps = 1;
        if let SeedSeq::List(seeds) = &mut spec.seeds {
            seeds.truncate(1);
        }
        let out = run_scenario(&spec, 1).unwrap();
        let rep = out.rep_json(&out.reps[0]);
        let line = rep.get("run").and_then(Value::as_str).expect("a run line");
        let diag = Command::new(env!("CARGO_BIN_EXE_diag"))
            .arg("--json")
            .args(line.split_whitespace())
            .output()
            .expect("diag runs");
        let stderr = String::from_utf8_lossy(&diag.stderr);
        assert!(diag.status.success(), "diag {line}: {stderr}");
        let stdout = String::from_utf8(diag.stdout).unwrap();
        let run = stdout
            .lines()
            .map(|l| Value::parse(l).unwrap())
            .find(|v| v.get("type").and_then(Value::as_str) == Some("run"))
            .unwrap_or_else(|| panic!("diag {line} printed no run record"));
        for key in ["parallel_time_ns", "sequential_time_ns"] {
            assert_eq!(run.u64_field(key), rep.u64_field(key), "diag {line}: {key}");
        }
        let counters = run.get("counters").expect("counters");
        for (rep_key, counter) in COUNTERS {
            assert_eq!(
                counters.u64_field(counter),
                rep.u64_field(rep_key),
                "diag {line}: {rep_key}"
            );
        }
    }
}
