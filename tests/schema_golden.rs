//! Every JSONL record type, pinned: its version and its top-level key set
//! against a committed fixture.
//!
//! `tests/fixtures/schema_golden.txt` holds one line per record type —
//! `type schema sorted-top-level-keys` — produced from the library calls
//! the tools print with (`dsm_obs::{jsonl_metrics, series_jsonl}`,
//! `CritPath::to_json`, `dsm_bench::records`, `ScenarioOutcome::*_json`),
//! so a renamed or dropped key cannot ship without the version bump
//! `dsm_obs::schema` asks for. Keys a record carries only sometimes are
//! shown where the input here has them (`region` with an adaptive decision)
//! and otherwise absent (`scenario-rep`'s `policies`, `check_err`,
//! `violation_details`). `bless` is the only writer.

use dsm::adapt::{choose_policies, profile_run};
use dsm::core::Violation;
use dsm::json::Value;
use dsm::mc::{explore, program, McConfig};
use dsm::obs::{critical_path, jsonl_metrics, series_jsonl};
use dsm::{run_experiment, Protocol, RunConfig};
use dsm_apps::registry::{app_sized, AppSize};
use dsm_bench::records;
use dsm_scenario::{run_scenario, ScenarioSpec};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/schema_golden.txt"
);

fn line(rec: &Value) -> String {
    let Value::Obj(fields) = rec else {
        panic!("a record is an object: {rec}")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    format!(
        "{} {} {}",
        rec.get("type").and_then(Value::as_str).expect("type"),
        rec.u64_field("schema").expect("schema"),
        keys.join(",")
    )
}

/// The first record of each type in a JSONL document, in order of
/// appearance.
fn first_of_each_type(jsonl: &str, out: &mut Vec<Value>) {
    let mut seen = Vec::new();
    for text in jsonl.lines() {
        let rec = Value::parse(text).expect("each JSONL line parses");
        let ty = rec.get("type").and_then(Value::as_str).map(str::to_string);
        if !seen.contains(&ty) {
            seen.push(ty);
            out.push(rec);
        }
    }
}

/// One record of every type, in the order the tools print them.
fn records() -> Vec<Value> {
    let mut out = Vec::new();

    // `diag --adaptive --json --critpath --series`, on lu at test size.
    let program = app_sized("lu", AppSize::Small).expect("lu");
    let cfg = RunConfig::new(Protocol::Hlrc, 1024).with_profile();
    let plan = choose_policies(&program, &profile_run(&program), &cfg);
    let cfg = cfg
        .with_region_policies(plan.policies())
        .with_recording()
        .with_spans()
        .with_series(100_000);
    let r = run_experiment(&cfg, program);
    out.push(records::config_record("lu", true, &r));
    out.push(records::region_record(
        &r.regions[0],
        Some(&plan.decisions[0]),
    ));
    let violation = Violation {
        rule: "hb-race",
        node: 1,
        block: Some(3),
        time: 5,
        detail: "example".to_string(),
    };
    out.push(records::check_record(&violation));
    first_of_each_type(&jsonl_metrics(&r.obs, &r.stats), &mut out);
    let cp = critical_path(&r.obs, r.stats.parallel_time_ns).expect("spans were on");
    out.push(cp.to_json(3));
    first_of_each_type(&series_jsonl(&r.obs), &mut out);

    // `diag --mc --json`.
    let (mc_cfg, prog) = (McConfig::new(Protocol::Sc), program::msg_pass());
    let rep = explore(&mc_cfg, &prog);
    out.push(records::mc_record(&mc_cfg, &prog, &rep, 0.0));
    out.push(records::mc_violation_record(&violation));

    // `probe --json`.
    out.push(records::cell_record("lu", &r, 0.0));

    // `scenario`, on a bundled plan.
    let plan = include_str!("../scenarios/lu-baseline.json");
    let outcome = run_scenario(&ScenarioSpec::parse(plan).expect("bundled plan"), 1)
        .expect("bundled plan runs");
    out.push(outcome.header_json());
    out.push(outcome.rep_json(&outcome.reps[0]));
    out.push(outcome.aggregate_json());
    out
}

fn render() -> Vec<String> {
    records().iter().map(line).collect()
}

#[test]
fn every_record_matches_the_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let want: Vec<&str> = text.lines().collect();
    let got = render();
    assert_eq!(got.len(), 13);
    assert_eq!(got.len(), want.len(), "fixture has a line per record type");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "record shape drift (left: this build, right: fixture): \
             bump the version in dsm_obs::schema if a key went away"
        );
    }
}

#[test]
#[ignore = "rewrites the fixture; run deliberately, and say why in the PR"]
fn bless() {
    std::fs::write(FIXTURE, render().join("\n") + "\n").unwrap();
}
