//! The three modern workload families (Zipfian KV store, PageRank graph
//! kernel, random-DRF generator) must behave like the twelve kernels:
//! verify against their sequential runs and stay clean under the race
//! detector + invariant checker, on every protocol at multiple
//! granularities. The scenario plans bundled in `scenarios/` run clean and
//! deterministically.

use std::sync::Arc;

use dsm::json::Value;
use dsm::obs::schema::{SCENARIO, SCENARIO_AGGREGATE};
use dsm::{run_checked, run_parallel, Protocol, RunConfig};
use dsm_apps::{app_sized, modern_app_names, AppSize, KvZipf, PageRank};
use dsm_scenario::{run_scenario, RunSpec, ScenarioSpec};

/// Granularities exercised per protocol: the coarsest (pages) and a fine
/// one, which together cover both false-sharing and fragmentation regimes.
const BLOCKS: [usize; 2] = [4096, 256];

#[test]
fn modern_apps_run_clean_under_checker_everywhere() {
    for name in modern_app_names() {
        let program = app_sized(name, AppSize::Small).unwrap();
        for protocol in Protocol::ALL {
            for block in BLOCKS {
                let cfg = RunConfig::new(protocol, block).with_check();
                // run_checked panics on an image mismatch or any checker
                // violation — races included.
                let r = run_checked(&cfg, Arc::clone(&program));
                assert!(
                    r.stats.totals().msgs_sent > 0,
                    "{name} {protocol:?}@{block}: no protocol traffic — workload degenerate"
                );
            }
        }
    }
}

#[test]
fn kv_zipf_fine_grain_sc_is_invariant_clean() {
    // Regression: a write transaction that invalidated the home's copy
    // locally used to skip the grant poisoning that remote sharers get via
    // ScInval, so the home's own in-flight read self-grant could install a
    // stale read copy under the new exclusive owner (the checker flagged it
    // as "sc-exclusive-with-readers"). The contended KV store at SC@64
    // reproduces that interleaving; run_checked panics on any violation.
    let program: dsm::Program = Arc::new(KvZipf::new(5, 256, 3_000, 3, 99, 70));
    run_checked(&RunConfig::new(Protocol::Sc, 64).with_check(), program);
}

#[test]
fn kv_hot_migration_changes_sharing_but_not_results() {
    // With migration (epochs > 1) vs a single epoch: same final image by
    // construction is NOT expected (op streams differ in epoch count only
    // when the per-epoch split changes rounding), so compare a fixed shape
    // against itself across cluster sizes instead: the store's final image
    // must be node-count invariant (commutative updates + ownership-
    // partitioned execution).
    let mk = || Arc::new(KvZipf::new(7, 256, 4_000, 4, 99, 60));
    let base = run_parallel(&RunConfig::new(Protocol::Hlrc, 1024), mk());
    for nodes in [4usize, 8] {
        let r = run_parallel(
            &RunConfig::new(Protocol::Hlrc, 1024).with_nodes(nodes),
            mk(),
        );
        assert_eq!(
            base.image.bytes(),
            r.image.bytes(),
            "{nodes}-node image diverged from 16-node image"
        );
    }
}

#[test]
fn kv_zipf_skew_shows_up_in_access_counts() {
    // After a run, the count table must reflect the Zipfian skew: the
    // hottest key absorbs far more writes than the median key.
    let kv = KvZipf::new(3, 256, 6_000, 3, 99, 40);
    let out = run_parallel(&RunConfig::new(Protocol::Sc, 1024), Arc::new(kv.clone()));
    let counts: Vec<u64> = (0..kv.keys())
        .map(|k| out.image.read_u64(kv.counts_base() + k * 8))
        .collect();
    let max = *counts.iter().max().unwrap();
    let mut sorted = counts.clone();
    sorted.sort_unstable();
    let median = sorted[kv.keys() / 2];
    assert!(
        max >= 10 * median.max(1),
        "no skew: max {max}, median {median}"
    );
}

#[test]
fn pagerank_is_bit_identical_across_cluster_sizes() {
    // Fixed per-vertex summation order makes the FP result exactly
    // reproducible no matter how vertices are partitioned.
    let mk = || Arc::new(PageRank::new(5, 96, 4, 3));
    let base = run_parallel(&RunConfig::new(Protocol::SwLrc, 1024), mk());
    for nodes in [2usize, 5] {
        let r = run_parallel(
            &RunConfig::new(Protocol::SwLrc, 1024).with_nodes(nodes),
            mk(),
        );
        assert_eq!(base.image.bytes(), r.image.bytes());
    }
}

#[test]
fn modern_apps_region_hints_drive_mixed_mode() {
    // Every modern app declares regions; running each with a
    // heterogeneous per-region policy must still verify.
    use dsm::RegionPolicy;
    for (name, region) in [
        ("kv-zipf", "values"),
        ("pagerank", "graph"),
        ("random-drf", "buf0"),
    ] {
        let program = app_sized(name, AppSize::Small).unwrap();
        let cfg = RunConfig::new(Protocol::Hlrc, 1024)
            .with_region_policies(vec![RegionPolicy::new(region, Protocol::Sc, 256)]);
        run_checked(&cfg, program);
    }
}

#[test]
fn a_bad_modern_app_parameter_fails_the_parse_and_names_itself() {
    // `scenarios/kv-hot-migration.json` with one parameter changed, and the
    // other two families' shapes: each used to panic in its constructor or
    // run truncated (4294967297 read as 1), and is now a parse error.
    let plan = |app: &str| {
        format!(
            r#"{{"name": "bad", "app": {app}, "nodes": 16,
                "mode": {{"kind": "fixed", "protocol": "hlrc", "block": 1024}},
                "check": true, "reps": 3, "seed": 1000}}"#
        )
    };
    let kv = |params: &str| {
        plan(&format!(
            r#"{{"name": "kv-zipf", "size": "small", "params": {{"theta_x100": 99, {params}}}}}"#
        ))
    };
    for (doc, needle) in [
        (kv(r#""keys": 8"#), "keys = 8"),
        (kv(r#""read_pct": 101"#), "read_pct = 101"),
        (kv(r#""read_pct": 4294967297"#), "\"read_pct\" = 4294967297"),
        (kv(r#""epochs": 0"#), "epochs = 0"),
        (kv(r#""ops": 3"#), "ops = 3"),
        (kv(r#""keys": 4294967296"#), "keys = 4294967296"),
        (
            plan(r#"{"name": "pagerank", "params": {"vertices": 1}}"#),
            "vertices = 1",
        ),
        (
            plan(r#"{"name": "pagerank", "params": {"iters": 0}}"#),
            "iters = 0",
        ),
        (
            plan(r#"{"name": "random-drf", "params": {"phases": 0}}"#),
            "phases = 0",
        ),
    ] {
        let e = ScenarioSpec::parse(&doc).expect_err(&doc);
        assert!(e.contains(needle), "{e} (wanted {needle:?})");
        assert!(!e.contains('\n'), "one line: {e}");
    }
    // The bundled plan itself still parses.
    assert!(ScenarioSpec::parse(&kv(r#""read_pct": 60"#)).is_ok());
}

#[test]
fn bundled_scenarios_run_clean_and_deterministically() {
    // Every plan in the directory, so a new one is covered as it lands.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut plans: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ is committed")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    plans.sort();
    assert!(!plans.is_empty(), "no plans in {dir}");
    let mut aggregates = 0;
    for path in &plans {
        let text = std::fs::read_to_string(path).unwrap();
        let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let name = spec.name.as_str();
        let out = run_scenario(&spec, 1).unwrap();
        let jsonl = out.jsonl();
        assert_eq!(
            jsonl,
            run_scenario(&spec, 2).unwrap().jsonl(),
            "{name}: the JSONL depends on the pool width"
        );
        // Verified against the sequential image, with no checker violation.
        assert!(out.ok(), "{name}: {jsonl}");
        for line in jsonl.lines() {
            let rec = Value::parse(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            assert_eq!(rec.u64_field("schema"), Some(SCENARIO.1.into()), "{line}");
            if rec.get("type").and_then(Value::as_str) == Some(SCENARIO_AGGREGATE.0) {
                aggregates += 1;
            }
        }
        // A repetition is its run line: the line parses back to the run.
        for r in &out.reps {
            let line = r.run.to_string();
            let back: RunSpec = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, r.run, "{line}");
            assert_eq!(back.to_string(), line);
        }
        let reps: Vec<_> = out.reps.iter().map(|r| r.stats.totals()).collect();
        match name {
            "drf-chaos" => assert!(
                reps.iter().any(|t| t.fabric_retries > 0),
                "the chaos plan never retransmitted"
            ),
            "tardis-lease-churn" => {
                for t in &reps {
                    assert!(t.lease_expiries > 0 && t.wts_bumps > 0, "{t:?}");
                }
                assert!(reps.iter().any(|t| t.fabric_retries > 0));
            }
            _ => {}
        }
    }
    assert_eq!(aggregates, plans.len(), "one aggregate record per plan");
}
