//! `diag`, `probe`, `report` and `scenario` on malformed arguments or
//! environment values: a one-line message naming the argument and exit
//! status 2 — never a panic. And no other environment variable changes a
//! run.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("binary runs")
}

fn rejects(bin: &str, args: &[&str], env: &[(&str, &str)], names: &str) {
    let out = run(bin, args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{env:?} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{env:?} {args:?}: {stderr}");
    assert!(
        stderr.contains(names),
        "{env:?} {args:?} must name {names:?}: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{env:?} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{env:?} {args:?}: ran before rejecting"
    );
}

#[test]
fn diag_rejects_malformed_positionals() {
    let diag = env!("CARGO_BIN_EXE_diag");
    rejects(diag, &["lu", "mesi", "64"], &[], "mesi");
    rejects(diag, &["nosuchapp", "sc", "64"], &[], "nosuchapp");
    rejects(diag, &["lu", "sc", "sixty"], &[], "sixty");
    rejects(diag, &["lu", "sc", "100"], &[], "100");
    rejects(diag, &["--mc", "block=100"], &[], "100");
    rejects(diag, &["--mc", "faults=4294967297"], &[], "4294967297");
    // A program shape the program does not take is not quietly replaced by
    // one it does.
    for (spec, key) in [
        ("prog=lock,nodes=1", "nodes=1"),
        ("prog=ping,nodes=0", "nodes=0"),
        ("prog=lock,rounds=0", "rounds=0"),
        ("prog=pingpong,rounds=0", "rounds=0"),
        ("rounds=0", "rounds=0"),
        ("prog=msg,nodes=7", "nodes=7"),
        ("prog=msg,rounds=9", "rounds=9"),
        ("prog=pingpong,nodes=5", "nodes=5"),
    ] {
        rejects(diag, &["--mc", spec], &[], key);
    }
    rejects(
        diag,
        &["lu", "sc", "64", "--fabric", "faulty,drop=4294967297"],
        &[],
        "drop",
    );
    rejects(
        diag,
        &["lu", "sc", "64", "--series", "18446744073709552"],
        &[],
        "--series",
    );
    rejects(
        diag,
        &["fft", "sc", "4096"],
        &[("DSM_TRACE", "bogus")],
        "DSM_TRACE",
    );
}

#[test]
fn probe_rejects_unknown_options_and_applications() {
    let probe = env!("CARGO_BIN_EXE_probe");
    rejects(probe, &["--help"], &[], "--help");
    rejects(probe, &["lu", "nosuchapp"], &[], "nosuchapp");
}

#[test]
fn report_rejects_unknown_tables_and_job_counts() {
    let report = env!("CARGO_BIN_EXE_report");
    rejects(report, &["--table", "t18"], &[], "t18");
    rejects(report, &[], &[("DSM_BENCH_JOBS", "zero")], "DSM_BENCH_JOBS");
}

/// A bundled plan, by file name.
fn plan(name: &str) -> String {
    format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn scenario_rejects_malformed_options_before_running() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let chaos = plan("drf-chaos.json");
    rejects(scenario, &["--jobs", "0", &chaos], &[], "--jobs");
    rejects(scenario, &["--jobs", "x", &chaos], &[], "--jobs");
    rejects(scenario, &[&chaos, "--jobs"], &[], "--jobs");
    rejects(scenario, &[&chaos, "--out"], &[], "--out");
    rejects(scenario, &["--bogus", &chaos], &[], "--bogus");
    rejects(
        scenario,
        &[&chaos],
        &[("DSM_BENCH_JOBS", "0")],
        "DSM_BENCH_JOBS",
    );
    // The output file is created before the first repetition, so a path
    // that cannot be written fails at once: no progress line, no run.
    rejects(
        scenario,
        &["--out", "/nonexistent/dir/x.jsonl", &chaos],
        &[],
        "/nonexistent/dir/x.jsonl",
    );
}

/// `--print-spec` prints each plan's canonical JSON, which parses back to
/// itself.
#[test]
fn scenario_print_spec_round_trips() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let first = run(
        scenario,
        &["--print-spec", &plan("kv-mixed-regions.json")],
        &[],
    );
    assert!(first.status.success(), "{first:?}");
    let canonical = std::env::temp_dir().join(format!("scenario-spec-{}.json", std::process::id()));
    std::fs::write(&canonical, &first.stdout).unwrap();
    let again = run(
        scenario,
        &["--print-spec", canonical.to_str().unwrap()],
        &[],
    );
    std::fs::remove_file(&canonical).unwrap();
    assert!(again.status.success(), "{again:?}");
    assert_eq!(
        String::from_utf8_lossy(&again.stdout),
        String::from_utf8_lossy(&first.stdout)
    );
    assert_eq!(first.stdout.iter().filter(|&&b| b == b'\n').count(), 1);
}

/// The variables the library used to read change nothing, and `DSM_TRACE`
/// is still `diag`'s stderr view.
#[test]
fn the_shell_configures_no_run() {
    let diag = env!("CARGO_BIN_EXE_diag");
    let args = ["fft", "sc", "4096"];
    let plain = run(diag, &args, &[]);
    assert!(plain.status.success());
    let shell = run(
        diag,
        &args,
        &[
            ("DSM_CHECK", "1"),
            ("DSM_SPANS", "1"),
            ("DSM_FABRIC", "faulty"),
        ],
    );
    assert!(shell.status.success());
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&shell.stdout)
    );
    let traced = run(diag, &args, &[("DSM_TRACE", "0:0")]);
    assert!(traced.status.success());
    assert_eq!(traced.stdout, plain.stdout);
    let events = String::from_utf8_lossy(&traced.stderr);
    assert!(
        events.lines().any(|l| l.contains("] n0: ")),
        "no event lines: {events}"
    );
}
