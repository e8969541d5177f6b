//! `diag`, `probe` and `report` on malformed arguments: a one-line message naming the
//! argument and exit status 2 — never a panic.

use std::process::Command;

fn rejects(bin: &str, args: &[&str], names: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.contains(names),
        "{args:?} must name {names:?}: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn diag_rejects_malformed_positionals() {
    let diag = env!("CARGO_BIN_EXE_diag");
    rejects(diag, &["lu", "mesi", "64"], "mesi");
    rejects(diag, &["nosuchapp", "sc", "64"], "nosuchapp");
    rejects(diag, &["lu", "sc", "sixty"], "sixty");
    rejects(diag, &["lu", "sc", "100"], "100");
}

#[test]
fn probe_rejects_unknown_options_and_applications() {
    let probe = env!("CARGO_BIN_EXE_probe");
    rejects(probe, &["--help"], "--help");
    rejects(probe, &["lu", "nosuchapp"], "nosuchapp");
}

#[test]
fn report_rejects_unknown_tables() {
    let report = env!("CARGO_BIN_EXE_report");
    rejects(report, &["--table", "t18"], "t18");
}
