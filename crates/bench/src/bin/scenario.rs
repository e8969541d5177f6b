//! `scenario` — run declarative JSON scenario plans.
//!
//! ```text
//! scenario [--jobs N] [--out FILE] [--print-spec] PLAN.json [PLAN.json ...]
//! ```
//!
//! Each plan is parsed strictly (syntax errors exit 2 with line/column,
//! shape errors with a field path), executed over the scenario worker pool,
//! and emitted as schema-versioned JSONL on stdout (or `--out`, created
//! before the first repetition runs): a header record, one record per
//! repetition, and a mean/min/max aggregate. Progress goes to stderr. Exit
//! status: 0 when every repetition of every plan verified with zero
//! checker violations, 1 on any verification failure or violation, 2 on
//! bad usage, an unparseable plan or an output file that cannot be
//! written. A malformed option is one line naming it and what it accepts.

use std::io::Write as _;
use std::process::ExitCode;

use dsm_bench::cli::bad_arg;
use dsm_scenario::{run_scenario, ScenarioSpec};

const USAGE: &str =
    "usage: scenario [--jobs N] [--out FILE] [--print-spec] PLAN.json [PLAN.json ...]\n\
     \n\
     --jobs N       worker-pool width for repetitions (default: DSM_BENCH_JOBS\n\
     \x20              or the machine's available parallelism)\n\
     --out FILE     write the JSONL to FILE instead of stdout\n\
     --print-spec   parse + validate only; print each plan's canonical JSON";

/// The value of option `flag`, or one line saying what it takes.
fn value(args: &mut impl Iterator<Item = String>, flag: &str, takes: &str) -> String {
    args.next()
        .unwrap_or_else(|| bad_arg("scenario", format!("{flag} needs a value ({takes})")))
}

fn main() -> ExitCode {
    let mut jobs = dsm_bench::default_jobs();
    let mut out_path: Option<String> = None;
    let mut print_spec = false;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                let v = value(&mut args, "--jobs", "the worker-pool width");
                match v.parse() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => bad_arg(
                        "scenario",
                        format!("--jobs {v:?} is not a positive integer (the worker-pool width)"),
                    ),
                }
            }
            "--out" => out_path = Some(value(&mut args, "--out", "a file to write the JSONL to")),
            "--print-spec" => print_spec = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if a.starts_with('-') => bad_arg(
                "scenario",
                format!("unknown option {a} (one of: --jobs N, --out FILE, --print-spec)"),
            ),
            _ => files.push(a),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    // Parse every plan up front so a typo in the last file fails before
    // hours of simulation on the first.
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("scenario: {f}: {e}");
                return ExitCode::from(2);
            }
        };
        match ScenarioSpec::parse(&text) {
            Ok(s) => specs.push(s),
            Err(e) => {
                eprintln!("scenario: {f}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // A path that cannot be written fails now, not after every plan ran.
    let mut out_file = out_path.map(|p| match std::fs::File::create(&p) {
        Ok(file) => (file, p),
        Err(e) => bad_arg("scenario", format!("--out {p}: {e}")),
    });

    let mut output = String::new();
    let mut all_ok = true;
    for (f, spec) in files.iter().zip(&specs) {
        if print_spec {
            output.push_str(&spec.to_json().to_string());
            output.push('\n');
            continue;
        }
        eprintln!(
            "scenario {}: {} x{} on {} nodes ({} jobs) ...",
            spec.name, spec.app.name, spec.reps, spec.nodes, jobs
        );
        let out = match run_scenario(spec, jobs) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("scenario: {f}: {e}");
                return ExitCode::from(2);
            }
        };
        let failed = out.reps.iter().filter(|r| r.check_err.is_some()).count();
        let violations: usize = out.reps.iter().map(|r| r.violations).sum();
        eprintln!(
            "scenario {}: {} rep(s), {} check failure(s), {} violation(s)",
            spec.name,
            out.reps.len(),
            failed,
            violations
        );
        for r in out.reps.iter().filter(|r| !r.violation_details.is_empty()) {
            for d in &r.violation_details {
                eprintln!("  rep {} seed {:#x}: {d}", r.rep, r.seed);
            }
        }
        all_ok &= out.ok();
        output.push_str(&out.jsonl());
    }

    match &mut out_file {
        Some((file, p)) => {
            if let Err(e) = file.write_all(output.as_bytes()) {
                bad_arg("scenario", format!("--out {p}: {e}"));
            }
        }
        None => print!("{output}"),
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
