//! Quick probe: speedups for a few apps across protocols/granularities.
//!
//! ```text
//! probe [--json] [APP ...]
//! ```
//!
//! Human-readable tables by default; `--json` emits one schema-versioned
//! `"cell"` record per (app, protocol, granularity) cell, in the same
//! JSON-Lines dialect as `diag --json` (every record is self-describing
//! via `type` and `schema` fields). Cell schema v2 adds the Tardis lease
//! counters (`lease_renewals`, `lease_expiries`, `wts_bumps`) as typed
//! fields; they are zero under the other protocols. An unknown option or
//! application is a one-line message and exit status 2.
use dsm_apps::{build_app, AppSize};
use dsm_bench::cli::bad_arg;
use dsm_bench::records::cell_record;
use dsm_core::{run_experiment, Protocol, GRANULARITIES};
use dsm_scenario::RunSpec;
use std::time::Instant;

fn main() {
    let mut json = false;
    let mut names: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            opt if opt.starts_with('-') => bad_arg(
                "probe",
                format!("unknown option {opt} (usage: probe [--json] [APP ...])"),
            ),
            _ => names.push(a),
        }
    }
    if names.is_empty() {
        names = vec![
            "lu".to_string(),
            "ocean-rowwise".into(),
            "volrend-original".into(),
        ];
    }
    // Every name is checked before the first cell runs.
    let programs: Vec<_> = names
        .iter()
        .map(|name| {
            build_app(name, AppSize::Standard, 1, &[]).unwrap_or_else(|e| bad_arg("probe", e))
        })
        .collect();
    for (name, program) in names.iter().zip(programs) {
        if !json {
            println!("== {name} ==");
        }
        for p in Protocol::ALL {
            let mut row = format!("{:8}", p.name());
            for g in GRANULARITIES {
                let t0 = Instant::now();
                let cfg = RunSpec::new(name, p, g).to_config();
                let r = run_experiment(&cfg, program.clone());
                let elapsed = t0.elapsed().as_secs_f64();
                if json {
                    println!("{}", cell_record(name, &r, elapsed));
                } else {
                    let ok = if r.check.is_ok() { "" } else { "!ERR" };
                    row += &format!("  {:5.2}{}({:.1}s)", r.speedup(), ok, elapsed);
                }
            }
            if !json {
                println!("{row}");
            }
        }
    }
}
