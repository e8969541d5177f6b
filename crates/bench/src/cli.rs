//! The two environment variables the tools (`diag`, `probe`, `report`,
//! `scenario`) honour, checked where they enter: each parser returns the
//! value or a one-line message naming the variable and what it accepts,
//! which [`bad_arg`] prints before exiting with status 2, as the tools do
//! for a malformed argument. A run's own arguments are a
//! [`dsm_scenario::RunSpec`] line and are parsed there.
//!
//! The library reads no environment; this module and the binaries are the
//! only places that do (`tools/lint_determinism.sh`, rule 7).

use dsm_obs::TraceFilter;

/// Print `tool: msg` on stderr and exit with status 2.
pub fn bad_arg(tool: &str, msg: String) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(2);
}

/// `DSM_TRACE`, the stderr event view `diag` prints: `all` or
/// `<node>:<block>`, off when unset.
pub fn trace_env() -> Result<TraceFilter, String> {
    std::env::var("DSM_TRACE")
        .ok()
        .map_or(Ok(TraceFilter::Off), |v| TraceFilter::parse(&v))
}

/// `DSM_BENCH_JOBS`, the worker-pool width of sweeps and scenario
/// repetitions, when it is set. A value that is not a positive integer is
/// one line naming the variable, and exit status 2.
pub fn jobs_env() -> Option<usize> {
    let text = std::env::var("DSM_BENCH_JOBS").ok()?;
    let jobs = text.trim().parse().ok().filter(|&n: &usize| n >= 1);
    Some(jobs.unwrap_or_else(|| {
        bad_arg(
            "DSM_BENCH_JOBS",
            format!("{text:?} is not a positive integer (the worker-pool width)"),
        )
    }))
}
