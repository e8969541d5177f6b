//! Command-line arguments of the tools (`diag`, `probe`, `report`,
//! `scenario`), and the two environment variables they honour, checked
//! where they enter: each parser returns the value or a one-line message
//! naming the argument and what it accepts, which [`bad_arg`] prints before
//! exiting with status 2.
//!
//! The library reads no environment; this module and the binaries are the
//! only places that do (`tools/lint_determinism.sh`, rule 7).

use dsm_apps::registry::{build_app, AppSize};
use dsm_core::{Program, Protocol, GRANULARITIES};
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

/// The application called `name`, at the standard size.
pub fn app_arg(name: &str) -> Result<Program, String> {
    build_app(name, AppSize::Standard, 1, &[])
}

/// A coherence protocol name.
pub fn protocol_arg(text: &str) -> Result<Protocol, String> {
    text.parse()
        .map_err(|_| format!("unknown protocol {text:?} (one of: sc, sw-lrc, hlrc, tardis)"))
}

/// A coherence granularity in bytes for a program of `shared_bytes`: what
/// `Layout::new` accepts, checked before a layout is built, and at most twice
/// the shared space rounded up to a power of two. One block already holds
/// the whole space there; a larger one would only make every node allocate
/// a copy of it.
pub fn block_arg(text: &str, shared_bytes: usize) -> Result<usize, String> {
    let most = shared_bytes.max(8).next_power_of_two().saturating_mul(2);
    text.parse()
        .ok()
        .filter(|b: &usize| b.is_power_of_two() && (8..=most).contains(b))
        .ok_or_else(|| {
            format!(
                "bad block size {text:?} (a power of two from 8 to {most}, twice the \
                 program's shared space rounded up to a power of two; the study uses \
                 {GRANULARITIES:?})"
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_or_name_what_they_accept() {
        assert!(app_arg("lu").is_ok());
        assert!(app_arg("kv-zipf").is_ok());
        let e = app_arg("nosuchapp").err().unwrap();
        assert!(
            e.contains("nosuchapp") && e.contains("water-spatial"),
            "{e}"
        );
        assert_eq!(protocol_arg("sw-lrc"), Ok(Protocol::SwLrc));
        assert!(protocol_arg("mesi").unwrap_err().contains("tardis"));
        assert_eq!(block_arg("4096", 4096), Ok(4096));
        assert_eq!(block_arg("8192", 4096), Ok(8192));
        for bad in ["sixty", "100", "4", "0", "-64", "16384"] {
            assert!(block_arg(bad, 4096).unwrap_err().contains(bad), "{bad}");
        }
    }
}
