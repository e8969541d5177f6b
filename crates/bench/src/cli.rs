//! Command-line arguments of the tools (`diag`, `probe`, `report`,
//! `scenario`), and the two environment variables they honour, checked
//! where they enter: each parser returns the value or a one-line message
//! naming the argument and what it accepts, which [`bad_arg`] prints before
//! exiting with status 2.
//!
//! The library reads no environment; this module and the binaries are the
//! only places that do (`tools/lint_determinism.sh`, rule 7).

use dsm_apps::registry::{all_app_names, app, modern_app_names};
use dsm_core::{Program, Protocol};
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

/// The application called `name`.
pub fn app_arg(name: &str) -> Result<Program, String> {
    app(name).ok_or_else(|| {
        let known = [&all_app_names()[..], &modern_app_names()[..]].concat();
        format!(
            "unknown application {name:?} (one of: {})",
            known.join(", ")
        )
    })
}

/// A coherence protocol name.
pub fn protocol_arg(text: &str) -> Result<Protocol, String> {
    text.parse()
        .map_err(|_| format!("unknown protocol {text:?} (one of: sc, sw-lrc, hlrc, tardis)"))
}

/// A coherence granularity in bytes: what `Layout::new` accepts, checked
/// before a layout is built.
pub fn block_arg(text: &str) -> Result<usize, String> {
    text.parse()
        .ok()
        .filter(|b: &usize| b.is_power_of_two() && *b >= 8)
        .ok_or_else(|| {
            format!(
                "bad block size {text:?} (a power of two, at least 8; \
                 the study uses 64, 256, 1024, 4096)"
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
        assert_eq!(block_arg("4096"), Ok(4096));
        for bad in ["sixty", "100", "4", "0", "-64"] {
            assert!(block_arg(bad).unwrap_err().contains(bad), "{bad}");
        }
    }
}
