//! Run hygiene: one CPU, a clean environment, and a record of the host.
//!
//! The simulator executes exactly one node thread at a time, so on an
//! unpinned process the host scheduler's placement of 16 node threads
//! decides the result (a 4× spread on a 2-core host). Pinned to one CPU
//! the hand-off between node threads is a switch on that CPU and the same
//! cell repeats within ~2 %.

use std::process::Command;

/// `cpu_set_t`: 1024 CPUs, as glibc defines it.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn affinity() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let set = affinity()?;
    Ok((0..1024)
        .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread — and every thread it spawns from now on
/// — to `cpus`.
pub fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        *set.get_mut(c / 64).ok_or(format!("CPU {c} out of range"))? |= 1 << (c % 64);
    }
    // SAFETY: `set` is a live `cpu_set_t` of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    if allowed_cpus()? != cpus {
        return Err(format!("affinity {cpus:?} did not take effect"));
    }
    Ok(())
}

/// Pin the calling thread — call it from `main` before any thread is
/// spawned, so every later thread inherits the mask — to the
/// highest-numbered allowed CPU (CPU 0 takes most interrupts). Returns
/// `(CPUs allowed before pinning, pinned CPU)`.
pub fn pin_to_one_cpu() -> Result<(Vec<usize>, usize), String> {
    let allowed = allowed_cpus()?;
    let cpu = *allowed.last().ok_or("no CPU allowed")?;
    set_affinity(&[cpu])?;
    Ok((allowed, cpu))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process (all its threads) has consumed so far.
fn process_cpu_secs() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A stopwatch on the process CPU clock: the benchmark's clock.
///
/// The simulator runs one thread at a time and never sleeps, so on a
/// dedicated host its CPU time *is* the time a user waits. On a shared
/// host the hypervisor takes the CPU away for a share of every second
/// (`steal` in `/proc/stat`, 0–70 % on the builder's host within one
/// afternoon); the CPU clock does not run during that share, the wall
/// clock does.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    /// Start now.
    pub fn start() -> Self {
        CpuTimer(process_cpu_secs())
    }

    /// CPU seconds consumed since the start.
    pub fn secs(&self) -> f64 {
        process_cpu_secs() - self.0
    }
}

/// Remove every `DSM_*` variable and return the names removed, sorted.
/// `RunConfig::new` reads `DSM_SPANS`, `DSM_CHECK`, `DSM_SIM_PAR` and
/// `DSM_FABRIC`, and the recorder reads `DSM_TRACE`: any of them would
/// change what a workload runs. Call before the first library call and
/// before any thread is spawned.
pub fn scrub_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DSM_"))
        .collect();
    names.sort();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// First line a command prints, or `unknown` (the driver's checkout is
/// not a git repository, and `rustc` need not be on the path at run
/// time).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header record: what ran where. One line.
pub fn header(nproc: usize, cpu: usize, cleared: &[String]) -> String {
    format!(
        "host nproc={nproc} pinned_cpu={cpu} rustc=\"{}\" git={} profile=release cleared=[{}]",
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        cleared.join(","),
    )
}
