//! Experiment sweeps with an on-disk result cache and a parallel executor.
//!
//! A full protocol × granularity sweep of all twelve applications (192
//! Standard cells) takes about half a minute cold — 28–34 s at one job,
//! 16–17 s at two on the 2-core development host; several bench targets need
//! the same cells (the fault tables reuse the speedup sweep's runs). Results are cached as JSON under
//! `target/dsm-results/`; set `DSM_BENCH_REFRESH=1` to force re-running,
//! and bump [`CACHE_VERSION`] when a change invalidates old results.
//!
//! Cells are independent deterministic simulations, so sweeps fan them out
//! over a small hand-rolled worker pool ([`run_cells`]): results are
//! bit-identical to a serial sweep regardless of the job count. The pool
//! width comes from `DSM_BENCH_JOBS` (or the machine's available
//! parallelism); cache files are written atomically (unique temp file +
//! rename) so concurrent writers — even across processes — never tear.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use dsm_apps::AppSize;
use dsm_core::{run_experiment, Notify, Protocol, RunConfig};
use dsm_json::Value;
use dsm_stats::RunStats;

/// Bump when protocol or application changes invalidate cached results.
/// v2: local access time moved into `compute_ns`; release actions split out
/// as `proto_local_ns`/`occupancy_stolen_ns`.
/// v3: `sim_events` (host-side throughput metric) added to `RunStats`.
/// v4: SC poisons the home's own in-flight read grant when a write
/// transaction invalidates the home copy locally (stale self-grant fix).
/// v5: Tardis joins `Protocol::ALL`, widening every per-app grid from
/// three protocol rows to four.
pub const CACHE_VERSION: u32 = 5;

/// The four granularities of the study.
pub const GRANULARITIES: [usize; 4] = [64, 256, 1024, 4096];

/// A cached experiment cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Application name.
    pub app: String,
    /// Protocol name.
    pub protocol: String,
    /// Coherence granularity (bytes).
    pub block: usize,
    /// Notification mechanism name.
    pub notify: String,
    /// Full run statistics (sequential baseline included).
    pub stats: RunStats,
    /// Error text if verification failed (None = verified).
    pub check_err: Option<String>,
}

impl CellResult {
    /// Parallel speedup.
    pub fn speedup(&self) -> f64 {
        self.stats.speedup()
    }

    /// Serialize for the on-disk cache.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("app", self.app.as_str());
        v.set("protocol", self.protocol.as_str());
        v.set("block", self.block as u64);
        v.set("notify", self.notify.as_str());
        v.set("stats", self.stats.to_json());
        match &self.check_err {
            Some(e) => v.set("check_err", e.as_str()),
            None => v.set("check_err", Value::Null),
        };
        v
    }

    /// Deserialize a cached cell; `None` on shape mismatch.
    pub fn from_json(v: &Value) -> Option<CellResult> {
        Some(CellResult {
            app: v.get("app")?.as_str()?.to_string(),
            protocol: v.get("protocol")?.as_str()?.to_string(),
            block: v.get("block")?.as_u64()? as usize,
            notify: v.get("notify")?.as_str()?.to_string(),
            stats: RunStats::from_json(v.get("stats")?)?,
            check_err: match v.get("check_err") {
                Some(Value::Str(e)) => Some(e.clone()),
                _ => None,
            },
        })
    }
}

fn cache_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("target");
    p.push("dsm-results");
    p
}

fn cache_path(app: &str, p: Protocol, g: usize, notify: Notify) -> PathBuf {
    cache_dir().join(format!(
        "{app}_{}_{g}_{}_v{CACHE_VERSION}.json",
        p.name().to_lowercase().replace('-', ""),
        notify.name()
    ))
}

/// Counter making concurrent cache-file temp names unique within a process
/// (the pid makes them unique across processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `text` to `path` atomically: a uniquely-named temp file in the same
/// directory, then a rename. Concurrent writers of the same cell race to an
/// identical result; readers never observe a torn file.
fn write_atomic(path: &Path, text: &str) {
    let _ = fs::create_dir_all(cache_dir());
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if fs::write(&tmp, text).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// One cell of a sweep: an (application, protocol, granularity, notify)
/// combination.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Application name (see [`dsm_apps::all_app_names`]).
    pub app: String,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Coherence granularity (bytes).
    pub block: usize,
    /// Notification mechanism.
    pub notify: Notify,
}

impl CellSpec {
    /// A cell under the polling notification default.
    pub fn new(app: &str, protocol: Protocol, block: usize) -> CellSpec {
        CellSpec {
            app: app.to_string(),
            protocol,
            block,
            notify: Notify::Polling,
        }
    }
}

/// Worker-pool width for sweeps: `DSM_BENCH_JOBS` if set to a positive
/// integer, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Some(n) = std::env::var("DSM_BENCH_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(i)` for every `i in 0..n` on up to `jobs` worker threads, returning
/// results in index order. Work is claimed from a shared atomic counter;
/// each item's result is independent of scheduling, so the output is
/// identical to the serial (`jobs == 1`) execution. Public because the
/// scenario engine fans repetitions out over the same pool.
pub fn pool_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                slots.lock().unwrap()[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker pool left a slot unfilled"))
        .collect()
}

/// Run one cell, bypassing the cache entirely, at the given application size.
pub fn run_cell_fresh(spec: &CellSpec, size: AppSize) -> CellResult {
    let program = dsm_apps::app_sized(&spec.app, size)
        .unwrap_or_else(|| panic!("unknown application {}", spec.app));
    let cfg = RunConfig::new(spec.protocol, spec.block).with_notify(spec.notify);
    let r = run_experiment(&cfg, program);
    CellResult {
        app: spec.app.clone(),
        protocol: spec.protocol.name().to_string(),
        block: spec.block,
        notify: spec.notify.name().to_string(),
        stats: r.stats,
        check_err: r.check.err(),
    }
}

/// Run (or load from cache) one experiment cell.
pub fn run_cell(app: &str, p: Protocol, g: usize, notify: Notify) -> CellResult {
    let path = cache_path(app, p, g, notify);
    let refresh = std::env::var("DSM_BENCH_REFRESH").is_ok();
    if !refresh {
        if let Ok(text) = fs::read_to_string(&path) {
            if let Some(cell) = Value::parse(&text)
                .ok()
                .and_then(|v| CellResult::from_json(&v))
            {
                return cell;
            }
        }
    }
    let cell = run_cell_fresh(
        &CellSpec {
            app: app.to_string(),
            protocol: p,
            block: g,
            notify,
        },
        AppSize::Standard,
    );
    write_atomic(&path, &cell.to_json().to_string());
    cell
}

/// Run every cell (cache-aware, standard size) across `jobs` worker threads,
/// returning results in spec order — bit-identical to running them serially.
pub fn run_cells(specs: &[CellSpec], jobs: usize) -> Vec<CellResult> {
    pool_map(specs.len(), jobs, |i| {
        let s = &specs[i];
        run_cell(&s.app, s.protocol, s.block, s.notify)
    })
}

/// Run every cell at the given size across `jobs` worker threads, never
/// touching the cache (test harnesses compare fresh runs).
pub fn run_cells_fresh(specs: &[CellSpec], jobs: usize, size: AppSize) -> Vec<CellResult> {
    pool_map(specs.len(), jobs, |i| run_cell_fresh(&specs[i], size))
}

/// The protocol × granularity grid of specs for one application.
fn app_grid(app: &str) -> Vec<CellSpec> {
    Protocol::ALL
        .iter()
        .flat_map(|&p| GRANULARITIES.iter().map(move |&g| CellSpec::new(app, p, g)))
        .collect()
}

/// Reshape a flat spec-ordered result list into protocol-major rows.
fn into_rows(cells: Vec<CellResult>) -> Vec<Vec<CellResult>> {
    let mut rows: Vec<Vec<CellResult>> = Vec::with_capacity(Protocol::ALL.len());
    let mut it = cells.into_iter();
    for _ in Protocol::ALL {
        rows.push((&mut it).take(GRANULARITIES.len()).collect());
    }
    rows
}

/// Full protocol × granularity sweep for one application under polling.
pub fn sweep_app(app: &str) -> Vec<Vec<CellResult>> {
    sweep_app_jobs(app, default_jobs())
}

/// As [`sweep_app`] on a worker pool of the given width.
pub fn sweep_app_jobs(app: &str, jobs: usize) -> Vec<Vec<CellResult>> {
    into_rows(run_cells(&app_grid(app), jobs))
}

/// Sweep every application (the Figure 1 grid). All cells of all
/// applications share one worker pool, so wide machines stay busy even when
/// one application's grid has stragglers.
pub fn sweep_all() -> Vec<(String, Vec<Vec<CellResult>>)> {
    let apps = dsm_apps::all_app_names();
    let specs: Vec<CellSpec> = apps.iter().flat_map(|&name| app_grid(name)).collect();
    eprintln!(
        "  sweeping {} cells across {} apps ({} jobs) ...",
        specs.len(),
        apps.len(),
        default_jobs()
    );
    let mut cells = run_cells(&specs, default_jobs()).into_iter();
    apps.iter()
        .map(|&name| {
            let grid: Vec<CellResult> = (&mut cells)
                .take(Protocol::ALL.len() * GRANULARITIES.len())
                .collect();
            (name.to_string(), into_rows(grid))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_result_round_trips_through_json() {
        let cell = CellResult {
            app: "lu".to_string(),
            protocol: "HLRC".to_string(),
            block: 1024,
            notify: "polling".to_string(),
            stats: RunStats {
                per_node: vec![Default::default(); 2],
                parallel_time_ns: 123,
                sequential_time_ns: 456,
                sim_events: 0,
            },
            check_err: None,
        };
        let text = cell.to_json().to_string();
        let back = CellResult::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back.app, "lu");
        assert_eq!(back.block, 1024);
        assert_eq!(back.stats.parallel_time_ns, 123);
        assert!(back.check_err.is_none());

        let with_err = CellResult {
            check_err: Some("boom".to_string()),
            ..cell
        };
        let back =
            CellResult::from_json(&Value::parse(&with_err.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.check_err.as_deref(), Some("boom"));
    }
}
