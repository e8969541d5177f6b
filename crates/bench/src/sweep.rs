//! Experiment cells, the parallel executor, and the Standard grid.
//!
//! A full protocol × granularity sweep of all twelve applications (192
//! Standard cells) plus Figure 2's 32 interrupt cells is one [`Grid`],
//! computed once per process by [`Grid::standard`]; every report section
//! reads its cells from there.
//!
//! Cells are independent deterministic simulations, so [`run_cells`] fans
//! them out over the scenario engine's worker pool
//! ([`dsm_scenario::exec::pool_map`]): results are bit-identical to a
//! serial sweep regardless of the job count. Callers pass the pool width;
//! [`default_jobs`] is `DSM_BENCH_JOBS`, read by [`cli::jobs_env`], or the
//! machine's available parallelism.

use dsm_apps::AppSize;
use dsm_core::{run_experiment, Notify, Protocol, RunConfig, GRANULARITIES};
use dsm_obs::RunStats;
use dsm_scenario::exec::pool_map;

use crate::cli;

/// The applications Figure 2 also runs under interrupts.
pub const INTERRUPT_APPS: [&str; 2] = ["lu", "water-nsquared"];

/// The result of one experiment cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Application name.
    pub app: String,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Coherence granularity (bytes).
    pub block: usize,
    /// Notification mechanism.
    pub notify: Notify,
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

/// Worker-pool width for sweeps: `DSM_BENCH_JOBS` if set, else the
/// machine's available parallelism. A malformed `DSM_BENCH_JOBS` exits
/// with status 2 ([`cli::jobs_env`]).
pub fn default_jobs() -> usize {
    cli::jobs_env().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run one cell at the given application size.
pub fn run_cell(spec: &CellSpec, size: AppSize) -> CellResult {
    let program = dsm_apps::app_sized(&spec.app, size)
        .unwrap_or_else(|| panic!("unknown application {}", spec.app));
    let cfg = RunConfig::new(spec.protocol, spec.block).with_notify(spec.notify);
    let r = run_experiment(&cfg, program);
    CellResult {
        app: spec.app.clone(),
        protocol: spec.protocol,
        block: spec.block,
        notify: spec.notify,
        stats: r.stats,
        check_err: r.check.err(),
    }
}

/// Run every cell at the given size across `jobs` worker threads, returning
/// results in spec order — bit-identical to running them serially.
pub fn run_cells(specs: &[CellSpec], jobs: usize, size: AppSize) -> Vec<CellResult> {
    pool_map(specs.len(), jobs, |i| run_cell(&specs[i], size))
}

/// The protocol × granularity grid of specs for one application.
fn app_specs(app: &str, notify: Notify) -> impl Iterator<Item = CellSpec> + '_ {
    Protocol::ALL.into_iter().flat_map(move |protocol| {
        GRANULARITIES.into_iter().map(move |block| CellSpec {
            app: app.to_string(),
            protocol,
            block,
            notify,
        })
    })
}

/// Every cell the paper's tables and figures read, looked up by name.
#[derive(Debug, Clone)]
pub struct Grid {
    pub(crate) cells: Vec<CellResult>,
}

impl Grid {
    /// The Standard-size grid: every application × protocol × granularity
    /// under polling, plus [`INTERRUPT_APPS`] under interrupts, all on one
    /// worker pool of `jobs` threads.
    pub fn standard(jobs: usize) -> Grid {
        let polling = dsm_apps::all_app_names()
            .into_iter()
            .flat_map(|app| app_specs(app, Notify::Polling));
        let interrupt = INTERRUPT_APPS
            .into_iter()
            .flat_map(|app| app_specs(app, Notify::Interrupt));
        let specs: Vec<CellSpec> = polling.chain(interrupt).collect();
        Grid {
            cells: run_cells(&specs, jobs, AppSize::Standard),
        }
    }

    /// Every cell, in run order.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// The cell for `(app, protocol, block, notify)`; panics if the grid
    /// does not hold it (a report asked for a cell the grid never runs).
    pub fn cell(&self, app: &str, protocol: Protocol, block: usize, notify: Notify) -> &CellResult {
        self.cells
            .iter()
            .find(|c| {
                c.app == app && c.protocol == protocol && c.block == block && c.notify == notify
            })
            .unwrap_or_else(|| panic!("the grid holds no cell {app} {protocol}@{block} {notify}"))
    }

    /// One application's polling cells for `protocol`, in
    /// [`GRANULARITIES`] order.
    pub fn row(&self, app: &str, protocol: Protocol) -> [&CellResult; 4] {
        GRANULARITIES.map(|g| self.cell(app, protocol, g, Notify::Polling))
    }

    /// The best polling speedup of `app` over `protocols` at every
    /// granularity.
    pub fn best(&self, app: &str, protocols: &[Protocol]) -> f64 {
        protocols
            .iter()
            .flat_map(|&p| self.row(app, p))
            .map(CellResult::speedup)
            .fold(0.0, f64::max)
    }
}
