//! Experiment cells, the parallel executor, and the Standard grid.
//!
//! A full protocol × granularity sweep of all twelve applications (192
//! Standard cells) plus Figure 2's 32 interrupt cells is one [`Grid`],
//! computed once per process by [`Grid::standard`]; every report section
//! reads its cells from there. A cell is a [`RunSpec`], so the line it
//! prints as is the `diag` argument list that re-runs it.
//!
//! Cells are independent deterministic simulations, so [`run_cells`] fans
//! them out over the scenario engine's worker pool
//! ([`dsm_scenario::exec::pool_map`]): results are bit-identical to a
//! serial sweep regardless of the job count. Callers pass the pool width;
//! [`default_jobs`] is `DSM_BENCH_JOBS`, read by [`cli::jobs_env`], or the
//! machine's available parallelism.

use dsm_core::{run_experiment, Notify, Protocol, GRANULARITIES};
use dsm_obs::RunStats;
use dsm_scenario::exec::pool_map;
use dsm_scenario::RunSpec;

use crate::cli;

/// The applications Figure 2 also runs under interrupts.
pub const INTERRUPT_APPS: [&str; 2] = ["lu", "water-nsquared"];

/// The result of one experiment cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The run.
    pub run: RunSpec,
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

/// Run one cell; panics if its application does not build.
pub fn run_cell(run: &RunSpec) -> CellResult {
    let program = run.program().unwrap_or_else(|e| panic!("{run}: {e}"));
    let r = run_experiment(&run.to_config(), program);
    CellResult {
        run: run.clone(),
        stats: r.stats,
        check_err: r.check.err(),
    }
}

/// Run every cell across `jobs` worker threads, returning results in input
/// order — bit-identical to running them serially.
pub fn run_cells(runs: &[RunSpec], jobs: usize) -> Vec<CellResult> {
    pool_map(runs.len(), jobs, |i| run_cell(&runs[i]))
}

/// The protocol × granularity grid of runs for one application.
fn app_runs(app: &str, notify: Notify) -> impl Iterator<Item = RunSpec> + '_ {
    Protocol::ALL.into_iter().flat_map(move |protocol| {
        GRANULARITIES.into_iter().map(move |block| RunSpec {
            notify,
            ..RunSpec::new(app, protocol, block)
        })
    })
}

/// Every cell the paper's tables and figures read, looked up by name.
#[derive(Debug, Clone)]
pub struct Grid {
    pub(crate) cells: Vec<CellResult>,
}

impl Grid {
    /// The Standard-size grid's runs: every application × protocol ×
    /// granularity under polling, plus [`INTERRUPT_APPS`] under interrupts.
    pub fn standard_runs() -> Vec<RunSpec> {
        let polling = dsm_apps::all_app_names()
            .into_iter()
            .flat_map(|app| app_runs(app, Notify::Polling));
        let interrupt = INTERRUPT_APPS
            .into_iter()
            .flat_map(|app| app_runs(app, Notify::Interrupt));
        polling.chain(interrupt).collect()
    }

    /// The Standard-size grid, run on one worker pool of `jobs` threads.
    pub fn standard(jobs: usize) -> Grid {
        Grid {
            cells: run_cells(&Grid::standard_runs(), jobs),
        }
    }

    /// Every cell, in run order.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// The cell for `(app, protocol, block, notify)`; panics if the grid
    /// does not hold it (a report asked for a cell the grid never runs).
    pub fn cell(&self, app: &str, protocol: Protocol, block: usize, notify: Notify) -> &CellResult {
        let run = RunSpec {
            notify,
            ..RunSpec::new(app, protocol, block)
        };
        (self.cells.iter().find(|c| c.run == run))
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
