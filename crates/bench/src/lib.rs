#![warn(missing_docs)]

//! Benchmark harness: sweeps, result caching, paper reference data, and
//! table rendering for regenerating every table and figure of the paper's
//! evaluation section.
//!
//! Each `[[bench]]` target (custom harness) prints the paper's rows next to
//! our measured values. Results are cached on disk under
//! `target/dsm-results/` so the fault tables reuse the speedup sweep's runs;
//! set `DSM_BENCH_REFRESH=1` to force re-running.

pub mod cli;
pub mod paper;
pub mod records;
pub mod report;
pub mod sweep;

pub use sweep::{
    default_jobs, pool_map, run_cell, run_cell_fresh, run_cells, run_cells_fresh, sweep_all,
    sweep_app, sweep_app_jobs, CellResult, CellSpec, GRANULARITIES,
};
