#![warn(missing_docs)]

//! Reproduction harness: the Standard grid, the paper's reference data,
//! and every table and figure of the paper's evaluation as a section with
//! named claims.
//!
//! [`Grid::standard`] runs every cell the sections read once, in memory;
//! [`report::SECTIONS`] renders each table next to the paper's and checks
//! its claims. `tests/paper_shape.rs` asserts them all and the `report`
//! binary prints them (`report --table ID`). The paper's §5.5 aggregate
//! math — relative efficiency and harmonic means over applications — is
//! [`agg`], and every table is rendered by [`table::Table`].
//!
//! The crate also holds the command-line tools: `diag`, `probe`, `report`
//! and `scenario` (the JSON run plans of `dsm-scenario`). A run they make
//! is a [`dsm_scenario::RunSpec`], whose line is `diag`'s argument list;
//! the environment variables they read are parsed in [`cli`].

pub mod agg;
pub mod cli;
pub mod paper;
pub mod records;
pub mod report;
pub mod sweep;
pub mod table;

pub use sweep::{default_jobs, run_cell, run_cells, CellResult, Grid};
