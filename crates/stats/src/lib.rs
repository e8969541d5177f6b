#![warn(missing_docs)]

//! Run statistics, aggregate math and table formatting for the DSM
//! reproduction.
//!
//! Every protocol event of interest is counted in a [`Counters`] struct —
//! one per node per run, and one per layout region — so the paper's
//! fault/traffic tables (Tables 3–15) can be regenerated directly. The
//! counters have one writer, the fold `dsm_obs::EventKind::count`: each
//! field is a count or a sum over the run's protocol events. The aggregate
//! math module implements the paper's §5.5 methodology: relative efficiency
//! `RE(a, p, g)` and harmonic means over applications (Tables 16 and 17).

pub mod agg;
pub mod counters;
pub mod table;

pub use agg::{harmonic_mean, EfficiencyMatrix};
pub use counters::{Counters, RunStats};
pub use table::Table;
