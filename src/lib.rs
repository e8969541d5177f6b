#![warn(missing_docs)]

//! # dsm — relaxed consistency and coherence granularity in DSM systems
//!
//! A reproduction of Zhou, Iftode, Singh, Li, Toonen, Schoinas, Hill and
//! Wood, *"Relaxed Consistency and Coherence Granularity in DSM Systems: A
//! Performance Evaluation"* (PPoPP 1997), as a Rust workspace.
//!
//! This umbrella crate re-exports the public API of the member crates:
//!
//! * [`sim`] — deterministic discrete-event cluster engine;
//! * [`net`] — Myrinet-calibrated latency model and platform costs;
//! * [`fabric`] — the contention-aware network fabric: NI queueing, fault
//!   injection, retransmission and recovery;
//! * [`mem`] — shared address space, access control, first-touch homes;
//! * [`proto`] — the SC, SW-LRC, HLRC and Tardis coherence protocols, and
//!   the run-time checker ([`proto::check`]: a happens-before race detector
//!   and protocol invariant mirrors);
//! * [`core`] — the run harness and the [`Dsm`] programming interface;
//! * [`apps`] — the twelve SPLASH-2-derived applications;
//! * [`obs`] — the per-node counters, structured event recording,
//!   execution-time breakdowns and the Perfetto/JSONL exporters;
//! * [`adapt`] — sharing profiler, cost model, and the per-region adaptive
//!   protocol × granularity policy engine;
//! * [`mc`] — exhaustive schedule-space model checker (sleep-set DPOR)
//!   for bounded configurations of all four protocols;
//! * [`json`] — the minimal JSON value model the workspace uses offline.
//!
//! Two tool crates sit on top and are not re-exported here: `dsm-bench`
//! (the Standard grid, the paper's tables and claims, and the `diag`,
//! `probe`, `report` and `scenario` binaries) and `dsm-scenario` (the
//! declarative JSON run plans).
//!
//! ## Quick start
//!
//! ```
//! use dsm::{run_experiment, Protocol, RunConfig};
//!
//! let app = dsm::apps::registry::app_sized("lu", dsm::apps::registry::AppSize::Small).unwrap();
//! let result = run_experiment(&RunConfig::new(Protocol::Hlrc, 4096), app);
//! assert!(result.check.is_ok());
//! println!("speedup: {:.2}", result.speedup());
//! ```

pub use dsm_adapt as adapt;
pub use dsm_apps as apps;
pub use dsm_core as core;
pub use dsm_fabric as fabric;
pub use dsm_json as json;
pub use dsm_mc as mc;
pub use dsm_mem as mem;
pub use dsm_net as net;
pub use dsm_obs as obs;
pub use dsm_proto as proto;
pub use dsm_sim as sim;

pub use dsm_core::{
    run_checked, run_experiment, run_parallel, run_parallel_mc, run_sequential, touch_region, Dsm,
    DsmProgram, ExperimentResult, FabricConfig, MemImage, NodeFuture, Notify, Program, Protocol,
    RegionHint, RegionPolicy, RegionReport, RunConfig,
};
