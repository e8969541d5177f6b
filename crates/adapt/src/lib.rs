#![warn(missing_docs)]

//! # dsm-adapt — per-region adaptive protocol × granularity selection
//!
//! The paper's central result is that no single consistency protocol or
//! coherence granularity wins across applications: the best combination is
//! a property of each data structure's sharing pattern. This crate turns
//! that observation into a runtime: it profiles an application once at the
//! finest configuration (SC @ 64 bytes, exact per-64-byte-unit sharing
//! profile), aggregates the paper's Table 2 statistics per program-declared
//! region, prices every candidate combination with the run's Myrinet-
//! calibrated cost and latency models (the analytic model's own weights are
//! constants, calibrated once against the uniform sweep), and pins one
//! policy per region for a mixed-mode run in which SC, SW-LRC, HLRC and
//! Tardis regions coexist.
//!
//! Adaptation is offline — profile run, then pinned policy — which matches
//! the paper's methodology of choosing per-application configurations from
//! measured sharing statistics. [`choose_policies`] is a pure function of a
//! [`ProfileData`] and the base configuration, so an online variant can
//! re-invoke it on a fresh profiling window at any barrier epoch. A plan
//! is its uniform winner plus [`AdaptPlan::policies`]; `dsm-scenario`'s
//! `RunSpec::adapt` is the one place one is written into a run.
//!
//! ```no_run
//! use dsm_adapt::{choose_policies, profile_run};
//! use dsm_core::{Protocol, RunConfig};
//!
//! # fn app() -> dsm_core::Program { unimplemented!() }
//! let program = app();
//! let base = RunConfig::new(Protocol::Sc, 4096);
//! let plan = choose_policies(&program, &profile_run(&program), &base);
//! for d in &plan.decisions {
//!     println!("{}: {}@{}", d.profile.name, d.protocol.name(), d.block);
//! }
//! ```

pub mod model;
pub mod plan;

pub use model::{predict_region_ns, summarize_region, RegionProfile};
pub use plan::{choose_policies, profile_run, AdaptPlan, ProfileData, RegionDecision, PLAN_ALIGN};
