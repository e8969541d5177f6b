#![warn(missing_docs)]

//! The twelve applications of the paper's evaluation (§4), implemented
//! against the [`dsm_core::Dsm`] API: eight SPLASH-2-derived benchmarks,
//! several in restructured versions.
//!
//! | Program | Versions |
//! |---|---|
//! | LU | contiguous blocks |
//! | FFT | six-step |
//! | Ocean | original (square subgrids), rowwise |
//! | Water-Nsquared | — |
//! | Water-Spatial | — |
//! | Volrend | original (4×4 tiles), rowwise |
//! | Raytrace | — |
//! | Barnes | original, partree, spatial |
//!
//! Problem sizes are scaled down from the paper's (documented in
//! EXPERIMENTS.md); the [`registry`] holds every application's standard
//! benchmark and smaller test shapes in one table, and [`build_app`] builds
//! any of them.
//!
//! Beyond the paper's twelve kernels, three *modern workload* families are
//! registered for the scenario engine (and run under the same protocols,
//! checker, and adaptive planner):
//!
//! | Program | What it stresses |
//! |---|---|
//! | [`KvZipf`] | Zipf-skewed partitioned KV store with hot-key migration |
//! | [`PageRank`] | vertex-centric graph kernel over a seeded synthetic graph |
//! | [`RandomDrf`] | randomized phase-structured DRF programs |

pub mod barnes;
pub mod drf;
pub mod fft;
pub mod graph;
pub mod kvstore;
pub mod lu;
pub mod ocean;
pub mod raytrace;
pub mod registry;
pub mod util;
pub mod volrend;
pub mod water_nsq;
pub mod water_spatial;
pub mod zipf;

pub use barnes::{Barnes, BarnesVariant};
pub use drf::RandomDrf;
pub use fft::Fft;
pub use graph::PageRank;
pub use kvstore::KvZipf;
pub use lu::Lu;
pub use ocean::{OceanOriginal, OceanRowwise};
pub use raytrace::Raytrace;
pub use registry::{all_app_names, app, app_sized, build_app, modern_app_names, AppSize};
pub use volrend::{VolrendOriginal, VolrendRowwise};
pub use water_nsq::WaterNsq;
pub use water_spatial::WaterSpatial;
pub use zipf::Zipf;
