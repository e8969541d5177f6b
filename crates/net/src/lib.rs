#![warn(missing_docs)]

//! Platform model: Myrinet-calibrated network latency plus node-side cost
//! constants for the simulated testbed.
//!
//! The paper's §3 microbenchmarks give round-trip times of 40, 61, 100, 256
//! and 876 µs for 4-, 64-, 256-, 1K- and 4K-byte messages and ~17 MB/s of
//! large-message bandwidth on the 16-node SPARCstation-20 / Myrinet / LANai
//! platform. [`LatencyModel`] interpolates those calibration points so the
//! simulated network reproduces the published microbenchmark exactly at the
//! calibrated sizes. The points are constants, so the interpolation is done
//! once, at compile time, for every message size up to 8 KiB plus the
//! header: a message's latency is a table lookup, and only a larger message
//! evaluates the formula.
//!
//! [`CostModel`] collects the remaining platform constants: the Typhoon-0
//! fine-grain access fault cost (5 µs), message-handler occupancy, memory
//! copy / diff scan costs, and the polling-vs-interrupt notification
//! parameters from §5.4.

pub mod cost;
pub mod latency;
pub mod notify;

pub use cost::CostModel;
pub use latency::LatencyModel;
pub use notify::Notify;

/// Size in bytes of a protocol message header (source, dest, op, block id,
/// timestamps digest). All control messages are at least this large.
pub const MSG_HEADER_BYTES: u64 = 16;
