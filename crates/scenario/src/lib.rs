#![warn(missing_docs)]

//! # dsm-scenario — declarative JSON run plans for the DSM simulator
//!
//! The bench targets regenerate the paper's fixed tables; everything else —
//! exploring a modern workload under a faulty fabric, pinning a mixed-mode
//! policy, repeating a seeded experiment — previously meant writing a Rust
//! harness. This crate replaces that with a declarative JSON *scenario*:
//! one document naming the application (the twelve kernels plus the modern
//! workloads `kv-zipf`, `pagerank`, `random-drf`), the coherence mode
//! (fixed, mixed-region, or adaptive), the fabric and fault plan, checker
//! and span toggles, and a repetition count with a seed sequence.
//!
//! Scenarios are parsed with the in-tree [`dsm_json`] parser (syntax errors
//! carry line/column), validated strictly (unknown keys are errors), and
//! executed through [`pool_map`], the worker pool the bench sweeps share —
//! repetitions are independent deterministic simulations, so the emitted JSONL
//! (header + one record per repetition + mean/min/max aggregate, all
//! stamped with [`SCHEMA`]) is byte-identical across invocations and pool
//! widths.
//!
//! ```no_run
//! use dsm_scenario::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::parse(r#"{
//!     "name": "kv-under-loss",
//!     "app": {"name": "kv-zipf", "size": "small"},
//!     "mode": {"kind": "fixed", "protocol": "hlrc", "block": 1024},
//!     "fabric": "faulty,seed=42,drop=10000,reorder=20000",
//!     "check": true,
//!     "reps": 3,
//!     "seed": 1000
//! }"#).unwrap();
//! let out = run_scenario(&spec, 4).unwrap();
//! assert!(out.ok());
//! print!("{}", out.jsonl());
//! ```
//!
//! The `scenario` binary in `dsm-bench` wraps this: `scenario plan.json`
//! runs a plan and prints the JSONL; bundled plans live in `scenarios/`.

pub mod exec;
pub mod spec;

pub use exec::{pool_map, run_scenario, RepOutcome, ScenarioOutcome};
pub use spec::{AppSpec, Mode, ScenarioSpec, SeedSeq, LEGAL_BLOCKS, SCHEMA};
