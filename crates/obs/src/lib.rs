#![warn(missing_docs)]

//! Structured observability for the DSM reproduction.
//!
//! The paper's whole argument (§5) is cost attribution: fault counts,
//! message/traffic tables, and where execution time goes — all of it
//! counting protocol events. So there is one stream of typed protocol
//! [`Event`]s, reported once each (`ProtoWorld::emit` in `dsm-proto`), and
//! everything this crate keeps is a fold of it:
//!
//! * the counters: [`EventKind::count`] folds an event into a
//!   `dsm_stats::Counters` and is the only writer of its 39 fields, so the
//!   counters agree with the trace by construction;
//! * a low-overhead [`Recorder`] — per-node ring buffers stamped with
//!   virtual time, per-kind counts, log2 [`Hist`]ograms for fault service
//!   latency, message and diff sizes, windowed time-series
//!   ([`SeriesReport`]) for phase detection, the stderr trace view
//!   ([`TraceFilter`], selected by `ObsConfig::trace`), and the segments
//!   and waits of the causal [`SpanLog`] — one branch per event when every
//!   sink is off;
//! * a per-node execution [`TimeBreakdown`] (compute / stalls / sync waits /
//!   local protocol work / stolen occupancy / poll overhead) that sums to
//!   the node's virtual wall time;
//! * exporters: Chrome trace-event JSON ([`chrome_trace`], loadable in
//!   Perfetto with one track per simulated node on the virtual clock, with
//!   cross-node flow arrows when spans were recorded) and JSONL metrics
//!   ([`jsonl_metrics`], [`series_jsonl`]), every record's type and version
//!   from [`schema`];
//! * [`critical_path`] extraction from the span log, with per-category
//!   attribution that sums to parallel time exactly.
//!
//! The event kinds are declared once (`define_events!` in [`event`]); what
//! is *not* an event — span ids and causes, and the run-time checker's
//! borrowed-state hooks — is set out in DESIGN § Observability.

pub mod breakdown;
pub mod critpath;
pub mod event;
pub mod export;
pub mod filter;
pub mod hist;
pub mod profile;
pub mod recorder;
pub mod schema;
pub mod series;
pub mod span;

pub use breakdown::TimeBreakdown;
pub use critpath::{critical_path, Category, CritPath, CritSeg};
pub use event::{Event, EventKind};
pub use export::{chrome_trace, jsonl_metrics, series_jsonl};
pub use filter::TraceFilter;
pub use hist::Hist;
pub use profile::{SharingProfile, PROFILE_UNIT};
pub use recorder::{NodeObs, ObsConfig, ObsReport, Recorder};
pub use series::{SeriesBucket, SeriesReport};
pub use span::{SpanClass, SpanEv, SpanLog, WaitKind};
