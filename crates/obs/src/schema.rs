//! Every JSONL record type the workspace emits and its version: the one
//! place a `"schema"` number is written.
//!
//! Bump a record's version when a key is renamed, removed or changes
//! meaning; adding a key is compatible. `tests/schema_golden.rs` pins each
//! record's version and top-level key set, so neither moves unnoticed.

use dsm_json::Value;

/// A record type: its `"type"` string and its `"schema"` version.
pub type Kind = (&'static str, u32);

/// `diag --json`: the run's configuration and verdicts.
pub const CONFIG: Kind = ("config", 1);
/// `diag --json`: one region's policy and counters. v2: `counters` is a
/// full [`Counters`](crate::Counters) object (`local_faults` became
/// `local_write_faults`, `msgs` became `msgs_sent`).
pub const REGION: Kind = ("region", 2);
/// `diag --json --check`: one checker violation.
pub const CHECK: Kind = ("check", 1);
/// [`crate::jsonl_metrics`]: one node's breakdown, counters and histograms.
pub const NODE: Kind = ("node", 1);
/// [`crate::jsonl_metrics`]: run totals.
pub const RUN: Kind = ("run", 1);
/// [`crate::series_jsonl`]: one window of one node's time series.
pub const SERIES: Kind = ("series", 1);
/// [`crate::CritPath::to_json`]: the critical-path attribution.
pub const CRITPATH: Kind = ("critpath", 1);
/// `diag --mc --json`: exploration statistics.
pub const MC: Kind = ("mc", 1);
/// `diag --mc --json`: one violation example.
pub const MC_VIOLATION: Kind = ("mc-violation", 1);
/// `probe --json`: one (app, protocol, granularity) cell. v2 added the
/// Tardis lease counters.
pub const CELL: Kind = ("cell", 2);
/// `dsm-scenario`: header record; its version is also the plan format's.
/// v2 added `sim_events` / `sim_events_per_sec`, v3 the Tardis lease
/// counters and the `"tardis"` mode protocol.
pub const SCENARIO: Kind = ("scenario", 3);
/// `dsm-scenario`: one repetition.
pub const SCENARIO_REP: Kind = ("scenario-rep", SCENARIO.1);
/// `dsm-scenario`: statistics over the repetitions.
pub const SCENARIO_AGGREGATE: Kind = ("scenario-aggregate", SCENARIO.1);

/// A new record of the given type: an object holding its `"type"` and
/// `"schema"` keys, for the caller to fill.
pub fn record(kind: Kind) -> Value {
    let mut v = Value::obj();
    v.set("type", kind.0);
    v.set("schema", kind.1);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_leads_with_type_and_schema() {
        assert_eq!(
            record(REGION).to_string(),
            r#"{"type":"region","schema":2}"#
        );
    }
}
