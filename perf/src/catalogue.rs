//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the bound by which it may
//! worsen. `BENCHMARK.json` declares the same set; a test compares them.

use dsm_core::Protocol;

use crate::stats::Summary;
use crate::workloads::{cell_key, proto_key, FIG1_CELLS, KV_BLOCK, PLANS};

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics: host time, untraced, median over the timed
/// passes of one run. Every workload reports every one of them.
///
/// The bounds are sized from the spread of ten runs on the builder's shared
/// host, quiet and with a busy neighbour (README, "Noise floor"): a bound
/// inside the noise would reject unchanged code.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("cpu_s", "s", "lower", 0.20),
        bounded("events_per_s", "1/s", "higher", 0.20),
        bounded("executions_per_s", "1/s", "higher", 0.20),
        bounded("setup_s", "s", "lower", 0.25),
        bounded("peak_rss_mb", "MiB", "lower", 0.25),
    ]
}

/// The one value a run reports for an end-to-end metric.
///
/// Every pass of a run does identical work, so all variation between its
/// passes is host interference, and interference only ever adds time. The
/// per-pass metrics therefore report their quiet quartile — q1 of a time,
/// q3 of a rate — which on a shared host repeats far better than the
/// median (README, "Noise floor"). Set-up has too few samples for a
/// quartile and memory has one: they report the median.
pub fn reported(def: &MetricDef, s: &Summary) -> f64 {
    match (def.name.as_str(), def.better) {
        ("setup_s" | "peak_rss_mb", _) => s.median,
        (_, "lower") => s.q1,
        _ => s.q3,
    }
}

/// The cells whose 16-node cost is also measured at one node.
pub const ONE_NODE_CELLS: [(&str, Protocol, usize); 4] = [
    ("lu", Protocol::Hlrc, 4096),
    ("water-nsquared", Protocol::Hlrc, 64),
    ("ocean-rowwise", Protocol::SwLrc, 4096),
    ("kv-zipf", Protocol::Sc, KV_BLOCK),
];

/// The 12 cells of `fig1-slice` and `kv-msg`, by key.
fn cell_keys() -> Vec<String> {
    FIG1_CELLS
        .iter()
        .map(|&(app, p, b)| cell_key(app, p, b))
        .chain(
            Protocol::ALL
                .iter()
                .map(|&p| cell_key("kv-zipf", p, KV_BLOCK)),
        )
        .collect()
}

/// The per-layer metrics, in print order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = Vec::new();
    // Exact counts of the traced workload: the denominators of every
    // ratio below. A simulator-speed change must leave them equal.
    for name in crate::workloads::COUNT_NAMES {
        m.push(def(name, "count", "lower"));
    }
    m.push(def("sim.nonmsg_frac", "ratio", "lower"));
    m.push(def("mc.useful_frac", "ratio", "higher"));
    m.push(def("obs.events_recorded", "count", "lower"));
    m.push(def("obs.spans_recorded", "count", "lower"));
    // The three calls run_experiment is made of, on the traced workload.
    for name in ["apps.build_s", "core.seq_s", "core.par_s", "core.verify_s"] {
        m.push(def(name, "s", "lower"));
    }
    m.push(def("apps.arith_share", "ratio", "lower"));
    m.push(def("core.ns_per_event", "ns", "lower"));
    for key in cell_keys() {
        m.push(def(&format!("cell.{key}.ns_per_event"), "ns", "lower"));
    }
    // What is left of a cell with no messages and no thread switches.
    for (app, p, b) in ONE_NODE_CELLS {
        let key = cell_key(app, p, b);
        m.push(def(&format!("core.ns_per_event_1n.{key}"), "ns", "lower"));
        m.push(def(&format!("sim.handoff_share.{key}"), "ratio", "lower"));
    }
    m.push(def("core.access_path_ratio", "ratio", "lower"));
    m.push(def("sim.unpinned_ratio", "ratio", "lower"));
    // Hooks and fabric on vs off, water-nsquared/HLRC@64.
    for name in [
        "check.overhead_ratio",
        "obs.overhead_ratio",
        "fabric.contended_ratio",
        "fabric.faulty_ratio",
    ] {
        m.push(def(name, "ratio", "lower"));
    }
    // Direct calls.
    m.push(def("sim.queue.push_pop_ns", "ns", "lower"));
    for size in [64, 1024, 4096] {
        m.push(def(&format!("proto.diff.create_ns.{size}"), "ns", "lower"));
        m.push(def(&format!("proto.diff.apply_ns.{size}"), "ns", "lower"));
    }
    for name in [
        "proto.vt.merge_ns",
        "proto.vt.missing_intervals_ns",
        "mem.access_check_ns",
        "net.one_way_ns",
    ] {
        m.push(def(name, "ns", "lower"));
    }
    m.push(def("json.parse_mb_per_s", "MB/s", "higher"));
    m.push(def("scenario.parse_us", "us", "lower"));
    m.push(def("scenario.jsonl_us", "us", "lower"));
    for (plan, _) in PLANS {
        m.push(def(&format!("scenario.rep_ms.{plan}"), "ms", "lower"));
    }
    for p in Protocol::ALL {
        m.push(def(&format!("mc.exec_us.{}", proto_key(p)), "us", "lower"));
    }
    m.push(def("trace.overhead_ratio", "ratio", "lower"));
    m.push(def("trace.unattributed_frac", "ratio", "lower"));
    m
}

/// The result line of the driver's contract: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`, holding every
/// metric of `defs` at its value in `values`. A metric of the catalogue
/// with no value is a bug in the caller.
pub fn result_line(
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &std::collections::BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .get(&d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(v.is_finite(), "metric {} is {v}", d.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}
