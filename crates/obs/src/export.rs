//! Exporters: Chrome trace-event JSON (Perfetto-loadable) and JSONL
//! metrics for bench runs.

use std::fmt::Write as _;

use crate::RunStats;
use dsm_json::Value;

use crate::breakdown::TimeBreakdown;
use crate::event::EventKind;
use crate::recorder::{NodeObs, ObsReport};
use crate::schema;
use crate::span::SpanEv;

/// Serialize a recorded run as Chrome trace-event JSON.
///
/// The output loads in Perfetto (or `chrome://tracing`): one track per
/// simulated node (`pid` 1, `tid` = node id), timestamps on the virtual
/// clock in microseconds. Duration events (faults, sync waits, compute
/// segments) become complete (`"X"`) slices; the rest become instants
/// (`"i"`).
///
/// When the report carries a span log, every cross-node message
/// additionally becomes a flow-event pair (`"s"` on the sender track at
/// departure, `"f"` on the destination track at dispatch, sharing the span
/// id), each anchored in a 1 ns `send:`/`recv:` slice so Perfetto draws
/// the arrow between the node tracks.
pub fn chrome_trace(report: &ObsReport) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, line: &str, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };
    push(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"dsm\"}}",
        &mut first,
    );
    for (node, _) in report.nodes.iter().enumerate() {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{node},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            ),
            &mut first,
        );
    }
    for (node, rec) in report.nodes.iter().enumerate() {
        for ev in &rec.events {
            let mut line = String::new();
            let name = ev.kind.name();
            match ev.kind.dur() {
                Some(dur) => {
                    // ev.ts is the end of the interval.
                    let start = ev.ts.saturating_sub(dur);
                    write!(
                        line,
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{node},\"name\":\"{name}\",\
                         \"ts\":{},\"dur\":{},\"args\":{}}}",
                        us(start),
                        us(dur),
                        args_json(&ev.kind)
                    )
                    .unwrap();
                }
                None => {
                    write!(
                        line,
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{node},\
                         \"name\":\"{name}\",\"ts\":{},\"args\":{}}}",
                        us(ev.ts),
                        args_json(&ev.kind)
                    )
                    .unwrap();
                }
            }
            push(&mut out, &line, &mut first);
        }
    }
    if let Some(spans) = &report.spans {
        let mut sends = std::collections::HashMap::new();
        for ev in &spans.events {
            if let SpanEv::Send {
                id,
                from,
                to,
                ts,
                class,
                ..
            } = *ev
            {
                if from != to {
                    sends.insert(id, (from, to, ts, class));
                }
            }
        }
        for ev in &spans.events {
            let SpanEv::Recv { id, node, ts: rts } = *ev else {
                continue;
            };
            let Some(&(from, to, sts, class)) = sends.get(&id) else {
                continue;
            };
            debug_assert_eq!(node, to);
            let name = class.name();
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{from},\"name\":\"send:{name}\",\
                     \"ts\":{},\"dur\":0.001,\"args\":{{\"span\":{id},\"to\":{to}}}}}",
                    us(sts)
                ),
                &mut first,
            );
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"s\",\"pid\":1,\"tid\":{from},\"cat\":\"span\",\
                     \"name\":\"{name}\",\"id\":{id},\"ts\":{}}}",
                    us(sts)
                ),
                &mut first,
            );
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{to},\"name\":\"recv:{name}\",\
                     \"ts\":{},\"dur\":0.001,\"args\":{{\"span\":{id},\"from\":{from}}}}}",
                    us(rts)
                ),
                &mut first,
            );
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{to},\"cat\":\"span\",\
                     \"name\":\"{name}\",\"id\":{id},\"ts\":{}}}",
                    us(rts)
                ),
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Windowed time-series as schema-versioned JSONL: one `"series"` record
/// per non-empty window per node. Empty when the report has no series.
pub fn series_jsonl(report: &ObsReport) -> String {
    let mut out = String::new();
    let Some(series) = &report.series else {
        return out;
    };
    for (node, ns) in series.nodes.iter().enumerate() {
        for (i, b) in ns.buckets.iter().enumerate() {
            if b.is_empty() {
                continue;
            }
            let mut v = schema::record(schema::SERIES);
            v.set("node", node);
            v.set("window", i);
            v.set("window_ns", series.window_ns);
            v.set("start_ns", ns.base_ns + i as u64 * series.window_ns);
            v.set("msgs", b.msgs);
            v.set("faults", b.faults);
            v.set("diff_bytes", b.diff_bytes);
            v.set("stall_ns", b.stall_ns);
            out.push_str(&v.to_string());
            out.push('\n');
        }
    }
    out
}

/// Nanoseconds to microseconds with sub-µs precision preserved.
fn us(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{:.3}", ns as f64 / 1000.0)
    }
}

/// Event payload as a JSON object (the trace `args` field): one key per
/// field of the kind, under the field's name.
fn args_json(kind: &EventKind) -> Value {
    Value::Obj(
        kind.fields()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    )
}

/// One node's metrics as a JSON object (one JSONL line).
fn node_line(node: usize, rec: &NodeObs, stats: &RunStats) -> Value {
    let mut v = schema::record(schema::NODE);
    v.set("node", node);
    v.set("wall_ns", rec.wall_ns());
    if let Some(c) = stats.per_node.get(node) {
        v.set(
            "breakdown",
            TimeBreakdown::from_counters(c, rec.wall_ns()).to_json(),
        );
        v.set("counters", c.to_json());
    }
    let mut counts = Value::obj();
    for (i, name) in EventKind::NAMES.iter().enumerate() {
        if rec.counts[i] > 0 {
            counts.set(name, rec.counts[i]);
        }
    }
    let mut events = Value::obj();
    events.set("dropped", rec.dropped);
    events.set("counts", counts);
    v.set("events", events);
    let mut hists = Value::obj();
    hists.set("fault_ns", rec.fault_ns.to_json());
    hists.set("msg_bytes", rec.msg_bytes.to_json());
    hists.set("diff_bytes", rec.diff_bytes.to_json());
    hists.set("queue_ns", rec.queue_ns.to_json());
    v.set("hists", hists);
    v
}

/// Serialize run metrics as JSON Lines: one `"node"` record per node,
/// then one `"run"` record with totals.
pub fn jsonl_metrics(report: &ObsReport, stats: &RunStats) -> String {
    let mut out = String::new();
    for (node, rec) in report.nodes.iter().enumerate() {
        out.push_str(&node_line(node, rec, stats).to_string());
        out.push('\n');
    }
    let mut run = schema::record(schema::RUN);
    run.set("nodes", report.nodes.len());
    run.set("parallel_time_ns", stats.parallel_time_ns);
    run.set("sequential_time_ns", stats.sequential_time_ns);
    run.set("speedup", stats.speedup());
    run.set("counters", stats.totals().to_json());
    out.push_str(&run.to_string());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::recorder::{ObsConfig, Recorder};
    use crate::Counters;

    fn sample_report() -> ObsReport {
        let cfg = ObsConfig {
            record_events: true,
            ring_capacity: 128,
            ..ObsConfig::default()
        };
        let mut r = Recorder::new(2, &cfg);
        r.note_begin(0, 0);
        r.note_begin(1, 0);
        r.record(
            0,
            100,
            EventKind::FaultBegin {
                block: 3,
                write: false,
            },
        );
        r.record(
            0,
            2600,
            EventKind::FaultEnd {
                block: 3,
                write: false,
                dur: 2500,
            },
        );
        r.record(
            1,
            50,
            EventKind::MsgSend {
                to: 0,
                tag: "ScFetch",
                block: Some(3),
                ctrl: 16,
                data: 0,
            },
        );
        r.record(1, 777, EventKind::Interrupt);
        r.record(
            1,
            4000,
            EventKind::BarrierWait {
                barrier: 0,
                dur: 1500,
            },
        );
        r.note_end(0, 5000);
        r.note_end(1, 5000);
        r.take_report()
    }

    fn sample_stats() -> RunStats {
        RunStats {
            per_node: vec![
                Counters {
                    compute_ns: 2500,
                    read_stall_ns: 2500,
                    ..Default::default()
                },
                Counters {
                    compute_ns: 3500,
                    barrier_wait_ns: 1500,
                    ..Default::default()
                },
            ],
            parallel_time_ns: 5000,
            sequential_time_ns: 9000,
            sim_events: 0,
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let report = sample_report();
        let text = chrome_trace(&report);
        let v = Value::parse(&text).expect("trace must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process meta + 2 thread metas + 5 events
        assert_eq!(events.len(), 8);
        let mut tids = std::collections::BTreeSet::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(ev.get("pid").unwrap().as_u64().is_some());
            assert!(ev.get("name").unwrap().as_str().is_some());
            match ph {
                "M" => {}
                "X" => {
                    assert!(ev.get("ts").unwrap().as_f64().is_some());
                    assert!(ev.get("dur").unwrap().as_f64().is_some());
                    tids.insert(ev.u64_field("tid").unwrap());
                }
                "i" => {
                    assert!(ev.get("ts").unwrap().as_f64().is_some());
                    tids.insert(ev.u64_field("tid").unwrap());
                }
                other => panic!("unexpected ph {other}"),
            }
        }
        // one track per node
        assert_eq!(tids, [0u64, 1].into_iter().collect());
        // X slices start at ts = end - dur (in µs)
        let fault = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("fault_end"))
            .unwrap();
        assert!((fault.get("ts").unwrap().as_f64().unwrap() - 0.1).abs() < 1e-9);
        assert!((fault.get("dur").unwrap().as_f64().unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_emits_flow_pairs_for_spans() {
        use crate::span::{SpanClass, SpanLog};
        let mut report = sample_report();
        let mut log = SpanLog::new();
        let fetch = log.send(0, 1, 1000, 500, SpanClass::Fetch);
        log.recv(1, 1500, fetch);
        let lock = log.send(1, 0, 2000, 500, SpanClass::Lock);
        log.recv(0, 2500, lock);
        let selfsend = log.send(0, 0, 3000, 0, SpanClass::Fetch);
        log.recv(0, 3000, selfsend);
        report.spans = Some(log);
        let text = chrome_trace(&report);
        let v = Value::parse(&text).expect("trace with flows must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        for (name, id, from, to) in [("fetch", fetch, 0u64, 1u64), ("lock", lock, 1, 0)] {
            let s = events
                .iter()
                .find(|e| {
                    e.get("ph").unwrap().as_str() == Some("s")
                        && e.get("name").unwrap().as_str() == Some(name)
                })
                .unwrap_or_else(|| panic!("missing flow start for {name}"));
            let f = events
                .iter()
                .find(|e| {
                    e.get("ph").unwrap().as_str() == Some("f")
                        && e.get("name").unwrap().as_str() == Some(name)
                })
                .unwrap_or_else(|| panic!("missing flow finish for {name}"));
            assert_eq!(s.u64_field("id"), Some(id));
            assert_eq!(f.u64_field("id"), Some(id));
            assert_eq!(s.u64_field("tid"), Some(from));
            assert_eq!(f.u64_field("tid"), Some(to));
            assert_eq!(f.get("bp").unwrap().as_str(), Some("e"));
        }
        // Self-sends never become arrows.
        assert!(!events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("s") && e.u64_field("id") == Some(selfsend)
        }));
        // Both flow endpoints are anchored in slices at the same ts.
        assert!(events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("X")
                && e.get("name").unwrap().as_str() == Some("send:fetch")
        }));
        assert!(events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("X")
                && e.get("name").unwrap().as_str() == Some("recv:lock")
        }));
    }

    #[test]
    fn series_jsonl_emits_schema_versioned_records() {
        let cfg = ObsConfig {
            record_events: true,
            ring_capacity: 128,
            series_window_ns: 1000,
            ..ObsConfig::default()
        };
        let mut r = Recorder::new(2, &cfg);
        r.note_begin(0, 0);
        r.note_begin(1, 0);
        r.record(
            0,
            100,
            EventKind::MsgSend {
                to: 1,
                tag: "ScFetch",
                block: Some(3),
                ctrl: 16,
                data: 0,
            },
        );
        r.record(
            0,
            2600,
            EventKind::FaultEnd {
                block: 3,
                write: false,
                dur: 2500,
            },
        );
        let report = r.take_report();
        let text = series_jsonl(&report);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Value::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("series"));
        assert_eq!(first.u64_field("schema"), Some(1));
        assert_eq!(first.u64_field("node"), Some(0));
        assert_eq!(first.u64_field("window"), Some(0));
        assert_eq!(first.u64_field("msgs"), Some(1));
        let second = Value::parse(lines[1]).unwrap();
        assert_eq!(second.u64_field("window"), Some(2));
        assert_eq!(second.u64_field("start_ns"), Some(2000));
        assert_eq!(second.u64_field("faults"), Some(1));
        assert_eq!(second.u64_field("stall_ns"), Some(2500));
    }

    #[test]
    fn jsonl_string_escaping_round_trips_through_parser() {
        // The JSONL records we emit embed strings (tags, app names,
        // fabric specs). Anything that can appear there must survive a
        // serialize → parse round-trip through the in-tree parser.
        let nasty = [
            "plain",
            "quote\"inside",
            "back\\slash",
            "both\\\"mixed\\\"",
            "new\nline",
            "tab\tand\rreturn",
            "ctrl\u{1}\u{2}\u{1f}chars",
            "trailing backslash\\",
            "",
        ];
        for s in nasty {
            let mut v = Value::obj();
            v.set("type", "escape_test");
            v.set("payload", s);
            let line = v.to_string();
            assert!(
                !line.contains('\n'),
                "JSONL line must stay one line: {line:?}"
            );
            let back = Value::parse(&line)
                .unwrap_or_else(|e| panic!("reparse failed for {s:?}: {e:?} in {line}"));
            assert_eq!(back.get("payload").unwrap().as_str(), Some(s));
        }
        // Array-of-strings round-trip, as used by sweep records.
        let mut v = Value::obj();
        v.set(
            "items",
            Value::Arr(nasty.iter().map(|s| Value::from(*s)).collect()),
        );
        let back = Value::parse(&v.to_string()).unwrap();
        let items = back.get("items").unwrap().as_arr().unwrap();
        for (got, want) in items.iter().zip(nasty) {
            assert_eq!(got.as_str(), Some(want));
        }
    }

    #[test]
    fn jsonl_lines_parse_and_sum() {
        let report = sample_report();
        let stats = sample_stats();
        let text = jsonl_metrics(&report, &stats);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let n0 = Value::parse(lines[0]).unwrap();
        assert_eq!(n0.get("type").unwrap().as_str(), Some("node"));
        assert_eq!(n0.u64_field("wall_ns"), Some(5000));
        let b = n0.get("breakdown").unwrap();
        assert_eq!(b.u64_field("compute_ns"), Some(2500));
        assert_eq!(b.get("residual_ns").unwrap().as_i64(), Some(0));
        let run = Value::parse(lines[2]).unwrap();
        assert_eq!(run.get("type").unwrap().as_str(), Some("run"));
        assert_eq!(run.u64_field("parallel_time_ns"), Some(5000));
        assert_eq!(
            run.get("counters").unwrap().u64_field("compute_ns"),
            Some(6000)
        );
    }
}
