//! Tests of the benchmark's own machinery: statistics, spans, the metric
//! catalogue against `BENCHMARK.json`, failure accounting, and a smoke pass
//! of every workload body at the small problem size.

use std::collections::BTreeMap;

use dsm_apps::AppSize;
use dsm_json::Value;
use dsm_perf::catalogue::{end_to_end, per_layer, result_line, MetricDef};
use dsm_perf::golden::{self, Golden};
use dsm_perf::span::{self_secs, unattributed_frac, Tracer};
use dsm_perf::stats::summarize;
use dsm_perf::workloads::{build, run_pass, Body, Op, PassOutcome, NAMES};

#[test]
fn quartiles_follow_the_exclusive_method() {
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    let odd = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert_eq!((odd.n, odd.q1, odd.median, odd.q3), (5, 1.5, 3.0, 4.5));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    let even = summarize(&[4.0, 3.0, 2.0, 1.0]);
    assert_eq!(
        (even.n, even.q1, even.median, even.q3),
        (4, 1.25, 2.5, 3.75)
    );
    // Three samples: the quartiles are the extremes.
    let three = summarize(&[2.0, 9.0, 4.0]);
    assert_eq!((three.q1, three.median, three.q3), (2.0, 4.0, 9.0));
    // Two samples: the rule would extrapolate to 0.75 and 2.25.
    let two = summarize(&[2.0, 1.0]);
    assert_eq!((two.q1, two.median, two.q3), (1.0, 1.5, 2.0));
    let constant = summarize(&[7.0; 6]);
    assert_eq!((constant.q1, constant.median, constant.q3), (7.0, 7.0, 7.0));
    assert_eq!(constant.spread(), 0.0);
    let one = summarize(&[3.5]);
    assert_eq!((one.n, one.q1, one.median, one.q3), (1, 3.5, 3.5, 3.5));
}

fn spin(t: &Tracer) {
    // Make every span strictly longer than the clock's resolution.
    let n = t.spans.len();
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_micros() < 200 {
        std::hint::black_box(n);
    }
}

#[test]
fn self_time_subtracts_nested_and_adjacent_children() {
    let mut t = Tracer::new();
    t.workload = "w";
    let pass = t.enter("pass", "");
    spin(&t);
    let op = t.enter("op", "a");
    let x = t.enter("layer.x", "a");
    spin(&t);
    t.exit(x);
    let y = t.enter("layer.y", "a"); // adjacent to x
    spin(&t);
    t.exit(y);
    spin(&t);
    t.exit(op);
    t.exit(pass);

    let s = &t.spans;
    assert_eq!(s[op].parent, Some(pass));
    assert_eq!(s[x].parent, Some(op));
    assert_eq!(s[y].parent, Some(op));
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    // A leaf's self time is its duration.
    assert!(close(self_secs(s, x), s[x].secs()));
    // Adjacent children are both subtracted from their parent...
    assert!(close(
        self_secs(s, op),
        s[op].secs() - s[x].secs() - s[y].secs()
    ));
    // ...and only direct children from the grandparent.
    assert!(close(self_secs(s, pass), s[pass].secs() - s[op].secs()));
    // Unattributed = time in no leaf: the self time of pass and op.
    let want = (self_secs(s, pass) + self_secs(s, op)) / s[pass].secs();
    assert!(close(unattributed_frac(s, pass), want));
    assert!(want > 0.0 && want < 1.0);
    assert_eq!(t.jsonl().lines().count(), 4);
    assert!(t.jsonl().starts_with(
        "{\"id\":0,\"parent\":null,\"name\":\"pass\",\"workload\":\"w\",\"op\":\"\",\"start_ns\":"
    ));
}

#[test]
fn exit_closes_spans_a_panic_left_open() {
    let mut t = Tracer::new();
    let op = t.enter("op", "a");
    let inner = t.enter("layer", "a");
    spin(&t);
    t.exit(op); // `inner` never exited
    assert_eq!(t.spans[inner].end_ns, t.spans[op].end_ns);
    let next = t.enter("op", "b");
    assert_eq!(t.spans[next].parent, None);
}

fn legal(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn declared(doc: &Value, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
            MetricDef {
                name: field("name"),
                unit: leak(field("unit")),
                better: leak(field("better")),
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

#[test]
fn names_are_legal_and_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, NAMES);
    assert!(NAMES.iter().all(|w| legal(w)));

    // What `run` and `trace` emit is the catalogue, by construction
    // (`result_line` panics on a catalogue metric with no value), so the
    // emitted set equals the declared one iff the catalogue does.
    assert_eq!(declared(&doc, "end_to_end"), end_to_end());
    assert_eq!(declared(&doc, "per_layer"), per_layer());
    let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
    for d in &all {
        assert!(legal(&d.name), "{}", d.name);
        assert!(d.better == "lower" || d.better == "higher");
    }
    let unique: std::collections::BTreeSet<&str> = all.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(unique.len(), all.len(), "a metric name is used twice");
    assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
    assert!(end_to_end()
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
}

#[test]
fn result_line_holds_exactly_the_contract_keys() {
    let defs = end_to_end();
    let values: BTreeMap<String, f64> = defs
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.clone(), 1.5 + i as f64))
        .collect();
    let line = result_line(10, 1, &defs, &values);
    let Value::Obj(fields) = Value::parse(&line).unwrap() else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(fields[0].1, Value::Bool(false));
    let Value::Obj(metrics) = &fields[3].1 else {
        panic!("metrics is not an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, want);
    assert_eq!(metrics[0].1.get("value").and_then(Value::as_f64), Some(1.5));
    assert_eq!(metrics[0].1.get("unit").and_then(Value::as_str), Some("s"));
}

#[test]
fn golden_file_round_trips_and_committed_one_covers_every_operation() {
    let mut g = Golden::new();
    g.insert("w/a".to_string(), 0xdead_beef);
    g.insert("w/b".to_string(), u64::MAX);
    assert_eq!(golden::parse(&golden::render(&g)).unwrap(), g);
    assert!(golden::parse("[]").is_err());
    assert!(golden::parse("{\"w/a\": 12}").is_err());

    let committed = golden::committed().unwrap();
    let mut want = Vec::new();
    for w in NAMES {
        for op in build(w, 1, AppSize::Standard, None).unwrap() {
            want.push(format!("{w}/{}", op.name));
        }
    }
    want.sort();
    assert_eq!(committed.keys().cloned().collect::<Vec<_>>(), want);
}

/// One pass of a workload body at the small size: every operation
/// verifies, repeats exactly, and the traced path agrees with the untraced
/// one.
fn smoke(w: &'static str) {
    let none = Golden::new();
    let ops = build(w, 1, AppSize::Small, None).unwrap();
    let plain = run_pass(w, &ops, &none, None);
    assert_eq!(plain.failures().count(), 0, "{:?}", plain.ops);
    assert!(plain.executions >= ops.len() as u64);
    assert!(plain.counts.events_or_states() > 0);

    let mut t = Tracer::new();
    let traced = run_pass(w, &ops, &none, Some(&mut t));
    assert_eq!(traced.counts, plain.counts);
    let digests = |p: &PassOutcome| -> Vec<u64> { p.ops.iter().map(|(_, o)| o.digest).collect() };
    assert_eq!(digests(&traced), digests(&plain));
    let root = traced.span.unwrap();
    assert_eq!(t.spans[root].name, "pass");
    assert_eq!(t.spans.iter().filter(|s| s.name == "op").count(), ops.len());
    assert!(t.spans.iter().all(|s| s.workload == w && legal(s.name)));
    let u = unattributed_frac(&t.spans, root);
    assert!((0.0..0.5).contains(&u), "unattributed {u}");
}

// One test per workload, so they run side by side.
#[test]
fn smoke_fig1_slice() {
    smoke("fig1-slice");
}

#[test]
fn smoke_kv_msg() {
    smoke("kv-msg");
}

#[test]
fn smoke_scenario_mix() {
    smoke("scenario-mix");
}

#[test]
fn smoke_mc_explore() {
    smoke("mc-explore");
}

#[test]
fn seed_reshapes_kv_msg_and_scenario_mix_only() {
    let none = Golden::new();
    let events = |w: &'static str, seed: u64| {
        let ops = build(w, seed, AppSize::Small, None).unwrap();
        // One operation is enough to see the seed.
        run_pass(w, &ops[..1], &none, None).counts
    };
    assert_ne!(events("kv-msg", 1), events("kv-msg", 2));
    assert_ne!(events("scenario-mix", 1), events("scenario-mix", 2));
    assert_eq!(events("mc-explore", 1), events("mc-explore", 2));
}

#[test]
fn a_failing_operation_is_counted_and_named() {
    let mut ops = build("scenario-mix", 1, AppSize::Small, None).unwrap();
    ops.truncate(1);
    let good = ops[0].name.clone();
    // Injected failures: a plan that does not parse, and a digest that
    // differs from its golden entry.
    ops.push(Op {
        name: "broken-plan".to_string(),
        body: Body::Scenario {
            text: "{\"name\": ",
            seed: 0,
        },
    });
    let mut golden = Golden::new();
    golden.insert(format!("scenario-mix/{good}"), 0x1234);
    let pass = run_pass("scenario-mix", &ops, &golden, None);
    let failed: Vec<(&str, &str)> = pass.failures().collect();
    assert_eq!(pass.ops.len(), 2);
    assert_eq!(failed.len(), 2, "{failed:?}");
    assert_eq!(failed[0].0, good);
    assert!(
        failed[0].1.contains("differs from golden"),
        "{}",
        failed[0].1
    );
    assert_eq!(failed[1].0, "broken-plan");
    assert!(failed[1].1.starts_with("scenario:"), "{}", failed[1].1);

    // With the right digest pinned the same operation passes.
    let digest = pass.ops[0].1.digest;
    golden.insert(format!("scenario-mix/{good}"), digest);
    let pass = run_pass("scenario-mix", &ops[..1], &golden, None);
    assert_eq!(pass.failures().count(), 0);
}
