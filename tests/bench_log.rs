//! `BENCH_perf.json`, the append-only log of parent-vs-change medians: one
//! record per line, each with the nine keys, about a workload and a metric
//! that `BENCHMARK.json` declares.

use dsm::json::Value;

const KEYS: [&str; 9] = [
    "pr", "git", "host", "workload", "metric", "parent", "change", "bound", "verdict",
];

fn parse(file: &str, text: &str) -> Value {
    Value::parse(text).unwrap_or_else(|e| panic!("{file}: {e:?}"))
}

#[test]
fn every_record_has_the_nine_keys_and_names_the_benchmark_declares() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).expect(f);
    let bench = parse("BENCHMARK.json", &read("BENCHMARK.json"));
    let declares = |list: &str, key: &str, rec: &Value| {
        let declared = bench.get(list).and_then(Value::as_arr).expect(list);
        declared.iter().any(|d| d.get("name") == rec.get(key))
    };
    let log = read("BENCH_perf.json");
    assert!(!log.is_empty());
    for (i, line) in log.lines().enumerate() {
        let at = format!("BENCH_perf.json:{}", i + 1);
        let rec = parse(&at, line);
        let Value::Obj(fields) = &rec else {
            panic!("{at}: not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, KEYS, "{at}");
        assert!(declares("workloads", "workload", &rec), "{at}: workload");
        assert!(declares("end_to_end", "metric", &rec), "{at}: metric");
    }
}
