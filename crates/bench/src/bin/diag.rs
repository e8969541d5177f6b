//! Diagnostic: stat breakdown for one run, or for the adaptive per-region
//! runtime.
//!
//! ```text
//! diag APP PROTOCOL BLOCK [KEY=VALUE ...] [check] [spans]
//!      [--json] [--check] [--fabric SPEC] [--trace FILE]
//!      [--critpath] [--series WINDOW_US] [--adaptive]
//! ```
//!
//! The arguments that are not options are one run line
//! ([`dsm_scenario::RunSpec`]): the application (at the standard size),
//! protocol and block, then `key=value` words for whatever differs from the
//! defaults — `size`, `seed`, an application parameter, `nodes`, `notify`,
//! `homes`, `fabric`, `region=NAME:PROTOCOL@BLOCK`, a `CostModel` field —
//! and the switches `check` and `spans`. For example
//! `diag barnes-original hlrc 256 notify=interrupt check`. The line a
//! scenario repetition records as `"run"`, or a grid cell prints as, is the
//! argument list that re-runs it; the human-readable output prints the
//! run's own line first.
//!
//! Human-readable tables by default; `--json` switches to JSON Lines
//! (per-node records with the time breakdown, one record per region, then
//! a run record). A run whose final image differs from the sequential
//! run's prints a `verify:` line (`"check_ok": false` under `--json`) and
//! exits 1, as a checker finding does. `--check` is the word `check`: it
//! installs the happens-before race detector and protocol invariant
//! checker on the run, prints every violation (one `"check"` JSONL record
//! each under `--json`), and exits nonzero when any were found.
//! `--fabric SPEC` is the word `fabric=SPEC`: the network fabric model
//! (`ideal`, the default, `contended`, or `faulty[,seed=..,drop=..,...]`;
//! the grammar scenario plans use).
//! `--trace FILE` records the run and writes a Chrome
//! trace-event file loadable in Perfetto (<https://ui.perfetto.dev>).
//! `--adaptive` profiles the application, lets the policy engine pin a
//! protocol × granularity per region, writes the plan into the run (its
//! line replays the planned run) and reports the mixed-mode run
//! (per-region records carry the decision, the profiled sharing statistics
//! it was based on, and the measured counters).
//! `--critpath` is the word `spans`: the run records causal spans, and
//! `diag` extracts the critical path that determined the parallel time and
//! prints the per-category attribution (one `"critpath"` JSONL record under
//! `--json`). The attribution must sum to the parallel time exactly; the
//! tool exits nonzero if it does not, or if the run produced no spans.
//! `--series WINDOW_US` collects windowed per-node time-series counters at
//! the given window width and prints them (schema-versioned `"series"`
//! JSONL records under `--json`).
//! `--mc CONFIG` ignores APP/PROTOCOL/BLOCK and runs the exhaustive
//! schedule-space model checker (`dsm-mc`) on a bounded micro-program
//! instead of benchmarking. CONFIG is a comma list:
//! `proto=sc|swlrc|hlrc|tardis`, `prog=msg|lock|ping|pingpong`,
//! `nodes=N`, `rounds=N`, `faults=BUDGET`, `block=BYTES`, `max=SCHEDULES`,
//! `steps=MAX_COMMITS`, and the switches `raw` (disable DPOR) and
//! `nodedup` (disable state dedup). `lock` and `ping` take `nodes` ≥ 2
//! (default 2) and `rounds` ≥ 1 (default 1), `pingpong` takes `rounds` ≥ 1
//! only, and `msg` (two nodes, one message) takes neither; any other
//! `nodes` or `rounds` is rejected. Prints exploration statistics (a
//! schema-versioned `"mc"` record plus one `"mc-violation"` record per
//! violation example under `--json`) and exits nonzero when any schedule
//! produced a violation.
//!
//! `DSM_TRACE=<node>:<block>` (or `all`) prints an application run's
//! protocol events for that node and block (or every event) on stderr as
//! they happen; `--mc` ignores it. It is the one environment variable
//! `diag` reads; no other setting of the shell changes a run.
//!
//! A malformed argument or `DSM_TRACE` value is a one-line message naming
//! it and what it accepts, and exit status 2.
use dsm_adapt::RegionDecision;
use dsm_bench::cli::{bad_arg, trace_env};
use dsm_bench::records::{
    check_record, config_record, mc_record, mc_violation_record, region_record,
};
use dsm_core::{run_experiment, ExperimentResult, Protocol};
use dsm_obs::{chrome_trace, critical_path, jsonl_metrics, series_jsonl, TimeBreakdown};
use dsm_scenario::run::{block_arg, RunSpec};

fn print_regions(r: &ExperimentResult, decisions: &[RegionDecision]) {
    println!(
        "  {:<10} {:>9} {:>9}  {:>7} {:>5}  {:>8} {:>8} {:>8}  {:>9}",
        "region", "start", "len", "proto", "block", "rfaults", "wfaults", "inval", "trafficKB"
    );
    for reg in &r.regions {
        let c = &reg.counters;
        println!(
            "  {:<10} {:>9} {:>9}  {:>7} {:>5}  {:>8} {:>8} {:>8}  {:>9}",
            reg.name,
            reg.start,
            reg.len,
            reg.protocol.name(),
            reg.block,
            c.read_faults,
            c.write_faults,
            c.invalidations,
            c.total_traffic() / 1024
        );
    }
    for d in decisions {
        println!(
            "  plan {:<10} -> {}@{} (predicted {:.1}ms; {} touched units, {} multi-writer, \
             {} writer / {} reader nodes)",
            d.profile.name,
            d.protocol.name(),
            d.block,
            d.predicted_ns / 1e6,
            d.profile.touched_units,
            d.profile.multi_writer_units,
            d.profile.writer_nodes,
            d.profile.reader_nodes
        );
        for (pi, p) in Protocol::ALL.iter().enumerate() {
            let cells: Vec<String> = dsm_core::GRANULARITIES
                .iter()
                .enumerate()
                .map(|(gi, g)| format!("{g}:{:9.1}", d.candidates_ns[pi][gi] / 1e6))
                .collect();
            println!("       {:<7} {}", p.name(), cells.join("  "));
        }
    }
}

/// Parse the `--mc` CONFIG string, run the exploration, print the report,
/// and exit (0 clean, 1 violations, 2 bad config).
fn run_mc(spec: &str, json: bool) -> ! {
    use dsm_mc::{explore, program, McConfig};

    let bad = |msg: String| -> ! {
        eprintln!("--mc: {msg}");
        std::process::exit(2);
    };
    let mut proto = Protocol::Sc;
    let mut prog_name = "msg".to_string();
    let mut nodes: Option<u64> = None;
    let mut rounds: Option<u64> = None;
    let mut faults = 0u32;
    let mut block = "256";
    let mut reduce = true;
    let mut dedup = true;
    let mut max_schedules = 0u64;
    let mut max_steps = 100_000u64;
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part.split_once('=').unwrap_or((part, ""));
        let num = || -> u64 {
            v.parse()
                .unwrap_or_else(|_| bad(format!("{k} needs a number, got {v:?}")))
        };
        match k {
            "proto" => {
                proto = v
                    .parse()
                    .unwrap_or_else(|e| bad(format!("bad protocol {v:?}: {e}")))
            }
            "prog" => prog_name = v.to_string(),
            "nodes" => nodes = Some(num()),
            "rounds" => rounds = Some(num()),
            "faults" => {
                faults = u32::try_from(num())
                    .unwrap_or_else(|_| bad(format!("faults must fit in 32 bits, got {v:?}")))
            }
            "block" => block = v,
            "max" => max_schedules = num(),
            "steps" => max_steps = num(),
            "raw" => reduce = false,
            "nodedup" => dedup = false,
            _ => bad(format!("unknown key {k:?}")),
        }
    }
    // The least `nodes` and `rounds` each program takes (`None`: it takes
    // no such key). A key outside that is an error, never a silent default.
    let (least_nodes, least_rounds, accepts) = match prog_name.as_str() {
        "msg" => (None, None, "takes neither nodes nor rounds"),
        "lock" | "ping" => (Some(2), Some(1), "takes nodes >= 2 and rounds >= 1"),
        "pingpong" => (None, Some(1), "takes rounds >= 1 and no nodes"),
        other => bad(format!(
            "unknown program {other:?} (one of: msg, lock, ping, pingpong)"
        )),
    };
    let shape = |given: Option<u64>, least: Option<u64>, key: &str| match (given, least) {
        (None, _) => least.unwrap_or(0) as usize,
        (Some(n), Some(m)) if n >= m => n as usize,
        (Some(n), _) => bad(format!("{key}={n}: prog={prog_name} {accepts}")),
    };
    let (nodes, rounds) = (
        shape(nodes, least_nodes, "nodes"),
        shape(rounds, least_rounds, "rounds"),
    );
    let prog = match prog_name.as_str() {
        "lock" => program::lock_counter(nodes, rounds),
        "ping" => program::ping_rounds(nodes, rounds),
        "pingpong" => program::lock_pingpong(rounds),
        _ => program::msg_pass(),
    };
    let block = block_arg(block, prog.shared_bytes).unwrap_or_else(|e| bad(e));
    let mut cfg = McConfig::new(proto);
    cfg.block_size = block;
    cfg.fault_budget = faults;
    cfg.reduce = reduce;
    cfg.dedup = dedup;
    cfg.max_schedules = max_schedules;
    cfg.max_steps = max_steps;
    let t0 = std::time::Instant::now();
    let rep = explore(&cfg, &prog);
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let total_violations: u64 = rep.violation_counts.values().sum();
    if json {
        println!("{}", mc_record(&cfg, &prog, &rep, elapsed_ms));
        for viol in &rep.violations {
            println!("{}", mc_violation_record(viol));
        }
    } else {
        println!(
            "mc {} {}@{}: {} schedule(s) explored in {elapsed_ms:.1}ms ({})",
            prog.name,
            proto.name(),
            block,
            rep.schedules,
            if rep.complete {
                "schedule space exhausted"
            } else {
                "bounded early exit"
            }
        );
        println!(
            "  pruned: sleep={} dedup={} steps={}  skipped-branches={}  reduction>={:.2}x",
            rep.pruned_sleep,
            rep.pruned_dedup,
            rep.pruned_steps,
            rep.branches_skipped,
            rep.reduction_ratio()
        );
        println!(
            "  states={} choice-points={} max-depth={} deadlocks={} fault-budget={}",
            rep.states, rep.choice_points, rep.max_depth, rep.deadlocks, faults
        );
        if total_violations == 0 {
            println!("  verdict: clean (mirrors + race detector + value oracles)");
        } else {
            println!("  verdict: {total_violations} violation(s)");
            for (rule, n) in &rep.violation_counts {
                println!("    {rule}: {n}");
            }
            for viol in &rep.violations {
                println!("    {viol}");
            }
        }
    }
    std::process::exit(if total_violations == 0 { 0 } else { 1 });
}

fn main() {
    // The run line: its words, then those `--check`, `--fabric` and
    // `--critpath` stand for.
    let mut words: Vec<String> = Vec::new();
    let mut option_words: Vec<String> = Vec::new();
    let mut json = false;
    let mut adaptive = false;
    let mut trace_path: Option<String> = None;
    let mut series_ns: Option<u64> = None;
    let mut mc_spec: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--check" => option_words.push("check".to_string()),
            "--adaptive" => adaptive = true,
            "--critpath" => option_words.push("spans".to_string()),
            "--series" => {
                series_ns = Some(
                    args.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&w| w >= 1)
                        .and_then(|us| us.checked_mul(1_000))
                        .unwrap_or_else(|| {
                            eprintln!(
                                "--series requires a window width in microseconds, \
                                 from 1 to {}",
                                u64::MAX / 1_000
                            );
                            std::process::exit(2);
                        }),
                )
            }
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace requires a file path");
                    std::process::exit(2);
                }))
            }
            "--fabric" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("--fabric requires a spec (ideal|contended|faulty[,k=v,...])");
                    std::process::exit(2);
                });
                option_words.push(format!("fabric={spec}"));
            }
            "--mc" => {
                mc_spec = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--mc requires a config (e.g. proto=hlrc,prog=lock,faults=1)");
                    std::process::exit(2);
                }))
            }
            _ => words.push(a),
        }
    }
    if let Some(spec) = mc_spec {
        run_mc(&spec, json);
    }
    words.extend(option_words);
    let mut run = RunSpec::parse_words(words.iter().map(String::as_str))
        .unwrap_or_else(|e| bad_arg("diag", e));
    let trace = trace_env().unwrap_or_else(|e| bad_arg("diag", e));
    let program = run.program().unwrap_or_else(|e| bad_arg("diag", e));
    let decisions: Vec<RegionDecision> = if adaptive {
        run.adapt(&program).decisions
    } else {
        Vec::new()
    };
    let mut cfg = run.to_config();
    cfg.obs.trace = trace;
    if trace_path.is_some() {
        cfg = cfg.with_recording();
    }
    if let Some(ns) = series_ns {
        cfg = cfg.with_series(ns);
    }
    let r = run_experiment(&cfg, program);

    // Critical-path extraction happens up front so a broken attribution
    // (non-exact sum, or a spans-on run yielding no spans) fails loudly in
    // both output modes.
    let cp = if run.spans {
        let cp = critical_path(&r.obs, r.stats.parallel_time_ns).unwrap_or_else(|| {
            eprintln!("--critpath: run produced no span events");
            std::process::exit(1);
        });
        if !cp.is_exact() {
            eprintln!(
                "--critpath: attribution {}ns does not match parallel time {}ns",
                cp.attributed_ns(),
                cp.parallel_time_ns
            );
            std::process::exit(1);
        }
        Some(cp)
    } else {
        None
    };

    if let Some(path) = &trace_path {
        std::fs::write(path, chrome_trace(&r.obs)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote Perfetto trace to {path}");
    }

    let name = &run.app.name;
    if json {
        println!("{}", config_record(name, adaptive, &r));
        for reg in &r.regions {
            let d = decisions.iter().find(|d| d.profile.name == reg.name);
            println!("{}", region_record(reg, d));
        }
        for v in &r.violations {
            println!("{}", check_record(v));
        }
        print!("{}", jsonl_metrics(&r.obs, &r.stats));
        if let Some(cp) = &cp {
            println!("{}", cp.to_json(10));
        }
        if series_ns.is_some() {
            print!("{}", series_jsonl(&r.obs));
        }
        if !r.violations.is_empty() || r.check.is_err() {
            std::process::exit(1);
        }
        return;
    }

    let t = r.stats.totals();
    let par = r.stats.parallel_time_ns as f64 / 1e6;
    let seq = r.stats.sequential_time_ns as f64 / 1e6;
    let mode = if adaptive {
        format!(
            "adaptive (uniform fallback {}@{})",
            cfg.protocol.name(),
            cfg.block_size
        )
    } else {
        format!("{:?}@{}", run.protocol, run.block)
    };
    println!("run: {run}");
    println!(
        "{name} {mode}: speedup {:.2} (seq {seq:.1}ms par {par:.1}ms) check={:?}",
        r.speedup(),
        r.check.is_ok()
    );
    if let Err(e) = &r.check {
        println!("  verify: {e}");
    }
    if cfg.check {
        if r.violations.is_empty() {
            println!("  checker: clean (race detector + protocol invariants)");
        } else {
            println!("  checker: {} violation(s)", r.violations.len());
            for v in &r.violations {
                println!("    {v}");
            }
        }
    }
    println!(
        "  faults: r={} w={} local_w={} inval={} fetch_served={}",
        t.read_faults, t.write_faults, t.local_write_faults, t.invalidations, t.fetches_served
    );
    println!(
        "  msgs={} ctrl={}KB data={}KB diffs={} notices={}",
        t.msgs_sent,
        t.ctrl_bytes / 1024,
        t.data_bytes / 1024,
        t.diffs_created,
        t.write_notices_sent
    );
    if !cfg.fabric.is_ideal() {
        println!(
            "  fabric: frames={} retries={} exhausted={} drops={} dups={} dup_drops={} \
             acks={} queue={:.2}ms",
            t.fabric_frames,
            t.fabric_retries,
            t.fabric_exhausted,
            t.fabric_drops,
            t.fabric_dups,
            t.fabric_dup_drops,
            t.fabric_acks,
            t.fabric_queue_ns as f64 / 1e6
        );
    }
    print_regions(&r, &decisions);
    if let Some(cp) = &cp {
        println!(
            "  critical path: {} segments over {} span events (parallel {:.1}ms, \
             speedup bound {:.2}{})",
            cp.segments.len(),
            cp.span_events,
            cp.parallel_time_ns as f64 / 1e6,
            cp.speedup_bound(),
            if cp.truncated { ", TRUNCATED" } else { "" }
        );
        for (name, ns) in dsm_obs::Category::NAMES.iter().zip(cp.by_category.iter()) {
            if *ns > 0 {
                println!(
                    "    {:<16} {:>9.2}ms ({:>5.1}%)",
                    name,
                    *ns as f64 / 1e6,
                    100.0 * *ns as f64 / cp.parallel_time_ns.max(1) as f64
                );
            }
        }
        for seg in cp.top_segments(5) {
            println!(
                "    top: node {} [{}..{}] {} {:.2}ms ({})",
                seg.node,
                seg.start,
                seg.end,
                seg.category.name(),
                seg.dur() as f64 / 1e6,
                seg.label
            );
        }
    }
    if let Some(sr) = &r.obs.series {
        let windows: usize = sr
            .nodes
            .iter()
            .map(|n| n.buckets.iter().filter(|b| !b.is_empty()).count())
            .sum();
        println!(
            "  series: {} non-empty windows across {} nodes at {}us \
             (use --json for the records)",
            windows,
            sr.nodes.len(),
            sr.window_ns / 1_000
        );
    }
    // Average the paper-style breakdown over the cluster.
    let nodes = r.stats.per_node.len().max(1);
    let wall: u64 = r.obs.nodes.iter().map(|n| n.wall_ns()).sum::<u64>() / nodes as u64;
    let b = TimeBreakdown::from_counters(&t, wall * nodes as u64);
    let ms = |v: u64| v as f64 / (nodes as f64 * 1e6);
    println!(
        "  per-node avg (ms): compute={:.1} poll={:.1} rstall={:.1} wstall={:.1} \
         lock={:.1} barrier={:.1} proto={:.1} occupancy={:.1}",
        ms(b.compute_ns),
        ms(b.poll_overhead_ns),
        ms(b.read_stall_ns),
        ms(b.write_stall_ns),
        ms(b.lock_wait_ns),
        ms(b.barrier_wait_ns),
        ms(b.proto_local_ns),
        ms(b.occupancy_stolen_ns)
    );
    if !r.violations.is_empty() || r.check.is_err() {
        std::process::exit(1);
    }
}
