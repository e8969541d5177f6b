//! `dsm-perf`: command line of the repository's benchmark. The catalogue
//! of workloads and metrics, and how to read the output, is in
//! `perf/README.md`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dsm_apps::AppSize;
use dsm_perf::catalogue::{self, MetricDef, ONE_NODE_CELLS};
use dsm_perf::golden::{self, Golden};
use dsm_perf::host::{self, CpuTimer};
use dsm_perf::probes::{self, Values};
use dsm_perf::span::{unattributed_frac, Span, Tracer};
use dsm_perf::stats::{ratio, summarize, Summary};
use dsm_perf::workloads::{
    build, cell_key, proto_key, run_pass, Body, Counts, Op, PassOutcome, NAMES,
};

const USAGE: &str = "usage: dsm-perf run <workload> [--seed S] | all | trace | repeat | bless
       dsm-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
workloads: fig1-slice kv-msg scenario-mix mc-explore";

/// Set-up (build inputs + one untimed pass) repeats until this much host
/// time has gone into it, so a short set-up is sampled several times and
/// a long one once.
const SETUP_BUDGET_S: f64 = 4.0;

/// How long `run` measures; `BENCHMARK.json` passes the same to the
/// driver's runs.
const RUN_SECONDS: f64 = 10.0;

/// Operations attempted and the ones that failed, by name and reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: Vec<String>,
}

impl Tally {
    fn pass(&mut self, workload: &str, pass: &PassOutcome) {
        self.attempted += pass.ops.len() as u64;
        for (op, why) in pass.failures() {
            self.failed.push(format!("{workload}/{op}: {why}"));
        }
    }

    fn print(&self) {
        for f in &self.failed {
            println!("FAILED {f}");
        }
        let failed = self.failed.len() as u64;
        let frac = ratio(failed as f64, self.attempted as f64);
        // failed_frac is the sixth end-to-end metric; the driver reads it
        // from the result line's `attempted` and `failed`.
        println!(
            "e2e    {:<18} {:<6} {:>4} {frac:>16.6} {frac:>16.6} {frac:>16.6} {frac:>16.6}",
            "failed_frac", "ratio", self.attempted
        );
    }
}

/// Golden digests apply at the default seed only: any other seed reshapes
/// `kv-msg` and `scenario-mix`.
fn golden_for(seed: u64) -> Result<Golden, String> {
    if seed == 1 {
        golden::committed()
    } else {
        Ok(Golden::new())
    }
}

struct Measured {
    e2e: BTreeMap<String, Summary>,
    /// CPU seconds ÷ wall-clock seconds over the timed passes: 1 on a
    /// dedicated host, less when something took the CPU away.
    cpu_share: f64,
    counts: Counts,
    digests: Vec<(String, u64)>,
    tally: Tally,
}

/// One untraced run of one workload: set-up, then timed passes for
/// `seconds`.
fn measure(workload: &'static str, seed: u64, seconds: f64) -> Result<Measured, String> {
    let golden = golden_for(seed)?;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let ops = loop {
        let t0 = CpuTimer::start();
        let ops = build(workload, seed, AppSize::Standard, None)?;
        tally.pass(workload, &run_pass(workload, &ops, &golden, None));
        setups.push(t0.secs());
        if setup_start.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break ops;
        }
    };
    let mut passes: Vec<PassOutcome> = Vec::new();
    let timed = Instant::now();
    while passes.is_empty() || timed.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(workload, &ops, &golden, None));
    }
    for pass in &passes {
        tally.pass(workload, pass);
        if pass.counts != passes[0].counts {
            tally
                .failed
                .push(format!("{workload}: counts differ between passes"));
        }
    }
    let per_pass = |f: &dyn Fn(&PassOutcome) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let mut e2e = BTreeMap::new();
    e2e.insert("cpu_s".to_string(), summarize(&per_pass(&|p| p.cpu_s)));
    e2e.insert(
        "events_per_s".to_string(),
        summarize(&per_pass(&|p| {
            ratio(p.counts.events_or_states() as f64, p.cpu_s)
        })),
    );
    e2e.insert(
        "executions_per_s".to_string(),
        summarize(&per_pass(&|p| ratio(p.executions as f64, p.cpu_s))),
    );
    e2e.insert("setup_s".to_string(), summarize(&setups));
    e2e.insert(
        "peak_rss_mb".to_string(),
        summarize(&[host::peak_rss_mb()?]),
    );
    let total = |f: &dyn Fn(&PassOutcome) -> f64| -> f64 { passes.iter().map(f).sum() };
    Ok(Measured {
        e2e,
        cpu_share: ratio(total(&|p| p.cpu_s), total(&|p| p.wall_s)),
        counts: passes[0].counts.clone(),
        digests: passes[0]
            .ops
            .iter()
            .map(|(name, o)| (name.clone(), o.digest))
            .collect(),
        tally,
    })
}

/// `run`: measure one workload, print every end-to-end metric by name, the
/// exact counts and the digests. Rows are whitespace-separated so `repeat`
/// can read them back.
fn cmd_run(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    contract: bool,
) -> Result<bool, String> {
    let m = measure(workload, seed, seconds)?;
    println!("run workload={workload} seed={seed} seconds={seconds}");
    println!(
        "       {:<18} {:<6} {:>4} {:>16} {:>16} {:>16} {:>16}",
        "metric", "unit", "n", "value", "median", "q1", "q3"
    );
    let defs = catalogue::end_to_end();
    for d in &defs {
        let s = &m.e2e[&d.name];
        println!(
            "e2e    {:<18} {:<6} {:>4} {:>16.6} {:>16.6} {:>16.6} {:>16.6}",
            d.name,
            d.unit,
            s.n,
            catalogue::reported(d, s),
            s.median,
            s.q1,
            s.q3
        );
    }
    m.tally.print();
    println!("info   cpu_share          {:.4}", m.cpu_share);
    for (name, v) in m.counts.metrics() {
        println!("count  {name:<24} {v}");
    }
    for (op, d) in &m.digests {
        println!("digest {workload}/{op} {d:016x}");
    }
    if contract {
        let values = defs
            .iter()
            .map(|d| (d.name.clone(), catalogue::reported(d, &m.e2e[&d.name])))
            .collect();
        println!(
            "{}",
            catalogue::result_line(
                m.tally.attempted,
                m.tally.failed.len() as u64,
                &defs,
                &values
            )
        );
    }
    Ok(m.tally.failed.is_empty())
}

/// Sum of the durations of the spans named `name` among `spans` — of
/// operation `op` only, when one is given.
fn secs_of(spans: &[Span], name: &str, op: Option<&str>) -> f64 {
    // Not `sum()`: an empty f64 sum is -0.0, which prints as "-0".
    spans
        .iter()
        .filter(|s| s.name == name && op.is_none_or(|op| s.op == op))
        .fold(0.0, |acc, s| acc + s.secs())
}

struct Traced {
    /// Workload → its scoped per-layer metrics.
    scoped: BTreeMap<&'static str, Values>,
    /// Per-layer metrics that belong to no one workload.
    global: Values,
    tally: Tally,
}

/// The traced run. Every workload runs one traced pass — its operations
/// feed the per-cell, per-plan and per-protocol metrics. A workload in
/// `scope` also gets a warm-up pass and an untraced pass before it, and
/// its scoped metrics (counts, the three `run_experiment` calls, tracing
/// overhead) are the ones reported.
fn trace(scope: &[&'static str], seed: u64, allowed: &[usize]) -> Result<Traced, String> {
    let golden = golden_for(seed)?;
    let mut t = Tracer::new();
    let mut out = Traced {
        scoped: BTreeMap::new(),
        global: Values::new(),
        tally: Tally::default(),
    };
    // Cell key → (program, configuration, ns/event at 16 nodes).
    let mut cells: BTreeMap<String, (dsm_core::Program, dsm_core::RunConfig, f64)> =
        BTreeMap::new();
    let (mut mc_secs, mut mc_execs) = (BTreeMap::new(), BTreeMap::new());
    for w in NAMES {
        let in_scope = scope.contains(&w);
        t.workload = w;
        let lo = t.spans.len();
        let setup = t.enter("setup", "");
        let ops: Vec<Op> = build(w, seed, AppSize::Standard, Some(&mut t))?;
        if in_scope {
            let id = t.enter("warmup-pass", "");
            out.tally.pass(w, &run_pass(w, &ops, &golden, None));
            t.exit(id);
        }
        t.exit(setup);
        let build_s = secs_of(&t.spans[lo..], "apps.build", None);
        let mut untraced_s = 0.0;
        if in_scope {
            let id = t.enter("untraced-pass", "");
            let pass = run_pass(w, &ops, &golden, None);
            t.exit(id);
            untraced_s = pass.cpu_s;
            out.tally.pass(w, &pass);
        }
        let lo = t.spans.len();
        let pass = run_pass(w, &ops, &golden, Some(&mut t));
        out.tally.pass(w, &pass);
        let spans = &t.spans[lo..];

        let mut v: Values = pass
            .counts
            .metrics()
            .into_iter()
            .map(|(k, x)| (k.to_string(), x))
            .collect();
        let seq_s = secs_of(spans, "core.run_sequential", None);
        let par_s = secs_of(spans, "core.run_parallel", None);
        let engine_s = par_s + secs_of(spans, "scenario.run", None);
        v.insert("apps.build_s".to_string(), build_s);
        v.insert("core.seq_s".to_string(), seq_s);
        v.insert("core.par_s".to_string(), par_s);
        v.insert(
            "core.verify_s".to_string(),
            secs_of(spans, "core.check", None),
        );
        v.insert("apps.arith_share".to_string(), ratio(seq_s, par_s));
        v.insert(
            "core.ns_per_event".to_string(),
            ratio(engine_s * 1e9, pass.counts.events() as f64),
        );
        v.insert(
            "trace.overhead_ratio".to_string(),
            ratio(pass.cpu_s, untraced_s),
        );
        v.insert(
            "trace.unattributed_frac".to_string(),
            unattributed_frac(&t.spans, pass.span.expect("traced pass has a span")),
        );
        out.scoped.insert(w, v);

        if w == "scenario-mix" {
            out.global.insert(
                "scenario.parse_us".to_string(),
                secs_of(spans, "scenario.parse", None) * 1e6,
            );
            out.global.insert(
                "scenario.jsonl_us".to_string(),
                secs_of(spans, "scenario.jsonl", None) * 1e6,
            );
        }
        for (op, (name, o)) in ops.iter().zip(&pass.ops) {
            let layer_s = |layer: &str| secs_of(spans, layer, Some(name));
            match &op.body {
                Body::Cell { program, cfg } => {
                    let ns = ratio(layer_s("core.run_parallel") * 1e9, o.counts.events() as f64);
                    out.global.insert(format!("cell.{name}.ns_per_event"), ns);
                    cells.insert(name.clone(), (program.clone(), cfg.clone(), ns));
                }
                Body::Scenario { .. } => {
                    out.global.insert(
                        format!("scenario.rep_ms.{name}"),
                        ratio(layer_s("scenario.run") * 1e3, o.executions as f64),
                    );
                }
                Body::Mc { cfg, .. } => {
                    let p = proto_key(cfg.protocol);
                    *mc_secs.entry(p.clone()).or_insert(0.0) += layer_s("mc.explore");
                    *mc_execs.entry(p).or_insert(0.0) += o.executions as f64;
                }
            }
        }
    }
    for (p, secs) in &mc_secs {
        out.global
            .insert(format!("mc.exec_us.{p}"), ratio(secs * 1e6, mc_execs[p]));
    }

    t.workload = "probes";
    let id = t.enter("probe.one_node", "");
    for (app, p, b) in ONE_NODE_CELLS {
        let key = cell_key(app, p, b);
        let (program, cfg, ns_16n) = cells.get(&key).ok_or(format!("no cell {key}"))?;
        probes::one_node(&key, program, cfg, *ns_16n, &mut out.global);
    }
    probes::access_path(&mut out.global)?;
    t.exit(id);

    let id = t.enter("probe.unpinned", "");
    probes::unpinned(allowed, &mut out.global)?;
    t.exit(id);

    let id = t.enter("probe.hooks_ab", "");
    out.tally.attempted += 1;
    let violations = probes::hooks_ab(&mut out.global)?;
    if violations > 0 {
        out.tally.failed.push(format!(
            "probes/hooks_ab: {violations} checker violation(s)"
        ));
    }
    t.exit(id);

    let id = t.enter("probe.micro", "");
    probes::micro(&mut out.global);
    t.exit(id);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("trace.jsonl"), t.jsonl()))
        .map_err(|e| format!("writing {}: {e}", dir.display()))?;
    println!(
        "trace: {} spans written to {}",
        t.spans.len(),
        dir.join("trace.jsonl").display()
    );
    Ok(out)
}

/// `trace`, and the driver's `--trace 1`: run the traced run over `scope`
/// and print every per-layer metric by name, one row per workload for the
/// scoped ones.
fn cmd_trace(
    scope: &[&'static str],
    seed: u64,
    allowed: &[usize],
    contract: bool,
) -> Result<bool, String> {
    let tr = trace(scope, seed, allowed)?;
    let defs = catalogue::per_layer();
    println!(
        "       {:<44} {:<6} {:<13} value",
        "metric", "unit", "workload"
    );
    for d in &defs {
        match tr.global.get(&d.name) {
            Some(v) => println!("layer  {:<44} {:<6} {:<13} {v:.6}", d.name, d.unit, "-"),
            None => {
                for w in scope {
                    let v = tr.scoped[w]
                        .get(&d.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                    println!("layer  {:<44} {:<6} {w:<13} {v:.6}", d.name, d.unit);
                }
            }
        }
    }
    tr.tally.print();
    if contract {
        let mut values = tr.global.clone();
        values.extend(tr.scoped[scope[0]].clone());
        println!(
            "{}",
            catalogue::result_line(
                tr.tally.attempted,
                tr.tally.failed.len() as u64,
                &defs,
                &values
            )
        );
    }
    Ok(tr.tally.failed.is_empty())
}

/// `bless`: rewrite `perf/golden.json` from one pass of every workload at
/// seed 1. Refuses when an operation fails its own checks.
fn cmd_bless() -> Result<bool, String> {
    let mut table = Golden::new();
    for w in NAMES {
        let ops = build(w, 1, AppSize::Standard, None)?;
        let pass = run_pass(w, &ops, &Golden::new(), None);
        if let Some((op, why)) = pass.failures().next() {
            return Err(format!("{w}/{op} failed, nothing written: {why}"));
        }
        for (op, o) in &pass.ops {
            table.insert(format!("{w}/{op}"), o.digest);
        }
    }
    std::fs::write(golden::path(), golden::render(&table)).map_err(|e| e.to_string())?;
    println!(
        "bless: {} digests written to {}",
        table.len(),
        golden::path().display()
    );
    Ok(true)
}

/// Run this binary again with `args`, echo what it prints, and return its
/// standard output and whether it exited zero.
fn child(args: &[&str]) -> Result<(String, bool), String> {
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning dsm-perf {args:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{text}");
    Ok((text, out.status.success()))
}

/// `all`: each workload in a fresh process, then the traced run.
fn cmd_all() -> Result<bool, String> {
    let mut ok = true;
    for w in NAMES {
        ok &= child(&["run", w])?.1;
    }
    ok &= child(&["trace"])?.1;
    Ok(ok)
}

/// The rows of one `run`, read back: each end-to-end metric's reported
/// value and summary, and the count and digest rows verbatim.
#[derive(Default)]
struct RunRows {
    e2e: BTreeMap<String, (f64, Summary)>,
    exact: Vec<String>,
}

fn parse_rows(text: &str) -> RunRows {
    let mut rows = RunRows::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["e2e", name, _unit, n, value, median, q1, q3] => {
                let num = |s: &str| s.parse::<f64>().unwrap_or(f64::NAN);
                let summary = Summary {
                    n: n.parse().unwrap_or(0),
                    median: num(median),
                    q1: num(q1),
                    q3: num(q3),
                };
                rows.e2e.insert(name.to_string(), (num(value), summary));
            }
            ["count" | "digest", ..] => rows.exact.push(line.to_string()),
            _ => {}
        }
    }
    rows
}

/// `repeat`: two sets of runs of the same code, A and B, interleaved
/// workload by workload. Every end-to-end metric's two medians must agree
/// within its bound and every count and digest must be identical.
fn cmd_repeat() -> Result<bool, String> {
    let mut defs = catalogue::end_to_end();
    defs.push(MetricDef {
        name: "failed_frac".to_string(),
        unit: "ratio",
        better: "lower",
        bound: Some(0.0),
    });
    let mut ok = true;
    let mut report = Vec::new();
    for w in NAMES {
        let (a_text, a_ok) = child(&["run", w])?;
        let (b_text, b_ok) = child(&["run", w])?;
        let (a, b) = (parse_rows(&a_text), parse_rows(&b_text));
        ok &= a_ok && b_ok;
        if a.exact != b.exact {
            ok = false;
            report.push(format!("{w}: counts or digests differ between A and B"));
        }
        for d in &defs {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let ((va, sa), (vb, sb)) = match (a.e2e.get(&d.name), b.e2e.get(&d.name)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{w}: run printed no {} row", d.name)),
            };
            // Positive = B worse than A.
            let sign = if d.better == "lower" { 1.0 } else { -1.0 };
            let diff = sign * ratio(vb - va, *va);
            let verdict = if sa.spread().max(sb.spread()) > bound {
                "unresolved"
            } else if diff.abs() > bound || !diff.is_finite() {
                "differs"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            report.push(format!(
                "repeat {w:<13} {:<18} A={va:<14.6} B={vb:<14.6} diff={diff:+.4} bound={bound:.2} {verdict}",
                d.name
            ));
        }
    }
    for line in &report {
        println!("{line}");
    }
    Ok(ok)
}

fn workload_named(name: &str) -> Result<&'static str, String> {
    NAMES
        .into_iter()
        .find(|w| *w == name)
        .ok_or(format!("unknown workload {name}\n{USAGE}"))
}

/// What the command line asks for.
enum Cmd {
    Run {
        workload: &'static str,
        seed: u64,
        seconds: f64,
        contract: bool,
    },
    Trace {
        scope: Vec<&'static str>,
        seed: u64,
        contract: bool,
    },
    Bless,
    All,
    Repeat,
    /// The unpinned side of `sim.unpinned_ratio`, spawned by the traced
    /// run with the CPUs it was allowed before it pinned itself.
    ProbeUnpinned(Vec<usize>),
}

/// The driver's form: `--workload W --seed N --seconds S --trace 0|1`, in
/// any order, each exactly once.
fn parse_contract(args: &[String]) -> Result<Cmd, String> {
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => flags.insert(k.as_str(), v.as_str()),
            _ => return Err(USAGE.to_string()),
        };
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}\n{USAGE}"));
    let workload = workload_named(get("--workload")?)?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed: not a number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    if flags.len() != 4 || !(seconds > 0.0 && seconds <= 60.0) {
        return Err(USAGE.to_string());
    }
    match get("--trace")? {
        "0" => Ok(Cmd::Run {
            workload,
            seed,
            seconds,
            contract: true,
        }),
        "1" => Ok(Cmd::Trace {
            scope: vec![workload],
            seed,
            contract: true,
        }),
        _ => Err("--trace: 0 or 1".to_string()),
    }
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = |w: &str, seed: &str| -> Result<Cmd, String> {
        Ok(Cmd::Run {
            workload: workload_named(w)?,
            seed: seed.parse().map_err(|_| "--seed: not a number")?,
            seconds: RUN_SECONDS,
            contract: false,
        })
    };
    match strs.as_slice() {
        ["run", w] => run(w, "1"),
        ["run", w, "--seed", s] => run(w, s),
        ["trace"] => Ok(Cmd::Trace {
            scope: NAMES.to_vec(),
            seed: 1,
            contract: false,
        }),
        ["bless"] => Ok(Cmd::Bless),
        ["all"] => Ok(Cmd::All),
        ["repeat"] => Ok(Cmd::Repeat),
        ["probe-unpinned", cpus] => cpus
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map(Cmd::ProbeUnpinned)
            .map_err(|_| USAGE.to_string()),
        [first, ..] if first.starts_with("--") => parse_contract(args),
        _ => Err(USAGE.to_string()),
    }
}

/// What every measuring command does first: clean the environment, pin to
/// one CPU, print the header record. Returns the CPUs allowed before
/// pinning. `all`, `repeat` and the unpinned probe must not come here, or
/// their children would see one allowed CPU.
fn prepare() -> Result<Vec<usize>, String> {
    let cleared = host::scrub_env();
    let (allowed, cpu) = host::pin_to_one_cpu().map_err(|e| format!("cannot pin: {e}"))?;
    println!("{}", host::header(allowed.len(), cpu, &cleared));
    Ok(allowed)
}

fn dispatch(cmd: Cmd) -> Result<bool, String> {
    match cmd {
        Cmd::All => cmd_all(),
        Cmd::Repeat => cmd_repeat(),
        Cmd::ProbeUnpinned(cpus) => {
            host::scrub_env();
            host::set_affinity(&cpus)?;
            println!("{}", probes::unpinned_cell_secs()?);
            Ok(true)
        }
        Cmd::Run {
            workload,
            seed,
            seconds,
            contract,
        } => {
            prepare()?;
            cmd_run(workload, seed, seconds, contract)
        }
        Cmd::Trace {
            scope,
            seed,
            contract,
        } => {
            let allowed = prepare()?;
            cmd_trace(&scope, seed, &allowed, contract)
        }
        Cmd::Bless => {
            prepare()?;
            cmd_bless()
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("dsm-perf: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dsm-perf: {e}");
            ExitCode::from(2)
        }
    }
}
