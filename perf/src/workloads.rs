//! The four workloads: what one pass runs and how each operation is judged.
//!
//! Every workload is a closed loop with one client: the next operation
//! starts when the previous one returns. An operation is one Figure-1 cell
//! (`run_experiment`), one scenario plan (parse + run + JSONL) or one
//! model-checker exploration.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dsm_apps::{app_sized, AppSize};
use dsm_core::{run_experiment, run_parallel, run_sequential, Program};
use dsm_core::{Protocol, RunConfig, RunStats};
use dsm_mc::program::{lock_counter, lock_pingpong, MicroProgram};
use dsm_mc::{explore, McConfig};
use dsm_scenario::{run_scenario, AppSpec, ScenarioSpec, SeedSeq};

use crate::golden::{Digest, Golden};
use crate::host::CpuTimer;
use crate::span::{leaf, Tracer};
use crate::stats::ratio;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 4] = ["fig1-slice", "kv-msg", "scenario-mix", "mc-explore"];

/// The Figure-1 slice: each protocol twice, each granularity twice.
pub const FIG1_CELLS: [(&str, Protocol, usize); 8] = [
    ("lu", Protocol::Hlrc, 4096),
    ("lu", Protocol::Sc, 1024),
    ("fft", Protocol::Sc, 64),
    ("fft", Protocol::Tardis, 256),
    ("water-nsquared", Protocol::Hlrc, 64),
    ("ocean-rowwise", Protocol::SwLrc, 4096),
    ("water-spatial", Protocol::Tardis, 1024),
    ("raytrace", Protocol::SwLrc, 256),
];

/// `kv-msg` runs kv-zipf at this granularity under every protocol.
pub const KV_BLOCK: usize = 1024;

/// Frozen copies of the six bundled plans (`scenarios/` may change; the
/// benchmark's inputs may not).
pub const PLANS: [(&str, &str); 6] = [
    ("drf-chaos", include_str!("../workloads/drf-chaos.json")),
    (
        "kv-hot-migration",
        include_str!("../workloads/kv-hot-migration.json"),
    ),
    (
        "kv-mixed-regions",
        include_str!("../workloads/kv-mixed-regions.json"),
    ),
    ("lu-baseline", include_str!("../workloads/lu-baseline.json")),
    (
        "pagerank-adaptive",
        include_str!("../workloads/pagerank-adaptive.json"),
    ),
    (
        "tardis-lease-churn",
        include_str!("../workloads/tardis-lease-churn.json"),
    ),
];

/// Lower-case protocol name as used in metric and operation names.
pub fn proto_key(p: Protocol) -> String {
    p.name().to_lowercase()
}

/// `<app>.<protocol>.<block>`: the name of a cell operation and the middle
/// of its `cell.*.ns_per_event` metric.
pub fn cell_key(app: &str, p: Protocol, block: usize) -> String {
    format!("{app}.{}.{block}", proto_key(p))
}

/// What an operation runs.
// A workload holds at most eight of these: the size of the largest is moot.
#[allow(clippy::large_enum_variant)]
pub enum Body {
    /// One protocol × granularity cell of a program.
    Cell {
        /// The program, built once at set-up.
        program: Program,
        /// Its configuration.
        cfg: RunConfig,
    },
    /// One scenario plan, from its JSON text.
    Scenario {
        /// The plan document.
        text: &'static str,
        /// Added to every seed of the plan.
        seed: u64,
    },
    /// One exhaustive exploration.
    Mc {
        /// Protocol and fault budget.
        cfg: McConfig,
        /// The micro-program explored.
        prog: MicroProgram,
    },
}

/// One named operation of a workload.
pub struct Op {
    /// Name, unique within the workload.
    pub name: String,
    /// What it runs.
    pub body: Body,
}

/// The exact counts, in [`Counts`] order. A change to the simulator's
/// speed must leave every one of them equal.
pub const COUNT_NAMES: [&str; 18] = [
    "sim.events",
    "proto.msgs",
    "proto.data_bytes",
    "proto.ctrl_bytes",
    "proto.read_faults",
    "proto.write_faults",
    "proto.invalidations",
    "proto.twins_created",
    "proto.diffs_created",
    "proto.diff_bytes",
    "proto.lock_acquires",
    "proto.barriers",
    "fabric.frames",
    "fabric.retries",
    "check.violations",
    "mc.executions",
    "mc.schedules",
    "mc.states",
];
const EVENTS: usize = 0;
const MSGS: usize = 1;
const VIOLATIONS: usize = 14;
const MC_EXECUTIONS: usize = 15;
const MC_SCHEDULES: usize = 16;
const MC_STATES: usize = 17;

/// Exact work counts of an operation, a pass or a workload, indexed as
/// [`COUNT_NAMES`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts(pub [u64; 18]);

impl Counts {
    fn add_stats(&mut self, s: &RunStats) {
        let t = s.totals();
        self.add(&Counts([
            s.sim_events,
            t.msgs_sent,
            t.data_bytes,
            t.ctrl_bytes,
            t.read_faults,
            t.write_faults,
            t.invalidations,
            t.twins_created,
            t.diffs_created,
            t.diff_bytes,
            t.lock_acquires,
            t.barriers,
            t.fabric_frames,
            t.fabric_retries,
            0,
            0,
            0,
            0,
        ]));
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }

    /// Simulator events committed.
    pub fn events(&self) -> u64 {
        self.0[EVENTS]
    }

    /// The numerator of `events_per_s`: simulator events committed, or —
    /// for the model checker, whose report carries none — commit points
    /// expanded. One of the two is always 0.
    pub fn events_or_states(&self) -> u64 {
        self.0[EVENTS] + self.0[MC_STATES]
    }

    /// The count metrics by name: the exact counts, then the two shares
    /// derived from them.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let c = |i: usize| self.0[i] as f64;
        let mut m: Vec<_> = COUNT_NAMES
            .iter()
            .copied()
            .zip(self.0.map(|x| x as f64))
            .collect();
        m.push(("sim.nonmsg_frac", ratio(c(EVENTS) - c(MSGS), c(EVENTS))));
        m.push(("mc.useful_frac", ratio(c(MC_SCHEDULES), c(MC_EXECUTIONS))));
        m
    }
}

/// Build a workload's operations from the seed. `size` is `Standard`
/// everywhere but the smoke tests. With a tracer, each program
/// construction is recorded as an `apps.build` span.
///
/// The seed reshapes `kv-msg` (the program's op stream) and `scenario-mix`
/// (added to every plan's seeds). The Figure-1 kernels are fixed problems
/// and the model checker is exhaustive: they ignore it.
pub fn build(
    workload: &str,
    seed: u64,
    size: AppSize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Op>, String> {
    let mut built = |what: &str, make: &dyn Fn() -> Result<Program, String>| {
        leaf(&mut tracer, "apps.build", what, make)
    };
    match workload {
        "fig1-slice" => FIG1_CELLS
            .iter()
            .map(|&(app, p, block)| {
                let program = built(app, &|| {
                    app_sized(app, size).ok_or_else(|| format!("unknown app {app}"))
                })?;
                Ok(Op {
                    name: cell_key(app, p, block),
                    body: Body::Cell {
                        program,
                        cfg: RunConfig::new(p, block),
                    },
                })
            })
            .collect(),
        "kv-msg" => {
            let spec = AppSpec {
                name: "kv-zipf".to_string(),
                size,
                params: Vec::new(),
            };
            let program = built("kv-zipf", &|| spec.build(seed))?;
            Ok(Protocol::ALL
                .iter()
                .map(|&p| Op {
                    name: cell_key("kv-zipf", p, KV_BLOCK),
                    body: Body::Cell {
                        program: Arc::clone(&program),
                        cfg: RunConfig::new(p, KV_BLOCK),
                    },
                })
                .collect())
        }
        "scenario-mix" => Ok(PLANS
            .iter()
            .map(|&(name, text)| Op {
                name: name.to_string(),
                body: Body::Scenario { text, seed },
            })
            .collect()),
        "mc-explore" => {
            // Small: the same shapes cut to a few dozen executions.
            let (rounds, pp_faults, nodes, lc_rounds, lc_faults) = match size {
                AppSize::Standard => (2, 2, 3, 2, 1),
                AppSize::Small => (1, 1, 2, 1, 0),
            };
            let pingpong = Protocol::ALL.iter().map(|&p| Op {
                name: format!("lock-pingpong.{}", proto_key(p)),
                body: Body::Mc {
                    cfg: McConfig::new(p).with_faults(pp_faults),
                    prog: lock_pingpong(rounds),
                },
            });
            let counter = [Protocol::Sc, Protocol::SwLrc, Protocol::Hlrc]
                .iter()
                .map(|&p| Op {
                    name: format!("lock-counter.{}", proto_key(p)),
                    body: Body::Mc {
                        cfg: McConfig::new(p).with_faults(lc_faults),
                        prog: lock_counter(nodes, lc_rounds),
                    },
                });
            Ok(pingpong.chain(counter).collect())
        }
        other => Err(format!(
            "unknown workload {other} (one of {})",
            NAMES.join(", ")
        )),
    }
}

/// What one operation produced.
#[derive(Debug, Default, Clone)]
pub struct OpOutcome {
    /// Engine executions completed: 1 for a cell, the repetitions of a
    /// plan, the executions of an exploration.
    pub executions: u64,
    /// Exact work counts.
    pub counts: Counts,
    /// Digest of the modeled result.
    pub digest: u64,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

fn shift_seeds(seeds: &SeedSeq, by: u64) -> SeedSeq {
    match seeds {
        SeedSeq::Base(b) => SeedSeq::Base(b + by),
        SeedSeq::List(v) => SeedSeq::List(v.iter().map(|s| s + by).collect()),
    }
}

/// Run a cell as the three calls `run_experiment` is made of, each under
/// its own span.
fn traced_experiment(
    cfg: &RunConfig,
    program: &Program,
    op: &str,
    t: &mut Option<&mut Tracer>,
) -> (RunStats, Result<(), String>, usize) {
    let (seq_image, seq_ns) = leaf(t, "core.run_sequential", op, || {
        run_sequential(program.as_ref())
    });
    let mut out = leaf(t, "core.run_parallel", op, || {
        run_parallel(cfg, Arc::clone(program))
    });
    out.stats.sequential_time_ns = seq_ns;
    let check = leaf(t, "core.check", op, || {
        program.check(&seq_image, &out.image)
    });
    (out.stats, check, out.violations.len())
}

fn run_body(op: &Op, tracer: &mut Option<&mut Tracer>) -> Result<OpOutcome, String> {
    let mut out = OpOutcome::default();
    let mut digest = Digest::default();
    match &op.body {
        Body::Cell { program, cfg } => {
            let (stats, check, violations) = match tracer {
                Some(_) => traced_experiment(cfg, program, &op.name, tracer),
                None => {
                    let r = run_experiment(cfg, Arc::clone(program));
                    (r.stats, r.check, r.violations.len())
                }
            };
            out.executions = 1;
            out.counts.add_stats(&stats);
            out.counts.0[VIOLATIONS] = violations as u64;
            digest.push_stats(&stats);
            out.error = check
                .err()
                .or_else(|| (violations > 0).then(|| format!("{violations} checker violation(s)")));
        }
        Body::Scenario { text, seed } => {
            let mut spec = leaf(tracer, "scenario.parse", &op.name, || {
                ScenarioSpec::parse(text)
            })?;
            spec.seeds = shift_seeds(&spec.seeds, *seed);
            let outcome = leaf(tracer, "scenario.run", &op.name, || run_scenario(&spec, 1))?;
            let jsonl = leaf(tracer, "scenario.jsonl", &op.name, || outcome.jsonl());
            out.executions = outcome.reps.len() as u64;
            for rep in &outcome.reps {
                out.counts.add_stats(&rep.stats);
                out.counts.0[VIOLATIONS] += rep.violations as u64;
                digest.push_stats(&rep.stats);
            }
            // Header + one line per repetition + aggregate.
            if jsonl.lines().count() != outcome.reps.len() + 2 {
                out.error = Some("JSONL line count is not reps + 2".to_string());
            } else if !outcome.ok() {
                out.error = Some(
                    outcome
                        .reps
                        .iter()
                        .find_map(|r| {
                            r.check_err
                                .clone()
                                .or_else(|| r.violation_details.first().cloned())
                        })
                        .unwrap_or_else(|| "a repetition failed".to_string()),
                );
            }
        }
        Body::Mc { cfg, prog } => {
            let report = leaf(tracer, "mc.explore", &op.name, || explore(cfg, prog));
            out.executions = report.executions();
            out.counts.0[MC_EXECUTIONS] = report.executions();
            out.counts.0[MC_SCHEDULES] = report.schedules;
            out.counts.0[MC_STATES] = report.states;
            out.counts.0[VIOLATIONS] = report.violation_counts.values().sum();
            for x in [report.schedules, report.executions(), report.states] {
                digest.push(x);
            }
            if !report.complete {
                out.error = Some("exploration did not exhaust the schedule space".to_string());
            } else if !report.clean() {
                out.error = Some(format!("violations: {:?}", report.violation_counts));
            }
        }
    }
    out.digest = digest.0;
    Ok(out)
}

/// Run one operation. A panic inside it is caught and reported as the
/// operation's failure, as is a digest that differs from `golden`'s entry
/// for `key` (no entry: nothing to compare, e.g. at a seed other than 1).
pub fn run_op(op: &Op, key: &str, golden: &Golden, mut tracer: Option<&mut Tracer>) -> OpOutcome {
    let span = tracer.as_mut().map(|t| t.enter("op", &op.name));
    let result = catch_unwind(AssertUnwindSafe(|| run_body(op, &mut tracer)));
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.exit(id);
    }
    let mut out = match result {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => OpOutcome {
            error: Some(e),
            ..OpOutcome::default()
        },
        Err(payload) => OpOutcome {
            error: Some(format!(
                "panic: {}",
                payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)")
            )),
            ..OpOutcome::default()
        },
    };
    if out.error.is_none() {
        if let Some(&want) = golden.get(key) {
            if want != out.digest {
                out.error = Some(format!(
                    "model digest {:016x} differs from golden {want:016x}",
                    out.digest
                ));
            }
        }
    }
    out
}

/// What one pass over a workload's operations produced.
#[derive(Debug, Default, Clone)]
pub struct PassOutcome {
    /// Host CPU seconds for the whole pass: what every metric is made of.
    pub cpu_s: f64,
    /// Wall-clock seconds for the whole pass, for the `cpu_share`
    /// diagnostic only.
    pub wall_s: f64,
    /// Engine executions completed.
    pub executions: u64,
    /// Exact work counts, summed over operations.
    pub counts: Counts,
    /// Every operation's outcome, in operation order.
    pub ops: Vec<(String, OpOutcome)>,
    /// Id of the pass's span, when traced.
    pub span: Option<usize>,
}

impl PassOutcome {
    /// `(operation, reason)` for every failed operation.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &str)> {
        self.ops
            .iter()
            .filter_map(|(name, o)| Some((name.as_str(), o.error.as_deref()?)))
    }
}

/// Run every operation of `workload` once, in order.
pub fn run_pass(
    workload: &'static str,
    ops: &[Op],
    golden: &Golden,
    mut tracer: Option<&mut Tracer>,
) -> PassOutcome {
    let mut pass = PassOutcome::default();
    if let Some(t) = tracer.as_mut() {
        t.workload = workload;
        pass.span = Some(t.enter("pass", ""));
    }
    let (cpu, wall) = (CpuTimer::start(), Instant::now());
    for op in ops {
        let key = format!("{workload}/{}", op.name);
        let out = run_op(op, &key, golden, tracer.as_deref_mut());
        pass.executions += out.executions;
        pass.counts.add(&out.counts);
        pass.ops.push((op.name.clone(), out));
    }
    pass.cpu_s = cpu.secs();
    pass.wall_s = wall.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_mut(), pass.span) {
        t.exit(id);
    }
    pass
}
