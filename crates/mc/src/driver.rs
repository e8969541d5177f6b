//! Replay-based depth-first exploration driver.
//!
//! The engine under a [`dsm_sim::McHook`] is deterministic: a prefix of
//! decisions (scheduler picks + fault-slot picks, in consultation order)
//! uniquely determines the global state. Exploration therefore never
//! snapshots anything — it re-runs the whole simulation from scratch for
//! every execution, replaying the decision prefix positionally and
//! branching at the frontier. An execution is one call of
//! [`dsm_core::run_parallel_mc`]: the micro-program's nodes are `async`
//! bodies on the engine's event loop, on this thread, as an application's
//! are, so abandoning a schedule is `Err(RunError::Pruned)` and the
//! suspended bodies are dropped, and a schedule that deadlocks is
//! `Err(RunError::Deadlock { .. })` — values, not unwinds. Reduction is
//! classic sleep-set DPOR
//! (Godefroid): a sibling already explored from a state is put to sleep in
//! the subtrees of later siblings and woken only by a dependent transition,
//! so two independent transitions are never expanded in both orders. The
//! sleep set a fresh commit point inherits is a function of the frame above
//! it on the stack ([`McCore::push_inherited_sleep`]), computed where the
//! replay reaches the frontier — the replayed commit points carry none.
//! State-hash dedup additionally prunes revisits of states reached with an
//! empty sleep set (those states' full subtrees are explored at first
//! visit; the fingerprint folds in the checker's accumulated state so a
//! pruned prefix can never hide a pending violation).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::rc::Rc;

use dsm_core::{run_parallel_mc, FabricConfig, RunConfig, RunOutcome};
use dsm_fabric::{FaultDecision, FaultOracle};
use dsm_proto::{Mutation, Packet, ProtoWorld, Protocol, Violation};
use dsm_sim::rng::{fold64, StableSet};
use dsm_sim::{McChoice, McChoices, McEvent, McHook, RunError, Time};

use crate::oracle;
use crate::program::{MicroProgram, MicroRunner, TraceEv};

/// Rule id reported when an execution exceeds [`McConfig::max_steps`]
/// commit points (livelock / unbounded execution).
pub const RULE_LIVELOCK: &str = "mc-livelock";
/// Rule id reported when the engine deadlocks (empty event queue with
/// blocked nodes) on some schedule.
pub const RULE_DEADLOCK: &str = "mc-deadlock";

/// Cap on violation *examples* retained in a report (per-rule counts are
/// always exact).
const MAX_VIOLATION_EXAMPLES: usize = 32;

/// Delay applied to a frame by the reorder branch, in ns.
const REORDER_NS: u64 = 200_000;

/// One bounded model-checking job: protocol, cluster shape, fault budget
/// and search options. The cluster size comes from the program. Every
/// execution runs with the checker's mirrors and race detector
/// installed.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Consistency protocol under test.
    pub protocol: Protocol,
    /// Coherence granularity in bytes.
    pub block_size: usize,
    /// Maximum number of injected fabric faults per execution. 0 runs the
    /// ideal analytic fabric with no fault branch points; ≥ 1 runs the
    /// reliable fabric and turns every transmission into a
    /// clean/drop/duplicate/reorder branch until the budget is spent.
    pub fault_budget: u32,
    /// Enable sleep-set partial-order reduction (off = explore every
    /// branch; used to measure the unreduced schedule count).
    pub reduce: bool,
    /// Enable state-fingerprint dedup at empty-sleep commit points.
    pub dedup: bool,
    /// Per-execution bound on commit points; exceeding it reports
    /// [`RULE_LIVELOCK`].
    pub max_steps: u64,
    /// Overall bound on started executions (0 = unlimited — rely on the
    /// search space being finite).
    pub max_schedules: u64,
    /// Deliberate protocol mutation to arm (self-test / kill matrix). The
    /// occurrence seed is pinned via [`Mutation::first_occurrence_seed`] so
    /// the mutation fires at its first eligible site on *every* schedule —
    /// exhaustive kill needs no seed search. An armed search stops at the
    /// first violation: one witness schedule suffices.
    pub mutation: Option<Mutation>,
}

impl McConfig {
    /// Defaults: 256-byte blocks, no faults, DPOR + dedup on.
    pub fn new(protocol: Protocol) -> Self {
        McConfig {
            protocol,
            block_size: 256,
            fault_budget: 0,
            reduce: true,
            dedup: true,
            max_steps: 100_000,
            max_schedules: 0,
            mutation: None,
        }
    }

    /// Same job with a fault budget.
    pub fn with_faults(mut self, budget: u32) -> Self {
        self.fault_budget = budget;
        self
    }

    /// Same job with a mutation armed and early exit on the first kill.
    pub fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutation = Some(m);
        self
    }
}

/// Exploration result: search-space statistics plus every violation found
/// on any explored schedule.
#[derive(Debug, Clone, Default)]
pub struct McReport {
    /// Executions that ran to completion (one full schedule each).
    pub schedules: u64,
    /// Executions abandoned because every co-enabled event was asleep.
    pub pruned_sleep: u64,
    /// Executions abandoned at a previously-visited state fingerprint.
    pub pruned_dedup: u64,
    /// Executions abandoned at the [`McConfig::max_steps`] bound.
    pub pruned_steps: u64,
    /// Branches put to sleep and never descended at all (each is at least
    /// one whole schedule DPOR proved redundant).
    pub branches_skipped: u64,
    /// Distinct commit points expanded (fresh frames pushed).
    pub states: u64,
    /// Fresh commit points that offered more than one co-enabled event.
    pub choice_points: u64,
    /// Deepest decision stack reached.
    pub max_depth: u64,
    /// Schedules that ended in an engine deadlock.
    pub deadlocks: u64,
    /// Violation examples, capped at 32 (see `violation_counts` for exact
    /// totals).
    pub violations: Vec<Violation>,
    /// Exact number of violation occurrences per rule id.
    pub violation_counts: BTreeMap<String, u64>,
    /// What the completed schedules let the program observe: the distinct
    /// [`Outcome`]s among them.
    pub outcomes: BTreeSet<Outcome>,
    /// True when the search space was exhausted (no `max_schedules` /
    /// armed-mutation early exit).
    pub complete: bool,
}

/// What one completed schedule observed: every node's read values, each
/// node's in program order (indexed by node).
pub type Outcome = Vec<Vec<u64>>;

/// The outcome of a completed schedule's trace on `nodes` nodes.
fn outcome_of(nodes: usize, trace: &[TraceEv]) -> Outcome {
    let mut reads = vec![Vec::new(); nodes];
    for ev in trace {
        if let TraceEv::Read { node, val, .. } = *ev {
            reads[node].push(val);
        }
    }
    reads
}

impl McReport {
    /// Total executions started (completed + pruned).
    pub fn executions(&self) -> u64 {
        self.schedules + self.pruned_sleep + self.pruned_dedup + self.pruned_steps
    }

    /// Lower bound on the DPOR reduction factor: schedules the reduction
    /// provably avoided (sleep-pruned executions + sleeping branches never
    /// descended, each ≥ 1 schedule) relative to schedules actually run.
    /// The true factor against unreduced exploration is at least this.
    pub fn reduction_ratio(&self) -> f64 {
        if self.schedules == 0 {
            return 1.0;
        }
        (self.schedules + self.pruned_sleep + self.branches_skipped) as f64 / self.schedules as f64
    }

    /// No violation of any kind recorded.
    pub fn clean(&self) -> bool {
        self.violation_counts.is_empty()
    }
}

const NODE_LABEL: u64 = 4 << 32;

type Key = u64;

/// Labels a footprint holds without a heap allocation: a delivery's node,
/// its block or synchronisation object, and two noticed blocks.
const INLINE_LABELS: usize = 4;

/// Abstract resource footprint of a schedulable event, used for the DPOR
/// independence check (disjoint footprints = independent transitions).
/// Node labels live in a namespace disjoint from the block/lock/barrier
/// labels produced by [`dsm_proto::ProtoMsg::mc_resources`].
///
/// A footprint is taken once per offered event at the frontier and then
/// copied into the sleep sets of the frames below, so a short one — nearly
/// all — is held inline; only a grant or release carrying more notices is
/// shared on the heap.
#[derive(Clone, Debug, PartialEq)]
enum Footprint {
    Inline(u8, [u64; INLINE_LABELS]),
    Shared(Rc<[u64]>),
}

impl Footprint {
    const EMPTY: Footprint = Footprint::Inline(0, [0; INLINE_LABELS]);

    fn of(c: &McChoice<'_, Packet>) -> Footprint {
        let mut fp = Footprint::EMPTY;
        match &c.event {
            McEvent::Resume { node } => fp.push(NODE_LABEL | *node as u64),
            McEvent::Msg { to, msg } => {
                fp.push(NODE_LABEL | *to as u64);
                if let Packet::App(env) | Packet::Serve(env) = msg {
                    env.msg.mc_resources(|label| fp.push(label));
                }
            }
        }
        fp
    }

    fn push(&mut self, label: u64) {
        match self {
            Footprint::Inline(len, labels) if usize::from(*len) < INLINE_LABELS => {
                labels[usize::from(*len)] = label;
                *len += 1;
            }
            _ => {
                let mut spilled = self.to_vec();
                spilled.push(label);
                *self = Footprint::Shared(spilled.into());
            }
        }
    }
}

impl std::ops::Deref for Footprint {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Footprint::Inline(len, labels) => &labels[..usize::from(*len)],
            Footprint::Shared(labels) => labels,
        }
    }
}

/// An event with its footprint: an entry of an enabled set or a sleep set.
type Tagged = (Key, Footprint);

fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().all(|x| !b.contains(x))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prune {
    Sleep,
    Dedup,
    Steps,
}

/// A scheduler commit point on the replay stack. Its events sit in
/// [`McCore::events`] from `at` on: first the `asleep` events of the sleep
/// set it inherited, then the `enabled` events offered there.
#[derive(Clone, Copy)]
struct Frame {
    at: usize,
    asleep: usize,
    enabled: usize,
    /// Index into the enabled events of the one chosen on this branch.
    chosen: usize,
    /// The siblings explored before it, one bit per enabled index: a frame
    /// explores its events in their order, so these are the chosen one's
    /// predecessors that were not asleep.
    explored: u64,
}

impl Frame {
    fn sleep_in(self) -> Range<usize> {
        self.at..self.at + self.asleep
    }

    fn enabled(self) -> Range<usize> {
        self.at + self.asleep..self.at + self.asleep + self.enabled
    }
}

/// One decision on the replay stack.
enum Slot {
    /// A scheduler commit point.
    Sched(Frame),
    /// A fabric fault consultation: 0 = clean, 1 = drop, 2 = duplicate,
    /// 3 = reorder.
    Fault { chosen: u8, n_options: u8 },
}

fn fault_decision(choice: u8) -> FaultDecision {
    match choice {
        0 => FaultDecision::default(),
        1 => FaultDecision {
            drop: true,
            ..FaultDecision::default()
        },
        2 => FaultDecision {
            dup: true,
            ..FaultDecision::default()
        },
        _ => FaultDecision {
            reorder_ns: REORDER_NS,
            ..FaultDecision::default()
        },
    }
}

struct McCore {
    reduce: bool,
    dedup: bool,
    budget: u32,
    max_steps: u64,
    stack: Vec<Slot>,
    /// The events of every scheduler frame on the stack, frame after frame
    /// ([`Frame`]): they grow and shrink with the stack, so a fresh commit
    /// point allocates nothing once the search has been this deep before.
    events: Vec<Tagged>,
    /// Replay cursor: next stack position to consume. `pos == stack.len()`
    /// means the execution is at the frontier.
    pos: usize,
    steps: u64,
    faults_used: u32,
    prune: Option<Prune>,
    seen: StableSet<u64>,
    states: u64,
    choice_points: u64,
    max_depth: u64,
    branches_skipped: u64,
}

impl McCore {
    fn new(cfg: &McConfig) -> Self {
        McCore {
            reduce: cfg.reduce,
            dedup: cfg.dedup,
            budget: cfg.fault_budget,
            max_steps: cfg.max_steps,
            stack: Vec::new(),
            events: Vec::new(),
            pos: 0,
            steps: 0,
            faults_used: 0,
            prune: None,
            seen: StableSet::default(),
            states: 0,
            choice_points: 0,
            max_depth: 0,
            branches_skipped: 0,
        }
    }

    fn reset_run(&mut self) {
        self.pos = 0;
        self.steps = 0;
        self.faults_used = 0;
        self.prune = None;
    }

    /// Push the sleep set passed into the subtree of `f`'s chosen event
    /// onto `events`, which `f`'s events end: every still-asleep or
    /// already-explored sibling that is independent of it stays asleep (a
    /// dependent transition wakes it). Returns how many were pushed.
    fn push_child_sleep(events: &mut Vec<Tagged>, f: Frame) -> usize {
        let start = events.len();
        let chosen = f.enabled().start + f.chosen;
        let explored = f
            .enabled()
            .filter(|&i| f.explored >> (i - f.enabled().start) & 1 == 1);
        for i in f.sleep_in().chain(explored) {
            let (key, fp) = &events[i];
            if *key != events[chosen].0 && disjoint(fp, &events[chosen].1) {
                events.push(events[i].clone());
            }
        }
        events.len() - start
    }

    /// Push the sleep set a fresh commit point at the frontier inherits: the
    /// child sleep set of the last scheduler decision on the stack (fault
    /// decisions in between neither add to it nor wake anything), empty at
    /// the root. Returns its length.
    fn push_inherited_sleep(&mut self) -> usize {
        let last = self.stack.iter().rev().find_map(|slot| match *slot {
            Slot::Sched(f) => Some(f),
            Slot::Fault { .. } => None,
        });
        last.map_or(0, |f| Self::push_child_sleep(&mut self.events, f))
    }

    fn on_choose(
        &mut self,
        world: &ProtoWorld,
        engine_hash: &mut dyn FnMut() -> u64,
        choices: &McChoices<'_, Packet>,
    ) -> Option<usize> {
        self.steps += 1;
        if self.steps > self.max_steps {
            self.prune = Some(Prune::Steps);
            return None;
        }
        if self.pos < self.stack.len() {
            // Replay: re-commit the decision recorded at this position.
            let Slot::Sched(f) = self.stack[self.pos] else {
                panic!("dsm-mc: replay diverged: scheduler consulted at a fault position");
            };
            assert_eq!(
                choices.len(),
                f.enabled,
                "dsm-mc: replay diverged: enabled-set size changed"
            );
            let idx = choices
                .position(self.events[f.enabled().start + f.chosen].0)
                .expect("dsm-mc: replay diverged: recorded choice not offered");
            self.pos += 1;
            return Some(idx);
        }
        // Frontier: record a fresh commit point, its events pushed after
        // the last frame's.
        let at = self.events.len();
        let asleep = self.push_inherited_sleep();
        if self.dedup && asleep == 0 {
            // Safe to dedup only where the sleep set is empty: the first
            // visit explores this state's full subtree. The fingerprint
            // covers world + checker + fabric + engine scheduler state.
            let fp = fold64(engine_hash(), world.mc_fingerprint());
            if !self.seen.insert(fp) {
                self.prune = Some(Prune::Dedup);
                return None;
            }
        }
        self.states += 1;
        if choices.len() > 1 {
            self.choice_points += 1;
        }
        assert!(
            choices.len() <= 64,
            "dsm-mc: {} co-enabled events; a frame tracks at most 64",
            choices.len()
        );
        let sleep_in = at..at + asleep;
        self.events
            .extend(choices.iter().map(|c| (c.key, Footprint::of(&c))));
        let events = &self.events;
        let pick = if self.reduce {
            let asleep = |k: &Key| events[sleep_in.clone()].iter().any(|(s, _)| s == k);
            events[sleep_in.end..].iter().position(|(k, _)| !asleep(k))
        } else {
            Some(0)
        };
        let Some(pick) = pick else {
            self.events.truncate(at);
            self.prune = Some(Prune::Sleep);
            return None;
        };
        self.stack.push(Slot::Sched(Frame {
            at,
            asleep,
            enabled: choices.len(),
            chosen: pick,
            explored: 0,
        }));
        self.pos += 1;
        self.max_depth = self.max_depth.max(self.stack.len() as u64);
        Some(pick)
    }

    fn on_fault(&mut self) -> FaultDecision {
        if self.pos < self.stack.len() {
            let Slot::Fault { chosen, .. } = self.stack[self.pos] else {
                panic!("dsm-mc: replay diverged: fault consulted at a scheduler position");
            };
            self.pos += 1;
            if chosen != 0 {
                self.faults_used += 1;
            }
            return fault_decision(chosen);
        }
        // Fault choices are all mutually dependent (no sleep sets): a
        // fresh slot starts clean and backtracking tries drop/dup/reorder
        // while budget remains.
        let n_options = if self.faults_used < self.budget { 4 } else { 1 };
        self.stack.push(Slot::Fault {
            chosen: 0,
            n_options,
        });
        self.pos += 1;
        self.max_depth = self.max_depth.max(self.stack.len() as u64);
        fault_decision(0)
    }

    /// Advance the stack to the next unexplored branch, popping exhausted
    /// frames. Returns false when the whole tree has been explored.
    fn backtrack(&mut self) -> bool {
        while let Some(top) = self.stack.pop() {
            match top {
                Slot::Fault { chosen, n_options } => {
                    if chosen + 1 < n_options {
                        self.stack.push(Slot::Fault {
                            chosen: chosen + 1,
                            n_options,
                        });
                        return true;
                    }
                }
                Slot::Sched(f) => {
                    let explored = f.explored | 1 << f.chosen;
                    let sleep_in = &self.events[f.sleep_in()];
                    let next = (f.chosen + 1..f.enabled).find(|&i| {
                        let k = self.events[f.enabled().start + i].0;
                        !(self.reduce && sleep_in.iter().any(|(s, _)| *s == k))
                    });
                    if let Some(chosen) = next {
                        self.stack.push(Slot::Sched(Frame {
                            chosen,
                            explored,
                            ..f
                        }));
                        return true;
                    }
                    self.branches_skipped += (f.enabled - explored.count_ones() as usize) as u64;
                    self.events.truncate(f.at);
                }
            }
        }
        false
    }
}

/// [`McHook`] adapter sharing the core with the fault oracle.
struct HookHandle {
    core: Rc<RefCell<McCore>>,
}

impl McHook<ProtoWorld> for HookHandle {
    fn choose(
        &mut self,
        world: &ProtoWorld,
        engine_hash: &mut dyn FnMut() -> u64,
        _at: Time,
        choices: &McChoices<'_, Packet>,
    ) -> Option<usize> {
        self.core
            .borrow_mut()
            .on_choose(world, engine_hash, choices)
    }
}

fn run_config(cfg: &McConfig, prog: &MicroProgram) -> RunConfig {
    let fabric = if cfg.fault_budget > 0 {
        // Reliable (framed, acked, retransmitting) fabric with every
        // stochastic fault rate zeroed: faults come only from the
        // exploration's fault branches.
        FabricConfig::parse("faulty,seed=0,drop=0,dup=0,reorder=0,spike=0")
            .expect("quiet reliable fabric spec")
    } else {
        FabricConfig::ideal()
    };
    let mut rc = RunConfig::new(cfg.protocol, cfg.block_size)
        .with_nodes(prog.nodes())
        .with_static_homes()
        .with_fabric(fabric)
        .with_check();
    if let Some(m) = cfg.mutation {
        rc = rc.with_mutation(m, m.first_occurrence_seed());
    }
    rc
}

fn record(report: &mut McReport, viols: Vec<Violation>) {
    for v in viols {
        *report
            .violation_counts
            .entry(v.rule.to_string())
            .or_insert(0) += 1;
        if report.violations.len() < MAX_VIOLATION_EXAMPLES {
            report.violations.push(v);
        }
    }
}

/// Run `runner`'s program once on the event loop under `rc`, with `hook`
/// deciding every commit-point tie and `fault_oracle` every transmission's
/// fate. Returns the outcome together with the execution's trace.
fn execute(
    rc: &RunConfig,
    runner: &MicroRunner,
    hook: Box<dyn McHook<ProtoWorld>>,
    fault_oracle: Option<FaultOracle>,
) -> Result<(RunOutcome, Vec<TraceEv>), RunError> {
    let outcome = run_parallel_mc(rc, runner, hook, fault_oracle);
    // Taken whatever the outcome: a pruned or deadlocked execution leaves a
    // partial trace behind, which must not lead the next one's.
    let trace = runner.take_trace();
    Ok((outcome?, trace))
}

/// Exhaustively explore the schedule space of `prog` under `cfg`.
///
/// Every execution is re-run from scratch under the controlled scheduler;
/// completed schedules are checked by the installed checker's mirrors
/// (through the run harness) plus this crate's literal legality oracle for
/// the configured protocol. The search terminates when the branch stack is
/// exhausted (`complete = true`) or an early-exit bound fires.
pub fn explore(cfg: &McConfig, prog: &MicroProgram) -> McReport {
    let core = Rc::new(RefCell::new(McCore::new(cfg)));
    let mut report = McReport::default();
    let mut runs: u64 = 0;
    let rc = run_config(cfg, prog);
    let runner = MicroRunner::new(prog.clone());
    loop {
        runs += 1;
        core.borrow_mut().reset_run();
        let hook: Box<dyn McHook<ProtoWorld>> = Box::new(HookHandle { core: core.clone() });
        let fault_oracle: Option<FaultOracle> = (cfg.fault_budget > 0).then(|| {
            let c = core.clone();
            Box::new(move |_from, _to, _seq, _attempt| c.borrow_mut().on_fault()) as FaultOracle
        });
        match execute(&rc, &runner, hook, fault_oracle) {
            Ok((outcome, trace)) => {
                report.schedules += 1;
                report.outcomes.insert(outcome_of(prog.nodes(), &trace));
                let mut viols = outcome.violations;
                match cfg.protocol {
                    Protocol::Sc | Protocol::Tardis => {
                        viols.extend(oracle::witness_check(prog, &trace));
                    }
                    Protocol::SwLrc | Protocol::Hlrc => {
                        viols.extend(oracle::hb_check(prog, &trace));
                    }
                }
                record(&mut report, viols);
            }
            Err(RunError::Pruned) => match core.borrow_mut().prune.take() {
                Some(Prune::Sleep) => report.pruned_sleep += 1,
                Some(Prune::Dedup) => report.pruned_dedup += 1,
                Some(Prune::Steps) => {
                    report.pruned_steps += 1;
                    record(
                        &mut report,
                        vec![Violation {
                            rule: RULE_LIVELOCK,
                            node: 0,
                            block: None,
                            time: 0,
                            detail: format!("execution exceeded {} commit points", cfg.max_steps),
                        }],
                    );
                }
                None => unreachable!("the hook records why it prunes"),
            },
            Err(deadlock @ RunError::Deadlock { .. }) => {
                report.deadlocks += 1;
                record(
                    &mut report,
                    vec![Violation {
                        rule: RULE_DEADLOCK,
                        node: 0,
                        block: None,
                        time: 0,
                        detail: deadlock.to_string(),
                    }],
                );
            }
        }
        let stop = (cfg.mutation.is_some() && !report.violation_counts.is_empty())
            || (cfg.max_schedules > 0 && runs >= cfg.max_schedules);
        let exhausted = !stop && !core.borrow_mut().backtrack();
        if stop || exhausted {
            report.complete = exhausted;
            let c = core.borrow();
            report.states = c.states;
            report.choice_points = c.choice_points;
            report.max_depth = c.max_depth;
            report.branches_skipped = c.branches_skipped;
            return report;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged(events: &[(Key, &[u64])]) -> Vec<Tagged> {
        let footprint = |labels: &[u64]| {
            let mut fp = Footprint::EMPTY;
            labels.iter().for_each(|&label| fp.push(label));
            fp
        };
        events.iter().map(|&(k, fp)| (k, footprint(fp))).collect()
    }

    /// What `push_inherited_sleep` pushes, taken back off the arena.
    fn inherited(core: &mut McCore) -> Vec<Tagged> {
        let at = core.events.len();
        let n = core.push_inherited_sleep();
        assert_eq!(core.events.len(), at + n);
        core.events.split_off(at)
    }

    #[test]
    fn the_frontier_inherits_the_child_sleep_set_of_the_last_scheduler_frame() {
        let mut core = McCore::new(&McConfig::new(Protocol::Sc));
        assert!(
            inherited(&mut core).is_empty(),
            "nothing sleeps at the root"
        );
        // A frame on its third branch: 10 and 11 are explored, 12 is chosen,
        // 20 came in asleep from above. 10 and 20 are independent of 12 and
        // stay asleep below it; 11 shares a label with 12 and is woken.
        core.events = tagged(&[(20, &[6])]);
        core.events.extend(tagged(&[
            (10, &[1]),
            (11, &[2, 3]),
            (12, &[3, 4]),
            (13, &[5]),
        ]));
        let frame = Frame {
            at: 0,
            asleep: 1,
            enabled: 4,
            chosen: 2,
            explored: 0b11,
        };
        core.stack.push(Slot::Sched(frame));
        let want = tagged(&[(20, &[6]), (10, &[1])]);
        assert_eq!(inherited(&mut core), want);
        // Fault decisions between that frame and the frontier change nothing.
        for chosen in [0, 2] {
            core.stack.push(Slot::Fault {
                chosen,
                n_options: 4,
            });
            assert_eq!(inherited(&mut core), want);
        }
        // A later scheduler frame takes over, with its own sleep set (the
        // one above) and its own (empty) explored set.
        core.events.extend(want);
        core.events.extend(tagged(&[(30, &[1])]));
        core.stack.push(Slot::Sched(Frame {
            at: 5,
            asleep: 2,
            enabled: 1,
            chosen: 0,
            explored: 0,
        }));
        assert_eq!(inherited(&mut core), tagged(&[(20, &[6])]));
    }
}
