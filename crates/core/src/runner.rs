//! Run harness: execute a program on the simulated cluster (or
//! sequentially) and collect results.

use std::sync::Arc;

use dsm_fabric::FaultOracle;
use dsm_mem::Layout;
use dsm_net::{CostModel, Notify};
use dsm_obs::{Counters, ObsReport, RunStats, SharingProfile};
use dsm_proto::{final_image, ProtoWorld, Protocol};
pub use dsm_proto::{RegionPolicy, RunConfig};
use dsm_sim::{McHook, McInstall, NodeFuture, RunError, Time};

use crate::api::{complete, Dsm};
use crate::image::MemImage;
use crate::par::ParDsm;
use crate::seq::SeqDsm;
use crate::{DsmProgram, Program};

/// What one region looked like in a finished run: its layout, its policy,
/// and the counters attributed to it.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Start address within the shared space.
    pub start: usize,
    /// Region length in bytes.
    pub len: usize,
    /// Coherence granularity used, in bytes.
    pub block: usize,
    /// Protocol used.
    pub protocol: Protocol,
    /// The events that named a block of the region, counted (summed over
    /// nodes): faults, invalidations, block traffic, twins and diffs, lease
    /// activity. Sync-only traffic and node-level time carry no block and
    /// stay zero here.
    pub counters: Counters,
}

/// Everything a parallel run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-node counters and timings. `sequential_time_ns` is zero here;
    /// [`run_experiment`] fills it in.
    pub stats: RunStats,
    /// Final authoritative memory image.
    pub image: MemImage,
    /// Per-node event streams, histograms, and measured wall intervals.
    pub obs: ObsReport,
    /// Per-region layout, policy, and counters (one entry per layout
    /// region; a uniform run has a single `"shared"` region).
    pub regions: Vec<RegionReport>,
    /// Complete sharing profile, present when [`RunConfig::profile`] is set.
    pub profile: Option<SharingProfile>,
    /// Checker findings, when [`RunConfig::check`] was set (empty on a
    /// clean run and always empty with the checker off).
    pub violations: Vec<dsm_proto::Violation>,
}

/// The region spans a mixed-mode run would carve the shared space into,
/// given an alignment: `(name, start, len)` triples covering the whole
/// (rounded-up) space in address order.
///
/// Region starts are snapped *down* to `align` so every span is a multiple
/// of every candidate granularity; hints that collapse onto the same
/// boundary are superseded by the later one, and a leading uncovered range
/// becomes an implicit `"head"` region. This is the exact carving
/// [`run_parallel`] performs, exposed so policy engines can aggregate
/// profile data over the same spans.
pub fn planned_regions(program: &dyn DsmProgram, align: usize) -> Vec<(String, usize, usize)> {
    let size = program.shared_bytes().div_ceil(align) * align;
    let mut hints = program.regions();
    hints.sort_by_key(|h| h.addr);
    let mut cuts: Vec<(usize, String)> = Vec::new();
    for h in &hints {
        let start = h.addr / align * align;
        if start >= size {
            continue;
        }
        match cuts.last_mut() {
            Some(last) if last.0 == start => last.1 = h.name.clone(),
            _ => cuts.push((start, h.name.clone())),
        }
    }
    if cuts.first().is_none_or(|c| c.0 != 0) {
        cuts.insert(0, (0, "head".to_string()));
    }
    (0..cuts.len())
        .map(|i| {
            let end = cuts.get(i + 1).map_or(size, |c| c.0);
            (cuts[i].1.clone(), cuts[i].0, end - cuts[i].0)
        })
        .collect()
}

/// Build the run's memory layout from the program's region hints and the
/// configured policies.
///
/// The carving is [`planned_regions`] at the largest block size in play
/// (at least 4096); each span gets the granularity
/// [`RunConfig::policy_of`] gives its name, as the world gives it that
/// call's protocol.
fn build_layout(cfg: &RunConfig, program: &dyn DsmProgram) -> Layout {
    if cfg.region_policies.is_empty() {
        return Layout::new(program.shared_bytes(), cfg.block_size);
    }
    let align = cfg
        .region_policies
        .iter()
        .map(|p| p.block)
        .chain([cfg.block_size, 4096])
        .max()
        .unwrap();
    let spans = planned_regions(program, align);
    let size = program.shared_bytes().div_ceil(align) * align;
    let parts: Vec<(String, usize, usize)> = spans
        .into_iter()
        .map(|(name, start, _len)| {
            let block = cfg.policy_of(&name).1;
            (name, start, block)
        })
        .collect();
    Layout::with_regions(size, &parts)
}

/// Polling-instrumentation overhead charged on `program`'s local work under
/// `cfg`, in percent (none when messages interrupt).
fn poll_inflation(cfg: &RunConfig, program: &dyn DsmProgram) -> u32 {
    match cfg.notify {
        Notify::Polling => program.poll_inflation_pct(),
        Notify::Interrupt => 0,
    }
}

/// The protocol world a run of `program` under `cfg` starts from: layout,
/// protocol state, checker, and the program's initial image (held once; a
/// node's copy of a block is filled at its first grant).
fn build_world(cfg: &RunConfig, program: &dyn DsmProgram) -> ProtoWorld {
    if let Some(most) = program.max_nodes() {
        let name = program.name();
        assert!(
            cfg.nodes <= most,
            "{name} runs on at most {most} nodes; the run asks for {}",
            cfg.nodes
        );
    }
    let layout = build_layout(cfg, program);
    let size = layout.size();
    let mut world = ProtoWorld::new(cfg.clone(), layout);
    if cfg.check {
        world = world.with_check(&program.name());
    }
    let mut golden = MemImage::new(size);
    program.init(&mut golden);
    world.load_golden(golden.into_bytes());
    world
}

/// Build and run one parallel run of `program` under `cfg`: one `async`
/// body per node — warm-up, the warm-up barrier, the start of measurement,
/// the program, the tail flush — against a [`Dsm::Par`], all resumed by the
/// one event loop on the caller's thread. With `mc`, the model checker's
/// hook decides every commit-point tie and its fault oracle, when there is
/// one, every transmission's fate.
fn run_program(
    cfg: &RunConfig,
    program: &dyn DsmProgram,
    mc: Option<(Box<dyn McHook<ProtoWorld>>, Option<FaultOracle>)>,
) -> Result<RunOutcome, RunError> {
    let mut world = build_world(cfg, program);
    let install = mc.map(|(hook, fault_oracle)| {
        if let Some(o) = fault_oracle {
            world.fabric.set_fault_oracle(o);
        }
        McInstall {
            hook,
            msg_hash: Box::new(|to, pkt: &dsm_proto::Packet| {
                dsm_sim::rng::StableHasher::fingerprint(&(to, pkt))
            }),
        }
    });
    let inflation = poll_inflation(cfg, program);
    let (world, end, sim_events) = run_futures(world, cfg.nodes, inflation, install, |mut d| {
        Box::pin(async move {
            program.warmup(&mut d).await;
            d.barrier(WARMUP_BARRIER).await;
            d.begin_measurement().await;
            program.run(&mut d).await;
            d.finish().await;
        })
    })?;
    Ok(finish_outcome(cfg, world, end, sim_events))
}

/// Run `program` on the simulated cluster under `cfg`.
///
/// A run that deadlocks panics with the [`RunError::Deadlock`] text
/// (`simulation deadlock: event queue empty, node states [..]`): without a
/// hook that is the only way to stop short, and it is the program's bug,
/// reported where an uncaught panic in it would be. A panic in a program
/// body reaches the caller as it was raised.
pub fn run_parallel(cfg: &RunConfig, program: Program) -> RunOutcome {
    run_program(cfg, program.as_ref(), None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_parallel`] under the model checker's controlled scheduler: every
/// commit-point tie is `hook`'s decision, and `fault_oracle` replaces the
/// fabric's seeded fault dice with explicit per-transmission decisions.
/// A schedule the hook abandons is `Err(RunError::Pruned)` — the suspended
/// bodies are dropped — and one on which the program deadlocks is
/// `Err(RunError::Deadlock { .. })`.
pub fn run_parallel_mc(
    cfg: &RunConfig,
    program: &dyn DsmProgram,
    hook: Box<dyn McHook<ProtoWorld>>,
    fault_oracle: Option<FaultOracle>,
) -> Result<RunOutcome, RunError> {
    run_program(cfg, program, Some((hook, fault_oracle)))
}

/// Run one `async` body per node of `world`, each built by `body` from the
/// node's [`Dsm::Par`]: the crate's one call into the event loop.
fn run_futures<'a>(
    world: ProtoWorld,
    nodes: usize,
    inflation_pct: u32,
    mc: Option<McInstall<ProtoWorld>>,
    mut body: impl FnMut(Dsm) -> NodeFuture<'a>,
) -> Result<(ProtoWorld, Time, u64), RunError> {
    dsm_sim::run_nodes(
        world,
        nodes,
        |ctx| body(Dsm::Par(ParDsm::new(ctx, inflation_pct))),
        mc,
    )
}

/// One node's part of a scripted run ([`run_bodies`]): `async` code against
/// the node's [`Dsm`], boxed. Build one with [`node_body`].
pub type NodeBody<'a> = Box<dyn for<'d> FnOnce(&'d mut Dsm) -> NodeFuture<'d> + 'a>;

/// Box a scripted node body: `node_body(|d| Box::pin(async move { .. }))`.
/// Passing the closure through here fixes its signature, so it needs no
/// annotations of its own.
pub fn node_body<'a>(f: impl for<'d> FnOnce(&'d mut Dsm) -> NodeFuture<'d> + 'a) -> NodeBody<'a> {
    Box::new(f)
}

/// Run hand-written node bodies — one per node of `world` — against a world
/// the caller prepared, and return it when they are done. No warm-up phase,
/// no polling inflation and no sequential baseline: this is for tests that
/// script a few operations per node and then inspect protocol state.
pub fn run_bodies(world: ProtoWorld, bodies: Vec<NodeBody<'_>>) -> ProtoWorld {
    let nodes = bodies.len();
    let mut bodies = bodies.into_iter();
    let run = run_futures(world, nodes, 0, None, |mut d| {
        let body = bodies.next().expect("one body per node");
        Box::pin(async move {
            body(&mut d).await;
            d.finish().await;
        })
    });
    run.unwrap_or_else(|e| panic!("{e}")).0
}

/// Fold a finished world into the run's outcome.
fn finish_outcome(
    cfg: &RunConfig,
    mut world: ProtoWorld,
    end: Time,
    sim_events: u64,
) -> RunOutcome {
    // Under a reliable fabric the engine keeps advancing through drained
    // retransmission timers after the last node finishes; the application
    // quiesced at the last App delivery, not at the engine's end time.
    let end = if cfg.fabric.reliable() {
        world.quiesce.max(world.measure_start).min(end)
    } else {
        end
    };
    let obs = world.obs.take_report();
    let regions = world
        .layout
        .regions()
        .iter()
        .enumerate()
        .map(|(i, r)| RegionReport {
            name: r.name().to_string(),
            start: r.start(),
            len: r.len(),
            block: r.block_size(),
            protocol: world.region_proto[i],
            counters: world.region_stats[i].clone(),
        })
        .collect();
    let profile = world.profile.take();
    let violations = match world.check.take() {
        Some(mut c) => c.finalize(end),
        None => Vec::new(),
    };
    RunOutcome {
        stats: RunStats {
            per_node: world.stats.clone(),
            parallel_time_ns: end.saturating_sub(world.measure_start),
            sequential_time_ns: 0,
            sim_events,
        },
        image: MemImage::from_bytes(final_image(&world)),
        obs,
        regions,
        profile,
        violations,
    }
}

/// Run `program` sequentially (one node, plain memory) on the default
/// platform. Returns the final image and the modeled execution time.
pub fn run_sequential(program: &dyn DsmProgram) -> (MemImage, u64) {
    sequential(program, &CostModel::default())
}

/// [`run_sequential`] on the platform `cost` describes.
fn sequential(program: &dyn DsmProgram, cost: &CostModel) -> (MemImage, u64) {
    let layout = Layout::new(program.shared_bytes(), 4096);
    let mut golden = MemImage::new(layout.size());
    program.init(&mut golden);
    let mut d = Dsm::Seq(SeqDsm::new(golden, cost.clone()));
    complete(async {
        program.warmup(&mut d).await;
        d.begin_measurement().await;
        program.run(&mut d).await;
    });
    let Dsm::Seq(d) = d else {
        unreachable!("built as the sequential arm above")
    };
    let t = d.time_ns();
    (d.into_image(), t)
}

/// Barrier id reserved for the warm-up/measurement boundary.
pub const WARMUP_BARRIER: usize = 990_001;

/// A complete experiment: parallel run + sequential baseline + verification.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Program name.
    pub name: String,
    /// The configuration used.
    pub config: RunConfig,
    /// Statistics with the sequential baseline filled in.
    pub stats: RunStats,
    /// Result of checking the parallel image against the sequential one.
    pub check: Result<(), String>,
    /// Observability report from the parallel run.
    pub obs: ObsReport,
    /// Per-region layout, policy, and counters.
    pub regions: Vec<RegionReport>,
    /// Sharing profile, when [`RunConfig::profile`] was set.
    pub profile: Option<SharingProfile>,
    /// Checker findings, when [`RunConfig::check`] was set.
    pub violations: Vec<dsm_proto::Violation>,
}

impl ExperimentResult {
    /// Parallel speedup over the sequential baseline.
    pub fn speedup(&self) -> f64 {
        self.stats.speedup()
    }
}

/// Run the full experiment for one (program, configuration) pair. The
/// sequential baseline runs on the same platform (`cfg.cost`), so the
/// speedup divides times from one machine.
pub fn run_experiment(cfg: &RunConfig, program: Program) -> ExperimentResult {
    let (seq_img, seq_t) = sequential(program.as_ref(), &cfg.cost);
    let mut out = run_parallel(cfg, Arc::clone(&program));
    out.stats.sequential_time_ns = seq_t;
    let check = program.check(&seq_img, &out.image);
    ExperimentResult {
        name: program.name(),
        config: cfg.clone(),
        stats: out.stats,
        check,
        obs: out.obs,
        regions: out.regions,
        profile: out.profile,
        violations: out.violations,
    }
}

/// Convenience: assert-checked experiment used across the test suite.
pub fn run_checked(cfg: &RunConfig, program: Program) -> ExperimentResult {
    let r = run_experiment(cfg, program);
    if let Err(e) = &r.check {
        panic!(
            "{} under {:?}@{}: parallel result mismatch: {e}",
            r.name, cfg.protocol, cfg.block_size
        );
    }
    if !r.violations.is_empty() {
        panic!(
            "{} under {:?}@{}: checker reported {} violation(s), first: {:?}",
            r.name,
            cfg.protocol,
            cfg.block_size,
            r.violations.len(),
            r.violations[0]
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegionHint;

    /// 16 KiB hinted from 4 KiB on, so the carving adds an implicit `head`.
    struct Hinted;

    impl DsmProgram for Hinted {
        fn name(&self) -> String {
            "hinted".into()
        }
        fn shared_bytes(&self) -> usize {
            4 * 4096
        }
        fn init(&self, _mem: &mut MemImage) {}
        fn run<'a>(&'a self, _d: &'a mut Dsm) -> NodeFuture<'a> {
            Box::pin(std::future::ready(()))
        }
        fn regions(&self) -> Vec<RegionHint> {
            vec![
                RegionHint::new("a", 4096, 4096),
                RegionHint::new("b", 8192, 8192),
            ]
        }
    }

    #[test]
    fn a_region_runs_its_named_policy_or_else_the_runs_own() {
        let cfg = RunConfig::new(Protocol::Sc, 1024)
            .with_nodes(2)
            .with_region_policies(vec![RegionPolicy::new("a", Protocol::Hlrc, 64)]);
        assert_eq!(cfg.policy_of("a"), (Protocol::Hlrc, 64));
        assert_eq!(cfg.policy_of("b"), (Protocol::Sc, 1024));
        let w = build_world(&cfg, &Hinted);
        let regions: Vec<_> = w
            .layout
            .regions()
            .iter()
            .zip(&w.region_proto)
            .map(|(r, &p)| (r.name(), r.start(), r.block_size(), p))
            .collect();
        assert_eq!(
            regions,
            [
                ("head", 0, 1024, Protocol::Sc),
                ("a", 4096, 64, Protocol::Hlrc),
                ("b", 8192, 1024, Protocol::Sc),
            ]
        );
    }
}
