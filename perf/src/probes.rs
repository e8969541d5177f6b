//! Probes run after the traced passes: the same cells at one node, hooks
//! and fabric on against off, and direct calls into single layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use dsm_apps::{app_sized, AppSize};
use dsm_core::{run_parallel, run_sequential, FabricConfig, Program, Protocol, RunConfig};
use dsm_json::Value;
use dsm_mem::{Access, AccessTable};
use dsm_net::LatencyModel;
use dsm_proto::diff::Diff;
use dsm_proto::vt::VClock;
use dsm_sim::queue::BucketQueue;

use crate::host::CpuTimer;
use crate::stats::{median, ratio};
use crate::workloads::PLANS;

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// Host CPU seconds and simulator events of one `run_parallel`.
fn timed_parallel(cfg: &RunConfig, program: &Program) -> (f64, u64) {
    let t0 = CpuTimer::start();
    let out = run_parallel(cfg, Arc::clone(program));
    (t0.secs(), out.stats.sim_events)
}

/// Median host ns per event of three runs after one warm-up.
fn ns_per_event(cfg: &RunConfig, program: &Program) -> f64 {
    timed_parallel(cfg, program);
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (secs, events) = timed_parallel(cfg, program);
            ratio(secs * 1e9, events as f64)
        })
        .collect();
    median(&samples)
}

/// One cell at `with_nodes(1)`: no messages and no thread switches, so
/// what is left is the per-access path into the protocol world and the
/// event queue. `ns_16n` is the same cell's cost in its 16-node pass.
pub fn one_node(key: &str, program: &Program, cfg: &RunConfig, ns_16n: f64, out: &mut Values) {
    let ns_1n = ns_per_event(&cfg.clone().with_nodes(1), program);
    out.insert(format!("core.ns_per_event_1n.{key}"), ns_1n);
    out.insert(
        format!("sim.handoff_share.{key}"),
        1.0 - ratio(ns_1n, ns_16n),
    );
}

/// lu at one node through the protocol stack over lu against plain memory:
/// the cost of the access path relative to the arithmetic it carries.
pub fn access_path(out: &mut Values) -> Result<(), String> {
    let program = app_sized("lu", AppSize::Standard).ok_or("unknown app lu")?;
    let cfg = RunConfig::new(Protocol::Hlrc, 4096).with_nodes(1);
    timed_parallel(&cfg, &program);
    let (mut par, mut seq) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        par.push(timed_parallel(&cfg, &program).0);
        let t0 = CpuTimer::start();
        black_box(run_sequential(program.as_ref()));
        seq.push(t0.secs());
    }
    out.insert(
        "core.access_path_ratio".to_string(),
        ratio(median(&par), median(&seq)),
    );
    Ok(())
}

/// Fault plan of the `fabric.faulty_ratio` probe: the bundled plans' own.
const FAULTY: &str = "faulty,seed=42,drop=10000,reorder=20000";

/// water-nsquared/HLRC@64 with one thing switched on at a time, three
/// interleaved rounds, ratio of median host CPU time to the base
/// configuration's. (Not ns/event: under a reliable fabric frames, acks and
/// timers are events too, so the same program commits more, cheaper
/// events and its ns/event falls while its host time rises.) Returns the
/// checker's violation count (a clean run has none).
pub fn hooks_ab(out: &mut Values) -> Result<usize, String> {
    let program = app_sized("water-nsquared", AppSize::Standard).ok_or("unknown app")?;
    let base = RunConfig::new(Protocol::Hlrc, 64);
    let variants = [
        ("base", base.clone()),
        ("check.overhead_ratio", base.clone().with_check()),
        (
            "obs.overhead_ratio",
            base.clone()
                .with_recording()
                .with_spans()
                .with_series(1_000_000),
        ),
        (
            "fabric.contended_ratio",
            base.clone().with_fabric(FabricConfig::parse("contended")?),
        ),
        (
            "fabric.faulty_ratio",
            base.clone().with_fabric(FabricConfig::parse(FAULTY)?),
        ),
    ];
    let mut samples = vec![Vec::new(); variants.len()];
    let mut violations = 0;
    for _round in 0..3 {
        for (i, (name, cfg)) in variants.iter().enumerate() {
            let t0 = CpuTimer::start();
            let run = run_parallel(cfg, Arc::clone(&program));
            samples[i].push(t0.secs());
            violations += run.violations.len();
            if *name == "obs.overhead_ratio" {
                let events: u64 = run.obs.nodes.iter().flat_map(|n| n.counts).sum();
                let spans = run.obs.spans.as_ref().map_or(0, |s| s.len());
                out.insert("obs.events_recorded".to_string(), events as f64);
                out.insert("obs.spans_recorded".to_string(), spans as f64);
            }
        }
    }
    let base_s = median(&samples[0]);
    for (i, (name, _)) in variants.iter().enumerate().skip(1) {
        out.insert(name.to_string(), ratio(median(&samples[i]), base_s));
    }
    Ok(violations)
}

/// Median ns per call of `f` over 7 batches of `iters` calls, after a
/// warm-up of a quarter batch.
fn batch_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = CpuTimer::start();
            for _ in 0..iters {
                f();
            }
            t0.secs() * 1e9 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Direct calls into single layers: the cases of `micro_ops` plus the
/// event queue and the JSON parser.
pub fn micro(out: &mut Values) {
    // Hold model: a queue of 1024 events; pop the earliest, push one a
    // pseudo-random 1..8 us after it.
    let mut q = BucketQueue::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..1024u64 {
        q.push(i * 100, i);
    }
    out.insert(
        "sim.queue.push_pop_ns".to_string(),
        batch_ns(200_000, || {
            let (at, v) = q.pop().expect("hold model keeps the queue full");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(at + 1_000 + x % 7_000, black_box(v));
        }),
    );

    for size in [64usize, 1024, 4096] {
        let twin = vec![0u8; size];
        let mut cur = twin.clone();
        // Dirty every 16th word: a realistically sparse diff.
        for i in (0..size).step_by(128) {
            cur[i] = 1;
        }
        out.insert(
            format!("proto.diff.create_ns.{size}"),
            batch_ns(20_000, || {
                black_box(Diff::create(black_box(&twin), black_box(&cur)));
            }),
        );
        let d = Diff::create(&twin, &cur);
        let mut home = twin.clone();
        out.insert(
            format!("proto.diff.apply_ns.{size}"),
            batch_ns(20_000, || d.apply(black_box(&mut home))),
        );
    }

    let mut a = VClock::new(16);
    let mut b = VClock::new(16);
    for i in 0..16 {
        for _ in 0..(i * 13 % 7) + 1 {
            a.tick(i);
        }
        for _ in 0..(i * 7 % 11) + 1 {
            b.tick(i);
        }
    }
    out.insert(
        "proto.vt.merge_ns".to_string(),
        batch_ns(200_000, || {
            let mut x = black_box(a.clone());
            x.merge(black_box(&b));
            black_box(x);
        }),
    );
    out.insert(
        "proto.vt.missing_intervals_ns".to_string(),
        batch_ns(200_000, || {
            black_box(VClock::missing_intervals(black_box(&a), black_box(&b)));
        }),
    );

    let mut table = AccessTable::new(16, 65536);
    for blk in (0..65536).step_by(3) {
        table.set(blk % 16, blk, Access::Read);
    }
    let mut blk = 0usize;
    out.insert(
        "mem.access_check_ns".to_string(),
        batch_ns(2_000_000, || {
            blk = (blk + 97) % 65536;
            black_box(table.get(black_box(5), black_box(blk)).readable());
        }),
    );

    let model = LatencyModel::default();
    let sizes = [16u64, 80, 300, 1100, 4200];
    let mut i = 0usize;
    out.insert(
        "net.one_way_ns".to_string(),
        batch_ns(2_000_000, || {
            i = (i + 1) % sizes.len();
            black_box(model.one_way(black_box(sizes[i])));
        }),
    );

    // The six frozen plans, 32 times over, as one array: ~100 KB.
    let plans: Vec<&str> = PLANS.iter().map(|&(_, text)| text).collect();
    let doc = format!("[{}]", vec![plans.join(","); 32].join(","));
    let ns = batch_ns(20, || {
        black_box(Value::parse(black_box(&doc)).expect("frozen plans parse"));
    });
    // bytes per ns × 1000 = MB/s.
    out.insert(
        "json.parse_mb_per_s".to_string(),
        ratio(doc.len() as f64 * 1e3, ns),
    );
}

/// The cell of the `sim.unpinned_ratio` probe.
pub const UNPINNED_CELL: (&str, Protocol, usize) = ("ocean-rowwise", Protocol::SwLrc, 4096);

/// Wall-clock seconds of one `run_parallel` of [`UNPINNED_CELL`]: what the
/// unpinned child process prints, and what the pinned parent compares it
/// with. The one probe on the wall clock — where the scheduler places 16
/// threads costs waiting, not CPU time.
pub fn unpinned_cell_secs() -> Result<f64, String> {
    let (app, p, block) = UNPINNED_CELL;
    let program = app_sized(app, AppSize::Standard).ok_or("unknown app")?;
    let t0 = Instant::now();
    run_parallel(&RunConfig::new(p, block), Arc::clone(&program));
    Ok(t0.elapsed().as_secs_f64())
}

/// `sim.unpinned_ratio`: one run of [`UNPINNED_CELL`] in a child process
/// free to use every CPU in `allowed`, over one run here, pinned.
pub fn unpinned(allowed: &[usize], out: &mut Values) -> Result<(), String> {
    let pinned_s = unpinned_cell_secs()?;
    let cpus: Vec<String> = allowed.iter().map(usize::to_string).collect();
    let child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["probe-unpinned", &cpus.join(",")])
        .output()
        .map_err(|e| format!("unpinned probe: {e}"))?;
    let unpinned_s: f64 = String::from_utf8_lossy(&child.stdout)
        .trim()
        .parse()
        .map_err(|_| "unpinned probe printed no time".to_string())?;
    out.insert(
        "sim.unpinned_ratio".to_string(),
        ratio(unpinned_s, pinned_s),
    );
    Ok(())
}
