//! Cross-crate integration tests through the `dsm` facade: statistics
//! invariants, determinism, and protocol-relationship properties on the
//! real applications.

use dsm::{run_experiment, Notify, Protocol, RegionPolicy, RunConfig};
use dsm_apps::registry::{all_app_names, app_sized, modern_app_names, AppSize};
use dsm_scenario::{RunSpec, MAX_NODES};

fn small(name: &str) -> dsm::Program {
    app_sized(name, AppSize::Small).expect("app")
}

#[test]
fn stats_invariants_hold_across_protocols() {
    for p in Protocol::ALL {
        let cfg = RunConfig::new(p, 1024);
        let r = run_experiment(&cfg, small("water-spatial"));
        assert!(r.check.is_ok(), "{p:?}: {:?}", r.check);
        let t = r.stats.totals();
        // A 16-node run communicates.
        assert!(t.msgs_sent > 0, "{p:?}: no messages");
        assert!(t.read_faults > 0, "{p:?}: no read faults");
        // Traffic includes at least one header per message.
        assert!(t.ctrl_bytes >= 16 * t.msgs_sent || t.data_bytes > 0);
        // Everyone participates in every barrier episode.
        let b0 = r.stats.per_node[0].barriers;
        assert!(b0 > 0);
        for (i, node) in r.stats.per_node.iter().enumerate() {
            assert_eq!(node.barriers, b0, "node {i} barrier count differs");
        }
        // Speedup is positive and bounded by the node count with slack for
        // model effects.
        assert!(r.speedup() > 0.0 && r.speedup() < 17.0);
    }
}

#[test]
fn lrc_machinery_only_engages_for_lrc_protocols() {
    let sc = run_experiment(
        &RunConfig::new(Protocol::Sc, 1024),
        small("volrend-rowwise"),
    );
    let hl = run_experiment(
        &RunConfig::new(Protocol::Hlrc, 1024),
        small("volrend-rowwise"),
    );
    let sw = run_experiment(
        &RunConfig::new(Protocol::SwLrc, 1024),
        small("volrend-rowwise"),
    );
    let (sct, hlt, swt) = (sc.stats.totals(), hl.stats.totals(), sw.stats.totals());
    assert_eq!(sct.write_notices_sent, 0, "SC must not send write notices");
    assert_eq!(sct.diffs_created, 0);
    assert_eq!(sct.twins_created, 0);
    assert!(hlt.write_notices_sent > 0, "HLRC must send write notices");
    assert!(hlt.twins_created > 0, "HLRC must twin dirty remote blocks");
    assert!(swt.write_notices_sent > 0, "SW-LRC must send write notices");
    assert_eq!(swt.twins_created, 0, "SW-LRC never twins");
    assert_eq!(swt.diffs_created, 0, "SW-LRC never diffs");
}

#[test]
fn tardis_leases_expire_across_barrier_episodes() {
    // Barrier-only app with heavy read sharing: every barrier merges the
    // writers' program timestamps into every reader, so leases taken in
    // one episode are dead by the next and each episode's reads must
    // re-lease. The run must stay checker-clean while doing so, and the
    // lease machinery must be visibly engaged: expiries from crossing the
    // barrier, and write grants that had to clear outstanding leases.
    let td = run_experiment(
        &RunConfig::new(Protocol::Tardis, 1024).with_check(),
        small("ocean-rowwise"),
    );
    assert!(td.check.is_ok());
    assert!(td.violations.is_empty(), "{:?}", td.violations);
    let t = td.stats.totals();
    assert!(t.lease_expiries > 0, "barriers must expire leases");
    assert!(t.wts_bumps > 0, "writes must clear outstanding leases");
    assert_eq!(t.write_notices_sent, 0, "Tardis never sends write notices");
    assert_eq!(t.twins_created, 0, "Tardis never twins");
    assert_eq!(t.diffs_created, 0, "Tardis never diffs");
    // The lease counters are Tardis-only: zero under the other protocols.
    for p in [Protocol::Sc, Protocol::SwLrc, Protocol::Hlrc] {
        let r = run_experiment(&RunConfig::new(p, 1024), small("ocean-rowwise"));
        let t = r.stats.totals();
        assert_eq!(
            (t.lease_renewals, t.lease_expiries, t.wts_bumps),
            (0, 0, 0),
            "{p:?} must not touch the lease counters"
        );
    }
}

#[test]
fn tardis_verifies_under_interrupt_notification() {
    // The interrupt notification model (70 µs async cost, deferred
    // invalidation grace window) rides the same machinery for every
    // protocol; Tardis recalls and lease grants must stay correct and
    // checker-clean under it, not just under polling.
    let r = run_experiment(
        &RunConfig::new(Protocol::Tardis, 1024)
            .with_notify(Notify::Interrupt)
            .with_check(),
        small("water-nsquared"),
    );
    assert!(r.check.is_ok());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.stats.totals().interrupts_taken > 0);
}

#[test]
fn invalidations_are_eager_under_sc_and_lazy_under_lrc() {
    // Under SC, every write miss on a shared block invalidates eagerly;
    // under the LRC protocols invalidations only happen at acquires, so
    // for a barrier-only app with heavy read sharing, SC must invalidate
    // at least as often.
    let sc = run_experiment(&RunConfig::new(Protocol::Sc, 4096), small("ocean-rowwise"));
    let hl = run_experiment(
        &RunConfig::new(Protocol::Hlrc, 4096),
        small("ocean-rowwise"),
    );
    assert!(sc.check.is_ok() && hl.check.is_ok());
    let scf = sc.stats.totals().write_faults + sc.stats.totals().read_faults;
    let hlf = hl.stats.totals().write_faults + hl.stats.totals().read_faults;
    assert!(
        hlf <= scf,
        "HLRC remote faults ({hlf}) must not exceed SC's ({scf}) at page granularity"
    );
}

#[test]
fn interrupt_runs_count_interrupts_and_polling_runs_do_not() {
    let poll = run_experiment(&RunConfig::new(Protocol::Sc, 1024), small("water-nsquared"));
    let intr = run_experiment(
        &RunConfig::new(Protocol::Sc, 1024).with_notify(Notify::Interrupt),
        small("water-nsquared"),
    );
    assert_eq!(poll.stats.totals().interrupts_taken, 0);
    assert!(intr.stats.totals().interrupts_taken > 0);
    // Polling inflates compute; interrupts do not.
    assert!(poll.stats.totals().poll_overhead_ns > 0);
    assert_eq!(intr.stats.totals().poll_overhead_ns, 0);
}

#[test]
fn every_app_is_deterministic_across_repeat_runs() {
    for name in ["lu", "barnes-partree", "raytrace"] {
        let cfg = RunConfig::new(Protocol::Hlrc, 256);
        let a = run_experiment(&cfg, small(name));
        let b = run_experiment(&cfg, small(name));
        assert_eq!(
            a.stats.parallel_time_ns, b.stats.parallel_time_ns,
            "{name}: run times differ"
        );
        assert_eq!(
            a.stats.totals(),
            b.stats.totals(),
            "{name}: counters differ"
        );
    }
}

#[test]
fn cluster_size_sweep_works_for_size_generic_apps() {
    // The engine and protocols are node-count generic, and so is every
    // application up to the cluster its layout has room for: check
    // correctness at powers of two, at cluster sizes that divide no
    // dimension, and at the largest cluster a run may ask for (the
    // test-size problem is too small to expect monotone scaling).
    let names = all_app_names().into_iter().chain(modern_app_names());
    for name in names {
        let most = small(name).max_nodes().unwrap_or(MAX_NODES);
        let sizes = [3usize, 4, 7, 8, 12, 16, MAX_NODES];
        for nodes in sizes.into_iter().filter(|&n| n <= most) {
            for (p, block) in [(Protocol::Sc, 256), (Protocol::Hlrc, 4096)] {
                let cfg = RunConfig::new(p, block).with_nodes(nodes);
                let r = run_experiment(&cfg, small(name));
                let at = format!("{name} {p:?}@{block} at {nodes} nodes");
                assert!(r.check.is_ok(), "{at}: {:?}", r.check);
                assert!(r.speedup() > 0.0);
                assert_eq!(r.stats.per_node.len(), nodes);
            }
        }
    }
}

#[test]
fn degenerate_granularity_whole_space_in_blocks() {
    // Block size bigger than some app regions: one block holds everything
    // that false-shares. Must still verify under every protocol.
    for p in Protocol::ALL {
        let cfg = RunConfig::new(p, 8192);
        let r = run_experiment(&cfg, small("volrend-original"));
        assert!(r.check.is_ok(), "{p:?}@8192: {:?}", r.check);
    }
}

#[test]
fn mixed_mode_regions_verify_and_are_deterministic() {
    // Heterogeneous per-region policies in a single run: different
    // protocols at different granularities must coexist without breaking
    // the memory model (parallel result equals the sequential baseline)
    // and without perturbing determinism across repetitions.
    let cases: Vec<(&str, Protocol, usize, Vec<RegionPolicy>)> = vec![
        (
            "fft",
            Protocol::SwLrc,
            1024,
            vec![
                RegionPolicy::new("matrix0", Protocol::Sc, 256),
                RegionPolicy::new("matrix1", Protocol::Hlrc, 4096),
            ],
        ),
        (
            "ocean-original",
            Protocol::Sc,
            256,
            vec![
                RegionPolicy::new("interior", Protocol::Hlrc, 4096),
                RegionPolicy::new("boundary", Protocol::Sc, 256),
            ],
        ),
        (
            "volrend-rowwise",
            Protocol::Sc,
            64,
            vec![
                RegionPolicy::new("volume", Protocol::Sc, 1024),
                RegionPolicy::new("image", Protocol::Hlrc, 4096),
                RegionPolicy::new("queues", Protocol::SwLrc, 256),
            ],
        ),
        (
            "raytrace",
            Protocol::Hlrc,
            1024,
            vec![
                RegionPolicy::new("image", Protocol::SwLrc, 256),
                RegionPolicy::new("queues", Protocol::Sc, 64),
            ],
        ),
    ];
    for (name, proto, block, policies) in cases {
        let cfg = RunConfig::new(proto, block).with_region_policies(policies);
        let a = run_experiment(&cfg, small(name));
        assert!(a.check.is_ok(), "{name} mixed-mode: {:?}", a.check);
        // The run really is heterogeneous: at least two distinct
        // (protocol, granularity) combinations were active.
        let combos: std::collections::HashSet<(&str, usize)> = a
            .regions
            .iter()
            .map(|r| (r.protocol.name(), r.block))
            .collect();
        assert!(
            combos.len() >= 2,
            "{name}: expected heterogeneous regions, got {combos:?}"
        );
        // Bit-for-bit repeatable.
        let b = run_experiment(&cfg, small(name));
        assert_eq!(
            a.stats.parallel_time_ns, b.stats.parallel_time_ns,
            "{name}: mixed-mode run times differ across repetitions"
        );
        assert_eq!(
            a.stats.totals(),
            b.stats.totals(),
            "{name}: mixed-mode counters differ across repetitions"
        );
    }
}

#[test]
fn adaptive_runtime_verifies_on_small_apps() {
    // The full profile -> plan -> mixed-mode pipeline through the facade.
    for name in ["fft", "water-spatial", "barnes-original"] {
        let mut run = RunSpec::new(name, Protocol::Sc, 64);
        run.app.size = AppSize::Small;
        let program = run.program().unwrap();
        let plan = run.adapt(&program);
        let r = run_experiment(&run.to_config(), program);
        assert!(r.check.is_ok(), "{name} adaptive: {:?}", r.check);
        assert!(!plan.decisions.is_empty(), "{name}: no region decisions");
        assert!(plan.uniform_ns.is_finite() && plan.uniform_ns > 0.0);
        // barnes-original declares extra LRC synchronization; the engine
        // must respect it and stay with SC.
        if name == "barnes-original" {
            for d in &plan.decisions {
                assert_eq!(d.protocol, Protocol::Sc, "{name}: LRC chosen for {d:?}");
            }
        }
    }
}

#[test]
fn static_homes_verify_against_the_sequential_image() {
    // Statically assigned homes are the one configuration where a home
    // holds, serves and applies diffs to a block it was never granted: its
    // bytes must still start from the golden image.
    for app in ["lu", "fft", "barnes-original"] {
        for p in Protocol::ALL {
            let cfg = RunConfig::new(p, 1024).with_static_homes();
            let r = run_experiment(&cfg, small(app));
            assert!(r.check.is_ok(), "{app} {p:?}: {:?}", r.check);
        }
    }
}

#[test]
fn the_sequential_baseline_runs_on_the_runs_platform() {
    // A speedup divides two times from one machine: a dearer local access
    // slows the sequential baseline as well as the parallel run.
    let base = RunConfig::new(Protocol::Hlrc, 4096);
    let mut dear = base.clone();
    dear.cost.local_access_ns *= 2;
    let a = run_experiment(&base, small("lu"));
    let b = run_experiment(&dear, small("lu"));
    assert!(a.check.is_ok() && b.check.is_ok());
    assert!(b.stats.parallel_time_ns > a.stats.parallel_time_ns);
    assert!(
        b.stats.sequential_time_ns > a.stats.sequential_time_ns,
        "sequential {} ns at double the access cost vs {} ns",
        b.stats.sequential_time_ns,
        a.stats.sequential_time_ns
    );
}

#[test]
fn two_node_cluster_is_a_valid_degenerate_case() {
    for p in Protocol::ALL {
        let cfg = RunConfig::new(p, 256).with_nodes(2);
        let r = run_experiment(&cfg, small("water-nsquared"));
        assert!(r.check.is_ok(), "{p:?} on 2 nodes: {:?}", r.check);
    }
}

#[test]
fn parallel_sweep_matches_serial() {
    // The sweep executor fans independent deterministic simulations across
    // worker threads; the results must be bit-identical to a serial sweep,
    // in the same order. 2 apps x 2 protocols.
    use dsm_bench::sweep::run_cells;
    let mut runs = Vec::new();
    for app in ["lu", "water-nsquared"] {
        for p in ["sw-lrc", "hlrc"] {
            runs.push(format!("{app} {p} 1024 size=small").parse().unwrap());
        }
    }
    let serial = run_cells(&runs, 1);
    let parallel = run_cells(&runs, 4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.run, b.run);
        assert!(a.check_err.is_none(), "{}: {:?}", a.run, a.check_err);
        assert!(a.stats.sim_events > 0, "events metric must be populated");
        assert_eq!(
            a.stats.to_json().to_string(),
            b.stats.to_json().to_string(),
            "parallel cell {} diverged from serial",
            a.run
        );
    }
}
