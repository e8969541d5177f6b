//! The Figure-1 grid, pinned: every modelled number of every cell against a
//! committed fixture.
//!
//! `tests/fixtures/fig1_golden.txt` holds one line per configuration —
//! `app protocol block config sim_events parallel_time_ns sequential_time_ns
//! fnv1a64(RunStats::to_json())` — for all 192 cells (12 applications × 4
//! protocols × 4 granularities) at `AppSize::Small`, plus the hooks-on
//! configurations: fft and water-spatial under every protocol @256 with the
//! checker and span tracing, and lu under HLRC and SW-LRC @1024 on a faulty
//! fabric with the checker. It was captured from the threaded engine (one OS
//! thread per node) immediately before that engine was deleted, and is the
//! reference the event loop is held to: any modelled drift, in any cell,
//! fails here. `bless` is the only writer.

use dsm::{run_experiment, FabricConfig, Protocol, RunConfig};
use dsm_apps::registry::{app_sized, AppSize};
use dsm_bench::sweep::{default_jobs, GRANULARITIES};
use dsm_scenario::exec::pool_map;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/fig1_golden.txt"
);

/// 64-bit FNV-1a. Local on purpose: the fixture must not move when the
/// simulator's own hashers do.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every pinned configuration, in fixture order.
fn cells() -> Vec<(&'static str, Protocol, usize, &'static str)> {
    let mut cells = Vec::new();
    for app in dsm_apps::all_app_names() {
        for p in Protocol::ALL {
            for g in GRANULARITIES {
                cells.push((app, p, g, "plain"));
            }
        }
    }
    for app in ["fft", "water-spatial"] {
        for p in Protocol::ALL {
            cells.push((app, p, 256, "check+spans"));
        }
    }
    for p in [Protocol::Hlrc, Protocol::SwLrc] {
        cells.push(("lu", p, 1024, "faulty7+check"));
    }
    cells
}

/// Run one configuration and render its fixture line. Verification and the
/// checker are asserted here, so a line only ever describes a correct run.
fn line(app: &str, p: Protocol, block: usize, config: &str) -> String {
    let cfg = RunConfig::new(p, block);
    let cfg = match config {
        "plain" => cfg,
        "check+spans" => cfg.with_check().with_spans(),
        "faulty7+check" => cfg.with_fabric(FabricConfig::faulty(7)).with_check(),
        other => unreachable!("unknown configuration {other}"),
    };
    let r = run_experiment(&cfg, app_sized(app, AppSize::Small).expect("app"));
    assert!(
        r.check.is_ok(),
        "{app} {p:?}@{block} {config}: {:?}",
        r.check
    );
    assert!(
        r.violations.is_empty(),
        "{app} {p:?}@{block} {config}: {:?}",
        r.violations
    );
    format!(
        "{app} {} {block} {config} {} {} {} {:016x}",
        p.name(),
        r.stats.sim_events,
        r.stats.parallel_time_ns,
        r.stats.sequential_time_ns,
        fnv1a64(r.stats.to_json().to_string().as_bytes())
    )
}

fn render() -> Vec<String> {
    let cells = cells();
    pool_map(cells.len(), default_jobs().min(4), |i| {
        let (app, p, block, config) = cells[i];
        line(app, p, block, config)
    })
}

#[test]
fn every_cell_matches_the_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let want: Vec<&str> = text.lines().collect();
    let got = render();
    assert_eq!(got.len(), 192 + 8 + 2);
    assert_eq!(got.len(), want.len(), "fixture has a line per cell");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "modelled drift (left: this build, right: fixture)");
    }
}

#[test]
#[ignore = "rewrites the fixture; run deliberately, and say why in the PR"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, render().join("\n") + "\n").unwrap();
}
