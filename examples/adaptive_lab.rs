//! Adaptive lab: run one application three ways — the worst fixed
//! protocol × granularity combination, the best fixed combination, and the
//! adaptive per-region runtime — and show what the policy engine decided
//! and why.
//!
//! ```sh
//! cargo run --release --example adaptive_lab -- fft
//! cargo run --release --example adaptive_lab -- barnes-original
//! ```

use dsm::adapt::{choose_policies, profile_run, CANDIDATE_BLOCKS};
use dsm::{run_experiment, Protocol, RunConfig};
use dsm_apps::registry::{all_app_names, app};
use dsm_bench::table::Table;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "fft".into());
    if app(&name).is_none() {
        eprintln!("unknown application '{name}'. Available:");
        for n in all_app_names() {
            eprintln!("  {n}");
        }
        std::process::exit(1);
    }

    // Sweep the fixed grid for the baselines.
    println!("sweeping the fixed protocol x granularity grid for {name} ...");
    let mut best = (Protocol::Sc, 0usize, f64::INFINITY);
    let mut worst = (Protocol::Sc, 0usize, 0.0f64);
    let mut seq_ns = 0u64;
    for p in Protocol::ALL {
        for g in CANDIDATE_BLOCKS {
            let r = run_experiment(&RunConfig::new(p, g), app(&name).unwrap());
            assert!(r.check.is_ok(), "{p:?}@{g}: {:?}", r.check);
            let t = r.stats.parallel_time_ns as f64;
            seq_ns = r.stats.sequential_time_ns;
            if t < best.2 {
                best = (p, g, t);
            }
            if t > worst.2 {
                worst = (p, g, t);
            }
        }
    }

    // Profile once at SC @ 64 and let the policy engine decide per region.
    println!("profiling {name} at SC @ 64 and planning per-region policies ...\n");
    let program = app(&name).unwrap();
    let base = RunConfig::new(Protocol::Sc, 64);
    let data = profile_run(&program);
    let plan = choose_policies(&program, &data, &base);

    println!("per-region decisions:");
    let mut t = Table::new(&[
        "Region",
        "bytes",
        "policy",
        "writers",
        "readers",
        "multi-wr units",
        "predicted ms",
    ]);
    for d in &plan.decisions {
        t.row(&[
            d.profile.name.clone(),
            format!("{}", d.profile.len),
            format!("{}@{}", d.protocol.name(), d.block),
            format!("{}", d.profile.writer_nodes),
            format!("{}", d.profile.reader_nodes),
            format!("{}", d.profile.multi_writer_units),
            format!("{:.1}", d.predicted_ns / 1e6),
        ]);
    }
    println!("{}", t.render());
    if plan.mixed {
        println!(
            "plan mixes policies per region (predicted {:.1}ms vs uniform {:.1}ms)",
            plan.per_region_ns / 1e6,
            plan.uniform_ns / 1e6
        );
    } else {
        println!(
            "plan falls back to the uniform winner {}@{} (mixing predicted no clear win)",
            plan.uniform.0.name(),
            plan.uniform.1
        );
    }

    // Run the adaptive configuration.
    let r = run_experiment(&plan.apply(base), program);
    assert!(r.check.is_ok(), "adaptive: {:?}", r.check);
    let t_adapt = r.stats.parallel_time_ns as f64;

    println!(
        "\n{name} three ways (sequential baseline {:.1}ms):",
        seq_ns as f64 / 1e6
    );
    let mut t = Table::new(&["Configuration", "parallel ms", "speedup", "vs worst"]);
    for (label, p, g, time) in [
        ("worst fixed", Some(worst.0), worst.1, worst.2),
        ("best fixed", Some(best.0), best.1, best.2),
        ("adaptive", None, 0, t_adapt),
    ] {
        let cfg_name = match p {
            Some(p) => format!("{label} ({}@{})", p.name(), g),
            None => {
                if plan.mixed {
                    format!("{label} (per-region)")
                } else {
                    format!("{label} ({}@{})", plan.uniform.0.name(), plan.uniform.1)
                }
            }
        };
        t.row(&[
            cfg_name,
            format!("{:.1}", time / 1e6),
            format!("{:.2}", seq_ns as f64 / time),
            format!("{:.2}x", worst.2 / time),
        ]);
    }
    println!("{}", t.render());
}
