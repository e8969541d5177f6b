//! Protocol shootout: run one of the paper's applications across the full
//! protocol × granularity grid and print its Figure-1 row.
//!
//! ```sh
//! cargo run --release --example protocol_shootout -- raytrace
//! cargo run --release --example protocol_shootout -- barnes-original
//! ```

use dsm::{run_experiment, Protocol, RunConfig, GRANULARITIES};
use dsm_apps::registry::{all_app_names, app};
use dsm_bench::table::Table;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "raytrace".into());
    if app(&name).is_none() {
        eprintln!("unknown application '{name}'. Available:");
        for n in all_app_names() {
            eprintln!("  {n}");
        }
        std::process::exit(1);
    }

    println!("speedups for {name} on a simulated 16-node cluster (polling):\n");
    let mut t = Table::new(&["Protocol", "64 B", "256 B", "1024 B", "4096 B"]);
    let mut best = (0.0f64, "", 0usize);
    for p in Protocol::ALL {
        let mut row = vec![p.name().to_string()];
        for g in GRANULARITIES {
            let r = run_experiment(&RunConfig::new(p, g), app(&name).unwrap());
            assert!(r.check.is_ok(), "verification failed: {:?}", r.check);
            let s = r.speedup();
            if s > best.0 {
                best = (s, p.name(), g);
            }
            row.push(format!("{s:.2}"));
        }
        t.row(&row);
    }
    println!("{}", t.render());
    println!(
        "best combination: {} @ {} B (speedup {:.2})",
        best.1, best.2, best.0
    );
}
