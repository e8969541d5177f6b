//! Regenerate the paper's tables and figures and check its claims.
//!
//! ```text
//! report [--table ID]...
//! ```
//!
//! Runs the Standard grid once (on `DSM_BENCH_JOBS` workers, else all
//! cores), prints the chosen sections — all of them by default — and then
//! the claims they check, one line each. Exits 1 if any claim fails. An
//! unknown option or table id is a one-line message listing the valid ids,
//! and exit status 2, as is a `DSM_BENCH_JOBS` that is not a positive
//! integer.
use dsm_bench::cli::bad_arg;
use dsm_bench::report::SECTIONS;
use dsm_bench::{default_jobs, Grid};

fn main() {
    let ids: Vec<&str> = SECTIONS.iter().map(|(id, _)| *id).collect();
    let ids = ids.join(", ");
    let mut chosen = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a != "--table" {
            bad_arg(
                "report",
                format!("unknown option {a} (usage: report [--table ID]...; ids: {ids})"),
            );
        }
        let id = args.next().unwrap_or_default();
        match SECTIONS.iter().find(|(known, _)| *known == id) {
            Some(section) => chosen.push(section),
            None => bad_arg("report", format!("unknown table {id:?} (one of: {ids})")),
        }
    }
    if chosen.is_empty() {
        chosen = SECTIONS.iter().collect();
    }

    let grid = Grid::standard(default_jobs());
    let mut claims = Vec::new();
    for (_, section) in chosen {
        let s = section(&grid);
        println!("{}", s.text);
        claims.extend(s.claims);
    }
    println!("== Claims ==");
    for c in &claims {
        println!("{c}");
    }
    let failing = claims.iter().filter(|c| !c.holds).count();
    if failing > 0 {
        eprintln!("report: {failing} of {} claims fail", claims.len());
        std::process::exit(1);
    }
}
