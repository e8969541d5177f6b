//! The paper's headline results, held as named claims on the Standard grid:
//! every section of `dsm_bench::report` is built from one grid and every
//! claim must hold. `report` prints the same sections and claims.
//!
//! Release only: a debug Standard cell is 10–14× slower than a release one,
//! which would add minutes to the debug test run.

use std::time::Instant;

use dsm_bench::report::SECTIONS;
use dsm_bench::{default_jobs, Grid};

#[test]
#[cfg_attr(debug_assertions, ignore = "Standard grid; run with --release")]
fn every_paper_claim_holds() {
    let started = Instant::now();
    let grid = Grid::standard(default_jobs());
    let mut claims = Vec::new();
    for (id, section) in SECTIONS {
        let s = section(&grid);
        assert_eq!(s.id, id);
        assert!(!s.claims.is_empty(), "section {id} has no claim");
        claims.extend(s.claims);
    }
    for c in &claims {
        println!("{c}");
    }
    let mut ids: Vec<&str> = claims.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), claims.len(), "a claim id repeats");

    let failing: Vec<String> = claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| c.to_string())
        .collect();
    assert!(
        failing.is_empty(),
        "{} of {} claims fail:\n{}",
        failing.len(),
        claims.len(),
        failing.join("\n")
    );
    println!(
        "{} claims hold ({} jobs, {:.1} s)",
        claims.len(),
        default_jobs(),
        started.elapsed().as_secs_f64()
    );
}
