//! Exhaustive mutation kill matrix under the model checker.
//!
//! The seeded kill matrix (`tests/mutation_kill.rs`) finds each planted
//! protocol bug on one stochastic run with a hand-picked seed. This matrix
//! is stronger: the model checker explores the schedule space of a
//! miniaturized 2-node program with the mutation armed at its *first
//! eligible occurrence on every schedule* ([`Mutation::first_occurrence_seed`])
//! and must find the planted bug on some explored schedule — no seed
//! search, no stochastic fault rates. Fabric mutations get their faults
//! from the exploration's own drop/duplicate/reorder branch points.

use dsm::mc::{explore, program, McConfig};
use dsm::proto::{MutFabric, MUTATIONS};

#[test]
fn every_mutation_dies_on_some_explored_schedule() {
    let mut failed = Vec::new();
    for spec in MUTATIONS.iter() {
        let (prog, budget) = match spec.fabric {
            MutFabric::Ideal => (program::kill_program(6, 2), 0),
            MutFabric::Dup | MutFabric::Reorder => (program::lock_pingpong(2), 1),
        };
        let cfg = McConfig::new(spec.protocol)
            .with_faults(budget)
            .with_mutation(spec.mutation);
        let report = explore(&cfg, &prog);
        let killed = report.violation_counts.contains_key(spec.rule);
        println!(
            "{:?} ({}): schedules={} executions={} killed={} counts={:?}",
            spec.mutation,
            spec.rule,
            report.schedules,
            report.executions(),
            killed,
            report.violation_counts
        );
        if !killed {
            failed.push(spec);
        }
    }
    assert!(
        failed.is_empty(),
        "mutations not killed by exhaustive exploration: {:?}",
        failed
            .iter()
            .map(|s| (s.mutation, s.rule))
            .collect::<Vec<_>>()
    );
}
