//! Literal legality oracles over one explored execution's trace.
//!
//! These are intentionally *independent* of the protocol implementation:
//! they re-derive what values each read was allowed to return straight from
//! the consistency model's definition, using only the value-carrying trace
//! (program order per node + observed values) and the program's initial
//! memory. Disagreement between an oracle and the run is reported as a
//! [`Violation`] and means the protocol returned a value its own
//! consistency contract forbids — regardless of what the mirror-based
//! invariant checkers in `dsm-check` think.
//!
//! Two oracles:
//!
//! * [`witness_check`] — sequential consistency by exhaustive witness
//!   search: is there *any* interleaving of the per-node operation
//!   sequences, respecting lock exclusion and barrier rendezvous, under
//!   which every read returns the value it actually observed? Sound and
//!   complete for SC; also applied to Tardis, whose logical-timestamp
//!   order must embed into a sequential witness for data-race-free
//!   programs.
//! * [`hb_check`] — (lazy) release consistency: every read that is *not*
//!   involved in a data race must return the value of the unique
//!   happens-before-maximal write before it (or the initial value). Racy
//!   reads are skipped — the happens-before race detector already flags
//!   them on whatever schedule exposes the race.

use std::collections::BTreeMap;

use dsm_proto::Violation;
use dsm_sim::rng::{StableHasher, StableSet};

use crate::program::{MicroProgram, TraceEv};

/// Rule id reported when no sequential witness exists.
pub const RULE_WITNESS: &str = "mc-sc-witness";
/// Rule id reported when a race-free read returns a non-hb-latest value.
pub const RULE_HB_VALUE: &str = "mc-hb-value";

fn violation(rule: &'static str, node: usize, detail: String) -> Violation {
    Violation {
        rule,
        node,
        block: None,
        time: 0,
        detail,
    }
}

/// Split the global trace into per-node sequences (program order).
fn per_node(trace: &[TraceEv], nodes: usize) -> Vec<Vec<TraceEv>> {
    let mut seqs = vec![Vec::new(); nodes];
    for ev in trace {
        seqs[ev.node()].push(*ev);
    }
    seqs
}

/// Exhaustive sequential-witness search with memoization on the
/// (positions, memory, lock-holder) state. Returns `None` when a witness
/// exists, or a violation describing the unsatisfiable trace.
pub fn witness_check(prog: &MicroProgram, trace: &[TraceEv]) -> Option<Violation> {
    let seqs = per_node(trace, prog.nodes());
    let mut mem: BTreeMap<usize, u64> = prog.init.iter().map(|&(a, v)| (a, v)).collect();
    let mut st = Search {
        seqs: &seqs,
        seen: StableSet::default(),
    };
    let mut pcs = vec![0usize; prog.nodes()];
    let mut locks: BTreeMap<usize, usize> = BTreeMap::new();
    if st.dfs(&mut pcs, &mut mem, &mut locks) {
        return None;
    }
    let n = trace.first().map_or(0, |e| e.node());
    Some(violation(
        RULE_WITNESS,
        n,
        format!(
            "no sequential witness for {}-event trace: {:?}",
            trace.len(),
            trace
        ),
    ))
}

struct Search<'a> {
    seqs: &'a [Vec<TraceEv>],
    seen: StableSet<u64>,
}

impl Search<'_> {
    fn dfs(
        &mut self,
        pcs: &mut [usize],
        mem: &mut BTreeMap<usize, u64>,
        locks: &mut BTreeMap<usize, usize>,
    ) -> bool {
        if pcs.iter().zip(self.seqs).all(|(&pc, seq)| pc == seq.len()) {
            return true;
        }
        let fp = StableHasher::fingerprint(&(&*pcs, &*mem, &*locks));
        if !self.seen.insert(fp) {
            return false; // already refuted from this state
        }
        for node in 0..pcs.len() {
            let Some(ev) = self.seqs[node].get(pcs[node]) else {
                continue;
            };
            match *ev {
                TraceEv::Read { addr, val, .. } => {
                    let cur = mem.get(&addr).copied().unwrap_or(0);
                    if cur == val {
                        pcs[node] += 1;
                        if self.dfs(pcs, mem, locks) {
                            return true;
                        }
                        pcs[node] -= 1;
                    }
                }
                TraceEv::Write { addr, val, .. } => {
                    let old = mem.insert(addr, val);
                    pcs[node] += 1;
                    if self.dfs(pcs, mem, locks) {
                        return true;
                    }
                    pcs[node] -= 1;
                    match old {
                        Some(v) => mem.insert(addr, v),
                        None => mem.remove(&addr),
                    };
                }
                TraceEv::Lock { lock, .. } => {
                    if let std::collections::btree_map::Entry::Vacant(e) = locks.entry(lock) {
                        e.insert(node);
                        pcs[node] += 1;
                        if self.dfs(pcs, mem, locks) {
                            return true;
                        }
                        pcs[node] -= 1;
                        locks.remove(&lock);
                    }
                }
                TraceEv::Unlock { lock, .. } => {
                    debug_assert_eq!(locks.get(&lock), Some(&node));
                    locks.remove(&lock);
                    pcs[node] += 1;
                    if self.dfs(pcs, mem, locks) {
                        return true;
                    }
                    pcs[node] -= 1;
                    locks.insert(lock, node);
                }
                // Barrier rendezvous is a global step, tried once below.
                TraceEv::BarPass { .. } => {}
            }
        }
        // Barrier rendezvous: executable only when every node's next op is
        // the same barrier; fires as one global step (trying it per waiting
        // node would just repeat it).
        if let Some(TraceEv::BarPass { bar, .. }) = self.seqs[0].get(pcs[0]) {
            let all_here = (0..pcs.len()).all(|j| {
                matches!(self.seqs[j].get(pcs[j]),
                    Some(TraceEv::BarPass { bar: b, .. }) if b == bar)
            });
            if all_here {
                for pc in pcs.iter_mut() {
                    *pc += 1;
                }
                if self.dfs(pcs, mem, locks) {
                    return true;
                }
                for pc in pcs.iter_mut() {
                    *pc -= 1;
                }
            }
        }
        false
    }
}

/// Happens-before value check for the LRC protocols. Builds the
/// happens-before relation from the trace (program order, lock
/// release→acquire in trace order, barrier episodes as all-to-all joins),
/// then checks every race-free read against its unique hb-maximal write.
pub fn hb_check(prog: &MicroProgram, trace: &[TraceEv]) -> Vec<Violation> {
    let nodes = prog.nodes();
    // Per-event vector clocks, built in one pass over the (topologically
    // sorted) trace. node_vc[n][m] = number of events of node m known to
    // happen-before-or-at node n's current point.
    let mut node_vc = vec![vec![0u32; nodes]; nodes];
    let mut lock_vc: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    // Barrier episodes: when the first pass of an episode is processed,
    // every node has already arrived (the engine releases nobody early), so
    // the join of all current node clocks is the episode's release clock.
    let mut bar_pending: BTreeMap<usize, (Vec<u32>, usize)> = BTreeMap::new();
    let mut evc: Vec<Vec<u32>> = Vec::with_capacity(trace.len());

    fn join(a: &mut [u32], b: &[u32]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x = (*x).max(*y);
        }
    }

    for ev in trace {
        let n = ev.node();
        match *ev {
            TraceEv::Lock { lock, .. } => {
                if let Some(rel) = lock_vc.get(&lock) {
                    let rel = rel.clone();
                    join(&mut node_vc[n], &rel);
                }
            }
            TraceEv::BarPass { bar, .. } => {
                let (release, done) = {
                    let entry = bar_pending.entry(bar).or_insert_with(|| {
                        let mut all = vec![0u32; nodes];
                        for vc in node_vc.iter() {
                            join(&mut all, vc);
                        }
                        (all, nodes)
                    });
                    entry.1 -= 1;
                    (entry.0.clone(), entry.1 == 0)
                };
                if done {
                    bar_pending.remove(&bar);
                }
                join(&mut node_vc[n], &release);
            }
            _ => {}
        }
        node_vc[n][n] += 1;
        evc.push(node_vc[n].clone());
        if let TraceEv::Unlock { lock, .. } = *ev {
            lock_vc.insert(lock, node_vc[n].clone());
        }
    }

    // e1 happens-before-or-at e2?
    let hb = |e1: usize, e2: usize| -> bool {
        let n1 = trace[e1].node();
        evc[e2][n1] >= evc[e1][n1]
    };

    let mut out = Vec::new();
    for (r, ev) in trace.iter().enumerate() {
        let TraceEv::Read { node, addr, val } = *ev else {
            continue;
        };
        let writes: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(w, e)| *w != r && matches!(e, TraceEv::Write { addr: a, .. } if *a == addr))
            .map(|(w, _)| w)
            .collect();
        // Skip racy reads: the race detector owns those.
        if writes.iter().any(|&w| !hb(w, r) && !hb(r, w)) {
            continue;
        }
        let before: Vec<usize> = writes.iter().copied().filter(|&w| hb(w, r)).collect();
        let expected = match before
            .iter()
            .copied()
            .find(|&m| before.iter().all(|&w| hb(w, m)))
        {
            Some(m) => match trace[m] {
                TraceEv::Write { val, .. } => val,
                _ => unreachable!(),
            },
            // No unique hb-maximal write: the writes race each other;
            // skip (detector territory). With an empty set, the read must
            // see the initial value.
            None if before.is_empty() => prog.initial(addr),
            None => continue,
        };
        if val != expected {
            out.push(violation(
                RULE_HB_VALUE,
                node,
                format!(
                    "read of addr {addr} returned {val:#x}, happens-before requires {expected:#x}"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::msg_pass;

    fn mk(prog_threads: usize) -> MicroProgram {
        MicroProgram {
            name: "t".into(),
            shared_bytes: 4096,
            init: vec![(0, 5)],
            threads: vec![Vec::new(); prog_threads],
        }
    }

    #[test]
    fn witness_accepts_serial_trace() {
        let prog = mk(2);
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 9,
            },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 9,
            },
        ];
        assert!(witness_check(&prog, &trace).is_none());
    }

    #[test]
    fn witness_accepts_reordered_reads() {
        // Node 1 read 5 (the initial value): legal iff its read is ordered
        // before node 0's write in the witness.
        let prog = mk(2);
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 9,
            },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 5,
            },
        ];
        assert!(witness_check(&prog, &trace).is_none());
    }

    #[test]
    fn witness_rejects_impossible_value() {
        let prog = mk(2);
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 9,
            },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 3,
            },
        ];
        let v = witness_check(&prog, &trace).expect("must reject");
        assert_eq!(v.rule, RULE_WITNESS);
    }

    #[test]
    fn witness_rejects_fresh_value_then_stale() {
        // Same node reads 9 then 5 with no interleaved write: no witness.
        let prog = mk(2);
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 9,
            },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 9,
            },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 5,
            },
        ];
        assert!(witness_check(&prog, &trace).is_some());
    }

    #[test]
    fn witness_respects_barriers() {
        // Read after the barrier must see the pre-barrier write.
        let prog = mk(2);
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 9,
            },
            TraceEv::BarPass { node: 0, bar: 0 },
            TraceEv::BarPass { node: 1, bar: 0 },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 5,
            },
        ];
        assert!(witness_check(&prog, &trace).is_some());
    }

    #[test]
    fn hb_accepts_barrier_ordered_value() {
        let prog = msg_pass();
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 41,
            },
            TraceEv::BarPass { node: 0, bar: 0 },
            TraceEv::BarPass { node: 1, bar: 0 },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 41,
            },
        ];
        assert!(hb_check(&prog, &trace).is_empty());
    }

    #[test]
    fn hb_rejects_stale_read_past_barrier() {
        let prog = msg_pass();
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 41,
            },
            TraceEv::BarPass { node: 0, bar: 0 },
            TraceEv::BarPass { node: 1, bar: 0 },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 7,
            },
        ];
        let v = hb_check(&prog, &trace);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_HB_VALUE);
    }

    #[test]
    fn hb_orders_through_locks() {
        let prog = mk(2);
        let trace = vec![
            TraceEv::Lock { node: 0, lock: 0 },
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 1,
            },
            TraceEv::Unlock { node: 0, lock: 0 },
            TraceEv::Lock { node: 1, lock: 0 },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 5,
            },
            TraceEv::Unlock { node: 1, lock: 0 },
        ];
        let v = hb_check(&prog, &trace);
        assert_eq!(v.len(), 1, "stale read under lock chain must be flagged");
    }

    #[test]
    fn hb_skips_racy_reads() {
        let prog = mk(2);
        let trace = vec![
            TraceEv::Write {
                node: 0,
                addr: 0,
                val: 1,
            },
            TraceEv::Read {
                node: 1,
                addr: 0,
                val: 999,
            },
        ];
        assert!(hb_check(&prog, &trace).is_empty(), "racy read is skipped");
    }
}
