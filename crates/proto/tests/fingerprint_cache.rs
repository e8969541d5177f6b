//! The model checker's state fingerprint is a function of the state alone.
//! Every component of a world and of its checker caches its fingerprint
//! until its next mutable borrow, so a run fingerprinted at every step
//! carries caches that one fingerprinted once never builds; the values must
//! not show the difference.

use std::cell::RefCell;
use std::rc::Rc;

use dsm_core::{run_parallel_mc, Dsm, DsmProgram, FabricConfig, MemImage, NodeFuture, RunConfig};
use dsm_proto::{Packet, ProtoWorld, Protocol};
use dsm_sim::{McChoices, McHook, Time};

/// Three nodes that take a lock to bump a counter, write a word of their
/// own, meet at a barrier and read a neighbour's word.
struct Script;

impl DsmProgram for Script {
    fn name(&self) -> String {
        "fingerprint-script".into()
    }

    fn shared_bytes(&self) -> usize {
        4096
    }

    fn init(&self, mem: &mut MemImage) {
        mem.write_u64(0, 7);
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let me = d.node();
            d.lock(0).await;
            let v = d.read_u64(0).await;
            d.write_u64(0, v + 1).await;
            d.unlock(0).await;
            d.write_u64(1024 + 256 * me, me as u64 + 1).await;
            d.barrier(1).await;
            let next = (me + 1) % d.num_nodes();
            assert_eq!(d.read_u64(1024 + 256 * next).await, next as u64 + 1);
        })
    }
}

/// The serial-order schedule (always the first choice), fingerprinting the
/// world at the commit points `at` names — every one when `None`.
struct Probe {
    at: Option<usize>,
    step: usize,
    seen: Rc<RefCell<Vec<(usize, u64)>>>,
}

impl McHook<ProtoWorld> for Probe {
    fn choose(
        &mut self,
        world: &ProtoWorld,
        _engine_hash: &mut dyn FnMut() -> u64,
        _at: Time,
        _choices: &McChoices<'_, Packet>,
    ) -> Option<usize> {
        if self.at.is_none_or(|at| at == self.step) {
            let fp = world.mc_fingerprint();
            self.seen.borrow_mut().push((self.step, fp));
        }
        self.step += 1;
        Some(0)
    }
}

/// Run the script under `cfg` with a probe at `at`: the fingerprints taken.
fn probe(cfg: &RunConfig, at: Option<usize>) -> Vec<(usize, u64)> {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let hook = Probe {
        at,
        step: 0,
        seen: Rc::clone(&seen),
    };
    let out = run_parallel_mc(cfg, &Script, Box::new(hook), None).expect("the script completes");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    seen.take()
}

#[test]
fn a_world_fingerprinted_at_every_step_ends_where_one_fingerprinted_once_does() {
    let fabrics = [
        FabricConfig::ideal(),
        FabricConfig::parse("faulty,seed=0,drop=0,dup=0,reorder=0,spike=0").unwrap(),
    ];
    for p in Protocol::ALL {
        for fabric in &fabrics {
            let cfg = RunConfig::new(p, 256)
                .with_nodes(3)
                .with_fabric(fabric.clone())
                .with_check();
            let every = probe(&cfg, None);
            let &(last, fp) = every.last().expect("commit points");
            let mut distinct: Vec<u64> = every.iter().map(|&(_, fp)| fp).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() > every.len() / 2, "{p:?}: the state moves");
            let reliable = fabric.reliable();
            assert_eq!(
                probe(&cfg, Some(last)),
                [(last, fp)],
                "{p:?}, reliable fabric {reliable}"
            );
        }
    }
}
