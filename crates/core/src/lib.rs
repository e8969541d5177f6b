#![warn(missing_docs)]

//! Public API of the DSM reproduction: configure a cluster, run a shared
//! memory program under a chosen protocol / granularity / notification
//! mechanism, and collect statistics.
//!
//! Programs implement [`DsmProgram`] — an `async` body per node; see
//! `examples/quickstart.rs` for the shape — and perform all shared accesses
//! through the [`Dsm`] handle, which has two interchangeable arms:
//!
//! * the parallel run-time ([`run_parallel`]): every node is a simulated
//!   cluster node; accesses go through the coherence protocol, and the body
//!   suspends wherever the node waits (all sixteen bodies of a run are
//!   resumed by one event loop on the caller's thread; [`run_parallel_mc`]
//!   is the same run with the model checker's hook on that loop);
//! * the sequential runner ([`run_sequential`]): the same program on one
//!   node against plain memory, which defines the speedup baseline exactly
//!   as the paper does (Table 1's sequential execution times). Nothing
//!   waits there, so the body runs to completion in one poll.

pub mod api;
pub mod image;
pub mod par;
pub mod runner;
pub mod seq;

pub use api::Dsm;
pub use image::MemImage;
pub use par::ParDsm;
pub use runner::{
    node_body, run_bodies, run_checked, run_experiment, run_parallel, run_parallel_mc,
    run_sequential, ExperimentResult, NodeBody, RegionPolicy, RegionReport, RunConfig, RunOutcome,
};
pub use seq::SeqDsm;

pub use dsm_fabric::{FabricConfig, FaultPlan, NiModel, RetryPolicy};
pub use dsm_net::{CostModel, LatencyModel, Notify};
pub use dsm_obs::schema;
pub use dsm_obs::{Counters, RunStats};
pub use dsm_proto::{Mutation, Protocol, RunChecker, Violation};
pub use dsm_sim::rng;
pub use dsm_sim::NodeFuture;

use std::sync::Arc;

/// A shared-memory program runnable under any protocol and granularity.
///
/// The program declares its shared-space size, initializes the golden image
/// (the pre-parallel-phase memory contents), and provides the per-node body.
/// The body learns its node id and the cluster size from the [`Dsm`] handle;
/// with a single node it must degenerate to the sequential algorithm, which
/// is how the speedup baseline is produced.
///
/// A body is `async` code returned as one boxed future per node per run —
/// `Box::pin(async move { .. })` — with `.await` on every [`Dsm`] operation.
/// It must not await anything else: the engine resumes a node when its
/// simulated wait is over, and nothing else ever wakes it.
pub trait DsmProgram: Send + Sync + 'static {
    /// Short name used in reports (e.g. `"lu"`).
    fn name(&self) -> String;

    /// Bytes of shared address space the program needs.
    fn shared_bytes(&self) -> usize;

    /// Write the initial contents of shared memory (runs unmodeled, before
    /// the parallel phase).
    fn init(&self, mem: &mut MemImage);

    /// Warm-up touch phase (the paper's "touch arrays"): programs touch
    /// the data they own so that first-touch homing and cold faults happen
    /// before measurement begins. Runs on every node, followed by a
    /// barrier and a statistics reset.
    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        let _ = d;
        Box::pin(std::future::ready(()))
    }

    /// The per-node program body.
    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a>;

    /// Named data regions of the shared space (advisory). Programs that
    /// declare regions can run mixed-mode — a different protocol ×
    /// granularity per region — and are eligible for per-region adaptation.
    /// The default (no hints) keeps the whole space as one region.
    fn regions(&self) -> Vec<RegionHint> {
        Vec::new()
    }

    /// Polling-instrumentation compute overhead for this application, in
    /// percent (paper §5.4: app-dependent, up to 55% for LU).
    fn poll_inflation_pct(&self) -> u32 {
        15
    }

    /// Number of locks the LRC-adapted version of the program uses beyond
    /// the SC version (for reporting only; the body itself decides what to
    /// call).
    fn uses_lrc_extra_sync(&self) -> bool {
        false
    }

    /// Verify a parallel result against the sequential result. The default
    /// requires bit-identical images; programs whose parallel reduction
    /// order differs override this with an epsilon comparison of the result
    /// region.
    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        // Layout padding differs with granularity; only the program-defined
        // region is comparable.
        let n = self.shared_bytes().min(seq.len()).min(par.len());
        match seq.bytes()[..n]
            .iter()
            .zip(&par.bytes()[..n])
            .position(|(a, b)| a != b)
        {
            None => Ok(()),
            Some(i) => Err(format!("images differ at byte {i:#x}")),
        }
    }
}

/// Shared-pointer alias used by the runner.
pub type Program = Arc<dyn DsmProgram>;

/// A named sub-range of a program's shared space that can carry its own
/// coherence policy (protocol × granularity) in mixed-mode runs.
///
/// Hints are advisory: the runner snaps region starts down to a common
/// alignment so every region span is a multiple of every legal block size,
/// and address space not covered by any hint joins the preceding region (or
/// an implicit head region under the run's default policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionHint {
    /// Region name, matched against [`runner::RegionPolicy`] names.
    pub name: String,
    /// Start address within the shared space.
    pub addr: usize,
    /// Length in bytes.
    pub len: usize,
}

impl RegionHint {
    /// Convenience constructor.
    pub fn new(name: &str, addr: usize, len: usize) -> Self {
        RegionHint {
            name: name.to_string(),
            addr,
            len,
        }
    }
}

/// Store-touch every 64-byte unit of `[addr, addr+len)`: the classic
/// touch-array idiom that claims first-touch homes and warms access state.
pub async fn touch_region(d: &mut Dsm, addr: usize, len: usize) {
    let mut off = 0;
    while off < len {
        let a = addr + off;
        let chunk = (len - off).min(8);
        if chunk == 8 {
            let v = d.read_u64(a).await;
            d.write_u64(a, v).await;
        } else {
            let v = d.read_u8(a).await;
            d.write_u8(a, v).await;
        }
        off += 64;
    }
}
