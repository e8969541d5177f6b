//! Model identity: a digest of each operation's modeled result at seed 1,
//! pinned in `perf/golden.json`.
//!
//! A simulator-speed change must leave every modeled number as it was.
//! The digest covers `sim_events`, both modeled times and, per node, every
//! counter that exists at the commit that defined the benchmark — by name,
//! so a later commit that *adds* a counter keeps its digests, and one that
//! changes or drops a pinned counter does not.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dsm_core::RunStats;
use dsm_json::Value;

/// The per-node counters the digest covers.
const PINNED_COUNTERS: [&str; 39] = [
    "read_faults",
    "write_faults",
    "local_write_faults",
    "msgs_sent",
    "ctrl_bytes",
    "data_bytes",
    "fetches_served",
    "twins_created",
    "diffs_created",
    "diff_bytes",
    "diffs_applied",
    "write_notices_sent",
    "write_notices_recv",
    "invalidations",
    "lease_renewals",
    "lease_expiries",
    "wts_bumps",
    "lock_acquires",
    "remote_lock_acquires",
    "barriers",
    "lock_wait_ns",
    "barrier_wait_ns",
    "read_stall_ns",
    "write_stall_ns",
    "compute_ns",
    "poll_overhead_ns",
    "proto_local_ns",
    "occupancy_stolen_ns",
    "interrupts_taken",
    "service_ns",
    "twin_bytes_peak",
    "fabric_frames",
    "fabric_retries",
    "fabric_exhausted",
    "fabric_drops",
    "fabric_dups",
    "fabric_dup_drops",
    "fabric_acks",
    "fabric_queue_ns",
];

/// FNV-1a over a sequence of `u64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one number in.
    pub fn push(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one run's modeled result in. A pinned counter the run no
    /// longer reports reads as `u64::MAX`, which no count reaches.
    pub fn push_stats(&mut self, stats: &RunStats) {
        self.push(stats.sim_events);
        self.push(stats.parallel_time_ns);
        self.push(stats.sequential_time_ns);
        for node in &stats.per_node {
            let json = node.to_json();
            for name in PINNED_COUNTERS {
                self.push(json.u64_field(name).unwrap_or(u64::MAX));
            }
        }
    }
}

/// The committed digests, compiled in so a run reads no file.
const COMMITTED: &str = include_str!("../golden.json");

/// Where `bless` writes.
pub fn path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// `<workload>/<operation>` → digest.
pub type Golden = BTreeMap<String, u64>;

/// Parse a golden file: one object of 16-digit hex strings.
pub fn parse(text: &str) -> Result<Golden, String> {
    let Value::Obj(fields) = Value::parse(text).map_err(|e| format!("golden.json: {e}"))? else {
        return Err("golden.json: not an object".to_string());
    };
    fields
        .into_iter()
        .map(|(k, v)| {
            let d = v
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("golden.json: {k}: not a hex digest"))?;
            Ok((k, d))
        })
        .collect()
}

/// The digests committed with this build.
pub fn committed() -> Result<Golden, String> {
    parse(COMMITTED)
}

/// The file `bless` writes for `golden`.
pub fn render(golden: &Golden) -> String {
    let mut out = String::from("{\n");
    for (i, (k, d)) in golden.iter().enumerate() {
        let comma = if i + 1 < golden.len() { "," } else { "" };
        writeln!(out, "  \"{k}\": \"{d:016x}\"{comma}").expect("write to String");
    }
    out.push_str("}\n");
    out
}
