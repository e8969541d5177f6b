//! Run configuration: the protocol, and everything else one run is built
//! from.

use dsm_fabric::FabricConfig;
use dsm_net::{CostModel, Notify};
use dsm_obs::ObsConfig;

use crate::mutate::Mutation;

/// The three consistency protocols studied in the paper, plus the
/// timestamp-lease protocol (Tardis 2.0) added as a fourth peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Sequential consistency (Stache-style directory, §2.1).
    Sc,
    /// Single-writer lazy release consistency (§2.2).
    SwLrc,
    /// Home-based lazy release consistency (§2.3).
    Hlrc,
    /// Timestamp-lease coherence (Tardis 2.0): logical read leases and
    /// per-block write timestamps instead of sharer lists and
    /// invalidations.
    Tardis,
}

impl Protocol {
    /// All protocols in presentation order.
    pub const ALL: [Protocol; 4] = [
        Protocol::Sc,
        Protocol::SwLrc,
        Protocol::Hlrc,
        Protocol::Tardis,
    ];

    /// Short name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Sc => "SC",
            Protocol::SwLrc => "SW-LRC",
            Protocol::Hlrc => "HLRC",
            Protocol::Tardis => "TARDIS",
        }
    }

    /// True for the two release-consistent protocols (vector-time interval
    /// machinery and write-notice transport). Tardis is *not* LRC: it is
    /// release-consistent in the memory-model sense but carries scalar
    /// timestamps instead of vector times and publishes no write notices.
    pub fn is_lrc(self) -> bool {
        matches!(self, Protocol::SwLrc | Protocol::Hlrc)
    }
}

impl std::str::FromStr for Protocol {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Ok(Protocol::Sc),
            "sw-lrc" | "swlrc" | "sw" => Ok(Protocol::SwLrc),
            "hlrc" | "hl" => Ok(Protocol::Hlrc),
            "tardis" | "td" => Ok(Protocol::Tardis),
            _ => Err(format!(
                "unknown protocol {s:?} (one of: sc, sw-lrc, hlrc, tardis)"
            )),
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The coherence policy assigned to one named region in a mixed-mode run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPolicy {
    /// Region name (matched against the program's region hints).
    pub name: String,
    /// Consistency protocol for the region.
    pub protocol: Protocol,
    /// Coherence granularity for the region, in bytes.
    pub block: usize,
}

impl RegionPolicy {
    /// Convenience constructor.
    pub fn new(name: &str, protocol: Protocol, block: usize) -> Self {
        RegionPolicy {
            name: name.to_string(),
            protocol,
            block,
        }
    }
}

/// Configuration of one parallel run: everything a protocol world is built
/// from besides its [`dsm_mem::Layout`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Cluster size (the paper's testbed: 16).
    pub nodes: usize,
    /// Coherence granularity in bytes (64 / 256 / 1024 / 4096).
    pub block_size: usize,
    /// Consistency protocol.
    pub protocol: Protocol,
    /// Per-region policy overrides. Empty = uniform run: one region under
    /// (`protocol`, `block_size`). Non-empty = mixed mode: the program's
    /// region hints become layout regions, each under its matching policy
    /// (unmatched regions fall back to the run's defaults; see
    /// [`RunConfig::policy_of`]).
    pub region_policies: Vec<RegionPolicy>,
    /// Record a complete per-64-byte-unit sharing profile (used by the
    /// adaptive runtime's profiling pass). Unlike the event rings this never
    /// drops.
    pub profile: bool,
    /// Message notification mechanism.
    pub notify: Notify,
    /// Platform cost constants.
    pub cost: CostModel,
    /// First-touch home migration (paper policy). False = static
    /// round-robin homes, the ablation baseline.
    pub first_touch: bool,
    /// Observability: event recording configuration.
    pub obs: ObsConfig,
    /// Network fabric model: NI occupancy, contention, fault injection and
    /// retransmission. The default ([`FabricConfig::ideal`]) reproduces the
    /// analytic fire-and-forget network bit-for-bit.
    pub fabric: FabricConfig,
    /// Install the happens-before race detector and protocol invariant
    /// checker ([`crate::RunChecker`]) on the run. Off by default
    /// ([`RunConfig::with_check`] turns it on); off means zero checking
    /// cost and bit-identical results to a build without the checker.
    pub check: bool,
    /// Deliberate protocol mutation for checker self-tests: which mutation
    /// and the seed selecting the occurrence (see [`crate::mutate`]). `None`
    /// (the default) runs the protocols as written.
    pub mutation: Option<(Mutation, u64)>,
}

impl RunConfig {
    /// 16 nodes, polling, default platform parameters.
    pub fn new(protocol: Protocol, block_size: usize) -> Self {
        RunConfig {
            nodes: 16,
            block_size,
            protocol,
            region_policies: Vec::new(),
            profile: false,
            notify: Notify::Polling,
            cost: CostModel::default(),
            first_touch: true,
            obs: ObsConfig::default(),
            fabric: FabricConfig::ideal(),
            check: false,
            mutation: None,
        }
    }

    /// The (protocol, block size) of the region called `name`: its policy's,
    /// or the run's own when no policy names it.
    pub fn policy_of(&self, name: &str) -> (Protocol, usize) {
        match self.region_policies.iter().find(|p| p.name == name) {
            Some(p) => (p.protocol, p.block),
            None => (self.protocol, self.block_size),
        }
    }

    /// Same configuration with per-region policy overrides (mixed mode).
    pub fn with_region_policies(mut self, policies: Vec<RegionPolicy>) -> Self {
        self.region_policies = policies;
        self
    }

    /// Same configuration with sharing-profile collection enabled.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Same configuration with static (non-migrating) homes.
    pub fn with_static_homes(mut self) -> Self {
        self.first_touch = false;
        self
    }

    /// Same configuration with a different cluster size.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Same configuration with a different notification mechanism.
    pub fn with_notify(mut self, notify: Notify) -> Self {
        self.notify = notify;
        self
    }

    /// Same configuration with full event recording enabled.
    pub fn with_recording(mut self) -> Self {
        self.obs.record_events = true;
        self
    }

    /// Same configuration with causal span tracing enabled. Spans never
    /// charge virtual time: results stay bit-identical to a spans-off run.
    pub fn with_spans(mut self) -> Self {
        self.obs.spans = true;
        self
    }

    /// Same configuration with windowed time-series collection enabled at
    /// the given window width (virtual nanoseconds).
    pub fn with_series(mut self, window_ns: u64) -> Self {
        self.obs.series_window_ns = window_ns;
        self
    }

    /// Same configuration with a different network fabric model.
    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Same configuration with the race detector and invariant checker on.
    pub fn with_check(mut self) -> Self {
        self.check = true;
        self
    }

    /// Same configuration with a deliberate protocol mutation armed
    /// (checker self-tests).
    pub fn with_mutation(mut self, m: Mutation, seed: u64) -> Self {
        self.mutation = Some((m, seed));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_and_parse() {
        for p in Protocol::ALL {
            assert_eq!(p.name().parse::<Protocol>().unwrap(), p);
        }
        assert_eq!("hlrc".parse::<Protocol>().unwrap(), Protocol::Hlrc);
        assert!("mesi".parse::<Protocol>().is_err());
    }

    #[test]
    fn lrc_classification() {
        assert!(!Protocol::Sc.is_lrc());
        assert!(Protocol::SwLrc.is_lrc());
        assert!(Protocol::Hlrc.is_lrc());
        assert!(!Protocol::Tardis.is_lrc(), "tardis carries no vector times");
    }
}
