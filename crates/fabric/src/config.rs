//! Fabric configuration: NI occupancy model, fault plan, retry policy.

/// Network-interface occupancy model. Each node has one send and one
/// receive engine; a frame occupies the engine for a fixed overhead plus a
/// per-byte copy, and frames queue FIFO behind the busy engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiModel {
    /// Fixed send-side occupancy per frame (ns).
    pub tx_overhead_ns: u64,
    /// Send-side per-byte serialization, in ns × 100 (250 = 2.5 ns/B).
    pub tx_per_byte_ns_x100: u64,
    /// Fixed receive-side occupancy per frame (ns).
    pub rx_overhead_ns: u64,
    /// Receive-side per-byte copy, in ns × 100.
    pub rx_per_byte_ns_x100: u64,
}

impl Default for NiModel {
    /// Myrinet-class NI: ~1 µs per-message engine occupancy and ~400 MB/s
    /// per-byte streaming on each side. Deliberately on top of the
    /// analytic one-way latency (which models an unloaded network): the
    /// contended configuration is meant to charge load, not replace the
    /// calibration.
    fn default() -> Self {
        NiModel {
            tx_overhead_ns: 1_000,
            tx_per_byte_ns_x100: 250,
            rx_overhead_ns: 1_000,
            rx_per_byte_ns_x100: 250,
        }
    }
}

impl NiModel {
    /// Send-side occupancy of one frame of `bytes`.
    pub fn tx_occupancy(&self, bytes: u64) -> u64 {
        self.tx_overhead_ns + bytes * self.tx_per_byte_ns_x100 / 100
    }

    /// Receive-side occupancy of one frame of `bytes`.
    pub fn rx_occupancy(&self, bytes: u64) -> u64 {
        self.rx_overhead_ns + bytes * self.rx_per_byte_ns_x100 / 100
    }
}

/// Seeded fault-injection plan. Rates are per-million per transmitted
/// frame; every roll is a pure function of `(seed, src, dst, seq,
/// attempt)`, so a plan is reproducible and independent of host
/// scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every roll.
    pub seed: u64,
    /// Frame loss rate (ppm). A dropped frame loses all its copies.
    pub drop_ppm: u32,
    /// Duplication rate (ppm): a second copy arrives shortly after.
    pub dup_ppm: u32,
    /// Reorder rate (ppm): extra delivery jitter in `[1, reorder_jitter_ns]`,
    /// enough to overtake neighbouring frames on the channel.
    pub reorder_ppm: u32,
    /// Delay-spike rate (ppm): the frame is late by `spike_ns`.
    pub spike_ppm: u32,
    /// Maximum reorder jitter (ns).
    pub reorder_jitter_ns: u64,
    /// Delay-spike magnitude (ns).
    pub spike_ns: u64,
}

impl Default for FaultPlan {
    /// 1% drops plus light duplication/reordering/spikes — hostile enough
    /// to exercise every recovery path on every application.
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop_ppm: 10_000,
            dup_ppm: 2_000,
            reorder_ppm: 5_000,
            spike_ppm: 1_000,
            reorder_jitter_ns: 150_000,
            spike_ns: 1_000_000,
        }
    }
}

/// Ack/timeout retransmission policy (active only when faults are
/// enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ack timeout for the first attempt (ns); doubles per retry.
    pub ack_timeout_ns: u64,
    /// Faulty retransmissions allowed before the forced reliable attempt.
    pub max_retries: u32,
    /// Wire size of an ack frame (header-only).
    pub ack_bytes: u64,
}

impl Default for RetryPolicy {
    /// 2 ms initial timeout (≳ 2× the 4 KB one-way time plus handler
    /// occupancy), 8 retries, header-sized acks.
    fn default() -> Self {
        RetryPolicy {
            ack_timeout_ns: 2_000_000,
            max_retries: 8,
            ack_bytes: 16,
        }
    }
}

impl RetryPolicy {
    /// Timeout for `attempt` (0 = original send): exponential backoff,
    /// shift-capped so it cannot overflow.
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        self.ack_timeout_ns << attempt.min(16)
    }
}

/// Complete fabric configuration carried on the run configuration.
///
/// The default — [`FabricConfig::ideal`] — models nothing: the protocol
/// world keeps its original analytic fire-and-forget send, bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricConfig {
    /// NI occupancy/queuing model (`None` = infinitely fast interfaces).
    pub ni: Option<NiModel>,
    /// Fault injection plan (`None` = lossless network, no reliability
    /// machinery).
    pub faults: Option<FaultPlan>,
    /// Retransmission policy (used only when `faults` is set).
    pub retry: RetryPolicy,
}

impl FabricConfig {
    /// The default: no queuing, no faults — reproduces the analytic model
    /// exactly.
    pub fn ideal() -> Self {
        FabricConfig::default()
    }

    /// NI occupancy and queuing on, lossless network. An ablation mode:
    /// every message still arrives exactly once, but bursts pay queuing
    /// delay.
    pub fn contended() -> Self {
        FabricConfig {
            ni: Some(NiModel::default()),
            ..FabricConfig::default()
        }
    }

    /// Contended fabric plus the default fault plan under `seed`.
    pub fn faulty(seed: u64) -> Self {
        FabricConfig {
            ni: Some(NiModel::default()),
            faults: Some(FaultPlan {
                seed,
                ..FaultPlan::default()
            }),
            retry: RetryPolicy::default(),
        }
    }

    /// True when the fabric models nothing (the bit-for-bit default).
    pub fn is_ideal(&self) -> bool {
        self.ni.is_none() && self.faults.is_none()
    }

    /// True when the reliability machinery (seq/ack/retry) is active.
    pub fn reliable(&self) -> bool {
        self.faults.is_some()
    }

    /// Parse a fabric spec: `ideal`, `contended`, or `faulty`, optionally
    /// followed by comma-separated `key=value` overrides (`seed`, `drop`,
    /// `dup`, `reorder`, `spike` in ppm, `jitter`/`spike_ns` in ns,
    /// `timeout` in ns, `retries`). Examples: `faulty`,
    /// `faulty,seed=42,drop=20000`, `contended`.
    pub fn parse(spec: &str) -> Result<FabricConfig, String> {
        let mut parts = spec.split(',').map(str::trim);
        let mode = parts.next().unwrap_or("");
        let mut cfg = match mode {
            "ideal" | "" => FabricConfig::ideal(),
            "contended" => FabricConfig::contended(),
            "faulty" | "faults" => FabricConfig::faulty(1),
            other => return Err(format!("unknown fabric mode: {other}")),
        };
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got: {kv}"))?;
            let n: u64 = v.parse().map_err(|_| format!("bad value for {k}: {v}"))?;
            let n32 = || u32::try_from(n).map_err(|_| format!("{k} must fit in 32 bits, got {v}"));
            match k {
                "timeout" => cfg.retry.ack_timeout_ns = n,
                "retries" => cfg.retry.max_retries = n32()?,
                _ => {
                    let f = cfg
                        .faults
                        .as_mut()
                        .ok_or_else(|| format!("{k} requires the faulty mode"))?;
                    match k {
                        "seed" => f.seed = n,
                        "drop" => f.drop_ppm = n32()?,
                        "dup" => f.dup_ppm = n32()?,
                        "reorder" => f.reorder_ppm = n32()?,
                        "spike" => f.spike_ppm = n32()?,
                        "jitter" => f.reorder_jitter_ns = n,
                        "spike_ns" => f.spike_ns = n,
                        other => return Err(format!("unknown fabric key: {other}")),
                    }
                }
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ideal() {
        assert!(FabricConfig::default().is_ideal());
        assert!(FabricConfig::ideal().is_ideal());
        assert!(!FabricConfig::ideal().reliable());
    }

    #[test]
    fn contended_models_occupancy_without_reliability() {
        let c = FabricConfig::contended();
        assert!(!c.is_ideal());
        assert!(!c.reliable());
        let ni = c.ni.unwrap();
        assert_eq!(ni.tx_occupancy(400), 1_000 + 1_000);
        assert_eq!(ni.rx_occupancy(0), 1_000);
    }

    #[test]
    fn faulty_is_reliable() {
        let c = FabricConfig::faulty(7);
        assert!(c.reliable());
        assert_eq!(c.faults.unwrap().seed, 7);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy::default();
        assert_eq!(r.timeout_for(0), 2_000_000);
        assert_eq!(r.timeout_for(1), 4_000_000);
        assert_eq!(r.timeout_for(3), 16_000_000);
        assert_eq!(r.timeout_for(40), r.timeout_for(16)); // shift capped
    }

    #[test]
    fn parse_modes_and_overrides() {
        assert!(FabricConfig::parse("ideal").unwrap().is_ideal());
        assert_eq!(FabricConfig::parse("contended").unwrap(), {
            FabricConfig::contended()
        });
        let c = FabricConfig::parse("faulty,seed=42,drop=20000,retries=3,timeout=5000000").unwrap();
        let f = c.faults.as_ref().unwrap();
        assert_eq!(f.seed, 42);
        assert_eq!(f.drop_ppm, 20_000);
        assert_eq!(c.retry.max_retries, 3);
        assert_eq!(c.retry.ack_timeout_ns, 5_000_000);
        assert!(FabricConfig::parse("bogus").is_err());
        assert!(FabricConfig::parse("contended,drop=1").is_err()); // needs faulty
        assert!(FabricConfig::parse("faulty,drop").is_err());
        assert!(FabricConfig::parse("faulty,drop=x").is_err());
        // Wider than the 32-bit fields: an error naming the key, never a
        // silent truncation (2^32 + 1 would otherwise mean 1).
        for key in ["drop", "dup", "reorder", "spike", "retries"] {
            let e = FabricConfig::parse(&format!("faulty,{key}=4294967297")).unwrap_err();
            assert!(e.contains(key), "{e}");
        }
        let c = FabricConfig::parse("faulty,drop=4294967295").unwrap();
        assert_eq!(c.faults.unwrap().drop_ppm, u32::MAX);
    }
}
