//! Analytic cost model: predict a region's coherence cost under a candidate
//! (protocol, granularity) combination from a fine-grain sharing profile.
//!
//! The profile comes from one run at the finest studied configuration
//! (SC @ 64 bytes), which records — per 64-byte unit — the set of faulting
//! readers and writers and the fault counts. Grouping units into candidate
//! blocks reconstructs the paper's Table 2 sharing statistics at any
//! granularity; the model then prices the faults with the platform's
//! Myrinet-calibrated latency model and software cost constants.
//!
//! The model is intentionally coarse — it only has to *rank* twelve
//! candidate combinations per region, not predict wall-clock time — but its
//! structure mirrors the protocols:
//!
//! * **SC**: a single writer's repeated faults are permission upgrades, but
//!   a block written by several nodes ping-pongs with the data in tow, and
//!   every write round eagerly invalidates the readers, who re-fetch
//!   (write-write and write-read false sharing grow with block size).
//! * **SW-LRC**: single-writer blocks re-enable locally at interval
//!   boundaries, multi-writer blocks migrate ownership; writers pay
//!   per-interval flush/notice bookkeeping, readers re-fetch through the
//!   probable-owner chain only at acquires.
//! * **HLRC**: every writer twins each dirty block once per interval and
//!   diffs it home (twin and diff-scan costs scale with the block, the
//!   diff payload only with the bytes actually written); readers re-fetch
//!   whole blocks from the home at acquires.
//! * **Tardis**: no write notices and no eager invalidations — writers
//!   take exclusive ownership through the static home (multi-writer
//!   blocks bounce home-and-back with the data in tow), while readers
//!   pay full re-fetches only after intervals that rewrote the block,
//!   plus cheap header-only lease renewals where the data survived.
//!
//! The central per-block quantity is the *dirty-interval* estimate: the
//! fault count of a unit divided by its writer count approximates how many
//! synchronization intervals dirtied it (a unit written by one node faults
//! once per round; one written by `k` nodes faults `k` times per round
//! under the profiling protocol's ping-pong).

use dsm_core::Protocol;
use dsm_net::{CostModel, LatencyModel, MSG_HEADER_BYTES};
use dsm_obs::{SharingProfile, PROFILE_UNIT};

// Weights of the cost model, calibrated once against the uniform protocol ×
// granularity sweep (see `report --table ext-adaptive`).

/// Fraction of a block's write rounds that re-fault each reader under SC's
/// eager invalidation.
const SC_READ_REFAULT: f64 = 1.0;
/// Write-write false-sharing amplification under SC: interleaved writers
/// steal a merged block from each other mid-interval, so each extra writer
/// amplifies the profiled fault count by this factor.
const SC_WW_AMP: f64 = 0.5;
/// Fraction of a block's dirty intervals that re-fault each reader under
/// LRC's acquire-time invalidation.
const LRC_READ_REFAULT: f64 = 0.4;
/// Per-peer cost of creating, shipping and applying one write notice
/// (charged per dirty block interval to both LRC protocols), ns.
const NOTICE_NS: f64 = 400.0;
/// SW-LRC per-writer-interval bookkeeping: write re-enable, version advance
/// and the serial drain of the flush queue at release, ns.
const SWLRC_INTERVAL_NS: f64 = 50_000.0;
/// Per-block fixed protocol state overhead, in ns — a small tie-breaker
/// that penalizes needlessly fine blocks.
const PER_BLOCK_NS: f64 = 40.0;
/// Tardis: cost of one header-only lease renewal round trip (fault
/// exception, control request and control reply — no payload). Charged per
/// reader per dirty interval on blocks whose data the reader already holds,
/// discounted by [`LRC_READ_REFAULT`] — a lease spanning `vt::LEASE_TS`
/// ticks outlives most intervals, so only the same fraction of reads that
/// would re-fault under acquire-time invalidation actually reach the home
/// for a renewal.
const TARDIS_RENEWAL_NS: f64 = 25_000.0;

/// Sharing statistics of one region, aggregated from the unit profile
/// (diagnostic output of the policy engine).
#[derive(Debug, Clone)]
pub struct RegionProfile {
    /// Region name.
    pub name: String,
    /// Start address.
    pub start: usize,
    /// Length in bytes.
    pub len: usize,
    /// 64-byte units covered.
    pub units: usize,
    /// Units faulted on at all during the profile run.
    pub touched_units: usize,
    /// Units write-faulted by more than one node.
    pub multi_writer_units: usize,
    /// Total read faults recorded in the region.
    pub read_faults: u64,
    /// Total write faults recorded in the region.
    pub write_faults: u64,
    /// Distinct nodes that wrote anywhere in the region.
    pub writer_nodes: u32,
    /// Distinct nodes that read anywhere in the region.
    pub reader_nodes: u32,
}

/// Unit range of a `[start, start+len)` byte span, clamped to the profile.
fn unit_range(profile: &SharingProfile, start: usize, len: usize) -> (usize, usize) {
    let u0 = (start / PROFILE_UNIT).min(profile.num_units());
    let u1 = (start + len)
        .div_ceil(PROFILE_UNIT)
        .min(profile.num_units());
    (u0, u1)
}

/// Aggregate the profile over one region span.
pub fn summarize_region(
    profile: &SharingProfile,
    name: &str,
    start: usize,
    len: usize,
) -> RegionProfile {
    let (u0, u1) = unit_range(profile, start, len);
    let mut s = RegionProfile {
        name: name.to_string(),
        start,
        len,
        units: u1 - u0,
        touched_units: 0,
        multi_writer_units: 0,
        read_faults: 0,
        write_faults: 0,
        writer_nodes: 0,
        reader_nodes: 0,
    };
    let (mut wmask, mut rmask) = (0u64, 0u64);
    for u in u0..u1 {
        let w = profile.writers(u);
        wmask |= w;
        rmask |= profile.readers(u);
        s.read_faults += profile.read_faults(u) as u64;
        s.write_faults += profile.write_faults(u) as u64;
        if w.count_ones() > 1 {
            s.multi_writer_units += 1;
        }
        if profile.read_faults(u) > 0 || profile.write_faults(u) > 0 {
            s.touched_units += 1;
        }
    }
    s.writer_nodes = wmask.count_ones();
    s.reader_nodes = rmask.count_ones();
    s
}

/// Predicted coherence cost (ns, summed over the cluster) of running the
/// span `[start, start+len)` under `protocol` at granularity `block` on a
/// cluster of `nodes`, over the paper's network ([`LatencyModel`]).
pub fn predict_region_ns(
    profile: &SharingProfile,
    start: usize,
    len: usize,
    protocol: Protocol,
    block: usize,
    nodes: usize,
    cost: &CostModel,
) -> f64 {
    let lat = LatencyModel::default();
    let (u0, u1) = unit_range(profile, start, len);
    let upb = block / PROFILE_UNIT;
    let g = block as u64;

    // Remote block fetch: fault exception, request, reply carrying the
    // block, handler work at both ends, and the local install copy.
    let fetch = (cost.fault_exception_ns
        + 2 * cost.handler_ns
        + lat.one_way(MSG_HEADER_BYTES)
        + lat.one_way(MSG_HEADER_BYTES + g)
        + cost.copy_cost(g)) as f64;
    // Write-permission upgrade: control-only round trip, no data.
    let upgrade =
        (cost.fault_exception_ns + 2 * cost.handler_ns + 2 * lat.one_way(MSG_HEADER_BYTES)) as f64;
    // One eager invalidation message plus its handler.
    let inval = (lat.one_way(MSG_HEADER_BYTES) + cost.handler_ns) as f64;
    // Extra forwarding hop through the probable-owner chain.
    let forward = lat.one_way(MSG_HEADER_BYTES) as f64;
    let peers = nodes.saturating_sub(1) as f64;

    let mut total = 0.0;
    let mut b0 = u0;
    while b0 < u1 {
        let b1 = (b0 + upb).min(u1);
        let (mut wmask, mut rmask) = (0u64, 0u64);
        let (mut wf_sum, mut rf_sum) = (0u64, 0u64);
        let (mut wf_max, mut rf_max) = (0u64, 0u64);
        let mut dirty_units = 0u64;
        let mut intervals = 0.0f64;
        let mut read_rounds = 0.0f64;
        for u in b0..b1 {
            let uw = profile.writers(u);
            let ur = profile.readers(u);
            wmask |= uw;
            rmask |= ur;
            let wf = profile.write_faults(u) as u64;
            let rf = profile.read_faults(u) as u64;
            wf_sum += wf;
            rf_sum += rf;
            wf_max = wf_max.max(wf);
            rf_max = rf_max.max(rf);
            if wf > 0 {
                dirty_units += 1;
                // Dirty intervals seen by this unit: its writers fault once
                // each per ping-pong round under the profiling protocol.
                intervals = intervals.max(wf as f64 / uw.count_ones().max(1) as f64);
            }
            // Per-reader read rounds on this unit (its fault count is
            // summed over its readers).
            read_rounds = read_rounds.max(rf as f64 / ur.count_ones().max(1) as f64);
        }
        b0 = b1;
        if wf_sum == 0 && rf_sum == 0 {
            continue;
        }
        total += PER_BLOCK_NS;
        let nw = wmask.count_ones() as f64;
        // Readers that are not also writers (a writer re-reads its own
        // copy for free).
        let nr = (rmask & !wmask).count_ones() as f64;
        let single_writer = wmask.count_ones() <= 1;
        // Baseline block fetches by readers: every distinct reader re-reads
        // the block once per read round. When readers touch *disjoint*
        // units (e.g. per-node slabs that a coarse block merges), this
        // correctly charges one fetch per reader per round where the
        // hottest unit alone would undercount; for densely shared data it
        // degenerates to the hottest unit's fault count.
        let rd_base = (rmask.count_ones() as f64 * read_rounds)
            .min(rf_sum as f64)
            .max(rf_max as f64);

        total += match protocol {
            Protocol::Sc => {
                // Write rounds: a lone writer upgrades; concurrent writers
                // ping-pong the block itself.
                let (wr, wcost) = if single_writer {
                    (wf_max as f64, upgrade)
                } else {
                    // Interleaved writers steal the merged block from each
                    // other mid-interval, re-faulting beyond the profiled
                    // per-unit sum.
                    (wf_sum as f64 * (1.0 + SC_WW_AMP * (nw - 1.0)), fetch)
                };
                // Readers are eagerly invalidated every write round and
                // re-fetch.
                let rd = if nw == 0.0 {
                    rd_base
                } else {
                    rd_base.max(SC_READ_REFAULT * nr * wr)
                };
                wr * (wcost + nr * inval) + rd * fetch
            }
            Protocol::SwLrc => {
                let (wr, wcost) = if single_writer {
                    // Lazy re-enable at the interval boundary: local only.
                    (
                        wf_max as f64,
                        (cost.fault_exception_ns + cost.handler_ns) as f64,
                    )
                } else {
                    // Ownership migration through the probable owner, block
                    // in tow.
                    (wf_sum as f64, fetch + forward)
                };
                let rd = lrc_read_rounds(nw, nr, rd_base, intervals);
                // Readers fetch straight from the owner: the probable-owner
                // chain collapses after its first traversal, so no forward
                // hop is charged on the read path.
                wr * wcost
                    + nw * intervals * SWLRC_INTERVAL_NS
                    + intervals * peers * NOTICE_NS
                    + rd * fetch
            }
            Protocol::Hlrc => {
                // Every writer twins each dirty interval and diffs home;
                // the diff payload is its share of the dirty bytes, the
                // twin and scan cover the whole block.
                let wr = nw * intervals;
                let dirty =
                    ((dirty_units * PROFILE_UNIT as u64) as f64 / nw.max(1.0)).min(g as f64) as u64;
                let wcost = (cost.fault_exception_ns + cost.twin_cost(g)) as f64
                    + cost.diff_scan_cost(g) as f64
                    + (lat.one_way(MSG_HEADER_BYTES + dirty) + cost.diff_apply_cost(dirty)) as f64;
                let rd = lrc_read_rounds(nw, nr, rd_base, intervals);
                wr * wcost + intervals * peers * NOTICE_NS + rd * fetch
            }
            Protocol::Tardis => {
                // Writes: exclusive grants through the static home. A lone
                // writer keeps ownership (its repeated faults are
                // header-only upgrade rounds); concurrent writers bounce
                // the block home-and-back — a recall writeback plus a
                // fresh data grant per round. No reader is ever contacted:
                // timestamp order replaces the invalidation traffic.
                let (wr, wcost) = if single_writer {
                    (wf_max as f64, upgrade)
                } else {
                    (wf_sum as f64, 2.0 * fetch)
                };
                // Reads: leases self-expire against the program timestamp,
                // so re-fetch rounds mirror acquire-time invalidation...
                let rd = lrc_read_rounds(nw, nr, rd_base, intervals);
                // ... and readers additionally renew leases header-only on
                // blocks whose data outlived the interval.
                let renewals = if nw == 0.0 {
                    0.0
                } else {
                    LRC_READ_REFAULT * nr * intervals * TARDIS_RENEWAL_NS
                };
                wr * wcost + rd * fetch + renewals
            }
        };
    }
    total
}

/// Read rounds under lazy (acquire-time) invalidation: cold/true-sharing
/// faults, plus re-fetches after intervals that dirtied the block.
fn lrc_read_rounds(nw: f64, nr: f64, rd_base: f64, intervals: f64) -> f64 {
    if nw == 0.0 {
        rd_base
    } else {
        rd_base.max(LRC_READ_REFAULT * nr * intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::GRANULARITIES;

    fn predict(profile: &SharingProfile, protocol: Protocol, block: usize) -> f64 {
        predict_region_ns(profile, 0, 4096, protocol, block, 16, &CostModel::default())
    }

    #[test]
    fn summarize_region_aggregates_unit_stats() {
        let mut p = SharingProfile::new(4096);
        p.note(0, 0, 64, true); // unit 0: writer 0
        p.note(1, 0, 64, true); // unit 0: writer 1 -> multi-writer
        p.note(2, 128, 192, false); // unit 2: reader 2
        let s = summarize_region(&p, "r", 0, 4096);
        assert_eq!(s.units, 64);
        assert_eq!(s.touched_units, 2);
        assert_eq!(s.multi_writer_units, 1);
        assert_eq!(s.write_faults, 2);
        assert_eq!(s.read_faults, 1);
        assert_eq!(s.writer_nodes, 2);
        assert_eq!(s.reader_nodes, 1);
    }

    #[test]
    fn untouched_region_costs_nothing() {
        let p = SharingProfile::new(4096);
        for proto in Protocol::ALL {
            for g in GRANULARITIES {
                assert_eq!(predict(&p, proto, g), 0.0);
            }
        }
    }

    #[test]
    fn read_only_data_prices_identically_across_protocols() {
        // Pure read sharing never engages write machinery: every protocol
        // pays the same cold fetches.
        let mut p = SharingProfile::new(4096);
        for u in 0..64 {
            p.note(u % 8, u * 64, (u + 1) * 64, false);
        }
        for g in GRANULARITIES {
            let sc = predict(&p, Protocol::Sc, g);
            assert!(sc > 0.0);
            assert_eq!(sc, predict(&p, Protocol::SwLrc, g));
            assert_eq!(sc, predict(&p, Protocol::Hlrc, g));
            assert_eq!(sc, predict(&p, Protocol::Tardis, g));
        }
    }

    #[test]
    fn single_writer_streams_amortize_with_coarse_blocks() {
        // One writer, one distinct reader, contiguous span: coarse blocks
        // turn 64 round trips into one.
        let mut p = SharingProfile::new(4096);
        for u in 0..64 {
            p.note(0, u * 64, (u + 1) * 64, true);
            p.note(1, u * 64, (u + 1) * 64, false);
        }
        for proto in Protocol::ALL {
            assert!(
                predict(&p, proto, 4096) < predict(&p, proto, 64),
                "{proto:?}: coarse must amortize a single-writer stream"
            );
        }
    }

    #[test]
    fn interleaved_writers_penalize_coarse_blocks_under_sc() {
        // 16 writers striped across units, re-writing repeatedly: merging
        // them into one block must price the ping-pong amplification.
        let mut p = SharingProfile::new(4096);
        for u in 0..64 {
            for _ in 0..4 {
                p.note(u % 16, u * 64, (u + 1) * 64, true);
            }
        }
        assert!(predict(&p, Protocol::Sc, 64) < predict(&p, Protocol::Sc, 4096));
        // ... and HLRC's per-interval diffs must undercut SC's per-fault
        // ping-pong on that same block.
        assert!(predict(&p, Protocol::Hlrc, 4096) < predict(&p, Protocol::Sc, 4096));
    }
}
