//! Golden-value freeze of the platform calibration against the paper's
//! published numbers (§3 microbenchmarks / Table 1).
//!
//! These duplicate a handful of unit assertions on purpose: the unit tests
//! check the implementation against its own constants, while this file
//! pins the constants themselves to the published values so an accidental
//! recalibration fails loudly.

use dsm_net::{CostModel, LatencyModel, Notify};

/// Paper §3: round-trip microbenchmark times for 4/64/256/1024/4096-byte
/// messages, in nanoseconds.
const PAPER_RTT_NS: [(u64, u64); 5] = [
    (4, 40_000),
    (64, 61_000),
    (256, 100_000),
    (1024, 256_000),
    (4096, 876_000),
];

#[test]
fn golden_rtt_calibration_points() {
    let m = LatencyModel::default();
    for (bytes, rtt) in PAPER_RTT_NS {
        assert_eq!(m.rtt(bytes), rtt, "RTT({bytes}) drifted from the paper");
        assert_eq!(m.one_way(bytes), rtt / 2, "one_way({bytes}) != RTT/2");
    }
}

#[test]
fn golden_interpolation_between_calibration_points() {
    let m = LatencyModel::default();
    // Midpoints interpolate linearly between neighbouring published values.
    assert_eq!(m.one_way(34), 25_250); // between (4, 20000) and (64, 30500)
    assert_eq!(m.one_way(160), 40_250); // between (64, 30500) and (256, 50000)
    assert_eq!(m.one_way(640), 89_000); // between (256, 50000) and (1024, 128000)
    assert_eq!(m.one_way(2560), 283_000); // between (1024, 128000) and (4096, 438000)
}

#[test]
fn golden_extrapolation_slope() {
    let m = LatencyModel::default();
    // Past 4 KB the model extends with the final marginal slope
    // (310 µs / 3072 B), so an 8 KB message costs 438 µs + 4096 B at that
    // rate.
    let slope_x = (438_000 - 128_000) as f64 / (4096 - 1024) as f64;
    let expect = 438_000 + (4096.0 * slope_x) as u64;
    assert_eq!(m.one_way(8192), expect);
}

#[test]
fn golden_cost_constants() {
    let c = CostModel::default();
    // Published constants (paper §3).
    assert_eq!(c.fault_exception_ns, 5_000, "Typhoon-0 access fault: ~5 µs");
    assert_eq!(c.intr_signal_ns, 70_000, "Solaris signal delivery: ~70 µs");
    assert_eq!(c.poll_service_delay_ns, 2_000, "polling mechanism: ~2 µs");
    // Estimated constants frozen at their calibrated values.
    assert_eq!(c.handler_ns, 2_000);
    assert_eq!(c.per_byte_copy_ns_x100, 500);
    assert_eq!(c.diff_scan_ns_x100, 1_500);
    assert_eq!(c.diff_apply_ns_x100, 1_000);
    assert_eq!(c.twin_copy_ns_x100, 1_000);
    assert_eq!(c.local_access_ns, 60);
    assert_eq!(c.intr_grace_ns, 200_000);
    assert_eq!(c.sync_handler_ns, 10_000);
    assert_eq!(c.delayed_inval_ns, 0);
}

#[test]
fn golden_derived_costs() {
    let c = CostModel::default();
    // A page-sized block: 4 KB twin copy at 10 ns/B, diff scan at 15 ns/B.
    assert_eq!(c.twin_cost(4096), 40_960);
    assert_eq!(c.diff_scan_cost(4096), 61_440);
    assert_eq!(c.diff_apply_cost(4096), 40_960);
    assert_eq!(c.copy_cost(4096), 20_480);
    // Polling service happens at arrival + mechanism delay regardless of
    // the grace window; interrupts pay the signal and honour the window.
    assert_eq!(c.async_service_time(0, Notify::Polling, 1_000_000), 2_000);
    assert_eq!(
        c.async_service_time(0, Notify::Interrupt, 1_000_000),
        1_000_000
    );
}
