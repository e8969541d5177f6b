//! Node-side platform cost constants.

use dsm_sim::Time;

/// Platform cost model for the simulated testbed.
///
/// Defaults are taken from the paper where published (fault exception,
/// signal cost, polling mechanism costs) and otherwise estimated for a
/// 66 MHz HyperSPARC with a 50 MHz Mbus (copy and diff scan rates). All
/// values are virtual nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Typhoon-0 access fault exception delivered to the run-time (§3: ~5 µs).
    pub fault_exception_ns: Time,
    /// Fixed protocol-handler entry/dispatch cost per message serviced.
    pub handler_ns: Time,
    /// Extra per-byte handling cost for data-carrying messages (copies into
    /// kernel/user buffers beyond the wire time).
    pub per_byte_copy_ns_x100: Time,
    /// Word-compare diff scan cost per byte (×100, i.e. 1500 = 15 ns/B).
    pub diff_scan_ns_x100: Time,
    /// Diff application cost per byte (×100).
    pub diff_apply_ns_x100: Time,
    /// Twin creation (block memcpy) cost per byte (×100).
    pub twin_copy_ns_x100: Time,
    /// Cost of a DSM access that hits locally (the access-check overhead of
    /// the instrumented API; hardware checks are nearly free, this mostly
    /// models cache effects and keeps sequential/parallel accounting
    /// symmetric).
    pub local_access_ns: Time,
    /// Polling: delay from message arrival to the next backedge check plus
    /// the 1.5 µs mechanism round trip.
    pub poll_service_delay_ns: Time,
    /// Interrupt: Solaris signal delivery cost per asynchronous message.
    pub intr_signal_ns: Time,
    /// Interrupt: window after a node obtains a block during which incoming
    /// asynchronous requests are deferred (delayed-consistency effect).
    pub intr_grace_ns: Time,
    /// Minimum time for a synchronization operation's protocol handling
    /// (paper §5.2.1: ~150 µs lower bound emerges from message latencies;
    /// this constant is the lock/barrier manager's per-event processing).
    pub sync_handler_ns: Time,
    /// Delayed-consistency window (paper §7 future work, Dubois et al.):
    /// invalidations and fetch-backs are deferred by this much at the
    /// receiver regardless of the notification mechanism, letting the
    /// holder batch local accesses before losing the block. 0 disables.
    pub delayed_inval_ns: Time,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fault_exception_ns: 5_000,
            handler_ns: 2_000,
            per_byte_copy_ns_x100: 500, // 5 ns/B
            diff_scan_ns_x100: 1_500,   // 15 ns/B
            diff_apply_ns_x100: 1_000,  // 10 ns/B
            twin_copy_ns_x100: 1_000,   // 10 ns/B
            local_access_ns: 60,
            poll_service_delay_ns: 2_000,
            intr_signal_ns: 70_000,
            intr_grace_ns: 200_000,
            sync_handler_ns: 10_000,
            delayed_inval_ns: 0,
        }
    }
}

impl CostModel {
    /// Cost of an access touching `len` bytes that hits locally:
    /// `local_access_ns` per 8-byte word, in the parallel and the
    /// sequential run alike.
    #[inline]
    pub fn access_cost(&self, len: usize) -> Time {
        len.div_ceil(8) as Time * self.local_access_ns
    }

    /// Cost of copying `bytes` bytes (twin creation, buffer copies).
    pub fn copy_cost(&self, bytes: u64) -> Time {
        bytes * self.per_byte_copy_ns_x100 / 100
    }

    /// Cost of scanning `bytes` bytes for a diff.
    pub fn diff_scan_cost(&self, bytes: u64) -> Time {
        bytes * self.diff_scan_ns_x100 / 100
    }

    /// Cost of applying a diff of `bytes` payload bytes.
    pub fn diff_apply_cost(&self, bytes: u64) -> Time {
        bytes * self.diff_apply_ns_x100 / 100
    }

    /// Cost of creating a twin for a block of `bytes` bytes.
    pub fn twin_cost(&self, bytes: u64) -> Time {
        bytes * self.twin_copy_ns_x100 / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = CostModel::default();
        assert_eq!(c.fault_exception_ns, 5_000);
        assert_eq!(c.intr_signal_ns, 70_000);
    }

    #[test]
    fn byte_costs_scale_linearly() {
        let c = CostModel::default();
        assert_eq!(c.copy_cost(4096), 4096 * 5);
        assert_eq!(c.diff_scan_cost(200), 200 * 15);
        assert_eq!(c.twin_cost(64), 640);
    }
}
