//! Per-node execution-time breakdown, in the style of the paper's cost
//! decomposition: where did each node's virtual wall time go?

use crate::Counters;
use dsm_json::Value;

/// Decomposition of one node's measured virtual wall time.
///
/// The components partition the node's time exactly: a node is always
/// either computing, paying poll instrumentation overhead, stalled on a
/// read or write fault, waiting on a lock or barrier, running local
/// protocol actions on the application thread (release-time diffing,
/// locally-resolved faults), or having its runnable segments extended by
/// remote-request service occupancy. The invariant test asserts
/// `accounted_ns() == wall_ns` to within 1%.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeBreakdown {
    /// Measured virtual wall time of the node.
    pub wall_ns: u64,
    /// Pure application computation.
    pub compute_ns: u64,
    /// Polling instrumentation overhead (compute inflation).
    pub poll_overhead_ns: u64,
    /// Stalled in read faults.
    pub read_stall_ns: u64,
    /// Stalled in write faults.
    pub write_stall_ns: u64,
    /// Waiting on lock acquisition.
    pub lock_wait_ns: u64,
    /// Waiting at barriers (arrival to release).
    pub barrier_wait_ns: u64,
    /// Local protocol actions on the application thread.
    pub proto_local_ns: u64,
    /// Runnable-segment extension from servicing remote requests.
    pub occupancy_stolen_ns: u64,
}

impl TimeBreakdown {
    /// Build the breakdown from a node's counters plus its measured wall
    /// time (from the observation report's begin/end bracketing).
    pub fn from_counters(c: &Counters, wall_ns: u64) -> TimeBreakdown {
        TimeBreakdown {
            wall_ns,
            compute_ns: c.compute_ns,
            poll_overhead_ns: c.poll_overhead_ns,
            read_stall_ns: c.read_stall_ns,
            write_stall_ns: c.write_stall_ns,
            lock_wait_ns: c.lock_wait_ns,
            barrier_wait_ns: c.barrier_wait_ns,
            proto_local_ns: c.proto_local_ns,
            occupancy_stolen_ns: c.occupancy_stolen_ns,
        }
    }

    /// Named components in display order (excluding `wall_ns`).
    pub fn components(&self) -> [(&'static str, u64); 8] {
        [
            ("compute_ns", self.compute_ns),
            ("poll_overhead_ns", self.poll_overhead_ns),
            ("read_stall_ns", self.read_stall_ns),
            ("write_stall_ns", self.write_stall_ns),
            ("lock_wait_ns", self.lock_wait_ns),
            ("barrier_wait_ns", self.barrier_wait_ns),
            ("proto_local_ns", self.proto_local_ns),
            ("occupancy_stolen_ns", self.occupancy_stolen_ns),
        ]
    }

    /// Sum of all components.
    pub fn accounted_ns(&self) -> u64 {
        self.components().iter().map(|(_, v)| v).sum()
    }

    /// Wall time minus accounted time (positive: unattributed time).
    pub fn residual_ns(&self) -> i64 {
        self.wall_ns as i64 - self.accounted_ns() as i64
    }

    /// Encode as a JSON object, components plus wall and residual.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("wall_ns", self.wall_ns);
        for (name, val) in self.components() {
            v.set(name, val);
        }
        v.set("residual_ns", self.residual_ns());
        v
    }

    /// Render a short human-readable report: one line per component with
    /// its share of wall time.
    pub fn render(&self) -> String {
        let wall = self.wall_ns.max(1) as f64;
        let mut out = format!("wall {:>14} ns\n", self.wall_ns);
        for (name, val) in self.components() {
            let pct = 100.0 * val as f64 / wall;
            out.push_str(&format!("  {name:<20} {val:>14} ns  {pct:>6.2}%\n"));
        }
        out.push_str(&format!(
            "  {:<20} {:>14} ns\n",
            "residual",
            self.residual_ns()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounts_and_residual() {
        let c = Counters {
            compute_ns: 50,
            poll_overhead_ns: 5,
            read_stall_ns: 10,
            write_stall_ns: 10,
            lock_wait_ns: 10,
            barrier_wait_ns: 10,
            proto_local_ns: 3,
            occupancy_stolen_ns: 2,
            ..Default::default()
        };
        let b = TimeBreakdown::from_counters(&c, 100);
        assert_eq!(b.accounted_ns(), 100);
        assert_eq!(b.residual_ns(), 0);
        let b2 = TimeBreakdown::from_counters(&c, 110);
        assert_eq!(b2.residual_ns(), 10);
    }

    #[test]
    fn json_and_render() {
        let b = TimeBreakdown {
            wall_ns: 10,
            compute_ns: 7,
            barrier_wait_ns: 3,
            ..Default::default()
        };
        let v = b.to_json();
        assert_eq!(v.u64_field("wall_ns"), Some(10));
        assert_eq!(v.u64_field("compute_ns"), Some(7));
        assert_eq!(v.get("residual_ns").unwrap().as_i64(), Some(0));
        assert!(b.render().contains("compute_ns"));
    }
}
