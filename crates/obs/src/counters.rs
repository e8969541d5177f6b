//! Event counters collected during a simulated run.
//!
//! Every protocol event of interest is counted in a [`Counters`] struct —
//! one per node per run, and one per layout region — so the paper's
//! fault/traffic tables (Tables 3–15) can be regenerated directly. The
//! counters have one writer, the fold [`crate::EventKind::count`]: each
//! field is a count or a sum over the run's protocol events.

use dsm_json::Value;

/// Expands to the `Counters` struct plus its field-generic helpers, so the
/// field list exists in exactly one place: adding a counter here updates
/// `add`, the JSON encoding, and `FIELD_NAMES` together. Merge modes:
/// `sum` for cumulative counters, `max` for high-water marks.
macro_rules! define_counters {
    ( $( $(#[$attr:meta])* $field:ident : $merge:tt ),+ $(,)? ) => {
        /// Per-node protocol event counters.
        ///
        /// All counters are cumulative over one run. "Remote" faults are
        /// faults that required communication; "local" faults are
        /// access-control transitions that were resolved without messages
        /// (e.g. HLRC twinning an already-present block, or SW-LRC
        /// re-enabling write access after a release downgrade).
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct Counters {
            $( $(#[$attr])* pub $field: u64, )+
        }

        impl Counters {
            /// Every counter field name, in declaration order.
            pub const FIELD_NAMES: &'static [&'static str] =
                &[ $( stringify!($field) ),+ ];

            /// Field-wise merge (sums, except high-water marks which take
            /// the max), for aggregating per-node counters into run totals.
            pub fn add(&mut self, o: &Counters) {
                $( merge_field!(self.$field, o.$field, $merge); )+
            }

            /// Encode as a JSON object with one key per field.
            pub fn to_json(&self) -> Value {
                let mut v = Value::obj();
                $( v.set(stringify!($field), self.$field); )+
                v
            }

            /// Every field set to `x`.
            #[cfg(test)]
            fn splat(x: u64) -> Counters {
                Counters {
                    $( $field: x, )+
                }
            }
        }
    };
}

macro_rules! merge_field {
    ($a:expr, $b:expr, sum) => {
        $a += $b
    };
    ($a:expr, $b:expr, max) => {
        $a = $a.max($b)
    };
}

define_counters! {
    /// Read access faults (block not readable locally), remote.
    read_faults: sum,
    /// Write access faults that required communication.
    write_faults: sum,
    /// Write faults resolved locally (twin creation / re-enable).
    local_write_faults: sum,
    /// Messages sent from this node.
    msgs_sent: sum,
    /// Control bytes sent (headers, requests, acks, write notices).
    ctrl_bytes: sum,
    /// Data payload bytes sent (block fetches, write-backs, diffs).
    data_bytes: sum,
    /// Block fetches served *to* other nodes by this node.
    fetches_served: sum,
    /// Twins created (HLRC).
    twins_created: sum,
    /// Diffs created at releases (HLRC).
    diffs_created: sum,
    /// Total bytes of diff payload produced (HLRC).
    diff_bytes: sum,
    /// Diffs applied at this node's homes (HLRC).
    diffs_applied: sum,
    /// Write notices sent (piggybacked counts included).
    write_notices_sent: sum,
    /// Write notices received and processed at acquires.
    write_notices_recv: sum,
    /// Blocks invalidated at this node (eager for SC, acquire-time for LRC).
    invalidations: sum,
    /// Tardis: read leases renewed header-only at this node's homes (the
    /// requester already held the current data, so no payload moved).
    lease_renewals: sum,
    /// Tardis: reads that found their lease expired against the program
    /// timestamp and had to fault back to the home.
    lease_expiries: sum,
    /// Tardis: exclusive write grants whose timestamp had to jump past
    /// outstanding read leases (`rts > wts` at grant time).
    wts_bumps: sum,
    /// Lock acquires performed by this node.
    lock_acquires: sum,
    /// Lock acquires that needed remote communication.
    remote_lock_acquires: sum,
    /// Barrier episodes this node participated in.
    barriers: sum,
    /// Virtual ns spent waiting on lock acquisition.
    lock_wait_ns: sum,
    /// Virtual ns spent waiting at barriers (arrival to release, excluding
    /// the local release actions charged to `proto_local_ns`).
    barrier_wait_ns: sum,
    /// Virtual ns spent stalled in read faults.
    read_stall_ns: sum,
    /// Virtual ns spent stalled in write faults.
    write_stall_ns: sum,
    /// Virtual ns of pure application computation charged.
    compute_ns: sum,
    /// Extra virtual ns charged for polling instrumentation.
    poll_overhead_ns: sum,
    /// Virtual ns of local protocol actions run on the application thread:
    /// locally-resolved faults, release-time diffing/notice generation at
    /// lock releases and barrier arrivals.
    proto_local_ns: sum,
    /// Virtual ns by which remote-request service occupancy extended this
    /// node's own compute segments (time "stolen" from the application by
    /// the protocol handler while the node was otherwise runnable).
    occupancy_stolen_ns: sum,
    /// Asynchronous messages serviced via interrupt (signal cost paid).
    interrupts_taken: sum,
    /// Virtual ns this node spent servicing remote requests (occupancy).
    service_ns: sum,
    /// Peak bytes held in twins at this node (HLRC memory overhead; the
    /// paper lists memory utilization as unexamined future work).
    twin_bytes_peak: max,
    /// Fabric: data-frame transmissions from this node (originals,
    /// retransmissions, and forced final attempts; zero on the ideal
    /// fabric).
    fabric_frames: sum,
    /// Fabric: timeout-driven retransmissions from this node.
    fabric_retries: sum,
    /// Fabric: transmissions whose retry budget ran out, forcing the
    /// injector-bypassing reliable attempt.
    fabric_exhausted: sum,
    /// Fabric: frames the injector dropped on this node's sends.
    fabric_drops: sum,
    /// Fabric: duplicate copies the injector added to this node's sends.
    fabric_dups: sum,
    /// Fabric: duplicate frames this node's receive path discarded.
    fabric_dup_drops: sum,
    /// Fabric: acknowledgement frames this node generated.
    fabric_acks: sum,
    /// Fabric: virtual ns this node's frames waited behind busy NI send
    /// and receive engines (queuing delay under contention).
    fabric_queue_ns: sum,
}

impl Counters {
    /// Total bytes moved on the network (control + data).
    pub fn total_traffic(&self) -> u64 {
        self.ctrl_bytes + self.data_bytes
    }
}

/// Statistics for one complete run: per-node counters plus timing results.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// One entry per node.
    pub per_node: Vec<Counters>,
    /// Virtual time at which the parallel phase completed (max over nodes).
    pub parallel_time_ns: u64,
    /// Modeled time of the sequential execution of the same program.
    pub sequential_time_ns: u64,
    /// Simulator events processed to produce this run (a host-side
    /// throughput metric — not part of the modeled results; deterministic
    /// for a given configuration).
    pub sim_events: u64,
}

impl RunStats {
    /// Field-wise sum over all nodes.
    pub fn totals(&self) -> Counters {
        let mut t = Counters::default();
        for c in &self.per_node {
            t.add(c);
        }
        t
    }

    /// Speedup of the parallel run over the modeled sequential run.
    pub fn speedup(&self) -> f64 {
        if self.parallel_time_ns == 0 {
            return 0.0;
        }
        self.sequential_time_ns as f64 / self.parallel_time_ns as f64
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set(
            "per_node",
            Value::Arr(self.per_node.iter().map(Counters::to_json).collect()),
        );
        v.set("parallel_time_ns", self.parallel_time_ns);
        v.set("sequential_time_ns", self.sequential_time_ns);
        v.set("sim_events", self.sim_events);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_fieldwise() {
        let mut a = Counters {
            read_faults: 1,
            data_bytes: 10,
            ..Default::default()
        };
        let b = Counters {
            read_faults: 2,
            ctrl_bytes: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.read_faults, 3);
        assert_eq!(a.data_bytes, 10);
        assert_eq!(a.ctrl_bytes, 5);
        assert_eq!(a.total_traffic(), 15);
    }

    #[test]
    fn add_takes_max_of_high_water_marks() {
        let mut a = Counters {
            twin_bytes_peak: 100,
            ..Default::default()
        };
        a.add(&Counters {
            twin_bytes_peak: 70,
            ..Default::default()
        });
        assert_eq!(a.twin_bytes_peak, 100);
        a.add(&Counters {
            twin_bytes_peak: 130,
            ..Default::default()
        });
        assert_eq!(a.twin_bytes_peak, 130);
    }

    #[test]
    fn speedup_ratio() {
        let s = RunStats {
            per_node: vec![Counters::default()],
            parallel_time_ns: 250,
            sequential_time_ns: 1000,
            sim_events: 0,
        };
        assert!((s.speedup() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_all_nodes() {
        let s = RunStats {
            per_node: (0..4)
                .map(|i| Counters {
                    write_faults: i as u64,
                    ..Default::default()
                })
                .collect(),
            parallel_time_ns: 1,
            sequential_time_ns: 1,
            sim_events: 0,
        };
        assert_eq!(s.totals().write_faults, 6);
    }

    #[test]
    fn totals_cover_every_field() {
        // Build nodes whose every field is non-zero (the field list lives
        // in one place, so this stays exhaustive as counters are added),
        // then check the merge over all of them.
        let s = RunStats {
            per_node: vec![Counters::splat(1), Counters::splat(2), Counters::splat(4)],
            parallel_time_ns: 1,
            sequential_time_ns: 1,
            sim_events: 0,
        };
        let t = s.totals().to_json();
        for name in Counters::FIELD_NAMES {
            let expect = if *name == "twin_bytes_peak" { 4 } else { 7 };
            assert_eq!(t.u64_field(name), Some(expect), "field {name}");
        }
    }

    #[test]
    fn zero_parallel_time_gives_zero_speedup() {
        let s = RunStats {
            per_node: Vec::new(),
            parallel_time_ns: 0,
            sequential_time_ns: 1000,
            sim_events: 0,
        };
        assert_eq!(s.speedup(), 0.0);
        assert_eq!(s.totals(), Counters::default());
    }

    #[test]
    fn to_json_has_every_field() {
        let text = Counters::default().to_json().to_string();
        for name in Counters::FIELD_NAMES {
            assert!(text.contains(&format!("\"{name}\"")), "missing {name}");
        }
    }
}
