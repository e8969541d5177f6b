//! Typed protocol events: the one stream every sink folds.
//!
//! A protocol fact is reported once, as an [`EventKind`]. The counters are
//! a fold of the stream ([`EventKind::count`]); the [`Recorder`]'s ring,
//! per-kind counts, histograms, series, trace view and the span log's
//! segments and waits are folds too. The kind list is declared once, in
//! `define_events!`: name, index, the `block`/`dur` conventions and the
//! generic field list all derive from that declaration.
//!
//! [`Recorder`]: crate::recorder::Recorder

use dsm_json::Value;
use dsm_stats::Counters;

/// One recorded protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time (ns) at which the event was recorded. For duration
    /// events ([`EventKind::dur`] is `Some`), this is the *end* of the
    /// interval.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Declares the event kinds, once: `"name" => Variant { field: type, .. }`
/// in index order. Adding a kind is one entry here plus the arms of
/// [`EventKind::count`] (and of any other sink) that want it.
///
/// `conventions(block, dur)` hands the macro the two field names it gives
/// meaning to. They have to come from the invocation: a `block` written in
/// the macro body lives in another hygiene context and could not be
/// shadowed by a variant's own `block` field. [`EventKind::block`] and
/// [`EventKind::dur`] bind the name to `None`, let a variant that has the
/// field shadow it, and convert with `Option::from` — the identity on an
/// `Option`, `Some` on a bare value — so both stay plain matches.
macro_rules! define_events {
    (
        conventions($block:ident, $dur:ident);
        $(
            $(#[$vattr:meta])*
            $name:literal => $variant:ident $({
                $( $(#[$fattr:meta])* $field:ident : $ty:ty ),+ $(,)?
            })?
        ),+ $(,)?
    ) => {
        /// The event payload. Every variant is `Copy`, so recording never
        /// allocates.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$vattr])* $variant $({ $( $(#[$fattr])* $field: $ty ),+ })? ),+
        }

        /// Declaration order as discriminants: the dense index.
        enum Index { $( $variant ),+ }

        impl EventKind {
            /// Kind names, aligned with [`EventKind::index`].
            pub const NAMES: [&'static str; Self::COUNT] = [ $( $name ),+ ];

            /// Number of distinct kinds (size of per-kind count arrays).
            pub const COUNT: usize = [ $( $name ),+ ].len();

            /// Dense index of this kind, for count arrays.
            #[inline]
            pub fn index(&self) -> usize {
                match self {
                    $( EventKind::$variant { .. } => Index::$variant as usize ),+
                }
            }

            /// Coherence block this event concerns, when it has one: the
            /// kind's `block` field. Selects the region the event is
            /// counted under and feeds the trace view's per-block filter.
            /// (`inline(always)`: see [`EventKind::count`].)
            #[inline(always)]
            #[allow(unused_variables)]
            pub fn block(&self) -> Option<usize> {
                let $block = None::<usize>;
                match *self {
                    $( EventKind::$variant { $( $( $field ),+ )? } => Option::from($block), )+
                }
            }

            /// Duration of the interval ending at the event's timestamp,
            /// for kinds that represent a span of virtual time: the kind's
            /// `dur` field.
            #[inline]
            #[allow(unused_variables)]
            pub fn dur(&self) -> Option<u64> {
                let $dur = None::<u64>;
                match *self {
                    $( EventKind::$variant { $( $( $field ),+ )? } => Option::from($dur), )+
                }
            }

            /// The payload as `(field name, JSON value)` pairs in declaration
            /// order; an absent optional block is left out. Allocates: for
            /// the trace view and the exporters, not for the hot path.
            pub fn fields(&self) -> Vec<(&'static str, Value)> {
                let mut out = Vec::new();
                match *self {
                    $( EventKind::$variant { $( $( $field ),+ )? } => {
                        $( $( out.push((stringify!($field), Value::from($field))); )+ )?
                    } )+
                }
                out.retain(|(_, value)| *value != Value::Null);
                out
            }

            /// One event of every kind, every field non-zero.
            #[cfg(test)]
            fn samples() -> Vec<EventKind> {
                vec![ $( EventKind::$variant $({ $( $field: Sample::sample() ),+ })? ),+ ]
            }
        }
    };
}

define_events! {
    conventions(block, dur);

    /// A fault that needs remote communication starts being serviced.
    "fault_begin" => FaultBegin {
        /// Faulting coherence block.
        block: usize,
        /// True for write faults, false for read faults.
        write: bool,
    },
    /// A remote fault finished; `dur` is the full stall (ns).
    "fault_end" => FaultEnd {
        /// Faulting coherence block.
        block: usize,
        /// True for write faults, false for read faults.
        write: bool,
        /// Stall duration in virtual ns.
        dur: u64,
    },
    /// A write fault resolved locally (twin creation, write re-enable).
    "local_fault" => LocalFault {
        /// Faulting coherence block.
        block: usize,
        /// Local service time in virtual ns.
        dur: u64,
    },
    /// A protocol message left this node (self-sends are not events).
    "msg_send" => MsgSend {
        /// Destination node.
        to: usize,
        /// Message tag (the `ProtoMsg` variant name).
        tag: &'static str,
        /// Coherence block the message concerns, if any.
        block: Option<usize>,
        /// Control bytes on the wire (header included).
        ctrl: u64,
        /// Data payload bytes on the wire.
        data: u64,
    },
    /// A protocol message was dispatched to its handler at this node.
    "msg_recv" => MsgRecv {
        /// Message tag (the `ProtoMsg` variant name).
        tag: &'static str,
        /// Coherence block the message concerns, if any.
        block: Option<usize>,
    },
    /// An asynchronous message was serviced via interrupt.
    "interrupt" => Interrupt,
    /// HLRC created a twin for a block.
    "twin_create" => TwinCreate {
        /// Twinned coherence block.
        block: usize,
        /// Bytes the node holds in twins, this one included.
        held: u64,
    },
    /// HLRC encoded a diff (at a release, or early on an incoming notice).
    "diff_create" => DiffCreate {
        /// Diffed coherence block.
        block: usize,
        /// Encoded diff payload size in bytes.
        bytes: u64,
    },
    /// A home node applied an incoming diff.
    "diff_apply" => DiffApply {
        /// Target coherence block.
        block: usize,
        /// Applied diff payload size in bytes.
        bytes: u64,
    },
    /// A non-empty batch of write notices was published (logged at a
    /// release, or piggybacked on a grant or barrier release) or processed
    /// at an acquire.
    "write_notices" => WriteNotices {
        /// Number of notices in the batch.
        count: u64,
        /// True when processing notices at an acquire; false when
        /// publishing.
        acquire: bool,
    },
    /// A block was invalidated at this node.
    "invalidate" => Invalidate {
        /// Invalidated coherence block.
        block: usize,
    },
    /// A lock acquire completed; `dur` is the wait (ns).
    "lock_wait" => LockWait {
        /// Lock id.
        lock: usize,
        /// The lock's manager is another node.
        remote: bool,
        /// Wait duration in virtual ns.
        dur: u64,
    },
    /// A barrier episode completed; `dur` is the wait (ns).
    "barrier_wait" => BarrierWait {
        /// Barrier id.
        barrier: usize,
        /// Wait duration in virtual ns.
        dur: u64,
    },
    /// The node advanced its local clock (compute or local protocol work).
    "advance" => Advance {
        /// Length of the advanced segment in virtual ns.
        dur: u64,
    },
    /// The fabric retransmitted an unacknowledged frame from this node.
    "retransmit" => Retransmit {
        /// Destination node of the frame.
        to: usize,
        /// Channel sequence number of the frame.
        seq: u64,
        /// Retransmission attempt (1 = first retry).
        attempt: u32,
    },
    /// A frame waited behind a busy NI engine; `dur` is the queuing delay.
    "net_queue" => NetQueue {
        /// Queuing delay in virtual ns.
        dur: u64,
    },
    /// Tardis: the home renewed a read lease header-only (the requester's
    /// copy was still current).
    "lease_renew" => LeaseRenew {
        /// Leased coherence block.
        block: usize,
    },
    /// Tardis: a read found its lease below the node's program timestamp
    /// and self-invalidated (no invalidation message was ever sent).
    "lease_expire" => LeaseExpire {
        /// Expired coherence block.
        block: usize,
    },
    /// Application work charged since the node's last flush of batched
    /// local time; stamped where the batch starts.
    "compute" => Compute {
        /// Pure application computation and local access time (ns).
        ns: u64,
        /// Polling instrumentation overhead on top of it (ns).
        poll_ns: u64,
    },
    /// Release-time protocol work (diffing, notice generation) ran on the
    /// application thread at an unlock or a barrier arrival.
    "release_work" => ReleaseWork {
        /// Its length in virtual ns.
        dur: u64,
    },
    /// This node serviced a remote request.
    "service" => Service {
        /// Handler occupancy in virtual ns.
        ns: u64,
        /// The part of it that extended the node's own compute segment
        /// (zero when the node was blocked or done).
        stolen_ns: u64,
    },
    /// This node served a block's data to another node.
    "fetch_serve" => FetchServe {
        /// Served coherence block.
        block: usize,
    },
    /// Tardis: an exclusive grant's timestamp jumped past outstanding read
    /// leases.
    "wts_bump" => WtsBump {
        /// Granted coherence block.
        block: usize,
    },
    /// The fabric transmitted a data frame from this node (an original, a
    /// retransmission, or the forced final attempt).
    "frame_tx" => FrameTx {
        /// The injector dropped the transmission.
        dropped: bool,
        /// The injector added a duplicate copy.
        duplicated: bool,
        /// The retry budget ran out: this is the injector-bypassing
        /// attempt.
        exhausted: bool,
    },
    /// A fabric frame reached this node's receive path.
    "frame_rx" => FrameRx {
        /// The dedup layer discarded it as a duplicate.
        duplicate: bool,
        /// The node generated an acknowledgement for it.
        acked: bool,
    },
}

impl EventKind {
    /// Short stable name of this kind.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }

    /// Index of the kind called `name`, for reading per-kind count arrays.
    pub fn index_of(name: &str) -> Option<usize> {
        Self::NAMES.iter().position(|n| *n == name)
    }

    /// Human-readable one-line description, `name field=value ..` with the
    /// values as JSON (used by the trace view; allowed to allocate because
    /// it only runs when tracing is on).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.name().to_string();
        for (name, value) in self.fields() {
            write!(out, " {name}={value}").expect("writing to a String");
        }
        out
    }

    /// Fold this event into a set of counters. Every field of [`Counters`]
    /// is a count or a sum over events, and this is its only writer: a
    /// node's counters are this fold over the node's events, a region's
    /// the fold over the events that name one of its blocks.
    ///
    /// `inline(always)` because the always-on path depends on it: an emit
    /// site passes a literal variant, and only once this match is inlined
    /// there does it collapse to the one or two increments the variant
    /// names. (`#[inline]` alone left it a 25-way dispatch called twice per
    /// event.)
    #[inline(always)]
    pub fn count(&self, c: &mut Counters) {
        match *self {
            EventKind::FaultBegin { write: false, .. } => c.read_faults += 1,
            EventKind::FaultBegin { write: true, .. } => c.write_faults += 1,
            EventKind::FaultEnd {
                write: false, dur, ..
            } => c.read_stall_ns += dur,
            EventKind::FaultEnd {
                write: true, dur, ..
            } => c.write_stall_ns += dur,
            EventKind::LocalFault { dur, .. } => {
                c.local_write_faults += 1;
                c.proto_local_ns += dur;
            }
            EventKind::MsgSend { ctrl, data, .. } => {
                c.msgs_sent += 1;
                c.ctrl_bytes += ctrl;
                c.data_bytes += data;
            }
            EventKind::MsgRecv { .. } | EventKind::Advance { .. } => {}
            EventKind::Interrupt => c.interrupts_taken += 1,
            EventKind::TwinCreate { held, .. } => {
                c.twins_created += 1;
                c.twin_bytes_peak = c.twin_bytes_peak.max(held);
            }
            EventKind::DiffCreate { bytes, .. } => {
                c.diffs_created += 1;
                c.diff_bytes += bytes;
            }
            EventKind::DiffApply { .. } => c.diffs_applied += 1,
            EventKind::WriteNotices {
                count,
                acquire: true,
            } => c.write_notices_recv += count,
            EventKind::WriteNotices {
                count,
                acquire: false,
            } => c.write_notices_sent += count,
            EventKind::Invalidate { .. } => c.invalidations += 1,
            EventKind::LockWait { remote, dur, .. } => {
                c.lock_acquires += 1;
                c.remote_lock_acquires += u64::from(remote);
                c.lock_wait_ns += dur;
            }
            EventKind::BarrierWait { dur, .. } => {
                c.barriers += 1;
                c.barrier_wait_ns += dur;
            }
            EventKind::Retransmit { .. } => c.fabric_retries += 1,
            EventKind::NetQueue { dur } => c.fabric_queue_ns += dur,
            EventKind::LeaseRenew { .. } => c.lease_renewals += 1,
            EventKind::LeaseExpire { .. } => c.lease_expiries += 1,
            EventKind::Compute { ns, poll_ns } => {
                c.compute_ns += ns;
                c.poll_overhead_ns += poll_ns;
            }
            EventKind::ReleaseWork { dur } => c.proto_local_ns += dur,
            EventKind::Service { ns, stolen_ns } => {
                c.service_ns += ns;
                c.occupancy_stolen_ns += stolen_ns;
            }
            EventKind::FetchServe { .. } => c.fetches_served += 1,
            EventKind::WtsBump { .. } => c.wts_bumps += 1,
            EventKind::FrameTx {
                dropped,
                duplicated,
                exhausted,
            } => {
                c.fabric_frames += 1;
                c.fabric_drops += u64::from(dropped);
                c.fabric_dups += u64::from(duplicated);
                c.fabric_exhausted += u64::from(exhausted);
            }
            EventKind::FrameRx { duplicate, acked } => {
                c.fabric_dup_drops += u64::from(duplicate);
                c.fabric_acks += u64::from(acked);
            }
        }
    }
}

/// A non-zero value of each field type, for [`EventKind::samples`].
#[cfg(test)]
trait Sample {
    fn sample() -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    macro_rules! sample {
        ($($ty:ty => $v:expr),+ $(,)?) => {
            $( impl Sample for $ty {
                fn sample() -> Self {
                    $v
                }
            } )+
        };
    }
    sample!(u64 => 5, u32 => 2, usize => 3, bool => true, &'static str => "t", Option<usize> => Some(3));

    #[test]
    fn index_and_name_align() {
        let kinds = EventKind::samples();
        assert_eq!(kinds.len(), EventKind::COUNT);
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(k.name(), EventKind::NAMES[i]);
            assert_eq!(EventKind::index_of(k.name()), Some(i));
            assert!(k.describe().starts_with(k.name()));
        }
        assert_eq!(EventKind::index_of("no_such_kind"), None);
    }

    #[test]
    fn block_and_dur_follow_the_field_names() {
        assert_eq!(EventKind::Invalidate { block: 7 }.block(), Some(7));
        assert_eq!(EventKind::Interrupt.block(), None);
        assert_eq!(EventKind::Advance { dur: 9 }.dur(), Some(9));
        assert_eq!(EventKind::TwinCreate { block: 0, held: 64 }.dur(), None);
        let recv = |block| EventKind::MsgRecv { tag: "t", block };
        assert_eq!(recv(Some(4)).block(), Some(4));
        assert_eq!(recv(None).block(), None);
        // Every kind: `block()`/`dur()` are exactly the so-named fields.
        for k in EventKind::samples() {
            let field = |name| {
                let fields = k.fields();
                fields.iter().find(|(n, _)| *n == name)?.1.as_u64()
            };
            assert_eq!(k.block().map(|b| b as u64), field("block"), "{k:?}");
            assert_eq!(k.dur(), field("dur"), "{k:?}");
        }
    }

    #[test]
    fn describe_is_name_then_fields() {
        let send = EventKind::MsgSend {
            to: 2,
            tag: "ScFetch",
            block: None,
            ctrl: 16,
            data: 64,
        };
        assert_eq!(
            send.describe(),
            r#"msg_send to=2 tag="ScFetch" ctrl=16 data=64"#
        );
        assert_eq!(EventKind::Interrupt.describe(), "interrupt");
        let fault = EventKind::FaultBegin {
            block: 3,
            write: true,
        };
        assert_eq!(fault.describe(), "fault_begin block=3 write=true");
    }

    /// A counter nobody feeds fails here, not in a table months later.
    #[test]
    fn every_counter_is_fed_by_some_kind() {
        let mut events = EventKind::samples();
        // The flags that select between two counters, the other way round.
        events.extend([
            EventKind::FaultBegin {
                block: 1,
                write: false,
            },
            EventKind::FaultEnd {
                block: 1,
                write: false,
                dur: 1,
            },
            EventKind::WriteNotices {
                count: 1,
                acquire: false,
            },
        ]);
        let mut c = Counters::default();
        for e in &events {
            e.count(&mut c);
        }
        let json = c.to_json();
        for name in Counters::FIELD_NAMES {
            assert_ne!(json.u64_field(name), Some(0), "no event feeds {name}");
        }
    }

    #[test]
    fn count_sums_and_takes_high_water_marks() {
        let mut c = Counters::default();
        for held in [128, 512, 256] {
            EventKind::TwinCreate { block: 0, held }.count(&mut c);
        }
        assert_eq!((c.twins_created, c.twin_bytes_peak), (3, 512));
        for remote in [true, false] {
            EventKind::LockWait {
                lock: 0,
                remote,
                dur: 10,
            }
            .count(&mut c);
        }
        assert_eq!(
            (c.lock_acquires, c.remote_lock_acquires, c.lock_wait_ns),
            (2, 1, 20)
        );
    }
}
