//! Deliberate protocol mutations for checker self-tests.
//!
//! A checker that never fires is worse than none, so the kill-matrix test
//! enables exactly one [`Mutation`] per run and asserts the checker reports
//! it. Each mutation models a realistic protocol bug at a single site:
//! a dropped write notice, a corrupted diff, a stale lock timestamp, and so
//! on. The two fabric mutations corrupt the delivery *report* the checker
//! sees (a phantom duplicate / early release) rather than re-posting real
//! envelopes, so a transport bug is observed as such instead of crashing
//! the protocol layer above.
//!
//! Every build carries the sites;
//! [`RunConfig::mutation`](crate::config::RunConfig::mutation) alone arms
//! one. A site is a [`ProtoWorld::fires`](crate::world::ProtoWorld::fires)
//! test (or its sticky form) on a protocol-event path (a grant, a release,
//! a diff, a fault handler, a frame report), never on the access hit path:
//! the Tardis lease site runs only after the valid-lease early return. An
//! unarmed run pays one `None` test per protocol event.
//!
//! Which occurrence of a site fires is chosen by seed: occurrence
//! `roll(seed, mutation, ..) % 3` of the eligible site calls. One-shot
//! mutations fire exactly once; [`Mutation::HbSkipBarrier`] is sticky
//! (every occurrence from the chosen one on), because a single skipped
//! happens-before join must persist long enough for a racy access pair to
//! reach the detector.

use dsm_sim::rng::roll;

use crate::config::Protocol;

/// The catalogue of protocol mutations the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Drop one write notice from a lock grant (SW-LRC/HLRC).
    DropWriteNotice,
    /// Corrupt a created HLRC diff: truncate the tail of one run.
    SkipDiffWord,
    /// Store a stale vector time at lock release (manager's `last_vt`
    /// misses the releaser's final interval).
    LockStaleVt,
    /// Skip the SW-LRC version bump at release: a write notice republishes
    /// a stale version.
    SwStaleVersion,
    /// SC: skip invalidating one sharer on a write miss, leaving a stale
    /// readable copy while exclusive access is granted.
    ScKeepReader,
    /// Report a duplicate fabric frame as delivered to the protocol.
    FabricDupDeliver,
    /// Report a held out-of-order fabric frame as released early.
    FabricReorder,
    /// Skip the race detector's happens-before join at a barrier pass on
    /// node 0 (sticky).
    HbSkipBarrier,
    /// Tardis: read through an expired lease once instead of faulting
    /// back to the home (the copy may be stale past a required write).
    TdLeaseOverrun,
    /// Tardis: reuse the previous write timestamp at an exclusive grant
    /// instead of minting a fresh one.
    TdWtsStall,
    /// Tardis: mint the write timestamp ignoring outstanding read leases
    /// (the write lands inside a promised read window).
    TdWtsUnderLease,
}

impl Mutation {
    /// Every mutation, in kill-matrix order. New mutations are appended so
    /// existing seed/lane pairings stay stable.
    pub const ALL: [Mutation; 11] = [
        Mutation::DropWriteNotice,
        Mutation::SkipDiffWord,
        Mutation::LockStaleVt,
        Mutation::SwStaleVersion,
        Mutation::ScKeepReader,
        Mutation::FabricDupDeliver,
        Mutation::FabricReorder,
        Mutation::HbSkipBarrier,
        Mutation::TdLeaseOverrun,
        Mutation::TdWtsStall,
        Mutation::TdWtsUnderLease,
    ];

    /// Stable kebab-case name (CLI / JSONL).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropWriteNotice => "drop-write-notice",
            Mutation::SkipDiffWord => "skip-diff-word",
            Mutation::LockStaleVt => "lock-stale-vt",
            Mutation::SwStaleVersion => "sw-stale-version",
            Mutation::ScKeepReader => "sc-keep-reader",
            Mutation::FabricDupDeliver => "fabric-dup-deliver",
            Mutation::FabricReorder => "fabric-reorder",
            Mutation::HbSkipBarrier => "hb-skip-barrier",
            Mutation::TdLeaseOverrun => "td-lease-overrun",
            Mutation::TdWtsStall => "td-wts-stall",
            Mutation::TdWtsUnderLease => "td-wts-under-lease",
        }
    }

    /// Stable lane index for seeding.
    fn lane(self) -> u64 {
        Mutation::ALL.iter().position(|&m| m == self).unwrap() as u64
    }

    /// Smallest seed whose target occurrence is 0, i.e. the mutation
    /// strikes the *first* eligible site call. The model checker uses this
    /// so a planted bug fires on every explored schedule — an exhaustive
    /// kill needs no seed search, only schedule search.
    pub fn first_occurrence_seed(self) -> u64 {
        (0u64..)
            .find(|&seed| roll(seed, self.lane(), 0, 0, 0, 0).is_multiple_of(3))
            .unwrap()
    }
}

/// Fabric environment a mutation needs to be observable: the two fabric
/// report mutations corrupt a *verdict*, so genuine duplicates / held
/// out-of-order frames must exist for the lie to contradict anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutFabric {
    /// Ideal fabric (no faults) suffices.
    Ideal,
    /// Needs a heavily duplicating reliable fabric.
    Dup,
    /// Needs a heavily reordering reliable fabric.
    Reorder,
}

/// One row of the mutation kill matrix: the mutation, the checker rule
/// expected to catch it, the protocol under which its injection site is
/// exercised, and the fabric environment it needs.
#[derive(Debug, Clone, Copy)]
pub struct MutationSpec {
    /// The planted mutation.
    pub mutation: Mutation,
    /// Checker rule identifier that must appear among the violations.
    pub rule: &'static str,
    /// Protocol whose runs exercise the injection site.
    pub protocol: Protocol,
    /// Fabric environment required for the mutation to be observable.
    pub fabric: MutFabric,
}

/// The full kill matrix, one row per [`Mutation::ALL`] entry (asserted by
/// a test below). Shared by the seeded kill-matrix test and the model
/// checker's exhaustive-kill test so the two can never drift apart.
pub const MUTATIONS: [MutationSpec; 11] = [
    MutationSpec {
        mutation: Mutation::DropWriteNotice,
        rule: "lrc-notice-completeness",
        protocol: Protocol::Hlrc,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::SkipDiffWord,
        rule: "hlrc-diff-coverage",
        protocol: Protocol::Hlrc,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::LockStaleVt,
        rule: "lrc-lock-stale-vt",
        protocol: Protocol::Hlrc,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::SwStaleVersion,
        rule: "sw-stale-version",
        protocol: Protocol::SwLrc,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::ScKeepReader,
        rule: "sc-exclusive-with-readers",
        protocol: Protocol::Sc,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::FabricDupDeliver,
        rule: "fabric-exactly-once",
        protocol: Protocol::Sc,
        fabric: MutFabric::Dup,
    },
    MutationSpec {
        mutation: Mutation::FabricReorder,
        rule: "fabric-in-order",
        protocol: Protocol::Sc,
        fabric: MutFabric::Reorder,
    },
    MutationSpec {
        mutation: Mutation::HbSkipBarrier,
        rule: "hb-race",
        protocol: Protocol::Sc,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::TdLeaseOverrun,
        rule: "td-lease-overrun",
        protocol: Protocol::Tardis,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::TdWtsStall,
        rule: "td-wts-monotone",
        protocol: Protocol::Tardis,
        fabric: MutFabric::Ideal,
    },
    MutationSpec {
        mutation: Mutation::TdWtsUnderLease,
        rule: "td-write-under-lease",
        protocol: Protocol::Tardis,
        fabric: MutFabric::Ideal,
    },
];

/// Per-run mutation state: which mutation is armed, which eligible site
/// occurrence it strikes, and whether it has struck yet.
#[derive(Debug, Clone, Hash)]
pub struct MutRt {
    which: Mutation,
    /// Eligible-occurrence index that fires (0-based).
    target: u64,
    /// Eligible occurrences seen so far.
    count: u64,
    /// Whether the mutation has fired at least once.
    pub fired: bool,
}

impl MutRt {
    /// Arm `which`, picking the target occurrence from `seed`.
    pub fn new(which: Mutation, seed: u64) -> Self {
        MutRt {
            which,
            target: roll(seed, which.lane(), 0, 0, 0, 0) % 3,
            count: 0,
            fired: false,
        }
    }

    /// The armed mutation.
    pub fn which(&self) -> Mutation {
        self.which
    }

    /// One-shot site: returns true exactly once, at the target eligible
    /// occurrence. `eligible` lets a site skip occurrences where the
    /// mutation would be a no-op (e.g. an empty notice list).
    pub fn fire_if(&mut self, m: Mutation, eligible: bool) -> bool {
        if m != self.which || !eligible {
            return false;
        }
        let hit = self.count == self.target;
        self.count += 1;
        if hit {
            self.fired = true;
        }
        hit
    }

    /// Sticky site: fires at the target occurrence and every one after.
    pub fn fire_sticky(&mut self, m: Mutation) -> bool {
        if m != self.which {
            return false;
        }
        let hit = self.count >= self.target;
        self.count += 1;
        if hit {
            self.fired = true;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_mutation_once() {
        for (i, m) in Mutation::ALL.into_iter().enumerate() {
            assert_eq!(MUTATIONS[i].mutation, m, "registry order matches ALL");
        }
    }

    #[test]
    fn first_occurrence_seed_targets_occurrence_zero() {
        for m in Mutation::ALL {
            let rt = MutRt::new(m, m.first_occurrence_seed());
            assert_eq!(rt.target, 0, "{}", m.name());
        }
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let mut rt = MutRt::new(Mutation::DropWriteNotice, 42);
        let fired: Vec<bool> = (0..10)
            .map(|_| rt.fire_if(Mutation::DropWriteNotice, true))
            .collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 1);
        assert!(rt.fired);
        // Other mutations never fire and never advance the count.
        assert!(!rt.fire_if(Mutation::SkipDiffWord, true));
    }

    #[test]
    fn ineligible_occurrences_do_not_count() {
        let mut rt = MutRt::new(Mutation::LockStaleVt, 7);
        let target = rt.target;
        for _ in 0..100 {
            assert!(!rt.fire_if(Mutation::LockStaleVt, false));
        }
        assert_eq!(rt.count, 0);
        let mut hits = 0;
        for i in 0..10 {
            if rt.fire_if(Mutation::LockStaleVt, true) {
                hits += 1;
                assert_eq!(i, target);
            }
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn sticky_fires_from_target_on() {
        let mut rt = MutRt::new(Mutation::HbSkipBarrier, 3);
        let target = rt.target as usize;
        let fired: Vec<bool> = (0..6)
            .map(|_| rt.fire_sticky(Mutation::HbSkipBarrier))
            .collect();
        assert!(fired[..target].iter().all(|&f| !f));
        assert!(fired[target..].iter().all(|&f| f));
    }

    #[test]
    fn seed_selects_target_deterministically() {
        let a = MutRt::new(Mutation::SkipDiffWord, 1);
        let b = MutRt::new(Mutation::SkipDiffWord, 1);
        assert_eq!(a.target, b.target);
        assert!(a.target < 3);
    }
}
