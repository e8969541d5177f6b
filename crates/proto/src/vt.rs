//! Vector timestamps for the lazy release consistency protocols, and the
//! scalar logical-lease timestamps used by the Tardis protocol.

use crate::msg::VT_ENTRY_BYTES;

/// Length, in logical-timestamp units, of a Tardis read lease.
///
/// A read grant covers the block up to `max(rts, max(pts, wts) + LEASE_TS)`:
/// the lease must reach past both the home's write timestamp and the
/// requester's own program timestamp or it would be born expired. Logical
/// units advance only at exclusive write grants and synchronization merges,
/// so a short lease already survives many consecutive reads; a longer one
/// trades fewer renewals for larger `wts` jumps at writes.
pub const LEASE_TS: u64 = 8;

/// Lease end granted to a read of a block with write timestamp `wts`, by a
/// requester at program timestamp `pts`, when the largest lease already
/// granted ends at `rts`. Monotone in all three inputs, and never below
/// `rts` — the home's read timestamp never moves backwards.
#[inline]
pub fn lease_grant(rts: u64, wts: u64, pts: u64) -> u64 {
    rts.max(pts.max(wts) + LEASE_TS)
}

/// The write timestamp minted for an exclusive write grant: strictly after
/// both the previous write and every outstanding read lease, so the write
/// is logically ordered after every read the home has ever promised.
#[inline]
pub fn wts_grant(wts: u64, rts: u64) -> u64 {
    wts.max(rts) + 1
}

/// A vector clock over cluster nodes.
///
/// `v[i]` counts the intervals of node `i` that are known to
/// happen-before the owner's current logical time. Intervals are delimited
/// by release operations (lock releases and barrier arrivals), per Keleher's
/// LRC formulation.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct VClock(Vec<u32>);

impl Clone for VClock {
    fn clone(&self) -> Self {
        VClock(self.0.clone())
    }

    /// Overwrites in place: a table of published clocks (the checker keeps
    /// one per lock) is refreshed without a trip to the allocator.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl VClock {
    /// The zero clock for `n` nodes.
    pub fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no entries (unused in practice; clusters are
    /// non-empty).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Component for node `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.0[i]
    }

    /// Increment node `i`'s own component (start of a new interval) and
    /// return the new interval index. Saturates at `u32::MAX` rather than
    /// wrapping: a wrapped component would re-order intervals, while a
    /// saturated one merely stops distinguishing new ones (unreachable in
    /// practice — it needs four billion releases by one node).
    pub fn tick(&mut self, i: usize) -> u32 {
        self.0[i] = self.0[i].saturating_add(1);
        self.0[i]
    }

    /// Roll component `i` back one interval. Only used by the
    /// `lock-stale-vt` mutation self-test; never part of protocol
    /// operation.
    pub fn rollback(&mut self, i: usize) {
        self.0[i] -= 1;
    }

    /// Element-wise maximum: merge knowledge from another clock.
    pub fn merge(&mut self, other: &VClock) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// True if every component of `self` is ≥ the corresponding component
    /// of `other` (i.e. `other` happens-before-or-equals `self`).
    pub fn dominates(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// Intervals `(node, idx)` known to `upto` but not to `have`:
    /// `have[j] < idx <= upto[j]`. This is exactly the set of write-notice
    /// intervals a grant must carry to an acquirer.
    pub fn missing_intervals(have: &VClock, upto: &VClock) -> Vec<(usize, u32)> {
        let mut v = Vec::new();
        for j in 0..upto.0.len() {
            for k in (have.0[j] + 1)..=upto.0[j] {
                v.push((j, k));
            }
        }
        v
    }

    /// Wire size in bytes, [`VT_ENTRY_BYTES`] per entry.
    pub fn wire_bytes(&self) -> u64 {
        VT_ENTRY_BYTES * self.0.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_increments_own_component() {
        let mut v = VClock::new(3);
        assert_eq!(v.tick(1), 1);
        assert_eq!(v.tick(1), 2);
        assert_eq!(v.get(1), 2);
        assert_eq!(v.get(0), 0);
    }

    #[test]
    fn merge_is_elementwise_max() {
        let mut a = VClock::new(3);
        let mut b = VClock::new(3);
        a.tick(0);
        a.tick(0);
        b.tick(1);
        a.merge(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn dominates_is_partial_order() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        assert!(a.dominates(&b) && b.dominates(&a)); // equal
        a.tick(0);
        b.tick(1);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a)); // concurrent
        a.merge(&b);
        assert!(a.dominates(&b));
    }

    #[test]
    fn missing_intervals_enumerates_gap() {
        let mut have = VClock::new(2);
        let mut upto = VClock::new(2);
        have.tick(0); // have = [1, 0]
        upto.tick(0);
        upto.tick(0);
        upto.tick(1); // upto = [2, 1]
        let v = VClock::missing_intervals(&have, &upto);
        assert_eq!(v, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn merge_then_dominates_both() {
        let mut a = VClock::new(4);
        let mut b = VClock::new(4);
        for _ in 0..3 {
            a.tick(2);
        }
        b.tick(0);
        b.tick(3);
        let mut m = a.clone();
        m.merge(&b);
        assert!(m.dominates(&a));
        assert!(m.dominates(&b));
    }

    /// Build a clock with the given components (test-only shorthand).
    fn vc(components: &[u32]) -> VClock {
        let mut v = VClock::new(components.len());
        for (i, &k) in components.iter().enumerate() {
            for _ in 0..k {
                v.tick(i);
            }
        }
        v
    }

    #[test]
    fn tick_saturates_instead_of_wrapping() {
        let mut near = VClock(vec![u32::MAX - 1, 0]);
        assert_eq!(near.tick(0), u32::MAX);
        assert_eq!(near.tick(0), u32::MAX, "tick at ceiling saturates");
        assert!(near.dominates(&vc(&[7, 0])), "saturated clock still orders");
        // A wrapped component would have destroyed the order instead.
        assert!(!vc(&[7, 0]).dominates(&near));
    }

    #[test]
    fn incomparable_clocks_join_to_componentwise_max() {
        let a = vc(&[3, 0, 1]);
        let b = vc(&[1, 2, 0]);
        assert!(!a.dominates(&b) && !b.dominates(&a), "a, b incomparable");
        let mut j = a.clone();
        j.merge(&b);
        assert_eq!((j.get(0), j.get(1), j.get(2)), (3, 2, 1));
        // Joining incomparable clocks yields strictly more knowledge than
        // either side alone.
        assert!(j.dominates(&a) && j.dominates(&b));
        assert_ne!(j, a);
        assert_ne!(j, b);
        // And missing_intervals is symmetric-difference-shaped: each side
        // is missing exactly the other's exclusive intervals.
        assert_eq!(VClock::missing_intervals(&a, &j), vec![(1, 1), (1, 2)]);
        assert_eq!(
            VClock::missing_intervals(&b, &j),
            vec![(0, 2), (0, 3), (2, 1)]
        );
    }

    #[test]
    fn join_is_a_least_upper_bound_on_random_clocks() {
        // Fixed-seed property test: for random clocks a, b and a random
        // upper bound u of both, join(a, b) dominates a and b and is
        // dominated by u — i.e. it is the *least* upper bound.
        use dsm_sim::rng::mix64;
        let n = 5;
        for case in 0..500u64 {
            let comp = |lane: u64, i: usize| (mix64(case ^ mix64(lane ^ i as u64)) % 8) as u32;
            let a = vc(&(0..n).map(|i| comp(1, i)).collect::<Vec<_>>());
            let b = vc(&(0..n).map(|i| comp(2, i)).collect::<Vec<_>>());
            let mut j = a.clone();
            j.merge(&b);
            assert!(
                j.dominates(&a) && j.dominates(&b),
                "case {case}: upper bound"
            );
            // Any other upper bound u >= a, b also satisfies u >= join.
            let u = vc(&(0..n)
                .map(|i| a.get(i).max(b.get(i)) + comp(3, i))
                .collect::<Vec<_>>());
            assert!(u.dominates(&j), "case {case}: least among upper bounds");
            // Idempotent and commutative.
            let mut j2 = b.clone();
            j2.merge(&a);
            assert_eq!(j, j2, "case {case}: commutative");
            let mut j3 = j.clone();
            j3.merge(&j);
            assert_eq!(j3, j, "case {case}: idempotent");
        }
    }

    #[test]
    fn lease_grant_is_monotone_and_never_born_expired() {
        // A lease must cover the requester's own timestamp (else the read
        // would expire immediately) and never shrink the home's rts.
        assert_eq!(lease_grant(0, 1, 1), 1 + LEASE_TS);
        assert_eq!(lease_grant(50, 1, 1), 50, "rts never moves backwards");
        let l = lease_grant(10, 5, 40);
        assert!(l >= 40, "covers the requester's pts");
        assert!(l >= 10, "never shrinks the home's rts");
        assert!(l >= 5 + LEASE_TS, "spans a full lease past wts");
    }

    #[test]
    fn wts_grant_jumps_past_outstanding_leases() {
        assert_eq!(wts_grant(1, 1), 2, "no leases: plain increment");
        assert_eq!(wts_grant(3, 20), 21, "jumps past the largest lease");
        let w = wts_grant(7, 7 + LEASE_TS);
        assert!(w > 7 + LEASE_TS, "strictly after every granted lease");
    }
}
