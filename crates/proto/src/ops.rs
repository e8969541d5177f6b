//! Node-side operations: the access-check fast path and fault entry points
//! used by the run-time thread API in `dsm-core`.

use dsm_mem::{Access, BlockId};
use dsm_obs::EventKind;
use dsm_sim::{NodeId, Sched, Time};

use crate::config::Protocol;
use crate::msg::{FaultKind, Packet};
use crate::world::ProtoWorld;
use crate::{hlrc, sc, swlrc, tardis};

/// Result of an access attempt on the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// The access completed; charge this local time.
    Done(Time),
    /// A fault on the given block was resolved locally (HLRC twinning,
    /// SW-LRC write re-enable); charge this time, report the local fault,
    /// and retry the access.
    LocalFault(Time, BlockId),
    /// The access faults remotely on this block; start a fault, block, and
    /// retry.
    Fault(BlockId),
}

/// Move a word as a word: the 8-byte accessors are most of the hit path,
/// and a slice copy of a length the compiler cannot see is a call.
#[inline(always)]
fn copy_bytes(dst: &mut [u8], src: &[u8]) {
    match (
        <&mut [u8; 8]>::try_from(&mut *dst),
        <&[u8; 8]>::try_from(src),
    ) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => dst.copy_from_slice(src),
    }
}

/// Whether `[addr, addr + len)` lies inside block `b`.
fn in_block(w: &ProtoWorld, b: BlockId, addr: usize, len: usize) -> bool {
    let r = w.layout.block_range(b);
    r.start <= addr && addr + len <= r.end
}

/// Attempt to read `buf.len()` bytes at `addr` into `buf`. The bytes lie
/// inside block `b`: the caller cuts an access at block boundaries
/// (`Layout::locate`) and attempts each piece on its own. `now` stamps the
/// access for an installed checker.
#[inline]
pub fn try_read(
    w: &mut ProtoWorld,
    me: NodeId,
    b: BlockId,
    addr: usize,
    buf: &mut [u8],
    now: Time,
) -> Attempt {
    debug_assert!(in_block(w, b, addr, buf.len()));
    let access = w.access.get(me, b);
    if !access.readable() {
        return Attempt::Fault(b);
    }
    // Tardis read-only copies additionally expire lazily against the
    // program timestamp (owners hold ReadWrite and are exempt).
    if w.has_tardis
        && access == Access::Read
        && w.protocol_of(b) == Protocol::Tardis
        && !tardis::lease_valid(w, me, b, now)
    {
        return Attempt::Fault(b);
    }
    debug_assert!(
        w.data.is_present(me, b),
        "node {me} reads block {b} without a grant"
    );
    copy_bytes(buf, &w.data.node(me)[addr..addr + buf.len()]);
    w.audit(|c, w| c.on_access(w, me, addr, buf.len(), false, now));
    Attempt::Done(w.cfg.cost.access_cost(buf.len()))
}

/// Attempt to write `data` at `addr`, inside block `b` (see [`try_read`]).
/// `now` stamps locally-resolved fault events.
#[inline]
pub fn try_write(
    w: &mut ProtoWorld,
    me: NodeId,
    b: BlockId,
    addr: usize,
    data: &[u8],
    now: Time,
) -> Attempt {
    debug_assert!(in_block(w, b, addr, data.len()));
    if w.access.get(me, b) != Access::ReadWrite {
        return write_miss(w, me, b, now);
    }
    debug_assert!(
        w.data.is_present(me, b),
        "node {me} writes block {b} without a grant"
    );
    copy_bytes(&mut w.data.node_mut(me, b)[addr..addr + data.len()], data);
    w.audit(|c, w| c.on_access(w, me, addr, data.len(), true, now));
    Attempt::Done(w.cfg.cost.access_cost(data.len()))
}

/// A store to a block `me` may not write: a fault, resolved locally where
/// the block's protocol can (SW-LRC re-enable, HLRC twin). Out of line so
/// the hit path above stays a check, a copy and a cost.
#[cold]
#[inline(never)]
fn write_miss(w: &mut ProtoWorld, me: NodeId, b: BlockId, now: Time) -> Attempt {
    if w.access.get(me, b) == Access::Invalid {
        return Attempt::Fault(b);
    }
    match w.protocol_of(b) {
        Protocol::Sc => Attempt::Fault(b),
        Protocol::SwLrc => {
            if w.sw.is_owner(me, b) {
                return Attempt::LocalFault(swlrc::local_reenable(w, me, b), b);
            }
            Attempt::Fault(b)
        }
        Protocol::Hlrc => {
            // A store on an unclaimed block must claim the home through the
            // directory (store touch), not twin locally.
            if w.homes.home(b).is_none() {
                return Attempt::Fault(b);
            }
            Attempt::LocalFault(hlrc::local_write_fault(w, me, b, now), b)
        }
        // Tardis upgrades go through the home: exclusivity needs a freshly
        // minted write timestamp.
        Protocol::Tardis => Attempt::Fault(b),
    }
}

/// Start a remote fault on `b` — the one place a fault's beginning is
/// reported — and hand it to the block's protocol; the caller blocks until
/// the protocol wakes it with the access installed.
pub fn start_fault(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    let write = kind == FaultKind::Write;
    w.emit(me, s.now(), EventKind::FaultBegin { block: b, write });
    match w.protocol_of(b) {
        Protocol::Sc => sc::start_fault(w, s, me, b, kind),
        Protocol::SwLrc => swlrc::start_fault(w, s, me, b, kind),
        Protocol::Hlrc => hlrc::start_fault(w, s, me, b, kind),
        Protocol::Tardis => tardis::start_fault(w, s, me, b, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use dsm_mem::Layout;

    fn world(p: Protocol) -> ProtoWorld {
        ProtoWorld::new(RunConfig::new(p, 64).with_nodes(4), Layout::new(1024, 64))
    }

    #[test]
    fn read_of_invalid_block_faults() {
        let mut w = world(Protocol::Sc);
        let mut buf = [0u8; 8];
        assert_eq!(try_read(&mut w, 0, 0, 0, &mut buf, 0), Attempt::Fault(0));
    }

    #[test]
    fn read_hits_after_access_granted() {
        let mut w = world(Protocol::Sc);
        w.grant(0, 0, Access::Read);
        w.data.node_mut(0, 0)[0..8].copy_from_slice(&7u64.to_le_bytes());
        let mut buf = [0u8; 8];
        match try_read(&mut w, 0, 0, 0, &mut buf, 0) {
            Attempt::Done(t) => assert_eq!(t, w.cfg.cost.local_access_ns),
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn write_on_read_copy_faults_under_sc() {
        let mut w = world(Protocol::Sc);
        w.grant(0, 3, Access::Read);
        assert_eq!(
            try_write(&mut w, 0, 3, 3 * 64, &[1, 2, 3], 0),
            Attempt::Fault(3)
        );
    }

    #[test]
    fn hlrc_write_on_read_copy_twins_locally() {
        let mut w = world(Protocol::Hlrc);
        w.homes.assign(3, 1); // remote home
        w.grant(0, 3, Access::Read);
        match try_write(&mut w, 0, 3, 3 * 64, &[9], 0) {
            Attempt::LocalFault(t, b) => {
                assert!(t >= w.cfg.cost.fault_exception_ns);
                assert_eq!(b, 3);
            }
            other => panic!("expected LocalFault, got {other:?}"),
        }
        assert!(w.nodes[0].twins.has(3));
        assert_eq!(w.access.get(0, 3), Access::ReadWrite);
        // Retry succeeds and the write lands.
        match try_write(&mut w, 0, 3, 3 * 64, &[9], 0) {
            Attempt::Done(_) => {}
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(w.data.node(0)[3 * 64], 9);
    }
}
