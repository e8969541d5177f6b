//! The `Dsm` handle: everything a program may do to shared memory.

use std::future::Future;
use std::task::{Context, Poll, Waker};

use crate::par::ParDsm;
use crate::seq::SeqDsm;

/// Handle through which a program body accesses shared memory and
/// synchronizes: the parallel run-time ([`ParDsm`], one per simulated node)
/// or the sequential runner ([`SeqDsm`]).
///
/// Every operation is an `async fn`, because under the parallel run-time any
/// of them may have to wait — for a fault, a lock, a barrier, or just for
/// the node's batched local time to be pushed into the simulator. An
/// operation that does not wait (a hit; anything at all on the sequential
/// arm) completes on its first poll without suspending. Dispatch between the
/// arms is a `match`, not a vtable, and no operation allocates a future.
///
/// Addresses are byte offsets into the shared space laid out by the program
/// itself (typically with [`dsm_mem::BumpAlloc`] at construction).
pub enum Dsm {
    /// One node, plain memory: never suspends.
    Seq(SeqDsm),
    /// A node of the simulated cluster.
    Par(ParDsm),
}

/// Run one operation on whichever arm `$self` is: `$op` is written once,
/// as a call on `$d`, and is awaited on the parallel arm only (the
/// sequential run-time's operations are plain functions of the same names).
///
/// Every operation below dispatches here directly instead of being built
/// on another (`read_f64` on `read_u64` on `read`): each `async fn` between
/// a program and its run-time is one more state machine to enter and leave
/// per access, which the optimizer does not flatten, and three of them
/// around an 8-byte load cost a sequential run several times the load.
/// The typed accessors are the one exception, and for the same reason:
/// their parallel arm is not the sequential arm's function of the same name
/// but the word path, which skips the state machine of the byte-slice loop
/// on a hit.
macro_rules! on_arm {
    ($self:ident, $d:ident => $op:expr) => {
        match $self {
            Dsm::Seq($d) => $op,
            Dsm::Par($d) => $op.await,
        }
    };
}

/// The typed accessors: little-endian `$t` at an address. They are most of
/// the accesses a program makes, so the parallel arm takes the word path
/// ([`ParDsm::read_word`] / [`ParDsm::write_word`]): a word inside one block
/// hits in one attempt without entering the byte-slice loop the bulk
/// accessors use. The sequential arm is the byte-slice access.
macro_rules! typed_accessors {
    ($($t:ident: $read:ident, $write:ident;)*) => {$(
        #[doc = concat!("Read a little-endian `", stringify!($t), "`.")]
        #[inline]
        pub async fn $read(&mut self, addr: usize) -> $t {
            $t::from_le_bytes(match self {
                Dsm::Seq(d) => {
                    let mut b = [0u8; size_of::<$t>()];
                    d.read(addr, &mut b);
                    b
                }
                Dsm::Par(d) => d.read_word(addr).await,
            })
        }

        #[doc = concat!("Write a little-endian `", stringify!($t), "`.")]
        #[inline]
        pub async fn $write(&mut self, addr: usize, v: $t) {
            match self {
                Dsm::Seq(d) => d.write(addr, &v.to_le_bytes()),
                Dsm::Par(d) => d.write_word(addr, v.to_le_bytes()).await,
            }
        }
    )*};
}

impl Dsm {
    /// This node's id (`0` in sequential runs).
    #[inline]
    pub fn node(&self) -> usize {
        match self {
            Dsm::Seq(_) => 0,
            Dsm::Par(d) => d.node(),
        }
    }

    /// Cluster size (`1` in sequential runs).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        match self {
            Dsm::Seq(_) => 1,
            Dsm::Par(d) => d.num_nodes(),
        }
    }

    /// True when the run is under a release-consistent protocol, in which
    /// case the program must add the extra synchronization the paper
    /// describes (e.g. Barnes' tree-build locks): plain reads may observe
    /// stale data until an acquire. Sequential runs return false.
    #[inline]
    pub fn is_release_consistent(&self) -> bool {
        match self {
            Dsm::Seq(_) => false,
            Dsm::Par(d) => d.is_release_consistent(),
        }
    }

    /// Reset measurement: zero this node's statistics and mark the start
    /// of the measured parallel phase. The run harness calls this once,
    /// after the program's warm-up touch phase (behind a barrier), and
    /// reports times and counters from this point on.
    pub async fn begin_measurement(&mut self) {
        on_arm!(self, d => d.begin_measurement());
    }

    /// The tail of every node body: the parallel run-time pushes its last
    /// batched time and closes the node's measured interval.
    pub(crate) async fn finish(&mut self) {
        if let Dsm::Par(d) = self {
            d.finish().await;
        }
    }

    /// Charge `ns` nanoseconds of local computation.
    #[inline]
    pub async fn compute(&mut self, ns: u64) {
        on_arm!(self, d => d.compute(ns));
    }

    /// Read `buf.len()` bytes at `addr`.
    #[inline]
    pub async fn read(&mut self, addr: usize, buf: &mut [u8]) {
        on_arm!(self, d => d.read(addr, buf));
    }

    /// Write `data` at `addr`.
    #[inline]
    pub async fn write(&mut self, addr: usize, data: &[u8]) {
        on_arm!(self, d => d.write(addr, data));
    }

    /// Acquire lock `l`.
    pub async fn lock(&mut self, l: usize) {
        on_arm!(self, d => d.lock(l));
    }

    /// Release lock `l`.
    pub async fn unlock(&mut self, l: usize) {
        on_arm!(self, d => d.unlock(l));
    }

    /// Wait at barrier `b` until all nodes arrive.
    pub async fn barrier(&mut self, b: usize) {
        on_arm!(self, d => d.barrier(b));
    }

    typed_accessors! {
        u8: read_u8, write_u8;
        u32: read_u32, write_u32;
        u64: read_u64, write_u64;
        i64: read_i64, write_i64;
        f64: read_f64, write_f64;
    }

    /// Read `out.len()` consecutive `f64`s starting at `addr`.
    ///
    /// One bulk access: the run-time charges per touched word and checks
    /// every covered block, exactly like an unrolled loop of loads. No
    /// allocation per call: the sequential arm decodes straight out of
    /// memory, the parallel arm reuses one buffer.
    pub async fn read_f64s(&mut self, addr: usize, out: &mut [f64]) {
        on_arm!(self, d => d.read_f64s(addr, out));
    }

    /// Write all of `vals` consecutively starting at `addr`.
    pub async fn write_f64s(&mut self, addr: usize, vals: &[f64]) {
        on_arm!(self, d => d.write_f64s(addr, vals));
    }
}

// The byte<->f64 loops of the bulk accessors are plain functions over
// slices: written inline in an `async fn` their buffers would live in the
// future's state, behind a pointer the optimizer cannot see through, and
// the loops would not vectorize.

/// `out[i]` from the little-endian word `raw[8*i..]`.
pub(crate) fn decode_f64s(raw: &[u8], out: &mut [f64]) {
    for (o, bytes) in out.iter_mut().zip(raw.chunks_exact(8)) {
        *o = f64::from_le_bytes(bytes.try_into().unwrap());
    }
}

/// `vals[i]` into the little-endian word `raw[8*i..]`.
pub(crate) fn encode_f64s(vals: &[f64], raw: &mut [u8]) {
    for (v, bytes) in vals.iter().zip(raw.chunks_exact_mut(8)) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
}

/// Drive a future that never suspends: poll it once and take its result.
/// What [`crate::run_sequential`] does with a program body, whose every
/// operation on [`Dsm::Seq`] completes at once.
pub(crate) fn complete<T>(f: impl Future<Output = T>) -> T {
    match std::pin::pin!(f).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!("a sequential run suspended: only the parallel run-time yields"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemImage;
    use dsm_net::CostModel;

    fn seq(bytes: usize) -> Dsm {
        Dsm::Seq(SeqDsm::new(MemImage::new(bytes), CostModel::default()))
    }

    #[test]
    fn typed_roundtrips() {
        let mut d = seq(128);
        complete(async {
            d.write_u64(0, 0xdead_beef_0123).await;
            assert_eq!(d.read_u64(0).await, 0xdead_beef_0123);
            d.write_f64(8, -1.25e10).await;
            assert_eq!(d.read_f64(8).await, -1.25e10);
            d.write_u32(16, 77).await;
            assert_eq!(d.read_u32(16).await, 77);
            d.write_i64(24, -42).await;
            assert_eq!(d.read_i64(24).await, -42);
        });
    }

    #[test]
    fn bulk_f64s_roundtrip() {
        let mut d = seq(256);
        let vals = [1.0, 2.5, -3.75, 0.0, 1e-300];
        let mut out = [0.0; 5];
        complete(async {
            d.write_f64s(64, &vals).await;
            d.read_f64s(64, &mut out).await;
        });
        assert_eq!(out, vals);
    }

    #[test]
    fn sequential_identity() {
        let d = seq(8);
        assert_eq!((d.node(), d.num_nodes()), (0, 1));
        assert!(!d.is_release_consistent());
    }
}
