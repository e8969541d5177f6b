//! The typed accessors' word path against the byte-slice loop. Each program
//! here is written twice — with `read_u64`/`write_u32`/.. and with
//! `read(addr, &mut [u8; N])`/`write(addr, &bytes)`, which take the loop
//! in `ParDsm::access` — and both spellings must produce the same run: the
//! same counters on every node, the same modelled time, the same number of
//! simulator events and the same final image.

use std::sync::Arc;

use dsm_core::{
    run_parallel, Dsm, DsmProgram, MemImage, NodeFuture, Protocol, RunConfig, RunOutcome,
};

/// One load and one store per typed accessor, spelled either way.
macro_rules! word_ops {
    ($($t:ident: $load:ident, $store:ident, $read:ident, $write:ident;)*) => {$(
        async fn $load(d: &mut Dsm, typed: bool, addr: usize) -> $t {
            if typed {
                return d.$read(addr).await;
            }
            let mut b = [0u8; size_of::<$t>()];
            d.read(addr, &mut b).await;
            $t::from_le_bytes(b)
        }

        async fn $store(d: &mut Dsm, typed: bool, addr: usize, v: $t) {
            if typed {
                d.$write(addr, v).await;
            } else {
                d.write(addr, &v.to_le_bytes()).await;
            }
        }
    )*};
}

word_ops! {
    u8: load_u8, store_u8, read_u8, write_u8;
    u32: load_u32, store_u32, read_u32, write_u32;
    u64: load_u64, store_u64, read_u64, write_u64;
    i64: load_i64, store_i64, read_i64, write_i64;
    f64: load_f64, store_f64, read_f64, write_f64;
}

const NODES: usize = 4;

/// Words each node owns in the 64-byte-block regions.
const PER_NODE: usize = 6;

/// A `u64` at `64k - 4`: it straddles the boundary of two 64-byte blocks.
fn straddle(k: usize) -> usize {
    64 * k - 4
}

/// A `u32` in the last eight bytes of a 64-byte block, and a `u8` in its
/// last byte.
fn tail_u32(k: usize) -> usize {
    2048 + 64 * k - 8
}

fn tail_u8(k: usize) -> usize {
    2048 + 64 * k - 1
}

/// A `u64` straddling the end of page `node + 1` (a 4096-byte block).
fn page_straddle(node: usize) -> usize {
    4096 * (node + 1) - 4
}

fn f64_at(node: usize, i: usize) -> usize {
    4608 + 8 * (16 * node + i)
}

fn i64_at(node: usize, i: usize) -> usize {
    8256 + 8 * (16 * node + i)
}

const COUNTER: usize = 12288 + 512;

/// A node's checksum, straddling two 64-byte blocks.
fn sum_at(node: usize) -> usize {
    16384 + 64 * (node + 1) - 4
}

/// The 64-byte-block index of node `me`'s `i`-th word: nodes interleave,
/// so neighbouring blocks are falsely shared.
fn k_of(me: usize, i: usize) -> usize {
    NODES * i + me + 1
}

/// A data-race-free mix of every typed accessor: straddling and
/// block-tail words under false sharing, page-straddling words, a locked
/// counter, and each node rewriting its own words after a release (an
/// SW-LRC owner re-enables, an HLRC copy twins).
struct Mix {
    typed: bool,
}

impl Mix {
    /// Fold every node's words into one checksum.
    async fn checksum(&self, d: &mut Dsm) -> u64 {
        let t = self.typed;
        let mut sum = 0u64;
        let mut add = |x: u64| sum = sum.wrapping_mul(31).wrapping_add(x);
        for node in 0..NODES {
            for i in 0..PER_NODE {
                let k = k_of(node, i);
                add(load_u64(d, t, straddle(k)).await);
                add(u64::from(load_u32(d, t, tail_u32(k)).await));
                add(u64::from(load_u8(d, t, tail_u8(k)).await));
            }
            add(load_u64(d, t, page_straddle(node)).await);
            for i in 0..16 {
                add(load_f64(d, t, f64_at(node, i)).await.to_bits());
                add(load_i64(d, t, i64_at(node, i)).await as u64);
            }
        }
        sum
    }

    /// Node `me` adds `delta` to each of its own words, reading each first.
    async fn bump_own(&self, d: &mut Dsm, me: usize, delta: u64) {
        let t = self.typed;
        for i in 0..PER_NODE {
            let k = k_of(me, i);
            let v = load_u64(d, t, straddle(k)).await;
            store_u64(d, t, straddle(k), v.wrapping_add(delta)).await;
            let v = load_u32(d, t, tail_u32(k)).await;
            store_u32(d, t, tail_u32(k), v.wrapping_add(delta as u32)).await;
            let v = load_u8(d, t, tail_u8(k)).await;
            store_u8(d, t, tail_u8(k), v.wrapping_add(delta as u8)).await;
        }
        let v = load_u64(d, t, page_straddle(me)).await;
        store_u64(d, t, page_straddle(me), v.wrapping_add(delta)).await;
        for i in 0..16 {
            let v = load_f64(d, t, f64_at(me, i)).await;
            store_f64(d, t, f64_at(me, i), v + delta as f64 / 3.0).await;
            let v = load_i64(d, t, i64_at(me, i)).await;
            store_i64(d, t, i64_at(me, i), v - delta as i64).await;
        }
    }
}

impl DsmProgram for Mix {
    fn name(&self) -> String {
        "word-mix".into()
    }

    fn shared_bytes(&self) -> usize {
        5 * 4096
    }

    fn init(&self, _mem: &mut MemImage) {}

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let me = d.node();
            let t = self.typed;
            for i in 0..PER_NODE {
                let k = k_of(me, i);
                store_u64(d, t, straddle(k), (me * 1000 + i) as u64 * 0x0101_0101).await;
                store_u32(d, t, tail_u32(k), (me * 77 + i) as u32).await;
                store_u8(d, t, tail_u8(k), (me * 16 + i) as u8).await;
            }
            store_u64(d, t, page_straddle(me), u64::MAX - me as u64).await;
            for i in 0..16 {
                store_f64(d, t, f64_at(me, i), me as f64 * 0.5 + i as f64 / 3.0).await;
                store_i64(d, t, i64_at(me, i), -((me * 100 + i) as i64)).await;
            }
            d.barrier(0).await;

            let sum = self.checksum(d).await;
            d.lock(0).await;
            let c = load_u64(d, t, COUNTER).await;
            store_u64(d, t, COUNTER, c.wrapping_add(sum)).await;
            d.unlock(0).await;
            store_u64(d, t, sum_at(me), sum).await;
            d.barrier(1).await;

            self.bump_own(d, me, me as u64 + 1).await;
            d.barrier(2).await;

            let sum = self.checksum(d).await;
            store_u64(d, t, sum_at(me), sum).await;
            d.barrier(3).await;
        })
    }
}

/// Run `program` spelled both ways under `cfg` and require the same run.
fn both_ways<P: DsmProgram>(cfg: &RunConfig, make: impl Fn(bool) -> P) -> RunOutcome {
    let what = format!("{:?}@{}", cfg.protocol, cfg.block_size);
    let typed = run_parallel(cfg, Arc::new(make(true)));
    let bytes = run_parallel(cfg, Arc::new(make(false)));
    assert_eq!(
        typed.stats.per_node, bytes.stats.per_node,
        "{what}: counters"
    );
    assert_eq!(
        typed.stats.parallel_time_ns, bytes.stats.parallel_time_ns,
        "{what}: modelled time"
    );
    assert_eq!(
        typed.stats.sim_events, bytes.stats.sim_events,
        "{what}: simulator events"
    );
    assert!(
        typed.image.bytes() == bytes.image.bytes(),
        "{what}: final image"
    );
    typed
}

#[test]
fn typed_and_byte_accesses_run_alike_under_every_protocol() {
    for p in Protocol::ALL {
        for block in [64, 4096] {
            let cfg = RunConfig::new(p, block).with_nodes(NODES);
            let r = both_ways(&cfg, |typed| Mix { typed });
            let t = r.stats.totals();
            assert!(t.read_faults > 0 && t.write_faults > 0, "{p:?}@{block}");
            // Every node's second checksum saw every node's bumped words.
            let sums: Vec<u64> = (0..NODES).map(|n| r.image.read_u64(sum_at(n))).collect();
            assert!(
                sums.iter().all(|&s| s == sums[0]),
                "{p:?}@{block}: {sums:?}"
            );
        }
    }
}

/// Where the scripted programs put their words: two different 64-byte
/// blocks.
const X: usize = 0;
const Y: usize = 1024;

/// Two-node scripts that put one typed access on a miss the protocol
/// resolves in a particular way. Node 1 (node 0 for `OwnerReenable`) zeroes
/// its counters just before that access, so its counters are that access's.
#[derive(Clone, Copy)]
enum Script {
    /// Tardis: node 1 reads X, node 0 writes it, and after a barrier node
    /// 1's lease has expired against its program timestamp.
    ExpiredLease,
    /// HLRC: node 1 stores to a read copy of a block node 0 homes.
    TwinOnStore,
    /// SW-LRC: node 0 stores again to a block it owns after a release
    /// downgraded its copy.
    OwnerReenable,
    /// A load at an address whose end overflows the address space.
    Absurd,
}

struct Scripted {
    script: Script,
    typed: bool,
}

impl DsmProgram for Scripted {
    fn name(&self) -> String {
        "word-script".into()
    }

    fn shared_bytes(&self) -> usize {
        4096
    }

    fn init(&self, _mem: &mut MemImage) {}

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, t) = (d.node(), self.typed);
            match (self.script, me) {
                (Script::ExpiredLease, 0) => {
                    d.barrier(0).await;
                    store_u64(d, t, X, 7).await;
                    d.barrier(1).await;
                }
                (Script::ExpiredLease, _) => {
                    load_u64(d, t, X).await;
                    d.barrier(0).await;
                    d.barrier(1).await;
                    d.begin_measurement().await;
                    let v = load_u64(d, t, X).await;
                    store_u64(d, t, Y, v).await;
                }
                (Script::TwinOnStore, 0) => {
                    store_u64(d, t, X, 1).await;
                    d.barrier(0).await;
                    d.barrier(1).await;
                }
                (Script::TwinOnStore, _) => {
                    d.barrier(0).await;
                    let v = load_u64(d, t, X).await;
                    d.begin_measurement().await;
                    store_u64(d, t, X, v + 1).await;
                    d.barrier(1).await;
                }
                (Script::OwnerReenable, 0) => {
                    store_u64(d, t, X, 1).await;
                    d.barrier(0).await;
                    d.begin_measurement().await;
                    store_u64(d, t, X, 2).await;
                    d.barrier(1).await;
                }
                (Script::OwnerReenable, _) => {
                    d.barrier(0).await;
                    d.barrier(1).await;
                }
                (Script::Absurd, _) => {
                    load_u64(d, t, usize::MAX - 3).await;
                }
            }
        })
    }
}

fn scripted(script: Script, p: Protocol) -> RunOutcome {
    let cfg = RunConfig::new(p, 64).with_nodes(2);
    both_ways(&cfg, |typed| Scripted { script, typed })
}

#[test]
fn an_expired_lease_is_counted_once_and_faults_once() {
    let r = scripted(Script::ExpiredLease, Protocol::Tardis);
    let c = &r.stats.per_node[1];
    assert_eq!((c.lease_expiries, c.read_faults), (1, 1));
    assert_eq!(r.image.read_u64(Y), 7, "the refetched copy holds the write");
}

#[test]
fn an_hlrc_store_to_a_read_copy_twins_once() {
    let r = scripted(Script::TwinOnStore, Protocol::Hlrc);
    let c = &r.stats.per_node[1];
    assert_eq!(
        (c.local_write_faults, c.write_faults, c.twins_created),
        (1, 0, 1)
    );
    assert_eq!(r.image.read_u64(X), 2);
}

#[test]
fn an_swlrc_owner_reenables_once() {
    let r = scripted(Script::OwnerReenable, Protocol::SwLrc);
    let c = &r.stats.per_node[0];
    assert_eq!((c.local_write_faults, c.write_faults), (1, 0));
    assert_eq!(r.image.read_u64(X), 2);
}

#[test]
#[should_panic(expected = "out of shared space")]
fn an_absurd_address_fails_with_the_named_message() {
    let cfg = RunConfig::new(Protocol::Sc, 64).with_nodes(1);
    run_parallel(
        &cfg,
        Arc::new(Scripted {
            script: Script::Absurd,
            typed: true,
        }),
    );
}
