//! Property-style tests on the protocol primitives: diffs, vector clocks,
//! the write-notice log and the latency model. Each test draws many cases
//! from a fixed-seed generator, preserving the properties previously
//! checked with proptest.

use dsm_proto::diff::Diff;
use dsm_proto::lrc::NoticeLog;
use dsm_proto::vt::VClock;
use dsm_proto::Notice;

/// Minimal xorshift64* generator so this test crate needs no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

const CASES: usize = 64;

#[test]
fn diff_apply_reconstructs_current() {
    let mut rng = Rng::new(0x5EED_0001);
    for _ in 0..CASES {
        let len = 1 + rng.below(511);
        let twin = rng.bytes(len);
        let mut current = twin.clone();
        for _ in 0..rng.below(64) {
            let i = rng.below(current.len());
            current[i] = rng.next_u64() as u8;
        }
        let d = Diff::create(&twin, &current);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, current);
    }
}

#[test]
fn diff_size_bounded_by_changes() {
    let mut rng = Rng::new(0x5EED_0002);
    for _ in 0..CASES {
        let len = 1 + rng.below(255);
        let twin = rng.bytes(len);
        let mut current = twin.clone();
        for _ in 0..rng.below(32) {
            let i = rng.below(current.len());
            current[i] = rng.next_u64() as u8;
        }
        let changed = twin.iter().zip(&current).filter(|(a, b)| a != b).count() as u64;
        let d = Diff::create(&twin, &current);
        assert_eq!(d.data_bytes(), changed);
        assert!(d.wire_bytes() <= changed * 9); // worst case: isolated runs
        assert_eq!(d.is_empty(), changed == 0);
    }
}

#[test]
fn disjoint_diffs_commute() {
    let mut rng = Rng::new(0x5EED_0003);
    for _ in 0..CASES {
        let len = 64 + rng.below(192);
        let twin = rng.bytes(len);
        let split = 1 + rng.below(62);
        // Writer A changes the prefix, writer B the suffix.
        let mut a = twin.clone();
        let mut b = twin.clone();
        let mid = split.min(twin.len() - 1);
        for x in &mut a[..mid] {
            *x = x.wrapping_add(1);
        }
        for x in &mut b[mid..] {
            *x = x.wrapping_add(7);
        }
        let da = Diff::create(&twin, &a);
        let db = Diff::create(&twin, &b);
        let mut ab = twin.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = twin.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        assert_eq!(ab, ba);
    }
}

fn mk_clock(v: &[u32]) -> VClock {
    let mut c = VClock::new(v.len());
    for (i, &k) in v.iter().enumerate() {
        for _ in 0..k {
            c.tick(i);
        }
    }
    c
}

#[test]
fn vclock_merge_laws() {
    let mut rng = Rng::new(0x5EED_0004);
    for _ in 0..CASES {
        let a: Vec<u32> = (0..4).map(|_| rng.below(100) as u32).collect();
        let b: Vec<u32> = (0..4).map(|_| rng.below(100) as u32).collect();
        let (ca, cb) = (mk_clock(&a), mk_clock(&b));
        // Commutative.
        let mut m1 = ca.clone();
        m1.merge(&cb);
        let mut m2 = cb.clone();
        m2.merge(&ca);
        assert_eq!(&m1, &m2);
        // Dominates both inputs.
        assert!(m1.dominates(&ca));
        assert!(m1.dominates(&cb));
        // Idempotent.
        let mut m3 = m1.clone();
        m3.merge(&m1);
        assert_eq!(&m3, &m1);
    }
}

#[test]
fn missing_intervals_exactly_fill_the_gap() {
    let mut rng = Rng::new(0x5EED_0005);
    for _ in 0..CASES {
        let have: Vec<u32> = (0..3).map(|_| rng.below(20) as u32).collect();
        let extra: Vec<u32> = (0..3).map(|_| rng.below(20) as u32).collect();
        let h = mk_clock(&have);
        let upto_vals: Vec<u32> = have.iter().zip(&extra).map(|(a, b)| a + b).collect();
        let u = mk_clock(&upto_vals);
        let missing = VClock::missing_intervals(&h, &u);
        let total: u32 = extra.iter().sum();
        assert_eq!(missing.len() as u32, total);
        for (j, k) in missing {
            assert!(k > h.get(j) && k <= u.get(j));
        }
    }
}

#[test]
fn collect_missing_is_collect_of_missing_intervals() {
    // Random logs (empty intervals included) and random clocks, where the
    // acquirer may be ahead of the releaser in some components: the one-pass
    // gather returns the notices of the interval list, in its order, and
    // allocates exactly their number.
    let mut rng = Rng::new(0x5EED_0007);
    for _ in 0..4 * CASES {
        let n = 1 + rng.below(6);
        let mut log = NoticeLog::new(n);
        let mut logged = Vec::new();
        for node in 0..n {
            let intervals = rng.below(12) as u32;
            for k in 1..=intervals {
                let notices = (0..rng.below(5))
                    .map(|_| Notice {
                        block: rng.below(1 << 16),
                        writer: node,
                        version: k,
                    })
                    .collect();
                log.push_interval(node, k, notices);
            }
            logged.push(intervals);
        }
        let upto: Vec<u32> = logged
            .iter()
            .map(|&i| rng.below(i as usize + 1) as u32)
            .collect();
        let have: Vec<u32> = logged
            .iter()
            .map(|&i| rng.below(i as usize + 1) as u32)
            .collect();
        let (have, upto) = (mk_clock(&have), mk_clock(&upto));
        let want = log.collect(&VClock::missing_intervals(&have, &upto));
        let got = log.collect_missing(&have, &upto);
        assert_eq!(got, want, "have {have:?} upto {upto:?}");
        assert_eq!(got.capacity(), got.len());
    }
}

#[test]
fn latency_monotone_everywhere() {
    let mut rng = Rng::new(0x5EED_0006);
    let m = dsm_net::LatencyModel::default();
    for _ in 0..CASES {
        let mut sizes: Vec<u64> = (0..2 + rng.below(18))
            .map(|_| 1 + rng.below(99_999) as u64)
            .collect();
        sizes.sort_unstable();
        let mut prev = 0;
        for s in sizes {
            let t = m.one_way(s);
            assert!(t >= prev);
            prev = t;
        }
    }
}
