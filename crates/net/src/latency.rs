//! Message latency model calibrated to the paper's Myrinet microbenchmarks.

use dsm_sim::Time;

use crate::MSG_HEADER_BYTES;

/// The calibration points, (bytes, one-way ns) ascending by size: the
/// paper's published RTTs halved.
const POINTS: [(u64, Time); 5] = [
    (4, 20_000),
    (64, 30_500),
    (256, 50_000),
    (1024, 128_000),
    (4096, 438_000),
];

/// Sizes below this are looked up in [`TABLE`]: every message up to 8 KiB
/// of payload plus its header. Anything larger evaluates [`interpolate`].
const TABLE_LEN: usize = 8192 + MSG_HEADER_BYTES as usize + 1;

/// `interpolate(b)` for every `b < TABLE_LEN`, computed at compile time by
/// the same function the runtime fallback calls.
static TABLE: [Time; TABLE_LEN] = {
    let mut t = [0; TABLE_LEN];
    let mut b = 0;
    while b < TABLE_LEN {
        t[b] = interpolate(b as u64);
        b += 1;
    }
    t
};

/// The model's formula: clamp below the first point, interpolate linearly
/// between points, extrapolate past the last with the final marginal slope.
const fn interpolate(bytes: u64) -> Time {
    if bytes <= POINTS[0].0 {
        return POINTS[0].1;
    }
    let mut i = 1;
    while i < POINTS.len() {
        let (s0, t0) = POINTS[i - 1];
        let (s1, t1) = POINTS[i];
        if bytes <= s1 {
            let frac = (bytes - s0) as f64 / (s1 - s0) as f64;
            return t0 + ((t1 - t0) as f64 * frac) as Time;
        }
        i += 1;
    }
    let (s0, t0) = POINTS[POINTS.len() - 2];
    let (s1, t1) = POINTS[POINTS.len() - 1];
    let slope = (t1 - t0) as f64 / (s1 - s0) as f64;
    t1 + ((bytes - s1) as f64 * slope) as Time
}

/// One-way network latency as a function of message size.
///
/// Calibrated so that `rtt(s) = 2 * one_way(s)` reproduces the paper's §3
/// microbenchmark round-trip numbers (40/61/100/256/876 µs for
/// 4/64/256/1024/4096-byte messages). Between calibration points the model
/// interpolates linearly; beyond the last point it extrapolates with the
/// final marginal bandwidth (~9.9 MB/s one-way including copies, consistent
/// with the paper's ~17 MB/s steady-state pipelined bandwidth). A message
/// of up to 8 KiB plus header reads its latency from a table built from the
/// formula at compile time; a larger one evaluates the formula.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct LatencyModel;

impl LatencyModel {
    /// One-way latency in ns for a message of `bytes` bytes.
    #[inline]
    pub fn one_way(&self, bytes: u64) -> Time {
        if bytes < TABLE_LEN as u64 {
            TABLE[bytes as usize]
        } else {
            interpolate(bytes)
        }
    }

    /// Round-trip latency for a ping-pong of `bytes`-byte messages.
    pub fn rtt(&self, bytes: u64) -> Time {
        2 * self.one_way(bytes)
    }

    /// Effective one-way bandwidth at a message size, in MB/s.
    pub fn bandwidth_mb_s(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.one_way(bytes) as f64 / 1e9) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_microbenchmark_rtts() {
        let m = LatencyModel::default();
        assert_eq!(m.rtt(4), 40_000);
        assert_eq!(m.rtt(64), 61_000);
        assert_eq!(m.rtt(256), 100_000);
        assert_eq!(m.rtt(1024), 256_000);
        assert_eq!(m.rtt(4096), 876_000);
    }

    /// The formula as it stood before the table, evaluated at run time:
    /// the table must hold exactly what it returns.
    fn reference(bytes: u64) -> Time {
        let pts = &POINTS;
        if bytes <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (s0, t0) = w[0];
            let (s1, t1) = w[1];
            if bytes <= s1 {
                let frac = (bytes - s0) as f64 / (s1 - s0) as f64;
                return t0 + ((t1 - t0) as f64 * frac) as Time;
            }
        }
        let (s0, t0) = pts[pts.len() - 2];
        let (s1, t1) = pts[pts.len() - 1];
        let slope = (t1 - t0) as f64 / (s1 - s0) as f64;
        t1 + ((bytes - s1) as f64 * slope) as Time
    }

    #[test]
    fn the_table_is_the_formula() {
        let m = LatencyModel::default();
        for bytes in 0..=2 * TABLE_LEN as u64 {
            assert_eq!(m.one_way(bytes), reference(bytes), "{bytes} bytes");
        }
        for bytes in [65_536, 65_537, 100_000, 1 << 20, 3 << 24, 1 << 40] {
            assert_eq!(m.one_way(bytes), reference(bytes), "{bytes} bytes");
        }
    }

    #[test]
    fn monotone_in_size() {
        let m = LatencyModel::default();
        let mut prev = 0;
        for s in [1u64, 4, 16, 63, 64, 100, 512, 1024, 2000, 4096, 8192, 65536] {
            let t = m.one_way(s);
            assert!(t >= prev, "latency not monotone at {s}");
            prev = t;
        }
    }

    #[test]
    fn tiny_messages_clamp_to_smallest_point() {
        let m = LatencyModel::default();
        assert_eq!(m.one_way(1), m.one_way(4));
    }

    #[test]
    fn extrapolates_with_last_slope() {
        let m = LatencyModel::default();
        let t4k = m.one_way(4096);
        let t8k = m.one_way(8192);
        // Marginal bandwidth between 1K and 4K: 3072 B / 310 µs.
        let slope = (438_000.0 - 128_000.0) / (4096.0 - 1024.0);
        let expect = t4k as f64 + 4096.0 * slope;
        assert!((t8k as f64 - expect).abs() < 2.0);
    }

    #[test]
    fn large_message_bandwidth_near_10_mb_s_one_way() {
        let m = LatencyModel::default();
        let bw = m.bandwidth_mb_s(65536);
        assert!(bw > 8.0 && bw < 12.0, "one-way bw {bw}");
    }
}
