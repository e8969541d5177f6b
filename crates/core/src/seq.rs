//! The sequential runner: the same program body on one node against plain
//! memory — the speedup baseline.

use dsm_net::CostModel;

use crate::api::{decode_f64s, encode_f64s};
use crate::image::MemImage;

/// The sequential run-time (the [`crate::Dsm::Seq`] arm): direct memory,
/// modeled time, no protocol, no polling overhead (the paper's baselines
/// run uninstrumented). Nothing here ever waits, so the operations are
/// plain functions.
pub struct SeqDsm {
    mem: MemImage,
    time_ns: u64,
    cost: CostModel,
}

impl SeqDsm {
    /// Start from a golden image, charging accesses by `cost`.
    pub fn new(mem: MemImage, cost: CostModel) -> Self {
        SeqDsm {
            mem,
            time_ns: 0,
            cost,
        }
    }

    /// Modeled sequential execution time so far, in ns.
    pub fn time_ns(&self) -> u64 {
        self.time_ns
    }

    /// Final memory image.
    pub fn into_image(self) -> MemImage {
        self.mem
    }

    pub(crate) fn begin_measurement(&mut self) {
        self.time_ns = 0;
    }

    #[inline]
    pub(crate) fn compute(&mut self, ns: u64) {
        self.time_ns += ns;
    }

    #[inline]
    pub(crate) fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.time_ns += self.cost.access_cost(buf.len());
        buf.copy_from_slice(&self.mem.bytes()[addr..addr + buf.len()]);
    }

    #[inline]
    pub(crate) fn write(&mut self, addr: usize, data: &[u8]) {
        self.time_ns += self.cost.access_cost(data.len());
        self.mem.bytes_mut()[addr..addr + data.len()].copy_from_slice(data);
    }

    /// A bulk read straight out of memory: one access of `8 * out.len()`
    /// bytes, no buffer in between.
    pub(crate) fn read_f64s(&mut self, addr: usize, out: &mut [f64]) {
        let len = out.len() * 8;
        self.time_ns += self.cost.access_cost(len);
        decode_f64s(&self.mem.bytes()[addr..addr + len], out);
    }

    /// A bulk write straight into memory.
    pub(crate) fn write_f64s(&mut self, addr: usize, vals: &[f64]) {
        let len = vals.len() * 8;
        self.time_ns += self.cost.access_cost(len);
        encode_f64s(vals, &mut self.mem.bytes_mut()[addr..addr + len]);
    }

    pub(crate) fn lock(&mut self, _l: usize) {
        // Uncontended user-level lock: a couple of atomic ops.
        self.time_ns += 100;
    }

    pub(crate) fn unlock(&mut self, _l: usize) {
        self.time_ns += 100;
    }

    pub(crate) fn barrier(&mut self, _b: usize) {
        // Single participant: falls straight through.
        self.time_ns += 100;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_time_for_compute_and_accesses() {
        let mut d = SeqDsm::new(MemImage::new(64), CostModel::default());
        d.compute(1_000);
        d.write(0, &5u64.to_le_bytes());
        let mut word = [0u8; 8];
        d.read(0, &mut word);
        assert_eq!(u64::from_le_bytes(word), 5);
        let per_word = CostModel::default().local_access_ns;
        assert_eq!(d.time_ns(), 1_000 + 2 * per_word);
    }
}
