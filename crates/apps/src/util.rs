//! Shared application utilities: deterministic RNG, shared-memory task
//! queues with stealing, and cost constants for the 66 MHz HyperSPARC
//! compute model.

use dsm_core::Dsm;

/// Modeled cost of one inner-loop floating-point operation (ns) on the
/// testbed's 66 MHz HyperSPARC: ~15 ns per cycle, with several cycles per
/// FP op once loads, index arithmetic and branches are included.
pub const FLOP_NS: u64 = 150;

/// Small xorshift64* PRNG: deterministic, seedable, dependency-free. Every
/// random choice in the applications draws from it: initial conditions,
/// task order, and (through [`crate::Zipf`]) the skewed distributions.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Seeded generator (seed 0 is mapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        XorShift {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Distributed task queues with stealing, stored in shared memory.
///
/// One queue per node: `[head u64][tail u64][slots ...]`, guarded by one
/// lock per queue. Tasks are `u64` ids pushed during initialization; nodes
/// pop from their own queue and steal from victims when empty. This is the
/// task-stealing substrate the paper's Raytrace and Volrend use.
#[derive(Debug, Clone, Copy)]
pub struct TaskQueues {
    base: usize,
    queues: usize,
    capacity: usize,
    lock_base: usize,
}

impl TaskQueues {
    /// Bytes needed for `queues` queues of `capacity` slots each.
    pub fn bytes(queues: usize, capacity: usize) -> usize {
        queues * (2 + capacity) * 8
    }

    /// Describe queues at `base` using locks `lock_base..lock_base+queues`.
    pub fn new(base: usize, queues: usize, capacity: usize, lock_base: usize) -> Self {
        TaskQueues {
            base,
            queues,
            capacity,
            lock_base,
        }
    }

    /// Address of queue `q`'s header (head word).
    pub fn queue_addr(&self, q: usize) -> usize {
        self.base + q * (2 + self.capacity) * 8
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.queues
    }

    /// Initialization-time push (golden image, no Dsm): append `task` to
    /// queue `q`.
    pub fn init_push(&self, mem: &mut dsm_core::MemImage, q: usize, task: u64) {
        let qa = self.queue_addr(q);
        let tail = mem.read_u64(qa + 8);
        assert!((tail as usize) < self.capacity, "task queue overflow");
        mem.write_u64(qa + 16 + tail as usize * 8, task);
        mem.write_u64(qa + 8, tail + 1);
    }

    /// Pop from own queue, or steal from the queue after it, etc. Returns
    /// `None` when every queue is empty.
    pub async fn pop_or_steal(&self, d: &mut Dsm, me: usize) -> Option<u64> {
        for i in 0..self.queues {
            let q = (me + i) % self.queues;
            let qa = self.queue_addr(q);
            d.lock(self.lock_base + q).await;
            let head = d.read_u64(qa).await;
            let tail = d.read_u64(qa + 8).await;
            if head < tail {
                // Own queue: take from the front; steal: take from the back
                // (classic work-stealing order).
                let task = if i == 0 {
                    let t = d.read_u64(qa + 16 + head as usize * 8).await;
                    d.write_u64(qa, head + 1).await;
                    t
                } else {
                    let t = d.read_u64(qa + 16 + (tail - 1) as usize * 8).await;
                    d.write_u64(qa + 8, tail - 1).await;
                    t
                };
                d.unlock(self.lock_base + q).await;
                return Some(task);
            }
            d.unlock(self.lock_base + q).await;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_f64_in_unit_interval() {
        let mut r = XorShift::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn xorshift_seeds_differ() {
        assert_ne!(XorShift::new(1).next_u64(), XorShift::new(2).next_u64());
    }

    #[test]
    fn queue_layout_bytes() {
        assert_eq!(TaskQueues::bytes(4, 10), 4 * 12 * 8);
    }

    #[test]
    fn init_push_appends() {
        let q = TaskQueues::new(0, 2, 4, 100);
        let mut mem = dsm_core::MemImage::new(TaskQueues::bytes(2, 4));
        q.init_push(&mut mem, 0, 11);
        q.init_push(&mut mem, 0, 22);
        q.init_push(&mut mem, 1, 33);
        assert_eq!(mem.read_u64(8), 2); // queue 0 tail
        assert_eq!(mem.read_u64(16), 11);
        assert_eq!(mem.read_u64(24), 22);
        let q1 = (2 + 4) * 8;
        assert_eq!(mem.read_u64(q1 + 8), 1);
        assert_eq!(mem.read_u64(q1 + 16), 33);
    }
}
