//! Volrend: volume rendering by ray casting (SPLASH-2), in the paper's two
//! task partitionings.
//!
//! A synthetic read-only density volume is ray-cast orthographically into a
//! shared image. Tasks live in distributed task queues with stealing:
//!
//! * [`VolrendOriginal`] — 4×4-pixel tile tasks: good load balance, but the
//!   row-major image makes tile borders share coherence blocks heavily
//!   (write-write false sharing even at 64 bytes, paper Table 9).
//! * [`VolrendRowwise`] — row tasks: coarser writes, far less false
//!   sharing.
//!
//! Every pixel's value is a pure function of the volume, so images verify
//! bit-exactly; only the task assignment varies with stealing.

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{TaskQueues, XorShift, FLOP_NS};

/// Volume edge (volume is VOL³ bytes).
const VOL: usize = 48;
/// Samples along each ray.
const SAMPLES: usize = 48;
/// Task queues are laid out for this many nodes regardless of the actual
/// cluster size, so sequential and parallel runs share one memory layout.
const NQUEUES: usize = 16;

/// Common engine for both partitionings.
struct Volrend {
    img: usize,
    tile: bool,
}

impl Volrend {
    fn tasks(&self) -> usize {
        if self.tile {
            (self.img / 4) * (self.img / 4)
        } else {
            self.img
        }
    }

    fn vol_addr(&self, x: usize, y: usize, z: usize) -> usize {
        (x * VOL + y) * VOL + z
    }

    fn pixel_addr(&self, x: usize, y: usize) -> usize {
        VOL * VOL * VOL + (y * self.img + x) * 8
    }

    fn queues(&self) -> TaskQueues {
        let qbase = VOL * VOL * VOL + self.img * self.img * 8;
        TaskQueues::new(qbase, NQUEUES, self.tasks(), 0)
    }

    fn shared_bytes(&self) -> usize {
        VOL * VOL * VOL + self.img * self.img * 8 + TaskQueues::bytes(NQUEUES, self.tasks())
    }

    fn regions(&self) -> Vec<RegionHint> {
        // Volume: read-only. Image: fine-grained multi-writer (heavily
        // false-shared in the tile version). Queues: migratory under locks.
        vec![
            RegionHint::new("volume", 0, VOL * VOL * VOL),
            RegionHint::new("image", VOL * VOL * VOL, self.img * self.img * 8),
            RegionHint::new(
                "queues",
                VOL * VOL * VOL + self.img * self.img * 8,
                TaskQueues::bytes(NQUEUES, self.tasks()),
            ),
        ]
    }

    fn init(&self, mem: &mut MemImage) {
        // Synthetic volume: two soft blobs plus deterministic noise.
        let mut rng = XorShift::new(0xB10B);
        for x in 0..VOL {
            for y in 0..VOL {
                for z in 0..VOL {
                    let f = |cx: f64, cy: f64, cz: f64| {
                        let dx = x as f64 / VOL as f64 - cx;
                        let dy = y as f64 / VOL as f64 - cy;
                        let dz = z as f64 / VOL as f64 - cz;
                        (1.0 - 8.0 * (dx * dx + dy * dy + dz * dz)).max(0.0)
                    };
                    let v = 120.0 * f(0.35, 0.4, 0.5)
                        + 100.0 * f(0.7, 0.6, 0.45)
                        + 20.0 * rng.next_f64();
                    mem.bytes_mut()[self.vol_addr(x, y, z)] = v.min(255.0) as u8;
                }
            }
        }
        // Distribute tasks blocked over the queues.
        let q = self.queues();
        let per = self.tasks().div_ceil(NQUEUES);
        for t in 0..self.tasks() {
            q.init_push(mem, (t / per).min(NQUEUES - 1), t as u64);
        }
    }

    async fn render_pixel(&self, d: &mut Dsm, x: usize, y: usize) {
        // Orthographic ray along z with front-to-back compositing.
        let mut brightness = 0.0f64;
        let mut transparency = 1.0f64;
        let (fx, fy) = (
            x * (VOL - 1) / self.img.max(1),
            y * (VOL - 1) / self.img.max(1),
        );
        for s in 0..SAMPLES {
            let z = s * (VOL - 1) / (SAMPLES - 1);
            let v = d.read_u8(self.vol_addr(fx, fy, z)).await as f64 / 255.0;
            let opacity = v * 0.12;
            brightness += transparency * opacity * v;
            transparency *= 1.0 - opacity;
            d.compute(8 * FLOP_NS).await;
            if transparency < 0.02 {
                break;
            }
        }
        d.write_f64(self.pixel_addr(x, y), brightness).await;
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let me = d.node();
            let q = self.queues();
            d.barrier(0).await;
            while let Some(task) = q.pop_or_steal(d, me).await {
                if self.tile {
                    let tiles_per_row = self.img / 4;
                    let (ty, tx) = (task as usize / tiles_per_row, task as usize % tiles_per_row);
                    for dy in 0..4 {
                        for dx in 0..4 {
                            self.render_pixel(d, tx * 4 + dx, ty * 4 + dy).await;
                        }
                    }
                } else {
                    let y = task as usize;
                    for x in 0..self.img {
                        self.render_pixel(d, x, y).await;
                    }
                }
            }
            d.barrier(0).await;
        })
    }

    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        // Queue head/tail state differs (stealing); the image must match
        // exactly.
        let base = VOL * VOL * VOL;
        let end = base + self.img * self.img * 8;
        if seq.bytes()[base..end] == par.bytes()[base..end] {
            Ok(())
        } else {
            Err("rendered images differ".into())
        }
    }
}

/// The 4×4-tile-task version.
pub struct VolrendOriginal {
    inner: Volrend,
}

impl VolrendOriginal {
    /// Image of `img`×`img` pixels (must be a multiple of 4).
    pub fn new(img: usize) -> Self {
        assert_eq!(img % 4, 0);
        VolrendOriginal {
            inner: Volrend { img, tile: true },
        }
    }
}

/// The row-task version.
pub struct VolrendRowwise {
    inner: Volrend,
}

impl VolrendRowwise {
    /// Image of `img`×`img` pixels.
    pub fn new(img: usize) -> Self {
        VolrendRowwise {
            inner: Volrend { img, tile: false },
        }
    }
}

macro_rules! volrend_impl {
    ($ty:ident, $name:expr) => {
        impl DsmProgram for $ty {
            fn name(&self) -> String {
                $name.into()
            }
            fn shared_bytes(&self) -> usize {
                self.inner.shared_bytes()
            }
            fn regions(&self) -> Vec<RegionHint> {
                self.inner.regions()
            }
            fn poll_inflation_pct(&self) -> u32 {
                20
            }
            fn init(&self, mem: &mut MemImage) {
                self.inner.init(mem);
            }
            fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
                Box::pin(async move {
                    // Touch the node's own task queue; the image and volume are
                    // first-touched during execution, as in the paper's
                    // irregular applications.
                    let q = self.inner.queues();
                    let me = d.node();
                    if me < q.num_queues() {
                        touch_region(d, q.queue_addr(me), (2 + self.inner.tasks()) * 8).await;
                    }
                })
            }
            fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
                self.inner.run(d)
            }
            fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
                self.inner.check(seq, par)
            }
        }
    };
}

volrend_impl!(VolrendOriginal, "volrend-original");
volrend_impl!(VolrendRowwise, "volrend-rowwise");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts() {
        let o = VolrendOriginal::new(64);
        assert_eq!(o.inner.tasks(), 256);
        let r = VolrendRowwise::new(64);
        assert_eq!(r.inner.tasks(), 64);
    }

    #[test]
    fn volume_and_image_do_not_overlap() {
        let o = VolrendOriginal::new(64);
        assert!(o.inner.pixel_addr(0, 0) >= VOL * VOL * VOL);
        assert!(o.inner.pixel_addr(63, 63) + 8 <= o.shared_bytes());
    }

    #[test]
    fn init_distributes_all_tasks() {
        let o = VolrendOriginal::new(64);
        let mut mem = MemImage::new(o.shared_bytes());
        o.init(&mut mem);
        let q = o.inner.queues();
        let mut total = 0;
        for qi in 0..NQUEUES {
            let qa = q.queue_addr(qi);
            total += mem.read_u64(qa + 8) - mem.read_u64(qa);
        }
        assert_eq!(total, 256);
    }
}
