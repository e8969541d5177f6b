//! Raytrace: a recursive sphere-scene ray tracer standing in for the
//! SPLASH-2 `balls4` workload (substitution documented in DESIGN.md).
//!
//! The scene (an array of spheres plus a ground plane and a point light) is
//! read-only shared data; rays shoot into it exactly as the paper
//! describes. The interesting communication is task stealing through the
//! distributed task queues, and the fine-grained writes into the shared
//! image — multiple-writer, fine-grain access, coarse-grain
//! synchronization.

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{TaskQueues, XorShift, FLOP_NS};

/// Number of spheres in the scene.
const SPHERES: usize = 24;
/// Bytes per sphere record: center[3], radius, reflectivity (5 f64).
const SPHERE_BYTES: usize = 5 * 8;
/// Tile edge of one task.
const TILE: usize = 8;
/// Fixed queue-layout node count (see Volrend).
const NQUEUES: usize = 16;
/// Reflection recursion depth.
const MAX_DEPTH: usize = 2;

#[derive(Clone, Copy)]
struct Sphere {
    c: [f64; 3],
    r: f64,
    refl: f64,
}

/// The ray tracer program.
pub struct Raytrace {
    /// Image edge in pixels (multiple of TILE).
    pub img: usize,
}

impl Raytrace {
    /// The edge of a screen tile: the image edge must be a multiple of it.
    pub const TILE: usize = TILE;

    /// Scaled default: the paper renders `balls4`; we render a 24-sphere
    /// scene at `img`×`img`.
    pub fn new(img: usize) -> Self {
        assert_eq!(img % TILE, 0);
        Raytrace { img }
    }

    fn scene_addr(&self) -> usize {
        0
    }

    fn pixel_addr(&self, x: usize, y: usize) -> usize {
        SPHERES * SPHERE_BYTES + (y * self.img + x) * 8
    }

    fn queues(&self) -> TaskQueues {
        let tasks = self.tasks();
        let qbase = SPHERES * SPHERE_BYTES + self.img * self.img * 8;
        TaskQueues::new(qbase, NQUEUES, tasks, 0)
    }

    fn tasks(&self) -> usize {
        (self.img / TILE) * (self.img / TILE)
    }

    /// Load the whole (cache-resident) scene through the DSM once per task.
    async fn load_scene(&self, d: &mut Dsm) -> Vec<Sphere> {
        let mut raw = vec![0.0f64; SPHERES * 5];
        d.read_f64s(self.scene_addr(), &mut raw).await;
        (0..SPHERES)
            .map(|i| Sphere {
                c: [raw[5 * i], raw[5 * i + 1], raw[5 * i + 2]],
                r: raw[5 * i + 3],
                refl: raw[5 * i + 4],
            })
            .collect()
    }
}

const LIGHT: [f64; 3] = [0.3, 1.5, -0.2];

fn dot(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn sub(a: &[f64; 3], b: &[f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn scale_add(a: &[f64; 3], b: &[f64; 3], t: f64) -> [f64; 3] {
    [a[0] + b[0] * t, a[1] + b[1] * t, a[2] + b[2] * t]
}

fn normalize(v: &[f64; 3]) -> [f64; 3] {
    let n = dot(v, v).sqrt().max(1e-12);
    [v[0] / n, v[1] / n, v[2] / n]
}

/// Nearest intersection of a ray with the scene: (t, sphere index).
fn intersect(scene: &[Sphere], origin: &[f64; 3], dir: &[f64; 3]) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for (i, s) in scene.iter().enumerate() {
        let oc = sub(origin, &s.c);
        let b = dot(&oc, dir);
        let c = dot(&oc, &oc) - s.r * s.r;
        let disc = b * b - c;
        if disc <= 0.0 {
            continue;
        }
        let t = -b - disc.sqrt();
        if t > 1e-6 && best.map(|(bt, _)| t < bt).unwrap_or(true) {
            best = Some((t, i));
        }
    }
    best
}

async fn trace(
    scene: &[Sphere],
    origin: &[f64; 3],
    dir: &[f64; 3],
    depth: usize,
    d: &mut Dsm,
) -> f64 {
    d.compute(SPHERES as u64 * 12 * FLOP_NS).await;
    match intersect(scene, origin, dir) {
        None => {
            // Ground plane at y = -1 with a checker pattern; sky above.
            if dir[1] < -1e-6 {
                let t = (-1.0 - origin[1]) / dir[1];
                let hit = scale_add(origin, dir, t);
                let checker = ((hit[0].floor() + hit[2].floor()) as i64).rem_euclid(2);
                0.25 + 0.35 * checker as f64
            } else {
                0.15 + 0.25 * dir[1].max(0.0)
            }
        }
        Some((t, i)) => {
            let hit = scale_add(origin, dir, t);
            let n = normalize(&sub(&hit, &scene[i].c));
            let to_light = normalize(&sub(&LIGHT, &hit));
            // Shadow ray.
            d.compute(SPHERES as u64 * 12 * FLOP_NS).await;
            let lit = intersect(scene, &scale_add(&hit, &n, 1e-4), &to_light).is_none();
            let diffuse = if lit {
                dot(&n, &to_light).max(0.0)
            } else {
                0.0
            };
            let mut shade = 0.1 + 0.7 * diffuse;
            if depth < MAX_DEPTH && scene[i].refl > 0.0 {
                let refl_dir = scale_add(dir, &n, -2.0 * dot(dir, &n));
                // The one recursive `async fn` in the suite: the reflected
                // ray's future is boxed (at most MAX_DEPTH deep).
                let origin = scale_add(&hit, &n, 1e-4);
                let refl = Box::pin(trace(scene, &origin, &refl_dir, depth + 1, d)).await;
                shade = shade * (1.0 - scene[i].refl) + refl * scene[i].refl;
            }
            shade
        }
    }
}

impl DsmProgram for Raytrace {
    fn name(&self) -> String {
        "raytrace".into()
    }

    fn shared_bytes(&self) -> usize {
        SPHERES * SPHERE_BYTES + self.img * self.img * 8 + TaskQueues::bytes(NQUEUES, self.tasks())
    }

    fn regions(&self) -> Vec<RegionHint> {
        // Scene: read-only. Image: multiple fine-grained writers. Queues:
        // migratory head/tail words under locks.
        vec![
            RegionHint::new("scene", 0, SPHERES * SPHERE_BYTES),
            RegionHint::new("image", SPHERES * SPHERE_BYTES, self.img * self.img * 8),
            RegionHint::new(
                "queues",
                SPHERES * SPHERE_BYTES + self.img * self.img * 8,
                TaskQueues::bytes(NQUEUES, self.tasks()),
            ),
        ]
    }

    fn poll_inflation_pct(&self) -> u32 {
        20
    }

    fn init(&self, mem: &mut MemImage) {
        let mut rng = XorShift::new(0x5CE4E);
        for i in 0..SPHERES {
            let base = i * SPHERE_BYTES;
            mem.write_f64(base, rng.range_f64(-2.5, 2.5));
            mem.write_f64(base + 8, rng.range_f64(-0.5, 1.5));
            mem.write_f64(base + 16, rng.range_f64(2.0, 7.0));
            mem.write_f64(base + 24, rng.range_f64(0.25, 0.7));
            mem.write_f64(base + 32, rng.range_f64(0.0, 0.6));
        }
        let q = self.queues();
        let per = self.tasks().div_ceil(NQUEUES);
        for t in 0..self.tasks() {
            q.init_push(mem, (t / per).min(NQUEUES - 1), t as u64);
        }
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let q = self.queues();
            let me = d.node();
            if me < q.num_queues() {
                touch_region(d, q.queue_addr(me), (2 + self.tasks()) * 8).await;
            }
        })
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let me = d.node();
            let q = self.queues();
            d.barrier(0).await;
            while let Some(task) = q.pop_or_steal(d, me).await {
                let scene = self.load_scene(d).await;
                let tiles_per_row = self.img / TILE;
                let (ty, tx) = (task as usize / tiles_per_row, task as usize % tiles_per_row);
                for dy in 0..TILE {
                    for dx in 0..TILE {
                        let (x, y) = (tx * TILE + dx, ty * TILE + dy);
                        // Pinhole camera at the origin looking down +z.
                        let dir = normalize(&[
                            (x as f64 + 0.5) / self.img as f64 - 0.5,
                            0.5 - (y as f64 + 0.5) / self.img as f64,
                            1.0,
                        ]);
                        let v = trace(&scene, &[0.0, 0.0, 0.0], &dir, 0, d).await;
                        d.write_f64(self.pixel_addr(x, y), v).await;
                    }
                }
            }
            d.barrier(0).await;
        })
    }

    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        let base = SPHERES * SPHERE_BYTES;
        let end = base + self.img * self.img * 8;
        if seq.bytes()[base..end] == par.bytes()[base..end] {
            Ok(())
        } else {
            Err("rendered images differ".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_intersection_hits_head_on() {
        let scene = [Sphere {
            c: [0.0, 0.0, 5.0],
            r: 1.0,
            refl: 0.0,
        }];
        let hit = intersect(&scene, &[0.0, 0.0, 0.0], &[0.0, 0.0, 1.0]);
        let (t, i) = hit.expect("must hit");
        assert_eq!(i, 0);
        assert!((t - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sphere_intersection_misses_sideways() {
        let scene = [Sphere {
            c: [0.0, 0.0, 5.0],
            r: 1.0,
            refl: 0.0,
        }];
        assert!(intersect(&scene, &[0.0, 0.0, 0.0], &[0.0, 1.0, 0.0]).is_none());
    }

    #[test]
    fn normalize_unit_length() {
        let v = normalize(&[3.0, 4.0, 0.0]);
        assert!((dot(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layout_fits() {
        let r = Raytrace::new(64);
        assert!(r.pixel_addr(63, 63) + 8 <= r.shared_bytes());
        assert_eq!(r.tasks(), 64);
    }
}
