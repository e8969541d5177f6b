//! Barnes: the Barnes-Hut hierarchical N-body method (SPLASH-2), in the
//! paper's three tree-building variants.
//!
//! * [`BarnesOriginal`] — the "rebuild" version: every processor inserts
//!   its particles into one global octree. Under SC, descent reads are
//!   plain and only mutations take per-cell locks (double-checked); under
//!   the LRC protocols every descent step must also acquire the cell lock
//!   to see fresh pointers — the extra synchronization the paper reports
//!   (2,086 vs 17,167 lock operations) that makes Barnes-Original the one
//!   application relaxed protocols never rescue.
//! * [`BarnesVariant::Partree`] — processors group their particles by the static
//!   top-two-level octant and merge whole buckets under one lock per
//!   bucket: far fewer lock operations.
//! * [`BarnesVariant::Spatial`] — processors own fixed spatial buckets, collect the
//!   particles falling in them (reading every particle), and build their
//!   subtrees privately: no locks at all, only barriers, at the cost of
//!   load imbalance.
//!
//! The octree splits until every leaf holds one body, so the tree shape is
//! a function of the particle set only — independent of insertion order —
//! and center-of-mass and force sums run in canonical octant order, making
//! particle state bit-identical to the sequential run.

use dsm_core::{touch_region, Dsm, DsmProgram, MemImage, NodeFuture, RegionHint};

use crate::util::{XorShift, FLOP_NS};

const THETA: f64 = 0.6;
const DT: f64 = 2e-3;
const SOFT2: f64 = 1e-4;
const MAX_DEPTH: usize = 28;

/// Cell record: 8 children (u64) + com[3] + mass + depth = 104 bytes.
const CELL_BYTES: usize = 8 * 8 + 3 * 8 + 8 + 8;

const EMPTY: u64 = 0;
const BODY_TAG: u64 = 1 << 63;
const CELL_TAG: u64 = 1 << 62;

/// Static cells: root (0) + level 1 (1..=8) + level 2 (9..=72).
const STATIC_CELLS: usize = 73;

fn body_ref(i: usize) -> u64 {
    BODY_TAG | i as u64
}

fn cell_ref(c: usize) -> u64 {
    CELL_TAG | c as u64
}

/// Which tree-building algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarnesVariant {
    /// Global tree with per-cell locks.
    Original,
    /// Partial trees merged bucket-by-bucket.
    Partree,
    /// Fixed spatial decomposition, no locks.
    Spatial,
}

/// The Barnes-Hut N-body program.
pub struct Barnes {
    /// Number of particles.
    pub n: usize,
    /// Time steps.
    pub steps: usize,
    /// Tree-building algorithm.
    pub variant: BarnesVariant,
    /// Per-processor cell arena size (in cells), fixed independent of the
    /// node count so layouts agree between runs.
    chunk: usize,
}

impl Barnes {
    /// The largest cluster the shared layout has room for: it holds one
    /// allocation counter and one cell arena per processor.
    pub const MAX_NODES: usize = 16;

    /// Scaled default: the paper used 16,384 particles.
    pub fn new(n: usize, steps: usize, variant: BarnesVariant) -> Self {
        Barnes {
            n,
            steps,
            variant,
            chunk: 3 * n,
        }
    }

    // ---- shared layout ----
    // [alloc counters: MAX_NODES u64][cell arena][pos][vel][acc][mass]
    fn counter_addr(&self, p: usize) -> usize {
        p * 8
    }
    fn arena_cells(&self) -> usize {
        STATIC_CELLS + Self::MAX_NODES * self.chunk
    }
    fn cell_addr(&self, c: usize) -> usize {
        Self::MAX_NODES * 8 + c * CELL_BYTES
    }
    fn child_addr(&self, c: usize, oct: usize) -> usize {
        self.cell_addr(c) + oct * 8
    }
    fn com_addr(&self, c: usize) -> usize {
        self.cell_addr(c) + 64
    }
    fn mass_addr(&self, c: usize) -> usize {
        self.cell_addr(c) + 88
    }
    fn depth_addr(&self, c: usize) -> usize {
        self.cell_addr(c) + 96
    }
    fn particles_base(&self) -> usize {
        128 + self.arena_cells() * CELL_BYTES
    }
    fn pos_addr(&self, i: usize) -> usize {
        self.particles_base() + i * 24
    }
    fn vel_addr(&self, i: usize) -> usize {
        self.particles_base() + self.n * 24 + i * 24
    }
    fn acc_addr(&self, i: usize) -> usize {
        self.particles_base() + 2 * self.n * 24 + i * 24
    }
    fn pmass_addr(&self, i: usize) -> usize {
        self.particles_base() + 3 * self.n * 24 + i * 8
    }

    fn cell_lock(&self, c: usize) -> usize {
        1 + c
    }

    fn uses_static_top(&self) -> bool {
        !matches!(self.variant, BarnesVariant::Original)
    }

    /// Allocate a cell from `me`'s arena (single-writer counter).
    async fn alloc_cell(&self, d: &mut Dsm, me: usize, depth: u64) -> usize {
        let next = d.read_u64(self.counter_addr(me)).await as usize;
        assert!(next < self.chunk, "cell arena exhausted");
        d.write_u64(self.counter_addr(me), next as u64 + 1).await;
        let c = STATIC_CELLS + me * self.chunk + next;
        for oct in 0..8 {
            d.write_u64(self.child_addr(c, oct), EMPTY).await;
        }
        d.write_u64(self.depth_addr(c), depth).await;
        c
    }

    /// Octant of `pos` within a cell centred at `center`.
    fn octant(pos: &[f64; 3], center: &[f64; 3]) -> usize {
        ((pos[0] >= center[0]) as usize) << 2
            | ((pos[1] >= center[1]) as usize) << 1
            | ((pos[2] >= center[2]) as usize)
    }

    fn child_center(center: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
        let q = half / 2.0;
        [
            center[0] + if oct & 4 != 0 { q } else { -q },
            center[1] + if oct & 2 != 0 { q } else { -q },
            center[2] + if oct & 1 != 0 { q } else { -q },
        ]
    }

    /// Geometry of static level-2 cell `9 + b` for bucket `b` in 0..64.
    fn bucket_geometry(b: usize) -> ([f64; 3], f64) {
        let o1 = b / 8;
        let o2 = b % 8;
        let c1 = Self::child_center(&[0.5, 0.5, 0.5], 0.5, o1);
        let c2 = Self::child_center(&c1, 0.25, o2);
        (c2, 0.125)
    }

    /// Bucket (level-2 octant) of a position.
    fn bucket_of(pos: &[f64; 3]) -> usize {
        let o1 = Self::octant(pos, &[0.5, 0.5, 0.5]);
        let c1 = Self::child_center(&[0.5, 0.5, 0.5], 0.5, o1);
        let o2 = Self::octant(pos, &c1);
        o1 * 8 + o2
    }

    /// Insert a body with per-cell locking (Original). `lrc` adds the
    /// acquire-per-descent-step the relaxed protocols require.
    #[allow(clippy::too_many_arguments)]
    async fn insert_locked(
        &self,
        d: &mut Dsm,
        me: usize,
        i: usize,
        pos: &[f64; 3],
        mut c: usize,
        mut center: [f64; 3],
        mut half: f64,
        lrc: bool,
    ) {
        let mut depth = d.read_u64(self.depth_addr(c)).await;
        let mut spins = 0;
        loop {
            spins += 1;
            assert!(spins < 10_000, "tree insertion livelocked");
            let oct = Self::octant(pos, &center);
            let child = if lrc {
                d.lock(self.cell_lock(c)).await;
                let v = d.read_u64(self.child_addr(c, oct)).await;
                d.unlock(self.cell_lock(c)).await;
                v
            } else {
                d.read_u64(self.child_addr(c, oct)).await
            };
            d.compute(10 * FLOP_NS).await;
            if child == EMPTY {
                d.lock(self.cell_lock(c)).await;
                let v = d.read_u64(self.child_addr(c, oct)).await;
                if v == EMPTY {
                    d.write_u64(self.child_addr(c, oct), body_ref(i)).await;
                    d.unlock(self.cell_lock(c)).await;
                    return;
                }
                d.unlock(self.cell_lock(c)).await;
            } else if child & BODY_TAG != 0 {
                let q = (child & !BODY_TAG) as usize;
                d.lock(self.cell_lock(c)).await;
                let v = d.read_u64(self.child_addr(c, oct)).await;
                if v == child {
                    // Split: push q one level down, link the new cell.
                    assert!((depth as usize) < MAX_DEPTH, "octree too deep");
                    let nc = self.alloc_cell(d, me, depth + 1).await;
                    let ncenter = Self::child_center(&center, half, oct);
                    let mut qpos = [0.0f64; 3];
                    d.read_f64s(self.pos_addr(q), &mut qpos).await;
                    let qoct = Self::octant(&qpos, &ncenter);
                    d.write_u64(self.child_addr(nc, qoct), body_ref(q)).await;
                    d.write_u64(self.child_addr(c, oct), cell_ref(nc)).await;
                    d.unlock(self.cell_lock(c)).await;
                } else {
                    d.unlock(self.cell_lock(c)).await;
                }
            } else {
                // Descend.
                c = (child & !CELL_TAG) as usize;
                center = Self::child_center(&center, half, oct);
                half /= 2.0;
                depth += 1;
            }
        }
    }

    /// Insert a body with no locking (the caller owns the subtree).
    #[allow(clippy::too_many_arguments)] // mirrors insert_locked's geometry arguments
    async fn insert_private(
        &self,
        d: &mut Dsm,
        me: usize,
        i: usize,
        pos: &[f64; 3],
        mut c: usize,
        mut center: [f64; 3],
        mut half: f64,
    ) {
        let mut depth = d.read_u64(self.depth_addr(c)).await;
        loop {
            let oct = Self::octant(pos, &center);
            let child = d.read_u64(self.child_addr(c, oct)).await;
            d.compute(10 * FLOP_NS).await;
            if child == EMPTY {
                d.write_u64(self.child_addr(c, oct), body_ref(i)).await;
                return;
            }
            if child & BODY_TAG != 0 {
                let q = (child & !BODY_TAG) as usize;
                assert!((depth as usize) < MAX_DEPTH, "octree too deep");
                let nc = self.alloc_cell(d, me, depth + 1).await;
                let ncenter = Self::child_center(&center, half, oct);
                let mut qpos = [0.0f64; 3];
                d.read_f64s(self.pos_addr(q), &mut qpos).await;
                let qoct = Self::octant(&qpos, &ncenter);
                d.write_u64(self.child_addr(nc, qoct), body_ref(q)).await;
                d.write_u64(self.child_addr(c, oct), cell_ref(nc)).await;
                // retry this level: next iteration descends into nc
            } else {
                c = (child & !CELL_TAG) as usize;
                center = Self::child_center(&center, half, oct);
                half /= 2.0;
                depth += 1;
            }
        }
    }

    /// Reset the tree for a new step (proc 0 only).
    async fn reset_tree(&self, d: &mut Dsm) {
        for p in 0..Self::MAX_NODES {
            d.write_u64(self.counter_addr(p), 0).await;
        }
        for c in 0..STATIC_CELLS {
            for oct in 0..8 {
                d.write_u64(self.child_addr(c, oct), EMPTY).await;
            }
        }
        d.write_u64(self.depth_addr(0), 0).await;
        if self.uses_static_top() {
            for o1 in 0..8 {
                d.write_u64(self.child_addr(0, o1), cell_ref(1 + o1)).await;
                d.write_u64(self.depth_addr(1 + o1), 1).await;
                for o2 in 0..8 {
                    d.write_u64(self.child_addr(1 + o1, o2), cell_ref(9 + o1 * 8 + o2))
                        .await;
                    d.write_u64(self.depth_addr(9 + o1 * 8 + o2), 2).await;
                }
            }
        }
    }

    /// Tree build phase (after the reset barrier).
    async fn build(&self, d: &mut Dsm) {
        let (me, p) = (d.node(), d.num_nodes());
        let per = self.n / p;
        let lo = me * per;
        let hi = if me == p - 1 { self.n } else { lo + per };
        let lrc = d.is_release_consistent();
        match self.variant {
            BarnesVariant::Original => {
                let mut pos = [0.0f64; 3];
                for i in lo..hi {
                    d.read_f64s(self.pos_addr(i), &mut pos).await;
                    self.insert_locked(d, me, i, &pos, 0, [0.5, 0.5, 0.5], 0.5, lrc)
                        .await;
                }
            }
            BarnesVariant::Partree => {
                // Group own particles by bucket (the "partial tree"), then
                // merge each bucket under a single lock.
                let mut buckets: Vec<Vec<(usize, [f64; 3])>> = vec![Vec::new(); 64];
                let mut pos = [0.0f64; 3];
                for i in lo..hi {
                    d.read_f64s(self.pos_addr(i), &mut pos).await;
                    buckets[Self::bucket_of(&pos)].push((i, pos));
                }
                d.compute((hi - lo) as u64 * 10 * FLOP_NS).await;
                for (b, list) in buckets.iter().enumerate() {
                    if list.is_empty() {
                        continue;
                    }
                    let cell = 9 + b;
                    let (center, half) = Self::bucket_geometry(b);
                    d.lock(self.cell_lock(cell)).await;
                    for (i, pos) in list {
                        self.insert_private(d, me, *i, pos, cell, center, half)
                            .await;
                    }
                    d.unlock(self.cell_lock(cell)).await;
                }
            }
            BarnesVariant::Spatial => {
                // Scan every particle; build only the owned buckets.
                let mut pos = [0.0f64; 3];
                for i in 0..self.n {
                    d.read_f64s(self.pos_addr(i), &mut pos).await;
                    let b = Self::bucket_of(&pos);
                    if b % p != me {
                        continue;
                    }
                    let (center, half) = Self::bucket_geometry(b);
                    self.insert_private(d, me, i, &pos, 9 + b, center, half)
                        .await;
                }
            }
        }
    }

    /// Cooperative centre-of-mass pass: level-synchronized, deepest first.
    async fn compute_com(&self, d: &mut Dsm) {
        let (me, p) = (d.node(), d.num_nodes());
        // Enumerate the cells this node is responsible for, noting depths.
        let mut mine: Vec<Vec<usize>> = vec![Vec::new(); MAX_DEPTH + 1];
        let consider = async |d_: &mut Dsm, c: usize, mine: &mut Vec<Vec<usize>>| {
            if c % p == me {
                let depth = d_.read_u64(self.depth_addr(c)).await as usize;
                mine[depth.min(MAX_DEPTH)].push(c);
            }
        };
        for c in 0..STATIC_CELLS {
            consider(d, c, &mut mine).await;
        }
        for q in 0..Self::MAX_NODES {
            let count = d.read_u64(self.counter_addr(q)).await as usize;
            for k in 0..count {
                consider(d, STATIC_CELLS + q * self.chunk + k, &mut mine).await;
            }
        }
        // All nodes must loop over the same depth range: use the fixed
        // bound and one barrier per level.
        for depth in (0..=MAX_DEPTH).rev() {
            for &c in &mine[depth] {
                let mut mass = 0.0f64;
                let mut com = [0.0f64; 3];
                for oct in 0..8 {
                    let child = d.read_u64(self.child_addr(c, oct)).await;
                    if child == EMPTY {
                        continue;
                    }
                    let (m, cpos) = if child & BODY_TAG != 0 {
                        let i = (child & !BODY_TAG) as usize;
                        let m = d.read_f64(self.pmass_addr(i)).await;
                        let mut pp = [0.0f64; 3];
                        d.read_f64s(self.pos_addr(i), &mut pp).await;
                        (m, pp)
                    } else {
                        let cc = (child & !CELL_TAG) as usize;
                        let m = d.read_f64(self.mass_addr(cc)).await;
                        let mut pp = [0.0f64; 3];
                        d.read_f64s(self.com_addr(cc), &mut pp).await;
                        (m, pp)
                    };
                    mass += m;
                    for k in 0..3 {
                        com[k] += m * cpos[k];
                    }
                    d.compute(8 * FLOP_NS).await;
                }
                if mass > 0.0 {
                    for k in &mut com {
                        *k /= mass;
                    }
                }
                d.write_f64s(self.com_addr(c), &com).await;
                d.write_f64(self.mass_addr(c), mass).await;
            }
            d.barrier(1).await;
        }
    }

    /// Force phase: Barnes-Hut traversal for each owned particle.
    async fn compute_forces(&self, d: &mut Dsm) {
        let (me, p) = (d.node(), d.num_nodes());
        let per = self.n / p;
        let lo = me * per;
        let hi = if me == p - 1 { self.n } else { lo + per };
        let mut pos = [0.0f64; 3];
        let mut stack: Vec<(usize, f64)> = Vec::with_capacity(64);
        for i in lo..hi {
            d.read_f64s(self.pos_addr(i), &mut pos).await;
            let mut acc = [0.0f64; 3];
            stack.clear();
            stack.push((0, 1.0)); // root, size 1
            while let Some((c, size)) = stack.pop() {
                let mass = d.read_f64(self.mass_addr(c)).await;
                if mass <= 0.0 {
                    continue;
                }
                let mut com = [0.0f64; 3];
                d.read_f64s(self.com_addr(c), &mut com).await;
                let dx = com[0] - pos[0];
                let dy = com[1] - pos[1];
                let dz = com[2] - pos[2];
                let r2 = dx * dx + dy * dy + dz * dz;
                d.compute(12 * FLOP_NS).await;
                if size * size < THETA * THETA * r2 {
                    // Far enough: use the aggregate.
                    let r2s = r2 + SOFT2;
                    let inv = mass / (r2s * r2s.sqrt());
                    acc[0] += inv * dx;
                    acc[1] += inv * dy;
                    acc[2] += inv * dz;
                    d.compute(10 * FLOP_NS).await;
                } else {
                    for oct in (0..8).rev() {
                        let child = d.read_u64(self.child_addr(c, oct)).await;
                        if child == EMPTY {
                            continue;
                        }
                        if child & BODY_TAG != 0 {
                            let j = (child & !BODY_TAG) as usize;
                            if j == i {
                                continue;
                            }
                            let mut pj = [0.0f64; 3];
                            d.read_f64s(self.pos_addr(j), &mut pj).await;
                            let mj = d.read_f64(self.pmass_addr(j)).await;
                            let dx = pj[0] - pos[0];
                            let dy = pj[1] - pos[1];
                            let dz = pj[2] - pos[2];
                            let r2 = dx * dx + dy * dy + dz * dz + SOFT2;
                            let inv = mj / (r2 * r2.sqrt());
                            acc[0] += inv * dx;
                            acc[1] += inv * dy;
                            acc[2] += inv * dz;
                            d.compute(18 * FLOP_NS).await;
                        } else {
                            stack.push(((child & !CELL_TAG) as usize, size / 2.0));
                        }
                    }
                }
            }
            d.write_f64s(self.acc_addr(i), &acc).await;
        }
    }

    /// Integration: leapfrog-ish update of owned particles, reflecting at
    /// the walls so positions stay in the unit box.
    async fn integrate(&self, d: &mut Dsm) {
        let (me, p) = (d.node(), d.num_nodes());
        let per = self.n / p;
        let lo = me * per;
        let hi = if me == p - 1 { self.n } else { lo + per };
        let (mut pos, mut vel, mut acc) = ([0.0f64; 3], [0.0f64; 3], [0.0f64; 3]);
        for i in lo..hi {
            d.read_f64s(self.pos_addr(i), &mut pos).await;
            d.read_f64s(self.vel_addr(i), &mut vel).await;
            d.read_f64s(self.acc_addr(i), &mut acc).await;
            for k in 0..3 {
                vel[k] += DT * acc[k];
                pos[k] += DT * vel[k];
                if pos[k] < 1e-9 {
                    pos[k] = (2e-9 - pos[k]).min(1.0 - 1e-9);
                    vel[k] = -vel[k];
                } else if pos[k] > 1.0 - 1e-9 {
                    pos[k] = (2.0 - 2e-9 - pos[k]).max(1e-9);
                    vel[k] = -vel[k];
                }
            }
            d.write_f64s(self.vel_addr(i), &vel).await;
            d.write_f64s(self.pos_addr(i), &pos).await;
            d.compute(14 * FLOP_NS).await;
        }
    }
}

impl DsmProgram for Barnes {
    fn name(&self) -> String {
        match self.variant {
            BarnesVariant::Original => "barnes-original".into(),
            BarnesVariant::Partree => "barnes-partree".into(),
            BarnesVariant::Spatial => "barnes-spatial".into(),
        }
    }

    fn shared_bytes(&self) -> usize {
        self.particles_base() + 3 * self.n * 24 + self.n * 8
    }

    fn regions(&self) -> Vec<RegionHint> {
        // The octree (counters + cell arena) is rebuilt every step with
        // migratory fine-grained writes; the particle arrays are
        // owner-partitioned and mostly read by others.
        vec![
            RegionHint::new("tree", 0, self.particles_base()),
            RegionHint::new(
                "particles",
                self.particles_base(),
                3 * self.n * 24 + self.n * 8,
            ),
        ]
    }

    fn poll_inflation_pct(&self) -> u32 {
        25
    }

    fn max_nodes(&self) -> Option<usize> {
        Some(Self::MAX_NODES)
    }

    fn uses_lrc_extra_sync(&self) -> bool {
        matches!(self.variant, BarnesVariant::Original)
    }

    fn warmup<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let (me, p) = (d.node(), d.num_nodes());
            let per = self.n / p;
            let lo = me * per;
            let hi = if me == p - 1 { self.n } else { lo + per };
            touch_region(d, self.pos_addr(lo), (hi - lo) * 24).await;
            touch_region(d, self.vel_addr(lo), (hi - lo) * 24).await;
            touch_region(d, self.acc_addr(lo), (hi - lo) * 24).await;
            touch_region(d, self.pmass_addr(lo), (hi - lo) * 8).await;
            // Own cell arena and allocation counter.
            touch_region(d, self.counter_addr(me), 8).await;
            let arena_start = self.cell_addr(STATIC_CELLS + me * self.chunk);
            touch_region(d, arena_start, self.chunk * CELL_BYTES).await;
            if me == 0 {
                touch_region(d, self.cell_addr(0), STATIC_CELLS * CELL_BYTES).await;
            }
        })
    }

    fn init(&self, mem: &mut MemImage) {
        let mut rng = XorShift::new(0xBA27E5);
        for i in 0..self.n {
            // Plummer-ish clustered distribution inside the unit box.
            let centers = [[0.3, 0.3, 0.5], [0.7, 0.6, 0.4], [0.5, 0.75, 0.65]];
            let center = centers[i % 3];
            for (k, c) in center.iter().enumerate() {
                let v = c + rng.range_f64(-0.22, 0.22);
                mem.write_f64(self.pos_addr(i) + k * 8, v.clamp(1e-6, 1.0 - 1e-6));
                mem.write_f64(self.vel_addr(i) + k * 8, rng.range_f64(-0.01, 0.01));
                mem.write_f64(self.acc_addr(i) + k * 8, 0.0);
            }
            mem.write_f64(self.pmass_addr(i), 1.0 / self.n as f64);
        }
    }

    fn run<'a>(&'a self, d: &'a mut Dsm) -> NodeFuture<'a> {
        Box::pin(async move {
            let me = d.node();
            for _ in 0..self.steps {
                if me == 0 {
                    self.reset_tree(d).await;
                }
                d.barrier(0).await;
                self.build(d).await;
                d.barrier(0).await;
                self.compute_com(d).await;
                // (compute_com ends with a barrier per level)
                self.compute_forces(d).await;
                d.barrier(0).await;
                self.integrate(d).await;
                d.barrier(0).await;
            }
        })
    }

    fn check(&self, seq: &MemImage, par: &MemImage) -> Result<(), String> {
        // Cell arena indices differ between runs (allocation arenas); the
        // physics must match bit-for-bit.
        let base = self.particles_base();
        let end = base + 2 * self.n * 24; // pos + vel
        if seq.bytes()[base..end] == par.bytes()[base..end] {
            Ok(())
        } else {
            // Locate the worst deviation for the error message.
            let worst = seq.max_f64_diff(par, base, 2 * 3 * self.n);
            Err(format!("particle state differs (worst {worst:.3e})"))
        }
    }
}

/// The global-tree version.
pub type BarnesOriginal = Barnes;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octants_partition_space() {
        let c = [0.5, 0.5, 0.5];
        assert_eq!(Barnes::octant(&[0.6, 0.6, 0.6], &c), 7);
        assert_eq!(Barnes::octant(&[0.4, 0.4, 0.4], &c), 0);
        assert_eq!(Barnes::octant(&[0.6, 0.4, 0.4], &c), 4);
    }

    #[test]
    fn child_center_moves_quarter() {
        let cc = Barnes::child_center(&[0.5, 0.5, 0.5], 0.5, 7);
        assert_eq!(cc, [0.75, 0.75, 0.75]);
        let cc0 = Barnes::child_center(&[0.5, 0.5, 0.5], 0.5, 0);
        assert_eq!(cc0, [0.25, 0.25, 0.25]);
    }

    #[test]
    fn bucket_geometry_matches_bucket_of() {
        for b in 0..64 {
            let (center, half) = Barnes::bucket_geometry(b);
            // The bucket's own center maps back to the bucket.
            assert_eq!(Barnes::bucket_of(&center), b, "bucket {b}");
            assert!(half > 0.0);
        }
    }

    #[test]
    fn refs_round_trip() {
        assert_eq!(body_ref(5) & !BODY_TAG, 5);
        assert_ne!(body_ref(5) & BODY_TAG, 0);
        assert_eq!(cell_ref(7) & !CELL_TAG, 7);
        assert_eq!(cell_ref(7) & BODY_TAG, 0);
    }

    #[test]
    fn layout_is_disjoint() {
        let b = Barnes::new(64, 1, BarnesVariant::Original);
        assert!(b.cell_addr(0) >= 128);
        assert!(b.pos_addr(0) >= b.cell_addr(b.arena_cells() - 1) + CELL_BYTES);
        assert_eq!(b.pmass_addr(63) + 8, b.shared_bytes());
    }
}
