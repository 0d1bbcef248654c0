//! Shared world state: body arrays, processor assignments, and the scratch
//! arrays used by the costzones and SPACE partitioners.

use crate::body::Body;
use crate::env::{Env, Placement, Region};
use crate::math::{Aabb, Cube, Vec3};
use crate::shared::{SharedAtomicVec, SharedVec};
use crate::tree::NodeRef;

/// Maximum number of final subspaces the SPACE partitioner may produce.
pub const SUBSPACE_CAP: usize = 8192;

/// Maximum frontier cells per SPACE refinement round.
pub const FRONTIER_CAP: usize = 8192;

/// A final subspace produced by the SPACE partitioner: the position in the
/// (partially built) global tree where the owning processor will attach the
/// subtree it builds.
#[derive(Debug, Clone, Copy)]
pub struct Subspace {
    /// Parent cell in the upper tree.
    pub parent: NodeRef,
    /// Octant of `parent` this subspace fills.
    pub oct: u8,
    /// Number of bodies in the subspace.
    pub count: u32,
    /// Total force-computation cost (last step's interaction counts) of the
    /// subspace's bodies. Drives the cost-weighted assignment.
    pub cost: u64,
    /// Cube of space represented.
    pub center: Vec3,
    pub half: f64,
}

impl Subspace {
    pub fn cube(&self) -> Cube {
        Cube::new(self.center, self.half)
    }

    fn zero() -> Subspace {
        Subspace {
            parent: NodeRef::NULL,
            oct: 0,
            count: 0,
            cost: 0,
            center: Vec3::ZERO,
            half: 0.0,
        }
    }
}

/// All shared state of the running simulation apart from the tree itself.
pub struct World {
    pub n: usize,
    // ----- body state ------------------------------------------------------
    pub pos: SharedVec<Vec3>,
    pub vel: SharedVec<Vec3>,
    pub acc: SharedVec<Vec3>,
    pub mass: SharedVec<f64>,
    /// Per-body force-computation work from the previous step (interaction
    /// count). Drives costzones partitioning.
    pub cost: SharedVec<u32>,
    /// The leaf currently holding each body (encoded [`NodeRef`] bits,
    /// atomic: it is read lock-free by the UPDATE algorithm's containment
    /// check while subdividers forward it). Maintained by all builders.
    pub body_leaf: SharedAtomicVec,
    // ----- costzones assignment --------------------------------------------
    /// Bodies in costzones (tree traversal) order.
    pub order: SharedVec<u32>,
    /// Per-processor start index into `order`; length P+1, entry P = n.
    pub zone_start: SharedVec<u32>,
    // ----- bounds reduction --------------------------------------------------
    /// Per-processor bounding boxes, reduced to the global root cube.
    pub proc_bbox: SharedVec<Aabb>,
    // ----- SPACE partitioner scratch ---------------------------------------
    /// Refinement frontier: encoded cell refs, double-buffered by round
    /// parity (round `r` reads `[r % 2]` and publishes the next frontier
    /// into `[1 - r % 2]`, so writers never collide with readers). Frontier
    /// geometry, routing, and lengths are processor-private: they are
    /// deterministic functions of the reduced totals, recomputed identically
    /// everywhere; only the cell refs need shared publication.
    pub sp_frontier: [SharedVec<u32>; 2],
    /// Per-processor body-count rows, one locally-placed array per
    /// processor, indexed by `slot*8 + oct`. Each row is accumulated
    /// privately and published with plain stores once per round, then read
    /// by the cooperative reduction after a barrier.
    pub sp_counts: Vec<SharedAtomicVec>,
    /// Per-processor cost rows, parallel to `sp_counts`: the summed
    /// last-step interaction cost of this processor's bodies per octant.
    pub sp_costs: Vec<SharedAtomicVec<u64>>,
    /// Reduced per-octant body counts (all processors' rows summed). Each
    /// processor reduces a contiguous chunk of the key space every round,
    /// so processor 0's routing pass reads `flen*8` totals instead of
    /// `flen*8*P` remote rows.
    pub sp_total_counts: SharedVec<u32>,
    /// Reduced per-octant costs, parallel to `sp_total_counts`.
    pub sp_total_costs: SharedVec<u64>,
    /// Final subspaces, published round-robin by subspace id.
    pub sp_subspaces: SharedVec<Subspace>,
    /// `[0]` = number of final subspaces (observability: every processor
    /// tracks the count privately; processor 0 publishes it once).
    pub sp_nsub: SharedAtomicVec,
    /// Per-processor routing state for the bodies of its zone (indexed by
    /// position within the zone): the pending route key, or
    /// `SUBSPACE_BIT | id` once settled. Local placement — routing state is
    /// private to the body's current owner.
    pub sp_body_slot: Vec<SharedVec<u32>>,
    /// Per-processor bucket storage: bodies grouped by subspace.
    pub sp_bucket: Vec<SharedVec<u32>>,
    /// Per-processor bucket offsets (length SUBSPACE_CAP+1 each).
    pub sp_bucket_off: Vec<SharedVec<u32>>,
}

/// Marker bit in SPACE routing entries: the remaining bits are a final
/// subspace id.
pub const SUBSPACE_BIT: u32 = 1 << 31;

impl World {
    /// Allocate shared world state for `bodies` on the environment's
    /// processors and initialize it (untimed setup).
    pub fn new<E: Env>(env: &E, bodies: &[Body]) -> World {
        let n = bodies.len();
        let p = env.num_procs();
        let g = Placement::Global;
        let local = Placement::Local;
        let (body, meta, part) = (Region::Bodies, Region::BodyMeta, Region::Partition);
        let scratch = Region::PartitionScratch;
        let w = World {
            n,
            pos: SharedVec::new(env, n, Vec3::ZERO, g, body),
            vel: SharedVec::new(env, n, Vec3::ZERO, g, body),
            acc: SharedVec::new(env, n, Vec3::ZERO, g, body),
            mass: SharedVec::new(env, n, 0.0, g, body),
            cost: SharedVec::new(env, n, 1, g, meta),
            body_leaf: SharedAtomicVec::new(env, n, 0, g, meta),
            order: SharedVec::new(env, n, 0, g, part),
            zone_start: SharedVec::new(env, p + 1, 0, g, part),
            proc_bbox: SharedVec::new(env, p, Aabb::EMPTY, g, part),
            sp_frontier: [
                SharedVec::new(env, FRONTIER_CAP, 0, g, scratch),
                SharedVec::new(env, FRONTIER_CAP, 0, g, scratch),
            ],
            sp_counts: (0..p)
                .map(|q| SharedAtomicVec::new(env, FRONTIER_CAP * 8, 0, local(q), scratch))
                .collect(),
            sp_costs: (0..p)
                .map(|q| SharedAtomicVec::new(env, FRONTIER_CAP * 8, 0, local(q), scratch))
                .collect(),
            sp_total_counts: SharedVec::new(env, FRONTIER_CAP * 8, 0, g, scratch),
            sp_total_costs: SharedVec::new(env, FRONTIER_CAP * 8, 0, g, scratch),
            sp_subspaces: SharedVec::new(env, SUBSPACE_CAP, Subspace::zero(), g, scratch),
            sp_nsub: SharedAtomicVec::new(env, 1, 0, g, scratch),
            sp_body_slot: (0..p)
                .map(|q| SharedVec::new(env, n, 0, local(q), scratch))
                .collect(),
            sp_bucket: (0..p)
                .map(|q| SharedVec::new(env, n, 0u32, local(q), scratch))
                .collect(),
            sp_bucket_off: (0..p)
                .map(|q| SharedVec::new(env, SUBSPACE_CAP + 1, 0u32, local(q), scratch))
                .collect(),
        };
        w.reset(bodies);
        w
    }

    /// Reinitialize already-allocated world state for a new run over
    /// `bodies` (untimed, single-threaded engine setup between jobs).
    ///
    /// Restores what a run reads before writing it: the body arrays, the
    /// costzones `order` and initial `zone_start`, the bounds scratch
    /// `proc_bbox`, and `sp_nsub`. The SPACE scratch (frontier, count and
    /// cost rows, totals, subspaces, routing slots, buckets) keeps the last
    /// run's bytes: every SPACE round stores each of those slots before it
    /// loads it, except round 0's routing-slot load, whose value is
    /// discarded. So a run on a reused engine loads the same values, and
    /// performs the same memory operations in the same order, as a run on
    /// a fresh allocation.
    pub fn reset(&self, bodies: &[Body]) {
        assert_eq!(
            bodies.len(),
            self.n,
            "World::reset needs the allocated body count"
        );
        let n = self.n;
        let p = self.proc_bbox.len();
        for (i, b) in bodies.iter().enumerate() {
            self.pos.poke(i, b.pos);
            self.vel.poke(i, b.vel);
            self.acc.poke(i, Vec3::ZERO);
            self.mass.poke(i, b.mass);
            self.cost.poke(i, 1);
            self.body_leaf.poke(i, 0);
            self.order.poke(i, i as u32);
        }
        // Initial even assignment in index order (the paper: "for the first
        // time step, the particles are evenly assigned to processors").
        for q in 0..=p {
            self.zone_start.poke(q, (q * n / p) as u32);
        }
        for q in 0..p {
            self.proc_bbox.poke(q, Aabb::EMPTY);
        }
        self.sp_nsub.poke(0, 0);
    }

    /// Overwrite every slot with garbage (NaN coordinates, `u32::MAX` refs
    /// and counts), so a test can show [`World::reset`] restores all a run
    /// reads before writing.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        let nan = Vec3::splat(f64::NAN);
        for v in [&self.pos, &self.vel, &self.acc] {
            v.fill(nan);
        }
        self.mass.fill(f64::NAN);
        self.proc_bbox.fill(Aabb { min: nan, max: nan });
        self.sp_subspaces.fill(Subspace {
            parent: NodeRef(u32::MAX),
            oct: u8::MAX,
            count: u32::MAX,
            cost: u64::MAX,
            center: nan,
            half: f64::NAN,
        });
        let rows = [&self.sp_body_slot, &self.sp_bucket, &self.sp_bucket_off];
        let words = rows.into_iter().flatten().chain(&self.sp_frontier);
        for v in words.chain([&self.order, &self.zone_start, &self.sp_total_counts]) {
            v.fill(u32::MAX);
        }
        let atomics = self
            .sp_counts
            .iter()
            .chain([&self.body_leaf, &self.sp_nsub]);
        atomics.for_each(|v| v.fill(u32::MAX));
        // Skewed, so that a stale cost would move SPACE's cost refinement.
        (0..self.n).for_each(|i| self.cost.poke(i, u32::MAX >> (i % 32)));
        self.sp_total_costs.fill(u64::MAX);
        self.sp_costs.iter().for_each(|v| v.fill(u64::MAX));
    }

    /// Bodies assigned to `proc` (zone bounds, untimed read; the zone
    /// contents are read with timed loads by the algorithms).
    #[inline]
    pub fn zone(&self, proc: usize) -> (usize, usize) {
        (
            self.zone_start.peek(proc) as usize,
            self.zone_start.peek(proc + 1) as usize,
        )
    }

    /// Snapshot the current body state (untimed; for validation/examples).
    pub fn snapshot(&self) -> Vec<Body> {
        (0..self.n)
            .map(|i| Body::new(self.pos.peek(i), self.vel.peek(i), self.mass.peek(i)))
            .collect()
    }

    /// Snapshot positions only.
    pub fn positions(&self) -> Vec<Vec3> {
        (0..self.n).map(|i| self.pos.peek(i)).collect()
    }

    /// Snapshot masses only.
    pub fn masses(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.mass.peek(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Algorithm, Builder};
    use crate::env::NativeEnv;
    use crate::model::Model;
    use crate::tree::validate::validate;
    use crate::tree::{SharedTree, TreeLayout};

    #[test]
    fn world_initialization_roundtrip() {
        let env = NativeEnv::new(4);
        let bodies = Model::Plummer.generate(100, 3);
        let w = World::new(&env, &bodies);
        assert_eq!(w.n, 100);
        let snap = w.snapshot();
        assert_eq!(snap, bodies);
    }

    #[test]
    fn initial_zones_are_even_partition() {
        let env = NativeEnv::new(4);
        let bodies = Model::UniformSphere.generate(103, 3);
        let w = World::new(&env, &bodies);
        let mut covered = 0;
        for p in 0..4 {
            let (s, e) = w.zone(p);
            assert!(s <= e);
            covered += e - s;
        }
        assert_eq!(covered, 103);
        assert_eq!(w.zone(0).0, 0);
        assert_eq!(w.zone(3).1, 103);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let env = NativeEnv::new(4);
        let first = Model::Plummer.generate(64, 7);
        let second = Model::UniformSphere.generate(64, 9);
        let w = World::new(&env, &first);
        w.poison();
        w.reset(&second);
        assert_eq!(w.snapshot(), second);
        for i in 0..64 {
            assert_eq!(w.acc.peek(i), Vec3::ZERO);
            let meta = (w.cost.peek(i), w.body_leaf.peek(i), w.order.peek(i));
            assert_eq!(meta, (1, 0, i as u32));
        }
        let zones: Vec<_> = (0..4).map(|q| w.zone(q)).collect();
        assert_eq!(zones, [(0, 16), (16, 32), (32, 48), (48, 64)]);
        assert!((0..4).all(|q| w.proc_bbox.peek(q) == Aabb::EMPTY));
        assert_eq!(w.sp_nsub.peek(0), 0);
        // The SPACE scratch keeps its garbage, and SPACE still builds a
        // valid tree over it.
        assert_eq!(w.sp_total_counts.peek(17), u32::MAX);
        let tree = SharedTree::new(&env, 64, 4, TreeLayout::PerProcessor);
        let mut builder = Builder::new(&env, Algorithm::Space, 64, 4);
        builder.space_threshold = 4;
        builder.build_once(&env, &tree, &w);
        validate(&tree, &w.positions(), &w.masses(), true).unwrap();
        assert!(w.sp_nsub.peek(0) > 8, "SPACE refined only its root");
    }

    #[test]
    fn initial_costs_are_uniform() {
        let env = NativeEnv::new(2);
        let bodies = Model::UniformSphere.generate(10, 1);
        let w = World::new(&env, &bodies);
        for i in 0..10 {
            assert_eq!(w.cost.peek(i), 1);
            assert_eq!(w.order.peek(i), i as u32);
        }
    }
}
