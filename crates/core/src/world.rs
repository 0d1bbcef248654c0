//! Shared world state: body arrays, per-body metadata, and the costzones
//! assignment every builder reads. A builder's own scratch lives with the
//! builder (see [`crate::algorithms::Builder`]).

use crate::body::Body;
use crate::env::{Env, Placement, Region};
use crate::math::{Aabb, Vec3};
use crate::shared::SharedVec;

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
    // ----- costzones assignment --------------------------------------------
    /// Bodies in costzones (tree traversal) order.
    pub order: SharedVec<u32>,
    /// Per-processor start index into `order`; length P+1, entry P = n.
    pub zone_start: SharedVec<u32>,
    // ----- bounds reduction --------------------------------------------------
    /// Per-processor bounding boxes, reduced to the global root cube.
    pub proc_bbox: SharedVec<Aabb>,
}

impl World {
    /// Allocate shared world state for `bodies` on the environment's
    /// processors and initialize it (untimed setup).
    pub fn new<E: Env>(env: &E, bodies: &[Body]) -> World {
        let n = bodies.len();
        let p = env.num_procs();
        let g = Placement::Global;
        let (body, meta, part) = (Region::Bodies, Region::BodyMeta, Region::Partition);
        let w = World {
            n,
            pos: SharedVec::new(env, n, Vec3::ZERO, g, body),
            vel: SharedVec::new(env, n, Vec3::ZERO, g, body),
            acc: SharedVec::new(env, n, Vec3::ZERO, g, body),
            mass: SharedVec::new(env, n, 0.0, g, body),
            cost: SharedVec::new(env, n, 1, g, meta),
            order: SharedVec::new(env, n, 0, g, part),
            zone_start: SharedVec::new(env, p + 1, 0, g, part),
            proc_bbox: SharedVec::new(env, p, Aabb::EMPTY, g, part),
        };
        w.reset(bodies);
        w
    }

    /// Reinitialize already-allocated world state for a new run over
    /// `bodies` (untimed, single-threaded engine setup between jobs).
    ///
    /// Restores everything: the body arrays, the costzones `order` and
    /// initial `zone_start`, and the bounds scratch `proc_bbox`. So a run on
    /// a reused engine loads the same values, and performs the same memory
    /// operations in the same order, as a run on a fresh allocation.
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
        for v in [&self.order, &self.zone_start] {
            v.fill(u32::MAX);
        }
        (0..self.n).for_each(|i| self.cost.poke(i, u32::MAX >> (i % 32)));
    }

    /// Bodies assigned to `proc`: the bounds of its zone of `order`, two
    /// timed loads.
    #[inline]
    pub fn zone<E: Env>(&self, env: &E, ctx: &mut E::Ctx, proc: usize) -> (usize, usize) {
        (
            self.zone_start.load(env, ctx, proc) as usize,
            self.zone_start.load(env, ctx, proc + 1) as usize,
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
    use crate::env::NativeEnv;
    use crate::model::Model;

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
        let starts: Vec<_> = (0..=4).map(|q| w.zone_start.peek(q)).collect();
        assert!(starts.windows(2).all(|z| z[0] <= z[1]));
        assert_eq!((starts[0], starts[4]), (0, 103));
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
            assert_eq!((w.cost.peek(i), w.order.peek(i)), (1, i as u32));
        }
        let starts: Vec<_> = (0..=4).map(|q| w.zone_start.peek(q)).collect();
        assert_eq!(starts, [0, 16, 32, 48, 64]);
        assert!((0..4).all(|q| w.proc_bbox.peek(q) == Aabb::EMPTY));
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
