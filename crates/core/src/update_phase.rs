//! The position/velocity update phase (semi-implicit Euler, the symplectic
//! first-order integrator SPLASH-style N-body codes use between force
//! evaluations), plus the per-processor bounding-box computation consumed by
//! the next step's bounds reduction.

use crate::env::Env;
use crate::math::Aabb;
use crate::world::World;

/// Cycle cost charged per body update.
const UPDATE_CYCLES: u64 = 20;

/// Advance this processor's bodies by `dt` and publish its bounding box.
/// Caller barriers afterwards.
pub fn update_phase<E: Env>(env: &E, ctx: &mut E::Ctx, world: &World, proc: usize, dt: f64) {
    let (s, e) = world.zone(env, ctx, proc);
    let mut bbox = Aabb::EMPTY;
    for i in s..e {
        let b = world.order.load(env, ctx, i) as usize;
        let acc = world.acc.load(env, ctx, b);
        let vel = world.vel.load(env, ctx, b) + acc * dt;
        let pos = world.pos.load(env, ctx, b) + vel * dt;
        world.vel.store(env, ctx, b, vel);
        world.pos.store(env, ctx, b, pos);
        bbox.grow(pos);
        env.compute(ctx, UPDATE_CYCLES);
    }
    world.proc_bbox.store(env, ctx, proc, bbox);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NativeEnv;
    use crate::math::Vec3;
    use crate::model::Model;
    use crate::world::World;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn bodies_move_under_constant_acceleration() {
        let env = NativeEnv::new(1);
        let bodies = Model::UniformSphere.generate(10, 1);
        let world = World::new(&env, &bodies);
        for i in 0..10 {
            world.acc.poke(i, Vec3::new(1.0, 0.0, 0.0));
            world.vel.poke(i, Vec3::ZERO);
        }
        let mut ctx = env.make_ctx(0);
        update_phase(&env, &mut ctx, &world, 0, 0.5);
        for i in 0..10 {
            // v = a dt = 0.5; x += v dt = 0.25.
            assert!((world.vel.peek(i).x - 0.5).abs() < 1e-15);
            assert!((world.pos.peek(i).x - (bodies[i].pos.x + 0.25)).abs() < 1e-15);
        }
    }

    #[test]
    fn bbox_covers_new_positions() {
        let env = NativeEnv::new(1);
        let bodies = Model::UniformSphere.generate(50, 2);
        let world = World::new(&env, &bodies);
        let mut ctx = env.make_ctx(0);
        update_phase(&env, &mut ctx, &world, 0, 0.1);
        let bbox = world.proc_bbox.peek(0);
        for i in 0..50 {
            assert!(bbox.contains(world.pos.peek(i)));
        }
    }
}
