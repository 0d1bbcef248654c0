//! The ORIG and LOCAL tree-building algorithms.
//!
//! Both load bodies *directly* into the single shared tree, locking cells as
//! they are modified (paper §2.1–2.2). They differ only in data structures:
//!
//! * **ORIG** (SPLASH): one contiguous global cell/leaf array shared by all
//!   processors, with the allocation counters and per-processor bookkeeping
//!   variables adjacent in shared memory — heavy false sharing and no
//!   allocation locality ([`TreeLayout::GlobalArena`]).
//! * **LOCAL** (SPLASH-2): each processor allocates from its own arena kept
//!   contiguous in its local memory, with private counters
//!   ([`TreeLayout::PerProcessor`]).
//!
//! The insertion algorithm itself is identical, which is exactly the paper's
//! point: on hardware-coherent machines the data-structure change alone
//! closes most of the gap, while on SVM platforms both are hopeless because
//! of lock frequency.

use crate::algorithms::common::{create_root, insert_locked};
use crate::algorithms::update::UpdateScratch;
use crate::env::Env;
use crate::math::Cube;
use crate::tree::types::SharedTree;
use crate::world::World;

/// Tree-build phase of ORIG/LOCAL for one processor. The caller has already
/// run the bounds phase; `cube` is the global root cube. Ends un-barriered:
/// the application driver barriers after every build phase. `upd` is
/// UPDATE's state when its step 0 runs this build, which then records each
/// body's leaf there; ORIG and LOCAL pass `None`.
pub fn build<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    upd: Option<&UpdateScratch>,
    proc: usize,
    cube: Cube,
) {
    // Reset this processor's allocation bookkeeping, publish the root.
    tree.reset_for_rebuild(env, ctx, proc);
    env.barrier(ctx);
    if proc == 0 {
        create_root(env, ctx, tree, cube);
    }
    env.barrier(ctx);

    let root = tree.root.load(env, ctx, 0);
    let arena = tree.arena_of(proc);
    let (s, e) = world.zone(env, ctx, proc);
    for i in s..e {
        let b = world.order.load(env, ctx, i);
        insert_locked(env, ctx, tree, world, upd, arena, proc, b, root, cube);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::{bounds_phase, com_pass};
    use crate::env::NativeEnv;
    use crate::model::Model;
    use crate::tree::validate;
    use crate::tree::{SeqTree, SharedTree, TreeLayout};
    use crate::world::World;

    fn run_build(
        n: usize,
        p: usize,
        k: usize,
        layout: TreeLayout,
    ) -> (NativeEnv, SharedTree, World, Vec<crate::body::Body>) {
        let env = NativeEnv::new(p);
        let bodies = Model::Plummer.generate(n, 99);
        let world = World::new(&env, &bodies);
        let tree = SharedTree::new(&env, n, k, layout);
        std::thread::scope(|s| {
            for proc in 0..p {
                let (env, world, tree) = (&env, &world, &tree);
                s.spawn(move || {
                    let mut ctx = env.make_ctx(proc);
                    let cube = bounds_phase(env, &mut ctx, world, proc);
                    build(env, &mut ctx, tree, world, None, proc, cube);
                    env.barrier(&mut ctx);
                    com_pass(env, &mut ctx, tree, world, proc, 0);
                    env.barrier(&mut ctx);
                });
            }
        });
        (env, tree, world, bodies)
    }

    fn check(n: usize, p: usize, k: usize, layout: TreeLayout) {
        let (_env, tree, world, bodies) = run_build(n, p, k, layout);
        let summary = validate::validate(&tree, &world.positions(), &world.masses(), true)
            .unwrap_or_else(|e| panic!("invalid tree (n={n} p={p} k={k} {layout:?}): {e}"));
        assert_eq!(summary.bodies, n);
        let reference = SeqTree::build(&bodies, k);
        validate::matches_reference(&tree, &reference)
            .unwrap_or_else(|e| panic!("structure mismatch (n={n} p={p} k={k} {layout:?}): {e}"));
    }

    #[test]
    fn local_matches_reference_single_proc() {
        check(500, 1, 8, TreeLayout::PerProcessor);
    }

    #[test]
    fn local_matches_reference_parallel() {
        check(2000, 4, 8, TreeLayout::PerProcessor);
    }

    #[test]
    fn orig_matches_reference_parallel() {
        check(2000, 4, 8, TreeLayout::GlobalArena);
    }

    #[test]
    fn works_with_k1() {
        check(800, 4, 1, TreeLayout::PerProcessor);
    }

    #[test]
    fn works_with_many_procs() {
        check(3000, 8, 4, TreeLayout::GlobalArena);
    }

    #[test]
    fn tiny_inputs() {
        for n in [1usize, 2, 7] {
            check(n, 4, 2, TreeLayout::PerProcessor);
        }
    }

    #[test]
    fn repeated_builds_reuse_storage() {
        // Two consecutive builds (as in a multi-step run) must both validate.
        let p = 4;
        let n = 1500;
        let env = NativeEnv::new(p);
        let bodies = Model::TwoClusterCollision.generate(n, 5);
        let world = World::new(&env, &bodies);
        let tree = SharedTree::new(&env, n, 8, TreeLayout::PerProcessor);
        for step in 0..3u32 {
            std::thread::scope(|s| {
                for proc in 0..p {
                    let (env, world, tree) = (&env, &world, &tree);
                    s.spawn(move || {
                        let mut ctx = env.make_ctx(proc);
                        let cube = bounds_phase(env, &mut ctx, world, proc);
                        build(env, &mut ctx, tree, world, None, proc, cube);
                        env.barrier(&mut ctx);
                        com_pass(env, &mut ctx, tree, world, proc, step);
                        env.barrier(&mut ctx);
                    });
                }
            });
            validate::validate(&tree, &world.positions(), &world.masses(), true)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
}
