//! The UPDATE tree-building algorithm (paper §2.3).
//!
//! Particle distributions evolve slowly, so instead of rebuilding the tree
//! every time step the tree is updated incrementally: each processor checks
//! its bodies against the (rescaled) bounds of the leaf that held them last
//! step and moves only the bodies that crossed a boundary — walking up from
//! the old leaf until an enclosing cell is found, then reinserting downward
//! with locks. Empty leaves are reclaimed. The whole space grows or shrinks
//! each step, so all node bounds are first rescaled by the affine map from
//! the old root cube to the new one (the relative positions that cells
//! represent stay fixed, as the paper describes).
//!
//! Reclamation can leave *husk* cells (internal cells whose children were
//! all removed); they stay in the tree as valid empty cells, are recorded in
//! per-processor husk lists, and are completed explicitly during the CoM
//! pass so that upward propagation still terminates.

use crate::algorithms::common::{com_pass, insert_locked, propagate_com};
use crate::algorithms::direct;
use crate::env::{Env, Placement, Region};
use crate::math::{Cube, Vec3};
use crate::shared::{SharedAtomicVec, SharedVec};
use crate::tree::types::{NodeRef, SharedTree};
use crate::world::World;

/// Per-run scratch state of the UPDATE algorithm.
pub struct UpdateScratch {
    /// Per-processor lists of husk cells (encoded refs), tree allocator
    /// state like the leaf lists. Entries persist — a husk that regains
    /// children is simply skipped.
    pub husk_list: Vec<SharedVec<u32>>,
    pub husk_len: Vec<SharedAtomicVec>,
}

impl UpdateScratch {
    pub fn new<E: Env>(env: &E, n: usize) -> UpdateScratch {
        let p = env.num_procs();
        let cap = (n.max(64) * 2 / p.max(1) + 1024).min(1 << 24);
        UpdateScratch {
            husk_list: (0..p)
                .map(|q| SharedVec::new(env, cap, 0u32, Placement::Local(q), Region::TreeAlloc))
                .collect(),
            husk_len: (0..p)
                .map(|q| SharedAtomicVec::new(env, 1, 0, Placement::Local(q), Region::TreeAlloc))
                .collect(),
        }
    }
}

/// Tree-build phase of UPDATE for one processor. Step 0 performs a full
/// LOCAL-style build; later steps rescale and move.
#[allow(clippy::too_many_arguments)]
pub fn build<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    scratch: &UpdateScratch,
    proc: usize,
    step: u32,
    cube: Cube,
) {
    if step == 0 {
        if proc == 0 {
            scratch.husk_len.iter().for_each(|h| h.poke(0, 0));
        }
        direct::build(env, ctx, tree, world, proc, cube);
        return;
    }

    // ---- Choose the step's root cube. Recentering the root every step
    // would translate every node's bounds and turn stationary bodies into
    // artificial "movers", so keep the previous cube whenever it still
    // contains the new one and is not wastefully oversized (the relative
    // positions that cells represent then stay *exactly* the same and the
    // rescale pass degenerates to a no-op).
    let old = tree.root_cube.load(env, ctx, 0);
    let off = cube.center - old.center;
    // Smallest half-size of an old-centered cube covering the new one.
    let needed = off.x.abs().max(off.y.abs()).max(off.z.abs()) + cube.half;
    let cube = if needed <= old.half && old.half <= 2.5 * cube.half {
        old
    } else {
        // Grow (or shrink) about the *same* center with 10% slack, so the
        // expensive rescale-everything step happens once per many steps and
        // never translates the tree.
        Cube::new(old.center, needed * 1.10)
    };
    if cube == old {
        env.barrier(ctx);
        env.barrier(ctx);
        let (s, e) = world.zone(proc);
        for i in s..e {
            let b = world.order.load(env, ctx, i);
            move_body(env, ctx, tree, world, scratch, proc, b);
        }
        return;
    }

    // ---- Rescale every node of my arena by the old-root -> new-root map.
    let scale = cube.half / old.half;
    let remap = |c: Vec3| cube.center + (c - old.center) * scale;
    let arena = &tree.arenas[tree.arena_of(proc)];
    let ncells = arena.next_cell.load(env, ctx, 0) as usize;
    for i in 0..ncells {
        arena.cells.update(env, ctx, i, |c| {
            c.center = remap(c.center);
            c.half *= scale;
        });
        env.compute(ctx, 6);
    }
    let nleaves = arena.next_leaf.load(env, ctx, 0) as usize;
    let arena_id = tree.arena_of(proc);
    for i in 0..nleaves {
        let cube = arena.leaves.update(env, ctx, i, |l| {
            l.center = remap(l.center);
            l.half *= scale;
            l.cube()
        });
        tree.set_leaf_bounds(
            env,
            ctx,
            crate::tree::types::NodeRef::leaf(arena_id, i),
            cube,
        );
        env.compute(ctx, 6);
    }
    env.barrier(ctx);
    if proc == 0 {
        tree.root_cube.store(env, ctx, 0, cube);
    }
    env.barrier(ctx);

    // ---- Move bodies that crossed their leaf boundary.
    let (s, e) = world.zone(proc);
    for i in s..e {
        let b = world.order.load(env, ctx, i);
        move_body(env, ctx, tree, world, scratch, proc, b);
    }
}

/// Check one body against its leaf; relocate it if it moved out. Public
/// so a schedule-exploration kernel can drive it alone.
pub fn move_body<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    scratch: &UpdateScratch,
    proc: usize,
    body: u32,
) {
    let pos = world.pos.load(env, ctx, body as usize);
    // Lock-free containment check (the common case: the body did not cross
    // its leaf boundary). The bounds mirror of a leaf is only rewritten
    // after all of its bodies' `body_leaf` forwarding pointers have been
    // updated, so re-reading `body_leaf` after the bounds read detects any
    // concurrent retirement/reuse of the slot.
    let leaf0 = NodeRef(world.body_leaf.load(env, ctx, body as usize));
    if leaf0.is_leaf() {
        let cube = tree.leaf_bounds(env, ctx, leaf0);
        if NodeRef(world.body_leaf.load(env, ctx, body as usize)) == leaf0 && cube.contains(pos) {
            return;
        }
    }
    loop {
        let leaf = NodeRef(world.body_leaf.load(env, ctx, body as usize));
        debug_assert!(leaf.is_leaf(), "body {body} has no leaf");
        let parent = tree.leaf_parent(env, ctx, leaf);
        if parent.is_null() {
            // The leaf was retired under us (concurrent subdivision moved
            // the body); re-read the forwarding pointer.
            continue;
        }
        env.lock(ctx, parent.lock_id());
        // Re-verify the chain under the lock.
        if tree.leaf_parent(env, ctx, leaf) != parent
            || NodeRef(world.body_leaf.load(env, ctx, body as usize)) != leaf
        {
            env.unlock(ctx, parent.lock_id());
            continue;
        }
        let l = tree.load_leaf(env, ctx, leaf);
        debug_assert!(l.in_use);
        if l.cube().contains(pos) {
            env.unlock(ctx, parent.lock_id());
            return; // still home — the common case
        }
        // Remove the body from the leaf.
        tree.update_leaf(env, ctx, leaf, |out| {
            let slot = out
                .body_slice()
                .iter()
                .position(|&x| x == body)
                .expect("body missing from its leaf");
            out.bodies[slot] = out.bodies[out.n as usize - 1];
            out.n -= 1;
        });
        let now_empty = l.n == 1;
        if now_empty {
            // Reclaim the leaf and unlink it from its parent.
            let oct = l.octant_in_parent as usize;
            // Untimed: a check that only debug builds make must not charge
            // simulated cycles that release builds do not.
            debug_assert_eq!(tree.peek_child(parent, oct), leaf);
            tree.set_child(env, ctx, parent, oct, NodeRef::NULL);
            let before = tree.pending_sub(env, ctx, parent, 1);
            tree.free_leaf(env, ctx, leaf);
            if before == 1 {
                // Parent lost its last child: record it as a husk so the CoM
                // pass can still complete it.
                let listed = tree.update_cell(env, ctx, parent, |c| {
                    let was = c.husk_listed;
                    c.husk_listed = true;
                    was
                });
                if !listed {
                    let len = scratch.husk_len[proc].fetch_add(env, ctx, 0, 1) as usize;
                    assert!(len < scratch.husk_list[proc].len(), "husk list overflow");
                    scratch.husk_list[proc].store(env, ctx, len, parent.0);
                }
            }
        }
        env.unlock(ctx, parent.lock_id());

        // Walk up to the first ancestor whose (rescaled) cube contains the
        // body, then reinsert downward with locks.
        let mut cell = parent;
        loop {
            // Unordered read: another processor may concurrently set
            // `husk_listed` on this cell under its lock. The walk-up only
            // uses the geometric fields and the parent link, which are fixed
            // for the lifetime of the cell; `insert_locked` re-validates
            // under the proper locks before mutating anything.
            let c = tree.load_cell_relaxed(env, ctx, cell);
            if c.cube().contains(pos) {
                insert_locked(
                    env,
                    ctx,
                    tree,
                    world,
                    tree.arena_of(proc),
                    proc,
                    body,
                    cell,
                    c.cube(),
                );
                return;
            }
            if c.parent.is_null() {
                // Numerical edge: fall back to the root cube.
                let cube = tree.root_cube.load(env, ctx, 0);
                insert_locked(
                    env,
                    ctx,
                    tree,
                    world,
                    tree.arena_of(proc),
                    proc,
                    body,
                    cell,
                    cube,
                );
                return;
            }
            cell = c.parent;
            env.compute(ctx, 8);
        }
    }
}

/// Center-of-mass phase for UPDATE: the regular leaf-triggered pass plus the
/// explicit completion of childless husk cells.
pub fn com_phase<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    scratch: &UpdateScratch,
    proc: usize,
    step: u32,
) {
    // Husks first: their parents' pending counters include them, so they
    // must contribute a completion exactly once per step.
    let len = scratch.husk_len[proc].load(env, ctx, 0) as usize;
    for i in 0..len {
        let cell = NodeRef(scratch.husk_list[proc].load(env, ctx, i));
        let has_children = (0..8).any(|oct| !tree.child(env, ctx, cell, oct).is_null());
        if has_children {
            continue; // regained children; completes via the normal path
        }
        tree.update_cell(env, ctx, cell, |c| {
            c.mass = 0.0;
            c.com = Vec3::ZERO;
            c.cost = 0;
            c.count = 0;
        });
        let parent = tree.peek_cell(cell).parent;
        propagate_com(env, ctx, tree, parent, step);
    }
    com_pass(env, ctx, tree, world, proc, step);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::bounds_phase;
    use crate::env::NativeEnv;
    use crate::model::Model;
    use crate::rng::SmallRng;
    use crate::tree::validate::{body_leaves, validate_with, ValidateOpts};
    use crate::tree::{SharedTree, TreeLayout};
    use crate::world::World;

    /// Drive `steps` UPDATE tree builds, randomly perturbing positions
    /// between steps to force movement.
    fn run_steps(n: usize, p: usize, k: usize, steps: u32, drift: f64) {
        let env = NativeEnv::new(p);
        let bodies = Model::Plummer.generate(n, 31);
        let world = World::new(&env, &bodies);
        let tree = SharedTree::new(&env, n, k, TreeLayout::PerProcessor);
        let scratch = UpdateScratch::new(&env, n);
        let mut rng = SmallRng::seed_from_u64(4);
        for step in 0..steps {
            std::thread::scope(|s| {
                for proc in 0..p {
                    let (env, world, tree, scratch) = (&env, &world, &tree, &scratch);
                    s.spawn(move || {
                        let mut ctx = env.make_ctx(proc);
                        let cube = bounds_phase(env, &mut ctx, world, proc);
                        build(env, &mut ctx, tree, world, scratch, proc, step, cube);
                        env.barrier(&mut ctx);
                        com_phase(env, &mut ctx, tree, world, scratch, proc, step);
                        env.barrier(&mut ctx);
                    });
                }
            });
            let summary = validate_with(
                &tree,
                &world.positions(),
                &world.masses(),
                ValidateOpts {
                    check_summaries: true,
                    allow_empty_cells: step > 0,
                },
            )
            .unwrap_or_else(|e| panic!("step {step}: invalid UPDATE tree: {e}"));
            assert_eq!(summary.bodies, n, "step {step}");
            body_leaves(&tree, &world)
                .unwrap_or_else(|e| panic!("step {step}: lost forwarding pointer: {e}"));
            // Perturb for the next step.
            if drift > 0.0 {
                for i in 0..n {
                    let jitter = crate::math::Vec3::new(
                        rng.gen_range(-drift, drift),
                        rng.gen_range(-drift, drift),
                        rng.gen_range(-drift, drift),
                    );
                    world.pos.poke(i, world.pos.peek(i) + jitter);
                }
            }
        }
    }

    #[test]
    fn containment_fast_path_avoids_locks() {
        use crate::algorithms::common::bounds_phase;
        use crate::env::{Env as _, NativeEnv};
        use crate::model::Model;
        use crate::tree::{SharedTree, TreeLayout};
        use crate::world::World;
        // Build once, then run a no-motion incremental step: the containment
        // fast path must take zero locks.
        let env = NativeEnv::new(2);
        let n = 400;
        let bodies = Model::Plummer.generate(n, 99);
        let world = World::new(&env, &bodies);
        let tree = SharedTree::new(&env, n, 8, TreeLayout::PerProcessor);
        let scratch = UpdateScratch::new(&env, n);
        for step in 0..2u32 {
            let locks: u64 = std::thread::scope(|s| {
                (0..2)
                    .map(|proc| {
                        let (env, world, tree, scratch) = (&env, &world, &tree, &scratch);
                        s.spawn(move || {
                            let mut ctx = env.make_ctx(proc);
                            let before = env.stats(&ctx).lock_acquires;
                            let cube = bounds_phase(env, &mut ctx, world, proc);
                            build(env, &mut ctx, tree, world, scratch, proc, step, cube);
                            env.barrier(&mut ctx);
                            com_phase(env, &mut ctx, tree, world, scratch, proc, step);
                            env.barrier(&mut ctx);
                            env.stats(&ctx).lock_acquires - before
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum()
            });
            if step > 0 {
                assert_eq!(locks, 0, "no-motion incremental step took {locks} locks");
            }
        }
    }

    #[test]
    fn step_zero_is_full_build() {
        run_steps(800, 4, 8, 1, 0.0);
    }

    #[test]
    fn small_drift_multiple_steps() {
        run_steps(1000, 4, 8, 4, 0.01);
    }

    #[test]
    fn large_drift_forces_many_moves() {
        run_steps(600, 4, 4, 4, 0.3);
    }

    #[test]
    fn k1_update() {
        run_steps(400, 4, 1, 3, 0.05);
    }

    #[test]
    fn single_proc_update() {
        run_steps(500, 1, 8, 3, 0.1);
    }

    #[test]
    fn no_drift_means_no_structure_change() {
        // With zero drift, step 1 must not move anything: the tree still
        // matches the fresh reference build.
        let env = NativeEnv::new(4);
        let n = 900;
        let bodies = Model::Plummer.generate(n, 8);
        let world = World::new(&env, &bodies);
        let tree = SharedTree::new(&env, n, 8, TreeLayout::PerProcessor);
        let scratch = UpdateScratch::new(&env, n);
        for step in 0..2u32 {
            std::thread::scope(|s| {
                for proc in 0..4 {
                    let (env, world, tree, scratch) = (&env, &world, &tree, &scratch);
                    s.spawn(move || {
                        let mut ctx = env.make_ctx(proc);
                        let cube = bounds_phase(env, &mut ctx, world, proc);
                        build(env, &mut ctx, tree, world, scratch, proc, step, cube);
                        env.barrier(&mut ctx);
                        com_phase(env, &mut ctx, tree, world, scratch, proc, step);
                        env.barrier(&mut ctx);
                    });
                }
            });
        }
        let reference = crate::tree::SeqTree::build(&bodies, 8);
        crate::tree::validate::matches_reference(&tree, &reference).unwrap();
    }
}
