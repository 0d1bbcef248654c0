//! The PARTREE tree-building algorithm (paper §2.4).
//!
//! Each processor first builds a *local* tree over its own bodies with no
//! synchronization at all, then merges the local tree into the global tree.
//! The unit of merge work is a whole cell or subtree rather than a single
//! particle, so the number of global (locked) insert operations — and hence
//! the number of lock acquisitions — drops dramatically, at the cost of some
//! redundant work. Local trees are pre-sized to the global root cube so that
//! a cell in one tree represents exactly the same subspace as the
//! corresponding cell in any other.

use crate::algorithms::common::{create_root, insert_locked, insert_private, new_cell};
use crate::env::Env;
use crate::math::Cube;
use crate::tree::types::{NodeRef, SharedTree};
use crate::world::World;

/// Tree-build phase of PARTREE for one processor.
pub fn build<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    proc: usize,
    cube: Cube,
) {
    tree.reset_for_rebuild(env, ctx, proc);
    env.barrier(ctx);
    if proc == 0 {
        create_root(env, ctx, tree, cube);
    }
    env.barrier(ctx);

    // Phase 1: build the local tree (InsertParticlesInTree) — lock-free.
    let arena = tree.arena_of(proc);
    let local_root = new_cell(env, ctx, tree, arena, NodeRef::NULL, 0, cube);
    let (s, e) = world.zone(env, ctx, proc);
    for i in s..e {
        let b = world.order.load(env, ctx, i);
        insert_private(
            env, ctx, tree, world, None, arena, proc, b, local_root, cube, 0,
        );
    }

    // Phase 2: MergeLocalTrees — attach whole subtrees into the global tree.
    let global_root = tree.root.load(env, ctx, 0);
    merge_cell_into(
        env,
        ctx,
        tree,
        world,
        arena,
        proc,
        local_root,
        global_root,
        cube,
    );
    // The local root itself is now an unreachable husk; mark it dead.
    tree.update_cell(env, ctx, local_root, |c| c.in_use = false);
}

/// Merge every child of local cell `lcell` into global cell `gcell` (both
/// represent `cube`). `lcell` itself is discarded.
#[allow(clippy::too_many_arguments)]
fn merge_cell_into<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    arena: usize,
    proc: usize,
    lcell: NodeRef,
    gcell: NodeRef,
    cube: Cube,
) {
    for oct in 0..8 {
        let lchild = tree.child(env, ctx, lcell, oct);
        if !lchild.is_null() {
            attach(
                env,
                ctx,
                tree,
                world,
                arena,
                proc,
                gcell,
                oct,
                cube.octant(oct),
                lchild,
            );
        }
    }
}

/// Attach private node `lnode` (a subtree the caller exclusively owns) as
/// the `oct` child of global cell `gcell`, merging with whatever is already
/// there. `sub_cube` is the octant's cube.
#[allow(clippy::too_many_arguments)]
fn attach<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    arena: usize,
    proc: usize,
    gcell: NodeRef,
    oct: usize,
    sub_cube: Cube,
    lnode: NodeRef,
) {
    {
        // Every merge decision is made while holding the global cell's lock,
        // as in the original MergeLocalTrees: the merge still locks far less
        // than per-particle loading (one lock per merge site, not per body),
        // which is exactly the trade-off the paper describes.
        env.lock(ctx, gcell.lock_id());
        let gchild = tree.child(env, ctx, gcell, oct);
        if gchild.is_null() {
            // Link the whole local subtree in one shot.
            reparent(env, ctx, tree, lnode, gcell, oct);
            tree.set_child(env, ctx, gcell, oct, lnode);
            tree.pending_add(env, ctx, gcell, 1);
            env.unlock(ctx, gcell.lock_id());
            return;
        }
        if gchild.is_cell() {
            env.unlock(ctx, gcell.lock_id());
            if lnode.is_cell() {
                // Same subspace, both internal: merge recursively; the local
                // cell is discarded. (The global child cell can never be
                // un-linked, so recursing outside the lock is safe.)
                merge_cell_into(env, ctx, tree, world, arena, proc, lnode, gchild, sub_cube);
                tree.update_cell(env, ctx, lnode, |c| c.in_use = false);
            } else {
                // Local leaf under a global cell: fall back to per-body
                // locked inserts below the global cell.
                let l = tree.load_leaf(env, ctx, lnode);
                for &b in l.body_slice() {
                    insert_locked(
                        env, ctx, tree, world, None, arena, proc, b, gchild, sub_cube,
                    );
                }
                tree.retire_leaf(env, ctx, lnode);
            }
            return;
        }
        // Global child is a leaf: combine under the global cell's lock.
        let gleaf = gchild;
        if lnode.is_leaf() {
            let ll = tree.load_leaf(env, ctx, lnode);
            let gl = tree.load_leaf(env, ctx, gleaf);
            if (gl.n + ll.n) as usize <= tree.k {
                tree.update_leaf(env, ctx, gleaf, |g| {
                    for (i, &b) in ll.body_slice().iter().enumerate() {
                        g.bodies[g.n as usize + i] = b;
                    }
                    g.n += ll.n;
                });
                tree.retire_leaf(env, ctx, lnode);
            } else {
                // Overflow: subdivide privately, then publish.
                let sub = new_cell(env, ctx, tree, arena, gcell, oct, sub_cube);
                for &b in gl.body_slice().iter().chain(ll.body_slice()) {
                    insert_private(
                        env, ctx, tree, world, None, arena, proc, b, sub, sub_cube, 0,
                    );
                }
                tree.retire_leaf(env, ctx, gleaf);
                tree.retire_leaf(env, ctx, lnode);
                tree.set_child(env, ctx, gcell, oct, sub);
            }
            env.unlock(ctx, gcell.lock_id());
            return;
        }
        // Local node is a cell, global child a leaf: push the global leaf's
        // bodies down into the (still private) local subtree, then swap the
        // subtree into place.
        let gl = tree.load_leaf(env, ctx, gleaf);
        for &b in gl.body_slice() {
            insert_private(
                env, ctx, tree, world, None, arena, proc, b, lnode, sub_cube, 0,
            );
        }
        tree.retire_leaf(env, ctx, gleaf);
        reparent(env, ctx, tree, lnode, gcell, oct);
        tree.set_child(env, ctx, gcell, oct, lnode);
        env.unlock(ctx, gcell.lock_id());
    }
}

/// Point a private node's parent link at its new global parent.
fn reparent<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    node: NodeRef,
    parent: NodeRef,
    oct: usize,
) {
    if node.is_cell() {
        tree.update_cell(env, ctx, node, |c| {
            c.parent = parent;
            c.octant_in_parent = oct as u8;
        });
    } else {
        tree.update_leaf(env, ctx, node, |l| {
            l.parent = parent;
            l.octant_in_parent = oct as u8;
        });
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

    fn check(n: usize, p: usize, k: usize, model: Model) {
        let env = NativeEnv::new(p);
        let bodies = model.generate(n, 77);
        let world = World::new(&env, &bodies);
        let tree = SharedTree::new(&env, n, k, TreeLayout::PerProcessor);
        std::thread::scope(|s| {
            for proc in 0..p {
                let (env, world, tree) = (&env, &world, &tree);
                s.spawn(move || {
                    let mut ctx = env.make_ctx(proc);
                    let cube = bounds_phase(env, &mut ctx, world, proc);
                    build(env, &mut ctx, tree, world, proc, cube);
                    env.barrier(&mut ctx);
                    com_pass(env, &mut ctx, tree, world, proc, 0);
                    env.barrier(&mut ctx);
                });
            }
        });
        validate::validate(&tree, &world.positions(), &world.masses(), true)
            .unwrap_or_else(|e| panic!("invalid PARTREE tree (n={n} p={p} k={k}): {e}"));
        let reference = SeqTree::build(&bodies, k);
        validate::matches_reference(&tree, &reference)
            .unwrap_or_else(|e| panic!("PARTREE structure mismatch (n={n} p={p} k={k}): {e}"));
    }

    #[test]
    fn matches_reference_single_proc() {
        check(600, 1, 8, Model::Plummer);
    }

    #[test]
    fn matches_reference_parallel() {
        check(2000, 4, 8, Model::Plummer);
    }

    #[test]
    fn matches_reference_k1() {
        check(700, 4, 1, Model::Plummer);
    }

    #[test]
    fn matches_reference_k2_clusters() {
        check(1500, 8, 2, Model::TwoClusterCollision);
    }

    #[test]
    fn matches_reference_uniform() {
        check(2500, 6, 4, Model::UniformSphere);
    }

    #[test]
    fn tiny_inputs() {
        for n in [1usize, 3, 9] {
            check(n, 4, 2, Model::UniformSphere);
        }
    }

    #[test]
    fn merge_with_interleaved_assignment() {
        // Adversarial costzones: bodies assigned round-robin, so every
        // processor's local tree overlaps every other's everywhere and the
        // merge exercises all cases (cell-cell, leaf-leaf, leaf-cell,
        // cell-leaf, overflow subdivision).
        let n = 1200;
        let p = 4;
        let env = NativeEnv::new(p);
        let bodies = Model::Plummer.generate(n, 3);
        let world = World::new(&env, &bodies);
        // Round-robin order: proc q gets bodies with index % p == q.
        let mut idx = 0;
        for q in 0..p {
            world.zone_start.poke(q, idx);
            for b in (q..n).step_by(p) {
                world.order.poke(idx as usize, b as u32);
                idx += 1;
            }
        }
        world.zone_start.poke(p, n as u32);
        let tree = SharedTree::new(&env, n, 2, TreeLayout::PerProcessor);
        std::thread::scope(|s| {
            for proc in 0..p {
                let (env, world, tree) = (&env, &world, &tree);
                s.spawn(move || {
                    let mut ctx = env.make_ctx(proc);
                    let cube = bounds_phase(env, &mut ctx, world, proc);
                    build(env, &mut ctx, tree, world, proc, cube);
                    env.barrier(&mut ctx);
                    com_pass(env, &mut ctx, tree, world, proc, 0);
                    env.barrier(&mut ctx);
                });
            }
        });
        validate::validate(&tree, &world.positions(), &world.masses(), true).unwrap();
        let reference = SeqTree::build(&bodies, 2);
        validate::matches_reference(&tree, &reference).unwrap();
    }

    #[test]
    fn uses_fewer_locks_than_direct() {
        // The whole point of PARTREE: far fewer lock acquisitions than
        // loading bodies one by one into the shared tree. Measured after the
        // costzones partition has settled (the paper's warm-up protocol) —
        // only then do a processor's bodies cluster spatially and whole
        // subtrees merge in one lock.
        use crate::algorithms::Algorithm;
        use crate::app::{run_simulation, SimConfig};
        let n = 4000;
        let count_locks = |alg: Algorithm| -> u64 {
            let env = NativeEnv::new(4);
            let bodies = Model::Plummer.generate(n, 13);
            let mut cfg = SimConfig::new(alg);
            cfg.warmup_steps = 2;
            cfg.measured_steps = 1;
            let stats = run_simulation(&env, &cfg, &bodies);
            stats.assert_valid();
            stats.tree_locks_per_proc().iter().sum()
        };
        let direct = count_locks(Algorithm::Local);
        let partree = count_locks(Algorithm::Partree);
        assert!(
            partree * 3 < direct,
            "expected PARTREE ({partree} locks) to use far fewer locks than direct ({direct})"
        );
    }
}
