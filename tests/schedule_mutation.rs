//! Bounded-exhaustive kernels for five ordering bugs the linked builders
//! have had or rest on. Each kernel drives the *real* builder code
//! (`insert_locked`, `update::move_body` for the third and the fifth,
//! `partree::build` for the fourth) with a two- or three-body geometry
//! built so the bug is reachable, and certifies clean over its whole bounded schedule space
//! (preemption bound 1, the DFS drained within 300 schedules). A clean
//! result is therefore a proof over that space, not a sample.
//!
//! * [`early_forwarding_kernel`]: subdivision must defer a private
//!   subtree's `body_leaf` stores until the subtree is complete. Stored
//!   mid-build, they leak pointers to leaves the builder is still writing:
//!   UPDATE's move phase follows `body_leaf` to the leaf's parent and reads
//!   the leaf record under the *sub-cell's* lock, which the builder does not
//!   hold, so a later grow of that leaf races with the mover's read. The
//!   full simulation shows this bug too: in the mutation lane,
//!   `race_freedom` on native timing fails 5 runs of 5 (UPDATE's
//!   `body_leaf` post-condition), and so do the round-robin matrix and
//!   plain `cross_algorithm` runs.
//! * [`republication_kernel`]: the deferred stores must also land *before*
//!   the subtree is published. Flushed after, another processor can
//!   already subdivide one of the new leaves under its own lock and
//!   forward a body further down; the late flush then overwrites that
//!   pointer with one naming a retired leaf. The stores are atomic, so no
//!   detector sees a race, and native timing hit the order in at most 1
//!   run of 5: the kernel's post-condition, `tree::validate::body_leaves`,
//!   is what fails, in every exploration.
//! * [`leaf_free_kernel`]: UPDATE must hold a leaf's parent lock from
//!   removing the leaf's last body through unlinking and freeing it.
//!   Released early, another processor can insert into the still-linked
//!   leaf just before it is freed.
//! * [`partree_attach_kernel`]: PARTREE's merge must hold a global cell's
//!   lock from finding a child slot empty through linking a local subtree
//!   there. Without it, two processors that both find the slot empty both
//!   link, and the first one's subtree is lost. Round-robin never opens
//!   that window, and sampled schedules of the full simulation open it in
//!   at most 7 % of seeds (DESIGN.md section 4b), so this kernel is what
//!   catches the bug.
//! * [`leaf_reuse_kernel`]: a cell lock is always taken before a free-list
//!   lock. Two movers free each other's arenas' leaves and reuse them
//!   under a shared parent; a mover that takes its free-list lock first
//!   deadlocks against the other, which holds the parent while it frees a
//!   leaf to that same stack. The kernel also makes a free and reuse of a
//!   mover's emptied leaf reachable while that mover still runs.
//!
//! The mutants that re-create these bugs are patch files under
//! `tests/mutants/`; `tests/mutants/run.sh` applies each to a copy of the
//! tree and requires the test it names here to fail.

use bh_core::algorithms::common::{create_root, insert_locked};
use bh_core::algorithms::partree;
use bh_core::algorithms::update::{self, UpdateScratch};
use bh_core::body::Body;
use bh_core::env::Env;
use bh_core::harness::spmd;
use bh_core::math::{Cube, Vec3};
use bh_core::sched::{explore, ExplorePlan, VerifyEnv};
use bh_core::tree::validate::{body_leaves, validate};
use bh_core::tree::{SharedTree, TreeLayout};
use bh_core::world::World;

/// Bounded-exhaustive exploration of `kernel` on two processors certifies
/// it, and the DFS drained its whole bounded space.
fn assert_certifies_completely(name: &str, kernel: fn(&VerifyEnv) -> Option<String>) {
    let agg = explore(
        2,
        &ExplorePlan::Exhaustive {
            preemption_bound: 1,
            max_schedules: 300,
        },
        kernel,
    );
    let report: String = agg.counterexamples.iter().map(|c| c.to_string()).collect();
    assert!(
        agg.certified(),
        "{name}: {} defective schedule(s) of {}\n{report}",
        agg.defects,
        agg.schedules
    );
    assert!(
        agg.complete,
        "{name}: the schedule space did not drain within budget ({} schedules)",
        agg.schedules
    );
}

/// Body index the cross-processor reader of [`early_forwarding_kernel`]
/// targets.
const B2: u32 = 1;

/// Three-body kernel with the geometry that makes the early-forwarding
/// leak reachable (root cube `[0,8]^3`, `k = 2`):
///
/// * `b1 = (1,1,1)` and `b2 = (1.2,1.2,1.2)` fill one leaf `L0`
///   covering `[0,4]^3` under the root;
/// * `b2` is repositioned to `(9,3,3)` — outside `L0`, so the reader
///   takes its locked slow path;
/// * inserting `x = (3,3,3)` overflows `L0` and subdivides: `b2`
///   (clamped) and `x` route to the *same* octant of the new sub-cell,
///   so the builder grows `b2`'s new leaf *after* an early
///   `body_leaf[b2]` store. A reader that joins at that store and then
///   loads the leaf record under the (free) sub-cell lock races with
///   the grow. With deferred forwarding, both orders are clean.
fn early_forwarding_kernel(env: &VerifyEnv) -> Option<String> {
    let bodies = [
        Body::new(Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(1.2, 1.2, 1.2), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(3.0, 3.0, 3.0), Vec3::ZERO, 1.0),
    ];
    let world = World::new(env, &bodies);
    let tree = SharedTree::new(env, bodies.len(), 2, TreeLayout::PerProcessor);
    let scratch = UpdateScratch::new(env, bodies.len(), 2);
    let upd = Some(&scratch);
    let root_cube = Cube::new(Vec3::new(4.0, 4.0, 4.0), 4.0);
    spmd(env, |proc, ctx| {
        // ---- Build: b1 and b2 fill one leaf under the root.
        if proc == 0 {
            let root = create_root(env, ctx, &tree, root_cube);
            for b in [0u32, 1] {
                insert_locked(env, ctx, &tree, &world, upd, 0, 0, b, root, root_cube);
            }
            // Move b2 outside its leaf for the next phase. Untimed: the
            // repositioning itself is not part of the checked execution.
            world.pos.poke(B2 as usize, Vec3::new(9.0, 3.0, 3.0));
        }
        env.barrier(ctx);

        // ---- The racing phase.
        if proc == 0 {
            // Builder: inserting x overflows the leaf and subdivides.
            let root = tree.root.load(env, ctx, 0);
            insert_locked(env, ctx, &tree, &world, upd, 0, 0, 2, root, root_cube);
        } else {
            // Reader: the move phase's access sequence for b2
            // (update::move_body's fast path + locked re-validation).
            let pos = world.pos.load(env, ctx, B2 as usize);
            let leaf0 = scratch.leaf_of(env, ctx, B2);
            let contained = leaf0.is_leaf() && {
                let cube = tree.load_leaf_relaxed(env, ctx, leaf0).cube();
                scratch.leaf_of(env, ctx, B2) == leaf0 && cube.contains(pos)
            };
            if !contained {
                loop {
                    let leaf = scratch.leaf_of(env, ctx, B2);
                    let seen = tree.load_leaf_relaxed(env, ctx, leaf);
                    if !seen.in_use || seen.parent.is_null() {
                        // The leaf is being retired mid-subdivision. The
                        // real mover spins until the builder republishes;
                        // here that spin would livelock bounded-exhaustive
                        // exploration (the explorer may never preempt a
                        // spinning proc), so the kernel reader gives up —
                        // the racy schedule this kernel exists for runs
                        // the builder to completion first and never takes
                        // this branch.
                        break;
                    }
                    let parent = seen.parent;
                    env.lock(ctx, parent.lock_id());
                    let seen = tree.load_leaf_relaxed(env, ctx, leaf);
                    if seen.in_use && seen.parent == parent && scratch.leaf_of(env, ctx, B2) == leaf
                    {
                        // The racy read: the builder may still be growing
                        // this leaf, and only the (deferred) forwarding
                        // store orders its writes before us.
                        let _l = tree.load_leaf(env, ctx, leaf);
                        env.unlock(ctx, parent.lock_id());
                        break;
                    }
                    env.unlock(ctx, parent.lock_id());
                }
            }
        }
        env.barrier(ctx);
    });
    None
}

/// Three-body kernel for the flush-before-publish order (root cube
/// `[0,8]^3`, `k = 1`), two nested subdivisions on two processors:
///
/// * `a = (0.5,0.5,0.5)` alone fills the leaf `L` covering `[0,4]^3`;
/// * P0 inserts `x = (3,3,3)`: `L` overflows and P0, holding the root's
///   lock, builds the sub-cell `S` over `[0,4]^3` with `a` and `x` in
///   leaves of their own (`La`, `Lx`) and publishes it;
/// * P1 inserts `y = (1.5,1.5,1.5)`, which shares `S`'s octant with `a`:
///   it descends lock-free into a published `S`, overflows `La` under
///   `S`'s lock and forwards `a` to a leaf one level further down.
///
/// Whichever order the two subdivisions take, every body's `body_leaf`
/// must name the live leaf that lists it afterwards.
fn republication_kernel(env: &VerifyEnv) -> Option<String> {
    let bodies = [
        Body::new(Vec3::new(0.5, 0.5, 0.5), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(3.0, 3.0, 3.0), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(1.5, 1.5, 1.5), Vec3::ZERO, 1.0),
    ];
    let world = World::new(env, &bodies);
    let tree = SharedTree::new(env, bodies.len(), 1, TreeLayout::PerProcessor);
    let scratch = UpdateScratch::new(env, bodies.len(), 1);
    let upd = Some(&scratch);
    let root_cube = Cube::new(Vec3::new(4.0, 4.0, 4.0), 4.0);
    spmd(env, |proc, ctx| {
        if proc == 0 {
            let root = create_root(env, ctx, &tree, root_cube);
            insert_locked(env, ctx, &tree, &world, upd, 0, 0, 0, root, root_cube);
        }
        env.barrier(ctx);
        let root = tree.root.load(env, ctx, 0);
        let body = [1u32, 2][proc];
        let arena = tree.arena_of(proc);
        insert_locked(
            env, ctx, &tree, &world, upd, arena, proc, body, root, root_cube,
        );
        env.barrier(ctx);
    });
    body_leaves(&tree, &scratch).err()
}

/// Three-body kernel for UPDATE's leaf reclamation (root cube `[0,8]^3`,
/// `k = 2`):
///
/// * `b = (1,1,1)` alone fills the leaf `L` over `[0,4]^3`, and
///   `d = (7,7,7)` sits in another root octant;
/// * P0 moves `b` to `(6,6,6)`: `update::move_body` removes it from `L`
///   under the root's lock, finds `L` empty, unlinks and frees it, and
///   reinserts `b` next to `d`;
/// * P1 inserts `c = (2,2,2)`, which belongs in `L`'s octant, from the
///   root with `insert_locked`.
///
/// The root's lock must cover the removal through the free: then P1 either
/// joins `L` before `b` leaves it (and `L` stays) or finds the slot empty
/// and gives `c` a leaf of its own. Every body's `body_leaf` must name the
/// live leaf that lists it afterwards.
fn leaf_free_kernel(env: &VerifyEnv) -> Option<String> {
    let bodies = [
        Body::new(Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(7.0, 7.0, 7.0), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(2.0, 2.0, 2.0), Vec3::ZERO, 1.0),
    ];
    let world = World::new(env, &bodies);
    let tree = SharedTree::new(env, bodies.len(), 2, TreeLayout::PerProcessor);
    let scratch = UpdateScratch::new(env, bodies.len(), 2);
    let upd = Some(&scratch);
    let root_cube = Cube::new(Vec3::new(4.0, 4.0, 4.0), 4.0);
    spmd(env, |proc, ctx| {
        if proc == 0 {
            let root = create_root(env, ctx, &tree, root_cube);
            for b in [0u32, 1] {
                insert_locked(env, ctx, &tree, &world, upd, 0, 0, b, root, root_cube);
            }
            // Untimed, like the integration step that moves a body.
            world.pos.poke(0, Vec3::new(6.0, 6.0, 6.0));
        }
        env.barrier(ctx);
        if proc == 0 {
            update::move_body(env, ctx, &tree, &world, &scratch, 0, 0);
        } else {
            let root = tree.root.load(env, ctx, 0);
            let arena = tree.arena_of(1);
            insert_locked(env, ctx, &tree, &world, upd, arena, 1, 2, root, root_cube);
        }
        env.barrier(ctx);
    });
    body_leaves(&tree, &scratch).err()
}

/// Two-body kernel for UPDATE's leaf reuse (root cube `[0,8]^3`, `k = 2`),
/// two movers that swap octants under the root:
///
/// * `a = (1,1,1)` sits alone in the leaf `La` over `[0,4]^3`, which P1
///   created in its own arena; `b = (7,7,7)` sits alone in `Lb` over
///   `[4,8]^3`, which P0 created in its;
/// * P0 moves `a` to `(7,7,7)` and P1 moves `b` to `(1,1,1)`, both with
///   `update::move_body`, each under the root's lock.
///
/// Whichever mover empties its leaf first frees it to the other's arena,
/// and the other mover's reinsertion into that octant, holding the root's
/// lock, pops that leaf from the arena's now non-empty free stack: a free
/// and reuse of a mover's leaf while the mover is still running. The root's
/// lock is always taken before a free-list lock (P1 frees `Lb` to P0's
/// stack holding it), so no schedule can deadlock. Every body's
/// `body_leaf` must name the live leaf that lists it afterwards, and every
/// free-stack entry must be a distinct free leaf.
fn leaf_reuse_kernel(env: &VerifyEnv) -> Option<String> {
    let bodies = [
        Body::new(Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(7.0, 7.0, 7.0), Vec3::ZERO, 1.0),
    ];
    let world = World::new(env, &bodies);
    let tree = SharedTree::new(env, bodies.len(), 2, TreeLayout::PerProcessor);
    let scratch = UpdateScratch::new(env, bodies.len(), 2);
    let upd = Some(&scratch);
    let root_cube = Cube::new(Vec3::new(4.0, 4.0, 4.0), 4.0);
    spmd(env, |proc, ctx| {
        // Each processor gives the other's body a leaf in its own arena.
        if proc == 0 {
            create_root(env, ctx, &tree, root_cube);
        }
        env.barrier(ctx);
        let root = tree.root.load(env, ctx, 0);
        let arena = tree.arena_of(proc);
        let body = [1u32, 0][proc];
        insert_locked(
            env, ctx, &tree, &world, upd, arena, proc, body, root, root_cube,
        );
        env.barrier(ctx);
        if proc == 0 {
            // Untimed, like the integration step that moves a body.
            world.pos.poke(0, Vec3::new(7.0, 7.0, 7.0));
            world.pos.poke(1, Vec3::new(1.0, 1.0, 1.0));
        }
        env.barrier(ctx);
        update::move_body(env, ctx, &tree, &world, &scratch, proc, proc as u32);
        env.barrier(ctx);
    });
    body_leaves(&tree, &scratch).err()
}

/// Two-body kernel for PARTREE's merge (root cube `[0,8]^3`, `k = 2`):
/// `a = (1,1,1)` and `b = (3,3,3)`, one per processor, share the root's
/// octant 0, so each processor's local tree holds one leaf there and both
/// merges attach into the same empty global slot. `partree::build` runs
/// unchanged on both processors.
///
/// The root's lock must cover the emptiness check through the link: then
/// the second merge finds the first one's leaf and combines with it.
/// Whichever order the merges take, the global tree must validate with
/// both bodies in it.
fn partree_attach_kernel(env: &VerifyEnv) -> Option<String> {
    let bodies = [
        Body::new(Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO, 1.0),
        Body::new(Vec3::new(3.0, 3.0, 3.0), Vec3::ZERO, 1.0),
    ];
    let world = World::new(env, &bodies);
    let tree = SharedTree::new(env, bodies.len(), 2, TreeLayout::PerProcessor);
    let root_cube = Cube::new(Vec3::new(4.0, 4.0, 4.0), 4.0);
    spmd(env, |proc, ctx| {
        partree::build(env, ctx, &tree, &world, proc, root_cube);
        env.barrier(ctx);
    });
    validate(&tree, &world.positions(), &world.masses(), false).err()
}

#[test]
fn early_forwarding_kernel_certifies_over_its_whole_bounded_space() {
    assert_certifies_completely("early-forwarding kernel", early_forwarding_kernel);
}

#[test]
fn republication_kernel_certifies_over_its_whole_bounded_space() {
    assert_certifies_completely("republication kernel", republication_kernel);
}

#[test]
fn leaf_free_kernel_certifies_over_its_whole_bounded_space() {
    assert_certifies_completely("leaf-free kernel", leaf_free_kernel);
}

#[test]
fn partree_attach_kernel_certifies_over_its_whole_bounded_space() {
    assert_certifies_completely("PARTREE attach kernel", partree_attach_kernel);
}

#[test]
fn leaf_reuse_kernel_certifies_over_its_whole_bounded_space() {
    assert_certifies_completely("leaf-reuse kernel", leaf_reuse_kernel);
}
