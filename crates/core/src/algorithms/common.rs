//! Machinery shared by the tree-building algorithms: the global bounds
//! reduction, root creation, locked and private (lock-free) body insertion,
//! and the parallel center-of-mass pass.

use crate::env::Env;
use crate::math::{Aabb, Cube, Vec3};
use crate::tree::types::{Leaf, NodeRef, SharedTree, MAX_DEPTH};
use crate::world::World;

/// Rough instruction cost (cycles) charged for routing one body one level
/// down the tree, beyond its memory accesses.
pub const DESCEND_CYCLES: u64 = 12;

/// Rough instruction cost of subdividing a leaf.
pub const SUBDIVIDE_CYCLES: u64 = 60;

/// Compute this processor's bounding box over its assigned bodies, publish
/// it, rendezvous, and return the global root cube (identical on every
/// processor). One barrier.
pub fn bounds_phase<E: Env>(env: &E, ctx: &mut E::Ctx, world: &World, proc: usize) -> Cube {
    let (s, e) = world.zone(proc);
    let mut bbox = Aabb::EMPTY;
    for i in s..e {
        let b = world.order.load(env, ctx, i) as usize;
        bbox.grow(world.pos.load(env, ctx, b));
    }
    world.proc_bbox.store(env, ctx, proc, bbox);
    env.barrier(ctx);
    let mut global = Aabb::EMPTY;
    for q in 0..env.num_procs() {
        global = global.merged(&world.proc_bbox.load(env, ctx, q));
    }
    if global.is_empty() {
        Cube::new(Vec3::ZERO, 1.0)
    } else {
        Cube::enclosing(&global)
    }
}

/// Processor 0 resets nothing here — callers reset arenas first — it
/// allocates the root cell for `cube` and publishes it. Must be followed by
/// a barrier before other processors start inserting.
pub fn create_root<E: Env>(env: &E, ctx: &mut E::Ctx, tree: &SharedTree, cube: Cube) -> NodeRef {
    let arena = tree.arena_of(0);
    let root = tree.alloc_cell(env, ctx, arena, 0);
    tree.update_cell(env, ctx, root, |c| {
        c.center = cube.center;
        c.half = cube.half;
        c.parent = NodeRef::NULL;
    });
    tree.root.store(env, ctx, 0, root);
    tree.root_cube.store(env, ctx, 0, cube);
    root
}

/// Insert `body` into the shared tree starting from `(cell, cube)`,
/// allocating from `arena` on behalf of processor `owner`. Cells are locked
/// only when actually modified, exactly as in the SPLASH codes: descent
/// through internal cells is lock-free, and a cell is locked to install a
/// leaf, grow a leaf, or subdivide it.
#[allow(clippy::too_many_arguments)]
pub fn insert_locked<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    arena: usize,
    owner: usize,
    body: u32,
    mut cell: NodeRef,
    mut cube: Cube,
) {
    let pos = world.pos.load(env, ctx, body as usize);
    let mut depth = 0;
    loop {
        assert!(
            depth < MAX_DEPTH,
            "tree depth limit exceeded: >k coincident bodies?"
        );
        env.compute(ctx, DESCEND_CYCLES);
        let oct = cube.octant_of(pos);
        // Optimistic lock-free descent through internal cells.
        let child = tree.child(env, ctx, cell, oct);
        if child.is_cell() {
            cell = child;
            cube = cube.octant(oct);
            depth += 1;
            continue;
        }
        // Empty slot or leaf: must lock the cell and re-examine.
        env.lock(ctx, cell.lock_id());
        let child = tree.child(env, ctx, cell, oct);
        if child.is_null() {
            let leaf = new_leaf(
                env,
                ctx,
                tree,
                arena,
                owner,
                cell,
                oct,
                cube.octant(oct),
                body,
            );
            tree.set_child(env, ctx, cell, oct, leaf);
            tree.pending_add(env, ctx, cell, 1);
            world.body_leaf.store(env, ctx, body as usize, leaf.0);
            env.unlock(ctx, cell.lock_id());
            return;
        }
        if child.is_cell() {
            // Another processor installed a cell while we were locking.
            env.unlock(ctx, cell.lock_id());
            cell = child;
            cube = cube.octant(oct);
            depth += 1;
            continue;
        }
        // Child is a leaf, guarded by the parent cell's lock.
        let leaf = child;
        let l = tree.load_leaf(env, ctx, leaf);
        if (l.n as usize) < tree.k {
            tree.update_leaf(env, ctx, leaf, |l| {
                l.bodies[l.n as usize] = body;
                l.n += 1;
            });
            world.body_leaf.store(env, ctx, body as usize, leaf.0);
            env.unlock(ctx, cell.lock_id());
            return;
        }
        // Full: subdivide. The replacement cell is built privately (it is
        // not yet visible to any other processor) and then published with a
        // single child-slot store, all while holding the parent's lock.
        // `body_leaf` forwarding pointers are flushed after the build (a
        // mid-build flush would show UPDATE's move phase a half-built leaf)
        // and before publication: once published, another processor can
        // subdivide one of the new leaves under its own lock and forward a
        // body further down, and a later flush would overwrite that pointer
        // with this stale one, naming a retired leaf.
        env.compute(ctx, SUBDIVIDE_CYCLES);
        let sub_cube = cube.octant(oct);
        let sub = new_cell(env, ctx, tree, arena, owner, cell, oct, sub_cube);
        let mut fwd = Vec::with_capacity(l.n as usize + 1);
        for &b in l.body_slice() {
            insert_private(
                env,
                ctx,
                tree,
                world,
                arena,
                owner,
                b,
                sub,
                sub_cube,
                depth + 1,
                &mut fwd,
            );
        }
        insert_private(
            env,
            ctx,
            tree,
            world,
            arena,
            owner,
            body,
            sub,
            sub_cube,
            depth + 1,
            &mut fwd,
        );
        flush_forwards(env, ctx, world, &mut fwd);
        retire_leaf(env, ctx, tree, leaf);
        tree.set_child(env, ctx, cell, oct, sub);
        env.unlock(ctx, cell.lock_id());
        return;
    }
}

/// Insert `body` into a subtree that is private to the calling processor
/// (unpublished, or wholly owned by partition) — no locking. Used by the
/// subdivision path above, by PARTREE's local-tree construction, and by
/// SPACE's subspace subtrees.
///
/// `body_leaf` forwarding updates are NOT stored here: they are pushed onto
/// `fwd` (last entry for a body wins) and must be flushed by the caller via
/// [`flush_forwards`] once the subtree is complete and before it is
/// published, for the reasons [`insert_locked`]'s subdivision gives.
#[allow(clippy::too_many_arguments)]
pub fn insert_private<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    arena: usize,
    owner: usize,
    body: u32,
    mut cell: NodeRef,
    mut cube: Cube,
    mut depth: usize,
    fwd: &mut Vec<(u32, NodeRef)>,
) {
    let pos = world.pos.load(env, ctx, body as usize);
    loop {
        assert!(
            depth < MAX_DEPTH,
            "tree depth limit exceeded: >k coincident bodies?"
        );
        env.compute(ctx, DESCEND_CYCLES);
        let oct = cube.octant_of(pos);
        let child = tree.child(env, ctx, cell, oct);
        if child.is_null() {
            let leaf = new_leaf(
                env,
                ctx,
                tree,
                arena,
                owner,
                cell,
                oct,
                cube.octant(oct),
                body,
            );
            tree.set_child(env, ctx, cell, oct, leaf);
            tree.pending_add(env, ctx, cell, 1);
            fwd.push((body, leaf));
            return;
        }
        if child.is_cell() {
            cell = child;
            cube = cube.octant(oct);
            depth += 1;
            continue;
        }
        let leaf = child;
        let l = tree.load_leaf(env, ctx, leaf);
        if (l.n as usize) < tree.k {
            tree.update_leaf(env, ctx, leaf, |l| {
                l.bodies[l.n as usize] = body;
                l.n += 1;
            });
            fwd.push((body, leaf));
            return;
        }
        env.compute(ctx, SUBDIVIDE_CYCLES);
        let sub_cube = cube.octant(oct);
        let sub = new_cell(env, ctx, tree, arena, owner, cell, oct, sub_cube);
        for &b in l.body_slice() {
            insert_private(
                env,
                ctx,
                tree,
                world,
                arena,
                owner,
                b,
                sub,
                sub_cube,
                depth + 1,
                fwd,
            );
        }
        retire_leaf(env, ctx, tree, leaf);
        tree.set_child(env, ctx, cell, oct, sub);
        // Continue inserting the triggering body below the new cell.
        cell = sub;
        cube = sub_cube;
        depth += 1;
    }
}

/// Allocate and initialize a new cell under `parent`.
#[allow(clippy::too_many_arguments)]
pub fn new_cell<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    arena: usize,
    owner: usize,
    parent: NodeRef,
    oct: usize,
    cube: Cube,
) -> NodeRef {
    let cell = tree.alloc_cell(env, ctx, arena, owner);
    tree.update_cell(env, ctx, cell, |c| {
        c.parent = parent;
        c.octant_in_parent = oct as u8;
        c.center = cube.center;
        c.half = cube.half;
    });
    cell
}

/// Allocate and initialize a new single-body leaf under `parent`.
#[allow(clippy::too_many_arguments)]
fn new_leaf<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    arena: usize,
    owner: usize,
    parent: NodeRef,
    oct: usize,
    cube: Cube,
    body: u32,
) -> NodeRef {
    let leaf = tree.alloc_leaf(env, ctx, arena, owner);
    tree.update_leaf(env, ctx, leaf, |l| {
        l.parent = parent;
        l.octant_in_parent = oct as u8;
        l.center = cube.center;
        l.half = cube.half;
        l.bodies[0] = body;
        l.n = 1;
    });
    tree.set_leaf_parent(env, ctx, leaf, parent);
    tree.set_leaf_bounds(env, ctx, leaf, cube);
    leaf
}

/// Flush deferred `body_leaf` forwarding updates collected by
/// [`insert_private`], in push order (so the last placement of a body —
/// after any intermediate private subdivisions — wins).
pub fn flush_forwards<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    world: &World,
    fwd: &mut Vec<(u32, NodeRef)>,
) {
    for (body, leaf) in fwd.drain(..) {
        world.body_leaf.store(env, ctx, body as usize, leaf.0);
    }
}

/// Mark a subdivided-away leaf dead (no recycling, no lock).
fn retire_leaf<E: Env>(env: &E, ctx: &mut E::Ctx, tree: &SharedTree, leaf: NodeRef) {
    tree.retire_leaf(env, ctx, leaf);
}

/// The parallel center-of-mass pass ("hackcofm"): each processor summarizes
/// the leaves it created, then propagates completion upward; the processor
/// that completes a cell's last child summarizes that cell and continues
/// toward the root. Runs between two barriers; uses the per-cell pending
/// counters, which it leaves restored to the cell's child count.
pub fn com_pass<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    proc: usize,
    step: u32,
) {
    let len = tree.leaf_list_len[proc].load(env, ctx, 0) as usize;
    for i in 0..len {
        let leaf = NodeRef(tree.leaf_lists[proc].load(env, ctx, i));
        // Unordered read: a stale list entry may point at a leaf another
        // processor re-listed and is concurrently summarizing (UPDATE). The
        // guard below rejects exactly those entries; for entries that pass,
        // this processor is the unique summarizer, so the record is stable.
        let l = tree.load_leaf_relaxed(env, ctx, leaf);
        if !l.in_use || l.listed_by != proc as u8 || l.com_stamp == step {
            continue;
        }
        summarize_leaf(env, ctx, tree, world, leaf, &l, step);
        propagate_com(env, ctx, tree, l.parent, step);
    }
}

/// Summarize one leaf from its bodies.
pub fn summarize_leaf<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    leaf: NodeRef,
    l: &Leaf,
    step: u32,
) {
    let mut mass = 0.0;
    let mut weighted = Vec3::ZERO;
    let mut cost = 0u64;
    for &b in l.body_slice() {
        let b = b as usize;
        let m = world.mass.load(env, ctx, b);
        mass += m;
        weighted += world.pos.load(env, ctx, b) * m;
        cost += world.cost.load(env, ctx, b) as u64;
    }
    env.compute(ctx, 8 * l.n as u64);
    tree.update_leaf(env, ctx, leaf, |out| {
        out.mass = mass;
        out.com = if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        };
        out.cost = cost;
        out.com_stamp = step;
    });
}

/// Propagate CoM completion upward from a completed child of `cell`.
pub fn propagate_com<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    mut cell: NodeRef,
    step: u32,
) {
    while !cell.is_null() {
        if tree.pending_sub(env, ctx, cell, 1) != 1 {
            // Other children still incomplete; their finisher will continue.
            return;
        }
        let parent = summarize_cell(env, ctx, tree, cell, step);
        cell = parent;
    }
}

/// Summarize a cell whose children are all complete; restores its pending
/// counter to the child count and returns its parent.
pub fn summarize_cell<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    cell: NodeRef,
    _step: u32,
) -> NodeRef {
    let mut mass = 0.0;
    let mut weighted = Vec3::ZERO;
    let mut cost = 0u64;
    let mut count = 0u32;
    let mut nchild = 0u32;
    for ch in tree.children(env, ctx, cell) {
        if ch.is_null() {
            continue;
        }
        nchild += 1;
        let (m, com, c, n) = if ch.is_cell() {
            let cc = tree.load_cell(env, ctx, ch);
            (cc.mass, cc.com, cc.cost, cc.count)
        } else {
            let ll = tree.load_leaf(env, ctx, ch);
            (ll.mass, ll.com, ll.cost, ll.n)
        };
        mass += m;
        weighted += com * m;
        cost += c;
        count += n;
    }
    env.compute(ctx, 40);
    let parent = tree.update_cell(env, ctx, cell, |c| {
        c.mass = mass;
        c.com = if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        };
        c.cost = cost;
        c.count = count;
        c.parent
    });
    tree.pending_store(env, ctx, cell, nchild);
    parent
}
