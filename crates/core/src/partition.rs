//! Costzones partitioning (Singh et al.).
//!
//! After the tree is built and summarized, the bodies are re-assigned to
//! processors for the force and update phases: the tree is traversed in a
//! canonical order, accumulating per-body cost (last step's interaction
//! counts); the resulting linear cost profile is cut into `P` equal zones
//! and each processor takes the bodies of its zone. Because subtree costs
//! are stored in every cell, each processor can skip whole subtrees outside
//! its zone, so the parallel version needs no synchronization at all —
//! every processor deterministically walks the same tree.

use crate::env::Env;
use crate::math::{morton, Aabb, Cube};
use crate::tree::types::{NodeRef, SharedTree};
use crate::world::World;

/// Periodic Morton (Z-order) reordering of a processor's zone.
///
/// Between costzones passes bodies drift, so a zone's `world.order` slice
/// slowly loses the spatial coherence the tree-build phase relies on:
/// consecutive bodies inserted into the tree (or routed by SPACE) stop
/// touching nearby nodes. Re-sorting the slice by Morton key restores that
/// locality. Each processor sorts only its own slice against a cube
/// enclosing the slice's bodies — zone membership is unchanged, nothing
/// crosses processors, and no barrier is needed (the phase's existing
/// barriers order the writes). Ties break on body id, so the pass is fully
/// deterministic.
pub fn morton_reorder<E: Env>(env: &E, ctx: &mut E::Ctx, world: &World, proc: usize) {
    let (s, e) = world.zone(env, ctx, proc);
    if e - s < 2 {
        return;
    }
    let mut bbox = Aabb::EMPTY;
    let mut pts: Vec<(u32, crate::math::Vec3)> = Vec::with_capacity(e - s);
    for i in s..e {
        let b = world.order.load(env, ctx, i);
        let p = world.pos.load(env, ctx, b as usize);
        bbox.grow(p);
        pts.push((b, p));
    }
    let cube = Cube::enclosing(&bbox);
    let mut items: Vec<(u64, u32)> = pts
        .iter()
        .map(|&(b, p)| (morton::key_in_cube(p, &cube), b))
        .collect();
    items.sort_unstable();
    for (off, &(_, b)) in items.iter().enumerate() {
        world.order.store(env, ctx, s + off, b);
    }
    // Key generation plus comparison sort: ~O(z log z) simulated work.
    let z = (e - s) as u64;
    env.compute(ctx, z * (24 + 4 * (64 - z.leading_zeros() as u64)));
}

/// Walk state for one processor's costzones pass.
struct Zoner<'w> {
    world: &'w World,
    proc: u64,
    nproc: u64,
    total: u64,
    cost_prefix: u64,
    body_prefix: u32,
    start_written: bool,
    done: bool,
}

/// Execute the costzones pass for `proc`: writes this processor's slice of
/// `world.order` and its `zone_start` entry. Caller barriers afterwards.
pub fn costzones<E: Env>(env: &E, ctx: &mut E::Ctx, tree: &SharedTree, world: &World, proc: usize) {
    let nproc = env.num_procs() as u64;
    let root = tree.root.load(env, ctx, 0);
    let total = tree.load_cell(env, ctx, root).cost.max(1);
    let mut z = Zoner {
        world,
        proc: proc as u64,
        nproc,
        total,
        cost_prefix: 0,
        body_prefix: 0,
        start_written: false,
        done: false,
    };
    walk(env, ctx, tree, &mut z, root);
    if !z.start_written {
        world.zone_start.store(env, ctx, proc, world.n as u32);
    }
    if proc == 0 {
        world
            .zone_start
            .store(env, ctx, nproc as usize, world.n as u32);
    }
}

/// Zone of a cost prefix: `floor(prefix * P / total)`, clamped.
#[inline]
fn zone_of(prefix: u64, nproc: u64, total: u64) -> u64 {
    ((prefix as u128 * nproc as u128) / total as u128).min(nproc as u128 - 1) as u64
}

fn walk<E: Env>(env: &E, ctx: &mut E::Ctx, tree: &SharedTree, z: &mut Zoner, cell: NodeRef) {
    for ch in tree.children(env, ctx, cell) {
        if z.done {
            return;
        }
        if ch.is_null() {
            continue;
        }
        env.compute(ctx, 6);
        if ch.is_cell() {
            let c = tree.load_cell(env, ctx, ch);
            let end = z.cost_prefix + c.cost;
            // Entire subtree before my zone: skip it wholesale.
            if end * z.nproc <= z.proc * z.total {
                z.cost_prefix = end;
                z.body_prefix += c.count;
                continue;
            }
            // Entire subtree after my zone: record start if needed, stop.
            if z.cost_prefix * z.nproc >= (z.proc + 1) * z.total && z.start_written {
                z.done = true;
                return;
            }
            walk(env, ctx, tree, z, ch);
        } else {
            let l = tree.load_leaf(env, ctx, ch);
            for &b in l.body_slice() {
                let q = zone_of(z.cost_prefix, z.nproc, z.total);
                if q >= z.proc && !z.start_written {
                    z.world
                        .zone_start
                        .store(env, ctx, z.proc as usize, z.body_prefix);
                    z.start_written = true;
                }
                if q == z.proc {
                    z.world.order.store(env, ctx, z.body_prefix as usize, b);
                } else if q > z.proc {
                    z.done = true;
                    return;
                }
                z.cost_prefix += z.world.cost.load(env, ctx, b as usize).max(1) as u64;
                z.body_prefix += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::{bounds_phase, com_pass};
    use crate::algorithms::direct;
    use crate::env::NativeEnv;
    use crate::model::Model;
    use crate::tree::{SharedTree, TreeLayout};
    use crate::world::World;

    fn build_and_zone(
        n: usize,
        p: usize,
        costs: Option<Box<dyn Fn(usize) -> u32 + Sync>>,
    ) -> (NativeEnv, World) {
        let env = NativeEnv::new(p);
        let bodies = Model::Plummer.generate(n, 23);
        let world = World::new(&env, &bodies);
        if let Some(f) = &costs {
            for i in 0..n {
                world.cost.poke(i, f(i));
            }
        }
        let tree = SharedTree::new(&env, n, 8, TreeLayout::PerProcessor);
        std::thread::scope(|s| {
            for proc in 0..p {
                let (env, world, tree) = (&env, &world, &tree);
                s.spawn(move || {
                    let mut ctx = env.make_ctx(proc);
                    let cube = bounds_phase(env, &mut ctx, world, proc);
                    direct::build(env, &mut ctx, tree, world, None, proc, cube);
                    env.barrier(&mut ctx);
                    com_pass(env, &mut ctx, tree, world, proc, 0);
                    env.barrier(&mut ctx);
                    costzones(env, &mut ctx, tree, world, proc);
                    env.barrier(&mut ctx);
                });
            }
        });
        (env, world)
    }

    fn assert_partition_valid(world: &World, n: usize, p: usize) {
        // Zones are contiguous, cover [0, n), and `order` is a permutation.
        assert_eq!(world.zone_start.peek(0), 0);
        assert_eq!(world.zone_start.peek(p), n as u32);
        for q in 0..p {
            assert!(
                world.zone_start.peek(q) <= world.zone_start.peek(q + 1),
                "zone {q} not monotone"
            );
        }
        let mut seen = vec![false; n];
        for i in 0..n {
            let b = world.order.peek(i) as usize;
            assert!(!seen[b], "body {b} assigned twice");
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_costs_give_even_zones() {
        let n = 2048;
        let p = 4;
        let (_env, world) = build_and_zone(n, p, None);
        assert_partition_valid(&world, n, p);
        for q in 0..p {
            let (s, e) = (world.zone_start.peek(q), world.zone_start.peek(q + 1));
            let (s, e) = (s as usize, e as usize);
            let share = e - s;
            assert!(
                (share as i64 - (n / p) as i64).unsigned_abs() <= 16,
                "zone {q} holds {share} of {n}"
            );
        }
    }

    #[test]
    fn skewed_costs_shift_zone_boundaries() {
        let n = 1000;
        let p = 2;
        // First half of the bodies are 9x as expensive.
        let (_env, world) = build_and_zone(n, p, Some(Box::new(|i| if i < 500 { 9 } else { 1 })));
        assert_partition_valid(&world, n, p);
        // Cost-balance: each zone's total cost within 25% of half.
        let total: u64 = (0..n).map(|i| world.cost.peek(i) as u64).sum();
        for q in 0..p {
            let (s, e) = (world.zone_start.peek(q), world.zone_start.peek(q + 1));
            let (s, e) = (s as usize, e as usize);
            let zc: u64 = (s..e)
                .map(|i| world.cost.peek(world.order.peek(i) as usize) as u64)
                .sum();
            let half = total / 2;
            assert!(
                zc > half / 2 && zc < half * 2,
                "zone {q} cost {zc} vs target {half}"
            );
        }
    }

    #[test]
    fn single_processor_gets_everything() {
        let n = 300;
        let (_env, world) = build_and_zone(n, 1, None);
        assert_partition_valid(&world, n, 1);
        assert_eq!(world.zone_start.peek(1), n as u32);
    }

    #[test]
    fn more_procs_than_bodies() {
        let n = 3;
        let p = 8;
        let (_env, world) = build_and_zone(n, p, None);
        assert_partition_valid(&world, n, p);
    }
}
