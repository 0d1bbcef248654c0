//! The SPACE tree-building algorithm — the paper's new contribution (§2.5).
//!
//! Instead of inserting the bodies a processor owns for force calculation,
//! the *space* itself is re-partitioned for tree building: the domain is
//! recursively subdivided (counting bodies per octant each round) until every
//! subspace holds at most `threshold` bodies; the resulting subspaces are
//! assigned to processors; and each processor builds complete subtrees for
//! its subspaces, attaching them to the (partially constructed) upper tree
//! without any locking — two bodies assigned to different processors can
//! never meet in the same cell. The cost is extra communication and some
//! load imbalance (a processor's tree-build bodies are not its
//! force-calculation bodies), which the paper shows is a spectacular bargain
//! on SVM platforms.

use crate::algorithms::common::{create_root, insert_private, new_cell};
use crate::env::{Env, Placement, Region};
use crate::math::{Cube, Vec3};
use crate::shared::{SharedAtomicVec, SharedVec};
use crate::tree::plan::lpt_owners;
use crate::tree::types::{NodeRef, SharedTree};
use crate::world::World;

/// Maximum number of final subspaces the SPACE partitioner may produce.
const SUBSPACE_CAP: usize = 8192;

/// Maximum frontier cells per SPACE refinement round.
const FRONTIER_CAP: usize = 8192;

/// Marker bit in SPACE routing entries: the remaining bits are a final
/// subspace id.
const SUBSPACE_BIT: u32 = 1 << 31;

/// Routing marker: octant contained no bodies.
const DEAD: u32 = u32::MAX;

/// A final subspace produced by the SPACE partitioner: the position in the
/// (partially built) global tree where the owning processor will attach the
/// subtree it builds.
#[derive(Debug, Clone, Copy, Default)]
struct Subspace {
    /// Parent cell in the upper tree.
    parent: NodeRef,
    /// Octant of `parent` this subspace fills.
    oct: u8,
    /// Number of bodies in the subspace.
    count: u32,
    /// Total force-computation cost (last step's interaction counts) of the
    /// subspace's bodies. Drives the cost-weighted assignment.
    cost: u64,
    /// Cube of space represented.
    center: Vec3,
    half: f64,
}

impl Subspace {
    fn cube(&self) -> Cube {
        Cube::new(self.center, self.half)
    }
}

/// Shared partitioner state of the SPACE builder, allocated once per run
/// (untimed setup). Every round stores each slot before it loads it, except
/// round 0's routing-slot load, whose value is discarded; so no reset is
/// needed between steps or jobs.
pub struct SpaceScratch {
    /// Refinement frontier: encoded cell refs, double-buffered by round
    /// parity (round `r` reads `[r % 2]` and publishes the next frontier
    /// into `[1 - r % 2]`, so writers never collide with readers). Frontier
    /// geometry, routing, and lengths are processor-private: they are
    /// deterministic functions of the reduced totals, recomputed identically
    /// everywhere; only the cell refs need shared publication.
    frontier: [SharedVec<u32>; 2],
    /// Per-processor body-count rows, one locally-placed array per
    /// processor, indexed by `slot*8 + oct`. Each row is accumulated
    /// privately and published with plain stores once per round, then read
    /// by the cooperative reduction after a barrier.
    counts: Vec<SharedAtomicVec>,
    /// Per-processor cost rows, parallel to `counts`: the summed last-step
    /// interaction cost of this processor's bodies per octant.
    costs: Vec<SharedAtomicVec<u64>>,
    /// Reduced per-octant body counts (all processors' rows summed). Each
    /// processor reduces a contiguous chunk of the key space every round,
    /// so processor 0's routing pass reads `flen*8` totals instead of
    /// `flen*8*P` remote rows.
    total_counts: SharedVec<u32>,
    /// Reduced per-octant costs, parallel to `total_counts`.
    total_costs: SharedVec<u64>,
    /// Final subspaces, published round-robin by subspace id.
    subspaces: SharedVec<Subspace>,
    /// Per-processor routing state for the bodies of its zone (indexed by
    /// position within the zone): the pending route key, or
    /// `SUBSPACE_BIT | id` once settled. Local placement — routing state is
    /// private to the body's current owner.
    body_slot: Vec<SharedVec<u32>>,
    /// Per-processor bucket storage: bodies grouped by subspace.
    bucket: Vec<SharedVec<u32>>,
    /// Per-processor bucket offsets (length SUBSPACE_CAP+1 each).
    bucket_off: Vec<SharedVec<u32>>,
}

impl SpaceScratch {
    /// Allocate the partitioner state for `n` bodies (untimed setup).
    pub fn new<E: Env>(env: &E, n: usize) -> SpaceScratch {
        let p = env.num_procs();
        let (g, r) = (Placement::Global, Region::PartitionScratch);
        let local = Placement::Local;
        let keys = FRONTIER_CAP * 8;
        SpaceScratch {
            frontier: [
                SharedVec::new(env, FRONTIER_CAP, 0, g, r),
                SharedVec::new(env, FRONTIER_CAP, 0, g, r),
            ],
            counts: (0..p)
                .map(|q| SharedAtomicVec::new(env, keys, 0, local(q), r))
                .collect(),
            costs: (0..p)
                .map(|q| SharedAtomicVec::new(env, keys, 0, local(q), r))
                .collect(),
            total_counts: SharedVec::new(env, keys, 0, g, r),
            total_costs: SharedVec::new(env, keys, 0, g, r),
            subspaces: SharedVec::new(env, SUBSPACE_CAP, Subspace::default(), g, r),
            body_slot: (0..p)
                .map(|q| SharedVec::new(env, n, 0, local(q), r))
                .collect(),
            bucket: (0..p)
                .map(|q| SharedVec::new(env, n, 0, local(q), r))
                .collect(),
            bucket_off: (0..p)
                .map(|q| SharedVec::new(env, SUBSPACE_CAP + 1, 0, local(q), r))
                .collect(),
        }
    }
}

/// Default subdivision threshold: aim for a few dozen subspaces per
/// processor so the greedy assignment balances well, but never below the
/// leaf threshold (a subspace smaller than a leaf is pointless).
pub fn default_threshold(n: usize, p: usize, k: usize) -> usize {
    (n / (16 * p).max(1)).max(4 * k).max(1)
}

/// Default cost-rebalance factor (see [`build`]'s `rebalance` parameter).
pub const DEFAULT_REBALANCE: f64 = 0.25;

/// Tree-build phase of SPACE for one processor.
///
/// `rebalance` is the cost-rebalance factor: a would-be-final subspace
/// whose summed body cost exceeds `rebalance * total_cost / P` (and which
/// still holds more than `k` bodies, so the reference structure is
/// preserved) is refined one extra round instead, splitting the hot spot so
/// the greedy assignment can spread it. `0.0` disables the refinement.
#[allow(clippy::too_many_arguments)]
pub fn build<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    world: &World,
    sp: &SpaceScratch,
    proc: usize,
    cube: Cube,
    threshold: usize,
    rebalance: f64,
) {
    let p = env.num_procs();
    tree.reset_for_rebuild(env, ctx, proc);
    env.barrier(ctx);
    if proc == 0 {
        let root = create_root(env, ctx, tree, cube);
        sp.frontier[0].store(env, ctx, 0, root.0);
    }
    env.barrier(ctx);

    // ---- Phase 1: iterative spatial refinement ("the partitioning tree").
    let (s, e) = world.zone(env, ctx, proc);
    // Body costs are per-step constants; read each once (round 0) and keep
    // them in processor-private scratch for the later rounds.
    let mut zone_cost: Vec<u32> = vec![0; e - s];
    // Frontier geometry, routing, and the subspace count are identical on
    // every processor and fully determined by the shared reduced totals, so
    // they live in processor-private memory: cubes derive from the root by
    // pure octant subdivision, and each processor recomputes the same
    // routing decisions. Only the frontier cell refs (allocated by whichever
    // processor materializes each cell) need shared publication.
    let mut frontier_cubes: Vec<Cube> = vec![cube];
    let mut frontier_deep: Vec<bool> = vec![false];
    let mut route: Vec<u32> = Vec::new();
    let mut nsub = 0u32;
    let mut round = 0u32;
    // Cost ceiling for the rebalance refinement, set from the round-0
    // reduction (the root octant costs sum to the total).
    let mut cost_limit = u64::MAX;
    loop {
        let flen = frontier_cubes.len();
        let keys = flen * 8;
        // Settle previously routed bodies and count the unsettled ones.
        // Counts and costs accumulate in processor-private scratch (an
        // atomic RMW per body per round is the expensive pattern the paper's
        // platforms punish hardest); the whole row is published with plain
        // stores once per round, ordered by the barrier below.
        let mut cnt = vec![0u32; keys];
        let mut cst = vec![0u64; keys];
        for i in s..e {
            let b = world.order.load(env, ctx, i) as usize;
            if round == 0 {
                zone_cost[i - s] = world.cost.load(env, ctx, b);
            }
            let key = sp.body_slot[proc].load(env, ctx, i - s);
            // Settled markers from a previous *step* are stale: only honor
            // them after round 0 has re-keyed every body.
            if round > 0 && key & SUBSPACE_BIT != 0 {
                continue; // already settled in a final subspace
            }
            let slot = if round == 0 {
                0
            } else {
                let routed = route[key as usize];
                debug_assert_ne!(routed, DEAD, "body routed into an empty octant");
                if routed & SUBSPACE_BIT != 0 {
                    sp.body_slot[proc].store(env, ctx, i - s, routed);
                    continue;
                }
                routed as usize
            };
            let oct = frontier_cubes[slot].octant_of(world.pos.load(env, ctx, b));
            let key = slot * 8 + oct;
            cnt[key] += 1;
            cst[key] += zone_cost[i - s].max(1) as u64;
            sp.body_slot[proc].store(env, ctx, i - s, key as u32);
            env.compute(ctx, 10);
        }
        if flen == 0 {
            break;
        }
        // Publish this processor's rows for the reduction.
        for key in 0..keys {
            sp.counts[proc].store(env, ctx, key, cnt[key]);
            sp.costs[proc].store(env, ctx, key, cst[key]);
        }
        env.barrier(ctx);
        // Cooperative reduction: each processor sums all rows for a
        // contiguous chunk of the key space into the shared totals.
        for key in keys * proc / p..keys * (proc + 1) / p {
            let mut total = 0u32;
            let mut cost = 0u64;
            for q in 0..p {
                total += sp.counts[q].load(env, ctx, key);
                cost += sp.costs[q].load(env, ctx, key);
            }
            sp.total_counts.store(env, ctx, key, total);
            sp.total_costs.store(env, ctx, key, cost);
            env.compute(ctx, 4);
        }
        env.barrier(ctx);
        if round == 0 && rebalance > 0.0 {
            // The root's octant costs sum to the whole step's cost; every
            // processor derives the same ceiling from the shared totals.
            let total_cost: u64 = (0..keys)
                .map(|key| sp.total_costs.load(env, ctx, key))
                .sum();
            cost_limit = (rebalance * total_cost as f64 / p as f64).max(1.0) as u64;
        }
        let (nc, nd) = subdivide_round(
            env,
            ctx,
            tree,
            sp,
            proc,
            (round % 2) as usize,
            &frontier_cubes,
            &frontier_deep,
            threshold,
            cost_limit,
            &mut route,
            &mut nsub,
        );
        frontier_cubes = nc;
        frontier_deep = nd;
        env.barrier(ctx);
        round += 1;
    }
    // ---- Phase 2: cost-weighted subspace assignment (computed identically
    // everywhere, from the private subspace count).
    let nsub = nsub as usize;
    let costs: Vec<u64> = (0..nsub)
        .map(|id| sp.subspaces.load(env, ctx, id).cost)
        .collect();
    // Greedy longest-processing-time on last step's interaction costs (the
    // same signal costzones balances on), as the top-of-tree plan assigns
    // its frontier.
    let owner = lpt_owners(env, ctx, &costs);

    // ---- Phase 3: bucket my bodies by final subspace.
    let mut hist = vec![0u32; nsub + 1];
    for i in s..e {
        let key = sp.body_slot[proc].load(env, ctx, i - s);
        debug_assert_ne!(key & SUBSPACE_BIT, 0, "body not settled after refinement");
        hist[(key & !SUBSPACE_BIT) as usize] += 1;
        env.compute(ctx, 4);
    }
    let mut offsets = vec![0u32; nsub + 1];
    let mut acc = 0u32;
    for id in 0..nsub {
        offsets[id] = acc;
        acc += hist[id];
    }
    offsets[nsub] = acc;
    for (id, &off) in offsets.iter().enumerate() {
        sp.bucket_off[proc].store(env, ctx, id, off);
    }
    let mut cursor = offsets.clone();
    for i in s..e {
        let b = world.order.load(env, ctx, i);
        let key = sp.body_slot[proc].load(env, ctx, i - s);
        let id = (key & !SUBSPACE_BIT) as usize;
        sp.bucket[proc].store(env, ctx, cursor[id] as usize, b);
        cursor[id] += 1;
    }
    env.barrier(ctx);

    // ---- Phase 4: build one subtree per owned subspace, attach lock-free.
    let arena = tree.arena_of(proc);
    #[allow(clippy::needless_range_loop)] // `id` also indexes shared arrays
    for id in 0..nsub {
        if owner[id] != proc as u8 {
            continue;
        }
        let sub = sp.subspaces.load(env, ctx, id);
        let sub_cube = sub.cube();
        // Gather the subspace's bodies from every processor's bucket — this
        // is where SPACE pays in communication and locality.
        let mut members = Vec::with_capacity(sub.count as usize);
        for q in 0..p {
            let lo = sp.bucket_off[q].load(env, ctx, id) as usize;
            let hi = sp.bucket_off[q].load(env, ctx, id + 1) as usize;
            for j in lo..hi {
                members.push(sp.bucket[q].load(env, ctx, j));
            }
        }
        debug_assert_eq!(members.len(), sub.count as usize);
        if members.is_empty() {
            continue;
        }
        let node = if members.len() <= tree.k {
            // Small subspace: a single leaf.
            let leaf = tree.alloc_leaf(env, ctx, arena, proc, None);
            tree.update_leaf(env, ctx, leaf, |l| {
                l.parent = sub.parent;
                l.octant_in_parent = sub.oct;
                l.center = sub_cube.center;
                l.half = sub_cube.half;
                l.n = members.len() as u32;
                for (i, &b) in members.iter().enumerate() {
                    l.bodies[i] = b;
                }
            });
            leaf
        } else {
            let oct = sub.oct as usize;
            let cell = new_cell(env, ctx, tree, arena, sub.parent, oct, sub_cube);
            for &b in &members {
                insert_private(
                    env, ctx, tree, world, None, arena, proc, b, cell, sub_cube, 0,
                );
            }
            cell
        };
        // Attach: no lock needed — exactly one processor writes this slot.
        tree.set_child(env, ctx, sub.parent, sub.oct as usize, node);
        tree.pending_add(env, ctx, sub.parent, 1);
    }
}

/// One subdivision round, executed by every processor. Routing is a pure
/// function of the reduced totals, so each processor recomputes the full
/// routing table privately (there is no shared routing state at all); the
/// shared work — creating upper-tree cells for octants that keep refining
/// (over the count threshold, or over the cost ceiling for the rebalance
/// refinement) and publishing final subspaces — is partitioned round-robin
/// by index, turning the old serial processor-0 bottleneck P-way parallel.
#[allow(clippy::too_many_arguments)]
fn subdivide_round<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    sp: &SpaceScratch,
    proc: usize,
    parity: usize,
    cubes: &[Cube],
    deep: &[bool],
    threshold: usize,
    cost_limit: u64,
    route: &mut Vec<u32>,
    nsub: &mut u32,
) -> (Vec<Cube>, Vec<bool>) {
    let p = env.num_procs();
    let arena = tree.arena_of(proc);
    let flen = cubes.len();
    route.clear();
    route.resize(flen * 8, DEAD);
    let mut new_cubes: Vec<Cube> = Vec::new();
    let mut new_deep: Vec<bool> = Vec::new();
    // Refined octants this processor materializes: (key, next-round slot).
    let mut mine: Vec<(u32, u32)> = Vec::new();
    for slot in 0..flen {
        for oct in 0..8 {
            let key = slot * 8 + oct;
            let total = sp.total_counts.load(env, ctx, key);
            let cost = sp.total_costs.load(env, ctx, key);
            // A cube with more than `k` bodies is a cell in the reference
            // tree, so refining it only moves the cell's construction into
            // the upper tree — the final structure is unchanged. The `deep`
            // flag bounds the cost refinement to one round past where the
            // count threshold would have stopped.
            let refine_cost = !deep[slot] && total as usize > tree.k && cost > cost_limit;
            route[key] = if total == 0 {
                DEAD
            } else if total as usize > threshold || refine_cost {
                let new_slot = new_cubes.len() as u32;
                assert!(
                    (new_slot as usize) < FRONTIER_CAP,
                    "SPACE frontier overflow; raise the threshold"
                );
                if new_slot as usize % p == proc {
                    mine.push((key as u32, new_slot));
                }
                new_cubes.push(cubes[slot].octant(oct));
                new_deep.push(refine_cost);
                new_slot
            } else {
                let id = *nsub;
                *nsub += 1;
                assert!(
                    (id as usize) < SUBSPACE_CAP,
                    "SPACE subspace overflow; raise the threshold"
                );
                if id as usize % p == proc {
                    let parent = NodeRef(sp.frontier[parity].load(env, ctx, slot));
                    let oc = cubes[slot].octant(oct);
                    sp.subspaces.store(
                        env,
                        ctx,
                        id as usize,
                        Subspace {
                            parent,
                            oct: oct as u8,
                            count: total,
                            cost,
                            center: oc.center,
                            half: oc.half,
                        },
                    );
                }
                SUBSPACE_BIT | id
            };
            env.compute(ctx, 4);
        }
    }
    for &(key, new_slot) in &mine {
        let (slot, oct) = (key as usize / 8, key as usize % 8);
        let parent = NodeRef(sp.frontier[parity].load(env, ctx, slot));
        let cube = new_cubes[new_slot as usize];
        let child = new_cell(env, ctx, tree, arena, parent, oct, cube);
        tree.set_child(env, ctx, parent, oct, child);
        tree.pending_add(env, ctx, parent, 1);
        sp.frontier[1 - parity].store(env, ctx, new_slot as usize, child.0);
    }
    (new_cubes, new_deep)
}

#[cfg(test)]
impl SpaceScratch {
    /// Overwrite every slot with garbage (NaN geometry, `u32::MAX` refs and
    /// counts), so a test can show a build reads nothing here it did not
    /// write.
    pub(crate) fn poison(&self) {
        let nan = Vec3::splat(f64::NAN);
        self.subspaces.fill(Subspace {
            parent: NodeRef(u32::MAX),
            oct: u8::MAX,
            count: u32::MAX,
            cost: u64::MAX,
            center: nan,
            half: f64::NAN,
        });
        let rows = [&self.body_slot, &self.bucket, &self.bucket_off];
        let words = rows.into_iter().flatten().chain(&self.frontier);
        words
            .chain([&self.total_counts])
            .for_each(|v| v.fill(u32::MAX));
        self.counts.iter().for_each(|v| v.fill(u32::MAX));
        self.total_costs.fill(u64::MAX);
        self.costs.iter().for_each(|v| v.fill(u64::MAX));
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

    fn run(
        n: usize,
        p: usize,
        k: usize,
        model: Model,
        threshold: usize,
        rebalance: f64,
        costs: Option<Box<dyn Fn(usize) -> u32 + Sync>>,
    ) -> (SharedTree, World, SpaceScratch, Vec<crate::body::Body>, u64) {
        let env = NativeEnv::new(p);
        let bodies = model.generate(n, 55);
        let world = World::new(&env, &bodies);
        // Every build starts over garbage: a slot the build loads before it
        // stores would show as an invalid tree.
        let scratch = SpaceScratch::new(&env, n);
        scratch.poison();
        if let Some(f) = &costs {
            for i in 0..n {
                world.cost.poke(i, f(i));
            }
        }
        let tree = SharedTree::new(&env, n, k, TreeLayout::PerProcessor);
        let mut locks = 0;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|proc| {
                    let (env, world, tree, sp) = (&env, &world, &tree, &scratch);
                    s.spawn(move || {
                        let mut ctx = env.make_ctx(proc);
                        let cube = bounds_phase(env, &mut ctx, world, proc);
                        build(
                            env, &mut ctx, tree, world, sp, proc, cube, threshold, rebalance,
                        );
                        env.barrier(&mut ctx);
                        com_pass(env, &mut ctx, tree, world, proc, 0);
                        env.barrier(&mut ctx);
                        env.stats(&ctx).lock_acquires
                    })
                })
                .collect();
            for h in handles {
                locks += h.join().unwrap();
            }
        });
        (tree, world, scratch, bodies, locks)
    }

    fn check_with(
        n: usize,
        p: usize,
        k: usize,
        model: Model,
        threshold: usize,
        rebalance: f64,
        costs: Option<Box<dyn Fn(usize) -> u32 + Sync>>,
    ) -> u64 {
        let (tree, world, _, bodies, locks) = run(n, p, k, model, threshold, rebalance, costs);
        validate::validate(&tree, &world.positions(), &world.masses(), true).unwrap_or_else(|e| {
            panic!("invalid SPACE tree (n={n} p={p} k={k} t={threshold}): {e}")
        });
        let reference = SeqTree::build(&bodies, k);
        validate::matches_reference(&tree, &reference).unwrap_or_else(|e| {
            panic!("SPACE structure mismatch (n={n} p={p} k={k} t={threshold}): {e}")
        });
        locks
    }

    fn check(n: usize, p: usize, k: usize, model: Model, threshold: usize) -> u64 {
        check_with(n, p, k, model, threshold, DEFAULT_REBALANCE, None)
    }

    #[test]
    fn matches_reference_single_proc() {
        check(600, 1, 8, Model::Plummer, 64);
    }

    #[test]
    fn matches_reference_parallel() {
        for threshold in [default_threshold(3000, 4, 8), 256, 100_000] {
            check(3000, 4, 8, Model::Plummer, threshold);
        }
    }

    #[test]
    fn matches_reference_k1() {
        check(800, 4, 1, Model::Plummer, 32);
    }

    #[test]
    fn matches_reference_clusters() {
        check(
            2000,
            8,
            4,
            Model::TwoClusterCollision,
            default_threshold(2000, 8, 4),
        );
    }

    #[test]
    fn threshold_larger_than_n() {
        // Everything fits in the root's eight octants.
        check(50, 4, 4, Model::UniformSphere, 1000);
    }

    #[test]
    fn tiny_inputs() {
        for n in [1usize, 2, 9] {
            check(n, 4, 2, Model::UniformSphere, 8);
        }
    }

    #[test]
    fn tree_build_is_lock_free() {
        // The defining property: zero lock acquisitions in the build phase
        // (the whole point of the algorithm on SVM platforms).
        let locks = check(2000, 4, 8, Model::Plummer, default_threshold(2000, 4, 8));
        assert_eq!(locks, 0, "SPACE must not lock; saw {locks} acquisitions");
    }

    #[test]
    fn rebalance_disabled_matches_reference() {
        check_with(
            2000,
            4,
            8,
            Model::Plummer,
            default_threshold(2000, 4, 8),
            0.0,
            None,
        );
    }

    #[test]
    fn aggressive_rebalance_preserves_structure() {
        // Heavily skewed costs plus a tiny cost ceiling force the extra
        // refinement round on many subspaces; the final tree must still be
        // the reference structure (refinement only fires on cubes holding
        // more than k bodies, which are cells in the reference tree anyway).
        for rb in [0.01, 0.1, 1.0] {
            check_with(
                2000,
                4,
                8,
                Model::TwoClusterCollision,
                default_threshold(2000, 4, 8),
                rb,
                Some(Box::new(|i| if i < 200 { 1000 } else { 1 })),
            );
        }
    }

    #[test]
    fn rebalance_splits_hot_subspaces() {
        // With skewed costs and a tight ceiling, the costliest subspace
        // after refinement must be smaller than the ceiling-free costliest.
        let n = 2000;
        let p = 4;
        let t = default_threshold(n, p, 8);
        let costs = || -> Option<Box<dyn Fn(usize) -> u32 + Sync>> {
            Some(Box::new(|i| if i < 200 { 1000 } else { 1 }))
        };
        let max_cost = |rebalance| {
            let (_, _, sp, _, _) = run(n, p, 8, Model::Plummer, t, rebalance, costs());
            published(&sp).iter().map(|sub| sub.cost).max().unwrap()
        };
        let (without, with) = (max_cost(0.0), max_cost(0.05));
        assert!(
            with < without,
            "rebalance did not split the hot subspace: {with} vs {without}"
        );
    }

    /// The subspaces one build over a poisoned scratch published (ids are
    /// dense from 0; an unpublished slot keeps its `u32::MAX` count).
    fn published(sp: &SpaceScratch) -> Vec<Subspace> {
        (0..SUBSPACE_CAP)
            .map(|id| sp.subspaces.peek(id))
            .take_while(|sub| sub.count != u32::MAX)
            .collect()
    }

    #[test]
    fn refines_past_the_root_over_a_poisoned_scratch() {
        let (tree, world, sp, _, _) = run(64, 4, 4, Model::Plummer, 4, DEFAULT_REBALANCE, None);
        validate::validate(&tree, &world.positions(), &world.masses(), true).unwrap();
        assert!(published(&sp).len() > 8, "SPACE refined only its root");
    }

    #[test]
    fn default_threshold_sane() {
        assert!(default_threshold(0, 16, 8) >= 1);
        assert!(default_threshold(1 << 20, 16, 8) > 1000);
        assert!(default_threshold(100, 1, 1) >= 4);
    }
}
