//! Randomized tests of the core data-structure invariants: for arbitrary
//! body sets, every parallel tree-building algorithm must produce exactly
//! the reference octree, costzones must produce a permutation with
//! contiguous balanced zones, and the geometric primitives must obey their
//! algebra.
//!
//! Cases are drawn from the workspace's own deterministic [`SmallRng`]
//! (the build is offline, so no property-testing crate): every failure is
//! reproducible from the printed case seed.

use bh_repro::bh_core::algorithms::{common, Algorithm, Builder};
use bh_repro::bh_core::body::Body;
use bh_repro::bh_core::harness::spmd;
use bh_repro::bh_core::math::{morton, Cube, Vec3};
use bh_repro::bh_core::partition::costzones;
use bh_repro::bh_core::prelude::*;
use bh_repro::bh_core::rng::SmallRng;
use bh_repro::bh_core::tree::validate;

/// Random body in a bounded box with positive mass.
fn arb_body(rng: &mut SmallRng) -> Body {
    Body::new(
        Vec3::new(
            rng.gen_range(-100.0, 100.0),
            rng.gen_range(-100.0, 100.0),
            rng.gen_range(-100.0, 100.0),
        ),
        Vec3::new(
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
        ),
        rng.gen_range(0.001, 10.0),
    )
}

fn arb_bodies(rng: &mut SmallRng, max: usize) -> Vec<Body> {
    let n = rng.gen_range_usize(1, max);
    (0..n).map(|_| arb_body(rng)).collect()
}

/// Build one tree with `alg` on `procs` native threads and return it with
/// the world.
fn build_tree(
    bodies: &[Body],
    alg: Algorithm,
    procs: usize,
    k: usize,
) -> (NativeEnv, SharedTree, World) {
    let env = NativeEnv::new(procs);
    let world = World::new(&env, bodies);
    let tree = SharedTree::new(&env, bodies.len(), k, alg.layout());
    let builder = Builder::new(&env, alg, bodies.len(), k);
    spmd(&env, |proc, ctx| {
        let cube = common::bounds_phase(&env, ctx, &world, proc);
        builder.build(&env, ctx, &tree, &world, proc, 0, cube);
        env.barrier(ctx);
        builder.com(&env, ctx, &tree, &world, proc, 0);
        env.barrier(ctx);
    });
    drop(builder);
    (env, tree, world)
}

#[test]
fn parallel_trees_match_sequential_reference() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x7261_6365 + case);
        let bodies = arb_bodies(&mut rng, 300);
        let k = rng.gen_range_usize(1, 9);
        let procs = rng.gen_range_usize(1, 7);
        let reference = SeqTree::build(&bodies, k);
        for alg in [
            Algorithm::Orig,
            Algorithm::Local,
            Algorithm::Partree,
            Algorithm::Space,
        ] {
            let (_env, tree, world) = build_tree(&bodies, alg, procs, k);
            validate::validate(&tree, &world.positions(), &world.masses(), true)
                .unwrap_or_else(|e| panic!("case {case} {alg}: {e}"));
            validate::matches_reference(&tree, &reference)
                .unwrap_or_else(|e| panic!("case {case} {alg}: {e}"));
        }
    }
}

#[test]
fn costzones_is_a_balanced_contiguous_permutation() {
    for case in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0x7a6f_6e65 + case);
        let bodies = arb_bodies(&mut rng, 400);
        let procs = rng.gen_range_usize(1, 9);
        let costs: Vec<u32> = (0..400)
            .map(|_| rng.gen_range_usize(1, 1000) as u32)
            .collect();
        let (env, tree, world) = build_tree(&bodies, Algorithm::Local, procs, 8);
        for i in 0..bodies.len() {
            world.cost.poke(i, costs[i % costs.len()]);
        }
        // Rebuild so the tree's subtree cost sums reflect the new costs
        // (costzones reads them to skip subtrees).
        let builder = Builder::new(&env, Algorithm::Local, bodies.len(), 8);
        spmd(&env, |proc, ctx| {
            let cube = common::bounds_phase(&env, ctx, &world, proc);
            builder.build(&env, ctx, &tree, &world, proc, 1, cube);
            env.barrier(ctx);
            builder.com(&env, ctx, &tree, &world, proc, 1);
            env.barrier(ctx);
            costzones(&env, ctx, &tree, &world, proc);
            env.barrier(ctx);
        });
        // Permutation.
        let mut seen = vec![false; bodies.len()];
        for i in 0..bodies.len() {
            let b = world.order.peek(i) as usize;
            assert!(!seen[b], "case {case}: duplicate body {b}");
            seen[b] = true;
        }
        // Contiguous monotone zones covering [0, n).
        assert_eq!(world.zone_start.peek(0), 0);
        assert_eq!(world.zone_start.peek(procs) as usize, bodies.len());
        let total: u64 = (0..bodies.len()).map(|i| world.cost.peek(i) as u64).sum();
        for q in 0..procs {
            let (s, e) = (
                world.zone_start.peek(q) as usize,
                world.zone_start.peek(q + 1) as usize,
            );
            assert!(s <= e);
            // Cost balance: a zone never exceeds its fair share by more than
            // the largest single body cost plus rounding.
            let zc: u64 = (s..e)
                .map(|i| world.cost.peek(world.order.peek(i) as usize) as u64)
                .sum();
            let fair = total / procs as u64;
            assert!(
                zc <= fair + 1001,
                "case {case}: zone {q} cost {zc} vs fair {fair}"
            );
        }
    }
}

#[test]
fn morton_keys_follow_octree_descent() {
    let mut rng = SmallRng::seed_from_u64(0x6d6f_7274);
    for case in 0..200 {
        let root = Cube::new(Vec3::ZERO, 1.0);
        let p = Vec3::new(
            rng.gen_range(-0.999, 0.999),
            rng.gen_range(-0.999, 0.999),
            rng.gen_range(-0.999, 0.999),
        );
        let depth = rng.gen_range_usize(1, 12) as u32;
        let key = morton::key_in_cube(p, &root);
        let mut cube = root;
        for oct in morton::octant_path(key, depth) {
            assert_eq!(oct, cube.octant_of(p), "case {case}");
            cube = cube.octant(oct);
            assert!(cube.contains(p), "case {case}");
        }
    }
}

#[test]
fn octants_partition() {
    let mut rng = SmallRng::seed_from_u64(0x6f63_7461);
    for case in 0..200 {
        let cx = rng.gen_range(-10.0, 10.0);
        let h = rng.gen_range(0.001, 100.0);
        let cube = Cube::new(Vec3::new(cx, -cx, cx * 0.5), h);
        let off = Vec3::new(
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
        );
        let p = cube.center + off * (h * 0.999);
        assert!(cube.contains(p), "case {case}");
        let containing: usize = (0..8).filter(|&o| cube.octant(o).contains(p)).count();
        assert_eq!(
            containing, 1,
            "case {case}: point must lie in exactly one octant"
        );
        assert!(cube.octant(cube.octant_of(p)).contains(p), "case {case}");
    }
}

#[test]
fn center_of_mass_is_inside_bounding_cube() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x636f_6d00 + case);
        let bodies = arb_bodies(&mut rng, 200);
        let tree = SeqTree::build(&bodies, 4);
        let com = match &tree.nodes[tree.root as usize] {
            bh_repro::bh_core::tree::SeqNode::Cell { com, .. } => *com,
            bh_repro::bh_core::tree::SeqNode::Leaf { com, .. } => *com,
        };
        assert!(tree.cube.contains(com) || bodies.len() == 1, "case {case}");
    }
}

#[test]
fn update_algorithm_stays_valid_under_motion() {
    for case in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0x7570_6400 + case);
        let bodies = arb_bodies(&mut rng, 200);
        let jitters: Vec<(f64, f64, f64)> = (0..3)
            .map(|_| {
                (
                    rng.gen_range(-0.5, 0.5),
                    rng.gen_range(-0.5, 0.5),
                    rng.gen_range(-0.5, 0.5),
                )
            })
            .collect();
        let procs = rng.gen_range_usize(1, 5);
        let env = NativeEnv::new(procs);
        let world = World::new(&env, &bodies);
        let tree = SharedTree::new(&env, bodies.len(), 8, Algorithm::Update.layout());
        let builder = Builder::new(&env, Algorithm::Update, bodies.len(), 8);
        for (step, j) in jitters.iter().enumerate() {
            spmd(&env, |proc, ctx| {
                let cube = common::bounds_phase(&env, ctx, &world, proc);
                builder.build(&env, ctx, &tree, &world, proc, step as u32, cube);
                env.barrier(ctx);
                builder.com(&env, ctx, &tree, &world, proc, step as u32);
                env.barrier(ctx);
            });
            let summary = validate::validate_with(
                &tree,
                &world.positions(),
                &world.masses(),
                bh_repro::bh_core::tree::validate::ValidateOpts {
                    check_summaries: true,
                    allow_empty_cells: step > 0,
                },
            )
            .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            assert_eq!(summary.bodies, bodies.len(), "case {case} step {step}");
            // Drift every body a little (scaled per body for variety).
            for i in 0..bodies.len() {
                let f = (i % 7) as f64 / 3.0;
                world
                    .pos
                    .poke(i, world.pos.peek(i) + Vec3::new(j.0, j.1, j.2) * f);
            }
        }
    }
}
