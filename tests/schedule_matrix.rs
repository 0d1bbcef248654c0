//! Schedule-space certification for all six tree-building algorithms.
//!
//! Each cell runs the full simulation (tree build → partition → force →
//! update, on a tiny body set) under [`bh_core::sched::VerifyEnv`] — the
//! race detector stacked on the controlled scheduler — and asserts the
//! exploration certifies clean: no deadlock, no barrier divergence, no data
//! race, no lock-order cycle, no validation failure. The round-robin matrix
//! (one schedule per algorithm and processor count, switching processors at
//! every sync point) and the two bounded-exhaustive passes (MORTON's
//! kernel, and SPACE's whole simulation on the smallest configuration) all
//! run pre-merge. Sampled schedules catch nothing these miss at a usable
//! rate (DESIGN.md section 4b's catch-rate table), so none run here.
//!
//! Workload note: scheduling serializes execution and every sync op is a
//! context switch, so the workload is deliberately tiny (n = 24, k = 2, one
//! warmup + one measured step). The schedule space, not the body count, is
//! what these tests cover.

use bh_core::prelude::*;

/// The pre-merge workload's configuration: k = 2, one warm-up and one
/// measured step, the default group size.
fn fast_cfg(alg: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::new(alg);
    cfg.k = 2;
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    cfg
}

/// Explore the whole simulation `cfg` describes, over `n` Plummer bodies
/// (seed 1998) on `procs` processors, under `plan`; a schedule fails on the
/// run's validation error.
fn explore_sim(cfg: SimConfig, n: usize, procs: usize, plan: &ExplorePlan) -> Exploration {
    let bodies = Model::Plummer.generate(n, 1998);
    explore(procs, plan, move |env: &VerifyEnv| {
        run_simulation(env, &cfg, &bodies).validation_error.clone()
    })
}

fn certify(alg: Algorithm, procs: usize, plan: &ExplorePlan) {
    let agg = explore_sim(fast_cfg(alg), 24, procs, plan);
    let mut report = String::new();
    for ce in &agg.counterexamples {
        report.push_str(&format!("{ce}"));
    }
    if !agg.lock_cycles.is_empty() {
        report.push_str(&format!("lock-order cycles: {:?}\n", agg.lock_cycles));
    }
    assert!(
        agg.certified(),
        "{alg:?} on {procs} procs under {}: {} defective schedule(s) of {}\n{report}",
        plan.name(),
        agg.defects,
        agg.schedules,
    );
}

/// Bounded-exhaustive exploration of a minimal sort-and-emit kernel: the
/// actual MORTON phases (cooperative radix sort → plan → count → fill →
/// spine) on a tiny body set at 2 processors, validated structurally after
/// every schedule. This certifies the barrier-separated ownership protocol
/// itself over every schedule within the bound, and is cheap enough to run
/// pre-merge.
#[test]
fn morton_sort_and_emit_kernel_bounded_exhaustive() {
    use bh_core::algorithms::morton;
    use bh_core::harness::spmd;
    use bh_core::math::{Aabb, Cube};
    use bh_core::tree::flat::FlatTree;
    use bh_core::tree::validate::validate_flat_morton;
    use bh_core::world::World;

    let agg = explore(
        2,
        &ExplorePlan::Exhaustive {
            preemption_bound: 1,
            max_schedules: 300,
        },
        |env| {
            let bodies = Model::Plummer.generate(6, 5);
            let world = World::new(env, &bodies);
            let scratch = morton::MortonScratch::new(env, bodies.len());
            let flat = FlatTree::new(env, bodies.len(), 1, Algorithm::Morton.layout());
            let cube = Cube::enclosing(&Aabb::from_points(bodies.iter().map(|b| b.pos)));
            spmd(env, |proc, ctx| {
                morton::sort_keys(env, ctx, &world, &scratch, &cube, proc);
                let plan = morton::plan(env, ctx, &scratch, world.n, 1, cube);
                let owned = morton::publish_counts(env, ctx, &scratch, &plan, 1, proc);
                env.barrier(ctx);
                morton::fill(env, ctx, &flat, &world, &scratch, &plan, &owned, 1);
                env.barrier(ctx);
                if proc == 0 {
                    morton::fill_spine(env, ctx, &flat, &scratch, &plan);
                }
                env.barrier(ctx);
            });
            let positions: Vec<_> = bodies.iter().map(|b| b.pos).collect();
            let masses: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
            validate_flat_morton(&flat, &positions, &masses, 1).err()
        },
    );
    let mut report = String::new();
    for ce in &agg.counterexamples {
        report.push_str(&format!("{ce}"));
    }
    assert!(
        agg.certified(),
        "morton kernel: {} defective of {} schedules\n{report}",
        agg.defects,
        agg.schedules
    );
    assert!(agg.schedules > 1, "explorer found no schedule branching");
}

/// The batched force kernel's knob edges under the controlled scheduler:
/// per-body lists (`group_size = 1`) and an odd size (`3`) whose windows
/// straddle the zone cut between the two processors, so both owners
/// traverse the same shared window while emitting into disjoint scratch
/// rows, plus `16`, the old default. The round-robin matrix below
/// already explores the default `group_size = 64`; these cells pin the
/// edges on one lock-based and one lock-free builder, at both processor
/// counts.
#[test]
fn grouped_force_kernel_certifies_across_group_sizes() {
    for gs in [1usize, 3, 16] {
        for alg in [Algorithm::Orig, Algorithm::Morton] {
            for procs in [2, 3] {
                let mut cfg = fast_cfg(alg);
                cfg.group_size = gs;
                let agg = explore_sim(cfg, 24, procs, &ExplorePlan::RoundRobin);
                assert!(
                    agg.certified(),
                    "{alg:?} group_size={gs} on {procs} procs: {} defective schedule(s) of {}",
                    agg.defects,
                    agg.schedules,
                );
            }
        }
    }
}

/// The single deterministic round-robin schedule for every algorithm at
/// both processor counts — the cheapest full-matrix sweep, and the one a
/// failure reproduces exactly.
#[test]
fn round_robin_matrix_is_clean() {
    for alg in Algorithm::ALL {
        for procs in [2, 3] {
            certify(alg, procs, &ExplorePlan::RoundRobin);
        }
    }
}

/// Known lock-order discipline: node cell locks may nest over the freelist
/// lock, never the reverse (`tests/mutants/update-freelist-before-cell.patch`
/// reverses it, and this test must fail on it). Only UPDATE's leaf-reuse path nests at all (the
/// other algorithms allocate via fetch-add and take cell locks one at a
/// time), and the free lists are only populated from the second step on —
/// so this runs UPDATE for two measured steps and requires both that
/// nesting was actually observed and that the union graph is acyclic.
#[test]
fn update_freelist_nesting_stays_acyclic() {
    let mut cfg = fast_cfg(Algorithm::Update);
    cfg.measured_steps = 2;
    let agg = explore_sim(cfg, 24, 2, &ExplorePlan::RoundRobin);
    assert!(
        agg.lock_cycles.is_empty(),
        "UPDATE lock-order cycles: {:?}",
        agg.lock_cycles
    );
    assert!(
        !agg.lock_edges.is_empty(),
        "UPDATE took no nested locks — the discipline check tested nothing"
    );
}

/// Bounded-exhaustive exploration (preemption bound 1) of SPACE's whole
/// simulation on the smallest interesting configuration. The DFS drains
/// its 408 schedules within the budget, so a clean result certifies the
/// whole bounded space. About 13 s in a debug build, 3 s in release.
#[test]
fn space_bounded_exhaustive_at_two_procs() {
    let mut cfg = fast_cfg(Algorithm::Space);
    cfg.k = 1;
    cfg.warmup_steps = 0;
    let agg = explore_sim(
        cfg,
        8,
        2,
        &ExplorePlan::Exhaustive {
            preemption_bound: 1,
            max_schedules: 500,
        },
    );
    let mut report = String::new();
    for ce in &agg.counterexamples {
        report.push_str(&format!("{ce}"));
    }
    assert!(
        agg.defects == 0 && agg.lock_cycles.is_empty(),
        "exhaustive SPACE: {} defective of {} schedules\n{report}",
        agg.defects,
        agg.schedules
    );
    assert!(
        agg.complete,
        "exhaustive SPACE: the bounded space did not drain within {} schedules",
        agg.schedules
    );
}
