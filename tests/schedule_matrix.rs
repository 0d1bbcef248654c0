//! Schedule-space certification for all six tree-building algorithms.
//!
//! Each cell runs the full simulation (tree build → partition → force →
//! update, on a tiny body set) under [`bh_core::sched::VerifyEnv`] — the
//! race detector stacked on the controlled scheduler — across many
//! schedules, and asserts the exploration certifies clean: no deadlock, no
//! barrier divergence, no data race, no lock-order cycle, no validation
//! failure. The per-algorithm seeded tests together with the round-robin
//! matrix are the pre-merge gate (`check.sh verify`); the bounded-exhaustive
//! pass is `#[ignore]`d for nightly / manual runs.
//!
//! Workload note: scheduling serializes execution and every sync op is a
//! context switch, so the workload is deliberately tiny (n = 24, k = 2, one
//! warmup + one measured step). The schedule space, not the body count, is
//! what these tests cover.

use bh_core::prelude::*;
use bh_core::sched::explore_algorithm;

/// 25 seeded schedules per (algorithm, procs) cell; with six algorithms
/// at 2 and 3 processors this certifies 6 × 2 × 25 = 300 seeded schedules,
/// clearing the 200-schedule floor with the round-robin runs on top.
const SEEDS_PER_CELL: usize = 25;

fn certify(alg: Algorithm, procs: usize, plan: &ExplorePlan) {
    let spec = MatrixSpec::fast();
    let agg = explore_algorithm(alg, procs, plan, &spec);
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

fn certify_seeded(alg: Algorithm) {
    for procs in [2, 3] {
        certify(
            alg,
            procs,
            &ExplorePlan::Seeded {
                base: 1000 * procs as u64,
                count: SEEDS_PER_CELL,
            },
        );
    }
}

#[test]
fn orig_certifies_across_seeded_schedules() {
    certify_seeded(Algorithm::Orig);
}

#[test]
fn local_certifies_across_seeded_schedules() {
    certify_seeded(Algorithm::Local);
}

#[test]
fn update_certifies_across_seeded_schedules() {
    certify_seeded(Algorithm::Update);
}

#[test]
fn partree_certifies_across_seeded_schedules() {
    certify_seeded(Algorithm::Partree);
}

#[test]
fn space_certifies_across_seeded_schedules() {
    certify_seeded(Algorithm::Space);
}

#[test]
fn morton_certifies_across_seeded_schedules() {
    certify_seeded(Algorithm::Morton);
}

/// Bounded-exhaustive exploration of a minimal sort-and-emit kernel: the
/// actual MORTON phases (cooperative radix sort → plan → count → fill →
/// spine) on a tiny body set at 2 processors, validated structurally after
/// every schedule. This certifies the barrier-separated ownership protocol
/// itself — not just the schedules a seed happens to draw — within a
/// bounded budget, and is cheap enough to run pre-merge.
#[test]
fn morton_sort_and_emit_kernel_bounded_exhaustive() {
    use bh_core::algorithms::morton;
    use bh_core::harness::spmd;
    use bh_core::math::{Aabb, Cube};
    use bh_core::sched::{explore, SchedConfig};
    use bh_core::tree::flat::FlatTree;
    use bh_core::tree::validate::validate_flat_morton;
    use bh_core::world::World;

    let agg = explore(
        2,
        &ExplorePlan::Exhaustive {
            preemption_bound: 1,
            max_schedules: 300,
        },
        &SchedConfig::default(),
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
/// rows, plus `16`, the default before PR 25. The default matrix above
/// already explores the default `group_size = 64`; these cells pin the
/// edges on one lock-based and one lock-free builder.
#[test]
fn grouped_force_kernel_certifies_across_group_sizes() {
    for gs in [1usize, 3, 16] {
        let mut spec = MatrixSpec::fast();
        spec.group_size = gs;
        for alg in [Algorithm::Orig, Algorithm::Morton] {
            let agg = explore_algorithm(
                alg,
                2,
                &ExplorePlan::Seeded {
                    base: 500,
                    count: 8,
                },
                &spec,
            );
            assert!(
                agg.certified(),
                "{alg:?} group_size={gs}: {} defective schedule(s) of {}",
                agg.defects,
                agg.schedules,
            );
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
/// lock, never the reverse. Only UPDATE's leaf-reuse path nests at all (the
/// other algorithms allocate via fetch-add and take cell locks one at a
/// time), and the free lists are only populated from the second step on —
/// so this runs UPDATE for two measured steps and requires both that
/// nesting was actually observed and that the union graph is acyclic.
#[test]
fn update_freelist_nesting_stays_acyclic() {
    let mut spec = MatrixSpec::fast();
    spec.measured_steps = 2;
    let agg = explore_algorithm(
        Algorithm::Update,
        2,
        &ExplorePlan::Seeded { base: 77, count: 8 },
        &spec,
    );
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

/// Bounded-exhaustive exploration (preemption bound 1, sleep-set pruned) on
/// the smallest interesting configuration. Far too slow for pre-merge;
/// run with `cargo test --test schedule_matrix -- --ignored`.
#[test]
#[ignore = "bounded-exhaustive: minutes of runtime; nightly / manual only"]
fn space_bounded_exhaustive_at_two_procs() {
    let mut spec = MatrixSpec::fast();
    spec.n = 8;
    spec.k = 1;
    spec.warmup_steps = 0;
    spec.measured_steps = 1;
    let agg = explore_algorithm(
        Algorithm::Space,
        2,
        &ExplorePlan::Exhaustive {
            preemption_bound: 1,
            max_schedules: 400,
        },
        &spec,
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
}
