//! The force kernel over the flat tree snapshot, anchored to the
//! independent sequential implementation (`SeqTree` + `seq_accel` +
//! `seq_run`).
//!
//! For a given body set and leaf threshold the octree is unique, so every
//! builder's snapshot holds the same cells as the sequential tree and the
//! kernel's group classification is conservative (the mixed band is
//! resolved per member with the exact criterion): every body's interaction
//! *multiset* — hence the interaction total — equals the sequential
//! walk's exactly, for every algorithm, group size and processor count.
//! The summation order may differ (list grouping at `group_size > 1`, leaf
//! body order of the lock-based builders at P > 1), so velocities agree
//! to ≤1e-12 relative.
//! MORTON at `group_size = 1` on one processor replays the sequential
//! walk's floating-point operation sequence and is the bitwise anchor; it
//! is also bitwise independent of the processor count.

use bh_repro::bh_core::algorithms::common::bounds_phase;
use bh_repro::bh_core::algorithms::Builder;
use bh_repro::bh_core::body::total_energy;
use bh_repro::bh_core::force::{
    direct_accel, force_phase_grouped, group_window, seq_accel, zone_group_windows, ForceScratch,
    EVAL_LANES,
};
use bh_repro::bh_core::partition::costzones;
use bh_repro::bh_core::prelude::*;
use bh_repro::bh_core::rng::SmallRng;
use bh_repro::bh_core::seq_app::seq_run;
use bh_repro::bh_core::tree::flat::FlatTree;

/// Run `steps` measured steps; returns the run's statistics and the final
/// bodies.
fn run_grouped(
    alg: Algorithm,
    procs: usize,
    group_size: usize,
    bodies: &[Body],
    steps: usize,
) -> (RunStats, Vec<Body>) {
    let env = NativeEnv::new(procs);
    let mut cfg = SimConfig::new(alg);
    cfg.warmup_steps = 0;
    cfg.measured_steps = steps;
    cfg.group_size = group_size;
    let (stats, state) = run_simulation_with_state(&env, &cfg, bodies);
    stats.assert_valid();
    (stats, state)
}

fn assert_bitwise(label: &str, a: &[Body], b: &[Body]) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for (p, q) in [
            (x.pos.x, y.pos.x),
            (x.pos.y, y.pos.y),
            (x.pos.z, y.pos.z),
            (x.vel.x, y.vel.x),
            (x.vel.y, y.vel.y),
            (x.vel.z, y.vel.z),
        ] {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: body {i} differs ({p:?} vs {q:?})"
            );
        }
    }
}

/// `seq_accel`'s `(acceleration, interaction count)` for every body.
fn seq_accels(bodies: &[Body], cfg: &SimConfig) -> Vec<(Vec3, u32)> {
    let tree = SeqTree::build(bodies, cfg.k);
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    (0..bodies.len() as u32)
        .map(|b| seq_accel(&tree, &pos, &mass, b, &cfg.force))
        .collect()
}

#[test]
fn kernel_matches_sequential_reference_for_every_algorithm_group_size_and_procs() {
    // n ≡ 1, 2, 3 (mod 4) leaves the last group's last sub-group short (and
    // at n = 1201 the last group of 16 a lone body); group sizes 2, 3 and 5
    // make every group end in a short sub-group, 4 and 64 are the smallest
    // and the widest group of whole sub-groups.
    let cfg = SimConfig::new(Algorithm::Orig);
    let mut worst_all = 0.0f64;
    for n in [1201, 1202, 1203] {
        let bodies = Model::Plummer.generate(n, 42);
        let expect: u64 = seq_accels(&bodies, &cfg)
            .iter()
            .map(|&(_, cnt)| u64::from(cnt))
            .sum();
        let mut seq = bodies.clone();
        seq_run(&mut seq, cfg.k, &cfg.force, cfg.dt, 1);
        for alg in Algorithm::ALL {
            for gs in [1, 2, 3, 4, 5, 16, 33, 64] {
                for procs in [1, 4] {
                    let (stats, par) = run_grouped(alg, procs, gs, &bodies, 1);
                    assert_eq!(
                        stats.force_interactions(),
                        expect,
                        "n={n} {alg} gs={gs} {procs}p: interaction total differs from seq_accel's"
                    );
                    let worst = par
                        .iter()
                        .zip(&seq)
                        .map(|(a, b)| (a.vel - b.vel).norm() / b.vel.norm())
                        .fold(0.0f64, f64::max);
                    assert!(
                        worst <= 1e-12,
                        "n={n} {alg} gs={gs} {procs}p: velocities differ from seq_run by {worst:e}"
                    );
                    worst_all = worst_all.max(worst);
                }
            }
        }
    }
    // DESIGN.md §5b quotes this figure (`--nocapture` to see it).
    println!("worst relative velocity deviation from seq_run: {worst_all:e}");
}

#[test]
fn zero_softening_keeps_velocities_finite_at_every_group_size() {
    // At ε = 0 a member's own list entry has r² = 0. The evaluation floors
    // r² high enough that r²·√r² stays a normal number and 1/r³ finite, so
    // that entry adds exactly zero; a floor whose r²·√r² underflowed once
    // turned every velocity into NaN at group sizes above 1.
    let bodies = Model::Plummer.generate(512, 42);
    let mut cfg = SimConfig::new(Algorithm::Orig);
    cfg.force.eps = 0.0;
    cfg.warmup_steps = 0;
    cfg.measured_steps = 1;
    let mut seq = bodies.clone();
    seq_run(&mut seq, cfg.k, &cfg.force, cfg.dt, 1);
    for gs in [1, 16, 64] {
        cfg.group_size = gs;
        let (stats, par) = run_simulation_with_state(&NativeEnv::new(1), &cfg, &bodies);
        stats.assert_valid();
        for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
            assert!(a.vel.is_finite(), "gs={gs} body {i}: velocity {:?}", a.vel);
            let rel = (a.vel - b.vel).norm() / b.vel.norm();
            assert!(
                rel <= 1e-12,
                "gs={gs} body {i}: velocity differs from seq_run by {rel:e}"
            );
        }
    }
}

/// The force phase's inputs for one step, with the stages driven by hand so
/// the zones are in reach: the summarized tree's flat snapshot, a
/// costzones partition over `procs` and the kernel's scratch.
struct Snapshot {
    env: NativeEnv,
    pool: WorkerPool,
    world: World,
    flat: FlatTree,
    scratch: ForceScratch,
}

impl Snapshot {
    fn build(bodies: &[Body], cfg: &SimConfig, procs: usize) -> Snapshot {
        let (n, alg, k) = (bodies.len(), cfg.algorithm, cfg.k);
        let env = NativeEnv::new(procs);
        let pool = WorkerPool::new(procs);
        let world = World::new(&env, bodies);
        let tree = SharedTree::new(&env, n, k, alg.layout());
        let flat = FlatTree::new(&env, n, k, alg.layout());
        let scratch = ForceScratch::new(&env, &flat, n, procs);
        let builder = Builder::new(&env, alg, n, k);
        pool.run(&env, |proc, ctx| {
            let cube = bounds_phase(&env, ctx, &world, proc);
            builder.build(&env, ctx, &tree, &world, proc, 0, cube);
            env.barrier(ctx);
            builder.com(&env, ctx, &tree, &world, proc, 0);
            env.barrier(ctx);
            let plan = flat.plan(&env, ctx, &tree);
            flat.publish_counts(&env, ctx, &tree, &plan, proc);
            env.barrier(ctx);
            flat.fill(&env, ctx, &tree, &plan, proc);
            costzones(&env, ctx, &tree, &world, proc);
            env.barrier(ctx);
        });
        Snapshot {
            env,
            pool,
            world,
            flat,
            scratch,
        }
    }

    /// Run the force phase at `group_size`; results land in `world.acc`
    /// and `world.cost`.
    fn force(&self, params: &ForceParams, group_size: usize) {
        let Snapshot {
            env,
            pool,
            world,
            flat,
            scratch,
        } = self;
        pool.run(env, |proc, ctx| {
            force_phase_grouped(env, ctx, flat, world, params, scratch, group_size, proc);
            env.barrier(ctx);
        });
    }
}

#[test]
fn zone_cut_inside_a_sub_group_is_evaluated_by_both_owners() {
    // With three processors over 1203 bodies costzones cuts the order where
    // no aligned run of four members ends, so both neighbours evaluate the
    // cut sub-group and each must keep exactly its own members' lanes. Every
    // body's acceleration and interaction count is held to `seq_accel`.
    let (n, procs) = (1203, 3);
    let bodies = Model::Plummer.generate(n, 42);
    let cfg = SimConfig::new(Algorithm::Orig);
    let expect = seq_accels(&bodies, &cfg);
    let snap = Snapshot::build(&bodies, &cfg, procs);
    let world = &snap.world;
    for gs in [5, 16, 64] {
        assert!(
            (1..procs)
                .any(|q| !(world.zone_start.peek(q) as usize % gs).is_multiple_of(EVAL_LANES)),
            "gs={gs}: no zone cut falls inside a sub-group; pick another shape"
        );
        snap.force(&cfg.force, gs);
        for (b, &(acc, cnt)) in expect.iter().enumerate() {
            assert_eq!(world.cost.peek(b), cnt, "gs={gs} body {b}: count");
            let rel = (world.acc.peek(b) - acc).norm() / acc.norm();
            assert!(
                rel <= 1e-12,
                "gs={gs} body {b}: acceleration off by {rel:e}"
            );
        }
    }
}

/// `(p50, p99, max)` of the per-body relative error `|a - exact| / |exact|`
/// (nearest-rank percentiles).
fn error_quantiles(accels: impl Iterator<Item = Vec3>, exact: &[Vec3]) -> [f64; 3] {
    let mut err: Vec<f64> = accels
        .zip(exact)
        .map(|(a, e)| (a - *e).norm() / e.norm())
        .collect();
    err.sort_by(f64::total_cmp);
    let rank = |q: f64| err[(q * err.len() as f64).ceil() as usize - 1];
    [rank(0.5), rank(0.99), rank(1.0)]
}

#[test]
fn force_error_against_direct_summation_does_not_depend_on_the_group_size() {
    // The accuracy axis at the default ε and k, for three opening
    // angles: the group size decides which bodies share a walk and
    // how each sum is grouped, never which interactions a body applies, so
    // the error against the O(n²) sum is `seq_accel`'s at every group size.
    // EXPERIMENTS.md records the table (`--nocapture` to see it).
    let n = 2048;
    let bodies = Model::Plummer.generate(n, 1998);
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let snap = Snapshot::build(&bodies, &SimConfig::new(Algorithm::Orig), 1);
    // (θ, p50, p99, max) bounds, each pinned just above the value measured
    // with the all-f64 kernel.
    for (theta, bounds) in [
        (0.5, [1.55e-3, 4.00e-3, 6.29e-3]),
        (0.7, [4.35e-3, 1.67e-2, 6.79e-2]),
        (1.0, [1.31e-2, 6.70e-2, 2.63e-1]),
    ] {
        let mut cfg = SimConfig::new(Algorithm::Orig);
        cfg.force.theta = theta;
        let exact: Vec<Vec3> = (0..n as u32)
            .map(|b| direct_accel(&pos, &mass, b, &cfg.force))
            .collect();
        let reference = error_quantiles(
            seq_accels(&bodies, &cfg).into_iter().map(|(a, _)| a),
            &exact,
        );
        println!(
            "theta {theta} seq_accel: p50 {:.4e} p99 {:.4e} max {:.4e}",
            reference[0], reference[1], reference[2]
        );
        for gs in [1, 16, 64] {
            snap.force(&cfg.force, gs);
            let got = error_quantiles((0..n).map(|b| snap.world.acc.peek(b)), &exact);
            println!(
                "theta {theta} group_size {gs}: p50 {:.4e} p99 {:.4e} max {:.4e}",
                got[0], got[1], got[2]
            );
            for ((g, r), what) in got.iter().zip(&reference).zip(["p50", "p99", "max"]) {
                assert!(
                    (g - r).abs() <= 1e-9 * r,
                    "theta {theta} group_size {gs}: {what} {g:e} differs from seq_accel's {r:e}"
                );
            }
        }
        for ((r, bound), what) in reference.iter().zip(bounds).zip(["p50", "p99", "max"]) {
            assert!(
                *r < bound,
                "theta {theta}: {what} relative force error {r:e} over its pinned bound {bound:e}"
            );
        }
    }
}

#[test]
fn energy_drift_of_the_grouped_kernel_stays_within_its_pinned_bound() {
    // The integrator's relative energy drift (`body::total_energy`) over a
    // short run with the batched kernel at the default group size, pinned
    // just above the value measured with the all-f64 kernel
    // (`--nocapture` to see it).
    let bodies = Model::Plummer.generate(512, 1998);
    let cfg = SimConfig::new(Algorithm::Morton);
    let energy = |b: &[Body]| total_energy(b, cfg.force.gravity, cfg.force.eps);
    let (_, end) = run_grouped(Algorithm::Morton, 1, cfg.group_size, &bodies, 40);
    let (e0, e1) = (energy(&bodies), energy(&end));
    let drift = ((e1 - e0) / e0).abs();
    println!("energy {e0:.6e} -> {e1:.6e}: relative drift {drift:.4e}");
    assert!(
        drift < 1.16e-4,
        "relative energy drift {drift:e} over its pinned bound"
    );
}

#[test]
fn group_boundaries_never_change_list_membership() {
    // Randomized property: group windows are aligned to absolute order
    // indices, so *which bodies share a list* is a function of
    // (index, group_size, n) alone — no zone partition can change it, and
    // the applied sub-ranges of any partition tile [0, n) exactly once.
    let mut rng = SmallRng::seed_from_u64(0x6c69_7374);
    for case in 0..200u32 {
        let n = rng.gen_range_usize(1, 400);
        let gs = rng.gen_range_usize(1, 50);
        let procs = rng.gen_range_usize(1, 9);
        // Random monotone zone cuts over [0, n).
        let mut cuts: Vec<usize> = (0..procs - 1)
            .map(|_| rng.gen_range_usize(0, n + 1))
            .collect();
        cuts.sort_unstable();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(n);
        let mut covered = vec![0u32; n];
        for q in 0..procs {
            let (s, e) = (bounds[q], bounds[q + 1]);
            for (w0, w1, a0, a1) in zone_group_windows(s, e, gs, n) {
                assert!(s <= a0 && a1 <= e, "case {case}: applied range leaves zone");
                for (i, c) in covered.iter_mut().enumerate().take(a1).skip(a0) {
                    assert_eq!(
                        group_window(i, gs, n),
                        (w0, w1),
                        "case {case}: zone [{s},{e}) changed body {i}'s group"
                    );
                    *c += 1;
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "case {case}: applied ranges do not tile [0, {n}) exactly once"
        );
    }
}

#[test]
fn morton_matches_sequential_builder_bitwise_on_one_processor() {
    // MORTON builds the flat tree straight from the sorted key array, so its
    // reference is not a recursive walk of its own tree (there is none) but
    // the sequential builder itself: for a given body set and leaf threshold
    // the octree is unique, the quantized key path routes exactly like the
    // geometric descent, leaves hold bodies in ascending id, and both walks
    // visit children in octant order — the floating-point op sequence is
    // identical, so one-processor trajectories must match bitwise (with
    // per-body lists; larger groups reorder summation by design).
    let bodies = Model::Plummer.generate(1200, 42);
    let steps = 3;
    let (_, par) = run_grouped(Algorithm::Morton, 1, 1, &bodies, steps);
    let mut seq = bodies.clone();
    let cfg = SimConfig::new(Algorithm::Morton);
    seq_run(&mut seq, cfg.k, &cfg.force, cfg.dt, steps);
    assert_bitwise("MORTON vs sequential", &par, &seq);
}

#[test]
fn morton_is_bitwise_processor_count_independent() {
    // The sorted (key, id) array is schedule-independent, the leaf partition
    // is determined by keys and k alone, and every node's mass summation
    // runs over a fixed order (ascending id in leaves, octant order in
    // cells) — so the processor count must not perturb a single bit. This
    // runs the batched kernel at the default group_size = 64 and at 16:
    // group windows are aligned to absolute order indices and a split
    // window is traversed identically by both owners, so grouping preserves
    // the property.
    let bodies = Model::TwoClusterCollision.generate(1500, 7);
    for gs in [16, 64] {
        let (_, one) = run_grouped(Algorithm::Morton, 1, gs, &bodies, 2);
        for procs in [2, 4] {
            let (_, many) = run_grouped(Algorithm::Morton, procs, gs, &bodies, 2);
            assert_bitwise(&format!("MORTON gs={gs} {procs}p vs 1p"), &one, &many);
        }
    }
}

#[test]
fn flat_walk_is_valid_on_simulated_platform() {
    // The cooperative flatten uses plain loads/stores separated by barriers;
    // it must produce a correct snapshot under a simulated machine's timing
    // as well (physics agreement with the native run).
    use bh_repro::ssmp::{platform, Machine};
    let bodies = Model::Plummer.generate(800, 23);
    let machine = Machine::new(platform::origin2000(4), 4);
    let mut cfg = SimConfig::new(Algorithm::Space);
    cfg.warmup_steps = 0;
    cfg.measured_steps = 2;
    let (_, native) = run_grouped(Algorithm::Space, 2, cfg.group_size, &bodies, 2);
    let (stats, simulated) = run_simulation_with_state(&machine, &cfg, &bodies);
    stats.assert_valid();
    assert!(stats.flatten_cycles() > 0, "flatten cost must be charged");
    assert!(
        stats.force_groups() > 0 && stats.force_list_entries() > 0,
        "batched kernel must report list metrics on simulated platforms"
    );
    for (a, b) in native.iter().zip(&simulated) {
        assert!(a.pos.dist(b.pos) < 1e-9, "simulation changed the physics");
    }
}
