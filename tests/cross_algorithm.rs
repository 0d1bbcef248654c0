//! Cross-crate integration: all five tree-building algorithms must agree —
//! structurally with the sequential reference tree, and physically with each
//! other (same forces, same trajectories) — both natively and on simulated
//! platforms.

use bh_repro::bh_core::prelude::*;
use bh_repro::ssmp::{platform, Machine};

fn run_steps(env_procs: usize, alg: Algorithm, bodies: &[Body], steps: usize) -> Vec<Body> {
    let env = NativeEnv::new(env_procs);
    let mut cfg = SimConfig::new(alg);
    cfg.warmup_steps = 0;
    cfg.measured_steps = steps;
    let (stats, state) = run_simulation_with_state(&env, &cfg, bodies);
    stats.assert_valid();
    state
}

#[test]
fn all_algorithms_produce_identical_trajectories() {
    // Identical trees + identical (deterministic) force evaluation means the
    // five algorithms must evolve the galaxy identically, bit for bit is too
    // strict (summation order differs), but to tight tolerance.
    let n = 1500;
    let bodies = Model::Plummer.generate(n, 3001);
    let reference = run_steps(1, Algorithm::Local, &bodies, 3);
    for alg in Algorithm::ALL {
        let state = run_steps(4, alg, &bodies, 3);
        let mut worst = 0.0f64;
        for (a, b) in reference.iter().zip(&state) {
            worst = worst.max(a.pos.dist(b.pos));
        }
        // The rebuild algorithms construct the *same* tree, so they must
        // agree to rounding. UPDATE intentionally keeps a structurally
        // different (non-collapsed) tree after step 0, which changes the
        // Barnes-Hut grouping slightly — allow the approximation-level
        // difference there.
        let tol = if alg == Algorithm::Update { 5e-3 } else { 1e-9 };
        assert!(worst < tol, "{alg}: trajectories diverged by {worst}");
    }
}

#[test]
fn rebuild_algorithms_match_reference_structure_on_simulated_platforms() {
    // The same algorithm code runs on a simulated machine and must produce
    // the same valid tree; validation runs inside run_simulation. SPACE and
    // MORTON take no tree lock on any platform.
    let bodies = Model::TwoClusterCollision.generate(1200, 5);
    for cost in platform::all_platforms(4) {
        for alg in Algorithm::ALL {
            let machine = Machine::new(cost.clone(), 4);
            let mut cfg = SimConfig::new(alg);
            cfg.warmup_steps = 1;
            cfg.measured_steps = 1;
            let stats = run_simulation(&machine, &cfg, &bodies);
            assert!(
                stats.validation_error.is_none(),
                "{} on {}: {:?}",
                alg,
                cost.name,
                stats.validation_error
            );
            if matches!(alg, Algorithm::Space | Algorithm::Morton) {
                let locks: u64 = stats.tree_locks_per_proc().iter().sum();
                assert_eq!(locks, 0, "{alg} locked on {}", cost.name);
            }
        }
    }
}

#[test]
fn native_and_simulated_runs_agree_physically() {
    let n = 800;
    let bodies = Model::Plummer.generate(n, 77);
    let native = run_steps(2, Algorithm::Space, &bodies, 2);

    let machine = Machine::new(platform::origin2000(4), 4);
    let mut cfg = SimConfig::new(Algorithm::Space);
    cfg.warmup_steps = 0;
    cfg.measured_steps = 2;
    let (stats, simulated) = run_simulation_with_state(&machine, &cfg, &bodies);
    stats.assert_valid();

    for (a, b) in native.iter().zip(&simulated) {
        assert!(a.pos.dist(b.pos) < 1e-9, "simulation changed the physics");
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let bodies = Model::UniformSphere.generate(700, 9);
    let one = run_steps(1, Algorithm::Partree, &bodies, 2);
    for procs in [2, 3, 8] {
        let many = run_steps(procs, Algorithm::Partree, &bodies, 2);
        for (a, b) in one.iter().zip(&many) {
            assert!(a.pos.dist(b.pos) < 1e-9, "{procs} threads diverged");
        }
    }
}

#[test]
fn leaf_capacity_sweep_is_valid_and_equivalent() {
    // Different k produce different trees but identical physics at theta->0
    // is too slow; instead check each k validates and BH forces stay within
    // the approximation's own variation.
    let bodies = Model::Plummer.generate(600, 21);
    let mut finals: Vec<Vec<Body>> = Vec::new();
    for k in [1usize, 2, 4, 8, 16] {
        let env = NativeEnv::new(4);
        let mut cfg = SimConfig::new(Algorithm::Local);
        cfg.k = k;
        cfg.warmup_steps = 0;
        cfg.measured_steps = 1;
        let (stats, state) = run_simulation_with_state(&env, &cfg, &bodies);
        stats.assert_valid();
        finals.push(state);
    }
    // Positions after one step should be close across k (same physics, the
    // opening criterion sees slightly different cells).
    for pair in finals.windows(2) {
        let drift: f64 = pair[0]
            .iter()
            .zip(&pair[1])
            .map(|(a, b)| a.pos.dist(b.pos))
            .sum::<f64>()
            / pair[0].len() as f64;
        assert!(drift < 1e-3, "k-variation drift {drift}");
    }
}
