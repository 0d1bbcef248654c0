//! Race-freedom certification of the six tree-building algorithms.
//!
//! Every run executes the full application pipeline (bounds, build, com,
//! costzones, force, update) under [`CheckedEnv`], the happens-before
//! vector-clock detector over the `Env` abstraction, and asserts that no
//! unsynchronized conflicting access pair was observed. Deliberately
//! seeded races confirm the detector actually fires (the matrix would
//! otherwise pass vacuously).

use bh_repro::bh_core::harness::spmd;
use bh_repro::bh_core::prelude::*;
use bh_repro::bh_core::shared::SharedVec;
use bh_repro::bh_core::trace::{chrome_trace_json, summary};

/// Run one full simulation under the detector and assert race-freedom.
/// The default `SimConfig` routes every run through the flat-snapshot force
/// path (cooperative flatten), the periodic Morton reorder, and — for SPACE
/// — the cost-weighted assignment, so the matrix certifies those too.
fn certify_cfg(mut cfg: SimConfig, procs: usize, model: Model, n: usize) {
    let env = CheckedEnv::new(NativeEnv::new(procs));
    let bodies = model.generate(n, 1998);
    cfg.k = 4; // deeper trees at small n: more lock/atomic interleaving
    cfg.warmup_steps = 1;
    cfg.measured_steps = 2;
    let alg = cfg.algorithm;
    let stats = run_simulation(&env, &cfg, &bodies);
    stats.assert_valid();
    let races = env.races();
    assert!(
        races.is_empty(),
        "{alg} procs={procs} {model:?}: {} race(s), first:\n  {}",
        races.len(),
        races
            .iter()
            .take(8)
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

fn certify(alg: Algorithm, procs: usize, model: Model, n: usize) {
    certify_cfg(SimConfig::new(alg), procs, model, n);
}

const ALL_ALGS: [Algorithm; 6] = [
    Algorithm::Orig,
    Algorithm::Local,
    Algorithm::Update,
    Algorithm::Partree,
    Algorithm::Space,
    Algorithm::Morton,
];

#[test]
fn all_algorithms_race_free_plummer() {
    for alg in ALL_ALGS {
        for procs in [2, 8] {
            certify(alg, procs, Model::Plummer, 96);
        }
    }
}

#[test]
#[ignore = "full processor matrix; run with --ignored"]
fn all_algorithms_race_free_plummer_full() {
    for alg in ALL_ALGS {
        for procs in [1, 2, 4, 8] {
            certify(alg, procs, Model::Plummer, 96);
        }
    }
}

#[test]
fn all_algorithms_race_free_uneven_distribution() {
    // The two-cluster collision model concentrates bodies in two dense
    // clumps: deep unbalanced subtrees, maximal contention on a few cells.
    for alg in ALL_ALGS {
        certify(alg, 4, Model::TwoClusterCollision, 96);
    }
}

#[test]
#[ignore = "full processor matrix; run with --ignored"]
fn all_algorithms_race_free_uneven_distribution_full() {
    for alg in ALL_ALGS {
        for procs in [2, 4, 8] {
            certify(alg, procs, Model::TwoClusterCollision, 96);
        }
    }
}

#[test]
fn flatten_and_cost_rebalance_race_free() {
    // Stress the new machinery directly: Morton reorder every step, an
    // aggressive SPACE cost ceiling (many extra refinement rounds over the
    // shared totals), and the cooperative flatten on every step.
    for alg in [Algorithm::Space, Algorithm::Local] {
        for procs in [2, 8] {
            let mut cfg = SimConfig::new(alg);
            cfg.morton_every = 1;
            cfg.space_rebalance = 0.05;
            certify_cfg(cfg, procs, Model::TwoClusterCollision, 96);
        }
    }
}

#[test]
fn grouped_force_kernel_group_sizes_race_free() {
    // The default matrix already certifies the batched kernel at the
    // default group_size = 64; this cell covers the knob's edges: per-body
    // lists (1), an odd size that leaves a remainder window straddling zone
    // boundaries, and 16, the default before PR 25. Group windows may span
    // two processors' zones — both traverse the shared snapshot read-only
    // and emit only into their own scratch rows, so no cell may race.
    for gs in [1usize, 7, 16] {
        for alg in [Algorithm::Orig, Algorithm::Morton] {
            let mut cfg = SimConfig::new(alg);
            cfg.group_size = gs;
            certify_cfg(cfg, 4, Model::Plummer, 96);
        }
    }
}

#[test]
fn reused_engine_back_to_back_jobs_race_free() {
    // A SimEngine keeps its worker pool and shared allocations alive across
    // jobs; the detector's clocks persist at the environment level, and each
    // run ends with a barrier, so successive sessions chain correctly. Two
    // back-to-back SPACE jobs on reused state plus a LOCAL job must all be
    // certified — a reset() that skipped a shared array would surface here
    // as an unordered write/read pair across jobs.
    let mut engine = SimEngine::new(CheckedEnv::new(NativeEnv::new(4)));
    let bodies = Model::Plummer.generate(96, 1998);
    for alg in [Algorithm::Space, Algorithm::Space, Algorithm::Local] {
        let mut cfg = SimConfig::new(alg);
        cfg.k = 4;
        cfg.warmup_steps = 1;
        cfg.measured_steps = 2;
        let stats = engine.run(&cfg, &bodies);
        stats.assert_valid();
    }
    let races = engine.env().races();
    assert!(
        races.is_empty(),
        "reused engine: {} race(s), first:\n  {}",
        races.len(),
        races
            .iter()
            .take(8)
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

#[test]
fn seeded_race_is_caught() {
    // Unsynchronized read-modify-write on a plain shared word: the classic
    // lost-update race. The detector must report it.
    let env = CheckedEnv::new(NativeEnv::new(4));
    let v: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global, Region::Other);
    spmd(&env, |_proc, ctx| {
        for _ in 0..16 {
            let x = v.load(&env, ctx, 0);
            v.store(&env, ctx, 0, x + 1);
        }
    });
    let races = env.races();
    assert!(!races.is_empty(), "seeded lost-update race went undetected");
    assert!(races.iter().all(|r| r.first.proc != r.second.proc));
}

#[test]
fn seeded_racy_tree_phase_is_caught() {
    // A broken "parallel" loop over one shared accumulator, barrier-free:
    // models the kind of bug the ORIG algorithm's per-cell locks prevent.
    let env = CheckedEnv::new(NativeEnv::new(2));
    let acc: SharedVec<f64> = SharedVec::new(&env, 4, 0.0, Placement::Global, Region::Other);
    spmd(&env, |proc, ctx| {
        if proc == 0 {
            for i in 0..4 {
                acc.store(&env, ctx, i, i as f64);
            }
        } else {
            let mut s = 0.0;
            for i in 0..4 {
                s += acc.load(&env, ctx, i);
            }
            std::hint::black_box(s);
        }
    });
    assert!(
        !env.races().is_empty(),
        "unordered write/read phase went undetected"
    );
}

#[test]
fn tracing_composes_with_detector() {
    // The trace reads the run's RunStats and the simulator's per-lock-id
    // record; neither perturbs the happens-before certification, and both
    // still see all four phases and ORIG's lock traffic through the
    // detector layer.
    let cost = bh_repro::ssmp::platform::by_name("origin2000", 4).expect("platform");
    let env = CheckedEnv::new(bh_repro::ssmp::Machine::new(cost, 4));
    let bodies = Model::Plummer.generate(96, 1998);
    let mut cfg = SimConfig::new(Algorithm::Orig);
    cfg.k = 4;
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    let stats = run_simulation(&env, &cfg, &bodies);
    stats.assert_valid();
    env.assert_race_free();
    let trace = chrome_trace_json(&stats, "orig", 1.0);
    for phase in Phase::ALL {
        assert!(
            trace.contains(&format!("\"name\":\"{phase}\",\"cat\":\"phase\"")),
            "no {phase} span recorded through the detector"
        );
    }
    let locks = env.inner().lock_histogram();
    assert!(
        !locks.is_empty(),
        "ORIG lock traffic must survive the CheckedEnv layer"
    );
    assert!(summary(&stats, &locks, "cycles").contains("hottest: [id "));
}

#[test]
fn detector_composes_with_simulated_machine() {
    // CheckedEnv wraps any Env, including the ssmp cost-model machine:
    // certify one algorithm end-to-end on a simulated platform.
    let cost = bh_repro::ssmp::platform::by_name("origin2000", 4).expect("platform");
    let env = CheckedEnv::new(bh_repro::ssmp::Machine::new(cost, 4));
    let bodies = Model::Plummer.generate(64, 1998);
    let mut cfg = SimConfig::new(Algorithm::Orig);
    cfg.k = 4;
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    let stats = run_simulation(&env, &cfg, &bodies);
    stats.assert_valid();
    env.assert_race_free();
}
