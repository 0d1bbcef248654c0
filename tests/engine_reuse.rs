//! Engine-reuse determinism certification.
//!
//! A [`SimEngine`] keeps its worker pool and its `World`/tree allocations
//! alive across jobs, `reset()`-ing them instead of reallocating. These
//! tests certify the load-bearing property of that reuse: a job run on a
//! *reused* engine produces the same physics as the same job run fresh —
//! i.e. `reset()` restores everything a run reads before writing it, for
//! every algorithm. It does not restore the fresh bytes: scratch keeps the
//! previous job's contents, whose values no run uses (`engine.rs`'s poison
//! test fills them with garbage first).
//!
//! On one processor runs are fully deterministic, so the comparison is
//! **bitwise** — any state leaking across jobs (a stale cost, a leftover
//! subdivision count) would shift the result exactly. On several
//! processors even two *fresh* runs differ: racy leaf-insertion order
//! perturbs floating-point summation (ulp level), and for UPDATE the
//! schedule-dependent incremental tree structure can flip discrete
//! opening-criterion decisions (observed up to ~1e-5 position drift over
//! three steps). The multi-processor comparison therefore bounds the
//! divergence at a physics tolerance well above that inherent jitter and
//! well below any genuine state-reuse artifact (stale accelerations or
//! costs corrupt positions at O(1), or fail validation outright).

use bh_repro::bh_core::prelude::*;
use bh_repro::bh_serve::job::{digest_bodies, JobSpec};
use bh_repro::bh_serve::server::{JobResult, Server, ServerConfig};

const ALL_ALGS: [Algorithm; 6] = [
    Algorithm::Orig,
    Algorithm::Local,
    Algorithm::Update,
    Algorithm::Partree,
    Algorithm::Space,
    Algorithm::Morton,
];

/// Absolute tolerance for multi-processor comparisons: two orders of
/// magnitude above the worst inherent fresh-vs-fresh jitter measured on
/// this workload (~1e-5, from UPDATE's schedule-dependent tree), orders of
/// magnitude below any stale-state artifact.
const JITTER_TOL: f64 = 1e-3;

fn job_cfg(alg: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::new(alg);
    cfg.k = 4;
    cfg.warmup_steps = 1;
    cfg.measured_steps = 2;
    cfg
}

fn assert_close(context: &str, a: &[Body], b: &[Body]) {
    assert_eq!(a.len(), b.len(), "{context}: body counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.mass, y.mass, "{context}: body {i} mass differs");
        let dp = (x.pos - y.pos).norm();
        let dv = (x.vel - y.vel).norm();
        assert!(
            dp <= JITTER_TOL && dv <= JITTER_TOL,
            "{context}: body {i} diverged (dpos {dp:e}, dvel {dv:e})"
        );
    }
}

#[test]
fn reused_engine_is_bitwise_identical_to_fresh_runs_single_proc() {
    // One processor: fully deterministic, so the comparison is exact.
    let bodies = Model::Plummer.generate(96, 1998);
    for alg in ALL_ALGS {
        let cfg = job_cfg(alg);
        let (fresh_stats, fresh_state) =
            run_simulation_with_state(&NativeEnv::new(1), &cfg, &bodies);
        fresh_stats.assert_valid();

        let mut engine = SimEngine::new(NativeEnv::new(1));
        let (s1, b1) = engine.run_with_state(&cfg, &bodies);
        s1.assert_valid();
        // Second job on the same engine: same pool, reset state.
        let (s2, b2) = engine.run_with_state(&cfg, &bodies);
        s2.assert_valid();

        assert!(
            b1 == fresh_state,
            "{alg}: first engine job diverged from a fresh run"
        );
        assert!(
            b2 == fresh_state,
            "{alg}: reused-state engine job diverged from a fresh run"
        );
    }
}

#[test]
fn reused_engine_matches_fresh_runs_on_four_procs() {
    let bodies = Model::Plummer.generate(96, 1998);
    for alg in ALL_ALGS {
        let cfg = job_cfg(alg);
        let (fresh_stats, fresh_state) =
            run_simulation_with_state(&NativeEnv::new(4), &cfg, &bodies);
        fresh_stats.assert_valid();

        let mut engine = SimEngine::new(NativeEnv::new(4));
        let (s1, b1) = engine.run_with_state(&cfg, &bodies);
        s1.assert_valid();
        let (s2, b2) = engine.run_with_state(&cfg, &bodies);
        s2.assert_valid();

        assert_close(&format!("{alg} first job"), &b1, &fresh_state);
        assert_close(&format!("{alg} reused job"), &b2, &fresh_state);
    }
}

#[test]
fn engine_reuse_across_different_algorithms_stays_exact() {
    // Alternate algorithms on one engine (same allocation shape for the
    // per-processor-layout ones, a reallocation when ORIG's global layout
    // comes in between) and compare every result against a fresh run.
    // Single processor keeps the comparison bitwise.
    let bodies = Model::Plummer.generate(96, 1998);
    let mut engine = SimEngine::new(NativeEnv::new(1));
    for alg in [
        Algorithm::Space,
        Algorithm::Orig,
        Algorithm::Morton,
        Algorithm::Partree,
        Algorithm::Space,
    ] {
        let cfg = job_cfg(alg);
        let (stats, state) = engine.run_with_state(&cfg, &bodies);
        stats.assert_valid();
        let (_, fresh) = run_simulation_with_state(&NativeEnv::new(1), &cfg, &bodies);
        assert!(state == fresh, "{alg}: interleaved engine job diverged");
    }
}

#[test]
fn cross_tenant_interleaving_through_the_server_cache_stays_bitwise() {
    // Two tenants alternate same-shape jobs through the job server's
    // engine cache: every served job must be bitwise identical to the same
    // spec run on a fresh engine in a clean single-tenant process. This is
    // the multi-tenant extension of the reuse certification above — cached
    // engines must not leak any state between tenants.
    let scenarios = [
        Model::Plummer,
        Model::UniformSphere,
        Model::TwoClusterCollision,
    ];
    let mut specs = Vec::new();
    for round in 0..3 {
        for tenant in ["acme", "globex"] {
            let mut spec = JobSpec::defaults(96);
            spec.scenario = scenarios[round % scenarios.len()];
            spec.warmup = 1;
            spec.steps = 2;
            spec.k = 4;
            specs.push((tenant, spec));
        }
    }

    // Ground truth: each distinct spec on a fresh engine, single tenant.
    let fresh: Vec<u64> = specs
        .iter()
        .map(|(_, spec)| {
            let (_, state) =
                run_simulation_with_state(&NativeEnv::new(1), &spec.config(), &spec.bodies());
            digest_bodies(&state)
        })
        .collect();

    // One worker serializes execution so the cache is exercised every job
    // after the first (same shape throughout).
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: specs.len(),
        engine_capacity: 2,
        ..ServerConfig::default()
    });
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, (tenant, spec)) in specs.iter().enumerate() {
        let tx = tx.clone();
        server
            .submit(
                tenant,
                spec.clone(),
                Box::new(move |result| {
                    tx.send((i, result)).unwrap();
                }),
            )
            .expect("submit");
    }
    server.wait_idle();
    let mut served = vec![None; specs.len()];
    while let Ok((i, result)) = rx.try_recv() {
        served[i] = Some(result);
    }
    let stats = server.shutdown();
    assert!(
        stats.cache.hits > 0,
        "same-shape jobs never hit the engine cache"
    );

    for (i, (tenant, spec)) in specs.iter().enumerate() {
        match &served[i] {
            Some(JobResult::Done(outcome)) => assert_eq!(
                outcome.digest, fresh[i],
                "job {i} (tenant {tenant}, {:?}): served digest diverged from fresh run",
                spec.scenario
            ),
            other => panic!("job {i} (tenant {tenant}) did not complete: {other:?}"),
        }
    }
}

#[test]
fn engine_handles_shape_changes_between_jobs() {
    // n changes force a reallocation; the result must still match fresh.
    let mut engine = SimEngine::new(NativeEnv::new(1));
    let cfg = job_cfg(Algorithm::Partree);
    for n in [96, 64, 96] {
        let bodies = Model::Plummer.generate(n, 1998);
        let (stats, state) = engine.run_with_state(&cfg, &bodies);
        stats.assert_valid();
        let (_, fresh) = run_simulation_with_state(&NativeEnv::new(1), &cfg, &bodies);
        assert!(state == fresh, "n={n}: engine job diverged after realloc");
    }
}
