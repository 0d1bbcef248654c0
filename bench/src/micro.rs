//! The fixed costs a served job pays whatever its size: single calls into
//! bh-core and bh-serve, each timed in batches. Measured by `serve-mixed`,
//! whose `hit` jobs these costs dominate.

use bh_core::algorithms::Algorithm;
use bh_core::prelude::*;
use bh_serve::cache::{AnyEngine, EngineCache};
use bh_serve::exec::JobOutcome;
use bh_serve::job::JobSpec;
use bh_serve::json::Json;
use bh_serve::protocol::{encode_job_ok, parse_request};
use bh_serve::queue::AdmissionQueue;

use crate::run::{metric, Metric};
use crate::stage::Sim;
use crate::stats::{median, ns_per_call, time_ms};

const BATCHES: usize = 15;

/// bh-core: generation, reset, dispatch, the native lock and barrier, and
/// what the first run on a new engine costs beyond a reused one. `hit_n` and
/// `miss_n` are the body counts of the workload's two job classes.
pub fn core_fixed_costs(seed: u64, hit_n: usize, miss_n: usize) -> Vec<Metric> {
    let generate_ms = median(
        &(0..BATCHES)
            .map(|_| time_ms(|| Model::Plummer.generate(miss_n, seed)).1)
            .collect::<Vec<_>>(),
    );

    let env = NativeEnv::new(1);
    let bodies = Model::Plummer.generate(hit_n, seed);
    let sim = Sim::new(&env, &SimConfig::new(Algorithm::Space), &bodies);
    let reset_ms = ns_per_call(BATCHES, 20, || sim.reset(&bodies)) / 1e6;

    let pool = WorkerPool::new(1);
    let dispatch_us = ns_per_call(BATCHES, 200, || {
        pool.run(&env, |_, _| ());
    }) / 1e3;
    let mut ctx = env.make_ctx(0);
    let lock_ns = ns_per_call(BATCHES, 10_000, || {
        env.lock(&mut ctx, 77);
        env.unlock(&mut ctx, 77);
    });
    let barrier_ns = ns_per_call(BATCHES, 10_000, || env.barrier(&mut ctx));

    let mut cfg = SimConfig::new(Algorithm::Partree);
    (cfg.warmup_steps, cfg.measured_steps) = (1, 1);
    let bodies = Model::Plummer.generate(miss_n, seed);
    let fresh_ms: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut engine = SimEngine::new(NativeEnv::new(1));
            let first = time_ms(|| engine.run(&cfg, &bodies)).1;
            first - time_ms(|| engine.run(&cfg, &bodies)).1
        })
        .collect();

    vec![
        metric("model.generate_ms", generate_ms, "ms"),
        metric("world.reset_ms", reset_ms, "ms"),
        metric("harness.dispatch_us", dispatch_us, "us"),
        metric("env.native.lock_ns", lock_ns, "ns"),
        metric("env.native.barrier_ns", barrier_ns, "ns"),
        metric("engine.fresh_ms", median(&fresh_ms), "ms"),
    ]
}

/// bh-serve without a socket or a thread: the JSON parser, the protocol's
/// two directions, the admission queue and the engine cache. `line` is a
/// job request of the workload.
pub fn serve_fixed_costs(line: &str, spec: &JobSpec) -> Vec<Metric> {
    let parse_ns = ns_per_call(BATCHES, 2_000, || {
        std::hint::black_box(
            Json::parse(std::hint::black_box(line)).expect("a request line parses"),
        );
    });
    let request_ns = ns_per_call(BATCHES, 2_000, || {
        std::hint::black_box(
            parse_request(std::hint::black_box(line)).expect("a request line parses"),
        );
    });
    let outcome = JobOutcome {
        digest: 0x0123_4567_89ab_cdef,
        cache_hit: true,
        total_cycles: 0,
        tree_cycles: 0,
        steps: 1,
    };
    let encode_ns = ns_per_call(BATCHES, 2_000, || {
        std::hint::black_box(encode_job_ok(
            "hit-space",
            "bench",
            std::hint::black_box(&outcome),
        ));
    });
    let mut queue: AdmissionQueue<u32> = AdmissionQueue::new(32, 50_000);
    let push_pop_ns = ns_per_call(BATCHES, 10_000, || {
        queue
            .push("bench", spec.cost(), 7)
            .expect("the queue has room");
        std::hint::black_box(queue.pop());
    });
    let shape = spec.shape();
    let mut cache = EngineCache::new(4);
    cache.park(shape.clone(), AnyEngine::fresh(&shape));
    let checkout_park_ns = ns_per_call(BATCHES, 10_000, || {
        let engine = cache.checkout(&shape).expect("the engine was parked");
        cache.park(shape.clone(), engine);
    });
    vec![
        metric(
            "serve.json.parse_mb_per_s",
            line.len() as f64 / 1e6 / (parse_ns / 1e9),
            "MB/s",
        ),
        metric("serve.protocol.parse_request_us", request_ns / 1e3, "us"),
        metric("serve.protocol.encode_job_ok_us", encode_ns / 1e3, "us"),
        metric("serve.queue.push_pop_ns", push_pop_ns, "ns"),
        metric("serve.cache.checkout_park_ns", checkout_park_ns, "ns"),
    ]
}
