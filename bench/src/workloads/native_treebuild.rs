//! `native-treebuild`: the tree phase alone, all six builders, on one
//! native processor.
//!
//! Why: the builders and the flatten do all the work and the force phase
//! none — the paper's subject, and the inverse of `native-step`.
//!
//! Plummer n=65536. An op is what `TreeStage` does (Morton reorder when due,
//! bounds, build, centres of mass, flatten) or `MortonTreeStage` (bounds,
//! key sort, emission), inside one `WorkerPool::run`. Each builder owns its
//! `World` besides its trees: UPDATE keeps every body's leaf in
//! `World::body_leaf`, which the other builders overwrite with leaves of
//! their own trees. Between rounds `update_phase` moves the bodies
//! (accelerations stay zero) so that UPDATE has incremental work to do, and
//! every fourth round starts again from generated bodies, so round `r` does
//! the same work in every run of every commit. What a Plummer sphere costs
//! to build depends on how deep its core came out, by over a tenth from seed
//! to seed, so the four-round blocks cycle over [`DATASETS`] spheres made
//! from the run's seed. A whole round runs inside one `WorkerPool::run` and
//! the worker times its ops: a hand-off between threads costs as much as a
//! small build when the host is busy.

use std::path::Path;
use std::time::{Duration, Instant};

use bh_core::algorithms::Algorithm;
use bh_core::prelude::*;
use bh_core::update_phase::update_phase;
use bh_serve::job::digest_bodies;

use crate::run::{metric, Checks, Metric, Rec, Workload};
use crate::stage::{datasets, kind_of, Sim};
use crate::stats::{median, ms_since};
use crate::trace::{Trace, Tracer};

const N: usize = 65_536;
/// Rounds between two starts from the generated bodies.
const RESET_EVERY: usize = 4;
/// Body sets the blocks of [`RESET_EVERY`] rounds start from in turn.
const DATASETS: usize = 2;

/// The six builders and the body sets they start from in turn.
struct Builders {
    datasets: Vec<Vec<Body>>,
    sims: Vec<Sim>,
}

impl Builders {
    fn new(env: &NativeEnv, model: Model, seed: u64) -> Builders {
        let datasets = datasets(model, N, seed, DATASETS);
        let sims = Algorithm::ALL
            .iter()
            .map(|&alg| Sim::new(env, &SimConfig::new(alg), &datasets[0]))
            .collect();
        Builders { datasets, sims }
    }

    /// One round inside one `WorkerPool::run`: each builder's tree phase as
    /// an op, timed on the worker so that no op waits for a thread to wake,
    /// then the drift.
    fn round(&self, env: &NativeEnv, pool: &WorkerPool, round: usize, rec: &mut Rec) {
        let step = (round % RESET_EVERY) as u32;
        if step == 0 {
            let bodies = &self.datasets[round / RESET_EVERY % DATASETS];
            self.sims.iter().for_each(|s| s.reset(bodies));
        }
        let t = rec.tracer;
        let op_ms = pool.run(env, |proc, ctx| {
            let op_ms: Vec<f64> = self
                .sims
                .iter()
                .map(|sim| {
                    let t0 = Instant::now();
                    t.span("op", kind_of(sim.alg), || {
                        sim.tree_phase(env, ctx, proc, step, t)
                    });
                    ms_since(t0)
                })
                .collect();
            self.drift(env, ctx, proc);
            op_ms
        });
        for (kind, &ms) in op_ms[0].iter().enumerate() {
            rec.sample(kind, ms);
            rec.attempt(Ok(()));
        }
    }

    fn drift(&self, env: &NativeEnv, ctx: &mut <NativeEnv as Env>::Ctx, proc: usize) {
        for sim in &self.sims {
            update_phase(env, ctx, &sim.world, proc, sim.cfg.dt);
        }
    }
}

pub struct NativeTreebuild {
    env: NativeEnv,
    pool: WorkerPool,
    plummer: Builders,
    seed: u64,
    /// Per builder, the body digest its first checked op ended with.
    digests: Vec<Option<u64>>,
}

impl Workload for NativeTreebuild {
    const NAME: &'static str = "native-treebuild";
    const KINDS: &'static [&'static str] =
        &["orig", "local", "update", "partree", "space", "morton"];
    const CYCLE: usize = RESET_EVERY * DATASETS;
    const WARMUP: usize = RESET_EVERY;

    fn set_up(seed: u64, _out: &Path) -> NativeTreebuild {
        let env = NativeEnv::new(1);
        NativeTreebuild {
            plummer: Builders::new(&env, Model::Plummer, seed),
            pool: WorkerPool::new(1),
            env,
            seed,
            digests: vec![None; Algorithm::ALL.len()],
        }
    }

    fn round(&mut self, round: usize, rec: &mut Rec) {
        self.plummer.round(&self.env, &self.pool, round, rec);
    }

    fn body_steps_per_round(&self) -> f64 {
        (N * Algorithm::ALL.len()) as f64
    }

    /// A full build and an incremental one, each validated against the
    /// bodies it was built from. Leaves the worlds dirty: the next round is
    /// the first of a cycle and starts from the generated bodies.
    fn check(&mut self, checks: &mut Checks) {
        let (env, pool, b) = (&self.env, &self.pool, &self.plummer);
        let off = Tracer::off();
        b.sims.iter().for_each(|s| s.reset(&b.datasets[0]));
        for step in 0..2 {
            for sim in &b.sims {
                pool.run(env, |proc, ctx| sim.tree_phase(env, ctx, proc, step, &off));
                let valid = sim.validate_tree();
                checks.attempt(valid.map_err(|e| format!("{} step {step}: {e}", sim.alg)));
            }
            pool.run(env, |proc, ctx| b.drift(env, ctx, proc));
        }
        for (sim, first) in b.sims.iter().zip(&mut self.digests) {
            let digest = digest_bodies(&sim.world.snapshot());
            let first = *first.get_or_insert(digest);
            checks.attempt(if first == digest {
                Ok(())
            } else {
                Err(format!(
                    "{}: bodies {digest:016x}, first check {first:016x}",
                    sim.alg
                ))
            });
        }
    }

    fn layers(
        &mut self,
        trace: &Trace,
        _plain: &Rec,
        budget: Duration,
        checks: &mut Checks,
    ) -> Vec<Metric> {
        let build_ms = |trace: &Trace, kind| median(&trace.total_ms("build", kind));
        let mut out = vec![metric(
            "algorithms.bounds_ms",
            trace.median_self_ms("bounds", ""),
            "ms",
        )];
        for &alg in &Algorithm::ALL {
            let kind = kind_of(alg);
            out.push(metric(
                format!("algorithms.build_ms.{kind}"),
                build_ms(trace, kind),
                "ms",
            ));
            if !alg.builds_flat_directly() {
                let com = trace.median_self_ms("com", kind);
                out.push(metric(format!("algorithms.com_ms.{kind}"), com, "ms"));
            }
        }
        let sort_ms = median(&trace.total_ms("sort", "morton"));
        out.push(metric(
            "algorithms.morton.sort_mkeys_per_s",
            N as f64 / 1e6 / (sort_ms / 1e3),
            "Mkeys/s",
        ));
        out.push(metric(
            "algorithms.morton.emit_ms",
            median(&trace.total_ms("emit", "morton")),
            "ms",
        ));
        // The flatten of LOCAL's tree: it is rebuilt every step, so the nodes
        // allocated are the nodes flattened.
        let local = &self.plummer.sims[1];
        let nodes = (local.tree.cells_allocated() + local.tree.leaves_allocated()) as f64;
        let flatten_ms = median(&trace.total_ms("flatten", "local"));
        out.push(metric("tree.flat.flatten_ms", flatten_ms, "ms"));
        out.push(metric(
            "tree.flat.mnodes_per_s",
            nodes / 1e6 / (flatten_ms / 1e3),
            "Mnodes/s",
        ));

        // The same op on uniform spheres: a shallow balanced tree where
        // Plummer's has a deep core. Whole blocks, for about the budget.
        let uniform = Builders::new(&self.env, Model::UniformSphere, self.seed);
        let tracer = Tracer::on();
        let mut uniform_rec = Rec::new(&tracer, Self::KINDS, Self::CYCLE);
        let deadline = Instant::now() + budget;
        let mut round = 0;
        while round == 0 || Instant::now() < deadline {
            for _ in 0..RESET_EVERY {
                uniform.round(&self.env, &self.pool, round, &mut uniform_rec);
                round += 1;
            }
        }
        checks.merge(uniform_rec.checks);
        let uniform_trace = Trace::new(tracer.take_spans());
        for &alg in &Algorithm::ALL {
            let kind = kind_of(alg);
            out.push(metric(
                format!("algorithms.build_ms_uniform.{kind}"),
                build_ms(&uniform_trace, kind),
                "ms",
            ));
        }
        out
    }

    fn tear_down(self, _checks: &mut Checks) {}
}
