//! The Barnes-Hut step driven stage by stage through bh-core's public
//! functions, with a span around each call.
//!
//! `SimEngine::run` keeps its stages private, so the benchmark repeats the
//! sequence `pipeline.rs` runs: the same calls in the same order with the
//! same barriers. `native-treebuild` times [`Sim::tree_phase`] alone; the
//! traced `native-step` runs whole jobs through [`Sim::run`] and checks
//! that the final bodies equal `SimEngine::run_with_state`'s bit for bit.

use bh_core::algorithms::common::bounds_phase;
use bh_core::algorithms::{morton, Algorithm, Builder};
use bh_core::force::{force_phase_grouped, ForceListStats, ForceScratch};
use bh_core::partition::{costzones, morton_reorder};
use bh_core::prelude::*;
use bh_core::tree::flat::FlatTree;
use bh_core::tree::validate::{validate_flat_morton, validate_with, ValidateOpts};
use bh_core::update_phase::update_phase;

use crate::trace::Tracer;

/// Lower-case builder name: the kind of every span and the suffix of the
/// per-builder metrics.
pub fn kind_of(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Orig => "orig",
        Algorithm::Local => "local",
        Algorithm::Update => "update",
        Algorithm::Partree => "partree",
        Algorithm::Space => "space",
        Algorithm::Morton => "morton",
    }
}

/// `count` body sets made from the run's seed; two seeds share none. A run
/// cycles over several where one set alone would decide the cost: what a
/// Plummer sphere costs depends on how its core came out, by several percent
/// from seed to seed.
pub fn datasets(model: Model, n: usize, seed: u64, count: usize) -> Vec<Vec<Body>> {
    (0..count as u64)
        .map(|d| model.generate(n, seed.wrapping_mul(count as u64).wrapping_add(d)))
        .collect()
}

/// One builder with the allocations `SimEngine` would give it.
pub struct Sim {
    pub alg: Algorithm,
    pub cfg: SimConfig,
    pub world: World,
    pub tree: SharedTree,
    pub flat: FlatTree,
    scratch: ForceScratch,
    builder: Builder,
}

impl Sim {
    pub fn new<E: Env>(env: &E, cfg: &SimConfig, bodies: &[Body]) -> Sim {
        let (alg, n, k) = (cfg.algorithm, bodies.len(), cfg.k);
        let flat = FlatTree::new(env, n, k, alg.layout());
        Sim {
            alg,
            cfg: cfg.clone(),
            world: World::new(env, bodies),
            tree: SharedTree::new(env, n, k, alg.layout()),
            scratch: ForceScratch::new(env, &flat, n, env.num_procs()),
            flat,
            builder: Builder::new(env, alg, n, k).with_space_rebalance(cfg.space_rebalance),
        }
    }

    fn kind(&self) -> &'static str {
        kind_of(self.alg)
    }

    /// Back to the state [`Sim::new`] leaves, as `SimEngine` does between
    /// two jobs of one shape.
    pub fn reset(&self, bodies: &[Body]) {
        self.world.reset(bodies);
        self.tree.reset();
        self.flat.reset();
        self.scratch.reset();
        if self.alg.builds_flat_directly() {
            self.builder.morton_scratch().reset();
        }
    }

    /// What `TreeStage` does, or `MortonTreeStage` for MORTON.
    pub fn tree_phase<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        proc: usize,
        step: u32,
        t: &Tracer,
    ) {
        let (kind, world, flat) = (self.kind(), &self.world, &self.flat);
        if self.alg.builds_flat_directly() {
            let cube = t.span("bounds", kind, || bounds_phase(env, ctx, world, proc));
            t.span("build", kind, || self.morton_build(env, ctx, proc, cube, t));
            return;
        }
        let every = self.cfg.morton_every;
        if every > 0 && (step as usize).is_multiple_of(every) {
            t.span("morton_reorder", kind, || {
                morton_reorder(env, ctx, world, proc)
            });
        }
        let cube = t.span("bounds", kind, || bounds_phase(env, ctx, world, proc));
        t.span("build", kind, || {
            self.builder
                .build(env, ctx, &self.tree, world, proc, step, cube);
            env.barrier(ctx);
        });
        t.span("com", kind, || {
            self.builder.com(env, ctx, &self.tree, world, proc, step);
            env.barrier(ctx);
        });
        t.span("flatten", kind, || {
            let plan = t.span("flat.plan", kind, || flat.plan(env, ctx, &self.tree));
            t.span("flat.publish_counts", kind, || {
                flat.publish_counts(env, ctx, &self.tree, &plan, proc)
            });
            env.barrier(ctx);
            t.span("flat.fill", kind, || {
                flat.fill(env, ctx, &self.tree, &plan, proc)
            });
        });
    }

    /// MORTON's build: the cooperative key sort, then emission of the flat
    /// tree straight from the sorted keys.
    fn morton_build<E: Env>(&self, env: &E, ctx: &mut E::Ctx, proc: usize, cube: Cube, t: &Tracer) {
        let (kind, world, flat, k) = (self.kind(), &self.world, &self.flat, self.cfg.k);
        let scratch = self.builder.morton_scratch();
        t.span("sort", kind, || {
            morton::sort_keys(env, ctx, world, scratch, &cube, proc)
        });
        t.span("emit", kind, || {
            let plan = t.span("morton.plan", kind, || {
                morton::plan(env, ctx, scratch, world.n, k, cube)
            });
            let owned = t.span("morton.publish_counts", kind, || {
                morton::publish_counts(env, ctx, scratch, &plan, k, proc)
            });
            env.barrier(ctx);
            t.span("morton.fill", kind, || {
                morton::fill(env, ctx, flat, world, scratch, &plan, &owned, k)
            });
            env.barrier(ctx);
            if proc == 0 {
                t.span("morton.fill_spine", kind, || {
                    morton::fill_spine(env, ctx, flat, scratch, &plan)
                });
            }
        });
    }

    /// One whole step: tree, partition, force, update.
    fn step<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        proc: usize,
        step: u32,
        t: &Tracer,
    ) -> ForceListStats {
        let (kind, world) = (self.kind(), &self.world);
        t.span("tree", kind, || self.tree_phase(env, ctx, proc, step, t));
        t.span("partition", kind, || {
            if self.alg.builds_flat_directly() {
                let scratch = self.builder.morton_scratch();
                t.span("morton.partition", kind, || {
                    morton::partition(env, ctx, &self.flat, world, scratch, proc)
                });
            } else {
                t.span("costzones", kind, || {
                    costzones(env, ctx, &self.tree, world, proc)
                });
            }
            env.barrier(ctx);
        });
        let lists = t.span("force", kind, || {
            let lists = force_phase_grouped(
                env,
                ctx,
                &self.flat,
                world,
                &self.cfg.force,
                &self.scratch,
                self.cfg.group_size,
                proc,
            );
            env.barrier(ctx);
            lists
        });
        t.span("update", kind, || {
            update_phase(env, ctx, world, proc, self.cfg.dt);
            env.barrier(ctx);
        });
        lists
    }

    /// A whole job on already allocated state, as `SimEngine::run_with_state`
    /// runs it: reset, then the warm-up and measured steps inside one
    /// `WorkerPool::run`. Returns the interaction-list counts of the measured
    /// steps and the final bodies.
    pub fn run<E: Env>(
        &self,
        env: &E,
        pool: &WorkerPool,
        bodies: &[Body],
        t: &Tracer,
    ) -> (ForceListStats, Vec<Body>) {
        let kind = self.kind();
        t.span("reset", kind, || self.reset(bodies));
        let per_proc = t.span("pool.run", kind, || {
            pool.run(env, |proc, ctx| {
                let mut lists = ForceListStats::default();
                for step in 0..self.cfg.warmup_steps + self.cfg.measured_steps {
                    let s = t.span("step", kind, || self.step(env, ctx, proc, step as u32, t));
                    if step >= self.cfg.warmup_steps {
                        lists.accumulate(&s);
                    }
                }
                lists
            })
        });
        let mut lists = ForceListStats::default();
        per_proc.iter().for_each(|l| lists.accumulate(l));
        (lists, self.world.snapshot())
    }

    /// Check the tree the last [`Sim::tree_phase`] built against the bodies
    /// it was built from.
    pub fn validate_tree(&self) -> Result<(), String> {
        let (positions, masses) = (self.world.positions(), self.world.masses());
        if self.alg.builds_flat_directly() {
            validate_flat_morton(&self.flat, &positions, &masses, self.cfg.k).map(|_| ())
        } else {
            let opts = ValidateOpts {
                check_summaries: true,
                allow_empty_cells: self.builder.may_leave_husks(),
            };
            validate_with(&self.tree, &positions, &masses, opts).map(|_| ())
        }
    }
}
