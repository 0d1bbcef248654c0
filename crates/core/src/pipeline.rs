//! The per-step phase pipeline: each simulation phase as an explicit stage.
//!
//! One step is the four phases of [`Phase::ALL`], in that order. Each phase
//! is one plain function — `tree_stage`, `partition_stage`, `force_stage`,
//! `update_stage`, with `morton_tree_stage` and `morton_partition_stage`
//! standing in for the first two under MORTON — and the accounting lives in
//! exactly one place, [`run_step`]: phase begin/end markers,
//! barrier-boundary phase times and [`CtxStats`] deltas (always via
//! [`CtxStats::delta_since`], never raw counter subtraction), returned as
//! the step's one [`StepRecord`].
//!
//! Barrier placement is part of each stage's algorithm, so stages own their
//! barriers: the tree stage barriers internally between build, CoM and
//! flatten sub-phases but deliberately ends *without* one (the partition
//! stage's closing barrier is what separates the flatten's writes from the
//! force stage's reads); partition, force and update each end with the
//! phase-closing barrier.

use crate::algorithms::{morton, Builder};
use crate::app::{SimConfig, StepRecord};
use crate::env::{CtxStats, Env, Phase};
use crate::force::{force_phase_grouped, ForceListStats, ForceScratch};
use crate::math::Vec3;
use crate::partition::{costzones, morton_reorder};
use crate::sync::Mutex;
use crate::tree::flat::FlatTree;
use crate::tree::types::SharedTree;
use crate::update_phase::update_phase;
use crate::world::World;

/// Everything a stage may touch: the run's configuration and shared state.
/// One instance is shared by all processors for the whole run.
pub struct StageIo<'a> {
    pub cfg: &'a SimConfig,
    pub world: &'a World,
    pub tree: &'a SharedTree,
    pub flat: &'a FlatTree,
    /// Per-processor interaction-list scratch for the batched force kernel.
    pub force_scratch: &'a ForceScratch,
    pub builder: &'a Builder,
    pub total_steps: usize,
    /// Positions as of the last tree build, captured for validation (the
    /// final update stage moves bodies after the tree was summarized).
    pub tree_snapshot: &'a Mutex<Option<Vec<Vec3>>>,
}

/// What the stages measure besides the phase deltas. The tree stages
/// report a sub-phase time (the flatten pass of the linked-tree pipeline,
/// or the key sort of the MORTON pipeline — never both); the force stage
/// reports the kernel's interaction-list counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageExtra {
    /// Time spent in the cooperative flat-snapshot pass.
    pub flatten: u64,
    /// Time spent in the parallel Morton key sort.
    pub sort: u64,
    /// The batched kernel's group traversals, list entries and interactions.
    pub force: ForceListStats,
}

/// Run one full step for one processor and return what it did. Phase times
/// are measured at barrier boundaries via `now` (`stats().time` may lag
/// behind on some environments), so each phase's [`CtxStats`] delta has its
/// `time` overwritten with the barrier-boundary time — keeping the two
/// accounts consistent.
pub fn run_step<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    io: &StageIo<'_>,
    proc: usize,
    step: u32,
) -> StepRecord {
    // The five linked-tree algorithms run the standard stages; MORTON swaps
    // in its sort-then-emit tree stage and the cost-cut partition over the
    // emitted body order.
    let flat_directly = io.cfg.algorithm.builds_flat_directly();
    let mut prev_stats = env.stats(ctx);
    let mut rec = StepRecord {
        start: env.now(ctx),
        ..StepRecord::default()
    };
    let mut prev_t = rec.start;
    for phase in Phase::ALL {
        // Mark the phase on the worker thread so a panic anywhere in the
        // stage is attributed to (proc, phase, step) when propagated out
        // of the pool (see crate::harness::set_worker_phase).
        crate::harness::set_worker_phase(Some((phase, step)));
        env.phase_begin(ctx, phase, step);
        let extra = &mut rec.extra;
        match (phase, flat_directly) {
            (Phase::Tree, false) => extra.flatten = tree_stage(env, ctx, io, proc, step),
            (Phase::Tree, true) => extra.sort = morton_tree_stage(env, ctx, io, proc, step),
            (Phase::Partition, false) => partition_stage(env, ctx, io, proc),
            (Phase::Partition, true) => morton_partition_stage(env, ctx, io, proc),
            (Phase::Force, _) => extra.force = force_stage(env, ctx, io, proc),
            (Phase::Update, _) => update_stage(env, ctx, io, proc),
        }
        env.phase_end(ctx, phase, step);
        let t = env.now(ctx);
        let stats = env.stats(ctx);
        rec.phases[phase.index()] = CtxStats {
            time: t - prev_t,
            ..stats.delta_since(&prev_stats)
        };
        prev_stats = stats;
        prev_t = t;
    }
    crate::harness::set_worker_phase(None);
    rec
}

/// Tree-build phase: optional Morton reorder, bounds reduction, build,
/// center-of-mass pass, and the cooperative flat-snapshot pass. Returns the
/// flatten pass's time.
fn tree_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize, step: u32) -> u64 {
    let cfg = io.cfg;
    if cfg.morton_every > 0 && (step as usize).is_multiple_of(cfg.morton_every) {
        morton_reorder(env, ctx, io.world, proc);
    }
    let cube = crate::algorithms::common::bounds_phase(env, ctx, io.world, proc);
    io.builder
        .build(env, ctx, io.tree, io.world, proc, step, cube);
    env.barrier(ctx);
    io.builder.com(env, ctx, io.tree, io.world, proc, step);
    env.barrier(ctx);
    // Snapshot the summarized tree. The fill's writes are separated
    // from the force phase's reads by the partition stage's closing
    // barrier.
    let f0 = env.now(ctx);
    let plan = io.flat.plan(env, ctx, io.tree);
    io.flat.publish_counts(env, ctx, io.tree, &plan, proc);
    env.barrier(ctx);
    io.flat.fill(env, ctx, io.tree, &plan, proc);
    let flatten_t = env.now(ctx) - f0;
    if cfg.validate && proc == 0 && step as usize + 1 == io.total_steps {
        *io.tree_snapshot.lock() = Some(io.world.positions());
    }
    flatten_t
}

/// MORTON tree-build phase: bounds reduction, parallel radix sort of the
/// Morton keys, then direct emission of the flat snapshot from the sorted
/// key array — no linked tree, no flatten, no locks. Returns the sort's
/// time.
fn morton_tree_stage<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    io: &StageIo<'_>,
    proc: usize,
    step: u32,
) -> u64 {
    let cfg = io.cfg;
    let scratch = io.builder.morton_scratch();
    // No periodic Morton reorder: the emitted body order *is* the
    // Morton order, refreshed every step by the partition stage.
    let cube = crate::algorithms::common::bounds_phase(env, ctx, io.world, proc);
    let s0 = env.now(ctx);
    morton::sort_keys(env, ctx, io.world, scratch, &cube, proc);
    let sort_t = env.now(ctx) - s0;
    // Emission: plan is deterministic and identical on every
    // processor; owners publish counts, a barrier, disjoint fill,
    // another barrier, then processor 0 summarizes the spine. The
    // partition stage's closing barrier separates the spine writes
    // from the force phase's reads (the partition itself reads only
    // `flat.bodies`, complete since the post-fill barrier).
    let plan = morton::plan(env, ctx, scratch, io.world.n, cfg.k, cube);
    let owned = morton::publish_counts(env, ctx, scratch, &plan, cfg.k, proc);
    env.barrier(ctx);
    morton::fill(env, ctx, io.flat, io.world, scratch, &plan, &owned, cfg.k);
    env.barrier(ctx);
    if proc == 0 {
        morton::fill_spine(env, ctx, io.flat, scratch, &plan);
    }
    if cfg.validate && proc == 0 && step as usize + 1 == io.total_steps {
        *io.tree_snapshot.lock() = Some(io.world.positions());
    }
    sort_t
}

/// MORTON partitioning: a cost-weighted cut of the emitted depth-first
/// body order (costzones without the tree walk).
fn morton_partition_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize) {
    let scratch = io.builder.morton_scratch();
    morton::partition(env, ctx, io.flat, io.world, scratch, proc);
    env.barrier(ctx);
}

/// Costzones partitioning.
fn partition_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize) {
    costzones(env, ctx, io.tree, io.world, proc);
    env.barrier(ctx);
}

/// Force computation over the flat snapshot: the batched
/// traversal/evaluation kernel. Returns the kernel's list counters.
fn force_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize) -> ForceListStats {
    let fl = force_phase_grouped(
        env,
        ctx,
        io.flat,
        io.world,
        &io.cfg.force,
        io.force_scratch,
        io.cfg.group_size,
        proc,
    );
    env.barrier(ctx);
    fl
}

/// Position/velocity integration.
fn update_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize) {
    update_phase(env, ctx, io.world, proc, io.cfg.dt);
    env.barrier(ctx);
}
