//! The per-step phase pipeline: each simulation phase as an explicit stage.
//!
//! One step is the four phases of [`Phase::ALL`], in that order. Each phase
//! is one plain function — `tree_stage`, `partition_stage`, `force_stage`,
//! `update_stage`, with `morton_tree_stage` and `morton_partition_stage`
//! standing in for the first two under MORTON — and the accounting lives in
//! exactly one place, [`run_step`]: phase begin/end markers,
//! barrier-boundary phase times, [`CtxStats`] deltas (always via
//! [`CtxStats::delta_since`], never raw counter subtraction), and the tree
//! phase's lock/miss/fault attribution.
//!
//! Barrier placement is part of each stage's algorithm, so stages own their
//! barriers: the tree stage barriers internally between build, CoM and
//! flatten sub-phases but deliberately ends *without* one (the partition
//! stage's closing barrier is what separates the flatten's writes from the
//! force stage's reads); partition, force and update each end with the
//! phase-closing barrier.

use crate::algorithms::{morton, Builder};
use crate::app::{PhaseSample, ProcRecord, SimConfig};
use crate::env::{CtxStats, Env, Phase};
use crate::force::{force_phase_grouped, ForceScratch};
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

/// Per-stage metrics a stage reports back to the accounting loop. The tree
/// stages report sub-phase times (the flatten pass of the linked-tree
/// pipeline, or the key sort of the MORTON pipeline — never both); the
/// force stage reports the kernel's interaction-list statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageExtra {
    /// Time spent in the cooperative flat-snapshot pass.
    pub flatten: u64,
    /// Time spent in the parallel Morton key sort.
    pub sort: u64,
    /// Interaction-list group traversals performed by the batched kernel.
    pub force_groups: u64,
    /// Interaction-list entries emitted by the batched kernel.
    pub force_list_entries: u64,
    /// Pair interactions evaluated from the lists.
    pub force_interactions: u64,
}

impl StageExtra {
    pub const NONE: StageExtra = StageExtra {
        flatten: 0,
        sort: 0,
        force_groups: 0,
        force_list_entries: 0,
        force_interactions: 0,
    };
}

/// Run one full step for one processor, accumulating measurements into
/// `rec` when `measuring`. Phase times are measured at barrier boundaries via
/// `now` (`stats().time` may lag behind on some environments), so the
/// [`CtxStats`] delta of each stage has its `time` overwritten with the
/// barrier-boundary time — keeping the two accounts consistent.
pub fn run_step<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    io: &StageIo<'_>,
    proc: usize,
    step: u32,
    measuring: bool,
    rec: &mut ProcRecord,
) {
    // The five linked-tree algorithms run the standard stages; MORTON swaps
    // in its sort-then-emit tree stage and the cost-cut partition over the
    // emitted body order.
    let flat_directly = io.cfg.algorithm.builds_flat_directly();
    let mut prev_stats = env.stats(ctx);
    let mut prev_t = env.now(ctx);
    let mut sample = PhaseSample::default();
    let mut step_stats = [CtxStats::default(); 4];
    for phase in Phase::ALL {
        // Mark the phase on the worker thread so a panic anywhere in the
        // stage is attributed to (proc, phase, step) when propagated out
        // of the pool (see crate::harness::set_worker_phase).
        crate::harness::set_worker_phase(Some((phase, step)));
        env.phase_begin(ctx, phase, step);
        let extra = match (phase, flat_directly) {
            (Phase::Tree, false) => tree_stage(env, ctx, io, proc, step),
            (Phase::Tree, true) => morton_tree_stage(env, ctx, io, proc, step),
            (Phase::Partition, false) => partition_stage(env, ctx, io, proc),
            (Phase::Partition, true) => morton_partition_stage(env, ctx, io, proc),
            (Phase::Force, _) => force_stage(env, ctx, io, proc),
            (Phase::Update, _) => update_stage(env, ctx, io, proc),
        };
        env.phase_end(ctx, phase, step);
        let t = env.now(ctx);
        let stats = env.stats(ctx);
        if measuring {
            let mut delta = stats.delta_since(&prev_stats);
            delta.time = t - prev_t;
            *sample.phase_mut(phase) += delta.time;
            step_stats[phase.index()].accumulate(&delta);
            rec.phases[phase.index()].accumulate(&delta);
            rec.barrier_wait += delta.barrier_wait;
            if phase == Phase::Tree {
                rec.tree_locks += delta.lock_acquires;
                rec.tree_remote_misses += delta.remote_misses;
                rec.tree_page_faults += delta.page_faults;
                rec.tree_lock_wait += delta.lock_wait;
                rec.flatten_time += extra.flatten;
                rec.sort_time += extra.sort;
            }
            if phase == Phase::Force {
                rec.force_groups += extra.force_groups;
                rec.force_list_entries += extra.force_list_entries;
                rec.force_interactions += extra.force_interactions;
            }
        }
        prev_stats = stats;
        prev_t = t;
    }
    crate::harness::set_worker_phase(None);
    if measuring {
        rec.steps.push(sample);
        rec.step_stats.push(step_stats);
    }
}

/// Tree-build phase: optional Morton reorder, bounds reduction, build,
/// center-of-mass pass, and the cooperative flat-snapshot pass.
fn tree_stage<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    io: &StageIo<'_>,
    proc: usize,
    step: u32,
) -> StageExtra {
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
    StageExtra {
        flatten: flatten_t,
        ..StageExtra::NONE
    }
}

/// MORTON tree-build phase: bounds reduction, parallel radix sort of the
/// Morton keys, then direct emission of the flat snapshot from the sorted
/// key array — no linked tree, no flatten, no locks.
fn morton_tree_stage<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    io: &StageIo<'_>,
    proc: usize,
    step: u32,
) -> StageExtra {
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
    StageExtra {
        sort: sort_t,
        ..StageExtra::NONE
    }
}

/// MORTON partitioning: a cost-weighted cut of the emitted depth-first
/// body order (costzones without the tree walk).
fn morton_partition_stage<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    io: &StageIo<'_>,
    proc: usize,
) -> StageExtra {
    let scratch = io.builder.morton_scratch();
    morton::partition(env, ctx, io.flat, io.world, scratch, proc);
    env.barrier(ctx);
    StageExtra::NONE
}

/// Costzones partitioning.
fn partition_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize) -> StageExtra {
    costzones(env, ctx, io.tree, io.world, proc);
    env.barrier(ctx);
    StageExtra::NONE
}

/// Force computation over the flat snapshot: the batched
/// traversal/evaluation kernel.
fn force_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize) -> StageExtra {
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
    StageExtra {
        force_groups: fl.groups,
        force_list_entries: fl.list_entries,
        force_interactions: fl.interactions,
        ..StageExtra::NONE
    }
}

/// Position/velocity integration.
fn update_stage<E: Env>(env: &E, ctx: &mut E::Ctx, io: &StageIo<'_>, proc: usize) -> StageExtra {
    update_phase(env, ctx, io.world, proc, io.cfg.dt);
    env.barrier(ctx);
    StageExtra::NONE
}
