//! The complete parallel Barnes-Hut application: per-step phase sequencing
//! (bounds → tree build → center of mass → costzones → forces → update),
//! phase timing, and run statistics — the measurement protocol of the paper
//! (a number of warm-up steps to let the partition settle, then measured
//! steps).
//!
//! The step itself lives in [`crate::pipeline`], one function per stage;
//! this module owns the run-level protocol (warm-up vs. measured steps,
//! validation, final snapshot) and the run's one record of what each phase
//! did: every processor keeps a [`StepRecord`] per step, warm-up included,
//! and every aggregate, step series, table and trace is a fold over those
//! ([`RunStats`]). Workers come from a [`WorkerPool`]; [`run_simulation`]
//! spins up a throwaway pool, while [`crate::engine::SimEngine`] keeps pool
//! and state alive across runs. Both allocate through the same
//! [`crate::engine`] path.

use std::ops::Range;

use crate::algorithms::{Algorithm, Builder};
use crate::body::Body;
use crate::engine::EngineState;
use crate::env::{CtxStats, Env, Phase};
use crate::force::{ForceListStats, ForceParams, ForceScratch, MAX_GROUP_SIZE};
use crate::harness::WorkerPool;
use crate::pipeline::{run_step, StageExtra, StageIo};
use crate::tree::flat::FlatTree;
use crate::tree::types::SharedTree;
use crate::tree::validate::{validate_with, ValidateOpts};
use crate::world::World;

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub algorithm: Algorithm,
    /// Leaf threshold k (bodies per leaf before subdivision).
    pub k: usize,
    pub force: ForceParams,
    /// Integration time step.
    pub dt: f64,
    /// Steps run before measurement starts (paper uses 2).
    pub warmup_steps: usize,
    /// Steps measured (paper uses 2).
    pub measured_steps: usize,
    /// SPACE cost-rebalance factor: a would-be-final subspace whose cost
    /// exceeds `factor * total_cost / P` is refined one extra round.
    /// `0.0` disables cost-triggered refinement.
    pub space_rebalance: f64,
    /// Bodies per interaction-list group in the force kernel, in
    /// `1..=MAX_GROUP_SIZE`, default `MAX_GROUP_SIZE`: the evaluation
    /// issues the same vector lanes at every multiple of
    /// [`EVAL_LANES`](crate::force::EVAL_LANES), so the widest group pays
    /// for the fewest walks. `1` builds per-body lists
    /// (bitwise identical to the sequential reference walk over the same
    /// octree).
    pub group_size: usize,
    /// Morton-reorder each zone's bodies every this many steps (including
    /// step 0); `0` disables the pass.
    pub morton_every: usize,
    /// Validate the final tree against all invariants after the run.
    pub validate: bool,
}

impl SimConfig {
    pub fn new(algorithm: Algorithm) -> SimConfig {
        SimConfig {
            algorithm,
            k: 8,
            force: ForceParams::default(),
            dt: 0.025,
            warmup_steps: 2,
            measured_steps: 2,
            space_rebalance: 0.25,
            group_size: MAX_GROUP_SIZE,
            morton_every: 4,
            validate: true,
        }
    }
}

/// What one step did on one processor, measured at the phase boundaries
/// (so a phase's time includes any load-imbalance wait at its closing
/// barrier).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepRecord {
    /// [`Env::now`] when the step began: wall nanoseconds natively,
    /// simulated cycles under `ssmp`.
    pub start: u64,
    /// Each phase's [`CtxStats`] delta on this processor, indexed by
    /// [`Phase::index`], with `time` the phase's duration. Phase `i` began
    /// at `start` plus the durations of phases `0..i`.
    pub phases: [CtxStats; 4],
    /// What the stages reported besides: sub-phase times and force-list
    /// counts.
    pub extra: StageExtra,
}

impl StepRecord {
    /// The step's duration: its four phase times summed.
    pub fn time(&self) -> u64 {
        self.phases.iter().map(|p| p.time).sum()
    }
}

/// Everything one processor recorded over a run.
#[derive(Debug, Clone)]
pub struct ProcRecord {
    pub proc: usize,
    /// One record per step, warm-up steps included
    /// ([`RunStats::measured`] selects the rest).
    pub steps: Vec<StepRecord>,
    pub final_stats: CtxStats,
}

impl ProcRecord {
    /// This processor's per-phase deltas summed over `steps`, indexed by
    /// [`Phase::index`].
    pub fn phases(&self, steps: Range<usize>) -> [CtxStats; 4] {
        let mut sum = [CtxStats::default(); 4];
        for s in &self.steps[steps] {
            for (acc, d) in sum.iter_mut().zip(&s.phases) {
                acc.accumulate(d);
            }
        }
        sum
    }
}

/// One phase of one step, aggregated over processors
/// ([`RunStats::step_rows`]).
#[derive(Debug, Clone)]
pub struct StepPhaseRow {
    /// Step index, counting warm-up steps (step 0 is the first warm-up).
    pub step: usize,
    pub phase: Phase,
    /// Counters summed over processors; `time` is the critical path, the
    /// maximum over processors.
    pub stats: CtxStats,
    /// Load imbalance of the phase's work over processors (see
    /// [`RunStats::tree_imbalance`]).
    pub imbalance: f64,
}

/// Fold one processor's delta into an aggregate over processors: counters
/// are summed, `time` is the maximum (the critical path, as the paper
/// reports it).
fn merge_proc(agg: &mut CtxStats, d: &CtxStats) {
    let time = agg.time.max(d.time);
    agg.accumulate(d);
    agg.time = time;
}

/// The maximum over processors of a phase's *work* (its time minus barrier
/// wait: raw phase times are taken at barrier boundaries and therefore
/// agree across processors) divided by the average. 1.0 is perfectly
/// balanced, and so is no work at all.
fn imbalance(deltas: impl Iterator<Item = CtxStats>) -> f64 {
    let work: Vec<u64> = deltas
        .map(|d| d.time.saturating_sub(d.barrier_wait))
        .collect();
    let max = work.iter().max().copied().unwrap_or(0) as f64;
    let avg = work.iter().sum::<u64>() as f64 / work.len().max(1) as f64;
    if avg == 0.0 {
        1.0
    } else {
        max / avg
    }
}

/// Result of a full run.
#[derive(Debug)]
pub struct RunStats {
    pub algorithm: Algorithm,
    pub n: usize,
    pub procs: usize,
    pub k: usize,
    pub warmup_steps: usize,
    pub measured_steps: usize,
    pub procs_records: Vec<ProcRecord>,
    /// `None` when the final tree validated (or validation was disabled).
    pub validation_error: Option<String>,
}

/// Every aggregate below that takes no range of steps folds over the
/// measured steps alone.
impl RunStats {
    /// The measured steps' indices into every [`ProcRecord::steps`].
    pub fn measured(&self) -> Range<usize> {
        self.warmup_steps..self.warmup_steps + self.measured_steps
    }

    /// Each processor's measured steps.
    fn measured_records(&self) -> impl Iterator<Item = &[StepRecord]> {
        self.procs_records.iter().map(|r| &r.steps[self.measured()])
    }

    /// The maximum over processors of `f` summed over measured steps.
    fn max_over_procs(&self, f: impl Fn(&StepRecord) -> u64) -> u64 {
        self.measured_records()
            .map(|steps| steps.iter().map(&f).sum())
            .max()
            .unwrap_or(0)
    }

    /// Total measured time: the maximum over processors of the summed phase
    /// times (post-barrier these agree across processors).
    pub fn total_time(&self) -> u64 {
        self.max_over_procs(StepRecord::time)
    }

    /// Total measured tree-build time (max over processors).
    pub fn tree_time(&self) -> u64 {
        self.phase_stats(Phase::Tree).time
    }

    /// Fraction of measured time spent building the tree.
    pub fn tree_fraction(&self) -> f64 {
        let total = self.total_time();
        if total == 0 {
            0.0
        } else {
            self.tree_time() as f64 / total as f64
        }
    }

    /// Lock acquisitions in the measured tree-build phases, per processor.
    pub fn tree_locks_per_proc(&self) -> Vec<u64> {
        self.procs_records
            .iter()
            .map(|r| r.phases(self.measured())[Phase::Tree.index()].lock_acquires)
            .collect()
    }

    /// Each phase's statistics over `steps`, aggregated across processors
    /// (counters summed, `time` the maximum over processors) and indexed by
    /// [`Phase::index`].
    pub fn phases_over(&self, steps: Range<usize>) -> [CtxStats; 4] {
        let mut agg = [CtxStats::default(); 4];
        for r in &self.procs_records {
            for (a, d) in agg.iter_mut().zip(&r.phases(steps.clone())) {
                merge_proc(a, d);
            }
        }
        agg
    }

    /// One phase's measured statistics aggregated across processors: counters
    /// are summed, `time` is the maximum over processors (the phase's critical
    /// path, as the paper reports it).
    pub fn phase_stats(&self, phase: Phase) -> CtxStats {
        self.phases_over(self.measured())[phase.index()]
    }

    /// Total barrier wait time across processors during measured steps.
    pub fn barrier_wait_total(&self) -> u64 {
        let phases = self.phases_over(self.measured());
        phases.iter().map(|p| p.barrier_wait).sum()
    }

    /// Time spent flattening the tree snapshot (max over processors; the
    /// sub-phase's critical path, already included in the tree phase).
    pub fn flatten_cycles(&self) -> u64 {
        self.max_over_procs(|s| s.extra.flatten)
    }

    /// Time spent in the parallel Morton key sort (max over processors; the
    /// sub-phase's critical path, already included in the tree phase;
    /// nonzero only for MORTON).
    pub fn sort_cycles(&self) -> u64 {
        self.max_over_procs(|s| s.extra.sort)
    }

    /// Tree-phase load imbalance: the maximum over processors of measured
    /// tree-phase *work* (phase time minus barrier wait — the raw phase
    /// times are taken at barrier boundaries and therefore agree across
    /// processors) divided by the average. 1.0 is perfectly balanced.
    pub fn tree_imbalance(&self) -> f64 {
        imbalance(
            self.procs_records
                .iter()
                .map(|r| r.phases(self.measured())[Phase::Tree.index()]),
        )
    }

    /// Number of measured steps actually recorded (0 for an empty run).
    pub fn steps_recorded(&self) -> usize {
        self.procs_records
            .iter()
            .map(|r| r.steps.len().saturating_sub(self.warmup_steps))
            .max()
            .unwrap_or(0)
    }

    /// One row per (step, phase) of `steps`, in step then phase order:
    /// the phase's critical-path time and counters summed over processors,
    /// and its load imbalance. The run-level aggregates decomposed step by
    /// step.
    pub fn step_rows(&self, steps: Range<usize>) -> Vec<StepPhaseRow> {
        steps
            .flat_map(|step| {
                Phase::ALL.map(|phase| {
                    let deltas = || {
                        self.procs_records
                            .iter()
                            .map(move |r| r.steps[step].phases[phase.index()])
                    };
                    let mut stats = CtxStats::default();
                    deltas().for_each(|d| merge_proc(&mut stats, &d));
                    StepPhaseRow {
                        step,
                        phase,
                        stats,
                        imbalance: imbalance(deltas()),
                    }
                })
            })
            .collect()
    }

    /// The batched force kernel's list counters summed over all processors
    /// and measured steps.
    fn force_lists(&self) -> ForceListStats {
        let mut sum = ForceListStats::default();
        for s in self.measured_records().flatten() {
            sum.accumulate(&s.extra.force);
        }
        sum
    }

    /// Interaction-list group traversals performed by the batched force
    /// kernel over all processors and measured steps.
    pub fn force_groups(&self) -> u64 {
        self.force_lists().groups
    }

    /// Interaction-list entries emitted by the batched force kernel over
    /// all processors and measured steps.
    pub fn force_list_entries(&self) -> u64 {
        self.force_lists().list_entries
    }

    /// Pair interactions the batched force kernel evaluated from its lists
    /// over all processors and measured steps.
    pub fn force_interactions(&self) -> u64 {
        self.force_lists().interactions
    }

    /// Mean interaction-list length (entries per group traversal); `0.0`
    /// for an empty run.
    pub fn force_list_len(&self) -> f64 {
        let groups = self.force_groups();
        if groups == 0 {
            0.0
        } else {
            self.force_list_entries() as f64 / groups as f64
        }
    }

    /// List-reuse factor: pair interactions evaluated per emitted list
    /// entry (approaches the group size for spatially compact groups);
    /// `0.0` for an empty run.
    pub fn force_list_reuse(&self) -> f64 {
        let entries = self.force_list_entries();
        if entries == 0 {
            0.0
        } else {
            self.force_interactions() as f64 / entries as f64
        }
    }

    /// Panic unless the run validated.
    pub fn assert_valid(&self) {
        if let Some(e) = &self.validation_error {
            panic!("{} run failed validation: {e}", self.algorithm);
        }
    }
}

/// Nearest-rank percentile of an unsorted `u64` sample. `p` is in
/// `[0, 100]`; the result is always an observed value (no interpolation),
/// and `0` for an empty sample. Used for per-step summaries: p50/p99 of a
/// run's per-step series.
pub fn percentile_u64(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted `f64` sample (`0.0` when empty).
pub fn percentile_f64(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run the complete application on `env` and return per-processor records.
pub fn run_simulation<E: Env>(env: &E, cfg: &SimConfig, bodies: &[Body]) -> RunStats {
    run_simulation_with_state(env, cfg, bodies).0
}

/// Run the application and also return the final body state (for examples
/// and physics tests).
pub fn run_simulation_with_state<E: Env>(
    env: &E,
    cfg: &SimConfig,
    bodies: &[Body],
) -> (RunStats, Vec<Body>) {
    let mut state = EngineState::new(env, cfg, bodies);
    state.run(env, &WorkerPool::new(env.num_procs()), cfg)
}

/// Run the warm-up + measured protocol over already-allocated state and
/// return the run's statistics plus the final body snapshot. This is the
/// single execution path shared by the one-shot [`run_simulation`] entry
/// points and the state-reusing [`crate::engine::SimEngine`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<E: Env>(
    env: &E,
    pool: &WorkerPool,
    cfg: &SimConfig,
    world: &World,
    tree: Option<&SharedTree>,
    flat: &FlatTree,
    force_scratch: &ForceScratch,
    builder: &Builder,
) -> (RunStats, Vec<Body>) {
    assert!(
        (1..=MAX_GROUP_SIZE).contains(&cfg.group_size),
        "group_size must be in 1..={MAX_GROUP_SIZE}, got {}",
        cfg.group_size
    );
    let total_steps = cfg.warmup_steps + cfg.measured_steps;
    // Positions as of the last tree build, captured for validation (the
    // final update phase moves bodies after the tree was summarized).
    let tree_snapshot: crate::sync::Mutex<Option<Vec<crate::math::Vec3>>> =
        crate::sync::Mutex::new(None);
    let io = StageIo {
        cfg,
        world,
        tree,
        flat,
        force_scratch,
        builder,
        total_steps,
        tree_snapshot: &tree_snapshot,
    };

    let procs_records = pool.run(env, |proc, ctx| {
        let steps = (0..total_steps)
            .map(|step| run_step(env, ctx, &io, proc, step as u32))
            .collect();
        ProcRecord {
            proc,
            steps,
            final_stats: env.stats(ctx),
        }
    });

    let validation_error = if cfg.validate {
        let positions = tree_snapshot
            .lock()
            .take()
            .unwrap_or_else(|| world.positions());
        if cfg.algorithm.builds_flat_directly() {
            // MORTON never populates the linked tree; validate the flat
            // snapshot against a sequential sort-then-emit reference.
            crate::tree::validate::validate_flat_morton(flat, &positions, &world.masses(), cfg.k)
                .err()
        } else {
            let tree = io.linked_tree();
            validate_with(
                tree,
                &positions,
                &world.masses(),
                ValidateOpts {
                    check_summaries: true,
                    allow_empty_cells: builder.may_leave_husks(),
                },
            )
            .and_then(|_| builder.check_carried_state(tree))
            .err()
        }
    } else {
        None
    };
    let state = world.snapshot();

    (
        RunStats {
            algorithm: cfg.algorithm,
            n: world.n,
            procs: env.num_procs(),
            k: cfg.k,
            warmup_steps: cfg.warmup_steps,
            measured_steps: cfg.measured_steps,
            procs_records,
            validation_error,
        },
        state,
    )
}

#[cfg(test)]
mod percentile_tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile_u64(&[], 50.0), 0);
        assert_eq!(percentile_u64(&[7], 50.0), 7);
        assert_eq!(percentile_u64(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&v, 50.0), 50);
        assert_eq!(percentile_u64(&v, 99.0), 99);
        assert_eq!(percentile_u64(&v, 100.0), 100);
        assert_eq!(percentile_u64(&v, 0.0), 1);
        // Unsorted input is handled.
        assert_eq!(percentile_u64(&[30, 10, 20], 50.0), 20);
        assert_eq!(percentile_f64(&[], 50.0), 0.0);
        assert_eq!(percentile_f64(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_f64(&[3.0, 1.0, 2.0], 99.0), 3.0);
    }
}
