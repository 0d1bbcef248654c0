//! The complete parallel Barnes-Hut application: per-step phase sequencing
//! (bounds → tree build → center of mass → costzones → forces → update),
//! phase timing, and run statistics — the measurement protocol of the paper
//! (a number of warm-up steps to let the partition settle, then measured
//! steps).
//!
//! The step itself lives in [`crate::pipeline`], one function per stage;
//! this module owns the run-level protocol (warm-up vs. measured steps,
//! validation, final snapshot) and the [`RunStats`] aggregation. Workers
//! come from a [`WorkerPool`]; [`run_simulation`] spins up a throwaway pool,
//! while [`crate::engine::SimEngine`] keeps pool and state alive across
//! runs.

use crate::algorithms::{Algorithm, Builder};
use crate::body::Body;
use crate::env::{CtxStats, Env, Phase};
use crate::force::{ForceParams, ForceScratch, MAX_GROUP_SIZE};
use crate::harness::WorkerPool;
use crate::pipeline::{run_step, StageIo};
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
    /// Override for the SPACE subdivision threshold.
    pub space_threshold: Option<usize>,
    /// SPACE cost-rebalance factor: a would-be-final subspace whose cost
    /// exceeds `factor * total_cost / P` is refined one extra round.
    /// `0.0` disables cost-triggered refinement.
    pub space_rebalance: f64,
    /// Bodies per interaction-list group in the force kernel, in
    /// `1..=MAX_GROUP_SIZE`, default `MAX_GROUP_SIZE`: the evaluation
    /// issues the same vector lanes at every multiple of four, so the
    /// widest group pays for the fewest walks. `1` builds per-body lists
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
            space_threshold: None,
            space_rebalance: 0.25,
            group_size: MAX_GROUP_SIZE,
            morton_every: 4,
            validate: true,
        }
    }
}

/// Time spent in each phase of one step, in the environment's time unit
/// (wall nanoseconds natively, simulated cycles under `ssmp`). Measured at
/// barrier boundaries, so a phase time includes any load-imbalance wait.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSample {
    /// Bounds reduction + tree build + center-of-mass pass.
    pub tree: u64,
    /// Costzones partitioning.
    pub partition: u64,
    /// Force computation.
    pub force: u64,
    /// Position/velocity update.
    pub update: u64,
}

impl PhaseSample {
    pub fn total(&self) -> u64 {
        self.tree + self.partition + self.force + self.update
    }

    /// The slot a phase's time accumulates into.
    pub fn phase_mut(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Tree => &mut self.tree,
            Phase::Partition => &mut self.partition,
            Phase::Force => &mut self.force,
            Phase::Update => &mut self.update,
        }
    }
}

/// Everything one processor recorded over the measured steps.
#[derive(Debug, Clone)]
pub struct ProcRecord {
    pub proc: usize,
    pub steps: Vec<PhaseSample>,
    /// Per-phase [`CtxStats`] deltas accumulated over the measured steps,
    /// indexed by [`Phase::index`]: each phase's time, lock, barrier and
    /// protocol activity on this processor (`time` equals the summed phase
    /// times of [`ProcRecord::steps`]).
    pub phases: [CtxStats; 4],
    /// The same per-phase deltas kept per measured step (parallel to
    /// [`ProcRecord::steps`]): entry `s` holds step `s`'s delta for each
    /// phase, so run-level aggregates can be decomposed into a time series.
    /// Summing over steps reproduces [`ProcRecord::phases`] exactly.
    pub step_stats: Vec<[CtxStats; 4]>,
    /// Lock acquisitions during the measured tree-build phases (Figure 15).
    pub tree_locks: u64,
    /// Remote misses during the measured tree-build phases.
    pub tree_remote_misses: u64,
    /// Page faults during the measured tree-build phases.
    pub tree_page_faults: u64,
    /// Lock wait during the measured tree-build phases.
    pub tree_lock_wait: u64,
    /// Time spent waiting at barriers during measured steps (Table 2).
    pub barrier_wait: u64,
    /// Time this processor spent in the flatten sub-phase of the tree phase
    /// during measured steps (zero for MORTON, which never flattens).
    pub flatten_time: u64,
    /// Time this processor spent in the parallel Morton key sort during
    /// measured steps (nonzero only for MORTON).
    pub sort_time: u64,
    /// Interaction-list group traversals the batched force kernel performed
    /// during measured steps.
    pub force_groups: u64,
    /// Interaction-list entries the batched force kernel emitted during
    /// measured steps.
    pub force_list_entries: u64,
    /// Pair interactions the batched force kernel evaluated from its lists
    /// during measured steps.
    pub force_interactions: u64,
    pub final_stats: CtxStats,
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

impl RunStats {
    /// Total measured time: the maximum over processors of the summed phase
    /// times (post-barrier these agree across processors).
    pub fn total_time(&self) -> u64 {
        self.procs_records
            .iter()
            .map(|r| r.steps.iter().map(PhaseSample::total).sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    /// Total measured tree-build time (max over processors).
    pub fn tree_time(&self) -> u64 {
        self.procs_records
            .iter()
            .map(|r| r.steps.iter().map(|s| s.tree).sum::<u64>())
            .max()
            .unwrap_or(0)
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

    /// Measured force-phase time (max over processors).
    pub fn force_time(&self) -> u64 {
        self.procs_records
            .iter()
            .map(|r| r.steps.iter().map(|s| s.force).sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    /// Lock acquisitions in the measured tree-build phases, per processor.
    pub fn tree_locks_per_proc(&self) -> Vec<u64> {
        self.procs_records.iter().map(|r| r.tree_locks).collect()
    }

    /// One phase's measured statistics aggregated across processors:
    /// counters are summed, `time` is the maximum over processors (the
    /// phase's critical path, as the paper reports it).
    pub fn phase_stats(&self, phase: Phase) -> CtxStats {
        let mut agg = CtxStats::default();
        for r in &self.procs_records {
            let p = &r.phases[phase.index()];
            agg.time = agg.time.max(p.time);
            agg.lock_acquires += p.lock_acquires;
            agg.lock_wait += p.lock_wait;
            agg.barrier_wait += p.barrier_wait;
            agg.remote_misses += p.remote_misses;
            agg.local_misses += p.local_misses;
            agg.page_faults += p.page_faults;
        }
        agg
    }

    /// Total barrier wait time across processors during measured steps.
    pub fn barrier_wait_total(&self) -> u64 {
        self.procs_records.iter().map(|r| r.barrier_wait).sum()
    }

    /// Time spent flattening the tree snapshot (max over processors; the
    /// sub-phase's critical path, already included in the tree phase).
    pub fn flatten_cycles(&self) -> u64 {
        self.procs_records
            .iter()
            .map(|r| r.flatten_time)
            .max()
            .unwrap_or(0)
    }

    /// Time spent in the parallel Morton key sort (max over processors; the
    /// sub-phase's critical path, already included in the tree phase;
    /// nonzero only for MORTON).
    pub fn sort_cycles(&self) -> u64 {
        self.procs_records
            .iter()
            .map(|r| r.sort_time)
            .max()
            .unwrap_or(0)
    }

    /// Tree-phase load imbalance: the maximum over processors of measured
    /// tree-phase *work* (phase time minus barrier wait — the raw phase
    /// times are taken at barrier boundaries and therefore agree across
    /// processors) divided by the average. 1.0 is perfectly balanced.
    pub fn tree_imbalance(&self) -> f64 {
        let times: Vec<u64> = self
            .procs_records
            .iter()
            .map(|r| {
                let p = &r.phases[Phase::Tree.index()];
                p.time.saturating_sub(p.barrier_wait)
            })
            .collect();
        if times.is_empty() {
            return 1.0;
        }
        let max = *times.iter().max().unwrap() as f64;
        let avg = times.iter().sum::<u64>() as f64 / times.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// Number of measured steps actually recorded (0 for an empty run).
    pub fn steps_recorded(&self) -> usize {
        self.procs_records
            .iter()
            .map(|r| r.steps.len())
            .max()
            .unwrap_or(0)
    }

    /// Per-measured-step time of one phase: entry `s` is the maximum over
    /// processors of step `s`'s phase time (the step's critical path —
    /// post-barrier these agree across processors).
    pub fn step_phase_times(&self, phase: Phase) -> Vec<u64> {
        (0..self.steps_recorded())
            .map(|s| {
                self.procs_records
                    .iter()
                    .filter_map(|r| r.steps.get(s))
                    .map(|smp| match phase {
                        Phase::Tree => smp.tree,
                        Phase::Partition => smp.partition,
                        Phase::Force => smp.force,
                        Phase::Update => smp.update,
                    })
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Per-measured-step total time (max over processors of the step's
    /// summed phase times). Sums to [`RunStats::total_time`].
    pub fn step_totals(&self) -> Vec<u64> {
        (0..self.steps_recorded())
            .map(|s| {
                self.procs_records
                    .iter()
                    .filter_map(|r| r.steps.get(s))
                    .map(PhaseSample::total)
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Per-measured-step lock wait, summed over processors and phases.
    pub fn step_lock_waits(&self) -> Vec<u64> {
        self.step_counter(|c| c.lock_wait)
    }

    /// Per-measured-step barrier wait, summed over processors and phases.
    pub fn step_barrier_waits(&self) -> Vec<u64> {
        self.step_counter(|c| c.barrier_wait)
    }

    /// Per-measured-step count of some [`CtxStats`] field, summed over
    /// processors and phases.
    pub fn step_counter(&self, field: impl Fn(&CtxStats) -> u64) -> Vec<u64> {
        (0..self.steps_recorded())
            .map(|s| {
                self.procs_records
                    .iter()
                    .filter_map(|r| r.step_stats.get(s))
                    .flat_map(|phases| phases.iter().map(&field))
                    .sum()
            })
            .collect()
    }

    /// Interaction-list group traversals performed by the batched force
    /// kernel over all processors and measured steps.
    pub fn force_groups(&self) -> u64 {
        self.procs_records.iter().map(|r| r.force_groups).sum()
    }

    /// Interaction-list entries emitted by the batched force kernel over
    /// all processors and measured steps.
    pub fn force_list_entries(&self) -> u64 {
        self.procs_records
            .iter()
            .map(|r| r.force_list_entries)
            .sum()
    }

    /// Pair interactions the batched force kernel evaluated from its lists
    /// over all processors and measured steps.
    pub fn force_interactions(&self) -> u64 {
        self.procs_records
            .iter()
            .map(|r| r.force_interactions)
            .sum()
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

    /// Per-measured-step tree-phase load imbalance (same definition as
    /// [`RunStats::tree_imbalance`], per step instead of over the run).
    pub fn step_tree_imbalance(&self) -> Vec<f64> {
        (0..self.steps_recorded())
            .map(|s| {
                let work: Vec<u64> = self
                    .procs_records
                    .iter()
                    .filter_map(|r| r.step_stats.get(s))
                    .map(|phases| {
                        let p = &phases[Phase::Tree.index()];
                        p.time.saturating_sub(p.barrier_wait)
                    })
                    .collect();
                let max = work.iter().max().copied().unwrap_or(0) as f64;
                let avg = if work.is_empty() {
                    0.0
                } else {
                    work.iter().sum::<u64>() as f64 / work.len() as f64
                };
                if avg == 0.0 {
                    1.0
                } else {
                    max / avg
                }
            })
            .collect()
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
/// and `0` for an empty sample. Used for repeat-aware per-step summaries:
/// pool the per-step series across repeats, then take p50/p99.
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
    run_inner(env, cfg, bodies).0
}

/// Run the application and also return the final body state (for examples
/// and physics tests).
pub fn run_simulation_with_state<E: Env>(
    env: &E,
    cfg: &SimConfig,
    bodies: &[Body],
) -> (RunStats, Vec<Body>) {
    run_inner(env, cfg, bodies)
}

fn run_inner<E: Env>(env: &E, cfg: &SimConfig, bodies: &[Body]) -> (RunStats, Vec<Body>) {
    let n = bodies.len();
    let world = World::new(env, bodies);
    let tree = SharedTree::new(env, n, cfg.k, cfg.algorithm.layout());
    let mut builder = Builder::new(env, cfg.algorithm, n, cfg.k);
    if let Some(t) = cfg.space_threshold {
        builder = builder.with_space_threshold(t);
    }
    builder = builder.with_space_rebalance(cfg.space_rebalance);
    let flat = FlatTree::new(env, n, cfg.k, cfg.algorithm.layout());
    let force_scratch = ForceScratch::new(env, &flat, n, env.num_procs());
    let pool = WorkerPool::new(env.num_procs());
    execute(
        env,
        &pool,
        cfg,
        &world,
        &tree,
        &flat,
        &force_scratch,
        &builder,
    )
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
    tree: &SharedTree,
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
        let mut rec = ProcRecord {
            proc,
            steps: Vec::with_capacity(cfg.measured_steps),
            phases: [CtxStats::default(); 4],
            step_stats: Vec::with_capacity(cfg.measured_steps),
            tree_locks: 0,
            tree_remote_misses: 0,
            tree_page_faults: 0,
            tree_lock_wait: 0,
            barrier_wait: 0,
            flatten_time: 0,
            sort_time: 0,
            force_groups: 0,
            force_list_entries: 0,
            force_interactions: 0,
            final_stats: CtxStats::default(),
        };
        for step in 0..total_steps {
            let measuring = step >= cfg.warmup_steps;
            run_step(env, ctx, &io, proc, step as u32, measuring, &mut rec);
        }
        rec.final_stats = env.stats(ctx);
        rec
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
            validate_with(
                tree,
                &positions,
                &world.masses(),
                ValidateOpts {
                    check_summaries: true,
                    allow_empty_cells: builder.may_leave_husks(),
                },
            )
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
