//! Shared experiment machinery: one memo of simulated platform runs (many
//! figures share them, and the sequential baseline is one of them), its
//! `--jobs` prewarm, and problem-size scaling.

use bh_core::force::MAX_GROUP_SIZE;
use bh_core::harness::spmd;
use bh_core::prelude::*;
use bh_core::shared::SharedAtomicVec;
use bh_core::sync::Mutex;
use bh_core::trace::LockStat;
use ssmp::{AttrTable, CostModel, Machine};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// How large to run the experiments relative to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Paper sizes divided by 64 — smoke tests / CI.
    Tiny,
    /// Paper sizes divided by 8 — the default; every experiment finishes in
    /// minutes on a laptop while preserving the qualitative shapes.
    Small,
    /// The paper's problem sizes.
    Full,
}

impl ExperimentScale {
    /// The accepted `--scale` spellings, for CLI diagnostics.
    pub const NAMES: [&'static str; 3] = ["tiny", "small", "full"];

    /// Lower-case name of this scale (inverse of [`ExperimentScale::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentScale::Tiny => "tiny",
            ExperimentScale::Small => "small",
            ExperimentScale::Full => "full",
        }
    }

    pub fn parse(s: &str) -> Option<ExperimentScale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(ExperimentScale::Tiny),
            "small" => Some(ExperimentScale::Small),
            "full" => Some(ExperimentScale::Full),
            _ => None,
        }
    }

    /// Scale a paper problem size.
    pub fn size(&self, paper_n: usize) -> usize {
        match self {
            ExperimentScale::Tiny => (paper_n / 64).max(512),
            ExperimentScale::Small => (paper_n / 8).max(1024),
            ExperimentScale::Full => paper_n,
        }
    }

    /// Scale a processor count (kept as in the paper, but capped for Tiny).
    pub fn procs(&self, paper_p: usize) -> usize {
        match self {
            ExperimentScale::Tiny => paper_p.min(8),
            _ => paper_p,
        }
    }
}

/// One platform run as the figures read it: its memo entry, and its
/// speedups against the platform's sequential baseline.
#[derive(Debug, Clone)]
pub struct PlatformRun {
    pub platform: String,
    pub algorithm: Algorithm,
    pub n: usize,
    pub procs: usize,
    /// Measured-steps totals, in simulated cycles.
    pub total_cycles: u64,
    pub tree_cycles: u64,
    /// Sequential baseline on the same platform (cycles).
    pub seq_cycles: u64,
    pub seq_tree_cycles: u64,
    pub speedup: f64,
    pub tree_speedup: f64,
    /// The run's record: every processor's phase deltas, step by step.
    pub stats: &'static RunStats,
    /// The whole run's misses, faults, invalidations and lock waits by
    /// (region, stage), summed over processors.
    pub comm: &'static AttrTable,
    /// The whole run's lock contention by lock id, hottest first.
    pub locks: &'static [LockStat],
}

/// Fixed workload seed so every experiment sees the same galaxy.
pub const WORKLOAD_SEED: u64 = 1998;

/// One simulated run: (platform, algorithm, n, procs, force-kernel group
/// size). The figures run at [`SimConfig::new`]'s group size,
/// [`MAX_GROUP_SIZE`].
pub type Run = (CostModel, Algorithm, usize, usize, usize);

/// A run's memo key. Platforms are known by name: a preset built for
/// another processor count is the same cost model.
type RunKey = (String, Algorithm, usize, usize, usize);

fn key((cost, alg, n, procs, group_size): &Run) -> RunKey {
    (cost.name.clone(), *alg, *n, *procs, *group_size)
}

/// What the memo keeps of one run: its statistics, and its per-region
/// record and lock histogram over all processors. Entries do not depend on
/// each other: [`run_cached`] divides by the `(PARTREE, n, 1)` entry when
/// it reads one.
#[derive(Debug)]
pub(crate) struct RunRecord {
    pub stats: RunStats,
    /// [`Machine::attribution`], summed over processors.
    pub comm: AttrTable,
    /// [`Machine::lock_histogram`].
    pub locks: Vec<LockStat>,
}

/// Every simulated run of the process, keyed by [`RunKey`]. Many figures
/// share configurations (e.g. Figures 8 and 9), and [`prewarm`] fills it so
/// the serial table-generation pass that follows is pure lookup. The memo
/// never drops an entry, so its records live as long as the process and
/// every reader shares them.
static RUNS: Mutex<Option<HashMap<RunKey, &'static RunRecord>>> = Mutex::new(None);

/// The memo entry of `run`, [`simulate`]d on first use. Simulated runs at
/// one processor are deterministic; at more, the first value stored is the
/// one every later lookup sees.
pub(crate) fn simulated(run: &Run) -> &'static RunRecord {
    let key = key(run);
    if let Some(&hit) = RUNS.lock().get_or_insert_with(HashMap::new).get(&key) {
        return hit;
    }
    let record = simulate(run);
    RUNS.lock()
        .get_or_insert_with(HashMap::new)
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(record)))
}

/// Simulate `run` on a fresh machine with the paper's protocol (warm up two
/// steps, measure two).
fn simulate((cost, alg, n, procs, group_size): &Run) -> RunRecord {
    let machine = Machine::new(cost.clone(), *procs);
    let cfg = SimConfig {
        group_size: *group_size,
        ..SimConfig::new(*alg)
    };
    let stats = run_simulation(&machine, &cfg, &Model::Plummer.generate(*n, WORKLOAD_SEED));
    stats.assert_valid();
    RunRecord {
        stats,
        comm: machine.attribution().iter().sum(),
        locks: machine.lock_histogram(),
    }
}

/// The run every speedup on a platform divides by: the application on a
/// single simulated processor with the PARTREE algorithm, whose
/// one-processor execution is a lock-free private build plus a handful of
/// attach operations — i.e. the best sequential version (LOCAL on one
/// processor would still pay per-insert lock instructions and, on SVM
/// platforms, per-acquire protocol actions).
pub fn baseline(cost: &CostModel, n: usize) -> Run {
    (cost.clone(), Algorithm::Partree, n, 1, MAX_GROUP_SIZE)
}

/// Sequential (total, tree) cycles on a platform: the [`baseline`] run.
pub fn seq_time_on_platform(cost: &CostModel, n: usize) -> (u64, u64) {
    let seq = &simulated(&baseline(cost, n)).stats;
    (seq.total_time(), seq.tree_time())
}

/// One (platform, algorithm, n, procs) configuration with the paper's
/// measurement protocol, and its speedups against the platform's
/// sequential baseline, both memoized within the process.
pub fn run_cached(cost: &CostModel, alg: Algorithm, n: usize, procs: usize) -> PlatformRun {
    let record = simulated(&(cost.clone(), alg, n, procs, MAX_GROUP_SIZE));
    let stats = &record.stats;
    let (seq_cycles, seq_tree_cycles) = seq_time_on_platform(cost, n);
    let (total_cycles, tree_cycles) = (stats.total_time(), stats.tree_time());
    PlatformRun {
        platform: cost.name.clone(),
        algorithm: alg,
        n,
        procs,
        total_cycles,
        tree_cycles,
        seq_cycles,
        seq_tree_cycles,
        speedup: seq_cycles as f64 / total_cycles.max(1) as f64,
        tree_speedup: seq_tree_cycles as f64 / tree_cycles.max(1) as f64,
        stats,
        comm: &record.comm,
        locks: &record.locks,
    }
}

/// `runs` without repeats, in first-seen order.
pub fn distinct(runs: impl IntoIterator<Item = Run>) -> Vec<Run> {
    let mut seen = HashSet::new();
    runs.into_iter().filter(|r| seen.insert(key(r))).collect()
}

/// Simulate every distinct run of `runs` across `jobs` host threads and
/// memoize it, returning how many there were. Threads claim runs longest
/// first (force evaluation, ~n log n a step, dominates a run) from one
/// shared counter. A run that panics stops its own thread only; once every
/// thread has returned, the first panic is raised again, so a failure is
/// never left for the serial render to recompute and hide.
pub fn prewarm(runs: impl IntoIterator<Item = Run>, jobs: usize) -> usize {
    let mut runs = distinct(runs);
    runs.sort_by_key(|&(_, _, n, ..)| Reverse(n as u64 * n.max(2).ilog2() as u64));
    if runs.is_empty() {
        return 0;
    }
    let env = NativeEnv::new(jobs.min(runs.len()));
    let next: SharedAtomicVec = SharedAtomicVec::new(&env, 1, 0, Placement::Global, Region::Other);
    spmd(&env, |_, ctx| {
        while let Some(run) = runs.get(next.fetch_add(&env, ctx, 0, 1) as usize) {
            simulated(run);
        }
    });
    runs.len()
}

/// Entries in the memo: lets a test assert that a prewarmed render
/// computes nothing.
#[cfg(test)]
pub(crate) fn memo_size() -> usize {
    RUNS.lock().as_ref().map_or(0, HashMap::len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmp::platform;

    #[test]
    fn scales() {
        assert_eq!(ExperimentScale::Full.size(8192), 8192);
        assert_eq!(ExperimentScale::Small.size(8192), 1024);
        assert_eq!(ExperimentScale::Tiny.size(8192), 512);
        assert_eq!(ExperimentScale::Tiny.procs(30), 8);
        assert_eq!(ExperimentScale::Full.procs(30), 30);
        assert_eq!(ExperimentScale::parse("FULL"), Some(ExperimentScale::Full));
        assert!(ExperimentScale::parse("huge").is_none());
        for name in ExperimentScale::NAMES {
            assert_eq!(ExperimentScale::parse(name).map(|s| s.name()), Some(name));
        }
    }

    #[test]
    fn seq_baseline_is_memoized_and_positive() {
        let cost = platform::origin2000(1);
        let (t1, tree1) = seq_time_on_platform(&cost, 600);
        let (t2, _) = seq_time_on_platform(&cost, 600);
        assert_eq!(t1, t2);
        assert!(t1 > 0);
        assert!(tree1 > 0);
        assert!(tree1 < t1);
    }

    #[test]
    fn platform_run_produces_sane_metrics() {
        let cost = platform::challenge(4);
        let run = run_cached(&cost, Algorithm::Space, 800, 4);
        assert!(run.speedup > 0.5, "speedup {}", run.speedup);
        let tree_fraction = run.stats.tree_fraction();
        assert!(tree_fraction > 0.0 && tree_fraction < 1.0);
        assert_eq!(run.stats.tree_locks_per_proc().len(), 4);
    }

    #[test]
    fn the_baseline_is_the_partree_one_processor_run() {
        // A size no other test simulates, so the prewarm fills the entries
        // rather than finding them.
        let (cost, n) = (platform::typhoon0_sc(2), 256);
        let runs = [1, 2].map(|p| (cost.clone(), Algorithm::Partree, n, p, MAX_GROUP_SIZE));
        assert_eq!(prewarm(runs, 2), 2);
        let prewarmed = run_cached(&cost, Algorithm::Partree, n, 1);
        assert_eq!(
            seq_time_on_platform(&cost, n),
            (prewarmed.total_cycles, prewarmed.tree_cycles)
        );
        assert_eq!((prewarmed.speedup, prewarmed.tree_speedup), (1.0, 1.0));
        assert_eq!(
            run_cached(&cost, Algorithm::Partree, n, 2).seq_cycles,
            prewarmed.total_cycles
        );
        // The memo knows platforms by name, so a renamed copy of the model
        // has no entries: its lookup simulates on demand.
        let mut renamed = cost.clone();
        renamed.name.push_str(" on demand");
        let on_demand = run_cached(&renamed, Algorithm::Partree, n, 1);
        assert!(!std::ptr::eq(on_demand.stats, prewarmed.stats));
        let numbers = |r: &PlatformRun| {
            let steps = r.stats.procs_records[0].steps.clone();
            (
                r.total_cycles,
                r.tree_cycles,
                r.seq_cycles,
                r.comm.clone(),
                steps,
            )
        };
        assert_eq!(numbers(&on_demand), numbers(&prewarmed));
    }

    #[test]
    fn jobs_are_deduplicated() {
        let cost = platform::challenge(4);
        let run = |alg, procs| (cost.clone(), alg, 512, procs, MAX_GROUP_SIZE);
        let runs = distinct([
            baseline(&cost, 512),
            run(Algorithm::Space, 4),
            run(Algorithm::Space, 4),
            // The same platform built for another processor count.
            (
                platform::challenge(16),
                Algorithm::Space,
                512,
                4,
                MAX_GROUP_SIZE,
            ),
            run(Algorithm::Partree, 4),
            run(Algorithm::Partree, 1),
        ]);
        // The baseline, SPACE and PARTREE at 4: PARTREE at 1 is the baseline.
        assert_eq!(runs.len(), 3);
        assert_eq!(prewarm([], 2), 0);
    }

    #[test]
    #[should_panic(expected = "simulated processors supported")]
    fn a_panicking_job_fails_the_sweep() {
        let cost = platform::challenge(2);
        // 65 processors is outside what `Machine::new` accepts.
        prewarm(
            [
                baseline(&cost, 192),
                (cost.clone(), Algorithm::Space, 64, 65, MAX_GROUP_SIZE),
            ],
            2,
        );
    }

    #[test]
    fn concurrent_sweep_prewarms_deterministic_baselines() {
        // Prewarm a tiny slice of the matrix on 2 threads, then verify a
        // cached single-processor baseline (which is bitwise deterministic)
        // equals a direct recomputation.
        let cost = platform::challenge(2);
        let mut runs = vec![baseline(&cost, 320)];
        for alg in [Algorithm::Partree, Algorithm::Space] {
            runs.extend([
                baseline(&cost, 256),
                (cost.clone(), alg, 256, 2, MAX_GROUP_SIZE),
            ]);
        }
        // 2 distinct baselines + 2 parallel runs (the shared 256 baseline
        // dedups).
        assert_eq!(prewarm(runs, 2), 4);
        let (total, tree) = seq_time_on_platform(&cost, 256);
        let machine = Machine::new(cost.clone(), 1);
        let bodies = Model::Plummer.generate(256, WORKLOAD_SEED);
        let direct = run_simulation(&machine, &SimConfig::new(Algorithm::Partree), &bodies);
        assert_eq!(total, direct.total_time());
        assert_eq!(tree, direct.tree_time());
        // The parallel runs landed in the memo too.
        let hit = run_cached(&cost, Algorithm::Space, 256, 2);
        assert_eq!(hit.seq_cycles, total);
    }
}
