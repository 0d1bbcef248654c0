//! Shared experiment machinery: platform runs, sequential baselines (with
//! memoization — many figures share them), and problem-size scaling.

use bh_core::prelude::*;
use bh_core::sync::Mutex;
use ssmp::{CostModel, Machine};
use std::collections::HashMap;

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

/// Everything one platform run yields.
#[derive(Debug, Clone)]
pub struct PlatformRun {
    pub platform: String,
    pub algorithm: Algorithm,
    pub n: usize,
    pub procs: usize,
    /// Measured-steps totals, in simulated cycles.
    pub total_cycles: u64,
    pub tree_cycles: u64,
    pub force_cycles: u64,
    /// Sequential baseline on the same platform (cycles).
    pub seq_cycles: u64,
    pub seq_tree_cycles: u64,
    pub speedup: f64,
    pub tree_speedup: f64,
    pub tree_fraction: f64,
    pub seconds: f64,
    pub barrier_wait_cycles: u64,
    pub locks_per_proc: Vec<u64>,
    pub page_faults: u64,
    pub remote_misses: u64,
}

/// Fixed workload seed so every experiment sees the same galaxy.
pub const WORKLOAD_SEED: u64 = 1998;

fn workload(n: usize) -> Vec<Body> {
    Model::Plummer.generate(n, WORKLOAD_SEED)
}

fn paper_config(alg: Algorithm) -> SimConfig {
    // The paper's protocol: warm up two steps (let the partition settle),
    // measure two.
    SimConfig::new(alg)
}

/// Memoized sequential baselines keyed by (platform, n): (total, tree) cycles.
type SeqKey = (String, usize);
static SEQ_CACHE: Mutex<Option<HashMap<SeqKey, (u64, u64)>>> = Mutex::new(None);

/// Sequential time on a platform: the application run on a single simulated
/// processor with the PARTREE algorithm, whose one-processor execution is a
/// lock-free private build plus a handful of attach operations — i.e. the
/// best sequential version (LOCAL on one processor would still pay per-insert
/// lock instructions and, on SVM platforms, per-acquire protocol actions).
pub fn seq_time_on_platform(cost: &CostModel, n: usize) -> (u64, u64) {
    let key = (cost.name.clone(), n);
    if let Some(hit) = SEQ_CACHE.lock().get_or_insert_with(HashMap::new).get(&key) {
        return *hit;
    }
    let machine = Machine::new(cost.clone(), 1);
    let cfg = paper_config(Algorithm::Partree);
    let stats = run_simulation(&machine, &cfg, &workload(n));
    stats.assert_valid();
    let result = (stats.total_time(), stats.tree_time());
    SEQ_CACHE
        .lock()
        .get_or_insert_with(HashMap::new)
        .insert(key, result);
    result
}

/// Run one (platform, algorithm, n, procs) configuration with the paper's
/// measurement protocol and compute speedups against the platform's
/// sequential baseline.
pub fn run_on_platform(cost: &CostModel, alg: Algorithm, n: usize, procs: usize) -> PlatformRun {
    let machine = Machine::new(cost.clone(), procs);
    let cfg = paper_config(alg);
    let stats = run_simulation(&machine, &cfg, &workload(n));
    stats.assert_valid();
    let (seq_cycles, seq_tree_cycles) = seq_time_on_platform(cost, n);
    let total_cycles = stats.total_time();
    let tree_cycles = stats.tree_time();
    let page_faults = stats
        .procs_records
        .iter()
        .map(|r| r.final_stats.page_faults)
        .sum();
    let remote_misses = stats
        .procs_records
        .iter()
        .map(|r| r.final_stats.remote_misses)
        .sum();
    PlatformRun {
        platform: cost.name.clone(),
        algorithm: alg,
        n,
        procs,
        total_cycles,
        tree_cycles,
        force_cycles: stats.force_time(),
        seq_cycles,
        seq_tree_cycles,
        speedup: seq_cycles as f64 / total_cycles.max(1) as f64,
        tree_speedup: seq_tree_cycles as f64 / tree_cycles.max(1) as f64,
        tree_fraction: stats.tree_fraction(),
        seconds: cost.cycles_to_seconds(total_cycles),
        barrier_wait_cycles: stats.barrier_wait_total(),
        locks_per_proc: stats.tree_locks_per_proc(),
        page_faults,
        remote_misses,
    }
}

/// Memoized platform runs keyed by (platform, algorithm, n, procs). Many
/// figures share configurations (e.g. Figures 8 and 9), and the sweep
/// scheduler prewarms this cache so the serial table-generation pass that
/// follows is pure lookup.
type RunKey = (String, Algorithm, usize, usize);
static RUN_CACHE: Mutex<Option<HashMap<RunKey, PlatformRun>>> = Mutex::new(None);

/// [`run_on_platform`], memoized within the process. Simulated runs are
/// deterministic, so concurrent computations of the same key (possible when
/// the sweep scheduler races the serial path) insert identical values.
pub fn run_cached(cost: &CostModel, alg: Algorithm, n: usize, procs: usize) -> PlatformRun {
    let key = (cost.name.clone(), alg, n, procs);
    if let Some(hit) = RUN_CACHE.lock().get_or_insert_with(HashMap::new).get(&key) {
        return hit.clone();
    }
    let run = run_on_platform(cost, alg, n, procs);
    RUN_CACHE
        .lock()
        .get_or_insert_with(HashMap::new)
        .insert(key, run.clone());
    run
}

/// Entries in the baseline and run caches: lets a test assert that a
/// prewarmed render computes nothing.
#[cfg(test)]
pub(crate) fn cache_sizes() -> (usize, usize) {
    (
        SEQ_CACHE.lock().as_ref().map_or(0, HashMap::len),
        RUN_CACHE.lock().as_ref().map_or(0, HashMap::len),
    )
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
        let run = run_on_platform(&cost, Algorithm::Space, 800, 4);
        assert!(run.speedup > 0.5, "speedup {}", run.speedup);
        assert!(run.tree_fraction > 0.0 && run.tree_fraction < 1.0);
        assert_eq!(run.locks_per_proc.len(), 4);
        assert!(run.seconds > 0.0);
    }
}
