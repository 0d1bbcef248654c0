//! Batched sweep scheduling: the experiment suite as an explicit job list.
//!
//! Rendering a table of [`crate::experiments`] looks its runs up serially
//! and memoizes them in the run caches of [`crate::runner`]. The sweep
//! scheduler takes the same runs as an explicit job list
//! ([`crate::experiments::prewarm_jobs`] queues every run of the selected
//! experiments' grids), dedups them (figures share many configurations),
//! and submits them — as tenant `"sweep"` — to an in-process
//! [`bh_serve::server::Server`] to *prewarm* the caches. Batch
//! sweeps and socket-served jobs thereby share one admission/worker path;
//! the sweep is just another client of the service layer. The serial
//! table-generation pass that follows is then pure cache lookup: the
//! scheduler changes wall-clock time, never the set of configurations
//! computed or which value a given key gets (each key is computed at most
//! once thanks to dedup).
//!
//! Determinism: single-processor runs (all sequential baselines, hence all
//! of Table 1) are bitwise deterministic, so their output is byte-identical
//! across any `--jobs` setting *and* across processes. Multi-processor
//! simulated runs carry run-to-run jitter — the contention cost model is
//! fed by real thread interleaving (lock-queue depth, ownership-transfer
//! order) — with or without the sweep; only the document *structure* is
//! invariant for those.
//!
//! Sequential baselines are listed as explicit jobs and sorted ahead of the
//! parallel runs that divide by them; if a parallel job nevertheless starts
//! first it simply computes the (identical, deterministic) baseline itself.

use crate::runner::{run_cached, seq_time_on_platform};
use bh_core::prelude::*;
use bh_serve::server::{Server, ServerConfig};
use ssmp::CostModel;
use std::collections::HashSet;

/// One unit of sweep work: a full simulated application run.
pub enum SweepJob {
    /// Sequential baseline on a platform (PARTREE on one processor).
    Seq { cost: CostModel, n: usize },
    /// One (platform, algorithm, n, procs) measurement.
    Par {
        cost: CostModel,
        alg: Algorithm,
        n: usize,
        procs: usize,
    },
}

impl SweepJob {
    /// Cache-identity of the job. Platform cost models are identified by
    /// name (constructing one for a different processor count yields the
    /// same model), so the key matches the run caches in `runner`.
    fn key(&self) -> String {
        match self {
            SweepJob::Seq { cost, n } => format!("seq/{}/{n}", cost.name),
            SweepJob::Par {
                cost,
                alg,
                n,
                procs,
            } => format!("par/{}/{}/{n}/{procs}", cost.name, alg.name()),
        }
    }

    /// Rough relative cost, for longest-job-first ordering: the dominant
    /// term is force evaluation, ~n log n per measured step.
    fn weight(&self) -> u64 {
        let n = match self {
            SweepJob::Seq { n, .. } | SweepJob::Par { n, .. } => *n,
        } as u64;
        n * n.max(2).ilog2() as u64
    }

    /// Execute the job, populating the memoization caches as a side effect.
    fn run(&self) {
        match self {
            SweepJob::Seq { cost, n } => {
                seq_time_on_platform(cost, *n);
            }
            SweepJob::Par {
                cost,
                alg,
                n,
                procs,
            } => {
                run_cached(cost, *alg, *n, *procs);
            }
        }
    }
}

/// A deduplicated batch of sweep jobs.
#[derive(Default)]
pub struct SweepScheduler {
    jobs: Vec<SweepJob>,
    seen: HashSet<String>,
}

impl SweepScheduler {
    pub fn new() -> SweepScheduler {
        SweepScheduler::default()
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Enqueue a job unless an identical one is already queued.
    pub fn push(&mut self, job: SweepJob) {
        if self.seen.insert(job.key()) {
            self.jobs.push(job);
        }
    }

    /// Enqueue one measurement plus the sequential baseline it divides by.
    pub fn add_run(&mut self, cost: &CostModel, alg: Algorithm, n: usize, procs: usize) {
        self.push(SweepJob::Seq {
            cost: cost.clone(),
            n,
        });
        self.push(SweepJob::Par {
            cost: cost.clone(),
            alg,
            n,
            procs,
        });
    }

    pub fn add_seq(&mut self, cost: &CostModel, n: usize) {
        self.push(SweepJob::Seq {
            cost: cost.clone(),
            n,
        });
    }

    /// Run every queued job across up to `workers` executor threads of an
    /// in-process job server, and return the number of jobs executed.
    /// Baselines run ahead of the measurements that need them, longest
    /// jobs first within each class; with a single tenant the server's
    /// deficit round-robin degenerates to FIFO, so that submission order
    /// is also the dispatch order.
    ///
    /// A job that panics does not stop the batch (the server keeps its
    /// worker), but it fails the sweep: once every job has finished, this
    /// panics with the first message the server collected. Swallowing it
    /// would let the serial render that follows recompute the key and hide
    /// the failure.
    pub fn run(mut self, workers: usize) -> usize {
        self.jobs.sort_by_key(|j| {
            let seq_first = match j {
                SweepJob::Seq { .. } => 0u8,
                SweepJob::Par { .. } => 1,
            };
            (seq_first, std::cmp::Reverse(j.weight()))
        });
        let total = self.jobs.len();
        if total == 0 {
            return 0;
        }
        let server = Server::start(ServerConfig {
            workers: workers.max(1).min(total),
            // The whole batch is admitted up front: capacity = batch size,
            // so a sweep never sees queue_full.
            queue_capacity: total,
            // Sweep tasks carry their own engines and memoization; the
            // engine cache is idle on this path.
            engine_capacity: 1,
            ..ServerConfig::default()
        });
        for job in self.jobs {
            let weight = job.weight();
            server
                .submit_task("sweep", weight, move || job.run())
                .expect("sweep queue sized to the batch");
        }
        server.wait_idle();
        let panics = server.take_task_panics();
        server.shutdown();
        if let Some(first) = panics.first() {
            panic!(
                "{} of {total} sweep job(s) panicked, the first with: {first}",
                panics.len()
            );
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find, matrix, prewarm_jobs};
    use crate::runner::ExperimentScale;
    use ssmp::platform;

    #[test]
    fn jobs_are_deduplicated() {
        let mut s = SweepScheduler::new();
        let cost = platform::challenge(4);
        s.add_run(&cost, Algorithm::Space, 512, 4);
        s.add_run(&cost, Algorithm::Space, 512, 4);
        // 1 seq + 1 par.
        assert_eq!(s.len(), 2);
        s.add_run(&cost, Algorithm::Partree, 512, 4);
        // Shared seq baseline: only the par job is new.
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn full_matrix_is_enumerated_and_shared_configs_collapse() {
        let s = prewarm_jobs(matrix(), ExperimentScale::Tiny);
        assert!(!s.is_empty());
        // Figures 8 and 9 (and 13/14) share all their runs; the dedup set
        // must therefore be much smaller than the naive enumeration.
        let naive = 24 + 2 * (25 + 15) + 2 * (30 + 15) + 15 + 25 + 10 + 2 * 20 + 5 + 10;
        assert!(
            s.len() < naive,
            "dedup had no effect: {} jobs of {naive} naive",
            s.len()
        );
        for e in matrix() {
            let js = prewarm_jobs([e], ExperimentScale::Tiny);
            assert!(!js.is_empty(), "{} enumerated no jobs", e.name);
        }
        let treebuild = find("treebuild").expect("a known name");
        assert!(prewarm_jobs([treebuild], ExperimentScale::Tiny).is_empty());
        assert!(find("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "simulated processors supported")]
    fn a_panicking_job_fails_the_sweep() {
        let cost = platform::challenge(2);
        let mut s = SweepScheduler::new();
        s.add_seq(&cost, 192);
        // 65 processors is outside what `Machine::new` accepts.
        s.push(SweepJob::Par {
            cost,
            alg: Algorithm::Space,
            n: 64,
            procs: 65,
        });
        s.run(2);
    }

    #[test]
    fn concurrent_sweep_prewarms_deterministic_baselines() {
        // Prewarm a tiny slice of the matrix on 2 scheduler threads, then
        // verify a cached single-processor baseline (which is bitwise
        // deterministic) equals a direct recomputation.
        let cost = platform::challenge(2);
        let mut s = SweepScheduler::new();
        s.add_seq(&cost, 320);
        for alg in [Algorithm::Partree, Algorithm::Space] {
            s.add_run(&cost, alg, 256, 2);
        }
        // 2 distinct seq baselines + 2 par runs (the shared 256 baseline
        // dedups).
        let executed = s.run(2);
        assert_eq!(executed, 4);
        let (total, tree) = seq_time_on_platform(&cost, 256);
        let machine = ssmp::Machine::new(cost.clone(), 1);
        let bodies = Model::Plummer.generate(256, crate::runner::WORKLOAD_SEED);
        let direct = run_simulation(&machine, &SimConfig::new(Algorithm::Partree), &bodies);
        assert_eq!(total, direct.total_time());
        assert_eq!(tree, direct.tree_time());
        // The parallel runs landed in the cache too (hits return clones).
        let hit = run_cached(&cost, Algorithm::Space, 256, 2);
        assert_eq!(hit.seq_cycles, total);
    }
}
