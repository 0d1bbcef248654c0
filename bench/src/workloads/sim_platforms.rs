//! `sim-platforms`: the simulated multiprocessors, as `repro` runs them.
//!
//! Why: host time here is the simulator's per-access path, and simulated
//! cycles are the paper's result. Eager and lazy protocols are one layer
//! used two ways (the `protocol.is_lazy()` fork in `Machine::read/write`),
//! so a gain for one that costs the other shows.
//!
//! Plummer n=2048, `run_simulation` with 1 warm-up and 2 measured steps on
//! a fresh `Machine` per job; cells = {challenge, origin2000, typhoon0_sc,
//! typhoon0_hlrc} x {ORIG, SPACE, MORTON}. A round times the 12 cells at
//! P=1, a job an op, where cycles must repeat exactly: kind `eager` is the
//! 9 jobs of the three eager platforms, kind `lazy` the 3 HLRC jobs. Every
//! [`P2_EVERY`]th traced round also runs the cells at P=2 for their
//! simulated cycles only: with two busy threads host time is noise, and the
//! runs that time the end-to-end metrics never have two. What a Plummer
//! sphere costs to simulate varies by several percent from seed to seed,
//! so the timed P=1 rounds cycle over [`DATASETS`] spheres made from the
//! run's seed; the checked ops, the P=2 jobs and the cycle counts reported
//! use the first.

use std::path::Path;
use std::time::Duration;

use bh_core::algorithms::Algorithm;
use bh_core::prelude::*;
use bh_serve::job::digest_bodies;
use ssmp::{platform, CostModel, Machine};

use crate::run::{metric, Checks, Metric, Rec, Workload};
use crate::stage::{datasets, kind_of};
use crate::stats::median;
use crate::trace::{Trace, Tracer};

const N: usize = 2048;
/// Body sets the timed rounds run on in turn.
const DATASETS: usize = 2;
const MEASURED_STEPS: usize = 2;
const ALGS: [Algorithm; 3] = [Algorithm::Orig, Algorithm::Space, Algorithm::Morton];
/// Eager platforms first: cells `0..9` are kind `eager`, `9..12` kind `lazy`.
type Platform = (&'static str, fn(usize) -> CostModel);
const PLATFORMS: [Platform; 4] = [
    ("challenge", platform::challenge),
    ("origin2000", platform::origin2000),
    ("typhoon0_sc", platform::typhoon0_sc),
    ("typhoon0_hlrc", platform::typhoon0_hlrc),
];
const CELLS: usize = PLATFORMS.len() * ALGS.len();
const EAGER_CELLS: usize = 9;
/// One traced round in this many also runs the cells at P=2.
const P2_EVERY: usize = 3;

/// A protocol event of `CtxStats`: name, field, unit.
type Event = (&'static str, fn(&CtxStats) -> u64, &'static str);

/// What one job reports in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cycles {
    total: u64,
    tree: u64,
}

/// One P=2 job: its cycles and the protocol events of its measured steps.
struct P2Sample {
    cycles: Cycles,
    events: CtxStats,
}

pub struct SimPlatforms {
    datasets: Vec<Vec<Body>>,
    /// Per dataset and cell, the P=1 cycles of the first job run on it.
    first_p1: [[Option<Cycles>; CELLS]; DATASETS],
    /// Per builder, the final-body digest of the first checked op.
    digests: [Option<u64>; ALGS.len()],
    p2: Vec<Vec<P2Sample>>,
    traced_rounds: usize,
}

fn config(alg: Algorithm, validate: bool) -> SimConfig {
    let mut cfg = SimConfig::new(alg);
    cfg.warmup_steps = 1;
    cfg.measured_steps = MEASURED_STEPS;
    cfg.validate = validate;
    cfg
}

fn cycles_of(stats: &RunStats) -> Cycles {
    Cycles {
        total: stats.total_time(),
        tree: stats.tree_time(),
    }
}

impl SimPlatforms {
    /// One job on a fresh machine, as `repro` runs it.
    fn job(&self, cell: usize, procs: usize, dataset: usize, t: &Tracer) -> RunStats {
        let (name, cost) = PLATFORMS[cell / ALGS.len()];
        let machine = t.span("machine.new", name, || Machine::new(cost(procs), procs));
        let cfg = config(ALGS[cell % ALGS.len()], false);
        t.span("run_simulation", name, || {
            run_simulation(&machine, &cfg, &self.datasets[dataset])
        })
    }

    /// A P=1 job must report the cycles the first job on its cell and
    /// dataset reported.
    fn same_cycles(&mut self, dataset: usize, cell: usize, cycles: Cycles) -> Result<(), String> {
        let first = *self.first_p1[dataset][cell].get_or_insert(cycles);
        if first == cycles {
            Ok(())
        } else {
            Err(format!(
                "cell {cell} on dataset {dataset} at P=1: {cycles:?}, first job {first:?}"
            ))
        }
    }

    /// Median over the P=2 rounds of `f` summed over `cells`.
    fn p2_median(&self, cells: std::ops::Range<usize>, f: impl Fn(&P2Sample) -> u64) -> f64 {
        let per_round: Vec<f64> = (0..self.p2[cells.start].len())
            .map(|r| cells.clone().map(|c| f(&self.p2[c][r])).sum::<u64>() as f64)
            .collect();
        median(&per_round)
    }
}

impl Workload for SimPlatforms {
    const NAME: &'static str = "sim-platforms";
    const KINDS: &'static [&'static str] = &["eager", "lazy"];
    const CYCLE: usize = DATASETS;
    const WARMUP: usize = 1;
    const SUM_ROUNDS: bool = true;

    fn set_up(seed: u64, _out: &Path) -> SimPlatforms {
        SimPlatforms {
            datasets: datasets(Model::Plummer, N, seed, DATASETS),
            first_p1: [[None; CELLS]; DATASETS],
            digests: [None; ALGS.len()],
            p2: (0..CELLS).map(|_| Vec::new()).collect(),
            traced_rounds: 0,
        }
    }

    fn round(&mut self, round: usize, rec: &mut Rec) {
        let dataset = round % DATASETS;
        for cell in 0..CELLS {
            let stats = rec.op(usize::from(cell >= EAGER_CELLS), |t| {
                t.span("job", PLATFORMS[cell / ALGS.len()].0, || {
                    self.job(cell, 1, dataset, t)
                })
            });
            let same = self.same_cycles(dataset, cell, cycles_of(&stats));
            rec.attempt(same);
        }
        let t = rec.tracer;
        if t.enabled() {
            self.traced_rounds += 1;
        }
        if t.enabled() && self.traced_rounds % P2_EVERY == 1 {
            for cell in 0..CELLS {
                let stats = t.span("job_p2", PLATFORMS[cell / ALGS.len()].0, || {
                    self.job(cell, 2, 0, t)
                });
                let mut events = CtxStats::default();
                for phase in [Phase::Tree, Phase::Partition, Phase::Force, Phase::Update] {
                    events.accumulate(&stats.phase_stats(phase));
                }
                self.p2[cell].push(P2Sample {
                    cycles: cycles_of(&stats),
                    events,
                });
            }
        }
    }

    fn body_steps_per_round(&self) -> f64 {
        (CELLS * N * (1 + MEASURED_STEPS)) as f64
    }

    /// Every cell at P=1 with validation on: the tree validates, the cycles
    /// are those of the timed jobs, and a builder ends with the same bodies
    /// on every platform.
    fn check(&mut self, checks: &mut Checks) {
        for cell in 0..CELLS {
            let (name, cost) = PLATFORMS[cell / ALGS.len()];
            let alg = cell % ALGS.len();
            let machine = Machine::new(cost(1), 1);
            let (stats, finals) =
                run_simulation_with_state(&machine, &config(ALGS[alg], true), &self.datasets[0]);
            let digest = digest_bodies(&finals);
            let first = *self.digests[alg].get_or_insert(digest);
            let valid = match &stats.validation_error {
                Some(e) => Err(format!("checked {name}/{}: {e}", ALGS[alg])),
                None if first != digest => Err(format!(
                    "checked {name}/{}: final bodies {digest:016x}, first checked op {first:016x}",
                    ALGS[alg]
                )),
                None => self.same_cycles(0, cell, cycles_of(&stats)),
            };
            checks.attempt(valid);
        }
    }

    /// Simulated time at P=2, per measured step; a traced run has it.
    fn own_metrics(&self) -> Vec<Metric> {
        if self.traced_rounds == 0 {
            return Vec::new();
        }
        let per_step = |cycles: f64| cycles / MEASURED_STEPS as f64 / 1e6;
        let total: f64 = (0..CELLS)
            .map(|c| per_step(self.p2_median(c..c + 1, |s| s.cycles.total)))
            .sum();
        let log_tree: f64 = (0..CELLS)
            .map(|c| per_step(self.p2_median(c..c + 1, |s| s.cycles.tree)).ln())
            .sum();
        vec![
            metric("sim_mcycles", total, "Mcycles"),
            metric(
                "sim_tree_mcycles_geo",
                (log_tree / CELLS as f64).exp(),
                "Mcycles",
            ),
        ]
    }

    fn layers(
        &mut self,
        trace: &Trace,
        _plain: &Rec,
        _budget: Duration,
        _checks: &mut Checks,
    ) -> Vec<Metric> {
        let mut out = vec![
            metric(
                "ssmp.machine.new_us",
                trace.median_self_ms("machine.new", "") * 1e3,
                "us",
            ),
            metric(
                "ssmp.machine.job_ms_p2",
                median(&trace.round_total_ms("job_p2", "")) / CELLS as f64,
                "ms",
            ),
        ];
        for (p, (name, _)) in PLATFORMS.iter().enumerate() {
            let cells = p * ALGS.len()..(p + 1) * ALGS.len();
            let p1 = |d: usize, cell: usize| self.first_p1[d][cell].expect("every cell ran at P=1");
            // The platform's three P=1 jobs of a round, builders summed.
            let jobs_ms = median(&trace.round_total_ms("job", name));
            let cycles: u64 = cells.clone().map(|c| p1(0, c).total).sum();
            let cycles_all: u64 = (0..DATASETS)
                .flat_map(|d| cells.clone().map(move |c| (d, c)))
                .map(|(d, c)| p1(d, c).total)
                .sum();
            out.push(metric(
                format!("ssmp.machine.job_ms_p1.{name}"),
                jobs_ms / ALGS.len() as f64,
                "ms",
            ));
            out.push(metric(
                format!("ssmp.machine.mcycles_per_host_s.{name}"),
                cycles_all as f64 / DATASETS as f64 / 1e6 / (jobs_ms / 1e3),
                "Mcycles/s",
            ));
            out.push(metric(
                format!("ssmp.total_cycles_p1.{name}"),
                cycles as f64,
                "cycles",
            ));
            for cell in cells.clone() {
                let alg = kind_of(ALGS[cell % ALGS.len()]);
                out.push(metric(
                    format!("ssmp.tree_cycles_p1.{name}.{alg}"),
                    p1(0, cell).tree as f64,
                    "cycles",
                ));
                out.push(metric(
                    format!("ssmp.tree_cycles_p2.{name}.{alg}"),
                    self.p2_median(cell..cell + 1, |s| s.cycles.tree),
                    "cycles",
                ));
            }
            let events: [Event; 4] = [
                ("remote_misses", |e| e.remote_misses, "count"),
                ("page_faults", |e| e.page_faults, "count"),
                ("lock_wait", |e| e.lock_wait, "cycles"),
                ("barrier_wait", |e| e.barrier_wait, "cycles"),
            ];
            for (event, field, unit) in events {
                out.push(metric(
                    format!("ssmp.{event}.{name}"),
                    self.p2_median(cells.clone(), |s| field(&s.events)),
                    unit,
                ));
            }
        }
        out
    }

    fn tear_down(self, _checks: &mut Checks) {}
}
