//! `native-step`: the whole Barnes-Hut step on one native processor.
//!
//! Why: force traversal and evaluation are ~85 % of the time here and the
//! builders ~10-15 %, so kernel, traversal, partition and update work shows
//! on this workload and builder work barely does — the inverse of
//! `native-treebuild`.
//!
//! Plummer n=16384 on one reused `SimEngine`; kinds `space` (the standard
//! pipeline with flatten and costzones) and `morton` (the direct-flat
//! pipeline). Both use the per-processor tree layout, so the engine keeps
//! its allocations across the switch. An op is `engine.run` with 1 warm-up
//! and 1 measured step, validation off: a tenth of a second, so that a run
//! repeats each op some forty times and one repeat finds the host quiet.
//! What a Plummer sphere costs depends on how its core came out, by a few
//! percent from seed to seed, so a run cycles over [`DATASETS`] spheres made
//! from its seed.

use std::path::Path;
use std::time::Duration;

use bh_core::algorithms::Algorithm;
use bh_core::force::ForceListStats;
use bh_core::prelude::*;
use bh_serve::job::digest_bodies;

use crate::run::{metric, Checks, Metric, Rec, Workload};
use crate::stage::{datasets, Sim};
use crate::trace::Trace;

const N: usize = 16_384;
/// Body sets the rounds run on in turn.
const DATASETS: usize = 4;
const ALGS: [Algorithm; 2] = [Algorithm::Space, Algorithm::Morton];

pub struct NativeStep {
    datasets: Vec<Vec<Body>>,
    engine: SimEngine<NativeEnv>,
    cfgs: [SimConfig; 2],
    /// Per kind and dataset, the digest of the final bodies of the engine's
    /// first validated run.
    digests: [[Option<u64>; DATASETS]; 2],
    /// The stage-by-stage twin of the engine, built by the first traced round.
    staged: Option<Staged>,
    /// Interaction-list counts of the traced `space` ops.
    lists: ForceListStats,
    list_steps: usize,
}

struct Staged {
    env: NativeEnv,
    pool: WorkerPool,
    sims: [Sim; 2],
}

fn config(alg: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::new(alg);
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    cfg.validate = false;
    cfg
}

impl NativeStep {
    /// A validated engine run of `kind` on `dataset`: the tree validates and
    /// the final bodies are those of the first such run.
    fn checked_run(&mut self, kind: usize, dataset: usize) -> Result<u64, String> {
        let mut cfg = self.cfgs[kind].clone();
        cfg.validate = true;
        let (stats, finals) = self.engine.run_with_state(&cfg, &self.datasets[dataset]);
        let what = format!("checked {} on dataset {dataset}", Self::KINDS[kind]);
        if let Some(e) = &stats.validation_error {
            return Err(format!("{what}: {e}"));
        }
        let digest = digest_bodies(&finals);
        match *self.digests[kind][dataset].get_or_insert(digest) {
            first if first == digest => Ok(digest),
            first => Err(format!(
                "{what}: final bodies {digest:016x}, first run {first:016x}"
            )),
        }
    }

    /// The digest of [`NativeStep::checked_run`], run once per kind and dataset.
    fn engine_digest(&mut self, kind: usize, dataset: usize) -> Result<u64, String> {
        match self.digests[kind][dataset] {
            Some(digest) => Ok(digest),
            None => self.checked_run(kind, dataset),
        }
    }
}

impl Workload for NativeStep {
    const NAME: &'static str = "native-step";
    const KINDS: &'static [&'static str] = &["space", "morton"];
    const CYCLE: usize = DATASETS;
    const WARMUP: usize = 2;

    fn set_up(seed: u64, _out: &Path) -> NativeStep {
        NativeStep {
            datasets: datasets(Model::Plummer, N, seed, DATASETS),
            engine: SimEngine::new(NativeEnv::new(1)),
            cfgs: ALGS.map(config),
            digests: [[None; DATASETS]; 2],
            staged: None,
            lists: ForceListStats::default(),
            list_steps: 0,
        }
    }

    fn round(&mut self, round: usize, rec: &mut Rec) {
        let dataset = round % DATASETS;
        for kind in 0..ALGS.len() {
            if !rec.tracer.enabled() {
                let (engine, cfg, bodies) =
                    (&mut self.engine, &self.cfgs[kind], &self.datasets[dataset]);
                rec.op(kind, |_| engine.run(cfg, bodies));
                rec.attempt(Ok(()));
                continue;
            }
            let staged = self.staged.get_or_insert_with(|| {
                let env = NativeEnv::new(1);
                let sims = [0, 1].map(|k| Sim::new(&env, &self.cfgs[k], &self.datasets[0]));
                Staged {
                    pool: WorkerPool::new(1),
                    env,
                    sims,
                }
            });
            let (lists, finals) = rec.op(kind, |t| {
                staged.sims[kind].run(&staged.env, &staged.pool, &self.datasets[dataset], t)
            });
            if kind == 0 {
                self.lists.accumulate(&lists);
                self.list_steps += self.cfgs[0].measured_steps;
            }
            // The stage-by-stage driver does the engine's work: same bodies out.
            let staged_digest = digest_bodies(&finals);
            let same = self.engine_digest(kind, dataset).and_then(|engine_digest| {
                if engine_digest == staged_digest {
                    Ok(())
                } else {
                    Err(format!(
                        "staged {} on dataset {dataset}: final bodies {staged_digest:016x}, engine {engine_digest:016x}",
                        Self::KINDS[kind]
                    ))
                }
            });
            rec.attempt(same);
        }
    }

    fn body_steps_per_round(&self) -> f64 {
        self.cfgs
            .iter()
            .map(|c| (N * (c.warmup_steps + c.measured_steps)) as f64)
            .sum()
    }

    fn check(&mut self, checks: &mut Checks) {
        for kind in 0..ALGS.len() {
            let checked = self.checked_run(kind, 0);
            checks.attempt(checked.map(|_| ()));
        }
    }

    fn layers(
        &mut self,
        trace: &Trace,
        _plain: &Rec,
        _budget: Duration,
        _checks: &mut Checks,
    ) -> Vec<Metric> {
        // All of the standard pipeline (`space`); per call, so per step.
        let steps = self.list_steps as f64;
        let (groups, entries, interactions) = (
            self.lists.groups as f64 / steps,
            self.lists.list_entries as f64 / steps,
            self.lists.interactions as f64 / steps,
        );
        let force_ms = trace.median_self_ms("force", "space");
        let sum = |name| trace.total_ms(name, "space").iter().sum::<f64>();
        vec![
            metric("force.phase_ms", force_ms, "ms"),
            metric("force.interactions", interactions, "count"),
            metric("force.list_entries", entries, "count"),
            metric("force.groups", groups, "count"),
            metric(
                "force.ns_per_interaction",
                force_ms * 1e6 / interactions,
                "ns",
            ),
            metric("force.list_reuse", interactions / entries, "ratio"),
            metric(
                "partition.costzones_ms",
                trace.median_self_ms("costzones", "space"),
                "ms",
            ),
            metric(
                "partition.morton_reorder_ms",
                trace.median_self_ms("morton_reorder", "space"),
                "ms",
            ),
            metric(
                "update_phase.ms",
                trace.median_self_ms("update", "space"),
                "ms",
            ),
            metric("tree_share", sum("tree") / sum("step"), "ratio"),
        ]
    }

    fn tear_down(self, _checks: &mut Checks) {}
}
