//! A persistent simulation engine: one worker pool plus reusable run state.
//!
//! [`crate::app::run_simulation`] pays the full setup cost on every call —
//! threads spawned and joined, `World`/`SharedTree`/`FlatTree` allocated
//! from scratch. That is fine for a single run but dominates short runs in
//! an experiment sweep, where hundreds of jobs share the same body count
//! and leaf threshold. `SimEngine` keeps both alive:
//!
//! - the [`WorkerPool`] is created once and parks between jobs;
//! - the shared state is `reset()` (not reallocated) whenever the next
//!   job's shape — body count, leaf threshold, tree layout — matches the
//!   previous one; an incompatible job simply reallocates.
//!
//! Because `reset()` restores exactly the state a fresh allocation starts
//! with, a reused engine produces **bitwise-identical physics** to a fresh
//! [`crate::app::run_simulation`] call for the same config and bodies
//! (`tests/engine_reuse.rs` certifies this). Timing-derived statistics may
//! of course differ on native environments.

use std::collections::HashMap;

use crate::algorithms::{Algorithm, Builder};
use crate::app::{self, RunStats, SimConfig};
use crate::body::Body;
use crate::env::Env;
use crate::force::ForceScratch;
use crate::harness::WorkerPool;
use crate::tree::flat::FlatTree;
use crate::tree::types::{SharedTree, TreeLayout};
use crate::world::World;

/// The allocation-shape key plus the allocations themselves.
struct EngineState {
    n: usize,
    k: usize,
    layout: TreeLayout,
    world: World,
    tree: SharedTree,
    flat: FlatTree,
    /// Interaction-list scratch for the batched force kernel; shaped like
    /// the flat snapshot.
    force_scratch: ForceScratch,
    /// One builder per algorithm, kept because some algorithms (Update)
    /// own per-processor scratch arrays sized to `n`.
    builders: HashMap<Algorithm, Builder>,
}

/// A reusable simulation engine bound to one environment.
pub struct SimEngine<E: Env> {
    env: E,
    pool: WorkerPool,
    state: Option<EngineState>,
}

impl<E: Env> SimEngine<E> {
    /// Spin up the worker pool for `env`; no simulation state is allocated
    /// until the first run.
    pub fn new(env: E) -> SimEngine<E> {
        let pool = WorkerPool::new(env.num_procs());
        SimEngine {
            env,
            pool,
            state: None,
        }
    }

    /// The engine's environment (e.g. to inspect a checker or trace sink
    /// after runs).
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Run one job; see [`crate::app::run_simulation`]. State from a prior
    /// compatible job is reset and reused instead of reallocated.
    pub fn run(&mut self, cfg: &SimConfig, bodies: &[Body]) -> RunStats {
        self.run_with_state(cfg, bodies).0
    }

    /// Run one job and also return the final body state; see
    /// [`crate::app::run_simulation_with_state`].
    pub fn run_with_state(&mut self, cfg: &SimConfig, bodies: &[Body]) -> (RunStats, Vec<Body>) {
        let n = bodies.len();
        let layout = cfg.algorithm.layout();
        let compatible = self
            .state
            .as_ref()
            .is_some_and(|s| s.n == n && s.k == cfg.k && s.layout == layout);
        if compatible {
            let st = self.state.as_mut().unwrap();
            st.world.reset(bodies);
            st.tree.reset();
            st.flat.reset();
            // Hygiene, like FlatTree::reset: evaluation only ever reads
            // entries the same step's traversal emitted.
            st.force_scratch.reset();
        } else {
            let flat = FlatTree::new(&self.env, n, cfg.k, layout);
            let force_scratch = ForceScratch::new(&self.env, &flat, n, self.env.num_procs());
            self.state = Some(EngineState {
                n,
                k: cfg.k,
                layout,
                world: World::new(&self.env, bodies),
                tree: SharedTree::new(&self.env, n, cfg.k, layout),
                flat,
                force_scratch,
                builders: HashMap::new(),
            });
        }

        let env = &self.env;
        let st = self.state.as_mut().unwrap();
        let builder = st
            .builders
            .entry(cfg.algorithm)
            .or_insert_with(|| Builder::new(env, cfg.algorithm, n, cfg.k));
        // The threshold/rebalance knobs live on the builder; recompute them
        // from this job's config so a cached builder carries nothing over
        // from the previous job.
        builder.space_threshold = match cfg.space_threshold {
            Some(t) => t.max(1),
            None => crate::algorithms::space::default_threshold(n, env.num_procs(), cfg.k),
        };
        builder.space_rebalance = cfg.space_rebalance.max(0.0);
        if cfg.algorithm.builds_flat_directly() {
            // Like FlatTree::reset: keep reused-engine runs bitwise
            // indistinguishable from fresh ones (each step overwrites every
            // workspace slot it reads, so this is hygiene, not correctness).
            builder.morton_scratch().reset();
        }

        app::execute(
            env,
            &self.pool,
            cfg,
            &st.world,
            &st.tree,
            &st.flat,
            &st.force_scratch,
            builder,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NativeEnv;
    use crate::model::Model;

    #[test]
    fn engine_reallocates_on_shape_change_and_reuses_otherwise() {
        let mut engine = SimEngine::new(NativeEnv::new(2));
        let small = Model::Plummer.generate(48, 7);
        let large = Model::Plummer.generate(96, 7);
        let mut cfg = SimConfig::new(Algorithm::Partree);
        cfg.warmup_steps = 1;
        cfg.measured_steps = 1;

        engine.run(&cfg, &small).assert_valid();
        assert_eq!(engine.state.as_ref().unwrap().n, 48);
        // Same shape: reuse (the builder map remembers the algorithm).
        engine.run(&cfg, &small).assert_valid();
        assert_eq!(engine.state.as_ref().unwrap().builders.len(), 1);
        // New body count: reallocate, dropping cached builders.
        engine.run(&cfg, &large).assert_valid();
        let st = engine.state.as_ref().unwrap();
        assert_eq!(st.n, 96);
        assert_eq!(st.builders.len(), 1);
    }

    #[test]
    fn engine_switches_algorithms_within_one_allocation() {
        let mut engine = SimEngine::new(NativeEnv::new(2));
        let bodies = Model::Plummer.generate(64, 11);
        for alg in [Algorithm::Local, Algorithm::Update, Algorithm::Space] {
            let mut cfg = SimConfig::new(alg);
            cfg.warmup_steps = 1;
            cfg.measured_steps = 1;
            engine.run(&cfg, &bodies).assert_valid();
        }
        // Local/Update/Space share the per-processor layout: one allocation,
        // three cached builders.
        assert_eq!(engine.state.as_ref().unwrap().builders.len(), 3);
    }
}
