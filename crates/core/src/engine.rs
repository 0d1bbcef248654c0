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
//! A reset restores what a run reads before writing it, not the fresh
//! bytes: [`World::reset`] rewrites the body arrays and the initial
//! assignment, [`SharedTree::reset`] empties the tree's allocation state,
//! and the flat snapshot, the force lists and the builders' scratch
//! (UPDATE's body-to-leaf links, free stacks, root cube and husk lists,
//! SPACE's partitioner arrays, MORTON's sort workspace) are not touched at
//! all, because every step overwrites each slot of them it reads (UPDATE's
//! at its step 0). Scratch keeps the last job's bytes, whose values
//! no run uses. So a reused engine produces **bitwise-identical physics** to a fresh
//! [`crate::app::run_simulation`] call for the same config and bodies
//! (`tests/engine_reuse.rs` certifies this, and this module's poison test
//! runs every algorithm on state filled with garbage). Timing-derived
//! statistics may of course differ on native environments.

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
pub(crate) struct EngineState {
    n: usize,
    k: usize,
    layout: TreeLayout,
    world: World,
    tree: SharedTree,
    flat: FlatTree,
    /// Interaction-list scratch for the batched force kernel; shaped like
    /// the flat snapshot.
    force_scratch: ForceScratch,
    /// One builder per algorithm, kept because UPDATE, SPACE and MORTON
    /// own scratch arrays sized to `n`.
    builders: HashMap<Algorithm, Builder>,
}

impl EngineState {
    /// Allocate everything a run of `cfg` over `bodies` needs, the builder
    /// of `cfg.algorithm` included: the one allocation path of
    /// [`app::run_simulation`] and [`SimEngine`]. The order fixes the
    /// simulated addresses, and with them every simulated cycle.
    pub(crate) fn new<E: Env>(env: &E, cfg: &SimConfig, bodies: &[Body]) -> EngineState {
        let (n, k, layout) = (bodies.len(), cfg.k, cfg.algorithm.layout());
        let world = World::new(env, bodies);
        let tree = SharedTree::new(env, n, k, layout);
        let builder = Builder::new(env, cfg.algorithm, n, k);
        let flat = FlatTree::new(env, n, k, layout);
        let force_scratch = ForceScratch::new(env, &flat, n, env.num_procs());
        EngineState {
            n,
            k,
            layout,
            world,
            tree,
            flat,
            force_scratch,
            builders: HashMap::from([(cfg.algorithm, builder)]),
        }
    }

    /// Run `cfg` on these allocations; see [`app::execute`]. The SPACE
    /// rebalance comes from `cfg` every time, so a cached builder carries
    /// nothing over from the previous job; its threshold is the default for
    /// this state's shape.
    pub(crate) fn run<E: Env>(
        &mut self,
        env: &E,
        pool: &WorkerPool,
        cfg: &SimConfig,
    ) -> (RunStats, Vec<Body>) {
        let alg = cfg.algorithm;
        let builder = self
            .builders
            .remove(&alg)
            .unwrap_or_else(|| Builder::new(env, alg, self.n, cfg.k))
            .with_space_rebalance(cfg.space_rebalance);
        app::execute(
            env,
            pool,
            cfg,
            &self.world,
            &self.tree,
            &self.flat,
            &self.force_scratch,
            self.builders.entry(alg).or_insert(builder),
        )
    }
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
        let (n, layout) = (bodies.len(), cfg.algorithm.layout());
        let state = match self.state.take() {
            Some(st) if st.n == n && st.k == cfg.k && st.layout == layout => {
                st.world.reset(bodies);
                st.tree.reset();
                st
            }
            _ => EngineState::new(&self.env, cfg, bodies),
        };
        self.state.insert(state).run(&self.env, &self.pool, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Access, EnvLayer, LayerCtx, NativeEnv, VAddr};
    use crate::model::Model;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// `NativeEnv` plus an order-sensitive digest of every access (address,
    /// size, kind): at P = 1, equal digests mean equal access streams.
    struct Streamed {
        inner: NativeEnv,
        digest: AtomicU64,
    }

    impl EnvLayer for Streamed {
        type Inner = NativeEnv;
        type Local = ();

        fn inner(&self) -> &NativeEnv {
            &self.inner
        }

        fn make_local(&self, _proc: usize) {}

        fn on_access(&self, ctx: &mut LayerCtx<Self>, addr: VAddr, bytes: u32, kind: Access) {
            let word = addr ^ (bytes as u64) << 48 ^ (kind as u64) << 56;
            let h = self.digest.load(Ordering::Relaxed);
            let h = (h ^ word).wrapping_mul(0x100000001b3);
            self.digest.store(h, Ordering::Relaxed);
            self.inner.access(&mut ctx.inner, addr, bytes, kind)
        }
    }

    /// One job's final bodies, per-body interaction counts and access digest.
    fn job(engine: &mut SimEngine<Streamed>, cfg: &SimConfig, bodies: &[Body]) -> Job {
        let (stats, state) = engine.run_with_state(cfg, bodies);
        stats.assert_valid();
        let world = &engine.state.as_ref().unwrap().world;
        Job {
            bits: state.iter().map(bits).collect(),
            cost: (0..world.n).map(|i| world.cost.peek(i)).collect(),
            stream: engine.env.digest.swap(0, Ordering::Relaxed),
            bodies: state,
        }
    }

    struct Job {
        bodies: Vec<Body>,
        bits: Vec<[u64; 7]>,
        cost: Vec<u32>,
        stream: u64,
    }

    /// The exact bit patterns of a body.
    fn bits(b: &Body) -> [u64; 7] {
        [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass].map(f64::to_bits)
    }

    #[test]
    fn a_poisoned_parked_engine_runs_like_a_fresh_one() {
        // Every slot holds garbage when the next job starts: if a run read
        // one that its reset skips before writing it, positions,
        // velocities, interaction counts or the access stream would move
        // (NaN geometry, out-of-range refs, records marked in use).
        let bodies = Model::Plummer.generate(96, 1998);
        let engine = |procs| {
            let digest = AtomicU64::new(0);
            SimEngine::new(Streamed {
                inner: NativeEnv::new(procs),
                digest,
            })
        };
        for procs in [1, 4] {
            for alg in Algorithm::ALL {
                let mut cfg = SimConfig::new(alg);
                cfg.k = 4;
                cfg.warmup_steps = 1;
                cfg.measured_steps = 2;
                let fresh = job(&mut engine(procs), &cfg, &bodies);
                let mut parked = engine(procs);
                job(&mut parked, &cfg, &bodies);
                let st = parked.state.as_ref().unwrap();
                st.world.poison();
                st.tree.poison();
                st.flat.poison();
                st.force_scratch.poison();
                st.builders[&alg].poison();
                let reused = job(&mut parked, &cfg, &bodies);
                if procs == 1 {
                    assert!(reused.bits == fresh.bits, "{alg}: final bodies differ");
                    assert!(
                        reused.cost == fresh.cost,
                        "{alg}: interaction counts differ"
                    );
                    assert_eq!(reused.stream, fresh.stream, "{alg}: access streams differ");
                    continue;
                }
                // Racy insertion order jitters floating point at P > 1;
                // tests/engine_reuse.rs's bound.
                for (a, b) in reused.bodies.iter().zip(&fresh.bodies) {
                    let d = (a.pos - b.pos).norm().max((a.vel - b.vel).norm());
                    assert!(d <= 1e-3 && a.mass == b.mass, "{alg} at P=4: {d:e}");
                }
            }
        }
    }
}
