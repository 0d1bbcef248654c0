//! # bh-core — parallel tree building for hierarchical N-body methods
//!
//! A from-scratch Rust reproduction of the system studied in:
//!
//! > Hongzhang Shan and Jaswinder Pal Singh, *Parallel Tree Building on a
//! > Range of Shared Address Space Multiprocessors: Algorithms and
//! > Application Performance*, IPPS 1998.
//!
//! This crate contains the complete 3-D Barnes-Hut galaxy simulation and the
//! paper's five parallel tree-building algorithms — ORIG, LOCAL, UPDATE,
//! PARTREE and the paper's new lock-free SPACE algorithm — plus a sixth,
//! MORTON, which sorts bodies by Morton key and emits the flat force tree
//! directly. All are written once, generic over the [`env::Env`]
//! shared-address-space abstraction. With
//! [`env::NativeEnv`] they run at full speed on host threads; with the
//! `ssmp` crate's simulation environments the same code "runs on" the four
//! platforms of the paper (SGI Challenge, SGI Origin 2000, Intel Paragon
//! under HLRC shared virtual memory, Wisconsin Typhoon-zero).
//!
//! ## Quick start
//!
//! ```
//! use bh_core::prelude::*;
//!
//! let bodies = Model::Plummer.generate(2_000, 42);
//! let env = NativeEnv::new(4);
//! let cfg = SimConfig::new(Algorithm::Space);
//! let stats = run_simulation(&env, &cfg, &bodies);
//! stats.assert_valid();
//! println!("tree build took {:.1}% of the step", 100.0 * stats.tree_fraction());
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod algorithms;
pub mod app;
pub mod body;
pub mod check;
pub mod engine;
pub mod env;
pub mod force;
pub mod harness;
pub mod math;
pub mod model;
pub mod partition;
pub mod pipeline;
pub mod rng;
pub mod sched;
pub mod seq_app;
pub mod shared;
pub mod sync;
pub mod trace;
pub mod tree;
pub mod update_phase;
pub mod world;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::algorithms::Algorithm;
    pub use crate::app::{
        percentile_f64, percentile_u64, run_simulation, run_simulation_with_state, RunStats,
        SimConfig, StepPhaseRow,
    };
    pub use crate::body::Body;
    pub use crate::check::{CheckedEnv, Granularity, RaceReport};
    pub use crate::engine::SimEngine;
    pub use crate::env::{CtxStats, Env, NativeEnv, Phase, Placement, Region};
    pub use crate::force::ForceParams;
    pub use crate::harness::WorkerPool;
    pub use crate::math::{Aabb, Cube, Vec3};
    pub use crate::model::Model;
    pub use crate::shared::RegionMap;

    pub use crate::sched::{
        explore, CounterExample, Exploration, ExplorePlan, Finding, MatrixSpec, SchedConfig,
        SchedEnv, SchedStrategy, VerifyEnv,
    };
    pub use crate::tree::{SeqTree, SharedTree, TreeLayout};
    pub use crate::world::World;
}
