//! # ssmp — a shared-address-space multiprocessor simulator
//!
//! Substrate for reproducing Shan & Singh (IPPS 1998): runs the `bh-core`
//! algorithms unmodified on cost models of the paper's four platforms —
//! SGI Challenge (bus MESI), SGI Origin 2000 (directory CC-NUMA), Intel
//! Paragon (page-grained HLRC shared virtual memory in software), and
//! Wisconsin Typhoon-zero (both HLRC and a fine-grained sequentially
//! consistent software protocol).
//!
//! ```
//! use bh_core::prelude::*;
//! use ssmp::{platform, Machine};
//!
//! let bodies = Model::Plummer.generate(512, 1);
//! let machine = Machine::new(platform::origin2000(4), 4);
//! let mut cfg = SimConfig::new(Algorithm::Space);
//! cfg.warmup_steps = 1;
//! cfg.measured_steps = 1;
//! let stats = run_simulation(&machine, &cfg, &bodies);
//! stats.assert_valid();
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod attr;
pub mod cache;
pub mod config;
pub mod machine;
pub mod platform;

pub use attr::{slot_name, AttrCell, AttrTable, ATTR_SLOTS, SETUP_SLOT};
pub use config::{CostModel, Protocol};
pub use machine::{Machine, SimCtx, MAX_PROCS};
