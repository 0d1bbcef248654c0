//! Experiment harness regenerating every table and figure of Shan & Singh
//! (IPPS 1998). Each experiment module produces a [`Table`] whose rows match
//! the paper's reported series; the `repro` binary prints them and can dump
//! JSON records.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cliargs;
pub mod experiments;
pub mod records;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod tables;

/// JSON parsing moved down into `bh-serve` (the job protocol needs it
/// below the experiments layer); re-exported here so the report tooling
/// and schema gates keep their historical import path.
pub use bh_serve::json;

pub use runner::{run_cached, run_on_platform, seq_time_on_platform, ExperimentScale, PlatformRun};
pub use sweep::{SweepJob, SweepScheduler};
pub use tables::Table;
