//! Simulation-as-a-service: a multi-tenant job server over
//! [`SimEngine`](bh_core::engine::SimEngine).
//!
//! The paper's experiments run as batch sweeps; this crate turns the same
//! engine into a long-lived service, the way a production system would
//! serve many users' tree-build workloads on one shared-memory machine:
//!
//! * [`protocol`] — line-delimited JSON requests/responses (hand-rolled on
//!   [`json`]; the workspace builds offline, so no HTTP stack).
//! * [`job`] — validated job specs, engine-shape cache keys, physics
//!   digests.
//! * [`queue`] — bounded admission with per-tenant deficit round-robin
//!   fairness and explicit `queue_full` backpressure.
//! * [`cache`] — keyed LRU reuse of warm engines (worker pools +
//!   allocations), bitwise-safe at one processor.
//! * [`exec`] — one job spec in, one outcome out.
//! * [`server`] — executor workers, admission, graceful drain.
//! * [`transport`] — unix/TCP listeners, one reader thread per connection.
//! * [`client`] — blocking line-oriented client (`bhbench serve-mixed`,
//!   the protocol tests).
//!
//! Layering: `bh-serve` sits between `bh-core`/`ssmp` and
//! `bh-experiments`, which uses its [`json`] reader. [`server::Server`]
//! serves simulation jobs only, to the socket [`transport`], `bhbench` and
//! tests; `repro`'s batch prewarm runs on its own threads.

#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod exec;
pub mod job;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod transport;
