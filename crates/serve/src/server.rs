//! The job server: bounded admission, fair scheduling, executor workers.
//!
//! Layering (top to bottom):
//!
//! ```text
//!   transport (sockets)      tests (in-process)
//!            \                  /
//!             Server::submit
//!                      |
//!          AdmissionQueue (bounded, DRR-fair)     <- one mutex
//!                      |
//!          executor workers (condvar-woken threads)
//!                      |
//!          EngineCache checkout -> run_job -> park
//! ```
//!
//! This module is on the sync-confinement whitelist: it owns the server's
//! threads and condition variables, the same way `harness.rs` owns the
//! worker pool's. Job *logic* (queueing policy, cache policy, execution)
//! lives in the lock-free sibling modules and is reused verbatim by tests.
//!
//! Shutdown is graceful by construction: `shutdown()` closes admission,
//! wakes every worker, lets queued jobs drain, joins the workers, then
//! clears the engine cache (parking each pool's threads on drop).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::cache::{AnyEngine, CacheCounters, EngineCache};
use crate::exec::{run_job, JobOutcome};
use crate::job::JobSpec;
use crate::queue::{AdmissionQueue, TenantCounters};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads (each runs one job at a time; each job may itself
    /// use a multi-proc worker pool from the engine cache).
    pub workers: usize,
    /// Bound on queued-but-not-running jobs; beyond it, `queue_full`.
    pub queue_capacity: usize,
    /// Bound on parked engines.
    pub engine_capacity: usize,
    /// DRR cost credit per turn for a weight-1 tenant.
    pub quantum: u64,
    /// Per-tenant weights (unlisted tenants get weight 1).
    pub weights: Vec<(String, u32)>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            engine_capacity: 8,
            // One ~4k-body step of credit per turn: small jobs interleave
            // finely, big jobs take a few turns of credit to dispatch.
            quantum: 50_000,
            weights: Vec::new(),
        }
    }
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — explicit backpressure.
    QueueFull,
    /// The server is draining and admits nothing new.
    ShuttingDown,
    /// The spec failed validation (message names the offending field).
    Invalid(String),
}

impl SubmitError {
    /// Stable protocol error code.
    pub fn code(&self) -> &'static str {
        match self {
            SubmitError::QueueFull => "queue_full",
            SubmitError::ShuttingDown => "shutting_down",
            SubmitError::Invalid(_) => "bad_request",
        }
    }
}

/// How one admitted job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    Done(JobOutcome),
    /// The job panicked inside the engine; the engine was dropped, the
    /// worker survived.
    Failed(String),
}

type DoneFn = Box<dyn FnOnce(JobResult) + Send + 'static>;

/// An admitted simulation job: its spec, and who hears how it ended.
struct Work {
    spec: Box<JobSpec>,
    on_done: DoneFn,
}

struct Inner {
    queue: AdmissionQueue<Work>,
    cache: EngineCache,
    draining: bool,
    /// Jobs admitted but not yet finished (queued + running).
    in_flight: usize,
    /// Queue depth at every admission, as a histogram.
    depths: DepthCounts,
}

/// How many admissions saw each queue depth: `counts[d]` for depth `d`.
/// Admission depth is always in `1..=capacity`, so storage is fixed at
/// `capacity + 1` counters however many jobs the server admits.
struct DepthCounts {
    counts: Vec<u64>,
}

impl DepthCounts {
    fn new(capacity: usize) -> DepthCounts {
        DepthCounts {
            counts: vec![0; capacity + 1],
        }
    }

    fn record(&mut self, depth: usize) {
        self.counts[depth] += 1;
    }

    /// Nearest-rank percentile of the recorded depths, the value
    /// [`percentile_u64`](bh_core::prelude::percentile_u64) gives over the
    /// raw admission sequence (`0` before the first admission).
    fn percentile(&self, p: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        let depth = self.counts.iter().position(|&c| {
            seen += c;
            seen >= rank
        });
        depth.expect("rank within the recorded depths") as u64
    }
}

struct Shared {
    inner: Mutex<Inner>,
    /// Workers sleep here when the queue is empty.
    work_ready: Condvar,
    /// `wait_idle` sleeps here until `in_flight` reaches zero.
    idle: Condvar,
    served_total: AtomicU64,
}

/// A snapshot of server health, for the `stats` op and `bhbench`.
#[derive(Debug, Clone)]
pub struct ServerStats {
    pub queue_depth: usize,
    pub queue_capacity: usize,
    pub depth_hwm: usize,
    pub rejected_full: u64,
    pub served_total: u64,
    pub cache: CacheCounters,
    pub cached_engines: usize,
    pub tenants: Vec<(String, TenantCounters)>,
    /// Nearest-rank percentiles of the queue depth seen at admission.
    pub depth_p50: u64,
    pub depth_p99: u64,
}

/// Multi-tenant job server over [`SimEngine`](bh_core::engine::SimEngine).
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    pub fn start(cfg: ServerConfig) -> Server {
        assert!(cfg.workers > 0);
        let mut queue = AdmissionQueue::new(cfg.queue_capacity, cfg.quantum.max(1));
        let depths = DepthCounts::new(queue.capacity());
        for (tenant, weight) in &cfg.weights {
            queue.set_weight(tenant, *weight);
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue,
                cache: EngineCache::new(cfg.engine_capacity),
                draining: false,
                in_flight: 0,
                depths,
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            served_total: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor")
            })
            .collect();
        Server { shared, workers }
    }

    /// Submit a simulation job for `tenant`. `on_done` runs on an executor
    /// thread when the job finishes — transports use it to write the
    /// response, so the submitting (reader) thread never blocks on job
    /// completion and keeps admitting pipelined requests. That is what
    /// makes the bounded queue actually fill (and reject) under burst.
    pub fn submit(&self, tenant: &str, spec: JobSpec, on_done: DoneFn) -> Result<(), SubmitError> {
        if let Err(msg) = spec.validate() {
            return Err(SubmitError::Invalid(msg));
        }
        let cost = spec.cost();
        let work = Work {
            spec: Box::new(spec),
            on_done,
        };
        let mut inner = self.shared.inner.lock().unwrap();
        if inner.draining {
            return Err(SubmitError::ShuttingDown);
        }
        match inner.queue.push(tenant, cost, work) {
            Ok(()) => {
                inner.in_flight += 1;
                let depth = inner.queue.len();
                inner.depths.record(depth);
                drop(inner);
                self.shared.work_ready.notify_one();
                Ok(())
            }
            Err(_work) => Err(SubmitError::QueueFull),
        }
    }

    /// Block until every admitted job has finished.
    pub fn wait_idle(&self) {
        let mut inner = self.shared.inner.lock().unwrap();
        while inner.in_flight > 0 {
            inner = self.shared.idle.wait(inner).unwrap();
        }
    }

    /// Snapshot of counters and queue state.
    pub fn stats(&self) -> ServerStats {
        let inner = self.shared.inner.lock().unwrap();
        ServerStats {
            queue_depth: inner.queue.len(),
            queue_capacity: inner.queue.capacity(),
            depth_hwm: inner.queue.depth_hwm,
            rejected_full: inner.queue.rejected_full,
            served_total: self.shared.served_total.load(Ordering::Relaxed),
            cache: inner.cache.counters,
            cached_engines: inner.cache.len(),
            tenants: inner.queue.counters(),
            depth_p50: inner.depths.percentile(50.0),
            depth_p99: inner.depths.percentile(99.0),
        }
    }

    /// Graceful shutdown: stop admitting, drain queued jobs, join workers,
    /// drop parked engines (their pools park threads on drop).
    pub fn shutdown(mut self) -> ServerStats {
        {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.draining = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            w.join().expect("executor worker panicked outside a job");
        }
        let stats = self.stats();
        self.shared.inner.lock().unwrap().cache.clear();
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not shut down) server still stops its workers.
        {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.draining = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut inner = shared.inner.lock().unwrap();
            loop {
                if let Some((_tenant, work)) = inner.queue.pop() {
                    break work;
                }
                if inner.draining {
                    return;
                }
                inner = shared.work_ready.wait(inner).unwrap();
            }
        };
        let Work { spec, on_done } = work;
        let shape = spec.shape();
        let (cached, fresh_needed) = {
            let mut inner = shared.inner.lock().unwrap();
            match inner.cache.checkout(&shape) {
                Some(e) => (Some(e), false),
                None => (None, true),
            }
        };
        let cache_hit = !fresh_needed;
        // Engine construction and the run itself happen unlocked.
        let mut engine = cached.unwrap_or_else(|| AnyEngine::fresh(&shape));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| run_job(&mut engine, &spec)));
        let result = match result {
            Ok(mut outcome) => {
                outcome.cache_hit = cache_hit;
                // Only a healthy engine goes back in the cache.
                shared.inner.lock().unwrap().cache.park(shape, engine);
                shared.served_total.fetch_add(1, Ordering::Relaxed);
                JobResult::Done(outcome)
            }
            Err(panic) => {
                drop(engine); // poisoned pool: discard, never park
                JobResult::Failed(panic_message(panic))
            }
        };
        // The callback is client code; its panics must not kill the
        // worker either.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(move || on_done(result)));
        let mut inner = shared.inner.lock().unwrap();
        inner.in_flight -= 1;
        if inner.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

/// The message of a caught panic. Takes the payload by value: a `&Box<..>`
/// argument would coerce the `Box` itself into the `dyn Any`, and no
/// downcast below would hit.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Per-tenant weight map helper for transports ("gold=3,bronze=1").
pub fn parse_weights(s: &str) -> Result<Vec<(String, u32)>, String> {
    let mut out = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (name, w) = part
            .split_once('=')
            .ok_or_else(|| format!("invalid weight '{part}' (expected tenant=weight)"))?;
        let w: u32 = w
            .parse()
            .map_err(|_| format!("invalid weight '{part}' (expected tenant=weight)"))?;
        out.push((name.to_string(), w));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn tiny_spec(n: usize) -> JobSpec {
        let mut s = JobSpec::defaults(n);
        s.steps = 1;
        s.warmup = 0;
        s
    }

    #[test]
    fn serves_jobs_and_reports_outcomes() {
        let server = Server::start(ServerConfig {
            workers: 2,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            server
                .submit("t", tiny_spec(64), Box::new(move |r| tx.send(r).unwrap()))
                .unwrap();
        }
        let results: Vec<JobResult> = rx.iter().take(4).collect();
        let mut digests = Vec::new();
        for r in results {
            match r {
                JobResult::Done(o) => digests.push(o.digest),
                JobResult::Failed(m) => panic!("job failed: {m}"),
            }
        }
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        let stats = server.shutdown();
        assert_eq!(stats.served_total, 4);
        assert!(stats.cache.hits + stats.cache.misses == 4);
        assert!(
            stats.cache.hits >= 1,
            "same-shape jobs should reuse engines"
        );
    }

    #[test]
    fn invalid_specs_are_rejected_at_admission() {
        let server = Server::start(ServerConfig::default());
        let mut bad = tiny_spec(64);
        bad.procs = 999;
        let err = server
            .submit("t", bad, Box::new(|_| panic!("must not run")))
            .unwrap_err();
        assert_eq!(err.code(), "bad_request");
        match err {
            SubmitError::Invalid(msg) => assert!(msg.contains("procs 999"), "{msg}"),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn depth_counts_give_the_raw_percentiles_in_fixed_storage() {
        let capacity = 8;
        let mut depths = DepthCounts::new(capacity);
        assert_eq!(depths.percentile(99.0), 0, "no admission yet");
        // A scripted admission sequence: a ramp up to the capacity, a
        // plateau, a drain, repeated far past the number of counters.
        let script: Vec<u64> = (0..1000u64)
            .map(|i| match i % 20 {
                t @ 0..=7 => t + 1,
                8..=13 => 8,
                t => 20 - t,
            })
            .collect();
        for (i, &d) in script.iter().enumerate() {
            depths.record(d as usize);
            let seen = &script[..=i];
            for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    depths.percentile(p),
                    bh_core::prelude::percentile_u64(seen, p),
                    "p{p} after {} admissions",
                    i + 1
                );
            }
        }
        assert_eq!(depths.counts.len(), capacity + 1);
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        // One worker wedged in a job's callback keeps the queue occupied.
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        });
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        let wedge = move |_| {
            running_tx.send(()).unwrap();
            let _ = block_rx.recv();
        };
        server.submit("t", tiny_spec(32), Box::new(wedge)).unwrap();
        running_rx.recv().unwrap();
        let submit = || server.submit("t", tiny_spec(32), Box::new(|_| {}));
        submit().unwrap();
        submit().unwrap();
        assert_eq!(submit().unwrap_err(), SubmitError::QueueFull);
        let stats = server.stats();
        assert_eq!(stats.rejected_full, 1);
        assert_eq!(stats.depth_hwm, 2);
        block_tx.send(()).unwrap();
        server.wait_idle();
        assert_eq!(server.shutdown().served_total, 3);
    }

    #[test]
    fn panicking_job_fails_cleanly_and_workers_survive() {
        let server = Server::start(ServerConfig {
            workers: 1,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        server
            .submit("t", tiny_spec(64), Box::new(|_| panic!("boom")))
            .unwrap();
        server
            .submit("t", tiny_spec(64), Box::new(move |r| tx.send(r).unwrap()))
            .unwrap();
        match rx.recv().unwrap() {
            JobResult::Done(o) => assert!(o.digest != 0),
            JobResult::Failed(m) => panic!("follow-up job failed: {m}"),
        }
        // Both jobs ran; the first one's callback panicked after it.
        let stats = server.shutdown();
        assert_eq!(stats.served_total, 2);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 16,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        for _ in 0..6 {
            let tx = tx.clone();
            server
                .submit(
                    "t",
                    tiny_spec(32),
                    Box::new(move |r| tx.send(matches!(r, JobResult::Done(_))).unwrap()),
                )
                .unwrap();
        }
        let stats = server.shutdown(); // must run all 6 before returning
        assert_eq!(stats.served_total, 6);
        assert_eq!(rx.iter().take(6).filter(|ok| *ok).count(), 6);
    }

    #[test]
    fn parse_weights_accepts_lists_and_rejects_garbage() {
        assert_eq!(
            parse_weights("gold=3,bronze=1").unwrap(),
            vec![("gold".to_string(), 3), ("bronze".to_string(), 1)]
        );
        assert_eq!(parse_weights("").unwrap(), vec![]);
        assert!(parse_weights("gold").unwrap_err().contains("gold"));
        assert!(parse_weights("gold=x").unwrap_err().contains("gold=x"));
    }
}
