//! SPMD execution: a persistent worker pool, plus the classic [`spmd`]
//! helper (now a thin wrapper over a transient pool).
//!
//! The paper's protocol — and any serving deployment of this code — is many
//! short runs. Spawning one OS thread per processor per run makes thread
//! creation a per-run cost; [`WorkerPool`] makes it an engine-lifetime cost:
//! the threads spawn once, park between jobs, and execute submitted SPMD
//! closures. Worker `i` always runs processor `i`, so per-processor state
//! (context, locality) maps to a stable thread across jobs.
//!
//! Synchronization is a mutex + two condvars: submitting a job bumps a
//! sequence number and wakes every worker; each worker runs the closure for
//! its processor and decrements a remaining-count; the submitter sleeps
//! until the count reaches zero. The mutex hand-offs establish the
//! happens-before edges that make the borrowed-closure lifetime erasure
//! below sound, and that order one job's memory effects before the next
//! job's (the engine's untimed `reset` writes included).

use crate::env::{Env, Phase};
use crate::sync::PartyLeft;
use std::any::Any;
use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

thread_local! {
    /// The phase/step the current worker thread is executing, maintained by
    /// [`crate::pipeline::run_step`]. Read when enriching a
    /// propagated panic so schedule-exploration counterexamples name the
    /// failing phase, not just the processor.
    static WORKER_PHASE: Cell<Option<(Phase, u32)>> = const { Cell::new(None) };
}

/// Record (or clear, with `None`) the phase the calling worker thread is in.
/// Purely diagnostic: consumed by the worker-panic enrichment below.
pub fn set_worker_phase(phase: Option<(Phase, u32)>) {
    WORKER_PHASE.with(|c| c.set(phase));
}

/// The message of a panic payload, when it is a `&str` or a `String` (what
/// `panic!` produces); each caller picks its own text for any other payload.
/// Pass `&*payload`: a `&Box<dyn Any + Send>` would coerce the `Box` itself
/// into the `dyn Any`, and neither downcast would hit.
pub fn panic_text(payload: &(dyn Any + Send)) -> Option<&str> {
    match payload.downcast_ref::<&str>() {
        Some(s) => Some(s),
        None => payload.downcast_ref::<String>().map(String::as_str),
    }
}

/// Rewrap a string-ish worker panic payload as
/// `"worker <proc> [in <phase> phase of step <n>]: <original message>"`.
/// Non-string payloads pass through untouched (never lose a typed payload).
fn enrich_panic(proc: usize, payload: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
    let Some(m) = panic_text(&*payload) else {
        return payload;
    };
    let at = match WORKER_PHASE.with(|c| c.get()) {
        Some((phase, step)) => format!(" in {phase} phase of step {step}"),
        None => String::new(),
    };
    Box::new(format!("worker {proc}{at}: {m}"))
}

/// Calls [`Env::worker_end`] when dropped, so that it runs however the job
/// leaves the worker, unwinding included.
struct WorkerEnd<'a, E: Env>(&'a E, usize);

impl<E: Env> Drop for WorkerEnd<'_, E> {
    fn drop(&mut self) {
        self.0.worker_end(self.1);
    }
}

/// A type-erased pointer to the borrowed per-job closure. Only ever
/// dereferenced by workers between job submission and job completion, while
/// the submitting `run` call keeps the closure alive on its stack.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-call-safe) and the pool's
// completion protocol guarantees it outlives every use (see `run`).
unsafe impl Send for Job {}

struct PoolState {
    /// Sequence number of the current job; bumped on submission.
    seq: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current job.
    remaining: usize,
    /// First worker panic of the current job, if any.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled on job submission and shutdown.
    work: Condvar,
    /// Signaled when the last worker finishes a job.
    done: Condvar,
}

impl PoolShared {
    /// Poison-ignoring lock (a worker panic is reported via `panic`, not by
    /// poisoning the pool).
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait<'a>(&self, cv: &Condvar, g: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
        match cv.wait(g) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A pool of parked worker threads executing SPMD jobs, one thread per
/// processor. Threads spawn in [`WorkerPool::new`] and live until the pool
/// drops; [`WorkerPool::run`] dispatches one closure invocation per
/// processor and blocks until all of them return.
pub struct WorkerPool {
    procs: usize,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `procs` parked workers.
    pub fn new(procs: usize) -> WorkerPool {
        assert!(procs > 0, "worker pool needs at least one processor");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                seq: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..procs)
            .map(|proc| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bh-worker-{proc}"))
                    .spawn(move || worker_loop(proc, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            procs,
            shared,
            handles,
        }
    }

    /// Number of processors (= worker threads) in the pool.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Run `f(proc, ctx)` once per processor of `env` on the pool's workers,
    /// returning the per-processor results in processor order. Blocks until
    /// every worker finished; panics in any worker propagate (with the
    /// original payload) after all workers completed the job. A worker that
    /// panics abandons the environment's barrier, so its peers unwind from
    /// it instead of waiting for the worker forever (a peer waiting on a
    /// lock the worker held still does).
    pub fn run<E, R, F>(&self, env: &E, f: F) -> Vec<R>
    where
        E: Env,
        R: Send,
        F: Fn(usize, &mut E::Ctx) -> R + Sync,
    {
        assert_eq!(
            env.num_procs(),
            self.procs,
            "environment has {} processors but the pool has {} workers",
            env.num_procs(),
            self.procs
        );
        let results: Vec<std::sync::Mutex<Option<R>>> = (0..self.procs)
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        let call = |proc: usize| {
            // Bracket the job with the Env scheduling hooks. `worker_end`
            // must run even when the job unwinds — a controlled scheduler
            // ([`crate::sched::SchedEnv`]) or a barrier's waiters otherwise
            // wait forever for the departed worker — so a guard calls it.
            let _end = WorkerEnd(env, proc);
            env.worker_begin(proc);
            let mut ctx = env.make_ctx(proc);
            let r = f(proc, &mut ctx);
            *results[proc].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        };
        let wide: &(dyn Fn(usize) + Sync) = &call;
        // SAFETY: `run` does not return until `remaining == 0`, i.e. until
        // every worker has finished (or unwound from) its invocation of the
        // closure, so erasing the borrow lifetime cannot produce a dangling
        // use: `call` outlives all dereferences of the pointer.
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                wide as *const _,
            )
        });

        {
            let mut g = self.shared.lock();
            debug_assert_eq!(g.remaining, 0, "pool ran two jobs at once");
            g.seq += 1;
            g.job = Some(job);
            g.remaining = self.procs;
            g.panic = None;
            self.shared.work.notify_all();
        }
        {
            let mut g = self.shared.lock();
            while g.remaining > 0 {
                g = self.shared.wait(&self.shared.done, g);
            }
            g.job = None;
            if let Some(payload) = g.panic.take() {
                drop(g);
                std::panic::resume_unwind(payload);
            }
        }
        results
            .into_iter()
            .map(|m| {
                m.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("worker produced no result")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.lock();
            g.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(proc: usize, shared: &PoolShared) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut g = shared.lock();
            loop {
                if g.shutdown {
                    return;
                }
                if g.seq != last_seq {
                    break;
                }
                g = shared.wait(&shared.work, g);
            }
            last_seq = g.seq;
            g.job.expect("job set when seq advances")
        };
        // A panic mid-phase leaves the thread-local set; clear it so a later
        // job's failure is not attributed to a stale phase.
        set_worker_phase(None);
        // SAFETY: the submitting `run` call keeps the pointee alive until
        // every worker reports completion below; see `WorkerPool::run`.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(proc) }));
        let mut g = shared.lock();
        if let Err(payload) = outcome {
            // A peer unwound from an abandoned barrier only because another
            // worker left: that worker's own payload is the one to report.
            if g.panic.as_ref().is_none_or(|p| p.is::<PartyLeft>()) {
                g.panic = Some(enrich_panic(proc, payload));
            }
        }
        g.remaining -= 1;
        if g.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Run `f(proc, ctx)` on one thread per processor of `env`, returning the
/// per-processor results in processor order. Panics in any worker propagate.
///
/// Compatibility wrapper over [`WorkerPool`]: each call spins up a transient
/// pool (the same per-run thread cost as the historical `thread::scope`
/// implementation). Long-lived callers should hold a
/// [`crate::engine::SimEngine`] — or a [`WorkerPool`] directly — to reuse
/// the workers across runs.
pub fn spmd<E, R, F>(env: &E, f: F) -> Vec<R>
where
    E: Env,
    R: Send,
    F: Fn(usize, &mut E::Ctx) -> R + Sync,
{
    WorkerPool::new(env.num_procs()).run(env, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NativeEnv;

    #[test]
    fn spmd_runs_every_proc_once() {
        let env = NativeEnv::new(6);
        let out = spmd(&env, |proc, _ctx| proc * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn spmd_allows_barriers() {
        let env = NativeEnv::new(4);
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        spmd(&env, |_proc, ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
            crate::env::Env::barrier(&env, ctx);
            assert_eq!(hits.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn pool_reuses_workers_across_jobs() {
        let env = NativeEnv::new(4);
        let pool = WorkerPool::new(4);
        let first: Vec<std::thread::ThreadId> =
            pool.run(&env, |_proc, _ctx| std::thread::current().id());
        for round in 0..3 {
            let out = pool.run(&env, |proc, _ctx| {
                (std::thread::current().id(), proc + round)
            });
            for (p, (tid, v)) in out.into_iter().enumerate() {
                assert_eq!(tid, first[p], "processor {p} moved threads between jobs");
                assert_eq!(v, p + round);
            }
        }
    }

    #[test]
    fn pool_supports_barriers_across_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let env = NativeEnv::new(4);
        let pool = WorkerPool::new(4);
        for _ in 0..3 {
            let hits = AtomicUsize::new(0);
            pool.run(&env, |_proc, ctx| {
                hits.fetch_add(1, Ordering::SeqCst);
                crate::env::Env::barrier(&env, ctx);
                assert_eq!(hits.load(Ordering::SeqCst), 4);
            });
        }
    }

    #[test]
    fn pool_propagates_worker_panics_with_payload() {
        let env = NativeEnv::new(3);
        let pool = WorkerPool::new(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&env, |proc, _ctx| {
                if proc == 1 {
                    panic!("boom from worker 1");
                }
                proc
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".to_string());
        assert!(msg.contains("boom from worker 1"), "payload lost: {msg}");
        // The failing processor index is part of the propagated message.
        assert!(msg.starts_with("worker 1"), "proc attribution lost: {msg}");
        // The pool must stay usable after a panicked job.
        let out = pool.run(&env, |proc, _ctx| proc);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn pool_panics_carry_proc_and_phase() {
        let env = NativeEnv::new(2);
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&env, |proc, _ctx| {
                if proc == 1 {
                    set_worker_phase(Some((Phase::Force, 3)));
                    panic!("diverged");
                }
            })
        }));
        let msg = caught
            .expect_err("panic must propagate")
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(
            msg.contains("worker 1") && msg.contains("force phase of step 3"),
            "attribution missing: {msg}"
        );
        // The stale phase must not leak into the next job's attribution.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&env, |proc, _ctx| {
                if proc == 0 {
                    panic!("early");
                }
            })
        }));
        let msg = caught
            .expect_err("panic must propagate")
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(
            msg.starts_with("worker 0:") && !msg.contains("phase"),
            "stale phase leaked: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "3 processors but the pool has 2 workers")]
    fn pool_rejects_mismatched_env() {
        let env = NativeEnv::new(3);
        let pool = WorkerPool::new(2);
        pool.run(&env, |proc, _ctx| proc);
    }
}
