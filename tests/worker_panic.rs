//! A worker that panics mid-job ends the job instead of hanging its peers.
//!
//! The panicking worker never arrives at the next barrier, so a peer that
//! waits there would wait forever. `WorkerPool::run` calls `Env::worker_end`
//! from a guard that also runs during the unwind, the environment abandons
//! its barrier, and the waiting peer unwinds too. The job then fails with
//! the first worker's own payload, and the next job on the same pool and
//! environment runs normally. Each case runs under a watchdog, so a
//! regression fails by timeout instead of wedging the suite.

use bh_repro::bh_core::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long a case may take; a clean one takes milliseconds.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Run `body` on a thread of its own and return its result, failing if it
/// has not finished within [`WATCHDOG`].
fn within<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: the job still runs after {WATCHDOG:?}: a peer waits for a worker that panicked")
        }
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the body returned without sending"),
        },
    }
}

/// Four failing jobs on one two-worker pool, each followed by a clean one.
/// In round `r` worker `r % 2` passes one barrier and then panics, while
/// its peer goes on to a second barrier, which the panicking worker never
/// reaches.
fn panicking_worker_ends_the_job<E: Env + Send + 'static>(what: &'static str, env: E) {
    let messages = within(what, move || {
        let pool = WorkerPool::new(2);
        let mut messages = Vec::new();
        for round in 0..4usize {
            let failed = catch_unwind(AssertUnwindSafe(|| {
                pool.run(&env, |proc, ctx| {
                    env.barrier(ctx);
                    if proc == round % 2 {
                        panic!("gave up in round {round}");
                    }
                    env.barrier(ctx);
                })
            }));
            let payload = failed.expect_err("the job must fail");
            messages.push(payload.downcast_ref::<String>().cloned());
            let out = pool.run(&env, |proc, ctx| {
                env.barrier(ctx);
                env.barrier(ctx);
                proc
            });
            assert_eq!(out, vec![0, 1], "{what}: the job after round {round}");
        }
        messages
    });
    for (round, message) in messages.into_iter().enumerate() {
        assert_eq!(
            message.as_deref(),
            Some(format!("worker {}: gave up in round {round}", round % 2).as_str()),
            "{what}: the job must fail with the panicking worker's own payload"
        );
    }
}

#[test]
fn panicking_worker_ends_a_native_job() {
    panicking_worker_ends_the_job("NativeEnv", NativeEnv::new(2));
}

#[test]
fn panicking_worker_ends_a_simulated_job() {
    let cost = bh_repro::ssmp::platform::by_name("origin2000", 2).expect("platform");
    panicking_worker_ends_the_job("Machine", bh_repro::ssmp::Machine::new(cost, 2));
}

#[test]
fn panicking_worker_ends_a_checked_job() {
    panicking_worker_ends_the_job("CheckedEnv<NativeEnv>", CheckedEnv::new(NativeEnv::new(2)));
}
