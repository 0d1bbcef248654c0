//! Workspace-local synchronization primitives.
//!
//! The offline build environment has no access to crates.io, so the crates
//! in this workspace use these thin wrappers over `std::sync` instead of
//! `parking_lot`:
//!
//! * [`Mutex`] — a poison-ignoring `std::sync::Mutex` with `parking_lot`'s
//!   ergonomics (`lock()` returns the guard directly, `const fn new`).
//! * [`RawLock`] — a lock whose `lock`/`unlock` calls need not be lexically
//!   scoped, for lock tables indexed by runtime ids (the `Env` lock/unlock
//!   contract), and which any thread may release.
//! * [`SenseBarrier`] — a reusable rendezvous barrier with an observable
//!   generation counter and a `reset()` for reconfiguring the party count,
//!   which the standard library's barrier exposes neither of.
//!
//! `RawLock` and `SenseBarrier` share one design, the futex mutex with the
//! kernel's wait queue swapped for a *gate*: the state lives in atomics, and
//! an uncontended `lock`/`unlock`/`wait` is a few atomic instructions that
//! never enter the kernel. Only a waiter that has exhausted [`SPIN_LIMIT`]
//! takes the gate — a `Mutex<()>` + `Condvar` — and under it first records
//! in the atomic state that it is about to sleep, then sleeps on the
//! condvar. The releasing side reads that record in the same atomic
//! operation that releases, and only if it is set passes through the gate
//! before notifying. Passing through the gate is what closes the lost
//! wake-up window: the mark was made under the gate and `Condvar::wait`
//! gives the gate up only once the waiter is queued, so a releaser that saw
//! the mark cannot notify before the waiter can hear it. The atomics carry
//! no data of their own beyond that protocol and the sleeping is all
//! `std`'s, which is why this needs no `unsafe`.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::sync::Mutex as StdMutex;
use std::sync::MutexGuard;

/// Poison-ignoring mutex. A panic while holding the lock aborts the
/// experiment anyway (worker panics propagate through `spmd`), so poisoning
/// adds nothing here.
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// How often a waiter re-reads the state before it parks on the gate. A
/// critical section of the tree builders is a few hundred nanoseconds, so a
/// holder that is running releases well within this many polls; one that is
/// not running (sixteen simulated processors share the host's two cores)
/// will not release however long the waiter spins, so the budget is short
/// and the park behind it is a real sleep.
const SPIN_LIMIT: u32 = 100;

/// The sleeping half of the gate: give the gate up, sleep until notified,
/// take it back. Poison is ignored for the same reason as in [`Mutex`].
fn sleep_on<'a>(cv: &Condvar, gate: MutexGuard<'a, ()>) -> MutexGuard<'a, ()> {
    match cv.wait(gate) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
thread_local! {
    /// Slow-path entries (parks) and wake calls made by the current thread.
    static SLOW_PATHS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one entry into a path that takes the gate. Compiles to nothing
/// outside the unit tests, which use it to show that uncontended operations
/// never get there.
#[inline(always)]
fn note_slow_path() {
    #[cfg(test)]
    SLOW_PATHS.with(|c| c.set(c.get() + 1));
}

const FREE: u32 = 0;
const HELD: u32 = 1;
/// Held, and a waiter is (or is about to be) asleep on the gate.
const PARKED: u32 = 2;

/// A manually paired lock: `lock()` and `unlock()` are separate calls with
/// no guard object, matching the `Env::lock`/`Env::unlock` contract. The
/// caller must pair them; a double unlock panics. Any thread may release.
pub struct RawLock {
    word: AtomicU32,
    gate: Mutex<()>,
    cv: Condvar,
}

impl RawLock {
    pub const fn new() -> RawLock {
        RawLock {
            word: AtomicU32::new(FREE),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Acquire without blocking; returns `false` if the lock is held.
    #[inline]
    pub fn try_lock(&self) -> bool {
        // Acquire pairs with the Release swap in `unlock`.
        self.word
            .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Acquire, blocking until available.
    #[inline]
    pub fn lock(&self) {
        if !self.try_lock() {
            self.lock_contended();
        }
    }

    #[cold]
    fn lock_contended(&self) {
        for _ in 0..SPIN_LIMIT {
            if self.word.load(Ordering::Relaxed) == FREE && self.try_lock() {
                return;
            }
            std::hint::spin_loop();
        }
        note_slow_path();
        let mut gate = self.gate.lock();
        // Mark and test in one operation, under the gate. Reading FREE means
        // the lock is now ours; it stays marked PARKED because other
        // sleepers may exist, which costs the eventual `unlock` one wake
        // nobody needed. Anything else means a holder exists that will read
        // our mark when it releases.
        while self.word.swap(PARKED, Ordering::Acquire) != FREE {
            gate = sleep_on(&self.cv, gate);
        }
    }

    /// Release. Panics if the lock is not held (unpaired unlock).
    #[inline]
    pub fn unlock(&self) {
        // Release pairs with the Acquire in `try_lock`/`lock_contended`.
        let prev = self.word.swap(FREE, Ordering::Release);
        assert!(prev != FREE, "RawLock::unlock without a matching lock");
        if prev == PARKED {
            self.wake_one();
        }
    }

    #[cold]
    fn wake_one(&self) {
        note_slow_path();
        // Whoever set PARKED did so holding the gate and lets go of it only
        // inside `Condvar::wait`, so once the gate has been ours that waiter
        // is queued and the notify reaches it. The woken waiter re-marks the
        // word, which keeps the sleepers behind it covered.
        drop(self.gate.lock());
        self.cv.notify_one();
    }
}

impl Default for RawLock {
    fn default() -> Self {
        RawLock::new()
    }
}

/// A reusable rendezvous barrier in the sense-reversal family: instead of a
/// flipping boolean sense, each episode is identified by a monotonically
/// increasing *generation* — a waiter records the generation at arrival and
/// waits until it changes, so a thread from episode `g` can never be
/// confused with one from `g+1` (the classic reuse hazard of counting
/// barriers). The generation is observable, which the scheduling and
/// divergence analyses in [`crate::sched`] rely on, and [`SenseBarrier::reset`]
/// reconfigures the party count between sessions without losing the
/// generation history.
pub struct SenseBarrier {
    parties: AtomicUsize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Waiters asleep (or about to be) on the gate.
    sleepers: AtomicUsize,
    gate: Mutex<()>,
    cv: Condvar,
}

impl SenseBarrier {
    pub fn new(parties: usize) -> SenseBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        SenseBarrier {
            parties: AtomicUsize::new(parties),
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of parties that must arrive to release one episode.
    pub fn parties(&self) -> usize {
        self.parties.load(Ordering::SeqCst)
    }

    /// Number of completed episodes so far.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Block until all parties have arrived; returns the (1-based)
    /// generation this rendezvous completed.
    pub fn wait(&self) -> u64 {
        match self.arrive() {
            Ok(completed) => completed,
            Err(open) => self.wait_past(open),
        }
    }

    /// The non-blocking half of [`SenseBarrier::wait`], split off so that
    /// [`crate::env::NativeEnv`] reads the clock only around a real wait.
    /// `Ok(g)`: this was the last arrival and released episode `g`.
    /// `Err(open)`: the episode is still open and the caller must now call
    /// [`SenseBarrier::wait_past`] with `open`.
    #[inline]
    pub(crate) fn arrive(&self) -> Result<u64, u64> {
        // Stable until this thread itself has arrived: the generation
        // cannot move while one of its parties is missing.
        let open = self.generation.load(Ordering::SeqCst);
        // AcqRel: every arrival publishes its writes to the last arriver,
        // which hands them on through the generation store below.
        let arrived = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived < self.parties.load(Ordering::SeqCst) {
            return Err(open);
        }
        // Relaxed: published by the generation store, and no party arrives
        // for the next episode before it has seen that store.
        self.arrived.store(0, Ordering::Relaxed);
        // SeqCst here and on `sleepers`: this thread stores the generation
        // and then loads `sleepers`, a parking waiter adds itself to
        // `sleepers` and then loads the generation, and at least one of the
        // two must see the other.
        self.generation.store(open + 1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) != 0 {
            self.wake_all();
        }
        Ok(open + 1)
    }

    #[cold]
    fn wake_all(&self) {
        note_slow_path();
        // Same argument as `RawLock::wake_one`: sleepers register under the
        // gate and release it only once queued on the condvar.
        drop(self.gate.lock());
        self.cv.notify_all();
    }

    /// Wait for the episode [`SenseBarrier::arrive`] reported as `open` to
    /// be released; returns the generation it completed.
    pub(crate) fn wait_past(&self, open: u64) -> u64 {
        for _ in 0..SPIN_LIMIT {
            if self.generation.load(Ordering::SeqCst) != open {
                return open + 1;
            }
            std::hint::spin_loop();
        }
        note_slow_path();
        let mut gate = self.gate.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == open {
            gate = sleep_on(&self.cv, gate);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        open + 1
    }

    /// Reconfigure the barrier for a different party count. The generation
    /// counter is deliberately preserved: episodes keep their global numbering
    /// across sessions. Panics if any waiter is currently parked (resetting
    /// under them would strand or double-release the episode).
    pub fn reset(&self, parties: usize) {
        assert!(parties > 0, "barrier needs at least one party");
        let arrived = self.arrived.load(Ordering::SeqCst);
        assert!(
            arrived == 0,
            "SenseBarrier::reset with {arrived} waiter(s) parked"
        );
        self.parties.store(parties, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    fn slow_paths() -> u64 {
        SLOW_PATHS.with(|c| c.get())
    }

    /// Run `body` on its own thread and fail, instead of hanging the test
    /// binary, if it has not finished within `limit` — what a lost wake-up
    /// looks like from outside.
    fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("still blocked after {limit:?}: lost wake-up")
            }
            // Finished, or panicked and dropped the sender: join tells which.
            _ => {
                if let Err(panic) = runner.join() {
                    std::panic::resume_unwind(panic)
                }
            }
        }
    }

    /// Busy-wait (politely) until `ready` holds: how the tests below force
    /// an interleaving instead of sleeping and hoping.
    fn until(ready: impl Fn() -> bool) {
        while !ready() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn mutex_ignores_poison() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn raw_lock_excludes() {
        let lock = RawLock::new();
        let counter = AtomicU64::new(0);
        let max_seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        lock.lock();
                        let inside = counter.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(inside, Ordering::SeqCst);
                        counter.fetch_sub(1, Ordering::SeqCst);
                        lock.unlock();
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn raw_lock_loses_no_update() {
        // The critical section is a separate load and store, so any two
        // threads inside at once, or a store the next holder's Acquire does
        // not see, loses an increment.
        const THREADS: u64 = 4;
        const SECTIONS: u64 = 200_000;
        let lock = RawLock::new();
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..SECTIONS {
                        lock.lock();
                        let seen = counter.load(Ordering::Relaxed);
                        counter.store(seen + 1, Ordering::Relaxed);
                        lock.unlock();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * SECTIONS);
    }

    #[test]
    fn try_lock_respects_holder() {
        let lock = RawLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    #[should_panic(expected = "without a matching lock")]
    fn unpaired_unlock_panics() {
        RawLock::new().unlock();
    }

    #[test]
    fn contended_lock_is_live() {
        // Liveness under contention: a holder that re-acquires in a tight
        // loop must not starve a single waiter forever. The waiter flips a
        // flag once it gets through; the holder loops until it sees it.
        let lock = std::sync::Arc::new(RawLock::new());
        let got_in = std::sync::Arc::new(AtomicU64::new(0));
        let l2 = lock.clone();
        let g2 = got_in.clone();
        let waiter = std::thread::spawn(move || {
            l2.lock();
            g2.store(1, Ordering::SeqCst);
            l2.unlock();
        });
        let mut spins = 0u64;
        while got_in.load(Ordering::SeqCst) == 0 {
            lock.lock();
            std::hint::spin_loop();
            lock.unlock();
            spins += 1;
            assert!(
                spins < 50_000_000,
                "waiter starved by a re-acquiring holder"
            );
            if spins.is_multiple_of(1024) {
                std::thread::yield_now();
            }
        }
        waiter.join().unwrap();
    }

    #[test]
    fn parked_waiter_is_always_woken() {
        // The holder releases only once the word says PARKED, i.e. the
        // waiter is past its spin budget and has marked the word under the
        // gate. Even rounds release at once, into the window between the
        // mark and the sleep where a wake-up can get lost; odd rounds first
        // give the waiter time to be asleep in the kernel.
        within(Duration::from_secs(60), || {
            let lock = RawLock::new();
            for round in 0..200 {
                lock.lock();
                std::thread::scope(|s| {
                    let waiter = s.spawn(|| {
                        let before = slow_paths();
                        lock.lock();
                        lock.unlock();
                        slow_paths() - before
                    });
                    until(|| lock.word.load(Ordering::Relaxed) == PARKED);
                    if round % 2 == 1 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let before = slow_paths();
                    lock.unlock();
                    assert_eq!(slow_paths() - before, 1, "holder must wake");
                    // The waiter parked, and released a word it had to
                    // leave marked, hence woke (nobody) in turn.
                    assert_eq!(waiter.join().unwrap(), 2);
                });
                assert_eq!(lock.word.load(Ordering::Relaxed), FREE);
            }
        });
    }

    #[test]
    fn any_thread_may_release() {
        // The `Env::lock`/`unlock` contract: A locks, B unlocks, C acquires,
        // first with C arriving afterwards, then with C parked meanwhile.
        within(Duration::from_secs(60), || {
            fn on_thread<T: Send + 'static>(lock: &Arc<RawLock>, f: fn(&RawLock) -> T) -> T {
                let lock = lock.clone();
                std::thread::spawn(move || f(&lock)).join().unwrap()
            }
            let lock = Arc::new(RawLock::new());
            on_thread(&lock, RawLock::lock);
            on_thread(&lock, RawLock::unlock);
            assert!(
                on_thread(&lock, RawLock::try_lock),
                "B's release must free it"
            );

            // Held (by the thread above, long gone); C parks on it.
            let c = {
                let lock = lock.clone();
                std::thread::spawn(move || lock.lock())
            };
            until(|| lock.word.load(Ordering::Relaxed) == PARKED);
            on_thread(&lock, RawLock::unlock);
            c.join().unwrap();
            assert!(!lock.try_lock(), "C holds it now");
            lock.unlock();
        });
    }

    #[test]
    fn uncontended_operations_never_take_the_gate() {
        // The deterministic form of "no syscall on the fast path": every
        // park and every wake goes through `note_slow_path`.
        let before = slow_paths();
        let lock = RawLock::new();
        for _ in 0..1_000_000 {
            lock.lock();
            lock.unlock();
        }
        let barrier = SenseBarrier::new(1);
        for _ in 0..1_000_000 {
            barrier.wait();
        }
        assert_eq!(barrier.generation(), 1_000_000);
        assert_eq!(slow_paths() - before, 0);
    }

    #[test]
    fn sense_barrier_rendezvous_and_generations() {
        let barrier = SenseBarrier::new(4);
        let phase = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 1..=3u64 {
                        phase.fetch_add(1, Ordering::SeqCst);
                        let gen = barrier.wait();
                        assert_eq!(gen, round, "episode numbering must be global");
                        // Everyone's pre-barrier increment is visible.
                        assert!(phase.load(Ordering::SeqCst) >= 4 * round);
                    }
                });
            }
        });
        assert_eq!(barrier.generation(), 3);
    }

    #[test]
    fn sense_barrier_oversubscribed_episodes() {
        // Four threads per core: most arrivals outlast the spin budget, so
        // this is the park/wake path under reuse, ten thousand times over.
        // The plain per-thread slot written before each episode and read by
        // the neighbour after it checks that the barrier also publishes.
        const THREADS: usize = 8;
        const EPISODES: u64 = 10_000;
        within(Duration::from_secs(60), || {
            let barrier = SenseBarrier::new(THREADS);
            let slots: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (barrier, slots) = (&barrier, &slots);
                    s.spawn(move || {
                        for round in 1..=EPISODES {
                            slots[t].store(round, Ordering::Relaxed);
                            assert_eq!(barrier.wait(), round);
                            let seen = slots[(t + 1) % THREADS].load(Ordering::Relaxed);
                            assert!(seen == round || seen == round + 1, "{seen} in {round}");
                        }
                    });
                }
            });
            assert_eq!(barrier.generation(), EPISODES);
        });
    }

    #[test]
    fn sense_barrier_generation_survives_reset() {
        // Generation reuse across reset(): a reconfigured barrier keeps the
        // global episode numbering, so a stale generation snapshot can never
        // match a post-reset episode.
        let barrier = SenseBarrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| barrier.wait());
            }
        });
        assert_eq!(barrier.generation(), 1);
        barrier.reset(3);
        assert_eq!(barrier.parties(), 3);
        assert_eq!(barrier.generation(), 1, "reset must not rewind generations");
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| assert_eq!(barrier.wait(), 2));
            }
        });
        assert_eq!(barrier.generation(), 2);
    }

    #[test]
    fn sense_barrier_reset_under_a_parked_waiter_panics() {
        within(Duration::from_secs(60), || {
            let barrier = SenseBarrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| barrier.wait());
                until(|| barrier.sleepers.load(Ordering::SeqCst) == 1);
                let refused =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| barrier.reset(3)));
                let message = *refused.unwrap_err().downcast::<String>().unwrap();
                assert_eq!(message, "SenseBarrier::reset with 1 waiter(s) parked");
                // Nothing was reconfigured: the second party still releases.
                assert_eq!(barrier.parties(), 2);
                assert_eq!(barrier.wait(), 1);
            });
        });
    }

    #[test]
    fn sense_barrier_single_party_never_blocks() {
        let barrier = SenseBarrier::new(1);
        for round in 1..=5 {
            assert_eq!(barrier.wait(), round);
        }
    }
}
