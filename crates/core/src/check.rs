//! A happens-before data-race detector over the [`Env`] abstraction.
//!
//! Every shared-memory access an algorithm performs is already reported
//! through [`Env::access`] with a simulated virtual address and its
//! [`Access`] kind, and every synchronization operation flows through
//! [`Env::lock`]/[`Env::unlock`]/[`Env::barrier`]. That makes the
//! race-freedom contract stated in [`crate::shared`] *mechanically
//! checkable*: [`CheckedEnv`] wraps any inner environment (native or
//! simulated) as an [`EnvLayer`] overriding five hooks (`on_access`,
//! `on_atomic_commit`, `on_lock`, `on_unlock`, `on_barrier`), maintains
//! FastTrack-style vector clocks, and records a structured [`RaceReport`]
//! whenever two accesses to the same address grain conflict without a
//! happens-before edge between them.
//!
//! ## Happens-before model
//!
//! * **Processor clocks.** Each processor `p` carries a vector clock `C_p`;
//!   `C_p[p]` is incremented at every release operation (unlock, atomic
//!   store, RMW, barrier), so distinct release epochs are distinguishable.
//! * **Locks.** `unlock(l)` stores a copy of `C_p` as the release clock of
//!   `l`; a later `lock(l)` joins it into the acquirer. Release clocks are
//!   keyed by the *raw* lock id: two ids that merely collide in an
//!   environment's hashed lock table do exclude each other in real time,
//!   but the algorithms may not rely on that, so the detector deliberately
//!   does not treat collision-induced exclusion as an ordering edge.
//! * **Barriers.** Arrival at barrier episode `e` joins the processor's
//!   clock into the episode clock; departure adopts the episode clock, so
//!   everything before the barrier happens-before everything after it.
//! * **Atomics.** [`Access::AtomicRead`] joins the address's release clock
//!   into the reader (acquire); [`Access::AtomicWrite`] and [`Access::Rmw`]
//!   join the writer's clock into the address's release clock (release). This
//!   models the acquire/release chains the algorithms build from atomic
//!   child pointers and pending counters. Conflicts where *both* accesses
//!   are atomic are synchronization, not races, and are never reported.
//!
//!   The instrumentation call and the real atomic it describes execute at
//!   different instants, and the detector mutex can order two processors'
//!   instrumentation *opposite* to their real operations. The sound
//!   protocol is therefore **publish before the real operation, acquire
//!   after it**: if A's real operation precedes B's, A published before
//!   its real op, which preceded B's real op, which precedes B's join —
//!   B cannot miss A regardless of interleaving. Concretely, releases
//!   ([`Access::AtomicWrite`], the release half of [`Access::Rmw`]) are
//!   instrumented *before* the real atomic; acquires are instrumented
//!   *after* it ([`Access::AtomicRead`] is reported after the real load,
//!   and the acquire half of an RMW rides on [`Env::atomic_commit`], invoked
//!   after the real RMW). Joining "too early" from the detector's
//!   perspective is impossible this way; the alternative single-call
//!   scheme produced rare false positives under scheduler preemption
//!   between the instrumentation and the real operation. Locks and
//!   barriers follow the same shape naturally (release clocks are
//!   published before the real unlock, joined after the real lock).
//! * **Unordered reads.** [`Access::Unordered`] marks deliberate
//!   optimistic pre-checks (re-validated before use); they are exempt.
//!
//! ## Granularity
//!
//! [`Granularity::Element`] tracks 4-byte words — every reported conflict
//! is a true overlapping access pair. [`Granularity::CacheLine`] tracks
//! whole lines; overlapping conflicts are races as before, while
//! *byte-disjoint* write/write conflicts on one line from different
//! processors are classified as [`ConflictClass::FalseSharing`] — the
//! detector then doubles as the false-sharing audit the paper's ORIG
//! analysis calls for.
//!
//! One parallel session (one `spmd` scope) at a time may use a
//! `CheckedEnv`. Sessions that end with a barrier may be followed by
//! further sessions on the same environment (the final barrier orders
//! everything before it against everything after).

use crate::env::{Access, Env, EnvLayer, LayerCtx, VAddr};
use crate::sync::Mutex;
use std::collections::HashMap;

/// Shadow-state granularity of the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One shadow word per 4 bytes: precise race detection.
    Element,
    /// One shadow word per cache line of the given size (e.g. 64 or 128):
    /// additionally flags cross-processor false sharing.
    CacheLine(u32),
}

impl Granularity {
    #[inline]
    fn bytes(self) -> u64 {
        match self {
            Granularity::Element => 4,
            Granularity::CacheLine(sz) => sz.max(4) as u64,
        }
    }
}

/// Classification of a reported conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictClass {
    /// Overlapping unsynchronized accesses, at least one a plain write —
    /// a data race.
    Race,
    /// Byte-disjoint writes from different processors to one cache line
    /// with no ordering between them (CacheLine granularity only).
    FalseSharing,
}

/// One side of a conflict.
#[derive(Debug, Clone)]
pub struct AccessInfo {
    pub proc: usize,
    pub kind: Access,
    /// The processor's vector clock at the access.
    pub vclock: Vec<u64>,
    /// The accessor's barrier-episode number (count of barriers it had
    /// passed) — localizes the access to one inter-barrier region.
    pub episode: usize,
    pub addr: VAddr,
    pub bytes: u32,
}

/// A recorded happens-before violation.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Base address of the shadow grain where the conflict was detected.
    pub addr: VAddr,
    /// Size of the shadow grain in bytes.
    pub bytes: u32,
    pub class: ConflictClass,
    /// The earlier access (by detector observation order).
    pub first: AccessInfo,
    /// The later access.
    pub second: AccessInfo,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} on grain {:#x}+{}: P{} {:?} ep{} [{:#x}+{}] {:?} vs P{} {:?} ep{} [{:#x}+{}] {:?}",
            self.class,
            self.addr,
            self.bytes,
            self.first.proc,
            self.first.kind,
            self.first.episode,
            self.first.addr,
            self.first.bytes,
            self.first.vclock,
            self.second.proc,
            self.second.kind,
            self.second.episode,
            self.second.addr,
            self.second.bytes,
            self.second.vclock,
        )
    }
}

/// Cap on stored reports; conflicts past the cap are only counted.
const MAX_REPORTS: usize = 64;

type VClock = Vec<u64>;

#[inline]
fn join(into: &mut VClock, from: &VClock) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

/// Last recorded access of one processor to one grain.
#[derive(Debug, Clone)]
struct LastAccess {
    /// The accessor's own clock component at the access — the epoch a
    /// later access must have observed for a happens-before edge.
    epoch: u64,
    kind: Access,
    addr: VAddr,
    bytes: u32,
    episode: usize,
    vclock: VClock,
}

#[derive(Debug, Default, Clone)]
struct GrainState {
    reads: Vec<Option<LastAccess>>,
    writes: Vec<Option<LastAccess>>,
}

struct Detector {
    procs: usize,
    clocks: Vec<VClock>,
    /// Release clocks per raw lock id.
    lock_release: HashMap<usize, VClock>,
    /// Release clocks per atomic grain (4-byte words).
    addr_release: HashMap<u64, VClock>,
    /// Barrier episode join clocks.
    episodes: Vec<VClock>,
    shadow: HashMap<u64, GrainState>,
    reports: Vec<RaceReport>,
    conflicts: usize,
}

impl Detector {
    fn new(procs: usize) -> Detector {
        Detector {
            procs,
            clocks: (0..procs)
                .map(|p| {
                    // Start each processor in its own epoch 1 so that epoch 0
                    // can never be mistaken for an already-observed access.
                    let mut c = vec![0; procs];
                    c[p] = 1;
                    c
                })
                .collect(),
            lock_release: HashMap::new(),
            addr_release: HashMap::new(),
            episodes: Vec::new(),
            shadow: HashMap::new(),
            reports: Vec::new(),
            conflicts: 0,
        }
    }

    /// Record one access and report any conflicts with prior accesses.
    #[allow(clippy::too_many_arguments)]
    fn access(
        &mut self,
        proc: usize,
        kind: Access,
        addr: VAddr,
        bytes: u32,
        grain: u64,
        episode: usize,
    ) {
        let lo = addr / grain.max(1);
        let hi = (addr + bytes.max(1) as u64 - 1) / grain.max(1);
        for g in lo..=hi {
            self.access_grain(proc, kind, addr, bytes, g, grain, episode);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn access_grain(
        &mut self,
        proc: usize,
        kind: Access,
        addr: VAddr,
        bytes: u32,
        g: u64,
        grain: u64,
        episode: usize,
    ) {
        let procs = self.procs;
        let my_clock = self.clocks[proc].clone();
        let state = self.shadow.entry(g).or_insert_with(|| GrainState {
            reads: vec![None; procs],
            writes: vec![None; procs],
        });

        let mut found: Vec<RaceReport> = Vec::new();
        {
            let mut check = |prev: &LastAccess, q: usize| {
                if my_clock[q] >= prev.epoch {
                    return; // happens-before edge exists
                }
                if prev.kind.is_atomic() && kind.is_atomic() {
                    return; // atomic/atomic is synchronization, not a race
                }
                let overlap = addr < prev.addr + prev.bytes.max(1) as u64
                    && prev.addr < addr + bytes.max(1) as u64;
                let class = if overlap {
                    ConflictClass::Race
                } else if prev.kind.is_write() && kind.is_write() {
                    // Same grain, disjoint bytes: false sharing (only
                    // observable at cache-line granularity).
                    ConflictClass::FalseSharing
                } else {
                    return;
                };
                found.push(RaceReport {
                    addr: g * grain,
                    bytes: grain as u32,
                    class,
                    first: AccessInfo {
                        proc: q,
                        kind: prev.kind,
                        vclock: prev.vclock.clone(),
                        episode: prev.episode,
                        addr: prev.addr,
                        bytes: prev.bytes,
                    },
                    second: AccessInfo {
                        proc,
                        kind,
                        vclock: my_clock.clone(),
                        episode,
                        addr,
                        bytes,
                    },
                });
            };

            for q in 0..procs {
                if q == proc {
                    continue;
                }
                if let Some(prev) = &state.writes[q] {
                    check(prev, q);
                }
                if kind.is_write() {
                    if let Some(prev) = &state.reads[q] {
                        check(prev, q);
                    }
                }
            }
        }

        let entry = LastAccess {
            epoch: my_clock[proc],
            kind,
            addr,
            bytes,
            episode,
            vclock: my_clock,
        };
        if kind.is_write() {
            state.writes[proc] = Some(entry);
        } else {
            state.reads[proc] = Some(entry);
        }

        self.conflicts += found.len();
        for r in found {
            if self.reports.len() < MAX_REPORTS {
                self.reports.push(r);
            }
        }
    }

    /// Acquire side of an atomic access: join the address release clocks.
    fn atomic_acquire(&mut self, proc: usize, addr: VAddr, bytes: u32) {
        for g in (addr / 4)..=((addr + bytes.max(1) as u64 - 1) / 4) {
            if let Some(rel) = self.addr_release.get(&g) {
                let rel = rel.clone();
                join(&mut self.clocks[proc], &rel);
            }
        }
    }

    /// Release side of an atomic access: publish the writer's clock on the
    /// address and open a new epoch.
    fn atomic_release(&mut self, proc: usize, addr: VAddr, bytes: u32) {
        let procs = self.procs;
        let clock = self.clocks[proc].clone();
        for g in (addr / 4)..=((addr + bytes.max(1) as u64 - 1) / 4) {
            let rel = self.addr_release.entry(g).or_insert_with(|| vec![0; procs]);
            join(rel, &clock);
        }
        self.clocks[proc][proc] += 1;
    }
}

/// A race-detecting wrapper around any [`Env`]. See the module docs.
pub struct CheckedEnv<E: Env> {
    inner: E,
    granularity: Granularity,
    det: Mutex<Detector>,
}

impl<E: Env> CheckedEnv<E> {
    /// Wrap `inner` with element (4-byte word) granularity.
    pub fn new(inner: E) -> CheckedEnv<E> {
        CheckedEnv::with_granularity(inner, Granularity::Element)
    }

    /// Wrap `inner` with an explicit shadow granularity.
    pub fn with_granularity(inner: E, granularity: Granularity) -> CheckedEnv<E> {
        let procs = inner.num_procs();
        CheckedEnv {
            inner,
            granularity,
            det: Mutex::new(Detector::new(procs)),
        }
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// All recorded conflict reports (capped at an internal maximum).
    pub fn reports(&self) -> Vec<RaceReport> {
        self.det.lock().reports.clone()
    }

    /// Recorded reports classified as true data races.
    pub fn races(&self) -> Vec<RaceReport> {
        self.reports()
            .into_iter()
            .filter(|r| r.class == ConflictClass::Race)
            .collect()
    }

    /// Recorded reports classified as false sharing.
    pub fn false_sharing(&self) -> Vec<RaceReport> {
        self.reports()
            .into_iter()
            .filter(|r| r.class == ConflictClass::FalseSharing)
            .collect()
    }

    /// Total conflicts observed, including those past the report cap.
    pub fn conflicts_observed(&self) -> usize {
        self.det.lock().conflicts
    }

    /// Panic with a diagnostic listing if any data race was recorded.
    /// False-sharing reports are informational and do not fail this check.
    pub fn assert_race_free(&self) {
        let races = self.races();
        if races.is_empty() {
            return;
        }
        let mut msg = format!("{} data race(s) detected:\n", races.len());
        for r in races.iter().take(8) {
            msg.push_str(&format!("  {r}\n"));
        }
        panic!("{msg}");
    }
}

impl<E: Env> EnvLayer for CheckedEnv<E> {
    type Inner = E;
    /// The processor's barrier-episode number (count of barriers passed).
    type Local = usize;

    fn inner(&self) -> &E {
        &self.inner
    }

    fn make_local(&self, _proc: usize) -> usize {
        0
    }

    fn on_access(&self, ctx: &mut LayerCtx<Self>, addr: VAddr, bytes: u32, kind: Access) {
        self.inner.access(&mut ctx.inner, addr, bytes, kind);
        if kind == Access::Unordered {
            // Deliberately unordered optimistic read: charged to the cost
            // model, exempt from race reporting (see the `Access` docs).
            return;
        }
        let mut det = self.det.lock();
        if kind == Access::AtomicRead {
            // Callers account an acquiring load *after* the real one (see
            // the Env docs), so joining the release clock here cannot miss a
            // writer whose real store the load observed.
            det.atomic_acquire(ctx.proc, addr, bytes);
        }
        det.access(
            ctx.proc,
            kind,
            addr,
            bytes,
            self.granularity.bytes(),
            ctx.local,
        );
        if matches!(kind, Access::AtomicWrite | Access::Rmw) {
            // Release side only: this instrumentation call precedes the
            // *real* atomic operation, so the processor's clock is published
            // now (any real-order successor's post-operation acquire will
            // see it), while the acquire side of an RMW waits for our own
            // `atomic_commit` — joining here could miss a publication by a
            // processor whose real operation lands before ours. See the
            // module docs.
            det.atomic_release(ctx.proc, addr, bytes);
        }
    }

    fn on_atomic_commit(&self, ctx: &mut LayerCtx<Self>, addr: VAddr, bytes: u32) {
        self.inner.atomic_commit(&mut ctx.inner, addr, bytes);
        // Acquire side of an RMW, after the real atomic has executed: every
        // real-order predecessor published its clock before its own real
        // operation, which preceded ours, so the join below cannot miss one.
        self.det.lock().atomic_acquire(ctx.proc, addr, bytes);
    }

    fn on_lock(&self, ctx: &mut LayerCtx<Self>, lock: usize) {
        self.inner.lock(&mut ctx.inner, lock);
        // Join the release clock *after* the inner acquire: the previous
        // holder's unlock has completed, so its release clock is published.
        let mut det = self.det.lock();
        if let Some(rel) = det.lock_release.get(&lock) {
            let rel = rel.clone();
            join(&mut det.clocks[ctx.proc], &rel);
        }
    }

    fn on_unlock(&self, ctx: &mut LayerCtx<Self>, lock: usize) {
        {
            let mut det = self.det.lock();
            let clock = det.clocks[ctx.proc].clone();
            det.lock_release.insert(lock, clock);
            det.clocks[ctx.proc][ctx.proc] += 1;
        }
        self.inner.unlock(&mut ctx.inner, lock);
    }

    fn on_barrier(&self, ctx: &mut LayerCtx<Self>) {
        let e = ctx.local;
        ctx.local += 1;
        {
            let mut det = self.det.lock();
            let procs = det.procs;
            while det.episodes.len() <= e {
                det.episodes.push(vec![0; procs]);
            }
            let clock = det.clocks[ctx.proc].clone();
            join(&mut det.episodes[e], &clock);
        }
        self.inner.barrier(&mut ctx.inner);
        // All processors joined episode `e` before the rendezvous released.
        let mut det = self.det.lock();
        let joined = det.episodes[e].clone();
        join(&mut det.clocks[ctx.proc], &joined);
        det.clocks[ctx.proc][ctx.proc] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{NativeEnv, Placement};
    use crate::harness::spmd;
    use crate::shared::{SharedAtomicVec, SharedVec};

    fn two_proc_env(g: Granularity) -> CheckedEnv<NativeEnv> {
        CheckedEnv::with_granularity(NativeEnv::new(2), g)
    }

    #[test]
    fn unlocked_concurrent_writes_are_reported() {
        let env = two_proc_env(Granularity::Element);
        let v: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |proc, ctx| {
            v.store(&env, ctx, 0, proc as u64);
        });
        let races = env.races();
        assert!(!races.is_empty(), "deliberate race not detected");
        assert_eq!(races[0].class, ConflictClass::Race);
        assert!(races[0].first.proc != races[0].second.proc);
    }

    #[test]
    fn lock_protected_writes_are_clean() {
        let env = two_proc_env(Granularity::Element);
        let v: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |_proc, ctx| {
            for _ in 0..50 {
                env.lock(ctx, 7);
                let x = v.load(&env, ctx, 0);
                v.store(&env, ctx, 0, x + 1);
                env.unlock(ctx, 7);
            }
        });
        env.assert_race_free();
        assert_eq!(v.peek(0), 100);
    }

    #[test]
    fn lock_table_collision_is_not_an_ordering_edge() {
        // Two different lock ids that collide in the native 4096-entry table
        // exclude in real time, but the detector must still flag the race.
        let env = two_proc_env(Granularity::Element);
        let v: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |proc, ctx| {
            let lock = 100 + proc * (crate::env::NATIVE_LOCK_TABLE - 64);
            env.lock(ctx, lock);
            let x = v.load(&env, ctx, 0);
            v.store(&env, ctx, 0, x + 1);
            env.unlock(ctx, lock);
        });
        assert!(
            !env.races().is_empty(),
            "aliased-lock access must count as a race"
        );
    }

    #[test]
    fn barrier_separated_phases_are_clean() {
        let env = two_proc_env(Granularity::Element);
        let v: SharedVec<u64> = SharedVec::new(&env, 4, 0, Placement::Global);
        spmd(&env, |proc, ctx| {
            // Phase 1: each proc writes its own half.
            v.store(&env, ctx, proc * 2, 1);
            v.store(&env, ctx, proc * 2 + 1, 1);
            env.barrier(ctx);
            // Phase 2: each proc reads the *other* half.
            let other = 1 - proc;
            let _ = v.load(&env, ctx, other * 2);
            let _ = v.load(&env, ctx, other * 2 + 1);
            env.barrier(ctx);
            // Phase 3: swap write ownership.
            v.store(&env, ctx, other * 2, 2);
        });
        env.assert_race_free();
    }

    #[test]
    fn missing_barrier_is_reported() {
        let env = two_proc_env(Granularity::Element);
        let v: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |proc, ctx| {
            if proc == 0 {
                v.store(&env, ctx, 0, 42);
            } else {
                let _ = v.load(&env, ctx, 0);
            }
        });
        assert!(
            !env.races().is_empty(),
            "write/read without ordering must be a race"
        );
    }

    #[test]
    fn atomic_counter_is_not_a_race() {
        let env = two_proc_env(Granularity::Element);
        let v = SharedAtomicVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |_proc, ctx| {
            for _ in 0..100 {
                v.fetch_add(&env, ctx, 0, 1);
            }
            let _ = v.load(&env, ctx, 0);
        });
        env.assert_race_free();
    }

    #[test]
    fn release_acquire_chain_orders_plain_data() {
        // The pending-counter idiom: P0 writes data then RMWs a flag; P1
        // spins on the flag (acquire) and reads the data.
        let env = two_proc_env(Granularity::Element);
        let data: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global);
        let flag = SharedAtomicVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |proc, ctx| {
            if proc == 0 {
                data.store(&env, ctx, 0, 99);
                flag.fetch_add(&env, ctx, 0, 1);
            } else {
                while flag.load(&env, ctx, 0) == 0 {
                    std::hint::spin_loop();
                }
                assert_eq!(data.load(&env, ctx, 0), 99);
            }
        });
        env.assert_race_free();
    }

    #[test]
    fn rmw_commit_joins_real_order_predecessor() {
        // Replays the scheduler interleaving that made a single-call RMW
        // instrumentation scheme report false positives: P0's
        // instrumentation runs first, but P1's real decrement lands first,
        // so P0 observes it (e.g. becomes the last completer of a pending
        // counter) and goes on to read data P1 wrote. With the two-phase
        // protocol, P0's post-operation commit joins P1's publication, so
        // the read is ordered and must not be reported.
        let env = two_proc_env(Granularity::Element);
        let data: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global);
        let flag = SharedAtomicVec::new(&env, 2, 0, Placement::Global);
        let mut c0 = env.make_ctx(0);
        let mut c1 = env.make_ctx(1);
        // P0: instrumented half of its RMW, then preempted before the
        // real operation.
        env.access(&mut c0, flag.addr(0), 4, Access::Rmw);
        // P1: writes data, then performs its full RMW (instrumentation,
        // real operation, commit).
        data.store(&env, &mut c1, 0, 7);
        flag.fetch_add(&env, &mut c1, 0, 1);
        // P0 resumes: its real operation lands here (after P1's), and the
        // commit joins every real-order predecessor's publication.
        env.atomic_commit(&mut c0, flag.addr(0), 4);
        let _ = data.load(&env, &mut c0, 0);
        env.assert_race_free();
    }

    #[test]
    fn false_sharing_flagged_at_line_granularity_only() {
        // Two processors write adjacent 8-byte elements: disjoint bytes,
        // same 64-byte line.
        for (gran, expect_fs) in [
            (Granularity::Element, false),
            (Granularity::CacheLine(64), true),
        ] {
            let env = two_proc_env(gran);
            let v: SharedVec<u64> = SharedVec::new(&env, 8, 0, Placement::Global);
            spmd(&env, |proc, ctx| {
                v.store(&env, ctx, proc, proc as u64);
            });
            assert!(env.races().is_empty(), "disjoint writes are not a race");
            assert_eq!(
                !env.false_sharing().is_empty(),
                expect_fs,
                "granularity {gran:?}: false-sharing detection mismatch"
            );
        }
    }

    #[test]
    fn unordered_reads_are_exempt() {
        let env = two_proc_env(Granularity::Element);
        let v: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |proc, ctx| {
            if proc == 0 {
                v.store(&env, ctx, 0, 1);
            } else {
                let _ = v.load_relaxed(&env, ctx, 0);
            }
        });
        env.assert_race_free();
    }

    #[test]
    fn report_fields_are_populated() {
        let env = two_proc_env(Granularity::Element);
        let v: SharedVec<u32> = SharedVec::new(&env, 1, 0, Placement::Global);
        spmd(&env, |proc, ctx| {
            v.store(&env, ctx, 0, proc as u32);
        });
        let races = env.races();
        assert!(!races.is_empty());
        let r = &races[0];
        assert_eq!(r.first.vclock.len(), 2);
        assert_eq!(r.second.vclock.len(), 2);
        assert_eq!(r.first.addr, v.addr(0));
        assert_eq!(r.first.bytes, 4);
        assert!(r.to_string().contains("Race"));
        assert!(env.conflicts_observed() >= races.len());
    }
}
