//! The shared-address-space environment abstraction.
//!
//! Every algorithm in this crate is written once, generic over [`Env`]. An
//! `Env` supplies:
//!
//! * **real synchronization** — locks and barriers that actually provide
//!   mutual exclusion / rendezvous among the worker threads, and
//! * **a timing account** — two hooks through which the algorithm reports
//!   its shared-memory accesses ([`Env::access`], one call per access, the
//!   kind of access named by an [`Access`]) and its local computation
//!   ([`Env::compute`]).
//!
//! [`NativeEnv`] maps synchronization to [`crate::sync`]'s primitives and
//! ignores the timing hooks: algorithms then run at full native speed on the
//! host. The `ssmp` crate provides `Machine`, which additionally routes every
//! access through a coherence-protocol cost model and advances a per-processor
//! virtual clock — the same algorithm code then "runs on" an SGI Origin 2000,
//! an SGI Challenge, an Intel Paragon under HLRC shared virtual memory, or a
//! Typhoon-zero, reproducing the paper's cross-platform study.
//!
//! Those two are the only types that implement `Env` by hand. An environment
//! that wraps another one — the race detector, the controlled scheduler —
//! implements [`EnvLayer`] instead: it overrides the hooks it inspects, and
//! one blanket `impl Env` forwards everything else to the wrapped
//! environment, so a hook added to `Env` reaches the bottom of every stack
//! without any wrapper being edited.

use crate::sync::{RawLock, SenseBarrier};
use crate::tree::types::RESERVED_LOCKS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A virtual address in the simulated shared address space.
///
/// The native environment hands out unique addresses but never interprets
/// them; simulation environments use them to determine cache lines, pages,
/// and home nodes.
pub type VAddr = u64;

/// Placement hint for shared allocations, mirroring the data-placement
/// differences between the ORIG and LOCAL algorithms that the paper studies:
/// ORIG allocates cells in one global array (no locality, heavy false
/// sharing), LOCAL keeps each processor's cells contiguous in its own memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One shared region; home pages assigned round-robin (or centrally,
    /// depending on platform).
    Global,
    /// Allocated in (and homed at) the given processor's local memory.
    Local(usize),
}

/// The kinds of shared-memory access an algorithm reports through
/// [`Env::access`]. Cost models charge by [`Access::is_write`] (and give
/// [`Access::Rmw`] its own serialization at the line's home); checking
/// environments use the atomic kinds to model happens-before edges instead
/// of reporting a data race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic load with acquire semantics.
    AtomicRead,
    /// Atomic store with release semantics.
    AtomicWrite,
    /// Atomic read-modify-write: acquire *and* release, a synchronization
    /// edge on the address. Followed by [`Env::atomic_commit`].
    Rmw,
    /// Deliberately unordered (relaxed, possibly torn) load: an optimistic
    /// pre-check whose result is re-validated under proper synchronization
    /// before being acted on. Charged as a read, exempt from race reporting.
    Unordered,
}

impl Access {
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, Access::Write | Access::AtomicWrite | Access::Rmw)
    }

    #[inline]
    pub fn is_atomic(self) -> bool {
        matches!(self, Access::AtomicRead | Access::AtomicWrite | Access::Rmw)
    }
}

/// The four top-level phases of one Barnes-Hut step, in execution order.
/// Used by the [`Env::phase_begin`]/[`Env::phase_end`] observability hooks
/// and by the per-phase accounting in [`crate::app`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Bounds reduction + tree build + center-of-mass pass.
    Tree,
    /// Costzones partitioning.
    Partition,
    /// Force computation.
    Force,
    /// Position/velocity update.
    Update,
}

impl Phase {
    /// All phases in execution order; `ALL[p.index()] == p`.
    pub const ALL: [Phase; 4] = [Phase::Tree, Phase::Partition, Phase::Force, Phase::Update];

    /// Stable index into per-phase arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Tree => 0,
            Phase::Partition => 1,
            Phase::Force => 2,
            Phase::Update => 3,
        }
    }

    /// Lower-case name, used for trace span labels and table rows.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Tree => "tree",
            Phase::Partition => "partition",
            Phase::Force => "force",
            Phase::Update => "update",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Named shared-data regions for attributed telemetry.
///
/// Every shared allocation names one of these regions ([`Env::alloc`]),
/// and attribution-capable environments (the `ssmp` machine) account each
/// simulated miss, fault and lock wait to the region it hit. The variants
/// mirror the data structures the paper's communication analysis talks
/// about: tree cells, tree leaves, the tree allocator state, body SoA
/// fields, the flat force-walk snapshot, and the partitioner's arrays.
///
/// Addresses outside every allocation fall into [`Region::Other`], so
/// per-region counters always tile the aggregate counters exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Body SoA state: positions, velocities, accelerations, masses.
    Bodies,
    /// Per-body metadata: work-cost estimates and body→leaf back-links.
    BodyMeta,
    /// Partition outputs: body ordering, zone boundaries, processor boxes.
    Partition,
    /// Partitioner scratch: SPACE frontier/count/cost/routing arrays.
    PartitionScratch,
    /// Internal tree cells: cell pool, child links, pending counters.
    TreeCells,
    /// Tree leaves: leaf pool, parent links, leaf bounding boxes.
    TreeLeaves,
    /// Tree allocator state: bump cursors, free lists, per-processor leaf
    /// lists, the root pointer and root cube. Free-list lock waits are
    /// attributed here (see [`Region::of_lock`]).
    TreeAlloc,
    /// Flat SoA tree snapshot used by the force walk.
    FlatTree,
    /// MORTON sort workspace: ping-pong key/index buffers, per-processor
    /// digit histograms, cooperative rank/base arrays, and the emission
    /// plan's publication arrays.
    SortScratch,
    /// Per-processor interaction-list scratch of the batched force kernel:
    /// the SoA (position, mass, id) entries each group traversal emits and
    /// the evaluation loop consumes.
    ForceList,
    /// Anything that is not application data: harness scratch, ad-hoc
    /// test allocations. Keeping a catch-all row makes the per-region
    /// tiling property unconditional.
    Other,
}

impl Region {
    /// All regions in display order; `ALL[r.index()] == r`.
    pub const ALL: [Region; Region::COUNT] = [
        Region::Bodies,
        Region::BodyMeta,
        Region::Partition,
        Region::PartitionScratch,
        Region::TreeCells,
        Region::TreeLeaves,
        Region::TreeAlloc,
        Region::FlatTree,
        Region::SortScratch,
        Region::ForceList,
        Region::Other,
    ];

    /// Number of regions (length of [`Region::ALL`]).
    pub const COUNT: usize = 11;

    /// Stable index into per-region arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Region::Bodies => 0,
            Region::BodyMeta => 1,
            Region::Partition => 2,
            Region::PartitionScratch => 3,
            Region::TreeCells => 4,
            Region::TreeLeaves => 5,
            Region::TreeAlloc => 6,
            Region::FlatTree => 7,
            Region::SortScratch => 8,
            Region::ForceList => 9,
            Region::Other => 10,
        }
    }

    /// Stable lower-case name, used in report rows and JSON records.
    pub fn name(self) -> &'static str {
        match self {
            Region::Bodies => "bodies",
            Region::BodyMeta => "body-meta",
            Region::Partition => "partition",
            Region::PartitionScratch => "partition-scratch",
            Region::TreeCells => "tree-cells",
            Region::TreeLeaves => "tree-leaves",
            Region::TreeAlloc => "tree-alloc",
            Region::FlatTree => "flat-tree",
            Region::SortScratch => "sort-scratch",
            Region::ForceList => "force-list",
            Region::Other => "other",
        }
    }

    /// The region whose data a lock id protects: ids below
    /// [`crate::tree::types::RESERVED_LOCKS`] are UPDATE's per-arena
    /// free-list locks, everything above is a per-cell/leaf node lock
    /// (see `NodeRef::lock_id`). Lock acquisitions and waits are
    /// attributed to the protected structure, which is exactly the
    /// paper's "time spent locking hot cells" signal.
    #[inline]
    pub fn of_lock(id: usize) -> Region {
        if id < RESERVED_LOCKS {
            Region::TreeAlloc
        } else {
            Region::TreeCells
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-context statistics an environment can report after a run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CtxStats {
    /// Current time: nanoseconds (native) or simulated cycles (ssmp).
    pub time: u64,
    /// Number of lock acquisitions performed by this processor.
    pub lock_acquires: u64,
    /// Time spent waiting for locks, in the environment's time unit.
    pub lock_wait: u64,
    /// Time spent waiting at barriers, in the environment's time unit.
    pub barrier_wait: u64,
    /// Cache/page misses served remotely (simulation environments only).
    pub remote_misses: u64,
    /// Misses served from local memory (simulation environments only).
    pub local_misses: u64,
    /// Page faults / protocol handler invocations (SVM platforms only).
    pub page_faults: u64,
}

impl CtxStats {
    /// Field-wise difference against an earlier snapshot of the *same*
    /// context. All fields are monotonic counters (including `time`), so
    /// the difference is the activity between the two snapshots; saturating
    /// arithmetic keeps a misuse from panicking in release builds.
    pub fn delta_since(&self, earlier: &CtxStats) -> CtxStats {
        CtxStats {
            time: self.time.saturating_sub(earlier.time),
            lock_acquires: self.lock_acquires.saturating_sub(earlier.lock_acquires),
            lock_wait: self.lock_wait.saturating_sub(earlier.lock_wait),
            barrier_wait: self.barrier_wait.saturating_sub(earlier.barrier_wait),
            remote_misses: self.remote_misses.saturating_sub(earlier.remote_misses),
            local_misses: self.local_misses.saturating_sub(earlier.local_misses),
            page_faults: self.page_faults.saturating_sub(earlier.page_faults),
        }
    }

    /// Field-wise accumulation of a delta produced by
    /// [`CtxStats::delta_since`].
    pub fn accumulate(&mut self, delta: &CtxStats) {
        self.time += delta.time;
        self.lock_acquires += delta.lock_acquires;
        self.lock_wait += delta.lock_wait;
        self.barrier_wait += delta.barrier_wait;
        self.remote_misses += delta.remote_misses;
        self.local_misses += delta.local_misses;
        self.page_faults += delta.page_faults;
    }
}

/// A shared-address-space execution environment. See the module docs.
///
/// Algorithms must obey the usual shared-memory contract: any location that
/// can be written concurrently is only accessed while holding the `Env` lock
/// that the algorithm associates with it (or with phase-level ownership
/// separation enforced by barriers). The environments provide the real
/// synchronization to make that sound.
pub trait Env: Sync {
    /// Per-processor (per-worker-thread) context. Owned by the worker.
    type Ctx: Send;

    /// Number of processors (worker threads) in this environment.
    fn num_procs(&self) -> usize;

    /// Create the context for processor `proc` (`0..num_procs`).
    fn make_ctx(&self, proc: usize) -> Self::Ctx;

    /// Allocate `bytes` of shared address space, aligned to `align`,
    /// placed by `place`, holding the data structure `region` names.
    /// Called from the set-up thread before workers start. Execution
    /// environments ignore `region`; attribution-capable environments
    /// charge every later miss, fault and lock wait on the range to it.
    fn alloc(&self, bytes: u64, align: u64, place: Placement, region: Region) -> VAddr;

    /// Account for one shared-memory access of `bytes` at `addr`; `kind`
    /// says which (see [`Access`]). A real *releasing* atomic is accounted
    /// before it executes, a real *acquiring* load after (see
    /// [`Env::atomic_commit`]).
    fn access(&self, ctx: &mut Self::Ctx, addr: VAddr, bytes: u32, kind: Access);

    /// Ordering-model hook invoked *after* the real atomic operation that an
    /// [`Access::Rmw`] accounting call described has executed.
    ///
    /// Cost models ignore it (no time or traffic is charged — the default is
    /// a no-op). Checking environments use it for the acquire side of the
    /// synchronization edge: the instrumentation call necessarily runs at a
    /// different instant than the real atomic it describes, and the sound
    /// protocol is *publish before the real operation, acquire after it*
    /// (see [`crate::check`]). Callers performing a real read-modify-write
    /// must therefore invoke the accounting call first, the real operation
    /// second, and `atomic_commit` third.
    fn atomic_commit(&self, _ctx: &mut Self::Ctx, _addr: VAddr, _bytes: u32) {}

    /// Account for `cycles` of purely local computation.
    fn compute(&self, ctx: &mut Self::Ctx, cycles: u64);

    /// Acquire lock `lock` (hashed into the environment's lock table).
    fn lock(&self, ctx: &mut Self::Ctx, lock: usize);

    /// Release lock `lock`. Must pair with a previous [`Env::lock`].
    fn unlock(&self, ctx: &mut Self::Ctx, lock: usize);

    /// Global barrier across all processors.
    fn barrier(&self, ctx: &mut Self::Ctx);

    /// Observability hook: processor `ctx` is entering `phase` (of every
    /// step, warm-up steps included). Emitted by [`crate::pipeline`] at
    /// every phase boundary; execution environments and cost models ignore
    /// it (the default is a no-op and charges nothing), while the `ssmp`
    /// simulator's attribution charges what follows to `phase`.
    fn phase_begin(&self, _ctx: &mut Self::Ctx, _phase: Phase) {}

    /// Observability hook: processor `ctx` is leaving `phase`. Must pair
    /// with a previous [`Env::phase_begin`]. See [`Env::phase_begin`].
    fn phase_end(&self, _ctx: &mut Self::Ctx, _phase: Phase) {}

    /// Scheduling hook: the worker thread for processor `proc` is about to
    /// start executing a submitted SPMD job. Called by
    /// [`crate::harness::WorkerPool::run`] on the worker thread, before
    /// [`Env::make_ctx`]. Execution environments ignore it (the default is a
    /// no-op); the controlled scheduler ([`crate::sched::SchedEnv`]) uses it
    /// as the registration rendezvous that gates workers behind the
    /// scheduler.
    fn worker_begin(&self, _proc: usize) {}

    /// Scheduling hook: the worker thread for processor `proc` has finished
    /// (or is unwinding from) its SPMD job. Always called, even when the job
    /// panicked — then during the unwind, which `std::thread::panicking()`
    /// tells — so a controlled scheduler can hand control to the remaining
    /// workers and a barrier can release its waiters. Must pair with
    /// [`Env::worker_begin`].
    fn worker_end(&self, _proc: usize) {}

    /// Current time for this processor: wall nanoseconds (native) or
    /// simulated cycles (ssmp).
    fn now(&self, ctx: &Self::Ctx) -> u64;

    /// Statistics snapshot for this processor.
    fn stats(&self, ctx: &Self::Ctx) -> CtxStats;
}

/// An environment that wraps another one. See the module docs.
///
/// Every `on_` hook has the same shape as the [`Env`] method it is named
/// after and defaults to handing the call to [`EnvLayer::inner`] unchanged;
/// a layer overrides the ones it inspects, and an override that does not call
/// the inner environment *replaces* the operation (the controlled scheduler's
/// locks and barriers). `num_procs`, `alloc`, `compute`, `phase_begin`,
/// `phase_end` and `now` are not hooks: no layer inspects
/// them, so the blanket `impl Env` below forwards them itself.
pub trait EnvLayer: Sync + Sized {
    /// The wrapped environment.
    type Inner: Env;
    /// This layer's own per-processor state, beside the inner context.
    type Local: Send;

    fn inner(&self) -> &Self::Inner;

    /// Create this layer's state for processor `proc`.
    fn make_local(&self, proc: usize) -> Self::Local;

    #[inline]
    fn on_access(&self, ctx: &mut LayerCtx<Self>, addr: VAddr, bytes: u32, kind: Access) {
        self.inner().access(&mut ctx.inner, addr, bytes, kind)
    }

    #[inline]
    fn on_atomic_commit(&self, ctx: &mut LayerCtx<Self>, addr: VAddr, bytes: u32) {
        self.inner().atomic_commit(&mut ctx.inner, addr, bytes)
    }

    fn on_lock(&self, ctx: &mut LayerCtx<Self>, lock: usize) {
        self.inner().lock(&mut ctx.inner, lock)
    }

    fn on_unlock(&self, ctx: &mut LayerCtx<Self>, lock: usize) {
        self.inner().unlock(&mut ctx.inner, lock)
    }

    fn on_barrier(&self, ctx: &mut LayerCtx<Self>) {
        self.inner().barrier(&mut ctx.inner)
    }

    fn on_worker_begin(&self, proc: usize) {
        self.inner().worker_begin(proc)
    }

    fn on_worker_end(&self, proc: usize) {
        self.inner().worker_end(proc)
    }

    fn on_stats(&self, ctx: &LayerCtx<Self>) -> CtxStats {
        self.inner().stats(&ctx.inner)
    }
}

/// Per-processor context of an [`EnvLayer`]: the layer's own state and the
/// wrapped environment's context.
pub struct LayerCtx<L: EnvLayer> {
    pub proc: usize,
    pub local: L::Local,
    pub inner: <L::Inner as Env>::Ctx,
}

/// The one place the [`Env`] surface is forwarded through a wrapper.
impl<L: EnvLayer> Env for L {
    type Ctx = LayerCtx<L>;

    fn num_procs(&self) -> usize {
        self.inner().num_procs()
    }

    fn make_ctx(&self, proc: usize) -> LayerCtx<L> {
        LayerCtx {
            proc,
            local: self.make_local(proc),
            inner: self.inner().make_ctx(proc),
        }
    }

    fn alloc(&self, bytes: u64, align: u64, place: Placement, region: Region) -> VAddr {
        self.inner().alloc(bytes, align, place, region)
    }

    #[inline(always)]
    fn access(&self, ctx: &mut LayerCtx<L>, addr: VAddr, bytes: u32, kind: Access) {
        self.on_access(ctx, addr, bytes, kind)
    }

    #[inline(always)]
    fn atomic_commit(&self, ctx: &mut LayerCtx<L>, addr: VAddr, bytes: u32) {
        self.on_atomic_commit(ctx, addr, bytes)
    }

    #[inline(always)]
    fn compute(&self, ctx: &mut LayerCtx<L>, cycles: u64) {
        self.inner().compute(&mut ctx.inner, cycles)
    }

    fn lock(&self, ctx: &mut LayerCtx<L>, lock: usize) {
        self.on_lock(ctx, lock)
    }

    fn unlock(&self, ctx: &mut LayerCtx<L>, lock: usize) {
        self.on_unlock(ctx, lock)
    }

    fn barrier(&self, ctx: &mut LayerCtx<L>) {
        self.on_barrier(ctx)
    }

    fn phase_begin(&self, ctx: &mut LayerCtx<L>, phase: Phase) {
        self.inner().phase_begin(&mut ctx.inner, phase)
    }

    fn phase_end(&self, ctx: &mut LayerCtx<L>, phase: Phase) {
        self.inner().phase_end(&mut ctx.inner, phase)
    }

    fn worker_begin(&self, proc: usize) {
        self.on_worker_begin(proc)
    }

    fn worker_end(&self, proc: usize) {
        self.on_worker_end(proc)
    }

    fn now(&self, ctx: &LayerCtx<L>) -> u64 {
        self.inner().now(&ctx.inner)
    }

    fn stats(&self, ctx: &LayerCtx<L>) -> CtxStats {
        self.on_stats(ctx)
    }
}

/// Number of entries in the native lock table. Cell locks are hashed into
/// this table, exactly like the fixed lock arrays of the SPLASH codes; a
/// collision merely adds contention, never unsoundness — except that ids
/// below [`crate::tree::types::RESERVED_LOCKS`] are kept in their own slots
/// so a free-list lock can be taken while holding a node lock.
pub const NATIVE_LOCK_TABLE: usize = 4096;

/// Map a lock id into a table of `table` entries, preserving the reserved
/// low range (see [`crate::tree::types::RESERVED_LOCKS`]).
///
/// `table` must be strictly larger than the reserved range: with
/// `table <= 64` the modulo would alias node locks into (or past) the
/// reserved slots, silently breaking the free-list/node-lock separation.
#[inline]
pub fn lock_slot(id: usize, table: usize) -> usize {
    // Both callers pass a constant table, so the check folds away.
    assert!(
        table > RESERVED_LOCKS,
        "lock table of {table} entries cannot preserve the {RESERVED_LOCKS} reserved slots"
    );
    if id < RESERVED_LOCKS {
        id
    } else {
        RESERVED_LOCKS + (id - RESERVED_LOCKS) % (table - RESERVED_LOCKS)
    }
}

/// The native execution environment: real threads, real locks, zero timing
/// overhead. `access` and `compute` are no-ops that compile away.
pub struct NativeEnv {
    procs: usize,
    locks: Box<[RawLock]>,
    barrier: SenseBarrier,
    start: Instant,
    next_addr: AtomicU64,
}

/// Per-processor context of [`NativeEnv`].
pub struct NativeCtx {
    lock_acquires: u64,
    lock_wait_ns: u64,
    barrier_wait_ns: u64,
}

impl NativeEnv {
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0, "need at least one processor");
        let locks = (0..NATIVE_LOCK_TABLE).map(|_| RawLock::new()).collect();
        NativeEnv {
            procs,
            locks,
            barrier: SenseBarrier::new(procs),
            start: Instant::now(),
            next_addr: AtomicU64::new(0x1000),
        }
    }
}

impl Env for NativeEnv {
    type Ctx = NativeCtx;

    fn num_procs(&self) -> usize {
        self.procs
    }

    fn make_ctx(&self, proc: usize) -> NativeCtx {
        assert!(proc < self.procs);
        NativeCtx {
            lock_acquires: 0,
            lock_wait_ns: 0,
            barrier_wait_ns: 0,
        }
    }

    fn alloc(&self, bytes: u64, align: u64, _place: Placement, _region: Region) -> VAddr {
        let align = align.max(1);
        let mut cur = self.next_addr.load(Ordering::Relaxed);
        loop {
            let base = (cur + align - 1) & !(align - 1);
            match self.next_addr.compare_exchange_weak(
                cur,
                base + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return base,
                Err(actual) => cur = actual,
            }
        }
    }

    #[inline(always)]
    fn access(&self, _ctx: &mut NativeCtx, _addr: VAddr, _bytes: u32, _kind: Access) {}

    #[inline(always)]
    fn compute(&self, _ctx: &mut NativeCtx, _cycles: u64) {}

    fn lock(&self, ctx: &mut NativeCtx, lock: usize) {
        let m = &self.locks[lock_slot(lock, NATIVE_LOCK_TABLE)];
        ctx.lock_acquires += 1;
        if !m.try_lock() {
            let t0 = Instant::now();
            m.lock();
            ctx.lock_wait_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    fn unlock(&self, _ctx: &mut NativeCtx, lock: usize) {
        self.locks[lock_slot(lock, NATIVE_LOCK_TABLE)].unlock()
    }

    fn barrier(&self, ctx: &mut NativeCtx) {
        // The last arrival (every arrival at P = 1) waits for nobody.
        if let Err(open) = self.barrier.arrive() {
            let t0 = Instant::now();
            self.barrier.wait_past(open);
            ctx.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    fn worker_end(&self, _proc: usize) {
        self.barrier.depart(std::thread::panicking());
    }

    fn now(&self, _ctx: &NativeCtx) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn stats(&self, ctx: &NativeCtx) -> CtxStats {
        CtxStats {
            time: self.now(ctx),
            lock_acquires: ctx.lock_acquires,
            lock_wait: ctx.lock_wait_ns,
            barrier_wait: ctx.barrier_wait_ns,
            ..CtxStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let env = NativeEnv::new(1);
        let a = env.alloc(100, 64, Placement::Global, Region::Other);
        let b = env.alloc(10, 64, Placement::Global, Region::Other);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn locks_provide_mutual_exclusion() {
        let env = NativeEnv::new(4);
        let counter = std::cell::UnsafeCell::new(0u64);
        struct Wrap(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only mutated while holding lock 7 below.
        unsafe impl Sync for Wrap {}
        let shared = Wrap(counter);
        const ITERS: u64 = 20_000;
        std::thread::scope(|s| {
            for p in 0..4 {
                let env = &env;
                let shared = &shared;
                s.spawn(move || {
                    let mut ctx = env.make_ctx(p);
                    for _ in 0..ITERS {
                        env.lock(&mut ctx, 7);
                        // SAFETY: guarded by lock 7.
                        unsafe { *shared.0.get() += 1 };
                        env.unlock(&mut ctx, 7);
                    }
                });
            }
        });
        // SAFETY: all worker threads have joined; no concurrent access.
        assert_eq!(unsafe { *shared.0.get() }, 4 * ITERS);
    }

    #[test]
    fn lock_stats_are_counted() {
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        for i in 0..10 {
            env.lock(&mut ctx, i);
            env.unlock(&mut ctx, i);
        }
        assert_eq!(env.stats(&ctx).lock_acquires, 10);
    }

    #[test]
    fn a_single_processor_never_waits() {
        // Waiting time is time spent on somebody else; the cost of the
        // primitive itself must not be booked as such.
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        for i in 0..1000 {
            env.lock(&mut ctx, i);
            env.unlock(&mut ctx, i);
            env.barrier(&mut ctx);
        }
        let stats = env.stats(&ctx);
        assert_eq!(stats.lock_acquires, 1000);
        assert_eq!(stats.lock_wait, 0);
        assert_eq!(stats.barrier_wait, 0);
    }

    #[test]
    fn barrier_synchronizes_all_procs() {
        let env = NativeEnv::new(8);
        let flag = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..8 {
                let env = &env;
                let flag = &flag;
                s.spawn(move || {
                    let mut ctx = env.make_ctx(p);
                    flag.fetch_add(1, Ordering::SeqCst);
                    env.barrier(&mut ctx);
                    // After the barrier every increment must be visible.
                    assert_eq!(flag.load(Ordering::SeqCst), 8);
                });
            }
        });
    }

    #[test]
    fn lock_slot_preserves_reserved_range() {
        for id in 0..64 {
            assert_eq!(lock_slot(id, NATIVE_LOCK_TABLE), id);
        }
        for id in [64usize, 65, 4095, 4096, 1 << 20] {
            let slot = lock_slot(id, NATIVE_LOCK_TABLE);
            assert!((64..NATIVE_LOCK_TABLE).contains(&slot), "id {id} -> {slot}");
        }
        // The smallest legal table still separates the two ranges.
        assert_eq!(lock_slot(64, 65), 64);
        assert_eq!(lock_slot(129, 65), 64);
    }

    #[test]
    fn colliding_ids_share_one_slot_and_still_exclude() {
        // At the smallest legal table (65 entries: 64 reserved + 1 shared
        // slot) every non-reserved id collides. Collision must degrade to
        // contention, never to broken mutual exclusion.
        const TABLE: usize = 65;
        let ids = [64usize, 65, 1 << 16];
        for id in ids {
            assert_eq!(lock_slot(id, TABLE), 64, "id {id} must land in slot 64");
        }
        let locks: Vec<RawLock> = (0..TABLE).map(|_| RawLock::new()).collect();
        let counter = AtomicU64::new(0);
        let max_seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for id in ids {
                let locks = &locks;
                let counter = &counter;
                let max_seen = &max_seen;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        locks[lock_slot(id, TABLE)].lock();
                        let inside = counter.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(inside, Ordering::SeqCst);
                        counter.fetch_sub(1, Ordering::SeqCst);
                        locks[lock_slot(id, TABLE)].unlock();
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "cannot preserve")]
    fn lock_slot_rejects_tiny_tables() {
        // A table no larger than the reserved range would alias node locks
        // into the reserved slots (or divide by zero); it must fail loudly.
        let _ = lock_slot(100, 64);
    }

    #[test]
    fn ctx_stats_delta_and_accumulate_roundtrip() {
        let s0 = CtxStats {
            time: 100,
            lock_acquires: 3,
            lock_wait: 10,
            barrier_wait: 5,
            remote_misses: 2,
            local_misses: 7,
            page_faults: 1,
        };
        let s1 = CtxStats {
            time: 250,
            lock_acquires: 8,
            lock_wait: 40,
            barrier_wait: 9,
            remote_misses: 2,
            local_misses: 11,
            page_faults: 4,
        };
        let d = s1.delta_since(&s0);
        assert_eq!(d.time, 150);
        assert_eq!(d.lock_acquires, 5);
        assert_eq!(d.lock_wait, 30);
        assert_eq!(d.barrier_wait, 4);
        assert_eq!(d.remote_misses, 0);
        assert_eq!(d.local_misses, 4);
        assert_eq!(d.page_faults, 3);
        let mut acc = s0;
        acc.accumulate(&d);
        assert_eq!(acc, s1);
    }

    #[test]
    fn phase_metadata_is_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(Phase::Tree.name(), "tree");
    }

    #[test]
    fn region_metadata_is_consistent() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(format!("{r}"), r.name());
        }
        let mut names: Vec<&str> = Region::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Region::COUNT, "duplicate region names");
        // Free-list locks protect the allocator, node locks the cells.
        assert_eq!(Region::of_lock(0), Region::TreeAlloc);
        assert_eq!(Region::of_lock(63), Region::TreeAlloc);
        assert_eq!(Region::of_lock(64), Region::TreeCells);
        assert_eq!(Region::of_lock(1 << 20), Region::TreeCells);
    }

    #[test]
    fn phase_hooks_default_to_noops() {
        // The hooks must be callable on any Env without affecting time or
        // statistics.
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        let before = env.stats(&ctx);
        env.phase_begin(&mut ctx, Phase::Tree);
        env.phase_end(&mut ctx, Phase::Tree);
        let after = env.stats(&ctx);
        assert_eq!(before.lock_acquires, after.lock_acquires);
        assert_eq!(before.barrier_wait, after.barrier_wait);
    }

    /// A bottom environment that does nothing but log every hook it is
    /// handed and answer the three value-returning methods with constants.
    struct Recorder(crate::sync::Mutex<Vec<String>>);

    const REC_ADDR: VAddr = 0xA110C;
    const REC_NOW: u64 = 77;
    const REC_STATS: CtxStats = CtxStats {
        time: 77,
        lock_acquires: 5,
        lock_wait: 4,
        barrier_wait: 3,
        remote_misses: 2,
        local_misses: 1,
        page_faults: 9,
    };

    impl Recorder {
        fn new() -> Recorder {
            Recorder(crate::sync::Mutex::new(Vec::new()))
        }

        fn log(&self, call: String) {
            self.0.lock().push(call);
        }
    }

    impl Env for Recorder {
        type Ctx = ();

        fn num_procs(&self) -> usize {
            1
        }
        fn make_ctx(&self, _proc: usize) {}
        fn alloc(&self, bytes: u64, align: u64, place: Placement, region: Region) -> VAddr {
            self.log(format!("alloc {bytes} {align} {place:?} {region}"));
            REC_ADDR
        }
        fn access(&self, _ctx: &mut (), addr: VAddr, bytes: u32, kind: Access) {
            self.log(format!("access {addr:#x} {bytes} {kind:?}"));
        }
        fn atomic_commit(&self, _ctx: &mut (), addr: VAddr, bytes: u32) {
            self.log(format!("atomic_commit {addr:#x} {bytes}"));
        }
        fn compute(&self, _ctx: &mut (), cycles: u64) {
            self.log(format!("compute {cycles}"));
        }
        fn lock(&self, _ctx: &mut (), lock: usize) {
            self.log(format!("lock {lock}"));
        }
        fn unlock(&self, _ctx: &mut (), lock: usize) {
            self.log(format!("unlock {lock}"));
        }
        fn barrier(&self, _ctx: &mut ()) {
            self.log("barrier".to_string());
        }
        fn phase_begin(&self, _ctx: &mut (), phase: Phase) {
            self.log(format!("phase_begin {phase}"));
        }
        fn phase_end(&self, _ctx: &mut (), phase: Phase) {
            self.log(format!("phase_end {phase}"));
        }
        fn worker_begin(&self, proc: usize) {
            self.log(format!("worker_begin {proc}"));
        }
        fn worker_end(&self, proc: usize) {
            self.log(format!("worker_end {proc}"));
        }
        fn now(&self, _ctx: &()) -> u64 {
            REC_NOW
        }
        fn stats(&self, _ctx: &()) -> CtxStats {
            REC_STATS
        }
    }

    /// What [`drive_every_hook`] makes a bottom environment log.
    const EVERY_HOOK: [&str; 16] = [
        "alloc 96 8 Local(0) tree-cells",
        "worker_begin 0",
        "phase_begin force",
        "access 0x400 4 Read",
        "access 0x408 5 Write",
        "access 0x410 6 AtomicRead",
        "access 0x418 7 AtomicWrite",
        "access 0x420 8 Rmw",
        "atomic_commit 0x420 8",
        "access 0x428 9 Unordered",
        "compute 1234",
        "lock 70",
        "unlock 70",
        "barrier",
        "phase_end force",
        "worker_end 0",
    ];

    /// Call every `Env` method once on `env` as processor 0, each with
    /// arguments of its own, and return the statistics `env` reports.
    fn drive_every_hook<E: Env>(env: &E) -> CtxStats {
        assert_eq!(env.num_procs(), 1);
        let addr = env.alloc(96, 8, Placement::Local(0), Region::TreeCells);
        assert_eq!(addr, REC_ADDR);
        env.worker_begin(0);
        let mut ctx = env.make_ctx(0);
        env.phase_begin(&mut ctx, Phase::Force);
        env.access(&mut ctx, 0x400, 4, Access::Read);
        env.access(&mut ctx, 0x408, 5, Access::Write);
        env.access(&mut ctx, 0x410, 6, Access::AtomicRead);
        env.access(&mut ctx, 0x418, 7, Access::AtomicWrite);
        env.access(&mut ctx, 0x420, 8, Access::Rmw);
        env.atomic_commit(&mut ctx, 0x420, 8);
        env.access(&mut ctx, 0x428, 9, Access::Unordered);
        env.compute(&mut ctx, 1234);
        env.lock(&mut ctx, 70);
        env.unlock(&mut ctx, 70);
        env.barrier(&mut ctx);
        env.phase_end(&mut ctx, Phase::Force);
        assert_eq!(env.now(&ctx), REC_NOW);
        let stats = env.stats(&ctx);
        env.worker_end(0);
        stats
    }

    #[test]
    fn layers_hand_every_hook_to_the_bottom_exactly_once() {
        use crate::check::CheckedEnv;
        let env = CheckedEnv::new(CheckedEnv::new(Recorder::new()));
        assert_eq!(drive_every_hook(&env), REC_STATS);
        assert_eq!(*env.inner().inner().0.lock(), EVERY_HOOK);
        env.assert_race_free();
        env.inner().assert_race_free();
    }

    #[test]
    fn the_scheduler_replaces_locks_and_barriers_and_forwards_the_rest() {
        use crate::sched::{SchedEnv, SchedStrategy};
        let env = SchedEnv::new(Recorder::new(), SchedStrategy::RoundRobin);
        let stats = drive_every_hook(&env);
        // The scheduler implements these three itself over the raw lock ids;
        // the inner environment's are never entered, and the acquisition is
        // counted on top of the inner environment's.
        let forwarded: Vec<&str> = EVERY_HOOK
            .into_iter()
            .filter(|c| !c.contains("lock") && *c != "barrier")
            .collect();
        assert_eq!(*env.inner().0.lock(), forwarded);
        let lock_acquires = REC_STATS.lock_acquires + 1;
        assert_eq!(
            stats,
            CtxStats {
                lock_acquires,
                ..REC_STATS
            }
        );
        assert!(env.finding().is_none());
        assert_eq!(env.barrier_generations(), vec![1]);
    }

    #[test]
    fn time_advances() {
        let env = NativeEnv::new(1);
        let ctx = env.make_ctx(0);
        let t0 = env.now(&ctx);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(env.now(&ctx) > t0);
    }
}
