//! The simulated multiprocessor.
//!
//! A [`Machine`] executes the *same* algorithm code as the native
//! environment — worker threads run for real, locks really exclude, barriers
//! really rendezvous — while every shared-memory access is routed through a
//! coherence-protocol cost model that advances a per-processor virtual
//! clock (in cycles of the modeled machine).
//!
//! ## Simulation model
//!
//! * **Direct execution, virtual time.** Reads/writes consult sharded global
//!   protocol state and charge latencies locally; no global per-access
//!   interleaving is enforced.
//! * **Locks synchronize virtual time.** A lock acquire cannot complete (in
//!   virtual time) before the previous holder's virtual release, and under
//!   HLRC the holder's release includes its diff flushes and any page faults
//!   it suffered inside the critical section — this models the critical-
//!   section dilation and serialization that the paper identifies as the
//!   SVM killer.
//! * **Protocols.** The machine holds only its protocol's shared state
//!   (`Coherence`) and each context only its protocol's local state
//!   (`Local`); every entry point below dispatches on the protocol once, to
//!   `eager` (bus MESI, directory, fine-grain SC) or `hlrc`.

mod eager;
mod hlrc;

use crate::attr::{AttrCell, AttrTable, SETUP_SLOT};
use crate::cache::GrainMap;
use crate::config::{CostModel, Protocol};
use bh_core::env::{Access, CtxStats, Env, Phase, Placement, Region, VAddr};
use bh_core::shared::RegionMap;
use bh_core::sync::{Mutex, RawLock, SenseBarrier};
use bh_core::trace::LockStat;
use eager::{Eager, EagerCtx};
use hlrc::{Hlrc, HlrcCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};

const SHARDS: usize = 256;
const LOCK_TABLE: usize = 4096;
/// Base of the global allocation region.
const GLOBAL_BASE: u64 = 0x1_0000;
/// Each processor's local region starts at `(p+1) << LOCAL_SHIFT`.
const LOCAL_SHIFT: u32 = 40;

/// A protocol's global per-grain metadata, hashed and sharded: only misses
/// reach it.
struct Sharded<T>(Box<[Mutex<GrainMap<T>>]>);

impl<T> Sharded<T> {
    fn new() -> Self {
        Sharded((0..SHARDS).map(|_| Mutex::default()).collect())
    }

    #[inline]
    fn lock(&self, grain: u64) -> MutexGuard<'_, GrainMap<T>> {
        self.0[(grain as usize) & (SHARDS - 1)].lock()
    }
}

struct LockVt {
    last_release: u64,
    last_owner: i16,
    /// Virtual time at which the current holder acquired the lock.
    acquire_clock: u64,
    /// EWMA of recent critical-section lengths (virtual cycles).
    cs_last: u64,
}

struct LockSlot {
    real: RawLock,
    vt: Mutex<LockVt>,
}

/// The machine's half of the protocol state, shared by every processor.
enum Coherence {
    Eager(Eager),
    Lazy(Hlrc),
}

/// A context's half: its own processor's protocol state.
enum Local {
    Eager(EagerCtx),
    Lazy(HlrcCtx),
}

impl Local {
    fn eager(&mut self) -> &mut EagerCtx {
        match self {
            Local::Eager(c) => c,
            Local::Lazy(_) => unreachable!("an HLRC context on an eager machine"),
        }
    }

    fn lazy(&mut self) -> &mut HlrcCtx {
        match self {
            Local::Lazy(c) => c,
            Local::Eager(_) => unreachable!("an eager context on an HLRC machine"),
        }
    }
}

/// The simulated machine. Implements [`bh_core::env::Env`].
pub struct Machine {
    cost: CostModel,
    /// `log2(cost.grain)`: an address's grain number is `addr >> grain_shift`.
    grain_shift: u32,
    procs: usize,
    coherence: Coherence,
    locks: Box<[LockSlot]>,
    rendezvous: SenseBarrier,
    barrier_clocks: Box<[AtomicU64]>,
    next_global: AtomicU64,
    next_local: Box<[AtomicU64]>,
    /// Region registry, one range per allocation. Allocation happens
    /// single-threaded during world/tree setup; each context snapshots the `Arc` at [`Env::make_ctx`], so the
    /// hot path reads the map without taking this mutex (copy-on-write).
    regions: Mutex<Arc<RegionMap>>,
    /// Per-processor mirrors of each context's attribution table and lock
    /// record, refreshed on every [`Env::stats`] call. Contexts are owned
    /// by the worker closures and unreachable after a run; the application
    /// snapshots stats at every phase boundary and at run end, so the
    /// mirror is complete once the run returns.
    attr_mirror: Box<[Mutex<Mirror>]>,
}

/// What [`Machine`] mirrors of one processor's context.
#[derive(Default)]
struct Mirror {
    table: AttrTable,
    locks: GrainMap<LockStat>,
}

/// Per-processor context (clock, statistics, the protocol's local state).
pub struct SimCtx {
    proc: usize,
    clock: u64,
    barrier_wait: u64,
    ledger: Ledger,
    /// Acquires and wait by raw lock id: the same waits as the ledger's
    /// lock cells, keyed by the lock instead of the region it guards.
    locks: GrainMap<LockStat>,
    local: Local,
}

/// Where a context charges its events.
struct Ledger {
    /// Snapshot of the machine's region registry at context creation.
    regions: Arc<RegionMap>,
    /// Current pipeline-stage slot ([`SETUP_SLOT`] outside any phase).
    slot: usize,
    /// Every miss, fault, invalidation and lock wait, by (region, stage);
    /// [`Env::stats`] reports its totals.
    table: AttrTable,
}

impl Ledger {
    /// The cell an event at `addr` is charged to. Never touches the clock:
    /// attribution cannot change simulated timings.
    #[inline]
    fn charge(&mut self, addr: VAddr) -> &mut AttrCell {
        self.table.cell_mut(self.regions.lookup(addr), self.slot)
    }
}

/// The most simulated processors a [`Machine`] runs.
pub const MAX_PROCS: usize = 64;

impl Machine {
    pub fn new(cost: CostModel, procs: usize) -> Machine {
        assert!(
            (1..=MAX_PROCS).contains(&procs),
            "1..={MAX_PROCS} simulated processors supported"
        );
        let coherence = match cost.protocol {
            Protocol::BusMesi(eager) => Coherence::Eager(Eager::new(eager, None, procs)),
            Protocol::Directory {
                eager,
                t_remote_miss,
            }
            | Protocol::FineGrainSc {
                eager,
                t_remote_miss,
            } => Coherence::Eager(Eager::new(eager, Some(t_remote_miss), procs)),
            Protocol::Hlrc(costs) => Coherence::Lazy(Hlrc::new(costs)),
        };
        Machine {
            grain_shift: cost.grain_shift(),
            cost,
            procs,
            coherence,
            locks: (0..LOCK_TABLE)
                .map(|_| LockSlot {
                    real: RawLock::new(),
                    vt: Mutex::new(LockVt {
                        last_release: 0,
                        last_owner: -1,
                        acquire_clock: 0,
                        cs_last: 0,
                    }),
                })
                .collect(),
            rendezvous: SenseBarrier::new(procs),
            barrier_clocks: (0..procs).map(|_| AtomicU64::new(0)).collect(),
            next_global: AtomicU64::new(GLOBAL_BASE),
            next_local: (0..procs)
                .map(|p| AtomicU64::new((p as u64 + 1) << LOCAL_SHIFT))
                .collect(),
            regions: Mutex::new(Arc::new(RegionMap::new())),
            attr_mirror: (0..procs).map(|_| Mutex::new(Mirror::default())).collect(),
        }
    }

    /// Per-processor attribution tables as of each processor's most recent
    /// [`Env::stats`] snapshot (the application snapshots at every phase
    /// boundary and at run end).
    pub fn attribution(&self) -> Vec<AttrTable> {
        self.attr_mirror
            .iter()
            .map(|m| m.lock().table.clone())
            .collect()
    }

    /// Contention histogram over raw lock ids as of the same snapshots,
    /// merged across processors and sorted hottest-first (by total wait,
    /// then acquires).
    pub fn lock_histogram(&self) -> Vec<LockStat> {
        let mut merged: GrainMap<LockStat> = GrainMap::default();
        for m in self.attr_mirror.iter() {
            for (&lock, s) in m.lock().locks.iter() {
                merged.entry(lock).or_default().accumulate(s);
            }
        }
        let mut out: Vec<LockStat> = merged
            .into_iter()
            .map(|(lock, s)| LockStat {
                lock: lock as usize,
                ..s
            })
            .collect();
        out.sort_by(|a, b| {
            (b.wait_total, b.acquires, a.lock).cmp(&(a.wait_total, a.acquires, b.lock))
        });
        out
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Home processor of a grain (by its base address).
    #[inline]
    fn home_of(&self, addr: u64) -> usize {
        let region = addr >> LOCAL_SHIFT;
        if region == 0 {
            // Global region: pages homed round-robin.
            ((addr >> self.grain_shift.max(12)) % self.procs as u64) as usize
        } else {
            ((region - 1) as usize).min(self.procs - 1)
        }
    }

    /// Grain numbers an access `[addr, addr + bytes)` touches, first to last.
    #[inline]
    fn grains(&self, addr: VAddr, bytes: u32) -> std::ops::RangeInclusive<u64> {
        (addr >> self.grain_shift)..=((addr + bytes.max(1) as u64 - 1) >> self.grain_shift)
    }

    /// Serialize a request at `clock` at a home that is busy until
    /// `service_end` and serves one request per `occ` cycles: returns the
    /// backlog the request waits, and books the home through its service.
    /// The backlog is bounded by `procs × occ` (everyone at once) so that
    /// processors far apart in virtual time cannot drag each other's clocks
    /// forward through one shared grain.
    fn occupy(&self, service_end: &mut u64, clock: u64, occ: u64) -> u64 {
        let backlog = service_end
            .saturating_sub(clock)
            .min(self.procs as u64 * occ);
        *service_end = clock + backlog + occ;
        backlog
    }

    /// Everything the inlined hit path of [`Env::access`] does not decide:
    /// a miss, an upgrade, a revalidation, a pending drain or an access
    /// across grains, handed whole to the protocol's body.
    #[inline(never)]
    fn miss(&self, ctx: &mut SimCtx, addr: VAddr, bytes: u32, write: bool) {
        match &self.coherence {
            Coherence::Eager(e) => e.access(self, ctx, addr, bytes, write),
            Coherence::Lazy(h) => h.access(self, ctx, addr, bytes, write),
        }
    }

    /// [`Access::Rmw`]: a read and a write, serialized at the line's home
    /// under the eager protocols.
    fn rmw_access(&self, ctx: &mut SimCtx, addr: VAddr, bytes: u32) {
        match &self.coherence {
            Coherence::Eager(e) => e.rmw(self, ctx, addr, bytes),
            Coherence::Lazy(h) => {
                h.access(self, ctx, addr, bytes, false);
                h.access(self, ctx, addr, bytes, true);
            }
        }
    }

    /// A barrier in virtual time: every clock moves to the latest arrival's,
    /// plus the barrier's cost.
    fn align_clocks(&self, ctx: &mut SimCtx) {
        self.barrier_clocks[ctx.proc].store(ctx.clock, Ordering::Release);
        self.rendezvous.wait();
        let max = (0..self.procs)
            .map(|p| self.barrier_clocks[p].load(Ordering::Acquire))
            .max()
            .unwrap_or(ctx.clock);
        // Second rendezvous so nobody races ahead and overwrites the clocks.
        self.rendezvous.wait();
        ctx.barrier_wait += max - ctx.clock;
        ctx.clock = max + self.cost.t_barrier;
    }
}

impl Env for Machine {
    type Ctx = SimCtx;

    fn num_procs(&self) -> usize {
        self.procs
    }

    fn make_ctx(&self, proc: usize) -> SimCtx {
        assert!(proc < self.procs);
        let region_bits = LOCAL_SHIFT - self.grain_shift;
        SimCtx {
            proc,
            clock: 0,
            barrier_wait: 0,
            ledger: Ledger {
                regions: self.regions.lock().clone(),
                slot: SETUP_SLOT,
                table: AttrTable::new(),
            },
            locks: GrainMap::default(),
            local: match &self.coherence {
                Coherence::Eager(e) => Local::Eager(e.ctx(proc, region_bits)),
                Coherence::Lazy(_) => Local::Lazy(HlrcCtx::new(region_bits)),
            },
        }
    }

    fn alloc(&self, bytes: u64, align: u64, place: Placement, region: Region) -> VAddr {
        let align = align.max(1).next_power_of_two();
        let counter = match place {
            Placement::Global => &self.next_global,
            Placement::Local(p) => &self.next_local[p.min(self.procs - 1)],
        };
        let mut cur = counter.load(Ordering::Relaxed);
        let base = loop {
            let base = (cur + align - 1) & !(align - 1);
            match counter.compare_exchange_weak(
                cur,
                base + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break base,
                Err(actual) => cur = actual,
            }
        };
        // Copy-on-write: contexts snapshot the Arc at creation, so the
        // (setup-time, single-threaded) allocation path pays for any copy
        // and the per-access lookup path stays lock-free.
        Arc::make_mut(&mut self.regions.lock()).insert(base, bytes, region);
        base
    }

    /// The common case is decided here, inlined into the caller (where
    /// `kind` is a constant): the access lies in one grain and the
    /// context's own protocol state says hit, the one branch on the
    /// protocol. Everything else goes to the out-of-line `Machine::miss`,
    /// which starts over from the top.
    #[inline(always)]
    fn access(&self, ctx: &mut SimCtx, addr: VAddr, bytes: u32, kind: Access) {
        if kind == Access::Rmw {
            return self.rmw_access(ctx, addr, bytes);
        }
        let write = kind.is_write();
        let grains = self.grains(addr, bytes);
        let (grain, one_grain) = (*grains.start(), grains.start() == grains.end());
        let hit = one_grain
            && match &ctx.local {
                Local::Eager(c) => c.hits(grain, write),
                Local::Lazy(c) => c.hits(grain, write),
            };
        if hit {
            ctx.clock += self.cost.t_hit;
        } else {
            self.miss(ctx, addr, bytes, write);
        }
    }

    #[inline]
    fn compute(&self, ctx: &mut SimCtx, cycles: u64) {
        ctx.clock += cycles;
    }

    fn lock(&self, ctx: &mut SimCtx, lock: usize) {
        let slot = &self.locks[bh_core::env::lock_slot(lock, LOCK_TABLE)];
        slot.real.lock();
        let mut vt = slot.vt.lock();
        let transfer = if vt.last_owner >= 0 && vt.last_owner as usize != ctx.proc {
            self.cost.t_lock_transfer
        } else {
            0
        };
        // Gap to the previous holder's virtual release, honored up to a
        // protocol-dependent bound.
        let unit = vt.cs_last + transfer + self.cost.t_lock;
        let gap = (vt.last_release + transfer).saturating_sub(ctx.clock);
        let bound = if self.cost.protocol.software_sync() {
            // Dilated critical sections queue up in virtual time — the SVM
            // serialization the paper identifies. Capped at a full queue of
            // P critical sections so clock drift cannot masquerade as an
            // unboundedly long queue.
            self.procs as u64 * unit
        } else {
            // Hardware coherence: locks are supported in hardware and
            // "quite inexpensive" (paper §4.1); critical sections are a few
            // hundred cycles, so queueing is second-order next to load
            // imbalance and false sharing. Charge only acquisition costs.
            0
        };
        // An ownership change always pays at least the transfer latency,
        // whether or not the lock was contended in virtual time.
        let wait = gap.min(bound).max(transfer) + self.cost.t_lock;
        ctx.clock += wait;
        // Lock activity is attributed to the region the lock protects
        // (free-list locks → allocator, node locks → cells), not to an
        // address: lock slots live outside the simulated address space.
        let c = ctx
            .ledger
            .table
            .cell_mut(Region::of_lock(lock), ctx.ledger.slot);
        c.lock_acquires += 1;
        c.lock_wait += wait;
        ctx.locks
            .entry(lock as u64)
            .or_default()
            .accumulate(&LockStat {
                lock,
                acquires: 1,
                wait_total: wait,
                wait_max: wait,
            });
        vt.acquire_clock = ctx.clock;
        drop(vt);
        if let Coherence::Lazy(h) = &self.coherence {
            h.acquire(ctx);
        }
    }

    fn unlock(&self, ctx: &mut SimCtx, lock: usize) {
        if let Coherence::Lazy(h) = &self.coherence {
            h.release(ctx);
        }
        let slot = &self.locks[bh_core::env::lock_slot(lock, LOCK_TABLE)];
        {
            let mut vt = slot.vt.lock();
            vt.last_release = ctx.clock;
            vt.last_owner = ctx.proc as i16;
            let cs = ctx.clock.saturating_sub(vt.acquire_clock);
            vt.cs_last = (vt.cs_last + cs) / 2;
        }
        slot.real.unlock();
    }

    /// Eager: pending invalidations take effect after the barrier. HLRC: a
    /// release before it and an acquire after it.
    fn barrier(&self, ctx: &mut SimCtx) {
        match &self.coherence {
            Coherence::Eager(_) => {
                self.align_clocks(ctx);
                eager::drain(ctx, self.grain_shift);
            }
            Coherence::Lazy(h) => {
                h.release(ctx);
                self.align_clocks(ctx);
                h.acquire(ctx);
            }
        }
    }

    fn worker_end(&self, _proc: usize) {
        self.rendezvous.depart(std::thread::panicking());
    }

    fn phase_begin(&self, ctx: &mut SimCtx, phase: Phase) {
        // Phase boundaries are free in every cost model: the real protocol
        // work (invalidation drains, epoch opens) rides on the barriers the
        // application already executes at those boundaries. Attribution
        // only moves its stage pointer (charging nothing).
        ctx.ledger.slot = phase.index();
    }

    fn phase_end(&self, ctx: &mut SimCtx, _phase: Phase) {
        ctx.ledger.slot = SETUP_SLOT;
    }

    fn now(&self, ctx: &SimCtx) -> u64 {
        ctx.clock
    }

    fn stats(&self, ctx: &SimCtx) -> CtxStats {
        let mut mirror = self.attr_mirror[ctx.proc].lock();
        mirror.table.clone_from(&ctx.ledger.table);
        mirror.locks.clone_from(&ctx.locks);
        drop(mirror);
        let total = ctx.ledger.table.total();
        CtxStats {
            time: ctx.clock,
            lock_acquires: total.lock_acquires,
            lock_wait: total.lock_wait,
            barrier_wait: ctx.barrier_wait,
            remote_misses: total.remote_misses,
            local_misses: total.local_misses,
            page_faults: total.page_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    fn origin(procs: usize) -> Machine {
        Machine::new(platform::origin2000(procs), procs)
    }

    fn hlrc(procs: usize) -> Machine {
        Machine::new(platform::typhoon0_hlrc(procs), procs)
    }

    fn hlrc_costs(m: &Machine) -> crate::config::HlrcCosts {
        match m.cost_model().protocol {
            Protocol::Hlrc(costs) => costs,
            _ => panic!("{} is not HLRC", m.cost_model().name),
        }
    }

    #[test]
    fn grain_ranges() {
        let m = origin(4);
        let g = m.cost_model().grain as u64;
        assert_eq!(m.grains(0, 4).count(), 1);
        assert_eq!(m.grains(0, 0).count(), 1);
        assert_eq!(m.grains(g - 1, 2).count(), 2);
        assert_eq!(m.grains(g, g as u32).count(), 1);
        assert_eq!(m.grains(0, (3 * g) as u32).count(), 3);
    }

    #[test]
    fn repeated_reads_hit_after_first_miss() {
        let m = origin(2);
        let mut ctx = m.make_ctx(0);
        let a = m.alloc(64, 64, Placement::Local(0), Region::Other);
        m.access(&mut ctx, a, 8, Access::Read);
        let after_miss = ctx.clock;
        assert!(after_miss >= m.cost_model().t_local_miss);
        m.access(&mut ctx, a, 8, Access::Read);
        assert_eq!(ctx.clock - after_miss, m.cost_model().t_hit);
    }

    #[test]
    fn remote_miss_costs_more_than_local() {
        let m = origin(2);
        let local = m.alloc(128, 128, Placement::Local(0), Region::Other);
        let remote = m.alloc(128, 128, Placement::Local(1), Region::Other);
        let mut ctx = m.make_ctx(0);
        let c0 = ctx.clock;
        m.access(&mut ctx, local, 8, Access::Read);
        let local_cost = ctx.clock - c0;
        let c1 = ctx.clock;
        m.access(&mut ctx, remote, 8, Access::Read);
        let remote_cost = ctx.clock - c1;
        assert!(
            remote_cost > local_cost,
            "remote {remote_cost} <= local {local_cost}"
        );
        let s = m.stats(&ctx);
        assert_eq!(s.local_misses, 1);
        assert_eq!(s.remote_misses, 1);
    }

    #[test]
    fn bus_misses_are_all_local() {
        // Centralized memory: a miss on a line placed at another processor,
        // or dirty in its cache, costs what every bus miss costs and is local.
        let m = Machine::new(platform::challenge(2), 2);
        let a = m.alloc(128, 128, Placement::Local(1), Region::Other);
        let b = m.alloc(128, 128, Placement::Local(1), Region::Other);
        let (mut c0, mut c1) = (m.make_ctx(0), m.make_ctx(1));
        m.access(&mut c1, a, 8, Access::Write);
        m.access(&mut c0, a, 8, Access::Read);
        m.access(&mut c0, b, 8, Access::Read);
        assert_eq!(c0.clock, 2 * m.cost_model().t_local_miss);
        let s = m.stats(&c0);
        assert_eq!((s.local_misses, s.remote_misses), (2, 0));
    }

    #[test]
    fn write_invalidation_forces_re_miss() {
        // Classic ping-pong: P0 reads a line, P1 writes it, P0's next read
        // must miss again.
        let m = origin(2);
        let a = m.alloc(128, 128, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        m.access(&mut c0, a, 8, Access::Read);
        m.access(&mut c0, a, 8, Access::Read); // hit
        m.access(&mut c1, a, 8, Access::Write); // invalidates P0
        let before = c0.clock;
        m.access(&mut c0, a, 8, Access::Read);
        assert!(
            c0.clock - before > m.cost_model().t_hit,
            "expected a coherence miss after remote write"
        );
    }

    #[test]
    fn false_sharing_is_visible() {
        // Two processors writing different words of the same line keep
        // invalidating each other; writing different lines do not.
        let m = origin(2);
        let same_line = m.alloc(128, 128, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        for _ in 0..50 {
            m.access(&mut c0, same_line, 4, Access::Write);
            m.access(&mut c1, same_line + 64, 4, Access::Write); // same 128B line
        }
        let pingpong = c0.clock + c1.clock;

        let m2 = origin(2);
        let a0 = m2.alloc(128, 128, Placement::Global, Region::Other);
        let a1 = m2.alloc(128, 128, Placement::Global, Region::Other);
        let mut d0 = m2.make_ctx(0);
        let mut d1 = m2.make_ctx(1);
        for _ in 0..50 {
            m2.access(&mut d0, a0, 4, Access::Write);
            m2.access(&mut d1, a1, 4, Access::Write);
        }
        let separate = d0.clock + d1.clock;
        assert!(
            pingpong > 3 * separate,
            "false sharing ({pingpong}) should dwarf private lines ({separate})"
        );
    }

    #[test]
    fn hlrc_no_coherence_until_acquire() {
        // Lazy release consistency: a write by P1 is invisible (and costs
        // P0 nothing) until P0 passes an acquire point.
        let m = hlrc(2);
        let a = m.alloc(4096, 4096, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        m.access(&mut c0, a, 8, Access::Read); // map the page
        let t_hit_baseline = {
            let before = c0.clock;
            m.access(&mut c0, a, 8, Access::Read);
            c0.clock - before
        };
        // P1 writes the page inside a critical section.
        m.lock(&mut c1, 9);
        m.access(&mut c1, a, 8, Access::Write);
        m.unlock(&mut c1, 9);
        // P0 still hits — no eager invalidation.
        let before = c0.clock;
        m.access(&mut c0, a, 8, Access::Read);
        assert_eq!(c0.clock - before, t_hit_baseline);
        // After an acquire, P0 faults on the modified page.
        m.lock(&mut c0, 9);
        let before = c0.clock;
        m.access(&mut c0, a, 8, Access::Read);
        let cost = c0.clock - before;
        m.unlock(&mut c0, 9);
        assert!(
            cost >= hlrc_costs(&m).t_page_fault,
            "expected page fault after acquire, got {cost}"
        );
        // The cold map-in of the locally-homed page was cheap; only the
        // post-acquire revalidation is a real fault.
        assert_eq!(m.stats(&c0).page_faults, 1);
    }

    #[test]
    fn hlrc_lock_transfer_serializes_dilated_sections() {
        // The virtual release time of the previous holder gates the next
        // acquire: page faults inside the critical section dilate it.
        let m = hlrc(2);
        let a = m.alloc(4096, 4096, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        // P1 writes the page under lock 3 (creating versions to fault on).
        m.lock(&mut c1, 3);
        m.access(&mut c1, a, 8, Access::Write);
        m.unlock(&mut c1, 3);
        let release_time = c1.clock;
        // P0, whose clock is far behind, acquires the same lock: its virtual
        // acquire time must not precede P1's virtual release.
        assert!(c0.clock < release_time);
        m.lock(&mut c0, 3);
        assert!(
            c0.clock >= release_time,
            "acquire at {} before release at {release_time}",
            c0.clock
        );
        m.unlock(&mut c0, 3);
    }

    #[test]
    fn barrier_aligns_clocks_to_max() {
        let m = origin(4);
        let out = bh_core::harness::spmd(&m, |proc, ctx| {
            m.compute(ctx, proc as u64 * 1000);
            m.barrier(ctx);
            ctx.clock
        });
        let expect = 3000 + m.cost_model().t_barrier;
        for c in out {
            assert_eq!(c, expect);
        }
    }

    #[test]
    fn lock_virtual_time_serializes_under_hlrc() {
        // N processors each hold the lock for 1000 cycles of compute: under
        // the lazy protocol (whose dilated critical sections the paper's
        // argument rests on) the last one's clock must reflect the full
        // serial chain regardless of real-time interleaving.
        let m = hlrc(4);
        let out = bh_core::harness::spmd(&m, |_proc, ctx| {
            m.lock(ctx, 42);
            m.compute(ctx, 1000);
            m.unlock(ctx, 42);
            m.barrier(ctx);
            ctx.clock
        });
        let max = out.into_iter().max().unwrap();
        assert!(max >= 4 * 1000, "serialized time {max} too small");
    }

    #[test]
    fn alloc_regions_are_disjoint_and_homed() {
        let m = origin(4);
        let g = m.alloc(100, 64, Placement::Global, Region::Other);
        let l2 = m.alloc(100, 64, Placement::Local(2), Region::Other);
        assert!(g < 1 << LOCAL_SHIFT);
        assert_eq!(l2 >> LOCAL_SHIFT, 3);
        assert_eq!(m.home_of(l2), 2);
    }

    #[test]
    fn notice_processing_charges_at_acquire() {
        // Write notices created by other processors' releases are paid for
        // at this processor's next acquire, proportionally to how many
        // intervals were flushed.
        let m = hlrc(2);
        let a = m.alloc(3 * 4096, 4096, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        // P1 dirties 3 pages in one interval.
        m.lock(&mut c1, 5);
        for i in 0..3 {
            m.access(&mut c1, a + i * 4096, 8, Access::Write);
        }
        m.unlock(&mut c1, 5);
        // P0's next acquire must pay 3 notices.
        let before = c0.clock;
        m.lock(&mut c0, 6); // uncontended different lock
        m.unlock(&mut c0, 6);
        let cost = c0.clock - before;
        assert!(
            cost >= 3 * hlrc_costs(&m).t_notice,
            "acquire cost {cost} lacks notice processing (expected >= {})",
            3 * hlrc_costs(&m).t_notice
        );
    }

    #[test]
    fn fault_occupancy_serializes_hot_page() {
        // Two *other* processors faulting on a freshly written page at the
        // same virtual time: both pay the full software fault, and the
        // second also queues behind the home's handler occupancy.
        let m = hlrc(3);
        let a = m.alloc(4096, 4096, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        let mut c2 = m.make_ctx(2);
        // P0 maps and dirties the page inside a critical section.
        m.lock(&mut c0, 3);
        m.access(&mut c0, a, 8, Access::Write);
        m.unlock(&mut c0, 3);
        // P1 and P2 acquire (new epochs) and read: both must fault.
        m.lock(&mut c1, 4);
        m.unlock(&mut c1, 4);
        m.lock(&mut c2, 5);
        m.unlock(&mut c2, 5);
        let b1 = c1.clock;
        m.access(&mut c1, a, 8, Access::Read);
        let first = c1.clock - b1;
        // Align P2 into the same virtual window as P1's fault.
        if c2.clock < b1 {
            let delta = b1 - c2.clock;
            m.compute(&mut c2, delta);
        }
        let b2 = c2.clock;
        m.access(&mut c2, a, 8, Access::Read);
        let second = c2.clock - b2;
        assert!(first >= hlrc_costs(&m).t_page_fault, "first fault {first}");
        assert!(
            second >= hlrc_costs(&m).t_page_fault + hlrc_costs(&m).t_fault_occupancy.min(1),
            "second fault ({second}) should pay fault + queueing"
        );
        assert_eq!(m.stats(&c1).page_faults, 1);
        assert_eq!(m.stats(&c2).page_faults, 1);
    }

    #[test]
    fn rmw_occupancy_queues_hot_counter() {
        // Atomic storms on one line serialize at its home on eager
        // platforms with t_rmw_occupancy > 0.
        let m = origin(4);
        let Protocol::Directory { eager, .. } = m.cost_model().protocol else {
            panic!("origin2000 is a directory")
        };
        let occ = eager.t_rmw_occupancy;
        assert!(occ > 0);
        let a = m.alloc(8, 8, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        // Both at vt 0: each RMW pays at least occ; the second also queues.
        m.access(&mut c0, a, 4, Access::Rmw);
        let t0 = c0.clock;
        m.access(&mut c1, a, 4, Access::Rmw);
        let t1 = c1.clock;
        assert!(t0 >= occ);
        assert!(
            t1 > t0.min(occ),
            "second atomic did not queue: {t1} vs {t0}"
        );
    }

    #[test]
    fn eager_read_downgrades_remote_dirty_line() {
        // P0 writes (exclusive), P1 reads: P1 pays a remote intervention and
        // P0's next *read* still hits (downgrade, not invalidation) while a
        // next write re-misses (upgrade).
        let m = origin(2);
        let a = m.alloc(128, 128, Placement::Global, Region::Other);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        m.access(&mut c0, a, 8, Access::Write);
        m.access(&mut c1, a, 8, Access::Read);
        let before = c0.clock;
        m.access(&mut c0, a, 8, Access::Read);
        assert_eq!(
            c0.clock - before,
            m.cost_model().t_hit,
            "read after downgrade must hit"
        );
        let before = c0.clock;
        m.access(&mut c0, a, 8, Access::Write);
        assert!(
            c0.clock - before > m.cost_model().t_hit,
            "write after downgrade must upgrade"
        );
    }

    #[test]
    fn hlrc_write_creates_twin_once_per_interval() {
        let m = hlrc(1);
        let a = m.alloc(4096, 4096, Placement::Local(0), Region::Other);
        let mut ctx = m.make_ctx(0);
        m.access(&mut ctx, a, 8, Access::Read); // map in
        let before = ctx.clock;
        m.access(&mut ctx, a, 8, Access::Write);
        let first_write = ctx.clock - before;
        assert!(
            first_write >= hlrc_costs(&m).t_twin,
            "first write must pay twin creation"
        );
        let before = ctx.clock;
        m.access(&mut ctx, a + 64, 8, Access::Write);
        let second_write = ctx.clock - before;
        assert!(
            second_write < hlrc_costs(&m).t_twin,
            "second write must not re-twin"
        );
    }

    #[test]
    fn step_records_are_in_simulated_cycles() {
        // Phase times are read off the virtual clock: each processor's
        // steps follow one another without a gap, and its last one ends
        // where its clock stopped.
        use bh_core::prelude::*;
        let mut cfg = SimConfig::new(Algorithm::Space);
        cfg.warmup_steps = 1;
        cfg.measured_steps = 1;
        let stats = run_simulation(&origin(2), &cfg, &Model::Plummer.generate(64, 7));
        for r in &stats.procs_records {
            let mut t = r.steps[0].start;
            for s in &r.steps {
                assert_eq!(s.start, t);
                t += s.time();
            }
            assert_eq!(t, r.final_stats.time);
        }
    }

    #[test]
    fn trace_env_lock_wait_matches_machine_accounting() {
        // The per-id wait that the trace summary reads is the machine's
        // own lock_wait (HLRC charges
        // notice processing to the clock, not to the wait), merged across
        // processors and sorted hottest-first.
        let m = hlrc(2);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        m.lock(&mut c0, 70);
        m.unlock(&mut c0, 70);
        assert!(m.lock_histogram().is_empty(), "no stats snapshot yet");
        let s0 = m.stats(&c0);
        let hist = m.lock_histogram();
        assert_eq!(hist.len(), 1);
        assert_eq!((hist[0].lock, hist[0].acquires), (70, 1));
        assert_eq!(hist[0].wait_total, s0.lock_wait);
        assert_eq!(hist[0].wait_max, s0.lock_wait);
        // P1 takes 70 after P0 (paying the ownership transfer) and 71 once.
        for lock in [70, 71] {
            m.lock(&mut c1, lock);
            m.unlock(&mut c1, lock);
        }
        let s1 = m.stats(&c1);
        let hist = m.lock_histogram();
        assert_eq!(hist.iter().map(|h| h.lock).collect::<Vec<_>>(), [70, 71]);
        assert_eq!(hist[0].acquires, 2);
        let total: u64 = hist.iter().map(|h| h.wait_total).sum();
        assert_eq!(total, s0.lock_wait + s1.lock_wait);
        assert!(
            hist[0].wait_max > s0.lock_wait,
            "the transfer wait is longest"
        );
        // A new context starts its record empty.
        let c0 = m.make_ctx(0);
        m.stats(&c0);
        assert_eq!(
            m.lock_histogram().iter().map(|h| h.acquires).sum::<u64>(),
            2
        );
    }

    #[test]
    fn attribution_tiles_and_never_touches_the_clock() {
        // Identical operation sequences on an untagged and a tagged machine:
        // clocks and aggregate stats must be bitwise identical; the tagged
        // one localizes every event, and its table's totals are its stats.
        let ops = |m: &Machine, tag: bool| {
            let (ra, rb) = if tag {
                (Region::Bodies, Region::TreeCells)
            } else {
                (Region::Other, Region::Other)
            };
            let a = m.alloc(256, 64, Placement::Global, ra);
            let b = m.alloc(256, 64, Placement::Local(1), rb);
            let mut ctx = m.make_ctx(0);
            m.phase_begin(&mut ctx, Phase::Tree);
            m.access(&mut ctx, a, 8, Access::Read);
            m.access(&mut ctx, b, 8, Access::Write);
            m.lock(&mut ctx, 70); // node lock -> tree-cells
            m.unlock(&mut ctx, 70);
            m.phase_end(&mut ctx, Phase::Tree);
            m.lock(&mut ctx, 3); // free-list lock -> tree-alloc
            m.unlock(&mut ctx, 3);
            let untagged = m.alloc(64, 64, Placement::Local(1), Region::Other);
            m.access(&mut ctx, untagged, 8, Access::Read);
            (ctx.clock, m.stats(&ctx))
        };
        let (untagged, tagged) = (origin(2), origin(2));
        let (clock_plain, stats_plain) = ops(&untagged, false);
        let (clock_attr, stats_attr) = ops(&tagged, true);
        assert_eq!(clock_plain, clock_attr, "attribution changed the clock");
        assert_eq!(stats_plain, stats_attr, "attribution changed aggregates");
        // Untagged, every miss lands in the catch-all (locks are charged
        // by lock number, not address).
        let plain = &untagged.attribution()[0];
        let (all, other) = (plain.total(), plain.region_total(Region::Other));
        assert_eq!(
            other.local_misses + other.remote_misses,
            all.local_misses + all.remote_misses
        );

        let tables = tagged.attribution();
        let t = &tables[0];
        let tree = Phase::Tree.index();
        let bodies = t.cell(Region::Bodies, tree);
        assert_eq!(bodies.local_misses + bodies.remote_misses, 1);
        let cells = t.cell(Region::TreeCells, tree);
        assert_eq!(cells.remote_misses, 1, "Local(1) write from proc 0");
        assert_eq!(cells.lock_acquires, 1);
        assert_eq!(t.cell(Region::TreeAlloc, SETUP_SLOT).lock_acquires, 1);
        let other = t.cell(Region::Other, SETUP_SLOT);
        assert_eq!(other.remote_misses, 1, "untagged access lands in other");
        // The aggregates are the table's totals.
        let total = t.total();
        assert_eq!(total.local_misses, stats_attr.local_misses);
        assert_eq!(total.remote_misses, stats_attr.remote_misses);
        assert_eq!(total.page_faults, stats_attr.page_faults);
        assert_eq!(total.lock_acquires, stats_attr.lock_acquires);
        assert_eq!(total.lock_wait, stats_attr.lock_wait);
    }

    #[test]
    fn attribution_localizes_hlrc_faults() {
        let m = hlrc(2);
        let a = m.alloc(4096, 4096, Placement::Global, Region::FlatTree);
        let mut c0 = m.make_ctx(0);
        let mut c1 = m.make_ctx(1);
        m.lock(&mut c1, 9);
        m.access(&mut c1, a, 8, Access::Write);
        m.unlock(&mut c1, 9);
        m.lock(&mut c0, 9);
        m.phase_begin(&mut c0, Phase::Force);
        m.access(&mut c0, a, 8, Access::Read); // faults on the modified page
        m.phase_end(&mut c0, Phase::Force);
        m.unlock(&mut c0, 9);
        let s0 = m.stats(&c0);
        let s1 = m.stats(&c1);
        let tables = m.attribution();
        let faults = tables[0].cell(Region::FlatTree, Phase::Force.index());
        assert_eq!(faults.page_faults, 1, "fault attributed to flat-tree");
        assert_eq!(tables[0].total().page_faults, s0.page_faults);
        assert_eq!(tables[1].total().page_faults, s1.page_faults);
    }

    #[test]
    fn stats_accumulate() {
        let m = hlrc(2);
        let mut ctx = m.make_ctx(0);
        m.lock(&mut ctx, 1);
        m.unlock(&mut ctx, 1);
        m.lock(&mut ctx, 2);
        m.unlock(&mut ctx, 2);
        assert_eq!(m.stats(&ctx).lock_acquires, 2);
        assert_eq!(m.stats(&ctx).time, ctx.clock);
    }
}
