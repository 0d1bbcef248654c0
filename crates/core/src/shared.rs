//! Shared-memory containers.
//!
//! A [`SharedVec`] is a fixed-length array that lives in the (real or
//! simulated) shared address space: it owns normal host memory holding the
//! actual values *and* a range of virtual addresses obtained from the
//! environment, so that every access can be reported to the environment's
//! timing model.
//!
//! # Soundness contract
//!
//! `SharedVec` is `Sync` and allows mutation through `&self` (via
//! `UnsafeCell`), exactly like the shared arrays of a C shared-memory
//! program. The algorithms in this crate keep such accesses race-free the
//! same way the SPLASH codes do:
//!
//! * an element that can be written concurrently is only touched while
//!   holding the [`Env`] lock the algorithm associates with it, or
//! * the element is owned by a single processor during the current phase,
//!   with phase transitions separated by [`Env::barrier`].
//!
//! This is the part of the reproduction where, as expected, a shared mutable
//! tree "fights the borrow checker": the unsafety is confined to this module
//! and [`crate::tree`], with the contract stated here.

use crate::env::{Access, Env, Placement, Region, VAddr};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The region registry: an index from virtual address ranges to the
/// [`Region`] that owns them.
///
/// Every shared allocation names its region ([`Env::alloc`]);
/// attribution-capable environments collect the ranges in a `RegionMap`
/// and consult it on every simulated miss or fault. The map is built
/// single-threaded during world/tree setup and then only read, so lookups
/// are a lock-free binary search over sorted disjoint ranges.
#[derive(Debug, Default, Clone)]
pub struct RegionMap {
    /// Sorted, pairwise-disjoint `(base, end, region)` triples.
    ranges: Vec<(VAddr, VAddr, Region)>,
}

impl RegionMap {
    pub fn new() -> Self {
        RegionMap { ranges: Vec::new() }
    }

    /// Register `[base, base + bytes)` as belonging to `region`.
    ///
    /// Ranges must not overlap existing entries: allocators hand out
    /// disjoint ranges, so an overlap is an allocator bug.
    pub fn insert(&mut self, base: VAddr, bytes: u64, region: Region) {
        if bytes == 0 {
            return;
        }
        let end = base + bytes;
        let i = self.ranges.partition_point(|&(b, _, _)| b < base);
        let clear_left = i == 0 || self.ranges[i - 1].1 <= base;
        let clear_right = i == self.ranges.len() || end <= self.ranges[i].0;
        assert!(
            clear_left && clear_right,
            "region [{base:#x}, {end:#x}) = {region} overlaps an existing range"
        );
        self.ranges.insert(i, (base, end, region));
    }

    /// The region owning `addr`; [`Region::Other`] for addresses no range
    /// covers.
    #[inline]
    pub fn lookup(&self, addr: VAddr) -> Region {
        let i = self.ranges.partition_point(|&(b, _, _)| b <= addr);
        match i.checked_sub(1).map(|j| self.ranges[j]) {
            Some((_, end, region)) if addr < end => region,
            _ => Region::Other,
        }
    }

    /// Number of registered ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate over `(base, end, region)` triples in address order.
    pub fn iter(&self) -> impl Iterator<Item = (VAddr, VAddr, Region)> + '_ {
        self.ranges.iter().copied()
    }
}

/// A fixed-length shared array of `Copy` data. See the module docs for the
/// soundness contract.
pub struct SharedVec<T> {
    slots: Box<[UnsafeCell<T>]>,
    base: VAddr,
    stride: u64,
}

// SAFETY: access discipline is delegated to the algorithms per the module
// docs; `T: Send` because values move between threads.
unsafe impl<T: Send> Sync for SharedVec<T> {}
unsafe impl<T: Send> Send for SharedVec<T> {}

impl<T: Copy> SharedVec<T> {
    /// Allocate a shared array of `len` copies of `init`, placed by
    /// `place`, holding the data structure `region` names.
    pub fn new<E: Env>(env: &E, len: usize, init: T, place: Placement, region: Region) -> Self {
        let stride = std::mem::size_of::<T>().max(1) as u64;
        let align = stride.next_power_of_two().min(64);
        let base = env.alloc(stride * len as u64, align, place, region);
        let slots = (0..len).map(|_| UnsafeCell::new(init)).collect();
        SharedVec {
            slots,
            base,
            stride,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Virtual address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> VAddr {
        debug_assert!(i < self.slots.len());
        self.base + self.stride * i as u64
    }

    /// Size in bytes of one element in the simulated address space.
    #[inline]
    pub fn stride(&self) -> u32 {
        self.stride as u32
    }

    /// Timed read of element `i`.
    #[inline]
    pub fn load<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize) -> T {
        env.access(ctx, self.addr(i), self.stride as u32, Access::Read);
        // SAFETY: module-level contract (lock/ownership discipline).
        unsafe { *self.slots[i].get() }
    }

    /// Timed write of element `i`.
    #[inline]
    pub fn store<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize, value: T) {
        env.access(ctx, self.addr(i), self.stride as u32, Access::Write);
        // SAFETY: module-level contract.
        unsafe { *self.slots[i].get() = value };
    }

    /// Timed *unordered* read of element `i`: an optimistic pre-check whose
    /// result is re-validated under a lock (or found to be benignly stale)
    /// before being acted on. Reported to the environment through
    /// [`Access::Unordered`], so checking environments know not to flag
    /// it as a data race.
    #[inline]
    pub fn load_relaxed<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize) -> T {
        env.access(ctx, self.addr(i), self.stride as u32, Access::Unordered);
        // SAFETY: module-level contract. The value may be concurrently
        // written (struct-granularity tearing included); callers only use
        // fields whose staleness they re-validate.
        unsafe { *self.slots[i].get() }
    }

    /// Timed read-modify-write of element `i` (counts as one read and one
    /// write of the element).
    #[inline]
    pub fn update<E: Env, R>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        i: usize,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        env.access(ctx, self.addr(i), self.stride as u32, Access::Read);
        env.access(ctx, self.addr(i), self.stride as u32, Access::Write);
        // SAFETY: module-level contract.
        unsafe { f(&mut *self.slots[i].get()) }
    }

    /// Untimed read, for setup, teardown and verification code running
    /// outside the measured parallel phases. Subject to the same race-freedom
    /// contract as [`SharedVec::load`].
    #[inline]
    pub fn peek(&self, i: usize) -> T {
        // SAFETY: module-level contract.
        unsafe { *self.slots[i].get() }
    }

    /// Untimed write; see [`SharedVec::peek`].
    #[inline]
    pub fn poke(&self, i: usize, value: T) {
        // SAFETY: module-level contract.
        unsafe { *self.slots[i].get() = value };
    }

    /// Untimed write of `value` to every element; see [`SharedVec::peek`].
    pub fn fill(&self, value: T) {
        (0..self.len()).for_each(|i| self.poke(i, value));
    }

    /// Untimed borrow of a contiguous range — the native fast path for
    /// per-processor scratch that the borrowing processor alone writes
    /// (the batched force kernel streams its interaction lists straight
    /// from the scratch row this way, with no per-element copies).
    /// Stricter contract than [`SharedVec::peek`]: no processor may write
    /// the range while the returned slice lives.
    #[inline]
    pub fn peek_slice(&self, range: core::ops::Range<usize>) -> &[T] {
        let s = &self.slots[range];
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
        // pointer cast preserves layout; the contract above (no concurrent
        // writes while the borrow lives) is the module-level race-freedom
        // contract strengthened to exclude the owner's own writes, which
        // makes the shared reference sound for its lifetime.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<T>(), s.len()) }
    }
}

/// The word a [`SharedAtomicVec`] holds: `u32` or `u64`, each element
/// its own size and alignment in the simulated address space.
pub trait AtomicWord: Copy + Send {
    /// The host atomic holding one element.
    type Atomic: Send + Sync;
    fn atomic(v: Self) -> Self::Atomic;
    fn load(a: &Self::Atomic) -> Self;
    fn store(a: &Self::Atomic, v: Self);
    fn fetch_add(a: &Self::Atomic, v: Self) -> Self;
    fn fetch_sub(a: &Self::Atomic, v: Self) -> Self;
}

macro_rules! atomic_word {
    ($word:ty, $atomic:ty) => {
        impl AtomicWord for $word {
            type Atomic = $atomic;
            fn atomic(v: $word) -> $atomic {
                <$atomic>::new(v)
            }
            #[inline]
            fn load(a: &$atomic) -> $word {
                a.load(Ordering::Acquire)
            }
            #[inline]
            fn store(a: &$atomic, v: $word) {
                a.store(v, Ordering::Release)
            }
            #[inline]
            fn fetch_add(a: &$atomic, v: $word) -> $word {
                a.fetch_add(v, Ordering::AcqRel)
            }
            #[inline]
            fn fetch_sub(a: &$atomic, v: $word) -> $word {
                a.fetch_sub(v, Ordering::AcqRel)
            }
        }
    };
}

atomic_word!(u32, AtomicU32);
atomic_word!(u64, AtomicU64);

/// A shared array of atomic counters: 32-bit by default, used for dynamic
/// index allocation (the SPLASH "obtain the next index in the array
/// dynamically"), child-completion counts in the parallel center-of-mass
/// pass, and the frequently-accessed shared counters whose false sharing
/// the paper calls out in the ORIG algorithm; 64-bit for work totals and
/// cost sums.
pub struct SharedAtomicVec<W: AtomicWord = u32> {
    slots: Box<[W::Atomic]>,
    base: VAddr,
}

impl<W: AtomicWord> SharedAtomicVec<W> {
    /// Bytes (and alignment) of one element in the simulated address space.
    const BYTES: u32 = std::mem::size_of::<W>() as u32;

    /// Allocate `len` counters set to `init`; see [`SharedVec::new`].
    pub fn new<E: Env>(env: &E, len: usize, init: W, place: Placement, region: Region) -> Self {
        let bytes = Self::BYTES as u64;
        let base = env.alloc(bytes * len as u64, bytes, place, region);
        let slots = (0..len).map(|_| W::atomic(init)).collect();
        SharedAtomicVec { slots, base }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    #[inline]
    pub fn addr(&self, i: usize) -> VAddr {
        self.base + Self::BYTES as u64 * i as u64
    }

    /// Timed atomic fetch-add.
    #[inline]
    pub fn fetch_add<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize, v: W) -> W {
        env.access(ctx, self.addr(i), Self::BYTES, Access::Rmw);
        let r = W::fetch_add(&self.slots[i], v);
        env.atomic_commit(ctx, self.addr(i), Self::BYTES);
        r
    }

    /// Timed atomic fetch-sub.
    #[inline]
    pub fn fetch_sub<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize, v: W) -> W {
        env.access(ctx, self.addr(i), Self::BYTES, Access::Rmw);
        let r = W::fetch_sub(&self.slots[i], v);
        env.atomic_commit(ctx, self.addr(i), Self::BYTES);
        r
    }

    /// Timed atomic load (acquire). The accounting call follows the real
    /// load: acquires are instrumented after the operation they describe
    /// (see [`Env::atomic_commit`]).
    #[inline]
    pub fn load<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize) -> W {
        let r = W::load(&self.slots[i]);
        env.access(ctx, self.addr(i), Self::BYTES, Access::AtomicRead);
        r
    }

    /// Timed atomic store (release).
    #[inline]
    pub fn store<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize, v: W) {
        env.access(ctx, self.addr(i), Self::BYTES, Access::AtomicWrite);
        W::store(&self.slots[i], v)
    }

    /// Untimed load for setup/verification.
    #[inline]
    pub fn peek(&self, i: usize) -> W {
        W::load(&self.slots[i])
    }

    /// Untimed store for setup/verification.
    #[inline]
    pub fn poke(&self, i: usize, v: W) {
        W::store(&self.slots[i], v)
    }

    /// Untimed store of `v` to every slot; see [`SharedVec::fill`].
    pub fn fill(&self, v: W) {
        (0..self.len()).for_each(|i| self.poke(i, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NativeEnv;

    #[test]
    fn shared_vec_basics() {
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        let v: SharedVec<u64> = SharedVec::new(&env, 16, 0, Placement::Global, Region::Other);
        assert_eq!(v.len(), 16);
        v.store(&env, &mut ctx, 3, 99);
        assert_eq!(v.load(&env, &mut ctx, 3), 99);
        assert_eq!(v.peek(3), 99);
        v.update(&env, &mut ctx, 3, |x| *x += 1);
        assert_eq!(v.peek(3), 100);
    }

    #[test]
    fn addresses_are_strided() {
        let env = NativeEnv::new(1);
        let v: SharedVec<[u8; 24]> =
            SharedVec::new(&env, 8, [0; 24], Placement::Global, Region::Other);
        assert_eq!(v.addr(1) - v.addr(0), 24);
        assert_eq!(v.stride(), 24);
    }

    #[test]
    fn distinct_vecs_do_not_overlap() {
        let env = NativeEnv::new(1);
        let a: SharedVec<u64> = SharedVec::new(&env, 100, 0, Placement::Global, Region::Other);
        let b: SharedVec<u64> = SharedVec::new(&env, 100, 0, Placement::Local(0), Region::Other);
        let a_end = a.addr(99) + 8;
        assert!(b.addr(0) >= a_end || b.addr(99) + 8 <= a.addr(0));
    }

    #[test]
    fn atomic_vec_concurrent_fetch_add() {
        let env = NativeEnv::new(4);
        let v: SharedAtomicVec = SharedAtomicVec::new(&env, 2, 0, Placement::Global, Region::Other);
        std::thread::scope(|s| {
            for p in 0..4 {
                let env = &env;
                let v = &v;
                s.spawn(move || {
                    let mut ctx = env.make_ctx(p);
                    for _ in 0..10_000 {
                        v.fetch_add(env, &mut ctx, 0, 1);
                    }
                });
            }
        });
        assert_eq!(v.peek(0), 40_000);
        assert_eq!(v.peek(1), 0);
    }

    #[test]
    fn atomic64_roundtrip() {
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        let v: SharedAtomicVec<u64> =
            SharedAtomicVec::new(&env, 4, 7, Placement::Global, Region::Other);
        assert_eq!(v.load(&env, &mut ctx, 2), 7);
        v.store(&env, &mut ctx, 2, 1 << 40);
        assert_eq!(v.fetch_add(&env, &mut ctx, 2, 5), 1 << 40);
        assert_eq!(v.peek(2), (1 << 40) + 5);
    }

    #[test]
    #[should_panic]
    fn load_out_of_bounds_panics() {
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        let v: SharedVec<u64> = SharedVec::new(&env, 4, 0, Placement::Global, Region::Other);
        let _ = v.load(&env, &mut ctx, 4);
    }

    #[test]
    #[should_panic]
    fn store_out_of_bounds_panics() {
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        let v: SharedVec<u64> = SharedVec::new(&env, 4, 0, Placement::Global, Region::Other);
        v.store(&env, &mut ctx, 100, 1);
    }

    #[test]
    #[should_panic]
    fn poke_out_of_bounds_panics() {
        let env = NativeEnv::new(1);
        let v: SharedVec<u32> = SharedVec::new(&env, 1, 0, Placement::Global, Region::Other);
        v.poke(1, 9);
    }

    #[test]
    #[should_panic]
    fn atomic_out_of_bounds_panics() {
        let env = NativeEnv::new(1);
        let mut ctx = env.make_ctx(0);
        let v: SharedAtomicVec = SharedAtomicVec::new(&env, 2, 0, Placement::Global, Region::Other);
        v.fetch_add(&env, &mut ctx, 2, 1);
    }

    #[test]
    fn stride_and_alignment_invariants() {
        let env = NativeEnv::new(1);
        // The simulated base address is aligned to the element size rounded
        // up to a power of two (capped at a cache line), so no element
        // straddles an alignment boundary smaller than itself.
        let a: SharedVec<u32> = SharedVec::new(&env, 5, 0, Placement::Global, Region::Other);
        assert_eq!(a.stride(), 4);
        assert_eq!(a.addr(0) % 4, 0);
        let b: SharedVec<f64> = SharedVec::new(&env, 5, 0.0, Placement::Global, Region::Other);
        assert_eq!(b.stride(), 8);
        assert_eq!(b.addr(0) % 8, 0);
        let c: SharedVec<[u8; 24]> =
            SharedVec::new(&env, 5, [0; 24], Placement::Global, Region::Other);
        assert_eq!(c.stride(), 24);
        assert_eq!(c.addr(0) % 32, 0); // 24 rounds up to 32
        for v in [&a.addr(0), &b.addr(0)] {
            assert_eq!(v % 4, 0, "every element address is 4-byte aligned");
        }
        // Addresses advance by exactly one stride with no padding between
        // elements of the same vector.
        for i in 0..4 {
            assert_eq!(c.addr(i + 1) - c.addr(i), 24);
        }
        // Atomic vectors are word/double-word aligned.
        let d: SharedAtomicVec = SharedAtomicVec::new(&env, 3, 0, Placement::Global, Region::Other);
        assert_eq!(d.addr(0) % 4, 0);
        let e: SharedAtomicVec<u64> =
            SharedAtomicVec::new(&env, 3, 0, Placement::Global, Region::Other);
        assert_eq!(e.addr(0) % 8, 0);
    }

    #[test]
    fn region_map_lookup_and_boundaries() {
        let mut m = RegionMap::new();
        m.insert(0x1000, 0x100, Region::Bodies);
        m.insert(0x3000, 0x10, Region::TreeCells);
        m.insert(0x2000, 0x80, Region::FlatTree);
        assert_eq!(m.len(), 3);
        assert_eq!(m.lookup(0x0fff), Region::Other);
        assert_eq!(m.lookup(0x1000), Region::Bodies);
        assert_eq!(m.lookup(0x10ff), Region::Bodies);
        assert_eq!(m.lookup(0x1100), Region::Other);
        assert_eq!(m.lookup(0x2000), Region::FlatTree);
        assert_eq!(m.lookup(0x3008), Region::TreeCells);
        assert_eq!(m.lookup(0x3010), Region::Other);
        // Ranges come back sorted regardless of insertion order.
        let bases: Vec<u64> = m.iter().map(|(b, _, _)| b).collect();
        assert_eq!(bases, vec![0x1000, 0x2000, 0x3000]);
        // Zero-length ranges are dropped.
        m.insert(0x9000, 0, Region::Partition);
        assert_eq!(m.len(), 3);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn region_map_rejects_overlap() {
        let mut m = RegionMap::new();
        m.insert(0x1000, 0x100, Region::Bodies);
        m.insert(0x10ff, 0x10, Region::TreeCells);
    }

    #[test]
    fn barrier_transfers_element_ownership_between_threads() {
        // Two native threads ping-pong ownership of the same elements
        // across barriers: each round, the writer of the previous round
        // becomes the reader. Values observed after each barrier must be
        // exactly the other thread's writes (the race detector certifies
        // the ordering; this smoke test certifies the data).
        let env = NativeEnv::new(2);
        let v: SharedVec<u64> = SharedVec::new(&env, 8, 0, Placement::Global, Region::Other);
        crate::harness::spmd(&env, |proc, ctx| {
            for round in 0u64..4 {
                let writer = (round as usize) % 2;
                if proc == writer {
                    for i in 0..8 {
                        v.store(&env, ctx, i, round * 100 + i as u64);
                    }
                }
                env.barrier(ctx);
                let got = v.load(&env, ctx, 5);
                assert_eq!(got, round * 100 + 5, "round {round} proc {proc}");
                env.barrier(ctx);
            }
        });
    }
}
