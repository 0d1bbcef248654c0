//! Per-processor fast-path state: a private cache (eager protocols) or page
//! table (HLRC).
//!
//! Both are dense tables indexed by grain number, one table per address
//! region (region 0 is the global region, region `p + 1` is `Local(p)`):
//! simulated addresses come from one bump allocator per region, so the
//! grains a processor touches are dense within each region and a lookup is
//! two indexed loads. A table grows when a grain is first stored.
//!
//! Only [`PrivateCache`] is bounded, by `CostModel::cache_grains`, with FIFO
//! eviction — crude but cheap, and eviction behaviour only needs to be
//! plausible, not exact. [`PageTable`] is unbounded: a mapped page stays
//! mapped, and `cache_grains` is not consulted for HLRC.

use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

/// Minimal multiplicative hasher for `u64` grain numbers, for the global
/// directory's maps: SipHash would be a measurable tax on every miss.
#[derive(Default)]
pub struct GrainHasher(u64);

impl Hasher for GrainHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (v ^ (v >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }
}

/// HashMap keyed by grain numbers with the fast hasher.
pub type GrainMap<V> = std::collections::HashMap<u64, V, BuildHasherDefault<GrainHasher>>;

/// One `Vec<T>` per address region, indexed by the grain number within the
/// region. `T::default()` means "absent".
struct RegionTable<T> {
    /// Bits of a grain number below the region number.
    region_bits: u32,
    regions: Vec<Vec<T>>,
}

impl<T: Copy + Default> RegionTable<T> {
    fn new(region_bits: u32) -> Self {
        RegionTable {
            region_bits,
            regions: Vec::new(),
        }
    }

    /// (region, index within the region) of a grain.
    #[inline]
    fn split(&self, grain: u64) -> (usize, usize) {
        let index = grain & ((1 << self.region_bits) - 1);
        ((grain >> self.region_bits) as usize, index as usize)
    }

    #[inline]
    fn get(&self, grain: u64) -> T {
        let (region, index) = self.split(grain);
        match self.regions.get(region) {
            Some(table) => table.get(index).copied().unwrap_or_default(),
            None => T::default(),
        }
    }

    #[inline]
    fn get_mut(&mut self, grain: u64) -> Option<&mut T> {
        let (region, index) = self.split(grain);
        self.regions.get_mut(region)?.get_mut(index)
    }

    /// The grain's slot, growing its region's table to hold it.
    fn slot(&mut self, grain: u64) -> &mut T {
        let (region, index) = self.split(grain);
        if region >= self.regions.len() {
            self.regions.resize_with(region + 1, Vec::new);
        }
        let table = &mut self.regions[region];
        if index >= table.len() {
            table.resize(index + 1, T::default());
        }
        &mut table[index]
    }
}

/// State of a privately cached grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Held {
    Shared,
    Exclusive,
}

/// Bounded private cache for eager (line-grained) protocols: one byte of
/// line state per grain of address span touched, and a FIFO of insertions.
pub struct PrivateCache {
    lines: RegionTable<Option<Held>>,
    /// Resident lines.
    len: usize,
    fifo: VecDeque<u64>,
    capacity: usize,
}

const _: () = assert!(std::mem::size_of::<Option<Held>>() == 1);

impl PrivateCache {
    /// `region_bits`: bits of a grain number below the region number.
    pub fn new(capacity: usize, region_bits: u32) -> Self {
        PrivateCache {
            lines: RegionTable::new(region_bits),
            len: 0,
            fifo: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity: capacity.max(16),
        }
    }

    #[inline]
    pub fn get(&self, grain: u64) -> Option<Held> {
        self.lines.get(grain)
    }

    /// Insert/upgrade a grain; returns any evicted grain.
    pub fn put(&mut self, grain: u64, held: Held) -> Option<u64> {
        if self.lines.slot(grain).replace(held).is_none() {
            self.len += 1;
            self.fifo.push_back(grain);
            if self.fifo.len() > self.capacity {
                // Evict FIFO entries until we find one still resident.
                while let Some(victim) = self.fifo.pop_front() {
                    if victim != grain && self.invalidate(victim) {
                        return Some(victim);
                    }
                    if self.fifo.is_empty() {
                        break;
                    }
                }
            }
        }
        None
    }

    /// Drop a grain; returns whether a resident line was actually killed
    /// (attribution counts real coherence kills, not redundant messages).
    #[inline]
    pub fn invalidate(&mut self, grain: u64) -> bool {
        let killed = self.lines.get_mut(grain).and_then(Option::take).is_some();
        self.len -= usize::from(killed);
        killed
    }

    /// Downgrade exclusive → shared (another processor read the line).
    #[inline]
    pub fn downgrade(&mut self, grain: u64) {
        if let Some(Some(h)) = self.lines.get_mut(grain) {
            *h = Held::Shared;
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-page entry of the HLRC page table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageEntry {
    /// Version of the page contents this processor last fetched/validated.
    pub version: u64,
    /// The acquire-epoch at which this entry was last checked against the
    /// global version. Entries from older epochs must be revalidated (this
    /// is the lazy invalidation of LRC). Epochs start at 1: an entry whose
    /// `checked_epoch` is 0 is a page this processor has not mapped.
    pub checked_epoch: u64,
    /// Whether this processor has a twin and is writing the page in the
    /// current interval.
    pub writing: bool,
}

/// HLRC page table for one processor. Unbounded: pages are never evicted.
pub struct PageTable {
    pages: RegionTable<PageEntry>,
    /// Pages written in the current interval (flushed at release).
    pub dirty: Vec<u64>,
}

impl PageTable {
    /// `region_bits`: bits of a page number below the region number.
    pub fn new(region_bits: u32) -> Self {
        PageTable {
            pages: RegionTable::new(region_bits),
            dirty: Vec::new(),
        }
    }

    #[inline]
    pub fn get(&self, page: u64) -> Option<PageEntry> {
        Some(self.pages.get(page)).filter(|e| e.checked_epoch != 0)
    }

    /// Map or update a page; `e.checked_epoch` must be a real epoch (≥ 1).
    #[inline]
    pub fn set(&mut self, page: u64, e: PageEntry) {
        debug_assert!(e.checked_epoch != 0, "epoch 0 marks an unmapped page");
        *self.pages.slot(page) = e;
    }

    #[inline]
    pub fn entry_mut(&mut self, page: u64) -> Option<&mut PageEntry> {
        self.pages.get_mut(page).filter(|e| e.checked_epoch != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_core::rng::SmallRng;
    use std::collections::HashMap;

    /// Grain-number bits below the region number in these tests.
    const REGION_BITS: u32 = 10;

    #[test]
    fn cache_hit_and_miss() {
        let mut c = PrivateCache::new(100, REGION_BITS);
        assert_eq!(c.get(5), None);
        c.put(5, Held::Shared);
        assert_eq!(c.get(5), Some(Held::Shared));
        c.put(5, Held::Exclusive);
        assert_eq!(c.get(5), Some(Held::Exclusive));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = PrivateCache::new(100, REGION_BITS);
        c.put(1, Held::Exclusive);
        c.downgrade(1);
        assert_eq!(c.get(1), Some(Held::Shared));
        c.invalidate(1);
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut c = PrivateCache::new(16, REGION_BITS);
        for g in 0..100u64 {
            c.put(g, Held::Shared);
        }
        assert!(c.len() <= 17, "cache grew to {}", c.len());
        // Recent entries survive FIFO eviction.
        assert_eq!(c.get(99), Some(Held::Shared));
        assert_eq!(c.get(0), None);
    }

    #[test]
    fn page_table_roundtrip() {
        let mut pt = PageTable::new(REGION_BITS);
        assert!(pt.get(7).is_none());
        pt.set(
            7,
            PageEntry {
                version: 3,
                checked_epoch: 1,
                writing: false,
            },
        );
        let e = pt.get(7).unwrap();
        assert_eq!(e.version, 3);
        pt.entry_mut(7).unwrap().writing = true;
        assert!(pt.get(7).unwrap().writing);
        // A slot the table grew past, but that was never set, is unmapped.
        assert!(pt.get(6).is_none());
        assert!(pt.entry_mut(6).is_none());
    }

    /// The hashed `PrivateCache` the dense one replaced, kept as the
    /// reference its eviction order, stale FIFO entries and duplicates are
    /// checked against.
    struct ModelCache {
        map: HashMap<u64, Held>,
        fifo: VecDeque<u64>,
        capacity: usize,
    }

    impl ModelCache {
        fn new(capacity: usize) -> Self {
            ModelCache {
                map: HashMap::new(),
                fifo: VecDeque::new(),
                capacity: capacity.max(16),
            }
        }

        fn put(&mut self, grain: u64, held: Held) -> Option<u64> {
            if self.map.insert(grain, held).is_none() {
                self.fifo.push_back(grain);
                if self.fifo.len() > self.capacity {
                    while let Some(victim) = self.fifo.pop_front() {
                        if victim != grain && self.map.remove(&victim).is_some() {
                            return Some(victim);
                        }
                        if self.fifo.is_empty() {
                            break;
                        }
                    }
                }
            }
            None
        }

        fn invalidate(&mut self, grain: u64) -> bool {
            self.map.remove(&grain).is_some()
        }

        fn downgrade(&mut self, grain: u64) {
            if let Some(h) = self.map.get_mut(&grain) {
                *h = Held::Shared;
            }
        }
    }

    /// A random grain out of 40 in each of regions 0, 1, 2 and 5: few enough
    /// that a cache of 16 to 64 lines evicts, that invalidated grains are
    /// still in the FIFO when they come up for eviction, and that they are
    /// inserted again while their old FIFO entry is still queued.
    fn random_grain(rng: &mut SmallRng) -> u64 {
        let region = [0u64, 1, 2, 5][rng.gen_range_usize(0, 4)];
        (region << REGION_BITS) + rng.gen_range_usize(0, 40) as u64
    }

    #[test]
    fn private_cache_matches_the_hashed_model() {
        let (mut evictions, mut stale, mut reinserted) = (0, 0, 0);
        for (seed, capacity) in [(1u64, 16usize), (2, 24), (3, 33), (4, 64), (5, 1)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut dense = PrivateCache::new(capacity, REGION_BITS);
            let mut model = ModelCache::new(capacity);
            for op in 0..20_000 {
                let g = random_grain(&mut rng);
                match rng.gen_range_usize(0, 10) {
                    0..=4 => {
                        let held = if rng.next_u64() & 1 == 0 {
                            Held::Shared
                        } else {
                            Held::Exclusive
                        };
                        reinserted +=
                            usize::from(!model.map.contains_key(&g) && model.fifo.contains(&g));
                        let fifo_before = model.fifo.len();
                        let evicted = model.put(g, held);
                        assert_eq!(dense.put(g, held), evicted, "put, seed {seed} op {op}");
                        evictions += usize::from(evicted.is_some());
                        // More than one entry popped: the ones before the
                        // victim were stale.
                        stale += usize::from(fifo_before > model.fifo.len());
                    }
                    5..=6 => assert_eq!(
                        dense.invalidate(g),
                        model.invalidate(g),
                        "invalidate, seed {seed} op {op}"
                    ),
                    7 => {
                        dense.downgrade(g);
                        model.downgrade(g);
                    }
                    _ => {}
                }
                assert_eq!(
                    dense.get(g),
                    model.map.get(&g).copied(),
                    "get, seed {seed} op {op}"
                );
                assert_eq!(dense.len(), model.map.len(), "len, seed {seed} op {op}");
                assert_eq!(dense.is_empty(), model.map.is_empty());
            }
            // Every grain, not only the ones the ops happened to probe.
            for region in 0..7u64 {
                for i in 0..48 {
                    let g = (region << REGION_BITS) + i;
                    assert_eq!(dense.get(g), model.map.get(&g).copied());
                }
            }
        }
        assert!(
            evictions > 1000 && stale > 100 && reinserted > 100,
            "sequences too tame: {evictions} evictions, {stale} with stale \
             entries, {reinserted} re-insertions over a queued entry"
        );
    }

    #[test]
    fn page_table_matches_a_hash_map() {
        for seed in 1..=4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut dense = PageTable::new(REGION_BITS);
            let mut model: HashMap<u64, PageEntry> = HashMap::new();
            for op in 0..10_000u64 {
                let page = random_grain(&mut rng);
                match rng.gen_range_usize(0, 4) {
                    0 => {
                        let e = PageEntry {
                            version: rng.next_u64() % 8,
                            checked_epoch: 1 + op / 100,
                            writing: rng.next_u64() & 1 == 0,
                        };
                        dense.set(page, e);
                        model.insert(page, e);
                    }
                    1 => {
                        let (d, m) = (dense.entry_mut(page), model.get_mut(&page));
                        assert_eq!(d.is_some(), m.is_some(), "seed {seed} op {op}");
                        if let (Some(d), Some(m)) = (d, m) {
                            d.version += 1;
                            d.writing = !d.writing;
                            m.version += 1;
                            m.writing = !m.writing;
                        }
                    }
                    _ => {}
                }
                assert_eq!(
                    dense.get(page),
                    model.get(&page).copied(),
                    "seed {seed} op {op}"
                );
            }
        }
    }
}
