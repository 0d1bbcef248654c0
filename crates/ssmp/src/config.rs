//! Cost models for simulated shared-address-space platforms.
//!
//! All latencies are in processor clock cycles of the modeled machine. They
//! are derived from the platform descriptions in §3 of the paper (and the
//! machines' published specifications); absolute values are approximate by
//! design — the simulator reproduces the *shape* of the paper's results, not
//! absolute seconds.

/// Consistency/coherence protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Eager write-invalidate at cache-line granularity over a shared bus:
    /// every miss costs the same (centralized memory). SGI Challenge.
    BusMesi,
    /// Eager write-invalidate, directory-based CC-NUMA: local and remote
    /// misses differ. SGI Origin 2000.
    Directory,
    /// Home-based lazy release consistency at page granularity in software:
    /// protocol activity happens at synchronization; multiple writers with
    /// twins/diffs; acquirers invalidate written pages lazily.
    /// Intel Paragon SVM, Typhoon-zero HLRC.
    Hlrc,
    /// Sequentially consistent software protocol at fine (cache-line)
    /// granularity with hardware access control: protocol activity at each
    /// memory operation, cheap synchronization. Typhoon-zero SC.
    FineGrainSc,
}

impl Protocol {
    /// Lazy protocols defer coherence to synchronization points.
    pub fn is_lazy(self) -> bool {
        matches!(self, Protocol::Hlrc)
    }

    /// Protocols whose synchronization is mediated by software handlers
    /// (lock hand-offs serialize through a protocol processor), as opposed
    /// to hardware cache-coherent lock primitives.
    pub fn software_sync(self) -> bool {
        matches!(self, Protocol::Hlrc | Protocol::FineGrainSc)
    }
}

/// Full platform cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub name: String,
    pub protocol: Protocol,
    /// Coherence granularity in bytes (cache line for eager protocols, page
    /// for HLRC). A power of two.
    pub grain: u32,
    /// Processor clock in MHz (to report seconds).
    pub cpu_mhz: u64,
    /// Private cache capacity in lines, for the eager protocols. HLRC does
    /// not consult it: its page table is unbounded, and the value the HLRC
    /// presets carry only records the resident set of the modeled machine.
    pub cache_grains: usize,

    // --- per-access costs ---
    /// Cache/page-table hit.
    pub t_hit: u64,
    /// Miss served from local memory (or the bus, for BusMesi).
    pub t_local_miss: u64,
    /// Miss served remotely (ignored by BusMesi).
    pub t_remote_miss: u64,
    /// Extra cost at the writer per remote sharer invalidated (eager).
    pub t_invalidate: u64,

    // --- synchronization ---
    /// Base cost of acquiring an uncontended lock.
    pub t_lock: u64,
    /// Extra cost when a lock is transferred between processors.
    pub t_lock_transfer: u64,
    /// Base cost of a barrier episode.
    pub t_barrier: u64,

    // --- software/SVM costs ---
    /// Full page-fault service (fault + request + transfer + map), HLRC.
    pub t_page_fault: u64,
    /// Twin creation on first write to a page in an interval, HLRC.
    pub t_twin: u64,
    /// Diff creation/flush per dirty page at release, HLRC.
    pub t_diff: u64,
    /// Per-page write-notice / revalidation check after an acquire, HLRC.
    pub t_check: u64,
    /// Per write-notice processing cost at an acquire: every page interval
    /// flushed anywhere in the system since this processor's last acquire
    /// must be received and recorded. This is the term that grows with
    /// global synchronization traffic and makes fine-grained locking
    /// intractable on SVM platforms.
    pub t_notice: u64,
    /// Home-side service occupancy per page fault: concurrent faults on the
    /// same page serialize at its home (protocol handler occupancy), so a
    /// hot page becomes a global serial bottleneck.
    pub t_fault_occupancy: u64,
    /// Directory/memory occupancy per atomic read-modify-write on a line:
    /// RMW storms on one hot line (e.g. a shared allocation counter)
    /// serialize at its home. Eager protocols only.
    pub t_rmw_occupancy: u64,
}

impl CostModel {
    /// Convert simulated cycles to seconds on the modeled machine.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.cpu_mhz as f64 * 1e6)
    }

    /// `log2(grain)`: the grain number of an address is `addr >> grain_shift()`.
    pub fn grain_shift(&self) -> u32 {
        assert!(
            self.grain.is_power_of_two(),
            "{}: grain {} is not a power of two",
            self.name,
            self.grain
        );
        self.grain.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    #[test]
    fn every_preset_has_a_power_of_two_grain() {
        for m in platform::all_platforms(4) {
            assert_eq!(1u32 << m.grain_shift(), m.grain, "{}", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn odd_grain_is_refused() {
        let mut m = platform::origin2000(4);
        m.grain = 96;
        m.grain_shift();
    }

    #[test]
    fn seconds_conversion() {
        let m = platform::challenge(4);
        let s = m.cycles_to_seconds(m.cpu_mhz * 1_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_flag() {
        assert!(Protocol::Hlrc.is_lazy());
        assert!(!Protocol::Directory.is_lazy());
        assert!(!Protocol::BusMesi.is_lazy());
        assert!(!Protocol::FineGrainSc.is_lazy());
    }
}
