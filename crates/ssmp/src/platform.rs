//! The four platforms of the paper, as cost-model presets (§3).
//!
//! Latencies are expressed in cycles of each machine's processor clock and
//! derived from the figures the paper quotes (secondary-miss penalty, local
//! and remote access times, message latencies) plus published protocol
//! costs for HLRC-style SVM systems. The `procs` argument only names the
//! configuration; the machine size is fixed when a `Machine` is built.

use crate::config::{CostModel, EagerCosts, HlrcCosts, Protocol};

/// SGI Challenge: 150 MHz R4400, POWERpath-2 bus, centralized memory,
/// 4-state write-invalidate snooping. Secondary cache miss ≈ 1100 ns ≈ 165
/// cycles; every miss goes to the shared bus, so there is no local/remote
/// distinction. Hardware locks are cheap.
pub fn challenge(_procs: usize) -> CostModel {
    CostModel {
        name: "SGI-Challenge".into(),
        protocol: Protocol::BusMesi(EagerCosts {
            cache_grains: 4 * 1024 * 1024 / 128, // 4 MB L2
            t_invalidate: 20,
            t_rmw_occupancy: 150,
        }),
        grain: 128,
        cpu_mhz: 150,
        t_hit: 1,
        t_local_miss: 165,
        t_lock: 30,
        t_lock_transfer: 60,
        t_barrier: 400,
    }
}

/// SGI Origin 2000: 200 MHz R10000, hypercube interconnect, distributed
/// directory protocol, 128 B lines. Local miss ≤ 313 ns ≈ 62 cycles, remote
/// ≤ 730 ns ≈ 146 cycles.
pub fn origin2000(_procs: usize) -> CostModel {
    CostModel {
        name: "SGI-Origin2000".into(),
        protocol: Protocol::Directory {
            eager: EagerCosts {
                cache_grains: 4 * 1024 * 1024 / 128, // 4 MB L2 per processor
                t_invalidate: 40,
                t_rmw_occupancy: 400,
            },
            t_remote_miss: 146,
        },
        grain: 128,
        cpu_mhz: 200,
        t_hit: 1,
        t_local_miss: 62,
        t_lock: 40,
        t_lock_transfer: 150,
        t_barrier: 1_000,
    }
}

/// Intel Paragon running HLRC shared virtual memory at 4 KB pages: 50 MHz
/// i860 compute processor plus a dedicated communication coprocessor; one-way
/// 4-byte message ≈ 50 µs ≈ 2500 cycles; a 4 KB page transfer at 200 MB/s/link
/// adds ≈ 20 µs; the fault + request + map software path brings a remote page
/// fault to ≈ 150 µs ≈ 7500 cycles. All protocol activity (diffs, write
/// notices, lock transfers) rides on these messages, which is what makes
/// synchronization so expensive.
pub fn paragon_hlrc(_procs: usize) -> CostModel {
    CostModel {
        name: "Paragon-HLRC".into(),
        protocol: Protocol::Hlrc(HlrcCosts {
            t_page_fault: 7_500,
            t_twin: 900,              // copy 4 KB locally
            t_diff: 1_800,            // make + send diff
            t_check: 35,              // per-page revalidation at first touch after acquire
            t_notice: 1_200,          // per write-notice processed at an acquire (software)
            t_fault_occupancy: 4_000, // handler occupancy at the page's home
        }),
        grain: 4096,
        cpu_mhz: 50,
        t_hit: 1,
        t_local_miss: 40,
        t_lock: 10_000, // ≈ 200 µs software lock path (request + interrupt + grant)
        t_lock_transfer: 18_000, // lock acquisition rides on the page protocol: ~3 messages + lock-page operations
        t_barrier: 10_000,
    }
}

/// Typhoon-zero running the same HLRC protocol: 66 MHz HyperSPARC with a
/// dedicated protocol processor and Myrinet. Messages are far cheaper than
/// the Paragon's (≈ 20 µs round trip for small messages through the SBus),
/// but the page-based software protocol still concentrates all coherence
/// work at synchronization points.
pub fn typhoon0_hlrc(_procs: usize) -> CostModel {
    CostModel {
        name: "Typhoon0-HLRC".into(),
        protocol: Protocol::Hlrc(HlrcCosts {
            t_page_fault: 4_600, // ≈ 70 µs page fault service
            t_twin: 1_000,
            t_diff: 1_600,
            t_check: 30,
            t_notice: 600,
            t_fault_occupancy: 2_600,
        }),
        grain: 4096,
        cpu_mhz: 66,
        t_hit: 1,
        t_local_miss: 35,
        t_lock: 5_000,          // ≈ 75 µs software lock path
        t_lock_transfer: 9_000, // ≈ 135 µs: 3-hop transfer + lock-page operations
        t_barrier: 6_000,
    }
}

/// Typhoon-zero under the fine-grained sequentially consistent protocol it
/// was designed for: hardware access control at 64 B blocks, protocol
/// handlers in software on the second processor. Misses are much more
/// expensive than hardware coherence (software handler + Myrinet message,
/// several microseconds), but synchronization carries no protocol baggage.
pub fn typhoon0_sc(_procs: usize) -> CostModel {
    CostModel {
        name: "Typhoon0-SC".into(),
        protocol: Protocol::FineGrainSc {
            eager: EagerCosts {
                cache_grains: 1024 * 1024 / 64, // 1 MB
                t_invalidate: 250,
                t_rmw_occupancy: 700, // software handler per remote atomic
            },
            t_remote_miss: 700, // ≈ 10 µs software-mediated remote miss
        },
        grain: 64,
        cpu_mhz: 66,
        t_hit: 1,
        t_local_miss: 30,
        t_lock: 60,
        t_lock_transfer: 700,
        t_barrier: 3_000,
    }
}

/// All five platform configurations in paper order.
pub fn all_platforms(procs: usize) -> Vec<CostModel> {
    vec![
        challenge(procs),
        origin2000(procs),
        paragon_hlrc(procs),
        typhoon0_hlrc(procs),
        typhoon0_sc(procs),
    ]
}

/// Look up a platform by (case-insensitive) name.
pub fn by_name(name: &str, procs: usize) -> Option<CostModel> {
    match name.to_ascii_lowercase().as_str() {
        "challenge" | "sgi-challenge" => Some(challenge(procs)),
        "origin" | "origin2000" | "sgi-origin2000" => Some(origin2000(procs)),
        "paragon" | "paragon-hlrc" => Some(paragon_hlrc(procs)),
        "typhoon0" | "typhoon0-hlrc" | "t0-hlrc" => Some(typhoon0_hlrc(procs)),
        "typhoon0-sc" | "t0-sc" => Some(typhoon0_sc(procs)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_protocols() {
        assert!(matches!(challenge(16).protocol, Protocol::BusMesi(_)));
        assert!(matches!(
            origin2000(30).protocol,
            Protocol::Directory { .. }
        ));
        assert!(matches!(paragon_hlrc(16).protocol, Protocol::Hlrc(_)));
        assert!(matches!(typhoon0_hlrc(16).protocol, Protocol::Hlrc(_)));
        assert!(matches!(
            typhoon0_sc(16).protocol,
            Protocol::FineGrainSc { .. }
        ));
    }

    #[test]
    fn svm_platforms_use_pages() {
        assert_eq!(paragon_hlrc(16).grain, 4096);
        assert_eq!(typhoon0_hlrc(16).grain, 4096);
        assert!(challenge(16).grain <= 128);
    }

    #[test]
    fn remote_misses_cost_more_on_numa() {
        let o = origin2000(16);
        let Protocol::Directory { t_remote_miss, .. } = o.protocol else {
            panic!("{}: not a directory", o.name)
        };
        assert!(t_remote_miss > o.t_local_miss);
    }

    #[test]
    fn svm_sync_is_expensive() {
        // The paper's central observation, encoded as a sanity check: a lock
        // transfer on the SVM platforms costs orders of magnitude more than
        // on the hardware-coherent ones.
        let hw = origin2000(16).t_lock_transfer;
        let svm = paragon_hlrc(16).t_lock_transfer;
        assert!(svm > 10 * hw);
    }

    #[test]
    fn name_lookup() {
        for (name, expect) in [
            ("challenge", "SGI-Challenge"),
            ("ORIGIN", "SGI-Origin2000"),
            ("paragon", "Paragon-HLRC"),
            ("typhoon0", "Typhoon0-HLRC"),
            ("typhoon0-sc", "Typhoon0-SC"),
        ] {
            assert_eq!(by_name(name, 8).unwrap().name, expect);
        }
        assert!(by_name("vax", 8).is_none());
    }
}
