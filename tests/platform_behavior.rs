//! Integration tests of the paper's qualitative claims on the simulated
//! platforms — the behaviors every figure rests on.
//!
//! Each claim is checked at a reduced problem size by default so the tier-1
//! suite stays fast; the paper-scale originals are kept as `_full` variants
//! marked `#[ignore]` and are run by `check.sh` (`cargo test -- --ignored`).

use bh_repro::bh_core::prelude::*;
use bh_repro::ssmp::{platform, Machine};

fn run(
    cost: &bh_repro::ssmp::CostModel,
    alg: Algorithm,
    n: usize,
    procs: usize,
) -> bh_repro::bh_core::app::RunStats {
    let machine = Machine::new(cost.clone(), procs);
    let mut cfg = SimConfig::new(alg);
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    let stats = run_simulation(&machine, &cfg, &Model::Plummer.generate(n, 1998));
    stats.assert_valid();
    stats
}

fn space_lock_free(n: usize, procs: usize) {
    for cost in platform::all_platforms(procs) {
        let stats = run(&cost, Algorithm::Space, n, procs);
        let locks: u64 = stats.tree_locks_per_proc().iter().sum();
        assert_eq!(locks, 0, "SPACE locked on {}", cost.name);
    }
}

#[test]
fn space_is_lock_free_on_every_platform() {
    space_lock_free(512, 4);
}

#[test]
#[ignore = "paper-scale; run with --ignored"]
fn space_is_lock_free_on_every_platform_full() {
    space_lock_free(2048, 8);
}

fn lock_count_ordering(n: usize, procs: usize) {
    // ORIG/LOCAL >= UPDATE-level >> PARTREE >> SPACE(=0).
    let cost = platform::origin2000(procs);
    let locks = |alg| -> u64 { run(&cost, alg, n, procs).tree_locks_per_proc().iter().sum() };
    let orig = locks(Algorithm::Orig);
    let local = locks(Algorithm::Local);
    let partree = locks(Algorithm::Partree);
    let space = locks(Algorithm::Space);
    assert!(orig >= n as u64, "ORIG locks {orig} below one per body");
    assert!(local >= n as u64, "LOCAL locks {local} below one per body");
    assert!(
        partree * 3 < local,
        "PARTREE {partree} not well below LOCAL {local}"
    );
    assert_eq!(space, 0);
}

#[test]
fn lock_count_ordering_matches_figure_15() {
    lock_count_ordering(1024, 4);
}

#[test]
#[ignore = "paper-scale; run with --ignored"]
fn lock_count_ordering_matches_figure_15_full() {
    lock_count_ordering(4096, 8);
}

fn svm_tree_bound(n: usize, procs: usize) {
    // The paper's central result: on page-based SVM the tree build devours
    // the step for the lock-per-body algorithms while SPACE keeps it small.
    let cost = platform::typhoon0_hlrc(procs);
    let local = run(&cost, Algorithm::Local, n, procs);
    let space = run(&cost, Algorithm::Space, n, procs);
    assert!(
        local.tree_fraction() > 0.5,
        "LOCAL tree share {:.2} unexpectedly small on HLRC",
        local.tree_fraction()
    );
    // The bound includes the flat-snapshot build, which is charged to the
    // tree phase and grows its share a few points at paper scale.
    assert!(
        space.tree_fraction() < 0.40,
        "SPACE tree share {:.2} unexpectedly large on HLRC",
        space.tree_fraction()
    );
    assert!(
        space.total_time() * 2 < local.total_time(),
        "SPACE ({}) not clearly faster than LOCAL ({}) on HLRC",
        space.total_time(),
        local.total_time()
    );
}

#[test]
fn svm_makes_lock_heavy_algorithms_tree_bound() {
    svm_tree_bound(4096, 8);
}

#[test]
#[ignore = "paper-scale; run with --ignored"]
fn svm_makes_lock_heavy_algorithms_tree_bound_full() {
    svm_tree_bound(8192, 16);
}

fn hardware_coherence_close(n: usize, procs: usize, spread: f64) {
    // On the Challenge every algorithm speeds up well (paper Figure 6):
    // total times within a modest factor of each other.
    let cost = platform::challenge(procs);
    let times: Vec<u64> = Algorithm::ALL
        .iter()
        .map(|&a| run(&cost, a, n, procs).total_time())
        .collect();
    let min = *times.iter().min().unwrap() as f64;
    let max = *times.iter().max().unwrap() as f64;
    assert!(
        max / min < spread,
        "spread too large on Challenge: {times:?}"
    );
}

#[test]
fn hardware_coherence_keeps_all_algorithms_close() {
    hardware_coherence_close(2048, 4, 1.3);
}

#[test]
#[ignore = "paper-scale; run with --ignored"]
fn hardware_coherence_keeps_all_algorithms_close_full() {
    hardware_coherence_close(8192, 8, 1.3);
}

fn tree_tiny_sequentially(n: usize) {
    // The premise of the paper: a few percent of a sequential step is tree
    // building (including the flatten snapshot).
    for cost in platform::all_platforms(1) {
        let machine = Machine::new(cost.clone(), 1);
        let mut cfg = SimConfig::new(Algorithm::Partree);
        cfg.warmup_steps = 1;
        cfg.measured_steps = 1;
        let stats = run_simulation(&machine, &cfg, &Model::Plummer.generate(n, 3));
        stats.assert_valid();
        assert!(
            stats.tree_fraction() < 0.08,
            "{}: sequential tree share {:.3}",
            cost.name,
            stats.tree_fraction()
        );
    }
}

#[test]
fn tree_build_is_tiny_sequentially_on_every_platform() {
    tree_tiny_sequentially(2048);
}

#[test]
#[ignore = "paper-scale; run with --ignored"]
fn tree_build_is_tiny_sequentially_on_every_platform_full() {
    tree_tiny_sequentially(8192);
}

fn morton_sort_build_beats_local(n: usize, procs: usize) {
    // The point of the sixth algorithm: building the flat tree directly from
    // the sorted key array skips both the lock traffic of the insertion
    // builders and the separate flatten pass, and comes out ahead of LOCAL
    // on the tree phase end to end.
    let cost = platform::origin2000(procs);
    let morton = run(&cost, Algorithm::Morton, n, procs);
    let local = run(&cost, Algorithm::Local, n, procs);
    let locks: u64 = morton.tree_locks_per_proc().iter().sum();
    assert_eq!(locks, 0, "MORTON took tree locks");
    assert_eq!(morton.flatten_cycles(), 0, "MORTON charged a flatten pass");
    assert!(morton.sort_cycles() > 0, "MORTON charged no sort time");
    assert!(
        morton.tree_time() < local.tree_time(),
        "MORTON tree phase ({}) not below LOCAL ({}) on the Origin",
        morton.tree_time(),
        local.tree_time()
    );
}

#[test]
fn morton_builds_without_locks_or_flatten_and_beats_local() {
    morton_sort_build_beats_local(2048, 8);
}

#[test]
#[ignore = "paper-scale; run with --ignored"]
fn morton_builds_without_locks_or_flatten_and_beats_local_full() {
    morton_sort_build_beats_local(8192, 16);
}

#[test]
fn page_faults_only_on_svm_platforms() {
    let hw = run(&platform::origin2000(4), Algorithm::Local, 2048, 4);
    let faults: u64 = hw
        .procs_records
        .iter()
        .map(|r| r.final_stats.page_faults)
        .sum();
    assert_eq!(faults, 0, "page faults on a hardware-coherent platform");

    let svm = run(&platform::typhoon0_hlrc(4), Algorithm::Local, 2048, 4);
    let faults: u64 = svm
        .procs_records
        .iter()
        .map(|r| r.final_stats.page_faults)
        .sum();
    assert!(faults > 0, "no page faults on an SVM platform");
}

#[test]
fn remote_misses_only_on_distributed_eager_platforms() {
    let remote = |cost: &bh_repro::ssmp::CostModel| -> u64 {
        let stats = run(cost, Algorithm::Local, 2048, 4);
        stats
            .procs_records
            .iter()
            .map(|r| r.final_stats.remote_misses)
            .sum()
    };
    assert!(
        remote(&platform::origin2000(4)) > 0,
        "no remote misses on the Origin"
    );
    // The bus's memory is centralized, and HLRC charges what is not a hit
    // as a local map-in or a page fault.
    for cost in [
        platform::challenge(4),
        platform::paragon_hlrc(4),
        platform::typhoon0_hlrc(4),
    ] {
        assert_eq!(remote(&cost), 0, "remote misses on {}", cost.name);
    }
}

fn simulated_seconds_plausible(n1: usize, n2: usize) {
    // Table 1 sanity: sequential step time in seconds grows with n and the
    // slower machines take longer per cycle.
    let origin = platform::origin2000(1);
    let paragon = platform::paragon_hlrc(1);
    let t = |cost: &bh_repro::ssmp::CostModel, n: usize| {
        let machine = Machine::new(cost.clone(), 1);
        let mut cfg = SimConfig::new(Algorithm::Partree);
        cfg.warmup_steps = 1;
        cfg.measured_steps = 2;
        let stats = run_simulation(&machine, &cfg, &Model::Plummer.generate(n, 8));
        cost.cycles_to_seconds(stats.total_time())
    };
    let o1 = t(&origin, n1);
    let o2 = t(&origin, n2);
    assert!(
        o2 > 3.0 * o1,
        "superlinear-in-n growth expected: {o1} vs {o2}"
    );
    let p1 = t(&paragon, n1);
    assert!(
        p1 > 3.0 * o1,
        "Paragon ({p1}s) should be much slower than Origin ({o1}s)"
    );
}

#[test]
fn simulated_seconds_are_plausible() {
    simulated_seconds_plausible(1024, 4096);
}

#[test]
#[ignore = "paper-scale; run with --ignored"]
fn simulated_seconds_are_plausible_full() {
    simulated_seconds_plausible(2048, 8192);
}
