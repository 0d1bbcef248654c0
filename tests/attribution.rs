//! Contract tests for attributed telemetry.
//!
//! Every simulated miss, fault, invalidation and lock wait is charged once,
//! to a (region × pipeline stage) cell, and the aggregate [`CtxStats`]
//! counters are the table's totals. What makes the breakdown trustworthy:
//!
//! 1. **Tiling.** The per-processor tables [`Machine::attribution`] hands
//!    out after a run, summed over all regions and stages, reproduce the
//!    run's final [`CtxStats`] *exactly* — for every algorithm, on both a
//!    hardware-coherent and a software-SVM platform, at one and several
//!    processors, and per job on a reused engine.
//! 2. **Resolution.** Named regions absorb the traffic; the catch-all
//!    `other` row stays empty for every algorithm.
//! 3. **Locks by id.** [`Machine::lock_histogram`] counts the same acquires
//!    and wait by raw lock id: summed, it is the run's all-steps lock
//!    totals, and a lock-free builder leaves it empty.
//!
//! Attribution never touches the virtual clock: `tests/sim_cycles_golden.rs`
//! pins the P = 1 cycles of all five platforms and six algorithms.

use bh_repro::bh_core::prelude::*;
use bh_repro::bh_core::trace::LockStat;
use bh_repro::ssmp::{platform, AttrTable, CostModel, Machine};

const ALGS: [Algorithm; 6] = [
    Algorithm::Orig,
    Algorithm::Local,
    Algorithm::Update,
    Algorithm::Partree,
    Algorithm::Space,
    Algorithm::Morton,
];

fn tiny_cfg(alg: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::new(alg);
    cfg.k = 4;
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    cfg
}

/// A run of `n` bodies on a fresh machine: its statistics, its summed
/// attribution table and its lock histogram.
fn run_on(
    cost: &CostModel,
    alg: Algorithm,
    n: usize,
    procs: usize,
) -> (RunStats, AttrTable, Vec<LockStat>) {
    let bodies = Model::Plummer.generate(n, 1998);
    let machine = Machine::new(cost.clone(), procs);
    let stats = run_simulation(&machine, &tiny_cfg(alg), &bodies);
    stats.assert_valid();
    let sum = machine.attribution().iter().sum();
    (stats, sum, machine.lock_histogram())
}

fn run_attributed(cost: &CostModel, alg: Algorithm, procs: usize) -> (RunStats, AttrTable) {
    let (stats, sum, _) = run_on(cost, alg, 192, procs);
    (stats, sum)
}

/// Assert that `sum`'s totals are `stats`' aggregate counters.
fn assert_tiles(stats: &RunStats, sum: &AttrTable, label: &str) {
    let mut agg = CtxStats::default();
    for r in &stats.procs_records {
        agg.accumulate(&r.final_stats);
    }
    let total = sum.total();
    assert_eq!(total.local_misses, agg.local_misses, "{label} local");
    assert_eq!(total.remote_misses, agg.remote_misses, "{label} remote");
    assert_eq!(total.page_faults, agg.page_faults, "{label} faults");
    assert_eq!(total.lock_acquires, agg.lock_acquires, "{label} locks");
    assert_eq!(total.lock_wait, agg.lock_wait, "{label} lock wait");
}

/// Tiling: per-(region x stage) counters sum exactly to the aggregates, for
/// all six algorithms on both platform families, serial and parallel.
#[test]
fn attribution_tiles_aggregates_for_every_algorithm() {
    for cost in [platform::origin2000(4), platform::typhoon0_hlrc(4)] {
        for alg in ALGS {
            for procs in [1, 4] {
                let (stats, sum) = run_attributed(&cost, alg, procs);
                let label = format!("{}/{}/{procs}p", cost.name, alg.name());
                assert_tiles(&stats, &sum, &label);
            }
        }
    }
}

/// The breakdown is not a blob: tagged regions absorb the traffic, and the
/// untagged catch-all stays a sliver. SPACE attributes zero lock traffic.
#[test]
fn attribution_resolves_regions() {
    let cost = platform::origin2000(4);

    let (_, orig) = run_attributed(&cost, Algorithm::Orig, 4);
    let tree_cells = orig.region_total(Region::TreeCells);
    assert!(
        tree_cells.lock_acquires > 0,
        "ORIG locks tree cells on every insert"
    );
    let tagged_remote: u64 = Region::ALL
        .iter()
        .filter(|r| **r != Region::Other)
        .map(|r| orig.region_total(*r).remote_misses)
        .sum();
    let other_remote = orig.region_total(Region::Other).remote_misses;
    assert!(
        tagged_remote > other_remote,
        "tagged regions must absorb most remote traffic \
         (tagged {tagged_remote} vs untagged {other_remote})"
    );

    let (_, space) = run_attributed(&cost, Algorithm::Space, 4);
    assert_eq!(space.total().lock_acquires, 0, "SPACE is lock-free");

    let (_, morton) = run_attributed(&cost, Algorithm::Morton, 4);
    assert_eq!(morton.total().lock_acquires, 0, "MORTON is lock-free");
    let sort = morton.region_total(Region::SortScratch);
    assert!(
        sort.local_misses + sort.remote_misses > 0,
        "MORTON's sort workspace traffic must land in its own region"
    );
    // The batched force kernel emits interaction lists into tagged
    // per-processor scratch; that traffic must resolve to its own region
    // (for both builder families — MORTON and the lock-based ORIG).
    for (name, run) in [("ORIG", &orig), ("MORTON", &morton)] {
        let fl = run.region_total(Region::ForceList);
        assert!(
            fl.local_misses + fl.remote_misses > 0,
            "{name}: force-list emission traffic must land in its own region"
        );
    }
}

/// Every shared allocation names its region, so on both platform
/// families, serial and parallel, no miss, fault, invalidation or lock of
/// any algorithm lands in the catch-all `other` row.
#[test]
fn every_algorithm_leaves_the_other_row_empty() {
    for cost in [platform::origin2000(4), platform::typhoon0_hlrc(4)] {
        for alg in ALGS {
            for procs in [1, 4] {
                let (_, sum) = run_attributed(&cost, alg, procs);
                let other = sum.region_total(Region::Other);
                let label = format!("{}/{}/{procs}p", cost.name, alg.name());
                assert!(other.is_zero(), "{label}: {other:?}");
            }
        }
    }
}

/// A parked engine starts each job on fresh contexts: after every job on
/// one reused `SimEngine<Machine>`, the tables and the lock histogram are
/// that job's alone, not the accumulation of the jobs before it. The
/// same-shape LOCAL job resets
/// and reuses the allocations; the UPDATE job after it also tags its new
/// builder's arrays mid-life. At one processor a job takes as many locks
/// as it does on a fresh machine, whatever protocol state the engine's
/// earlier jobs left behind.
#[test]
fn a_reused_engine_attributes_each_job_on_its_own() {
    let bodies = Model::Plummer.generate(192, 1998);
    for cost in [platform::origin2000(1), platform::typhoon0_hlrc(1)] {
        let mut engine = SimEngine::new(Machine::new(cost.clone(), 1));
        for (job, alg) in [Algorithm::Local, Algorithm::Local, Algorithm::Update]
            .into_iter()
            .enumerate()
        {
            let stats = engine.run(&tiny_cfg(alg), &bodies);
            stats.assert_valid();
            let sum: AttrTable = engine.env().attribution().iter().sum();
            let label = format!("{}/{}/job {job}", cost.name, alg.name());
            assert_tiles(&stats, &sum, &label);
            let (_, fresh, fresh_locks) = run_on(&cost, alg, 192, 1);
            assert!(fresh.total().lock_acquires > 0, "{label}: no locks");
            assert_eq!(
                sum.total().lock_acquires,
                fresh.total().lock_acquires,
                "{label}: locks of earlier jobs carried over"
            );
            // The histogram is the job's own too: a fresh machine's ids
            // and acquires, and the job's lock wait. The waits themselves
            // match a fresh machine's only where a lock's wait does not
            // read its previous holder's release clock: on a reused
            // software-SVM machine that clock is an earlier job's.
            let locks = engine.env().lock_histogram();
            let wait: u64 = locks.iter().map(|l| l.wait_total).sum();
            assert_eq!(wait, sum.total().lock_wait, "{label}: lock wait");
            let by_id = |locks: &[LockStat]| {
                let mut ids: Vec<_> = locks.iter().map(|l| (l.lock, l.acquires)).collect();
                ids.sort_unstable();
                ids
            };
            assert_eq!(
                by_id(&locks),
                by_id(&fresh_locks),
                "{label}: lock ids differ from a fresh machine's"
            );
            if !cost.protocol.software_sync() {
                assert_eq!(locks, fresh_locks, "{label}: lock histogram");
            }
        }
    }
}

/// Locks by id: on both platform families, serial and parallel, the
/// histogram's acquires and wait sum to the run's lock totals over all
/// steps; the lock-free builders leave it empty.
#[test]
fn the_lock_histogram_sums_to_the_runs_lock_totals() {
    for cost in [platform::origin2000(4), platform::typhoon0_hlrc(4)] {
        for alg in ALGS {
            for procs in [1, 4] {
                let (stats, _, locks) = run_on(&cost, alg, 256, procs);
                let label = format!("{}/{}/{procs}p", cost.name, alg.name());
                if matches!(alg, Algorithm::Space | Algorithm::Morton) {
                    assert!(locks.is_empty(), "{label}: {locks:?}");
                    continue;
                }
                let all = stats.phases_over(0..stats.measured().end);
                let acquires: u64 = all.iter().map(|p| p.lock_acquires).sum();
                let wait: u64 = all.iter().map(|p| p.lock_wait).sum();
                assert!(acquires > 0, "{label}: no locks");
                assert_eq!(
                    locks.iter().map(|l| l.acquires).sum::<u64>(),
                    acquires,
                    "{label} acquires"
                );
                assert_eq!(
                    locks.iter().map(|l| l.wait_total).sum::<u64>(),
                    wait,
                    "{label} wait"
                );
                assert!(
                    locks.windows(2).all(|w| w[0].wait_total >= w[1].wait_total),
                    "{label}: not hottest first"
                );
            }
        }
    }
}
