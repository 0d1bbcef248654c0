//! Contract tests for attributed telemetry.
//!
//! Two properties make the per-region breakdown trustworthy:
//!
//! 1. **Tiling.** Every counter the simulator attributes is incremented at
//!    the same program point as its aggregate: summing any attributed
//!    counter over all regions and pipeline stages must reproduce the
//!    aggregate [`CtxStats`] field *exactly* — for every algorithm, on both
//!    a hardware-coherent and a software-SVM platform, at one and several
//!    processors.
//! 2. **Zero perturbation.** Attribution never touches the virtual clock,
//!    so a run with attribution enabled must report bitwise-identical
//!    simulated cycle and counter totals to the same run with it disabled.
//!    (Checked at one processor, where simulated runs are fully
//!    deterministic; multi-processor runs feed real thread interleavings
//!    into the contention model, so their timings legitimately jitter.)

use bh_repro::bh_core::prelude::*;
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

fn run_attributed(cost: &CostModel, alg: Algorithm, procs: usize) -> (RunStats, AttrTable) {
    let bodies = Model::Plummer.generate(192, 1998);
    let machine = Machine::new(cost.clone(), procs).with_attribution();
    let stats = run_simulation(&machine, &tiny_cfg(alg), &bodies);
    stats.assert_valid();
    let mut sum = AttrTable::new();
    for t in machine.attribution().expect("attribution enabled") {
        sum.accumulate(&t);
    }
    (stats, sum)
}

/// Tiling: per-(region x stage) counters sum exactly to the aggregates, for
/// all six algorithms on both platform families, serial and parallel.
#[test]
fn attribution_tiles_aggregates_for_every_algorithm() {
    for cost in [platform::origin2000(4), platform::typhoon0_hlrc(4)] {
        for alg in ALGS {
            for procs in [1, 4] {
                let (stats, sum) = run_attributed(&cost, alg, procs);
                let mut agg = CtxStats::default();
                for r in &stats.procs_records {
                    agg.accumulate(&r.final_stats);
                }
                let total = sum.total();
                let label = format!("{}/{}/{procs}p", cost.name, alg.name());
                assert_eq!(total.local_misses, agg.local_misses, "{label} local");
                assert_eq!(total.remote_misses, agg.remote_misses, "{label} remote");
                assert_eq!(total.page_faults, agg.page_faults, "{label} faults");
                assert_eq!(total.lock_acquires, agg.lock_acquires, "{label} locks");
                assert_eq!(total.lock_wait, agg.lock_wait, "{label} lock wait");
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

/// Disabled telemetry is free: with attribution off (the default), the
/// simulated clocks and counters are bitwise identical to an attributed
/// run of the same single-processor configuration.
#[test]
fn disabled_attribution_changes_nothing() {
    let bodies = Model::Plummer.generate(192, 1998);
    for cost in [platform::origin2000(1), platform::typhoon0_hlrc(1)] {
        for alg in ALGS {
            let plain = Machine::new(cost.clone(), 1);
            let with = Machine::new(cost.clone(), 1).with_attribution();
            let a = run_simulation(&plain, &tiny_cfg(alg), &bodies);
            let b = run_simulation(&with, &tiny_cfg(alg), &bodies);
            let label = format!("{}/{}", cost.name, alg.name());
            assert_eq!(a.total_time(), b.total_time(), "{label} total cycles");
            assert_eq!(a.tree_time(), b.tree_time(), "{label} tree cycles");
            for (ra, rb) in a.procs_records.iter().zip(&b.procs_records) {
                assert_eq!(ra.final_stats, rb.final_stats, "{label} final stats");
                assert_eq!(ra.steps, rb.steps, "{label} step records");
            }
        }
    }
}
