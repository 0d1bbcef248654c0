//! The paper's claims at tiny scale against their recordings, the two
//! model properties no figure states, and Figure 13's tree-bound result on
//! Typhoon0-HLRC at n = 4,096, P = 8 (its bounds are also Figure 13 claims).
//!
//! Each claim is declared once, beside its figure's grid
//! (`bh_experiments::claims`), and reads that grid's memo runs; `repro`
//! gates them at `tiny` and `small` in the release build, and the test
//! below gates them at `tiny` in the build under test.

use bh_repro::bh_core::prelude::*;
use bh_repro::bh_experiments::experiments::{matrix, prewarm_jobs};
use bh_repro::bh_experiments::runner::{prewarm, ExperimentScale};
use bh_repro::ssmp::{platform, CostModel, Machine};

/// `field` of every processor's final counters, summed, after a LOCAL run
/// of 2,048 bodies on four processors of `cost`.
fn local_total(cost: CostModel, field: fn(&CtxStats) -> u64) -> u64 {
    let machine = Machine::new(cost, 4);
    let mut cfg = SimConfig::new(Algorithm::Local);
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    let stats = run_simulation(&machine, &cfg, &Model::Plummer.generate(2048, 1998));
    stats.assert_valid();
    stats
        .procs_records
        .iter()
        .map(|r| field(&r.final_stats))
        .sum()
}

#[test]
fn every_claim_reads_its_recording_at_tiny() {
    let scale = ExperimentScale::Tiny;
    prewarm(prewarm_jobs(matrix(), scale, None), 2);
    let mut differing = Vec::new();
    for e in matrix() {
        let spec = (e.spec.expect("a matrix entry has a grid"))(scale);
        let checked = spec
            .check(scale)
            .into_iter()
            .filter(|(_, differs)| *differs);
        differing.extend(checked.map(|(line, _)| format!("{}: {line}", e.id)));
    }
    assert!(
        differing.is_empty(),
        "claims differ from their tiny recording:\n{}",
        differing.join("\n")
    );
}

#[test]
fn page_faults_only_on_svm_platforms() {
    let faults = |cost| local_total(cost, |s| s.page_faults);
    assert_eq!(
        faults(platform::origin2000(4)),
        0,
        "faults on hardware coherence"
    );
    assert!(
        faults(platform::typhoon0_hlrc(4)) > 0,
        "no page faults on an SVM platform"
    );
}

#[test]
fn remote_misses_only_on_distributed_eager_platforms() {
    let remote = |cost| local_total(cost, |s| s.remote_misses);
    assert!(
        remote(platform::origin2000(4)) > 0,
        "no remote misses on the Origin"
    );
    // The bus's memory is centralized, and HLRC charges what is not a hit
    // as a local map-in or a page fault.
    for cost in [
        platform::challenge(4),
        platform::paragon_hlrc(4),
        platform::typhoon0_hlrc(4),
    ] {
        let name = cost.name.clone();
        assert_eq!(remote(cost), 0, "remote misses on {name}");
    }
}

#[test]
fn svm_makes_lock_heavy_algorithms_tree_bound() {
    // The paper's central result: on page-based SVM the tree build devours
    // the step for the lock-per-body algorithms while SPACE keeps it small.
    let (n, procs) = (4096, 8);
    let cost = platform::typhoon0_hlrc(procs);
    let run = |alg| {
        let machine = Machine::new(cost.clone(), procs);
        let mut cfg = SimConfig::new(alg);
        cfg.warmup_steps = 1;
        cfg.measured_steps = 1;
        let stats = run_simulation(&machine, &cfg, &Model::Plummer.generate(n, 1998));
        stats.assert_valid();
        stats
    };
    let local = run(Algorithm::Local);
    let space = run(Algorithm::Space);
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
