//! Accounting invariants of [`ProcRecord`]: the per-step, per-phase
//! [`CtxStats`] deltas every processor records must tile the run — every
//! counter a processor accumulates lands in exactly one phase of one step —
//! and every [`RunStats`] aggregate must be a fold over the measured steps
//! alone, although warm-up steps are recorded too.

use bh_repro::bh_core::app::{ProcRecord, StepRecord};
use bh_repro::bh_core::prelude::*;

fn run(alg: Algorithm, warmup: usize, measured: usize) -> RunStats {
    let env = NativeEnv::new(4);
    let bodies = Model::Plummer.generate(128, 1998);
    let mut cfg = SimConfig::new(alg);
    cfg.k = 4;
    cfg.warmup_steps = warmup;
    cfg.measured_steps = measured;
    let stats = run_simulation(&env, &cfg, &bodies);
    stats.assert_valid();
    stats
}

#[test]
fn phase_deltas_tile_the_final_counters() {
    // With zero warmup steps every environment operation happens inside
    // one of the four phase sections, so the per-phase deltas must sum
    // exactly to the context's final counters on every processor.
    let stats = run(Algorithm::Orig, 0, 2);
    for rec in &stats.procs_records {
        assert_eq!(rec.steps.len(), 2);
        let phases = rec.phases(0..2);
        let sum = |f: fn(&CtxStats) -> u64| phases.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.lock_acquires), rec.final_stats.lock_acquires);
        assert_eq!(sum(|s| s.lock_wait), rec.final_stats.lock_wait);
        assert_eq!(sum(|s| s.barrier_wait), rec.final_stats.barrier_wait);
        assert_eq!(sum(|s| s.remote_misses), rec.final_stats.remote_misses);
        assert_eq!(sum(|s| s.local_misses), rec.final_stats.local_misses);
        assert_eq!(sum(|s| s.page_faults), rec.final_stats.page_faults);
        // A step's time is its phase times summed, and each step starts
        // no earlier than the previous one ended.
        for w in rec.steps.windows(2) {
            assert!(w[1].start >= w[0].start + w[0].time());
        }
    }
    // ORIG locks during the tree build; none of it may leak into the
    // embarrassingly parallel update phase.
    let phases = stats.phases_over(0..2);
    assert!(
        phases[Phase::Tree.index()].lock_acquires > 0,
        "ORIG must lock while building"
    );
    assert_eq!(
        phases[Phase::Update.index()].lock_acquires,
        0,
        "update phase takes no locks"
    );
}

#[test]
fn warmup_steps_are_excluded_from_measured_totals() {
    let stats = run(Algorithm::Orig, 1, 2);
    assert_eq!(stats.measured(), 1..3);
    for rec in &stats.procs_records {
        assert_eq!(rec.steps.len(), 3, "warm-up steps are recorded too");
        let warmup: u64 = rec.phases(0..1).iter().map(|s| s.lock_acquires).sum();
        assert!(warmup > 0, "P{}: ORIG locks in its warm-up step", rec.proc);
    }
    // Every aggregate equals a fold over steps 1 and 2 alone.
    fn measured(r: &ProcRecord) -> &[StepRecord] {
        &r.steps[1..3]
    }
    fn phases(r: &ProcRecord) -> [CtxStats; 4] {
        let mut sum = [CtxStats::default(); 4];
        for s in measured(r) {
            for (acc, d) in sum.iter_mut().zip(&s.phases) {
                acc.accumulate(d);
            }
        }
        sum
    }
    let recs = &stats.procs_records;
    let max = |f: &dyn Fn(&ProcRecord) -> u64| recs.iter().map(f).max().unwrap();
    let sum = |f: &dyn Fn(&ProcRecord) -> u64| recs.iter().map(f).sum::<u64>();
    assert_eq!(
        stats.total_time(),
        max(&|r| measured(r).iter().map(|s| s.time()).sum())
    );
    for phase in Phase::ALL {
        let i = phase.index();
        let agg = stats.phase_stats(phase);
        assert_eq!(agg.time, max(&|r| phases(r)[i].time), "{phase} time");
        for (name, field) in [
            (
                "lock_acquires",
                (|s| s.lock_acquires) as fn(&CtxStats) -> u64,
            ),
            ("lock_wait", |s| s.lock_wait),
            ("barrier_wait", |s| s.barrier_wait),
        ] {
            assert_eq!(
                field(&agg),
                sum(&|r| field(&phases(r)[i])),
                "{phase} {name}"
            );
        }
    }
    let tree = Phase::Tree.index();
    let locks: Vec<u64> = recs.iter().map(|r| phases(r)[tree].lock_acquires).collect();
    assert_eq!(stats.tree_locks_per_proc(), locks);
    assert_eq!(
        stats.barrier_wait_total(),
        sum(&|r| phases(r).iter().map(|s| s.barrier_wait).sum())
    );
    assert_eq!(
        stats.flatten_cycles(),
        max(&|r| measured(r).iter().map(|s| s.extra.flatten).sum())
    );
    assert_eq!(
        stats.force_interactions(),
        sum(&|r| measured(r).iter().map(|s| s.extra.force.interactions).sum())
    );
    assert_eq!(stats.steps_recorded(), 2);
}

#[test]
fn morton_takes_no_locks_and_no_flatten_but_sorts() {
    // MORTON emits the flat tree from the sorted keys: no insertion locks
    // and no separate flatten pass.
    let stats = run(Algorithm::Morton, 0, 2);
    let locks: u64 = stats.tree_locks_per_proc().iter().sum();
    assert_eq!(locks, 0, "MORTON took tree locks");
    assert_eq!(stats.flatten_cycles(), 0, "MORTON charged a flatten pass");
    assert!(stats.sort_cycles() > 0, "MORTON charged no sort time");
}

#[test]
fn step_rows_decompose_the_phase_aggregates() {
    let stats = run(Algorithm::Orig, 1, 3);
    let rows = stats.step_rows(0..4);
    // 4 steps (1 warm-up + 3 measured) x 4 phases, in order.
    let order: Vec<(usize, Phase)> = rows.iter().map(|r| (r.step, r.phase)).collect();
    let want: Vec<(usize, Phase)> = (0..4).flat_map(|s| Phase::ALL.map(|p| (s, p))).collect();
    assert_eq!(order, want);
    let agg = stats.phases_over(0..4);
    for phase in Phase::ALL {
        let of_phase: Vec<&StepPhaseRow> = rows.iter().filter(|r| r.phase == phase).collect();
        // Summing the rows over steps reproduces the run aggregates.
        let a = &agg[phase.index()];
        for (get, want) in [
            (|r: &&StepPhaseRow| r.stats.lock_acquires) as fn(&&StepPhaseRow) -> u64,
            |r| r.stats.lock_wait,
            |r| r.stats.remote_misses,
        ]
        .into_iter()
        .zip([a.lock_acquires, a.lock_wait, a.remote_misses])
        {
            assert_eq!(
                of_phase.iter().map(get).sum::<u64>(),
                want,
                "rows do not tile the aggregate for {phase}"
            );
        }
        assert!(of_phase.iter().all(|r| r.imbalance >= 1.0 - 1e-9));
    }
}

#[test]
fn force_list_metrics_tile_and_are_processor_count_independent() {
    // The batched force kernel reports (groups, list entries, interactions)
    // through StageExtra into the per-processor records. Interactions are
    // counted per *applied* body, so their total is an exact function of
    // the body set — independent of processor count and group size — while
    // group/entry totals may grow with processors (a window split across a
    // zone boundary is traversed by both owners).
    let bodies = Model::Plummer.generate(256, 1998);
    let mut totals = Vec::new();
    for procs in [1usize, 4] {
        for gs in [1usize, 5, 16] {
            let env = NativeEnv::new(procs);
            let mut cfg = SimConfig::new(Algorithm::Morton);
            cfg.k = 4;
            cfg.warmup_steps = 0;
            cfg.measured_steps = 2;
            cfg.group_size = gs;
            let stats = run_simulation(&env, &cfg, &bodies);
            stats.assert_valid();
            assert!(stats.force_groups() > 0, "{procs}p gs={gs}: no groups");
            assert!(
                stats.force_list_entries() >= stats.force_groups(),
                "{procs}p gs={gs}: a traversal emits at least one entry"
            );
            // Derived metrics are exact ratios of the raw counters.
            let len = stats.force_list_entries() as f64 / stats.force_groups() as f64;
            assert!((stats.force_list_len() - len).abs() < 1e-12);
            let reuse = stats.force_interactions() as f64 / stats.force_list_entries() as f64;
            assert!((stats.force_list_reuse() - reuse).abs() < 1e-12);
            totals.push(stats.force_interactions());
        }
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "interaction totals must not depend on processors or group size: {totals:?}"
    );
}

#[test]
fn phase_stats_aggregates_counters_and_critical_path() {
    let stats = run(Algorithm::Local, 0, 1);
    let tree = stats.phase_stats(Phase::Tree);
    let per_proc = |r: &ProcRecord| r.phases(stats.measured())[Phase::Tree.index()];
    let per_proc_locks: u64 = stats
        .procs_records
        .iter()
        .map(|r| per_proc(r).lock_acquires)
        .sum();
    assert_eq!(tree.lock_acquires, per_proc_locks);
    let max_time = stats
        .procs_records
        .iter()
        .map(|r| per_proc(r).time)
        .max()
        .unwrap();
    assert_eq!(tree.time, max_time);
    assert_eq!(stats.tree_time(), max_time);
}
