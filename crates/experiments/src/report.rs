//! The `repro report` scaling/analysis subsystem.
//!
//! Distills the reproduced runs into three analysis products the paper's
//! tables only hint at:
//!
//! 1. **Communication by data structure** (Table-4-style): the simulator
//!    charges every miss, fault, invalidation and lock wait to the shared
//!    [`Region`] it hit and the pipeline stage that incurred it, and the
//!    run memo keeps that record of each run; this table reads the runs
//!    the scaling curves use at the sweep's largest processor count. The
//!    per-region rows *tile* each run's totals — `repro check-json`
//!    re-checks it from the emitted document
//!    ([`crate::records::check_comm_tiling`]).
//! 2. **Speedup/efficiency curves**: per-algorithm speedups over a
//!    processor-count sweep on each simulated platform, with parallel
//!    efficiency (speedup / processors).
//! 3. **Crossover analysis**: which algorithm wins at each processor count,
//!    and where the winner changes — e.g. the point where SPACE's lock-free
//!    build overtakes the lock-based algorithms as contention grows.
//!
//! Plus a per-step time-series summary (**4**): each configuration run
//! `repeats` times, the per-step tree/total times, lock waits and imbalance
//! pooled across repeats, and summarized with nearest-rank p50/p99 — a
//! single slow step surfaces in the p99 column instead of vanishing into a
//! run-level mean.
//!
//! Everything is emitted twice: human-readable [`Table`]s and a flat JSON
//! array (`REPORT_<scale>.json`) of typed records declared in
//! [`crate::records::RECORD_TYPES`], which `repro check-json` validates
//! against.

use crate::records::emit;
use crate::runner::{run_cached, simulate, ExperimentScale};
use crate::tables::{fmt_pct, fmt_speedup, Table};
use bh_core::prelude::*;
use ssmp::{platform, slot_name, AttrTable, CostModel, ATTR_SLOTS};

/// Complete output of `repro report`.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Human-readable tables, in presentation order.
    pub tables: Vec<Table>,
    /// The `REPORT_<scale>.json` document: a flat array of typed records.
    pub json: String,
}

/// The simulated platforms the report covers: one hardware-coherent CC-NUMA
/// machine and one software shared-virtual-memory machine — the two ends of
/// the paper's communication-cost spectrum.
fn platforms(procs: usize) -> [CostModel; 2] {
    [platform::origin2000(procs), platform::typhoon0_hlrc(procs)]
}

/// Generate the full scaling report at a scale's standard size. See
/// [`scaling_report_sized`] for the knobs.
pub fn scaling_report(scale: ExperimentScale) -> ScalingReport {
    let mut sweep: Vec<usize> = [1, 2, 4, 8, 16].iter().map(|&p| scale.procs(p)).collect();
    sweep.dedup();
    scaling_report_sized(scale, scale.size(16384), &sweep, 2)
}

/// Generate the report for an explicit size, processor sweep and repeat
/// count. The communication breakdown and step series run at the sweep's
/// largest processor count; the scaling curves cover the whole sweep.
pub fn scaling_report_sized(
    scale: ExperimentScale,
    n: usize,
    procs_sweep: &[usize],
    repeats: usize,
) -> ScalingReport {
    assert!(!procs_sweep.is_empty(), "empty processor sweep");
    let max_procs = *procs_sweep.iter().max().unwrap();
    let mut records: Vec<String> = Vec::new();
    let mut tables = Vec::new();

    tables.push(comm_breakdown(scale, n, max_procs, &mut records));
    let (curves, crossover) = scaling_curves(scale, n, procs_sweep, &mut records);
    tables.extend(curves);
    tables.push(crossover);
    tables.push(step_percentiles(scale, n, max_procs, repeats, &mut records));

    ScalingReport {
        tables,
        json: format!("[\n{}\n]\n", records.join(",\n")),
    }
}

/// The communication-by-data-structure table, rows added by [`comm_rows`].
pub(crate) fn comm_table(id: &str, title: &str) -> Table {
    Table::new(
        id,
        title,
        &[
            "platform",
            "alg",
            "region",
            "local",
            "remote",
            "remote@tree",
            "faults",
            "inval",
            "locks",
            "lock_wait",
        ],
        "tree cells dominate communication for the lock-based algorithms; \
         SPACE shifts traffic to bodies and the flat tree",
    )
}

/// One [`comm_table`] row per region of `sum` that saw any traffic.
pub(crate) fn comm_rows(table: &mut Table, platform: &str, alg: Algorithm, sum: &AttrTable) {
    for region in Region::ALL {
        let r = sum.region_total(region);
        if !r.is_zero() {
            let tree_remote = sum.cell(region, Phase::Tree.index()).remote_misses;
            table.row(vec![
                platform.to_string(),
                alg.name().to_string(),
                region.name().to_string(),
                r.local_misses.to_string(),
                r.remote_misses.to_string(),
                tree_remote.to_string(),
                r.page_faults.to_string(),
                r.invalidations.to_string(),
                r.lock_acquires.to_string(),
                r.lock_wait.to_string(),
            ]);
        }
    }
}

/// Product 1: per-region communication breakdown of the memo's runs.
fn comm_breakdown(
    scale: ExperimentScale,
    n: usize,
    procs: usize,
    records: &mut Vec<String>,
) -> Table {
    let mut table = comm_table(
        "Report: communication",
        &format!(
            "Simulated communication by data structure, {n} particles, {procs} processors \
             (whole run; tree-stage remote misses split out; zero rows omitted)"
        ),
    );
    for cost in platforms(procs) {
        for alg in Algorithm::ALL {
            let sum = run_cached(&cost, alg, n, procs).comm;
            let total = sum.total();
            comm_rows(&mut table, &cost.name, alg, &sum);
            // JSON keeps the full (region x stage) resolution; zero cells
            // are omitted but their absence cannot break tiling.
            for region in Region::ALL {
                for slot in 0..ATTR_SLOTS {
                    let c = sum.cell(region, slot);
                    if !c.is_zero() {
                        records.push(comm_record(
                            scale,
                            &cost.name,
                            alg,
                            n,
                            procs,
                            region.name(),
                            slot_name(slot),
                            c,
                        ));
                    }
                }
            }
            // One totals record per configuration: check-json re-derives
            // the tiling property from the document alone.
            records.push(comm_record(
                scale, &cost.name, alg, n, procs, "total", "all", &total,
            ));
        }
    }
    table
}

#[allow(clippy::too_many_arguments)]
fn comm_record(
    scale: ExperimentScale,
    platform: &str,
    alg: Algorithm,
    n: usize,
    procs: usize,
    region: &str,
    stage: &str,
    c: &ssmp::AttrCell,
) -> String {
    emit(
        "report_comm",
        &[scale.name(), platform, alg.name(), region, stage],
        &[
            n as u64,
            procs as u64,
            c.local_misses,
            c.remote_misses,
            c.page_faults,
            c.invalidations,
            c.lock_acquires,
            c.lock_wait,
        ]
        .map(|v| v.to_string()),
    )
}

/// Products 2 and 3: per-algorithm speedup/efficiency curves over the
/// processor sweep, and the crossover table derived from them.
fn scaling_curves(
    scale: ExperimentScale,
    n: usize,
    procs_sweep: &[usize],
    records: &mut Vec<String>,
) -> (Vec<Table>, Table) {
    let mut curve_tables = Vec::new();
    let mut crossover = Table::new(
        "Report: crossover",
        &format!("Best algorithm per processor count, {n} particles"),
        &["platform", "procs", "winner", "speedup", "margin", "note"],
        "the winner at 1 processor (least overhead) is overtaken by the \
         contention-robust algorithms as processors grow",
    );
    let makers: [fn(usize) -> CostModel; 2] = [platform::origin2000, platform::typhoon0_hlrc];
    for maker in makers {
        let cost0 = maker(1);
        let mut t = Table::new(
            &format!("Report: scaling on {}", cost0.name),
            &format!(
                "Speedup (and efficiency) vs processor count on {}, {n} particles",
                cost0.name
            ),
            &[],
            "speedups grow with processors but efficiency falls; \
             lock-heavy algorithms fall off first",
        );
        t.headers = vec!["procs".to_string()];
        t.headers
            .extend(Algorithm::ALL.iter().map(|a| a.name().to_string()));
        let mut prev_winner: Option<Algorithm> = None;
        for &p in procs_sweep {
            let cost = maker(p);
            let mut row = vec![p.to_string()];
            let mut by_speedup: Vec<(Algorithm, f64)> = Vec::new();
            for alg in Algorithm::ALL {
                let run = run_cached(&cost, alg, n, p);
                let efficiency = run.speedup / p as f64;
                row.push(format!(
                    "{} ({})",
                    fmt_speedup(run.speedup),
                    fmt_pct(efficiency)
                ));
                by_speedup.push((alg, run.speedup));
                records.push(emit(
                    "report_scaling",
                    &[scale.name(), &cost.name, alg.name()],
                    &[
                        n.to_string(),
                        p.to_string(),
                        run.total_cycles.to_string(),
                        run.tree_cycles.to_string(),
                        run.seq_cycles.to_string(),
                        format!("{:.4}", run.speedup),
                        format!("{efficiency:.4}"),
                    ],
                ));
            }
            t.rows.push(row);
            by_speedup.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let (winner, ws) = by_speedup[0];
            let (runner_up, rs) = by_speedup[1];
            let changed = prev_winner.is_some_and(|w| w != winner);
            let note = match prev_winner {
                Some(w) if changed => format!("{} overtakes {}", winner.name(), w.name()),
                _ => String::new(),
            };
            crossover.row(vec![
                cost.name.clone(),
                p.to_string(),
                winner.name().to_string(),
                fmt_speedup(ws),
                format!("+{:.2} vs {}", ws - rs, runner_up.name()),
                note,
            ]);
            records.push(emit(
                "report_crossover",
                &[scale.name(), &cost.name, winner.name(), runner_up.name()],
                &[
                    n.to_string(),
                    p.to_string(),
                    format!("{ws:.4}"),
                    format!("{:.4}", ws - rs),
                    u8::from(changed).to_string(),
                ],
            ));
            prev_winner = Some(winner);
        }
        curve_tables.push(t);
    }
    (curve_tables, crossover)
}

/// Product 4: repeat-aware per-step summaries. Each configuration runs
/// `repeats` times; per-step values are pooled across repeats before taking
/// nearest-rank p50/p99 (multi-processor simulated timings carry real
/// run-to-run jitter — the interleaving of the host threads feeds the
/// contention model — so repeats widen the sample honestly).
fn step_percentiles(
    scale: ExperimentScale,
    n: usize,
    procs: usize,
    repeats: usize,
    records: &mut Vec<String>,
) -> Table {
    let mut table = Table::new(
        "Report: step series",
        &format!(
            "Per-step time series over {repeats} repeat(s), {n} particles, {procs} processors \
             (nearest-rank percentiles over all measured steps of all repeats)"
        ),
        &[
            "platform",
            "alg",
            "steps",
            "tree_p50",
            "tree_p99",
            "total_p50",
            "total_p99",
            "lockw_p50",
            "lockw_p99",
            "imbal_p50",
            "imbal_p99",
        ],
        "lock-based algorithms show wider tree-time tails (p99 >> p50) \
         under contention; SPACE stays tight",
    );
    for cost in platforms(procs) {
        for alg in Algorithm::ALL {
            let mut tree_times: Vec<u64> = Vec::new();
            let mut totals: Vec<u64> = Vec::new();
            let mut lock_waits: Vec<u64> = Vec::new();
            let mut imbalances: Vec<f64> = Vec::new();
            for _ in 0..repeats.max(1) {
                let (stats, _) = simulate(&(cost.clone(), alg, n, procs));
                let rows = stats.step_rows(stats.measured());
                for step in rows.chunks(Phase::ALL.len()) {
                    let tree = &step[Phase::Tree.index()];
                    tree_times.push(tree.stats.time);
                    imbalances.push(tree.imbalance);
                    lock_waits.push(step.iter().map(|r| r.stats.lock_wait).sum());
                }
                // The tree stage ends without a barrier, so a step's total
                // is its longest processor, not the sum of phase maxima.
                totals.extend(stats.measured().map(|s| {
                    let steps = stats.procs_records.iter().map(|r| r.steps[s].time());
                    steps.max().unwrap_or(0)
                }));
            }
            let steps = totals.len();
            let row = [
                percentile_u64(&tree_times, 50.0),
                percentile_u64(&tree_times, 99.0),
                percentile_u64(&totals, 50.0),
                percentile_u64(&totals, 99.0),
                percentile_u64(&lock_waits, 50.0),
                percentile_u64(&lock_waits, 99.0),
            ];
            let (imb50, imb99) = (
                percentile_f64(&imbalances, 50.0),
                percentile_f64(&imbalances, 99.0),
            );
            let mut cells = vec![cost.name.clone(), alg.name().to_string(), steps.to_string()];
            cells.extend(row.iter().map(u64::to_string));
            cells.push(format!("{imb50:.3}"));
            cells.push(format!("{imb99:.3}"));
            table.row(cells);
            let mut nums = [n, procs, repeats.max(1), steps]
                .map(|v| v.to_string())
                .to_vec();
            nums.extend(row.iter().map(u64::to_string));
            nums.extend([format!("{imb50:.4}"), format!("{imb99:.4}")]);
            records.push(emit(
                "report_steps",
                &[scale.name(), &cost.name, alg.name()],
                &nums,
            ));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::records::{check_comm_tiling, validate, RECORD_TYPES};

    fn tiny_report() -> ScalingReport {
        scaling_report_sized(ExperimentScale::Tiny, 128, &[1, 2], 2)
    }

    #[test]
    fn report_emits_valid_records_with_no_schema_drift() {
        let report = tiny_report();
        assert!(!report.tables.is_empty());
        let doc = Json::parse(&report.json).expect("report JSON must parse");
        let records = doc.as_array().expect("report is an array");
        assert!(!records.is_empty());
        for r in records {
            validate(r).expect("every emitted record validates");
        }
        // Every report record type appears. (Drift between emitter and
        // validator is unrepresentable: both read `RECORD_TYPES`.)
        for (name, _, _) in RECORD_TYPES.iter().filter(|t| t.0.starts_with("report_")) {
            assert!(
                records
                    .iter()
                    .any(|r| r.get("experiment").and_then(Json::as_str) == Some(name)),
                "report emitted no {name} records"
            );
        }
    }

    #[test]
    fn comm_records_tile_their_totals() {
        let doc = Json::parse(&tiny_report().json).unwrap();
        let records = doc.as_array().unwrap();
        let is_total = |r: &Json| r.get("region").and_then(Json::as_str) == Some("total");
        assert!(records.iter().any(is_total));
        check_comm_tiling(records).expect("comm rows tile their totals");

        // And the check has teeth: drop one region row and it must fail.
        let mut broken = records.to_vec();
        let victim = broken
            .iter()
            .position(|r| {
                r.get("experiment").and_then(Json::as_str) == Some("report_comm")
                    && !is_total(r)
                    && r.get("remote_misses").and_then(Json::as_f64) > Some(0.0)
            })
            .expect("some region saw remote misses");
        broken.remove(victim);
        assert!(check_comm_tiling(&broken)
            .unwrap_err()
            .contains("do not tile the total"));
    }

    #[test]
    fn validator_rejects_malformed_records() {
        let bad = Json::parse(r#"{"experiment": "report_comm", "scale": "tiny"}"#).unwrap();
        assert!(validate(&bad).is_err());
        let unknown = Json::parse(r#"{"experiment": "report_nope"}"#).unwrap();
        assert!(validate(&unknown).unwrap_err().contains("report_nope"));
        let no_exp = Json::parse(r#"{"id": "x"}"#).unwrap();
        assert!(validate(&no_exp).is_err());
    }
}
