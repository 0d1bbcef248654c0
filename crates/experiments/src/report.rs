//! The `repro report` scaling/analysis subsystem.
//!
//! The report is one [`Grid`] ([`grid`]): two platforms, one size and a
//! processor sweep, read from the run memo ([`crate::runner`]) like every
//! figure, so each configuration is simulated once and every product below
//! describes the same runs. It distills them into three analysis products
//! the paper's tables only hint at:
//!
//! 1. **Communication by data structure** (Table-4-style): the simulator
//!    charges every miss, fault, invalidation and lock wait to the shared
//!    [`Region`] it hit and the pipeline stage that incurred it, and the
//!    run memo keeps that record of each run; this table reads the runs at
//!    the sweep's largest processor count. The per-region rows *tile* each
//!    run's totals — `repro check-json` re-checks it from the emitted
//!    document ([`crate::records::check_comm_tiling`]).
//! 2. **Speedup/efficiency curves**: per-algorithm speedups over the
//!    processor sweep on each platform, with parallel efficiency
//!    (speedup / processors).
//! 3. **Crossover analysis**: which algorithm wins at each processor count,
//!    and where the winner changes — e.g. the point where SPACE's lock-free
//!    build overtakes the lock-based algorithms as contention grows.
//!
//! Plus a per-step time-series summary (**4**): the measured steps of each
//! run at the largest processor count — the curves' own runs — with their
//! tree/total times, lock waits and imbalance summarized as nearest-rank
//! p50/p99, so a single slow step surfaces in the p99 column instead of
//! vanishing into a run-level mean.
//!
//! Everything is emitted twice: human-readable [`Table`]s and a flat JSON
//! array (`REPORT_<scale>.json`) of typed records declared in
//! [`crate::records::RECORD_TYPES`], which `repro check-json` validates
//! against.

use crate::experiments::{Grid, Render, Spec};
use crate::records::emit;
use crate::runner::{run_cached, ExperimentScale, PlatformRun};
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

/// The runs the report reads: one hardware-coherent CC-NUMA machine and one
/// software shared-virtual-memory machine — the two ends of the paper's
/// communication-cost spectrum — at one size, over a processor sweep.
pub fn grid(scale: ExperimentScale) -> Grid {
    let platforms = [platform::origin2000, platform::typhoon0_hlrc];
    Grid::new(scale, &platforms, &[16384], &[1, 2, 4, 8, 16])
}

/// Generate the report from the runs of `grid`, which has one size;
/// `scale` names the records. The communication breakdown and step series
/// read the sweep's largest processor count; the scaling curves cover the
/// whole sweep.
pub fn scaling_report(scale: ExperimentScale, grid: &Grid) -> ScalingReport {
    let n = *grid.sizes.first().expect("a grid has a size");
    let procs = *grid.procs.last().expect("a grid has processor counts");
    let mut records: Vec<String> = Vec::new();
    let mut tables = vec![comm_breakdown(scale, grid, n, procs, &mut records)];
    tables.extend(grid.platforms.iter().map(|cost| curve(grid, cost)));
    tables.push(crossover(scale, grid, n, &mut records));
    tables.push(step_percentiles(scale, grid, n, procs, &mut records));
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
    grid: &Grid,
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
    for cost in &grid.platforms {
        for &alg in grid.algs {
            let sum = run_cached(cost, alg, n, procs).comm;
            let total = sum.total();
            comm_rows(&mut table, &cost.name, alg, sum);
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

/// Product 2: one platform's speedup (and efficiency) curve over the
/// processor sweep.
fn curve(grid: &Grid, cost: &CostModel) -> Table {
    Spec {
        grid: Grid {
            platforms: vec![cost.clone()],
            ..grid.clone()
        },
        title: "Speedup (and efficiency) vs processor count on {platform}, {n} particles",
        claims: Vec::new(),
        render: Render::ByProcs(speedup_efficiency),
    }
    .table(&format!("Report: scaling on {}", cost.name))
}

fn speedup_efficiency(_: &CostModel, run: &PlatformRun) -> String {
    let efficiency = run.speedup / run.procs as f64;
    format!("{} ({})", fmt_speedup(run.speedup), fmt_pct(efficiency))
}

/// Product 3: the best algorithm per processor count, derived from the
/// curves' runs, which it also emits as `report_scaling` records.
fn crossover(scale: ExperimentScale, grid: &Grid, n: usize, records: &mut Vec<String>) -> Table {
    let mut crossover = Table::new(
        "Report: crossover",
        &format!("Best algorithm per processor count, {n} particles"),
        &["platform", "procs", "winner", "speedup", "margin", "note"],
    );
    for cost in &grid.platforms {
        let mut prev_winner: Option<Algorithm> = None;
        for &p in &grid.procs {
            let mut by_speedup: Vec<(Algorithm, f64)> = Vec::new();
            for &alg in grid.algs {
                let run = run_cached(cost, alg, n, p);
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
                        format!("{:.4}", run.speedup / p as f64),
                    ],
                ));
            }
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
    }
    crossover
}

/// Product 4: per-step summaries of the curves' runs at `procs`: each
/// run's measured steps, summarized with nearest-rank p50/p99.
fn step_percentiles(
    scale: ExperimentScale,
    grid: &Grid,
    n: usize,
    procs: usize,
    records: &mut Vec<String>,
) -> Table {
    let mut table = Table::new(
        "Report: step series",
        &format!(
            "Per-step time series of the scaling curves' runs, {n} particles, {procs} processors \
             (nearest-rank percentiles over the measured steps)"
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
    );
    for cost in &grid.platforms {
        for &alg in grid.algs {
            let stats = run_cached(cost, alg, n, procs).stats;
            let rows = stats.step_rows(stats.measured());
            let tree = rows.iter().filter(|r| r.phase == Phase::Tree);
            let tree_times: Vec<u64> = tree.clone().map(|r| r.stats.time).collect();
            let imbalances: Vec<f64> = tree.map(|r| r.imbalance).collect();
            let lock_waits: Vec<u64> = rows
                .chunks(Phase::ALL.len())
                .map(|step| step.iter().map(|r| r.stats.lock_wait).sum())
                .collect();
            // The tree stage ends without a barrier, so a step's total is
            // its longest processor, not the sum of phase maxima.
            let totals: Vec<u64> = stats
                .measured()
                .map(|s| {
                    let steps = stats.procs_records.iter().map(|r| r.steps[s].time());
                    steps.max().unwrap_or(0)
                })
                .collect();
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
            let steps = totals.len();
            let mut cells = vec![cost.name.clone(), alg.name().to_string(), steps.to_string()];
            cells.extend(row.iter().map(u64::to_string));
            cells.push(format!("{imb50:.3}"));
            cells.push(format!("{imb99:.3}"));
            table.row(cells);
            let mut nums = [n, procs, steps].map(|v| v.to_string()).to_vec();
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

    fn tiny_grid() -> Grid {
        Grid {
            sizes: vec![128],
            procs: vec![1, 2],
            ..grid(ExperimentScale::Tiny)
        }
    }

    fn tiny_report() -> ScalingReport {
        scaling_report(ExperimentScale::Tiny, &tiny_grid())
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
    fn the_step_series_reads_the_curves_runs() {
        let grid = tiny_grid();
        let doc = Json::parse(&scaling_report(ExperimentScale::Tiny, &grid).json).unwrap();
        let field = |r: &Json, key: &str| r.get(key).cloned().unwrap();
        let steps: Vec<&Json> = doc
            .as_array()
            .unwrap()
            .iter()
            .filter(|r| field(r, "experiment").as_str() == Some("report_steps"))
            .collect();
        assert_eq!(steps.len(), grid.platforms.len() * grid.algs.len());
        for r in steps {
            // The run's own measured steps.
            assert_eq!(field(r, "steps").as_f64(), Some(2.0));
            let platform = field(r, "platform");
            let cost = grid
                .platforms
                .iter()
                .find(|c| platform.as_str() == Some(&c.name));
            let alg = Algorithm::parse(field(r, "algorithm").as_str().unwrap()).unwrap();
            let stats = run_cached(cost.unwrap(), alg, 128, 2).stats;
            let tree: Vec<u64> = stats
                .step_rows(stats.measured())
                .iter()
                .filter(|row| row.phase == Phase::Tree)
                .map(|row| row.stats.time)
                .collect();
            assert_eq!(tree.len(), 2);
            assert_eq!(
                field(r, "tree_p50_cycles").as_f64(),
                Some(percentile_u64(&tree, 50.0) as f64),
                "{} {alg}",
                cost.unwrap().name
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
