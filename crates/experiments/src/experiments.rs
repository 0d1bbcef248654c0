//! The paper's evaluation (§4), declared once.
//!
//! [`EXPERIMENTS`] lists every table and figure `repro` regenerates: its CLI
//! name, the paper's label, and a function of the scale returning a [`Spec`]
//! — the [`Grid`] of simulated runs it reads, its title, what the paper
//! reports, and which renderer walks the grid. The renderer
//! ([`Spec::table`]) and the `--jobs` prewarm ([`prewarm_jobs`]) iterate the
//! same `Grid`, so which runs a figure needs is written down once. Runs are
//! memoized within a process ([`crate::runner`]); figures sharing
//! configurations (e.g. Figures 8 and 9) reuse them.

use crate::records;
use crate::report;
use crate::runner::{
    baseline, distinct, run_cached, seq_time_on_platform, simulated, ExperimentScale, PlatformRun,
    Run, WORKLOAD_SEED,
};
use crate::tables::{fmt_pct, fmt_speedup, Table};
use bh_core::force::MAX_GROUP_SIZE;
use bh_core::prelude::*;
use bh_core::trace::{self, LockStat};
use ssmp::{platform, CostModel};

pub struct Experiment {
    /// The name `repro` accepts.
    pub name: &'static str,
    /// The paper's label, e.g. "Figure 6".
    pub id: &'static str,
    /// `None` for `treebuild`, which reads its six runs without their
    /// baselines and renders a per-phase breakdown, a trace and BENCH
    /// records instead of a table of a grid, and so is not part of `repro
    /// matrix`.
    pub spec: Option<fn(ExperimentScale) -> Spec>,
}

const fn entry(
    name: &'static str,
    id: &'static str,
    spec: Option<fn(ExperimentScale) -> Spec>,
) -> Experiment {
    Experiment { name, id, spec }
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    entry("table1", "Table 1", Some(table1)),
    entry("fig6", "Figure 6", Some(fig6)),
    entry("fig7", "Figure 7", Some(fig7)),
    entry("fig8", "Figure 8", Some(fig8)),
    entry("fig9", "Figure 9", Some(fig9)),
    entry("fig10", "Figure 10", Some(fig10)),
    entry("fig11", "Figure 11", Some(fig11)),
    entry("table2", "Table 2", Some(table2)),
    entry("fig12", "Figure 12", Some(fig12)),
    entry("fig13", "Figure 13", Some(fig13)),
    entry("fig14", "Figure 14", Some(fig14)),
    entry("sc442", "Section 4.4.2", Some(sc442)),
    entry("fig15", "Figure 15", Some(fig15)),
    entry("treebuild", "Treebuild", None),
];

/// The entry `repro <name>` runs.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
}

/// What `repro matrix` runs: the paper's tables and figures, the
/// experiments with a [`Spec`] (every one but `treebuild`).
pub fn matrix() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.spec.is_some())
}

/// The runs that prewarm the memo for `experiments`: every run of every
/// grid, and `treebuild`'s at `group_size` (`None`: the default),
/// deduplicated (figures share many configurations).
pub fn prewarm_jobs<'a>(
    experiments: impl IntoIterator<Item = &'a Experiment>,
    scale: ExperimentScale,
    group_size: Option<usize>,
) -> Vec<Run> {
    distinct(experiments.into_iter().flat_map(|e| match e.spec {
        Some(spec) => spec(scale).grid.runs(),
        None => treebuild_runs(scale, group_size),
    }))
}

/// The simulated runs one experiment reads: every platform x size x
/// processor count x algorithm, each against its platform's sequential
/// baseline at that size. Sizes and processor counts are already scaled,
/// ascending and distinct.
#[derive(Clone)]
pub struct Grid {
    pub platforms: Vec<CostModel>,
    pub sizes: Vec<usize>,
    pub procs: Vec<usize>,
    /// Empty for Table 1, which reads the sequential baselines alone.
    pub algs: &'static [Algorithm],
}

/// The paper's problem sizes; most figures sweep a prefix.
const SIZES: [usize; 6] = [8192, 16384, 32768, 65536, 131072, 524288];

impl Grid {
    /// All six algorithms over the paper's `sizes` and `procs` at `scale`.
    /// Scaling floors sizes and caps processor counts, so the ascending
    /// lists can repeat (Tiny maps 8192..32768 to 512); repeats are dropped.
    pub(crate) fn new(
        scale: ExperimentScale,
        platforms: &[fn(usize) -> CostModel],
        sizes: &[usize],
        procs: &[usize],
    ) -> Grid {
        let mut procs: Vec<usize> = procs.iter().map(|&p| scale.procs(p)).collect();
        procs.dedup();
        let mut sizes: Vec<usize> = sizes.iter().map(|&n| scale.size(n)).collect();
        sizes.dedup();
        let max_procs = procs.iter().copied().max().unwrap_or(1);
        Grid {
            platforms: platforms.iter().map(|make| make(max_procs)).collect(),
            sizes,
            procs,
            algs: &Algorithm::ALL,
        }
    }

    /// Every run the grid reads: per platform and size, the sequential
    /// baseline, then each (processor count, algorithm) run.
    pub fn runs(&self) -> Vec<Run> {
        let mut runs = Vec::new();
        for cost in &self.platforms {
            for &n in &self.sizes {
                runs.push(baseline(cost, n));
                for &p in &self.procs {
                    let run = |&alg| (cost.clone(), alg, n, p, MAX_GROUP_SIZE);
                    runs.extend(self.algs.iter().map(run));
                }
            }
        }
        runs
    }
}

/// One experiment at one scale.
pub struct Spec {
    pub grid: Grid,
    /// `{platform}`, `{n}` and `{p}` stand for the grid's first platform,
    /// size and processor count.
    pub title: &'static str,
    /// What the paper reports, for eyeball comparison.
    pub expectation: &'static str,
    pub render: Render,
}

/// What one run contributes to its table cell.
pub type Cell = fn(&CostModel, &PlatformRun) -> String;

/// Which renderer walks the grid. All but `SeqSeconds` and `LocksPerProc`
/// read one platform; all but `ByProcs` one processor count.
pub enum Render {
    /// A row per size, a column per algorithm.
    BySize(Cell),
    /// `BySize(speedup)`, then a tree-% row at the largest size (Figure 13).
    SpeedupThenTreePct,
    /// A row per processor count at one size, a column per algorithm.
    ByProcs(Cell),
    /// A row per platform, a column per size: sequential seconds (Table 1).
    SeqSeconds,
    /// A row per size; per algorithm a speedup column, then a tree-% column
    /// (Figure 12).
    SpeedupAndTreePct,
    /// A row per platform x algorithm at one size, a column per processor:
    /// tree-phase locks (Figure 15).
    LocksPerProc,
}

fn speedup(_: &CostModel, run: &PlatformRun) -> String {
    fmt_speedup(run.speedup)
}

fn tree_speedup(_: &CostModel, run: &PlatformRun) -> String {
    fmt_speedup(run.tree_speedup)
}

fn tree_pct(_: &CostModel, run: &PlatformRun) -> String {
    fmt_pct(run.stats.tree_fraction())
}

/// Average barrier wait per processor, in seconds.
fn barrier_seconds(cost: &CostModel, run: &PlatformRun) -> String {
    let avg = run.stats.barrier_wait_total() / run.procs as u64;
    format!("{:.3}", cost.cycles_to_seconds(avg))
}

/// A header or body row: `label`, then `cells`.
fn row(label: impl ToString, cells: impl Iterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

impl Spec {
    /// Render the table from the (memoized) runs of the grid.
    pub fn table(&self, id: &str) -> Table {
        let g = &self.grid;
        let (cost, n0, p0) = (&g.platforms[0], g.sizes[0], g.procs[0]);
        let names = || g.algs.iter().map(|a| a.name().to_string());
        // One cell per algorithm of the grid.
        let cells = |n: usize, p: usize, cell: Cell| {
            g.algs
                .iter()
                .map(move |&alg| cell(cost, &run_cached(cost, alg, n, p)))
        };
        let by_size = |cell: Cell| g.sizes.iter().map(move |&n| row(n, cells(n, p0, cell)));
        let (headers, rows): (Vec<String>, Vec<Vec<String>>) = match self.render {
            Render::BySize(cell) => (row("particles", names()), by_size(cell).collect()),
            Render::SpeedupThenTreePct => {
                let n = *g.sizes.last().expect("a grid has sizes");
                let tree = row(format!("tree% @{n}"), cells(n, p0, tree_pct));
                let rows = by_size(speedup).chain([tree]).collect();
                (row("particles", names()), rows)
            }
            Render::ByProcs(cell) => {
                let rows = g.procs.iter().map(|&p| row(p, cells(n0, p, cell)));
                (row("procs", names()), rows.collect())
            }
            Render::SeqSeconds => {
                let seconds = |cost: &CostModel, n: usize| {
                    format!(
                        "{:.2}",
                        cost.cycles_to_seconds(seq_time_on_platform(cost, n).0)
                    )
                };
                let rows = g
                    .platforms
                    .iter()
                    .map(|cost| row(&cost.name, g.sizes.iter().map(|&n| seconds(cost, n))));
                (
                    row("platform", g.sizes.iter().map(|n| n.to_string())),
                    rows.collect(),
                )
            }
            Render::SpeedupAndTreePct => {
                let columns = names()
                    .map(|a| format!("{a} speedup"))
                    .chain(names().map(|a| format!("{a} tree%")));
                let rows = g
                    .sizes
                    .iter()
                    .map(|&n| row(n, cells(n, p0, speedup).chain(cells(n, p0, tree_pct))));
                (row("particles", columns), rows.collect())
            }
            Render::LocksPerProc => {
                let mut rows = Vec::new();
                for cost in &g.platforms {
                    for &alg in g.algs {
                        let locks = run_cached(cost, alg, n0, p0).stats.tree_locks_per_proc();
                        let label = format!("{} {}", cost.name, alg.name());
                        rows.push(row(label, locks.iter().map(|l| l.to_string())));
                    }
                }
                (row("platform/alg", (0..p0).map(|p| format!("P{p}"))), rows)
            }
        };
        let title = self
            .title
            .replace("{platform}", &cost.name)
            .replace("{n}", &n0.to_string())
            .replace("{p}", &p0.to_string());
        Table {
            headers,
            rows,
            ..Table::new(id, &title, &[], self.expectation)
        }
    }
}

fn table1(scale: ExperimentScale) -> Spec {
    let platforms: [fn(usize) -> CostModel; 4] = [
        platform::origin2000,
        platform::challenge,
        platform::typhoon0_hlrc,
        platform::paragon_hlrc,
    ];
    Spec {
        grid: Grid {
            algs: &[],
            ..Grid::new(scale, &platforms, &SIZES, &[1])
        },
        title: "Best sequential time (seconds, 2 steps) per platform",
        expectation: "Origin fastest, Challenge ~2.5x slower, Typhoon-0 and Paragon much slower; time grows ~NlogN",
        render: Render::SeqSeconds,
    }
}

// Figures 6-7: SGI Challenge.

fn fig6(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(scale, &[platform::challenge], &SIZES[..5], &[16]),
        title: "Speedups on SGI Challenge, {p} processors",
        expectation: "all five algorithms between ~12 and ~15 on 16 procs; LOCAL best, ORIG worst by a little",
        render: Render::BySize(speedup),
    }
}

fn fig7(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(scale, &[platform::challenge], &[131072], &[4, 8, 16]),
        title: "Tree-building cost on SGI Challenge, {n} particles (% of total time)",
        expectation: "small for the good algorithms (LOCAL/UPDATE/PARTREE/SPACE), larger for ORIG, growing with processors",
        render: Render::ByProcs(tree_pct),
    }
}

// Figures 8-11, Table 2: SGI Origin 2000.

fn fig8(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(scale, &[platform::origin2000], &SIZES, &[30]),
        title: "Speedups on SGI Origin 2000, {p} processors",
        expectation: "LOCAL/UPDATE/PARTREE close together and best, scaling with data size; SPACE slightly behind; big gap to ORIG",
        render: Render::BySize(speedup),
    }
}

fn fig9(scale: ExperimentScale) -> Spec {
    Spec {
        title: "Tree-building phase speedups on Origin 2000, {p} processors",
        expectation: "same relative ordering as Figure 8 but much lower absolute speedups",
        render: Render::BySize(tree_speedup),
        ..fig8(scale)
    }
}

fn fig10(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(scale, &[platform::origin2000], &[524288], &[16, 24, 30]),
        title: "Speedups on Origin 2000 vs processor count, {n} particles",
        expectation: "LOCAL/UPDATE/PARTREE scale well with processors (LOCAL best), SPACE a little worse, ORIG far behind",
        render: Render::ByProcs(speedup),
    }
}

fn fig11(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(
            scale,
            &[platform::origin2000],
            &[524288],
            &[1, 8, 16, 24, 30],
        ),
        title: "Tree-building cost on Origin 2000, {n} particles (% of total time)",
        expectation: "ORIG's tree-build share grows toward ~60% at 30 procs; the others stay small",
        render: Render::ByProcs(tree_pct),
    }
}

fn table2(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(scale, &[platform::origin2000], &[65536, 524288], &[16]),
        title: "Time (seconds) spent in BARRIER operations on Origin 2000, {p} processors",
        expectation: "ORIG's barrier time ~15x LOCAL's; UPDATE distant second; others small",
        render: Render::BySize(barrier_seconds),
    }
}

// Figure 12: Intel Paragon (HLRC SVM).

fn fig12(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid {
            algs: &[Algorithm::Partree, Algorithm::Space],
            ..Grid::new(scale, &[platform::paragon_hlrc], &SIZES[..4], &[16])
        },
        title: "Paragon (HLRC SVM), {p} processors: speedup and tree-build share",
        expectation: "SPACE much better than PARTREE (only those two are runnable; the lock-heavy algorithms slow down); PARTREE's tree share ~50%, SPACE's <20%",
        render: Render::SpeedupAndTreePct,
    }
}

// Figures 13-14: Typhoon-zero under HLRC.

fn fig13(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(scale, &[platform::typhoon0_hlrc], &SIZES[..4], &[16]),
        title: "Speedups on Typhoon-zero (HLRC SVM), {p} processors",
        expectation: "SPACE vastly outperforms everything; PARTREE second; ORIG/LOCAL/UPDATE deliver slowdowns (<1)",
        render: Render::SpeedupThenTreePct,
    }
}

fn fig14(scale: ExperimentScale) -> Spec {
    Spec {
        title: "Tree-building phase speedups on Typhoon-zero HLRC, {p} processors",
        expectation: "poor: SPACE reaches ~1.5, every other algorithm is a slowdown (<1)",
        render: Render::BySize(tree_speedup),
        ..fig13(scale)
    }
}

// §4.4.2: Typhoon-zero under fine-grained sequential consistency.

fn sc442(scale: ExperimentScale) -> Spec {
    Spec {
        grid: Grid::new(scale, &[platform::typhoon0_sc], &[16384], &[16]),
        title: "Speedups on Typhoon-zero (fine-grain SC), {n} particles, {p} processors",
        expectation: "differences shrink: SPACE best (~7 of 16), LOCAL/UPDATE/PARTREE ~4, ORIG a little worse",
        render: Render::BySize(speedup),
    }
}

// Figure 15: dynamic lock counts per processor.

fn fig15(scale: ExperimentScale) -> Spec {
    let platforms: [fn(usize) -> CostModel; 2] = [platform::typhoon0_hlrc, platform::origin2000];
    Spec {
        grid: Grid::new(scale, &platforms, &[65536], &[16]),
        title: "Locks executed per processor in the tree-building phase (2 steps, {n} particles, {p} processors)",
        expectation: "lock counts fall ORIG ≈ LOCAL ≈ UPDATE (≈1 per body) >> PARTREE >> SPACE (=0)",
        render: Render::LocksPerProc,
    }
}

// --------------------------------------------------------------------------
// Treebuild observability: per-phase breakdown, Chrome trace export,
// lock-contention histogram, and machine-readable BENCH metrics
// --------------------------------------------------------------------------

/// Output of the `treebuild` experiment: a Table-2-style per-phase
/// breakdown, a Chrome/Perfetto trace document covering every run (one
/// process track per algorithm, one thread track per simulated processor),
/// and machine-readable per-algorithm metrics for the `BENCH_<scale>.json`
/// performance trajectory.
#[derive(Debug, Clone)]
pub struct TreebuildReport {
    pub table: Table,
    /// Complete Chrome trace-event JSON document.
    pub trace_json: String,
    /// Complete JSON array document of per-algorithm metric records.
    pub bench_json: String,
}

/// The per-phase table [`phase_row`] fills.
fn phase_table(id: &str, title: &str, expectation: &str) -> Table {
    Table::new(
        id,
        title,
        &[
            "platform",
            "alg",
            "tree",
            "partition",
            "force",
            "update",
            "tree locks",
            "tree lockwait",
            "lock ids",
            "hot lock",
            "barrier wait",
            "remote",
            "faults",
        ],
        expectation,
    )
}

/// `field` summed over the four phases, as a table cell.
fn phase_sum(p: &[CtxStats; 4], field: fn(&CtxStats) -> u64) -> String {
    p.iter().map(field).sum::<u64>().to_string()
}

/// A [`phase_table`] row: the two label cells, the per-phase totals `p`
/// (indexed by [`Phase::index`]), and the lock histogram's two cells.
fn phase_row(table: &mut Table, label: [&str; 2], p: &[CtxStats; 4], hist: [String; 2]) {
    let [lock_ids, hot_lock] = hist;
    table.row(vec![
        label[0].to_string(),
        label[1].to_string(),
        p[0].time.to_string(),
        p[1].time.to_string(),
        p[2].time.to_string(),
        p[3].time.to_string(),
        p[0].lock_acquires.to_string(),
        p[0].lock_wait.to_string(),
        lock_ids,
        hot_lock,
        phase_sum(p, |x| x.barrier_wait),
        phase_sum(p, |x| x.remote_misses),
        phase_sum(p, |x| x.page_faults),
    ]);
}

/// A lock histogram's two [`phase_table`] cells: how many lock ids the run
/// took, and the share of the total lock wait (or of the acquires, if
/// nothing waited) absorbed by the single hottest one — the paper's "hot
/// shared cells" signal.
fn hist_cells(locks: &[LockStat]) -> [String; 2] {
    let total_acquires: u64 = locks.iter().map(|s| s.acquires).sum();
    let total_wait: u64 = locks.iter().map(|s| s.wait_total).sum();
    let hot_share = match locks.first() {
        None => 0.0,
        Some(top) if total_wait > 0 => top.wait_total as f64 / total_wait as f64,
        Some(top) => top.acquires as f64 / total_acquires.max(1) as f64,
    };
    [locks.len().to_string(), fmt_pct(hot_share)]
}

/// `treebuild`'s runs: all six algorithms on a simulated Origin 2000, `n`
/// particles, `procs` processors, at `group_size` (`None`: the default).
fn treebuild_grid(n: usize, procs: usize, group_size: Option<usize>) -> Vec<Run> {
    let cost = platform::origin2000(procs);
    let group_size = group_size.unwrap_or(MAX_GROUP_SIZE);
    Algorithm::ALL
        .map(|alg| (cost.clone(), alg, n, procs, group_size))
        .to_vec()
}

/// The runs [`treebuild`] reads at `scale`: the `--jobs` prewarm's share
/// of it. No baseline: the report shows no speedups.
fn treebuild_runs(scale: ExperimentScale, group_size: Option<usize>) -> Vec<Run> {
    treebuild_grid(scale.size(16384), scale.procs(16), group_size)
}

/// The per-phase breakdown, the combined Chrome trace and the BENCH
/// metrics of all six algorithms on a simulated Origin 2000, all in
/// simulated cycles, read from the run memo. `group_size` overrides the
/// force-kernel group size (`repro treebuild --group-size <N>`); `None`
/// keeps the config default.
pub fn treebuild(scale: ExperimentScale, group_size: Option<usize>) -> TreebuildReport {
    treebuild_sized(scale, scale.size(16384), scale.procs(16), group_size)
}

fn treebuild_sized(
    scale: ExperimentScale,
    n: usize,
    procs: usize,
    group_size: Option<usize>,
) -> TreebuildReport {
    let cost = platform::origin2000(procs);
    let mut table = phase_table(
        "Treebuild",
        &format!(
            "Traced per-phase breakdown, {n} particles, {procs} processors \
             ({} cycles; measured steps only, lock histogram over all steps)",
            cost.name
        ),
        "lock-based algorithms spend tree time in locks (ORIG concentrated on few hot cells); SPACE takes none",
    );
    let mut events: Vec<String> = Vec::new();
    let mut bench: Vec<String> = Vec::new();
    for (pid, run) in treebuild_grid(n, procs, group_size).iter().enumerate() {
        let (alg, record) = (run.1, simulated(run));
        let (s, locks) = (&record.stats, &record.locks);
        let p = s.phases_over(s.measured());
        phase_row(&mut table, [&cost.name, alg.name()], &p, hist_cells(locks));
        events.extend(trace::chrome_trace_events(
            s,
            pid as u32,
            &format!("{} {} ({procs}p, cycles)", cost.name, alg.name()),
            1.0,
        ));
        bench.push(records::emit(
            "treebuild",
            &[scale.name(), alg.name(), &cost.name],
            &[
                n.to_string(),
                procs.to_string(),
                s.tree_time().to_string(),
                s.total_time().to_string(),
                p[0].lock_acquires.to_string(),
                p[0].lock_wait.to_string(),
                phase_sum(&p, |x| x.barrier_wait),
                phase_sum(&p, |x| x.remote_misses),
                phase_sum(&p, |x| x.page_faults),
                locks.len().to_string(),
                locks.iter().map(|l| l.acquires).sum::<u64>().to_string(),
                locks.iter().map(|l| l.wait_total).sum::<u64>().to_string(),
                format!("{:.4}", s.tree_imbalance()),
                s.flatten_cycles().to_string(),
                s.sort_cycles().to_string(),
                p[2].time.to_string(),
                format!("{:.2}", s.force_list_len()),
                format!("{:.4}", s.force_list_reuse()),
            ],
        ));
    }
    TreebuildReport {
        table,
        trace_json: format!("[\n{}\n]\n", events.join(",\n")),
        bench_json: format!("[\n{}\n]\n", bench.join(",\n")),
    }
}

// --------------------------------------------------------------------------
// `repro run`: one configuration, every diagnostic
// --------------------------------------------------------------------------

/// Output of `repro run`: one configuration's diagnostic tables, and its
/// Chrome trace with its text summaries.
pub struct RunReport {
    pub tables: Vec<Table>,
    /// Complete Chrome trace-event JSON document of the run.
    pub trace_json: String,
    /// [`trace::summary`]: the per-phase rows, the lock totals and the
    /// per-step percentiles, over all steps.
    pub trace_summary: String,
}

/// Run one configuration: on the host when `target` is `"native"` (times
/// in nanoseconds), else read the run memo's entry for the simulated
/// platform [`platform::by_name`] knows it as (times in cycles, plus the
/// lock histogram and the per-region communication breakdown). An unknown
/// platform is an `Err` naming it, returned before anything runs.
pub fn run(
    target: &str,
    alg: Algorithm,
    n: usize,
    procs: usize,
    group_size: Option<usize>,
) -> Result<RunReport, String> {
    let group_size = group_size.unwrap_or(MAX_GROUP_SIZE);
    if target == "native" {
        let cfg = SimConfig {
            group_size,
            ..SimConfig::new(alg)
        };
        let bodies = Model::Plummer.generate(n, WORKLOAD_SEED);
        let stats = run_simulation(&NativeEnv::new(procs), &cfg, &bodies);
        stats.assert_valid();
        // Native timestamps are nanoseconds; /1000 puts them on the trace
        // viewer's microsecond axis.
        return Ok(run_report(&stats, None, target, alg, n, "ns", 1000.0));
    }
    let cost = platform::by_name(target, procs).ok_or_else(|| {
        let names: Vec<String> = platform::all_platforms(1)
            .iter()
            .map(|c| c.name.to_ascii_lowercase())
            .collect();
        format!(
            "unknown platform '{target}' (valid: native, {})",
            names.join(", ")
        )
    })?;
    let record = simulated(&(cost.clone(), alg, n, procs, group_size));
    // Simulated clocks tick in cycles; render one cycle per µs.
    let locks = Some(&record.locks[..]);
    let mut report = run_report(&record.stats, locks, &cost.name, alg, n, "cycles", 1.0);
    let mut table = report::comm_table(
        "Run communication",
        &format!(
            "{} {alg}, {n} particles, {procs} processors \
             (whole run; zero rows omitted)",
            cost.name
        ),
    );
    report::comm_rows(&mut table, &cost.name, alg, &record.comm);
    report.tables.push(table);
    Ok(report)
}

/// `repro run`'s tables, trace and summary of `s`, with `locks` its lock
/// histogram (`None` on the host, which keeps none: its cells print `-`).
fn run_report(
    s: &RunStats,
    locks: Option<&[LockStat]>,
    platform: &str,
    alg: Algorithm,
    n: usize,
    unit: &str,
    ts_div: f64,
) -> RunReport {
    let label = format!("{platform} {alg}");
    let title = |more: &str| {
        let procs = s.procs;
        format!("{label}, {n} particles, {procs} processors ({unit}; measured steps{more})")
    };
    let none = || ["-".to_string(), "-".to_string()];

    // The run's row, then each processor's: its own phase times and counters.
    let mut phases = phase_table(
        "Run phases",
        &title("; lock histogram over all steps; then per processor"),
        "",
    );
    let hist = locks.map_or_else(none, hist_cells);
    phase_row(
        &mut phases,
        [platform, alg.name()],
        &s.phases_over(s.measured()),
        hist,
    );
    for p in &s.procs_records {
        let proc = format!("P{}", p.proc);
        phase_row(
            &mut phases,
            [&proc, alg.name()],
            &p.phases(s.measured()),
            none(),
        );
    }

    let mut totals = Table::new(
        "Run totals",
        &title(""),
        &[
            "total",
            "tree%",
            "groups",
            "list entries",
            "interactions",
            "list len",
            "reuse",
        ],
        "",
    );
    totals.row(vec![
        s.total_time().to_string(),
        fmt_pct(s.tree_fraction()),
        s.force_groups().to_string(),
        s.force_list_entries().to_string(),
        s.force_interactions().to_string(),
        format!("{:.1}", s.force_list_len()),
        format!("{:.2}", s.force_list_reuse()),
    ]);

    RunReport {
        tables: vec![phases, totals],
        trace_json: trace::chrome_trace_json(s, &label, ts_div),
        trace_summary: trace::summary(s, locks.unwrap_or_default(), unit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::runner::prewarm;

    #[test]
    fn registry_rejects_unknown_names() {
        assert!(find("nope").is_none());
        assert!(find("f6").is_none(), "short aliases are gone");
        for e in EXPERIMENTS {
            let found = find(e.name).expect("every entry resolves by its name");
            assert_eq!(found.id, e.id, "duplicate name {}", e.name);
        }
        assert!(find("treebuild").unwrap().spec.is_none());
    }

    #[test]
    fn job_counts_match_the_hand_kept_enumeration_they_replaced() {
        // Distinct jobs per experiment in table order, then for the whole
        // matrix, measured at 0f0012b from the second enumeration then kept
        // by hand, less one for Figure 11 (and so for the matrix): its
        // PARTREE run at one processor is the sequential baseline, one memo
        // entry and one job.
        for (scale, each, all) in [
            (
                ExperimentScale::Tiny,
                [16, 21, 13, 28, 28, 7, 12, 14, 6, 14, 14, 7, 14],
                92,
            ),
            (
                ExperimentScale::Small,
                [24, 35, 19, 42, 42, 19, 30, 14, 12, 28, 28, 7, 14],
                170,
            ),
        ] {
            assert_eq!(matrix().count(), each.len());
            for (e, want) in matrix().zip(each) {
                assert_eq!(prewarm_jobs([e], scale, None).len(), want, "{}", e.name);
            }
            assert_eq!(prewarm_jobs(matrix(), scale, None).len(), all);
        }
    }

    #[test]
    fn full_matrix_is_enumerated_and_shared_configs_collapse() {
        let jobs = prewarm_jobs(matrix(), ExperimentScale::Tiny, None);
        // Figures 8 and 9 (and 13/14) share all their runs; the dedup set
        // must therefore be much smaller than the naive enumeration.
        let naive = 24 + 2 * (25 + 15) + 2 * (30 + 15) + 15 + 25 + 10 + 2 * 20 + 5 + 10;
        assert!(
            jobs.len() < naive,
            "dedup had no effect: {} jobs of {naive} naive",
            jobs.len()
        );
        for e in matrix() {
            let js = prewarm_jobs([e], ExperimentScale::Tiny, None);
            assert!(!js.is_empty(), "{} enumerated no jobs", e.name);
        }
        // `treebuild` prewarms its six runs and no baseline, at the group
        // size it is given.
        let treebuild = find("treebuild").expect("a known name");
        let (scale, origin) = (ExperimentScale::Small, platform::origin2000(16));
        for (group_size, want) in [(None, MAX_GROUP_SIZE), (Some(16), 16)] {
            let runs: Vec<Run> = Algorithm::ALL
                .map(|alg| (origin.clone(), alg, 2048, 16, want))
                .to_vec();
            let keys = |runs: Vec<Run>| -> Vec<_> {
                runs.into_iter()
                    .map(|(c, alg, n, p, g)| (c.name, alg, n, p, g))
                    .collect()
            };
            assert_eq!(
                keys(prewarm_jobs([treebuild], scale, group_size)),
                keys(runs)
            );
        }
    }

    #[test]
    fn grid_sizes_and_processor_counts_are_distinct() {
        for scale in [ExperimentScale::Tiny, ExperimentScale::Small] {
            for e in matrix() {
                let g = e.spec.unwrap()(scale).grid;
                for (what, list) in [("sizes", &g.sizes), ("procs", &g.procs)] {
                    assert!(
                        list.windows(2).all(|w| w[0] < w[1]),
                        "{} at {}: {what} {list:?}",
                        e.name,
                        scale.name()
                    );
                }
            }
        }
    }

    /// Runs the whole tiny matrix and the tiny report, and must run alone
    /// in its process (the memo is process-wide): check.sh runs it by name
    /// under `timeout`.
    #[test]
    #[ignore = "runs the tiny matrix; check.sh runs it alone under timeout"]
    fn rendering_after_the_prewarm_computes_nothing() {
        let scale = ExperimentScale::Tiny;
        let report_grid = report::grid(scale);
        // The report shares its runs at the largest processor count with
        // Figures 8 and 13, and `treebuild` all of its own with Figure 8,
        // so the union is smaller than the sum.
        let runs = distinct(
            prewarm_jobs(EXPERIMENTS, scale, None)
                .into_iter()
                .chain(report_grid.runs()),
        );
        let count = runs.len();
        assert_eq!(prewarm(runs, 2), count);
        assert_eq!(crate::runner::memo_size(), count);
        for e in matrix() {
            let table = e.spec.unwrap()(scale).table(e.id);
            assert!(!table.rows.is_empty(), "{} rendered no rows", e.name);
        }
        let report = report::scaling_report(scale, &report_grid);
        assert!(report.tables.iter().all(|t| !t.rows.is_empty()));
        assert_eq!(treebuild(scale, None).table.rows.len(), 6);
        assert_eq!(crate::runner::memo_size(), count);
    }

    #[test]
    fn treebuild_report_is_complete_and_valid() {
        let report = treebuild_sized(ExperimentScale::Tiny, 128, 2, None);
        // One row, one process track and one record per algorithm.
        assert_eq!(report.table.rows.len(), 6);

        let trace = Json::parse(&report.trace_json).expect("trace must be valid JSON");
        let checked = records::check_trace(&trace).expect("the trace validates");
        assert!(checked.ends_with(", 6 process track(s)"), "{checked}");

        let bench = Json::parse(&report.bench_json).expect("bench must be valid JSON");
        let records = bench.as_array().expect("bench is an array");
        assert_eq!(records.len(), 6);
        for r in records {
            records::validate(r).expect("every emitted record validates");
            assert!(r.get("tree_cycles").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(r.get("tree_imbalance").and_then(Json::as_f64).unwrap() >= 1.0);
            // Batched force kernel metrics: the default config runs it, so
            // every record reports force time and nontrivial list reuse.
            assert!(r.get("force_cycles").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(r.get("list_len").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(
                r.get("list_reuse").and_then(Json::as_f64).unwrap() > 1.0,
                "grouped lists must be applied to more than one body each"
            );
            let flatten = r.get("flatten_cycles").and_then(Json::as_f64).unwrap();
            let sort = r.get("sort_cycles").and_then(Json::as_f64).unwrap();
            if r.get("algorithm").and_then(Json::as_str) == Some("MORTON") {
                // MORTON builds the snapshot directly: no flatten pass, a
                // nonzero key sort, and no lock traffic at all.
                assert_eq!(flatten, 0.0, "MORTON must not flatten");
                assert!(sort > 0.0, "MORTON must report its sort");
                assert_eq!(
                    r.get("tree_lock_acquires").and_then(Json::as_f64).unwrap(),
                    0.0,
                    "MORTON takes no tree locks"
                );
            } else {
                assert!(flatten > 0.0, "linked-tree algorithms flatten");
                assert_eq!(sort, 0.0, "only MORTON sorts");
            }
        }
        // The histogram separates ORIG (hot shared cells) from SPACE
        // (lock-free): compare the per-record lock id counts.
        let lock_ids = |alg: &str| {
            records
                .iter()
                .find(|r| r.get("algorithm").and_then(Json::as_str) == Some(alg))
                .and_then(|r| r.get("lock_ids"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert!(lock_ids("ORIG") > 0.0, "ORIG must take locks");
        assert_eq!(lock_ids("SPACE"), 0.0, "SPACE is lock-free");
        assert_eq!(lock_ids("MORTON"), 0.0, "MORTON is lock-free");
    }

    #[test]
    fn treebuild_records_are_memo_entries() {
        // Exact at two processors too: a record and the figures' lookup
        // read the same entry.
        let (n, procs) = (128, 2);
        let report = treebuild_sized(ExperimentScale::Tiny, n, procs, None);
        let bench = Json::parse(&report.bench_json).expect("bench is JSON");
        let origin = platform::origin2000(procs);
        for r in bench.as_array().expect("bench is an array") {
            let name = r.get("algorithm").and_then(Json::as_str).unwrap();
            let alg = Algorithm::parse(name).expect("a known algorithm");
            let cached = run_cached(&origin, alg, n, procs);
            let field = |key: &str| r.get(key).and_then(Json::as_f64).unwrap() as u64;
            assert_eq!(field("tree_cycles"), cached.tree_cycles, "{name}");
            assert_eq!(field("total_cycles"), cached.total_cycles, "{name}");
            assert_eq!(field("lock_ids"), cached.locks.len() as u64, "{name}");
        }
    }

    #[test]
    fn a_simulated_run_reads_its_memo_entry() {
        // `repro run`'s tables and the figures' lookup read one entry; its
        // group size is part of the key.
        let (n, procs) = (160, 2);
        let origin = platform::origin2000(procs);
        let r = run("origin2000", Algorithm::Orig, n, procs, None).expect("run");
        let cached = run_cached(&origin, Algorithm::Orig, n, procs);
        let total = &r.tables[1].rows[0][0];
        assert_eq!(*total, cached.total_cycles.to_string());
        let row = &r.tables[0].rows[0];
        assert_eq!(row[8], cached.locks.len().to_string(), "lock ids");
        let other = run("origin2000", Algorithm::Orig, n, procs, Some(8)).expect("run");
        let key = |g| (origin.clone(), Algorithm::Orig, n, procs, g);
        assert!(!std::ptr::eq(
            simulated(&key(8)),
            simulated(&key(MAX_GROUP_SIZE))
        ));
        let groups = |r: &RunReport| r.tables[1].rows[0][2].clone();
        assert_ne!(groups(&other), groups(&r), "group size 8 forms more groups");
    }
}
