//! One function per table/figure of the paper's evaluation (§4).
//!
//! Every function regenerates the rows/series the paper reports, at a
//! configurable problem scale. Runs are memoized within a process so that
//! figures sharing configurations (e.g. Figures 8 and 9) reuse them.

use crate::runner::{run_cached, seq_time_on_platform, ExperimentScale, WORKLOAD_SEED};
use crate::tables::{fmt_pct, fmt_speedup, Table};
use bh_core::prelude::*;
use ssmp::{platform, CostModel, Machine};

pub(crate) const ALGS: [Algorithm; 6] = [
    Algorithm::Orig,
    Algorithm::Local,
    Algorithm::Update,
    Algorithm::Partree,
    Algorithm::Space,
    Algorithm::Morton,
];

fn alg_headers(first: &str) -> Vec<String> {
    let mut h = vec![first.to_string()];
    h.extend(ALGS.iter().map(|a| a.name().to_string()));
    h
}

fn speedup_table(
    id: &str,
    title: &str,
    cost: &CostModel,
    sizes: &[usize],
    procs: usize,
    expectation: &str,
) -> Table {
    let mut t = Table::new(id, title, &[], expectation);
    t.headers = alg_headers("particles");
    for &n in sizes {
        let mut row = vec![n.to_string()];
        for alg in ALGS {
            row.push(fmt_speedup(run_cached(cost, alg, n, procs).speedup));
        }
        t.rows.push(row);
    }
    t
}

fn tree_pct_table(
    id: &str,
    title: &str,
    cost: &CostModel,
    n: usize,
    procs: &[usize],
    expectation: &str,
) -> Table {
    let mut t = Table::new(id, title, &[], expectation);
    t.headers = alg_headers("procs");
    for &p in procs {
        let mut row = vec![p.to_string()];
        for alg in ALGS {
            row.push(fmt_pct(run_cached(cost, alg, n, p).tree_fraction));
        }
        t.rows.push(row);
    }
    t
}

// --------------------------------------------------------------------------
// Table 1: best sequential time on the four platforms
// --------------------------------------------------------------------------

pub fn table1(scale: ExperimentScale) -> Table {
    let sizes: Vec<usize> = [8192, 16384, 32768, 65536, 131072, 524288]
        .iter()
        .map(|&n| scale.size(n))
        .collect();
    let platforms = [
        platform::origin2000(1),
        platform::challenge(1),
        platform::typhoon0_hlrc(1),
        platform::paragon_hlrc(1),
    ];
    let mut t = Table::new(
        "Table 1",
        "Best sequential time (seconds, 2 steps) per platform",
        &[],
        "Origin fastest, Challenge ~2.5x slower, Typhoon-0 and Paragon much slower; time grows ~NlogN",
    );
    t.headers = vec!["platform".to_string()];
    t.headers.extend(sizes.iter().map(|n| n.to_string()));
    for cost in &platforms {
        let mut row = vec![cost.name.clone()];
        for &n in &sizes {
            let (cycles, _) = seq_time_on_platform(cost, n);
            row.push(format!("{:.2}", cost.cycles_to_seconds(cycles)));
        }
        t.rows.push(row);
    }
    t
}

// --------------------------------------------------------------------------
// Figures 6-7: SGI Challenge
// --------------------------------------------------------------------------

pub fn fig6(scale: ExperimentScale) -> Table {
    let sizes: Vec<usize> = [8192, 16384, 32768, 65536, 131072]
        .iter()
        .map(|&n| scale.size(n))
        .collect();
    let procs = scale.procs(16);
    speedup_table(
        "Figure 6",
        &format!("Speedups on SGI Challenge, {procs} processors"),
        &platform::challenge(procs),
        &sizes,
        procs,
        "all five algorithms between ~12 and ~15 on 16 procs; LOCAL best, ORIG worst by a little",
    )
}

pub fn fig7(scale: ExperimentScale) -> Table {
    let n = scale.size(131072);
    let procs: Vec<usize> = [4, 8, 16].iter().map(|&p| scale.procs(p)).collect();
    tree_pct_table(
        "Figure 7",
        &format!("Tree-building cost on SGI Challenge, {n} particles (% of total time)"),
        &platform::challenge(16),
        n,
        &procs,
        "small for the good algorithms (LOCAL/UPDATE/PARTREE/SPACE), larger for ORIG, growing with processors",
    )
}

// --------------------------------------------------------------------------
// Figures 8-11, Table 2: SGI Origin 2000
// --------------------------------------------------------------------------

pub fn fig8(scale: ExperimentScale) -> Table {
    let sizes: Vec<usize> = [8192, 16384, 32768, 65536, 131072, 524288]
        .iter()
        .map(|&n| scale.size(n))
        .collect();
    let procs = scale.procs(30);
    speedup_table(
        "Figure 8",
        &format!("Speedups on SGI Origin 2000, {procs} processors"),
        &platform::origin2000(procs),
        &sizes,
        procs,
        "LOCAL/UPDATE/PARTREE close together and best, scaling with data size; SPACE slightly behind; big gap to ORIG",
    )
}

pub fn fig9(scale: ExperimentScale) -> Table {
    let sizes: Vec<usize> = [8192, 16384, 32768, 65536, 131072, 524288]
        .iter()
        .map(|&n| scale.size(n))
        .collect();
    let procs = scale.procs(30);
    let cost = platform::origin2000(procs);
    let mut t = Table::new(
        "Figure 9",
        &format!("Tree-building phase speedups on Origin 2000, {procs} processors"),
        &[],
        "same relative ordering as Figure 8 but much lower absolute speedups",
    );
    t.headers = alg_headers("particles");
    for &n in &sizes {
        let mut row = vec![n.to_string()];
        for alg in ALGS {
            row.push(fmt_speedup(run_cached(&cost, alg, n, procs).tree_speedup));
        }
        t.rows.push(row);
    }
    t
}

pub fn fig10(scale: ExperimentScale) -> Table {
    let n = scale.size(524288);
    let procs: Vec<usize> = [16, 24, 30].iter().map(|&p| scale.procs(p)).collect();
    let mut t = Table::new(
        "Figure 10",
        &format!("Speedups on Origin 2000 vs processor count, {n} particles"),
        &[],
        "LOCAL/UPDATE/PARTREE scale well with processors (LOCAL best), SPACE a little worse, ORIG far behind",
    );
    t.headers = alg_headers("procs");
    for &p in &procs {
        let cost = platform::origin2000(p);
        let mut row = vec![p.to_string()];
        for alg in ALGS {
            row.push(fmt_speedup(run_cached(&cost, alg, n, p).speedup));
        }
        t.rows.push(row);
    }
    t
}

pub fn fig11(scale: ExperimentScale) -> Table {
    let n = scale.size(524288);
    let procs: Vec<usize> = [1, 8, 16, 24, 30].iter().map(|&p| scale.procs(p)).collect();
    let mut procs_dedup = procs.clone();
    procs_dedup.dedup();
    tree_pct_table(
        "Figure 11",
        &format!("Tree-building cost on Origin 2000, {n} particles (% of total time)"),
        &platform::origin2000(30),
        n,
        &procs_dedup,
        "ORIG's tree-build share grows toward ~60% at 30 procs; the others stay small",
    )
}

pub fn table2(scale: ExperimentScale) -> Table {
    let procs = scale.procs(16);
    let cost = platform::origin2000(procs);
    let sizes: Vec<usize> = [65536, 524288].iter().map(|&n| scale.size(n)).collect();
    let mut t = Table::new(
        "Table 2",
        &format!("Time (seconds) spent in BARRIER operations on Origin 2000, {procs} processors"),
        &[],
        "ORIG's barrier time ~15x LOCAL's; UPDATE distant second; others small",
    );
    t.headers = alg_headers("particles");
    for &n in &sizes {
        let mut row = vec![n.to_string()];
        for alg in ALGS {
            let run = run_cached(&cost, alg, n, procs);
            // Average barrier wait per processor, in seconds.
            let avg = run.barrier_wait_cycles / procs as u64;
            row.push(format!("{:.3}", cost.cycles_to_seconds(avg)));
        }
        t.rows.push(row);
    }
    t
}

// --------------------------------------------------------------------------
// Figure 12: Intel Paragon (HLRC SVM)
// --------------------------------------------------------------------------

pub fn fig12(scale: ExperimentScale) -> Table {
    let sizes: Vec<usize> = [8192, 16384, 32768, 65536]
        .iter()
        .map(|&n| scale.size(n))
        .collect();
    let procs = scale.procs(16);
    let cost = platform::paragon_hlrc(procs);
    let mut t = Table::new(
        "Figure 12",
        &format!("Paragon (HLRC SVM), {procs} processors: speedup and tree-build share"),
        &[],
        "SPACE much better than PARTREE (only those two are runnable; the lock-heavy algorithms slow down); PARTREE's tree share ~50%, SPACE's <20%",
    );
    t.headers = vec![
        "particles".into(),
        "PARTREE speedup".into(),
        "SPACE speedup".into(),
        "PARTREE tree%".into(),
        "SPACE tree%".into(),
    ];
    for &n in &sizes {
        let pt = run_cached(&cost, Algorithm::Partree, n, procs);
        let sp = run_cached(&cost, Algorithm::Space, n, procs);
        t.row(vec![
            n.to_string(),
            fmt_speedup(pt.speedup),
            fmt_speedup(sp.speedup),
            fmt_pct(pt.tree_fraction),
            fmt_pct(sp.tree_fraction),
        ]);
    }
    t
}

// --------------------------------------------------------------------------
// Figures 13-14: Typhoon-zero under HLRC
// --------------------------------------------------------------------------

pub fn fig13(scale: ExperimentScale) -> Table {
    let sizes: Vec<usize> = [8192, 16384, 32768, 65536]
        .iter()
        .map(|&n| scale.size(n))
        .collect();
    let procs = scale.procs(16);
    let cost = platform::typhoon0_hlrc(procs);
    let mut t = speedup_table(
        "Figure 13",
        &format!("Speedups on Typhoon-zero (HLRC SVM), {procs} processors"),
        &cost,
        &sizes,
        procs,
        "SPACE vastly outperforms everything; PARTREE second; ORIG/LOCAL/UPDATE deliver slowdowns (<1)",
    );
    // Companion series: tree-build share per algorithm at the largest size.
    let n = *sizes.last().unwrap();
    let mut row = vec![format!("tree% @{n}")];
    for alg in ALGS {
        row.push(fmt_pct(run_cached(&cost, alg, n, procs).tree_fraction));
    }
    t.rows.push(row);
    t
}

pub fn fig14(scale: ExperimentScale) -> Table {
    let sizes: Vec<usize> = [8192, 16384, 32768, 65536]
        .iter()
        .map(|&n| scale.size(n))
        .collect();
    let procs = scale.procs(16);
    let cost = platform::typhoon0_hlrc(procs);
    let mut t = Table::new(
        "Figure 14",
        &format!("Tree-building phase speedups on Typhoon-zero HLRC, {procs} processors"),
        &[],
        "poor: SPACE reaches ~1.5, every other algorithm is a slowdown (<1)",
    );
    t.headers = alg_headers("particles");
    for &n in &sizes {
        let mut row = vec![n.to_string()];
        for alg in ALGS {
            row.push(fmt_speedup(run_cached(&cost, alg, n, procs).tree_speedup));
        }
        t.rows.push(row);
    }
    t
}

// --------------------------------------------------------------------------
// §4.4.2: Typhoon-zero under fine-grained sequential consistency
// --------------------------------------------------------------------------

pub fn sc442(scale: ExperimentScale) -> Table {
    let n = scale.size(16384);
    let procs = scale.procs(16);
    let cost = platform::typhoon0_sc(procs);
    let mut t = Table::new(
        "Section 4.4.2",
        &format!("Speedups on Typhoon-zero (fine-grain SC), {n} particles, {procs} processors"),
        &[],
        "differences shrink: SPACE best (~7 of 16), LOCAL/UPDATE/PARTREE ~4, ORIG a little worse",
    );
    t.headers = alg_headers("particles");
    let mut row = vec![n.to_string()];
    for alg in ALGS {
        row.push(fmt_speedup(run_cached(&cost, alg, n, procs).speedup));
    }
    t.rows.push(row);
    t
}

// --------------------------------------------------------------------------
// Figure 15: dynamic lock counts per processor
// --------------------------------------------------------------------------

pub fn fig15(scale: ExperimentScale) -> Table {
    let n = scale.size(65536);
    let procs = scale.procs(16);
    let mut t = Table::new(
        "Figure 15",
        &format!(
            "Locks executed per processor in the tree-building phase (2 steps, {n} particles, {procs} processors)"
        ),
        &[],
        "lock counts fall ORIG ≈ LOCAL ≈ UPDATE (≈1 per body) >> PARTREE >> SPACE (=0)",
    );
    t.headers = vec!["platform/alg".to_string()];
    t.headers.extend((0..procs).map(|p| format!("P{p}")));
    for cost in [platform::typhoon0_hlrc(procs), platform::origin2000(procs)] {
        for alg in ALGS {
            let run = run_cached(&cost, alg, n, procs);
            let mut row = vec![format!("{} {}", cost.name, alg.name())];
            row.extend(run.locks_per_proc.iter().map(|l| l.to_string()));
            t.rows.push(row);
        }
    }
    t
}

// --------------------------------------------------------------------------
// Treebuild observability: traced per-phase breakdown, Chrome trace export,
// lock-contention histogram, and machine-readable BENCH metrics
// --------------------------------------------------------------------------

/// Output of the traced `treebuild` experiment: a Table-2-style per-phase
/// breakdown, a Chrome/Perfetto trace document covering every run (one
/// process track per platform × algorithm, one thread track per simulated
/// processor), and machine-readable per-algorithm metrics for the
/// `BENCH_<scale>.json` performance trajectory.
#[derive(Debug, Clone)]
pub struct TreebuildReport {
    pub table: Table,
    /// Complete Chrome trace-event JSON document.
    pub trace_json: String,
    /// Complete JSON array document of per-algorithm metric records.
    pub bench_json: String,
}

/// The numeric fields of a `treebuild` BENCH record, in emission order: the
/// emitter zips its values with this list and `repro check-json` requires
/// every name, so the two cannot disagree. All are simulated quantities.
pub const TREEBUILD_FIELDS: [&str; 18] = [
    "n",
    "procs",
    "tree_cycles",
    "total_cycles",
    "tree_lock_acquires",
    "tree_lock_wait_cycles",
    "barrier_wait_cycles",
    "remote_misses",
    "page_faults",
    "lock_ids",
    "lock_acquires_all_steps",
    "lock_wait_all_steps",
    "tree_imbalance",
    "flatten_cycles",
    "sort_cycles",
    "force_cycles",
    "list_len",
    "list_reuse",
];

/// One (platform, algorithm) traced run distilled for the report.
struct TracedRun {
    phase: [CtxStatsRow; 4],
    hist_locks: usize,
    hist_total_acquires: u64,
    hist_total_wait: u64,
    /// Share of total lock wait (or acquires, if wait is zero) absorbed by
    /// the single hottest lock id — the paper's "hot shared cells" signal.
    hot_share: f64,
    total_time: u64,
    tree_time: u64,
    /// Max/avg per-processor tree-phase work time (barrier wait excluded).
    tree_imbalance: f64,
    /// Max per-processor time in the flat-snapshot pass of the tree phase.
    flatten_cycles: u64,
    /// Max per-processor time in the parallel key sort (MORTON only).
    sort_cycles: u64,
    /// Mean interaction-list length per group in the batched force kernel.
    list_len: f64,
    /// Interactions evaluated per emitted list entry (the kernel's reuse
    /// factor; ≈ group_size when most groups share their whole list).
    list_reuse: f64,
}

#[derive(Clone, Copy, Default)]
struct CtxStatsRow {
    time: u64,
    locks: u64,
    lock_wait: u64,
    barrier_wait: u64,
    remote: u64,
    faults: u64,
}

fn traced_run<E: Env>(
    env: &bh_core::trace::TraceEnv<E>,
    alg: Algorithm,
    n: usize,
    group_size: Option<usize>,
) -> TracedRun {
    let bodies = Model::Plummer.generate(n, WORKLOAD_SEED);
    let mut cfg = SimConfig::new(alg);
    if let Some(gs) = group_size {
        cfg.group_size = gs;
    }
    let stats = run_simulation(env, &cfg, &bodies);
    stats.assert_valid();
    let mut phase = [CtxStatsRow::default(); 4];
    for p in Phase::ALL {
        let a = stats.phase_stats(p);
        phase[p.index()] = CtxStatsRow {
            time: a.time,
            locks: a.lock_acquires,
            lock_wait: a.lock_wait,
            barrier_wait: a.barrier_wait,
            remote: a.remote_misses,
            faults: a.page_faults,
        };
    }
    let hist = env.lock_histogram();
    let total_acquires: u64 = hist.iter().map(|s| s.acquires).sum();
    let total_wait: u64 = hist.iter().map(|s| s.wait_total).sum();
    let hot_share = match hist.first() {
        None => 0.0,
        Some(top) if total_wait > 0 => top.wait_total as f64 / total_wait as f64,
        Some(top) => top.acquires as f64 / total_acquires.max(1) as f64,
    };
    TracedRun {
        phase,
        hist_locks: hist.len(),
        hist_total_acquires: total_acquires,
        hist_total_wait: total_wait,
        hot_share,
        total_time: stats.total_time(),
        tree_time: stats.tree_time(),
        tree_imbalance: stats.tree_imbalance(),
        flatten_cycles: stats.flatten_cycles(),
        sort_cycles: stats.sort_cycles(),
        list_len: stats.force_list_len(),
        list_reuse: stats.force_list_reuse(),
    }
}

fn treebuild_row(table: &mut Table, platform: &str, alg: Algorithm, r: &TracedRun) {
    let p = &r.phase;
    table.row(vec![
        platform.to_string(),
        alg.name().to_string(),
        p[0].time.to_string(),
        p[1].time.to_string(),
        p[2].time.to_string(),
        p[3].time.to_string(),
        p[0].locks.to_string(),
        p[0].lock_wait.to_string(),
        r.hist_locks.to_string(),
        fmt_pct(r.hot_share),
        p.iter().map(|x| x.barrier_wait).sum::<u64>().to_string(),
        p.iter().map(|x| x.remote).sum::<u64>().to_string(),
        p.iter().map(|x| x.faults).sum::<u64>().to_string(),
    ]);
}

/// Run the full application under [`bh_core::trace::TraceEnv`] for all six
/// algorithms on the native host and on a simulated Origin 2000, producing
/// the per-phase breakdown, the combined Chrome trace and BENCH metrics.
/// Native rows are in wall nanoseconds, origin rows in simulated cycles.
pub fn treebuild(scale: ExperimentScale) -> TreebuildReport {
    treebuild_with(scale, None)
}

/// Like [`treebuild`] but with an explicit force-kernel group size
/// (`repro treebuild --group-size <N>`); `None` keeps the config default.
pub fn treebuild_with(scale: ExperimentScale, group_size: Option<usize>) -> TreebuildReport {
    treebuild_sized(scale, scale.size(16384), scale.procs(16), group_size)
}

fn treebuild_sized(
    scale: ExperimentScale,
    n: usize,
    procs: usize,
    group_size: Option<usize>,
) -> TreebuildReport {
    let cost = platform::origin2000(procs);
    let mut table = Table::new(
        "Treebuild",
        &format!(
            "Traced per-phase breakdown, {n} particles, {procs} processors \
             (native rows in ns, {} rows in cycles; measured steps only, \
             lock histogram over all steps)",
            cost.name
        ),
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
        "lock-based algorithms spend tree time in locks (ORIG concentrated on few hot cells); SPACE takes none",
    );
    let mut events: Vec<String> = Vec::new();
    let mut bench: Vec<String> = Vec::new();
    for (pid, alg) in ALGS.iter().enumerate() {
        let alg = *alg;
        let native = bh_core::trace::TraceEnv::new(NativeEnv::new(procs));
        let nat = traced_run(&native, alg, n, group_size);
        treebuild_row(&mut table, "native", alg, &nat);
        events.extend(native.chrome_trace_events(
            2 * pid as u32,
            &format!("native {} ({procs}p, ns)", alg.name()),
            1000.0,
        ));

        let sim = bh_core::trace::TraceEnv::new(Machine::new(cost.clone(), procs));
        let org = traced_run(&sim, alg, n, group_size);
        treebuild_row(&mut table, &cost.name, alg, &org);
        events.extend(sim.chrome_trace_events(
            2 * pid as u32 + 1,
            &format!("{} {} ({procs}p, cycles)", cost.name, alg.name()),
            1.0,
        ));

        let values: [String; TREEBUILD_FIELDS.len()] = [
            n.to_string(),
            procs.to_string(),
            org.tree_time.to_string(),
            org.total_time.to_string(),
            org.phase[0].locks.to_string(),
            org.phase[0].lock_wait.to_string(),
            org.phase
                .iter()
                .map(|x| x.barrier_wait)
                .sum::<u64>()
                .to_string(),
            org.phase.iter().map(|x| x.remote).sum::<u64>().to_string(),
            org.phase.iter().map(|x| x.faults).sum::<u64>().to_string(),
            org.hist_locks.to_string(),
            org.hist_total_acquires.to_string(),
            org.hist_total_wait.to_string(),
            format!("{:.4}", org.tree_imbalance),
            org.flatten_cycles.to_string(),
            org.sort_cycles.to_string(),
            org.phase[2].time.to_string(),
            format!("{:.2}", org.list_len),
            format!("{:.4}", org.list_reuse),
        ];
        let numeric: Vec<String> = TREEBUILD_FIELDS
            .iter()
            .zip(values)
            .map(|(field, value)| format!("\"{field}\": {value}"))
            .collect();
        bench.push(format!(
            "  {{\"experiment\": \"treebuild\", \"scale\": \"{}\", \"algorithm\": \"{}\", \
             \"platform\": \"{}\", {}}}",
            scale.name(),
            alg.name(),
            cost.name,
            numeric.join(", "),
        ));
    }
    TreebuildReport {
        table,
        trace_json: format!("[\n{}\n]\n", events.join(",\n")),
        bench_json: format!("[\n{}\n]\n", bench.join(",\n")),
    }
}

/// Every experiment in paper order.
pub fn all_experiments(scale: ExperimentScale) -> Vec<Table> {
    vec![
        table1(scale),
        fig6(scale),
        fig7(scale),
        fig8(scale),
        fig9(scale),
        fig10(scale),
        fig11(scale),
        table2(scale),
        fig12(scale),
        fig13(scale),
        fig14(scale),
        sc442(scale),
        fig15(scale),
    ]
}

/// The experiment registry for the CLI.
pub fn by_name(name: &str, scale: ExperimentScale) -> Option<Table> {
    match name.to_ascii_lowercase().as_str() {
        "table1" | "t1" => Some(table1(scale)),
        "fig6" | "f6" => Some(fig6(scale)),
        "fig7" | "f7" => Some(fig7(scale)),
        "fig8" | "f8" => Some(fig8(scale)),
        "fig9" | "f9" => Some(fig9(scale)),
        "fig10" | "f10" => Some(fig10(scale)),
        "fig11" | "f11" => Some(fig11(scale)),
        "table2" | "t2" => Some(table2(scale)),
        "fig12" | "f12" => Some(fig12(scale)),
        "fig13" | "f13" => Some(fig13(scale)),
        "fig14" | "f14" => Some(fig14(scale)),
        "sc442" | "sc" => Some(sc442(scale)),
        "fig15" | "f15" => Some(fig15(scale)),
        // `repro` intercepts "treebuild" to also export the trace and BENCH
        // documents; this arm keeps the registry complete for library users.
        "treebuild" | "tb" => Some(treebuild(scale).table),
        _ => None,
    }
}

/// Every experiment name accepted by [`by_name`], for CLI diagnostics.
pub const EXPERIMENT_NAMES: [&str; 14] = [
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table2",
    "fig12",
    "fig13",
    "fig14",
    "sc442",
    "fig15",
    "treebuild",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn registry_rejects_unknown_names() {
        // (Resolving a known name runs the experiment, so only the negative
        // path is cheap to test here; treebuild_report_is_complete_and_valid
        // covers a real run.)
        assert!(by_name("nope", ExperimentScale::Tiny).is_none());
        let mut names = EXPERIMENT_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENT_NAMES.len(), "duplicate names");
    }

    #[test]
    fn treebuild_report_is_complete_and_valid() {
        let report = treebuild_sized(ExperimentScale::Tiny, 128, 2, None);
        // 6 algorithms x 2 platforms.
        assert_eq!(report.table.rows.len(), 12);

        let trace = Json::parse(&report.trace_json).expect("trace must be valid JSON");
        let events = trace.as_array().expect("trace is an array");
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert!(!spans.is_empty(), "trace has no spans");
        // 12 process tracks, each declaring 2 threads.
        let procs_meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .collect();
        assert_eq!(procs_meta.len(), 12);
        for m in procs_meta {
            assert_eq!(
                m.get("args")
                    .and_then(|a| a.get("num_procs"))
                    .and_then(Json::as_f64),
                Some(2.0)
            );
        }
        // All four phases appear as span names.
        for phase in ["tree", "partition", "force", "update"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Json::as_str) == Some(phase)),
                "no {phase} span in trace"
            );
        }

        let bench = Json::parse(&report.bench_json).expect("bench must be valid JSON");
        let records = bench.as_array().expect("bench is an array");
        assert_eq!(records.len(), 6);
        for r in records {
            for field in TREEBUILD_FIELDS {
                assert!(
                    r.get(field).and_then(Json::as_f64).is_some(),
                    "record lacks numeric {field}: {r:?}"
                );
            }
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
}
