//! `repro` — regenerate the tables and figures of Shan & Singh (IPPS 1998).
//!
//! ```text
//! repro <experiment|all|matrix> [--scale tiny|small|full] [--jobs <N>]
//!       [--json <path>] [--trace <path>] [--group-size <N>]
//! repro report [--scale <scale>] [--json <path>]
//! repro check-json <path>
//! repro check-trace <path>
//! ```
//!
//! The experiments are the entries of `experiments::EXPERIMENTS`; the usage
//! banner (`repro` with no arguments) lists their names from that table.
//!
//! `--scale small` (default) runs the paper's problem sizes divided by 8;
//! `--scale full` runs the paper sizes (slow); `--scale tiny` is a smoke
//! test. Results are printed as text tables; `--json` additionally writes a
//! machine-readable record.
//!
//! `matrix` runs every *cached* experiment (everything except `treebuild`,
//! which traces its own runs).
//!
//! `--jobs N` prewarms the run caches with the sweep scheduler: the
//! deduplicated (platform, algorithm, n, procs) job list of the selected
//! experiments' grids is executed across N scheduler threads, then the
//! tables are generated serially from the caches. The scheduler changes
//! wall-clock time only, never which
//! configurations are computed. Single-processor experiments (`table1`) are
//! bitwise deterministic, so their output is byte-identical across any
//! `--jobs` setting; multi-processor simulated timings carry run-to-run
//! jitter (real thread interleaving feeds the contention model), for which
//! `check-same` verifies structural equality of two documents.
//!
//! The `treebuild` experiment (also part of `all`) instruments every
//! algorithm with `TraceEnv` on a simulated Origin2000, emits
//! `BENCH_<scale>.json` with per-algorithm simulated
//! tree-build metrics (host time is `bhbench`'s job, see `bench/README.md`),
//! and — with `--trace <path>` — writes a Chrome/Perfetto trace with one
//! track per processor.
//!
//! `check-json` / `check-trace` validate previously emitted documents; the
//! pre-merge gate uses them as schema sanity checks.
//!
//! `verify` runs the schedule-exploration verification matrix: every tree
//! algorithm on a tiny workload under the controlled scheduler stacked with
//! the dynamic race detector, across round-robin plus `--seeds` seeded
//! schedules per processor count (`--procs`, default 2). `--exhaustive`
//! adds a bounded-exhaustive plan; `--self-test` instead re-introduces a
//! known publication-order bug behind a mutation flag and requires the
//! explorer to find it. Non-zero exit on any non-certified cell, with a
//! counterexample report (finding, schedule id, trace tail) for each.

use bh_core::force::MAX_GROUP_SIZE;
use bh_experiments::cliargs;
use bh_experiments::experiments::{self, Experiment, EXPERIMENTS};
use bh_experiments::json::Json;
use bh_experiments::records;
use bh_experiments::runner::ExperimentScale;
use std::collections::{HashMap, HashSet};
use std::io::Write;

fn usage_text() -> String {
    format!(
        "usage: repro <experiment|all|matrix> [--scale {}] [--jobs <N>] [--json <path>] [--trace <path>] [--group-size <N>]\n\
         \x20      repro report [--scale <scale>] [--json <path>]\n\
         \x20      repro verify [--seeds <N>] [--procs <p,q,..>] [--exhaustive] [--self-test]\n\
         \x20      repro check-json <path>\n\
         \x20      repro check-trace <path>\n\
         \x20      repro check-same <a> <b>\n\
         experiments: {}",
        ExperimentScale::NAMES.join("|"),
        experiment_names(" ")
    )
}

fn experiment_names(separator: &str) -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.join(separator)
}

/// Print a specific diagnostic plus the usage banner, then exit non-zero.
fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        die("missing experiment name");
    }

    // Validation subcommands: exercise the JSON reader against emitted files.
    match args[0].as_str() {
        "check-json" => {
            let path = args
                .get(1)
                .unwrap_or_else(|| die("check-json needs a <path>"));
            check_json(path);
            return;
        }
        "check-trace" => {
            let path = args
                .get(1)
                .unwrap_or_else(|| die("check-trace needs a <path>"));
            check_trace(path);
            return;
        }
        "check-same" => {
            let a = args
                .get(1)
                .unwrap_or_else(|| die("check-same needs <a> <b>"));
            let b = args
                .get(2)
                .unwrap_or_else(|| die("check-same needs <a> <b>"));
            check_same(a, b);
            return;
        }
        "verify" => {
            verify(&args[1..]);
            return;
        }
        _ => {}
    }

    let mut which: Option<String> = None;
    let mut scale = ExperimentScale::Small;
    let mut jobs = 1usize;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut group_size: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = cliargs::parse_min(
                    "--jobs",
                    args.get(i).map(String::as_str),
                    1,
                    "an integer >= 1",
                )
                .unwrap_or_else(|e| die(&e));
            }
            "--scale" => {
                i += 1;
                scale = cliargs::parse_scale("--scale", args.get(i).map(String::as_str))
                    .unwrap_or_else(|e| die(&e));
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    cliargs::require_value("--json", args.get(i).map(String::as_str), "a path")
                        .map(str::to_string)
                        .unwrap_or_else(|e| die(&e)),
                );
            }
            "--trace" => {
                i += 1;
                trace_path = Some(
                    cliargs::require_value("--trace", args.get(i).map(String::as_str), "a path")
                        .map(str::to_string)
                        .unwrap_or_else(|e| die(&e)),
                );
            }
            "--group-size" => {
                i += 1;
                let expected = format!("integer in 1..={MAX_GROUP_SIZE}");
                let value = args.get(i).map(String::as_str);
                let gs = cliargs::parse_min("--group-size", value, 1, &expected)
                    .unwrap_or_else(|e| die(&e));
                if gs > MAX_GROUP_SIZE {
                    die(&format!(
                        "invalid --group-size '{gs}' (expected {expected})"
                    ));
                }
                group_size = Some(gs);
            }
            flag if flag.starts_with("--") => die(&format!("unrecognized flag '{flag}'")),
            other if which.is_none() => which = Some(other.to_string()),
            extra => die(&format!("unexpected argument '{extra}'")),
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| die("missing experiment name"));

    // The scaling/analysis report: communication-by-data-structure breakdown
    // (attribution-enabled runs), speedup/efficiency curves over a processor
    // sweep with crossover points, and repeat-aware per-step summaries.
    // Emits REPORT_<scale>.json alongside the text tables; `check-json`
    // validates it against the declared record types.
    if which == "report" {
        for (flag, given) in [
            ("--trace", trace_path.is_some()),
            ("--group-size", group_size.is_some()),
            ("--jobs", jobs > 1),
        ] {
            if given {
                die(&format!("{flag} does not apply to 'report'"));
            }
        }
        let t0 = std::time::Instant::now();
        let r = bh_experiments::report::scaling_report(scale);
        for t in &r.tables {
            println!("{t}");
        }
        let report_path = format!("REPORT_{}.json", scale.name());
        std::fs::write(&report_path, &r.json).expect("write report json");
        eprintln!(
            "[wrote {report_path} ({} table(s)) in {:.1}s]",
            r.tables.len(),
            t0.elapsed().as_secs_f64()
        );
        write_tables_json(json_path.as_deref(), &r.tables);
        return;
    }

    let selected: Vec<&Experiment> = match which.as_str() {
        "all" => EXPERIMENTS.iter().collect(),
        "matrix" => experiments::matrix().collect(),
        name => match experiments::find(name) {
            Some(e) => vec![e],
            None => die(&format!(
                "unknown experiment '{which}' (valid: all, matrix, report, {})",
                experiment_names(", ")
            )),
        },
    };
    // Only `treebuild` (the entry without cached runs) traces, and only it
    // takes a group size.
    if selected.iter().all(|e| e.spec.is_some()) {
        if group_size.is_some() {
            die("--group-size only affects the 'treebuild' experiment (or 'all')");
        }
        if trace_path.is_some() {
            die("--trace is only produced by the 'treebuild' experiment (or 'all')");
        }
    }

    // Prewarm the run caches with the sweep scheduler; the serial table
    // generation below then only performs lookups. Progress goes to stderr
    // so the emitted documents stay byte-identical to a --jobs 1 run.
    if jobs > 1 {
        let sched = experiments::prewarm_jobs(selected.iter().copied(), scale);
        if !sched.is_empty() {
            let t = std::time::Instant::now();
            let count = sched.run(jobs);
            eprintln!(
                "[sweep: {count} job(s) across {jobs} scheduler thread(s) in {:.1}s]",
                t.elapsed().as_secs_f64()
            );
        }
    }

    let t0 = std::time::Instant::now();
    let mut tables = Vec::new();
    let mut traced = None;
    for e in &selected {
        match e.spec {
            Some(spec) => tables.push(spec(scale).table(e.id)),
            None => {
                let r = experiments::treebuild(scale, group_size);
                tables.push(r.table.clone());
                traced = Some(r);
            }
        }
    }
    for t in &tables {
        println!("{t}");
    }
    eprintln!(
        "[{} experiment(s) in {:.1}s]",
        tables.len(),
        t0.elapsed().as_secs_f64()
    );
    if let Some(r) = &traced {
        let bench_path = format!("BENCH_{}.json", scale.name());
        std::fs::write(&bench_path, &r.bench_json).expect("write bench json");
        eprintln!("[wrote {bench_path}]");
        if let Some(path) = &trace_path {
            std::fs::write(path, &r.trace_json).expect("write trace json");
            eprintln!("[wrote {path} — open in https://ui.perfetto.dev]");
        }
    }
    write_tables_json(json_path.as_deref(), &tables);
}

/// `--json <path>`: the rendered tables as one array document.
fn write_tables_json(path: Option<&str>, tables: &[bh_experiments::Table]) {
    let Some(path) = path else { return };
    let objects: Vec<String> = tables
        .iter()
        .map(|t| format!("  {}", t.to_json()))
        .collect();
    let mut f = std::fs::File::create(path).expect("create json output");
    writeln!(f, "[\n{}\n]", objects.join(",\n")).expect("write json");
    eprintln!("[wrote {path}]");
}

/// `repro verify` — run the schedule-exploration verification matrix: every
/// algorithm under the controlled scheduler + race detector, across a set of
/// schedules per (algorithm, procs, strategy) cell. Prints one row per cell
/// and a full counterexample report (schedule id, finding, trace tail) for
/// any defect; exits non-zero unless every cell certifies.
fn verify(args: &[String]) {
    use bh_core::prelude::*;
    use bh_core::sched::{mutation, selftest};

    let mut seeds = 10usize;
    let mut procs: Vec<usize> = vec![2];
    let mut exhaustive = false;
    let mut self_test = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds =
                    cliargs::parse_value("--seeds", args.get(i).map(String::as_str), "an integer")
                        .unwrap_or_else(|e| die(&e));
            }
            "--procs" => {
                i += 1;
                let v = cliargs::require_value(
                    "--procs",
                    args.get(i).map(String::as_str),
                    "a comma-separated list like 2,4",
                )
                .unwrap_or_else(|e| die(&e));
                procs = v
                    .split(',')
                    .map(|p| {
                        p.parse::<usize>()
                            .ok()
                            .filter(|p| (1..=8).contains(p))
                            .unwrap_or_else(|| {
                                die(&format!("invalid --procs entry '{p}' (expected 1..=8)"))
                            })
                    })
                    .collect();
            }
            "--exhaustive" => exhaustive = true,
            "--self-test" => self_test = true,
            extra => die(&format!("unexpected argument '{extra}'")),
        }
        i += 1;
    }

    if self_test {
        // Prove the stack detects a known bug: re-introduce the
        // publication-order mutation and require a data-race counterexample.
        println!("verify --self-test: publication-order mutation kernel");
        let clean = selftest::explore_publication_kernel();
        mutation::set_early_forward_flush(true);
        let mutant = selftest::explore_publication_kernel();
        mutation::set_early_forward_flush(false);
        println!(
            "  baseline: {} schedule(s), {} defect(s), complete={}",
            clean.schedules, clean.defects, clean.complete
        );
        println!(
            "  mutant:   {} schedule(s), {} defect(s)",
            mutant.schedules, mutant.defects
        );
        if let Some(ce) = mutant.counterexamples.first() {
            print!("{ce}");
        }
        if !(clean.certified() && clean.complete) {
            eprintln!("verify: FAILED — baseline kernel did not certify");
            std::process::exit(1);
        }
        if mutant.defects == 0 {
            eprintln!("verify: FAILED — mutation survived undetected: the explorer has regressed");
            std::process::exit(1);
        }
        println!("verify --self-test: OK (mutation detected, baseline certified)");
        return;
    }

    let mut spec = MatrixSpec::fast(seeds);
    spec.procs = procs;
    if exhaustive {
        spec.plans.push(ExplorePlan::Exhaustive {
            preemption_bound: 1,
            max_schedules: 400,
        });
    }

    let t0 = std::time::Instant::now();
    let cells = bh_core::sched::verify_matrix(&spec);
    println!(
        "{:<8} {:>5}  {:<16} {:>9} {:>7} {:>9} {:>10}  result",
        "algo", "procs", "plan", "schedules", "defects", "decisions", "max-ops"
    );
    let mut failed = 0usize;
    for cell in &cells {
        let e = &cell.exploration;
        let result = if e.certified() { "ok" } else { "FAIL" };
        println!(
            "{:<8} {:>5}  {:<16} {:>9} {:>7} {:>9} {:>10}  {}",
            format!("{:?}", cell.algorithm),
            cell.procs,
            cell.plan,
            e.schedules,
            e.defects,
            e.max_decisions,
            e.max_ops,
            result
        );
        if !e.certified() {
            failed += 1;
            for ce in &e.counterexamples {
                print!("{ce}");
            }
            if !e.lock_cycles.is_empty() {
                println!("  lock-order cycles: {:?}", e.lock_cycles);
            }
        }
    }
    let schedules: usize = cells.iter().map(|c| c.exploration.schedules).sum();
    eprintln!(
        "[{} cell(s), {} schedule(s) in {:.1}s]",
        cells.len(),
        schedules,
        t0.elapsed().as_secs_f64()
    );
    if failed > 0 {
        eprintln!("verify: FAILED — {failed} cell(s) did not certify");
        std::process::exit(1);
    }
    println!("verify: OK — all {} cell(s) certified", cells.len());
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// Validate an experiment-table, BENCH or REPORT document: well-formed
/// JSON, a non-empty array of objects. Table dumps are keyed by `id`; a
/// record with an `experiment` field must match its declaration in
/// [`records::RECORD_TYPES`] — any other `experiment` value is an error.
/// The `report_comm` breakdown is re-checked for the tiling property from
/// the document alone.
fn check_json(path: &str) {
    let doc = load(path);
    let items = doc
        .as_array()
        .unwrap_or_else(|| die(&format!("{path}: top level is not an array")));
    if items.is_empty() {
        die(&format!("{path}: empty document"));
    }
    for (i, item) in items.iter().enumerate() {
        if item.get("experiment").is_some() {
            records::validate(item).unwrap_or_else(|e| die(&format!("{path}: record {i}: {e}")));
        } else if item.get("id").is_none() {
            die(&format!(
                "{path}: record {i} has neither an \"experiment\" nor an \"id\" field"
            ));
        }
    }
    records::check_comm_tiling(items).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    println!("{path}: OK ({} record(s))", items.len());
}

/// Verify two experiment-table documents describe the same report: equal
/// table ids, titles, headers, row counts and row labels (first column).
/// This is the cross-`--jobs` matrix gate: numeric cells of multi-processor
/// simulated runs jitter run to run, but the *structure* — which
/// experiments, configurations and series were computed — must be invariant
/// under the sweep scheduler.
fn check_same(path_a: &str, path_b: &str) {
    let a = load(path_a);
    let b = load(path_b);
    let tables_a = a
        .as_array()
        .unwrap_or_else(|| die(&format!("{path_a}: top level is not an array")));
    let tables_b = b
        .as_array()
        .unwrap_or_else(|| die(&format!("{path_b}: top level is not an array")));
    if tables_a.len() != tables_b.len() {
        die(&format!(
            "{path_a} has {} table(s) but {path_b} has {}",
            tables_a.len(),
            tables_b.len()
        ));
    }
    let str_field = |t: &Json, field: &str, path: &str, i: usize| -> String {
        t.get(field)
            .and_then(Json::as_str)
            .unwrap_or_else(|| die(&format!("{path}: table {i} lacks \"{field}\"")))
            .to_string()
    };
    let rows_of = |t: &Json, path: &str, i: usize| -> Vec<Vec<String>> {
        t.get("rows")
            .and_then(Json::as_array)
            .unwrap_or_else(|| die(&format!("{path}: table {i} lacks \"rows\"")))
            .iter()
            .map(|r| {
                r.as_array()
                    .unwrap_or_else(|| die(&format!("{path}: table {i} has a non-array row")))
                    .iter()
                    .map(|c| c.as_str().unwrap_or("").to_string())
                    .collect()
            })
            .collect()
    };
    for (i, (ta, tb)) in tables_a.iter().zip(tables_b).enumerate() {
        for field in ["id", "title"] {
            let (va, vb) = (
                str_field(ta, field, path_a, i),
                str_field(tb, field, path_b, i),
            );
            if va != vb {
                die(&format!("table {i}: {field} differs: \"{va}\" vs \"{vb}\""));
            }
        }
        let id = str_field(ta, "id", path_a, i);
        if ta.get("headers") != tb.get("headers") {
            die(&format!("{id}: headers differ"));
        }
        let (ra, rb) = (rows_of(ta, path_a, i), rows_of(tb, path_b, i));
        if ra.len() != rb.len() {
            die(&format!("{id}: {} row(s) vs {}", ra.len(), rb.len()));
        }
        for (j, (rowa, rowb)) in ra.iter().zip(&rb).enumerate() {
            if rowa.len() != rowb.len() {
                die(&format!("{id} row {j}: column counts differ"));
            }
            if rowa.first() != rowb.first() {
                die(&format!(
                    "{id} row {j}: label differs: {:?} vs {:?}",
                    rowa.first(),
                    rowb.first()
                ));
            }
        }
    }
    println!(
        "{path_a} and {path_b}: same report structure ({} table(s))",
        tables_a.len()
    );
}

/// Validate a Chrome trace-event document: well-formed JSON, nonzero
/// complete-event spans, every declared process has one thread track per
/// processor (the `num_procs` metadata arg), and all four phases appear.
fn check_trace(path: &str) {
    let doc = load(path);
    let events = doc
        .as_array()
        .unwrap_or_else(|| die(&format!("{path}: top level is not an array")));

    let mut declared_procs: HashMap<i64, f64> = HashMap::new();
    let mut tids_by_pid: HashMap<i64, HashSet<i64>> = HashMap::new();
    let mut span_count = 0usize;
    let mut phases_seen: HashSet<String> = HashSet::new();
    for e in events {
        let pid = e.get("pid").and_then(Json::as_f64).map(|p| p as i64);
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => {
                let pid = pid.unwrap_or_else(|| die(&format!("{path}: metadata without pid")));
                if e.get("name").and_then(Json::as_str) == Some("process_name") {
                    let n = e
                        .get("args")
                        .and_then(|a| a.get("num_procs"))
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| die(&format!("{path}: process {pid} lacks num_procs")));
                    declared_procs.insert(pid, n);
                }
                if e.get("name").and_then(Json::as_str) == Some("thread_name") {
                    let tid = e.get("tid").and_then(Json::as_f64).map(|t| t as i64);
                    tids_by_pid.entry(pid).or_default().extend(tid);
                }
            }
            Some("X") => {
                span_count += 1;
                if let Some(name) = e.get("name").and_then(Json::as_str) {
                    if !name.starts_with("lock ") {
                        phases_seen.insert(name.to_string());
                    }
                }
            }
            _ => {}
        }
    }

    if span_count == 0 {
        die(&format!("{path}: no complete-event spans"));
    }
    if declared_procs.is_empty() {
        die(&format!("{path}: no process_name metadata"));
    }
    for (pid, n) in &declared_procs {
        let tracks = tids_by_pid.get(pid).map_or(0, HashSet::len);
        if tracks != *n as usize {
            die(&format!(
                "{path}: process {pid} declares {n} processors but has {tracks} thread track(s)"
            ));
        }
    }
    for phase in ["tree", "partition", "force", "update"] {
        if !phases_seen.contains(phase) {
            die(&format!("{path}: no '{phase}' phase spans"));
        }
    }
    println!(
        "{path}: OK ({span_count} span(s), {} process track(s))",
        declared_procs.len()
    );
}
