//! `repro` — regenerate the tables and figures of Shan & Singh (IPPS 1998),
//! or run one configuration with every diagnostic.
//!
//! ```text
//! repro <experiment|all|matrix> [--scale tiny|small|full] [--jobs <N>]
//!       [--json <path>] [--trace <path>] [--group-size <N>]
//! repro report [--scale <scale>] [--jobs <N>] [--json <path>]
//! repro run <platform|native> <algorithm> <n> <procs> [--scale <scale>]
//!       [--trace <path>] [--group-size <N>] [--json <path>]
//! repro check-json <path>
//! repro check-trace <path>
//! repro check-same <a> <b>
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
//! Under each table of the paper, one line per claim of the figure
//! (`claims`): its outcome over the table's runs, the reading behind it and
//! the verdict recorded at that scale. After printing, `repro` exits 1,
//! naming the claims, when an outcome at `tiny` or `small` differs from its
//! recording in either direction (a claim recorded `varies` is not gated);
//! `full` has no recording and only prints.
//!
//! `matrix` runs every table and figure of the paper (every experiment but
//! `treebuild`, which writes BENCH records rather than a table of a grid).
//!
//! Every simulated run, of any subcommand, is an entry of one process-wide
//! memo (`runner`). `--jobs N` prewarms it (`runner::prewarm`): the
//! deduplicated (platform, algorithm, n, procs, group size) runs of the
//! selected experiments, or of the report's grid, are simulated across N
//! threads, then the tables are generated serially from the memo. The
//! prewarm changes wall-clock time only, never which configurations are
//! computed. Single-processor experiments (`table1`) are bitwise
//! deterministic, so their output is byte-identical across any `--jobs`
//! setting; multi-processor simulated timings carry run-to-run jitter (real
//! thread interleaving feeds the contention model), for which `check-same`
//! verifies structural equality of two documents.
//!
//! The `treebuild` experiment (also part of `all`) reads every algorithm's
//! run on a simulated Origin2000 from the memo, with its per-lock-id
//! contention histogram, emits `BENCH_<scale>.json` with per-algorithm
//! simulated tree-build metrics (host time is `bhbench`'s job, see
//! `bench/README.md`), and — with `--trace <path>` — writes a
//! Chrome/Perfetto trace with one track per processor.
//!
//! `run` runs one configuration (`experiments::run`): on a simulated
//! platform (times in cycles; one memo entry) or, with `native`, on the
//! host (wall-clock nanoseconds). It prints the per-phase totals, the
//! force-list counts and a row per processor, and on a simulated platform
//! the lock histogram's cells and the communication breakdown by data
//! structure. `--scale` shrinks `n` and `procs` as it shrinks the paper's
//! configurations, so one can be pasted verbatim; `--trace` writes the
//! run's Chrome/Perfetto trace and prints its summary and per-step
//! percentiles.
//!
//! `check-json` / `check-trace` validate previously emitted documents; the
//! pre-merge gate uses them as schema sanity checks.

use bh_core::algorithms::Algorithm;
use bh_core::force::MAX_GROUP_SIZE;
use bh_experiments::cliargs;
use bh_experiments::experiments::{self, Experiment, EXPERIMENTS};
use bh_experiments::json::Json;
use bh_experiments::records;
use bh_experiments::report;
use bh_experiments::runner::{self, ExperimentScale};
use std::io::Write;

fn usage_text() -> String {
    format!(
        "usage: repro <experiment|all|matrix> [--scale {}] [--jobs <N>] [--json <path>] [--trace <path>] [--group-size <N>]\n\
         \x20      repro report [--scale <scale>] [--jobs <N>] [--json <path>]\n\
         \x20      repro run <platform|native> <algorithm> <n> <procs> [--scale <scale>] [--trace <path>] [--group-size <N>] [--json <path>]\n\
         \x20      repro check-json <path>\n\
         \x20      repro check-trace <path>\n\
         \x20      repro check-same <a> <b>\n\
         experiments: {}\n\
         exit 1: a claim's outcome at tiny or small differs from its recording",
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

/// The value of a parsed argument, or its diagnostic and the usage banner.
fn ok<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| die(&e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();

    // Validation subcommands: exercise the JSON reader against emitted files.
    match args[..] {
        ["check-json", path] => return check_json(path),
        ["check-trace", path] => return check_trace(path),
        ["check-same", a, b] => return check_same(a, b),
        [command @ ("check-json" | "check-trace" | "check-same"), ..] => {
            die(&format!("wrong number of arguments to {command}"))
        }
        _ => {}
    }

    let mut positional: Vec<&str> = Vec::new();
    let mut scale: Option<ExperimentScale> = None;
    let mut jobs: Option<usize> = None;
    let mut json_path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut group_size: Option<usize> = None;
    let mut rest = args.into_iter();
    while let Some(arg) = rest.next() {
        match arg {
            "--jobs" => jobs = Some(ok(cliargs::parse_in(arg, rest.next(), 1..=usize::MAX))),
            "--scale" => scale = Some(ok(cliargs::parse_scale(arg, rest.next()))),
            "--json" => json_path = Some(ok(cliargs::require_value(arg, rest.next(), "a path"))),
            "--trace" => trace_path = Some(ok(cliargs::require_value(arg, rest.next(), "a path"))),
            "--group-size" => {
                group_size = Some(ok(cliargs::parse_in(arg, rest.next(), 1..=MAX_GROUP_SIZE)));
            }
            flag if flag.starts_with("--") => die(&format!("unrecognized flag '{flag}'")),
            other => positional.push(other),
        }
    }
    let Some((&which, rest)) = positional.split_first() else {
        die("missing experiment name")
    };
    // A flag the command would ignore is refused by name.
    let refuse = |command: &str, flags: &[(&str, bool)]| {
        if let Some((flag, _)) = flags.iter().find(|(_, given)| *given) {
            die(&format!("{flag} does not apply to '{command}'"));
        }
    };

    if which == "run" {
        refuse("run", &[("--jobs", jobs.is_some())]);
        run(rest, scale, group_size, trace_path, json_path);
        return;
    }
    if let Some(extra) = rest.first() {
        die(&format!("unexpected argument '{extra}'"));
    }
    let scale = scale.unwrap_or(ExperimentScale::Small);

    // The scaling/analysis report, one grid of runs: communication-by-data-
    // structure breakdown, speedup/efficiency curves over a processor sweep
    // with crossover points, and per-step summaries of the same runs.
    // Emits REPORT_<scale>.json alongside the text tables; `check-json`
    // validates it against the declared record types.
    if which == "report" {
        refuse(
            "report",
            &[
                ("--trace", trace_path.is_some()),
                ("--group-size", group_size.is_some()),
            ],
        );
        let grid = report::grid(scale);
        prewarm(grid.runs(), jobs);
        let t0 = std::time::Instant::now();
        let r = report::scaling_report(scale, &grid);
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
        write_tables_json(json_path, &r.tables);
        return;
    }

    let selected: Vec<&Experiment> = match which {
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
    // Only `treebuild` (the entry without a table spec) traces, and only it
    // takes a group size.
    if selected.iter().all(|e| e.spec.is_some()) {
        if group_size.is_some() {
            die("--group-size only affects the 'treebuild' experiment (or 'all')");
        }
        if trace_path.is_some() {
            die("--trace is only produced by the 'treebuild' experiment (or 'all')");
        }
    }

    prewarm(
        experiments::prewarm_jobs(selected.iter().copied(), scale, group_size),
        jobs,
    );

    let t0 = std::time::Instant::now();
    let mut tables = Vec::new();
    let mut traced = None;
    let mut differing = Vec::new();
    for e in &selected {
        match e.spec {
            Some(spec) => {
                let spec = spec(scale);
                let table = spec.table(e.id);
                print!("{table}");
                for (claim, (line, differs)) in spec.claims.iter().zip(spec.check(scale)) {
                    println!("{line}");
                    if differs {
                        differing.push(format!("{}: {}", e.id, claim.text));
                    }
                }
                println!();
                tables.push(table);
            }
            None => {
                let r = experiments::treebuild(scale, group_size);
                println!("{}", r.table);
                tables.push(r.table.clone());
                traced = Some(r);
            }
        }
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
        if let Some(path) = trace_path {
            std::fs::write(path, &r.trace_json).expect("write trace json");
            eprintln!("[wrote {path} — open in https://ui.perfetto.dev]");
        }
    }
    write_tables_json(json_path, &tables);
    if !differing.is_empty() {
        eprintln!(
            "repro: {} claim(s) differ from their recording at {}:",
            differing.len(),
            scale.name()
        );
        for claim in &differing {
            eprintln!("  {claim}");
        }
        std::process::exit(1);
    }
}

/// `--jobs N` (N > 1): fill the run memo with `runs` across N threads, so
/// the serial table generation that follows only performs lookups. Progress
/// goes to stderr so the emitted documents stay byte-identical to a
/// `--jobs 1` run.
fn prewarm(runs: Vec<runner::Run>, jobs: Option<usize>) {
    let Some(jobs) = jobs.filter(|&j| j > 1) else {
        return;
    };
    let t = std::time::Instant::now();
    let count = runner::prewarm(runs, jobs);
    if count > 0 {
        eprintln!(
            "[sweep: {count} job(s) across {jobs} thread(s) in {:.1}s]",
            t.elapsed().as_secs_f64()
        );
    }
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

/// `repro run <platform|native> <algorithm> <n> <procs>`: check every
/// argument, then run the configuration and print its tables.
fn run(
    args: &[&str],
    scale: Option<ExperimentScale>,
    group_size: Option<usize>,
    trace_path: Option<&str>,
    json_path: Option<&str>,
) {
    let &[target, alg, n, procs] = args else {
        die(&format!(
            "run needs 4 arguments (platform algorithm n procs), got {}",
            args.len()
        ))
    };
    let alg = Algorithm::parse(alg).unwrap_or_else(|| {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        die(&format!(
            "unknown algorithm '{alg}' (valid: {})",
            names.join(", ")
        ))
    });
    let n = ok(cliargs::parse_in("n", Some(n), 1..=usize::MAX));
    let procs = ok(cliargs::parse_in("procs", Some(procs), 1..=ssmp::MAX_PROCS));
    let (n, procs) = scale.map_or((n, procs), |s| (s.size(n), s.procs(procs)));
    let r = ok(experiments::run(target, alg, n, procs, group_size));
    for t in &r.tables {
        println!("{t}");
    }
    if let Some(path) = trace_path {
        std::fs::write(path, &r.trace_json).expect("write trace json");
        eprintln!("[wrote {path} — open in https://ui.perfetto.dev]");
        println!("{}", r.trace_summary);
    }
    write_tables_json(json_path, &r.tables);
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// Validate an experiment-table, BENCH or REPORT document with
/// [`records::check_json`].
fn check_json(path: &str) {
    let summary = records::check_json(&load(path)).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    println!("{path}: OK ({summary})");
}

/// Verify two experiment-table documents describe the same report with
/// [`records::check_same`].
fn check_same(path_a: &str, path_b: &str) {
    let (a, b) = (load(path_a), load(path_b));
    let summary = records::check_same(&a, &b, [path_a, path_b]).unwrap_or_else(|e| die(&e));
    println!("{path_a} and {path_b}: {summary}");
}

/// Validate a Chrome trace-event document with [`records::check_trace`].
fn check_trace(path: &str) {
    let summary =
        records::check_trace(&load(path)).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    println!("{path}: OK ({summary})");
}
