//! `probe` — run a single (platform, algorithm, n, procs) configuration and
//! dump the full per-phase and per-processor diagnostics. Calibration and
//! debugging aid for the cost models.
//!
//! ```text
//! probe <platform|native> <algorithm> <n> <procs>
//!       [--scale tiny|small|full] [--trace <path>] [--attr]
//! ```
//!
//! `--scale` applies the same scaling `repro` applies to the paper's
//! configurations: `n` is divided per the scale (`tiny` = /64, `small` = /8)
//! and `procs` capped for `tiny` — so a paper-sized configuration can be
//! pasted verbatim and shrunk with one flag.
//!
//! With `--trace`, the run is instrumented with [`TraceEnv`] and a
//! Chrome/Perfetto trace (one track per processor, spans for all four
//! phases plus contended lock acquires) is written to `<path>`, and the
//! trace summary plus per-step percentile tables are printed after the
//! per-processor diagnostics. Native timestamps are wall-clock; simulated
//! ones are platform cycles.
//!
//! With `--attr` (simulated platforms only), the machine runs with
//! attribution enabled and the per-region communication breakdown is
//! printed: misses, faults, invalidations and lock waits charged to the
//! shared data structure they hit.

use bh_core::force::MAX_GROUP_SIZE;
use bh_core::prelude::*;
use bh_experiments::{cliargs, ExperimentScale};
use ssmp::{platform, AttrTable, CostModel, Machine};

/// Apply one `PROBE_<FIELD>` calibration override to the cost model.
fn set_override(cost: &mut CostModel, key: &str, v: u64) {
    match key {
        "PROBE_NOTICE" => cost.t_notice = v,
        "PROBE_OCCUPANCY" => cost.t_fault_occupancy = v,
        "PROBE_FAULT" => cost.t_page_fault = v,
        "PROBE_CHECK" => cost.t_check = v,
        "PROBE_TWIN" => cost.t_twin = v,
        "PROBE_DIFF" => cost.t_diff = v,
        "PROBE_LOCK_TRANSFER" => cost.t_lock_transfer = v,
        "PROBE_LOCK" => cost.t_lock = v,
        other => unreachable!("unknown probe override {other}"),
    }
}

/// The accepted algorithm names, for the usage banner and parse errors.
fn algorithm_names() -> String {
    Algorithm::ALL
        .iter()
        .map(|a| a.name())
        .collect::<Vec<_>>()
        .join("|")
}

/// Print a specific diagnostic plus the usage banner, then exit non-zero.
fn die(msg: &str) -> ! {
    eprintln!("probe: {msg}");
    eprintln!(
        "usage: probe <platform|native> <algorithm> <n> <procs> \
         [--scale {}] [--trace <path>] [--attr] [--group-size <N>]\n\
         algorithms: {}",
        ExperimentScale::NAMES.join("|"),
        algorithm_names()
    );
    std::process::exit(2);
}

/// Run traced, print the summaries, write the Chrome trace to `path`, and
/// hand the environment back so the caller can keep inspecting it.
fn run_traced<E: Env>(
    env: E,
    cfg: &SimConfig,
    bodies: &[Body],
    path: &str,
    label: &str,
    unit: &str,
    ts_div: f64,
) -> (RunStats, TraceEnv<E>) {
    let traced = TraceEnv::new(env);
    let stats = run_simulation(&traced, cfg, bodies);
    std::fs::write(path, traced.chrome_trace_json(label, ts_div)).expect("write trace");
    eprintln!("[wrote {path} — open in https://ui.perfetto.dev]");
    println!("{}", traced.summary(unit));
    println!("per-step percentiles (all steps incl. warm-up):");
    println!("{}", traced.step_summary(unit));
    (stats, traced)
}

/// Print the per-region attribution breakdown of an attributed machine.
fn print_attribution(machine: &Machine) {
    let tables = machine
        .attribution()
        .expect("attribution was enabled on this machine");
    let mut sum = AttrTable::new();
    for t in &tables {
        sum.accumulate(t);
    }
    println!("per-region attribution (whole run, summed over processors):");
    println!(
        "  {:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "region", "local", "remote", "faults", "inval", "locks", "lockwait"
    );
    for region in Region::ALL {
        let c = sum.region_total(region);
        if !c.is_zero() {
            println!(
                "  {:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
                region.name(),
                c.local_misses,
                c.remote_misses,
                c.page_faults,
                c.invalidations,
                c.lock_acquires,
                c.lock_wait
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut scale: Option<ExperimentScale> = None;
    let mut attr = false;
    let mut group_size: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                i += 1;
                trace_path = Some(
                    cliargs::require_value("--trace", args.get(i).map(String::as_str), "a path")
                        .map(str::to_string)
                        .unwrap_or_else(|e| die(&e)),
                );
            }
            "--scale" => {
                i += 1;
                scale = Some(
                    cliargs::parse_scale("--scale", args.get(i).map(String::as_str))
                        .unwrap_or_else(|e| die(&e)),
                );
            }
            "--attr" => attr = true,
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
            other if positional.len() < 4 => positional.push(other.to_string()),
            extra => die(&format!("unexpected argument '{extra}'")),
        }
        i += 1;
    }
    if positional.len() != 4 {
        die(&format!(
            "expected 4 positional arguments (platform algorithm n procs), got {}",
            positional.len()
        ));
    }
    let alg = Algorithm::parse(&positional[1]).unwrap_or_else(|| {
        die(&format!(
            "unknown algorithm '{}' (valid: {})",
            positional[1],
            algorithm_names()
        ))
    });
    let mut n: usize =
        cliargs::parse_positional("n", &positional[2], "a body count").unwrap_or_else(|e| die(&e));
    let mut procs: usize = cliargs::parse_positional("procs", &positional[3], "a processor count")
        .unwrap_or_else(|e| die(&e));
    if let Some(s) = scale {
        n = s.size(n);
        procs = s.procs(procs);
    }
    let bodies = Model::Plummer.generate(n, 1998);
    let mut cfg = SimConfig::new(alg);
    if let Some(gs) = group_size {
        cfg.group_size = gs;
    }
    let label = format!("{} {alg}", positional[0]);

    let stats = if positional[0] == "native" {
        if attr {
            die("--attr needs a simulated platform (the native machine has no protocol to attribute)");
        }
        let env = NativeEnv::new(procs);
        match &trace_path {
            // Native timestamps are nanoseconds; /1000 puts them on the
            // trace viewer's microsecond axis.
            Some(path) => run_traced(env, &cfg, &bodies, path, &label, "ns", 1000.0).0,
            None => run_simulation(&env, &cfg, &bodies),
        }
    } else {
        let mut cost = platform::by_name(&positional[0], procs)
            .unwrap_or_else(|| die(&format!("unknown platform '{}'", positional[0])));
        // Calibration overrides: PROBE_<FIELD>=value.
        for key in [
            "PROBE_NOTICE",
            "PROBE_OCCUPANCY",
            "PROBE_FAULT",
            "PROBE_CHECK",
            "PROBE_TWIN",
            "PROBE_DIFF",
            "PROBE_LOCK_TRANSFER",
            "PROBE_LOCK",
        ] {
            if let Ok(v) = std::env::var(key) {
                set_override(&mut cost, key, v.parse().expect(key));
            }
        }
        let mut machine = Machine::new(cost, procs);
        if attr {
            machine = machine.with_attribution();
        }
        match &trace_path {
            // Simulated clocks tick in cycles; render one cycle per µs.
            Some(path) => {
                let (stats, traced) =
                    run_traced(machine, &cfg, &bodies, path, &label, "cycles", 1.0);
                if attr {
                    print_attribution(traced.inner());
                }
                stats
            }
            None => {
                let stats = run_simulation(&machine, &cfg, &bodies);
                if attr {
                    print_attribution(&machine);
                }
                stats
            }
        }
    };
    stats.assert_valid();

    println!(
        "platform={} alg={} n={} procs={}",
        positional[0], alg, n, procs
    );
    println!(
        "total={} tree={} ({:.1}%) force={}",
        stats.total_time(),
        stats.tree_time(),
        100.0 * stats.tree_fraction(),
        stats.force_time(),
    );
    if stats.force_groups() > 0 {
        println!(
            "force lists: groups={} entries={} interactions={} len={:.1} reuse={:.2}",
            stats.force_groups(),
            stats.force_list_entries(),
            stats.force_interactions(),
            stats.force_list_len(),
            stats.force_list_reuse(),
        );
    }
    println!("per-proc (measured steps):");
    for r in &stats.procs_records {
        let tree: u64 = r.steps.iter().map(|s| s.tree).sum();
        let part: u64 = r.steps.iter().map(|s| s.partition).sum();
        let force: u64 = r.steps.iter().map(|s| s.force).sum();
        let upd: u64 = r.steps.iter().map(|s| s.update).sum();
        let f = &r.final_stats;
        println!(
            "  P{:<2} tree={:>12} part={:>10} force={:>12} upd={:>10} | tlocks={:<5} tlockwait={:<11} tremote={:<7} tfaults={:<6} | locks={:<6} barrwait={:<12} faults={:<8} remote={:<9} local={}",
            r.proc, tree, part, force, upd, r.tree_locks, r.tree_lock_wait, r.tree_remote_misses, r.tree_page_faults, f.lock_acquires, f.barrier_wait, f.page_faults, f.remote_misses, f.local_misses
        );
    }
    println!("per-phase totals (measured steps, counters summed / time maxed):");
    for phase in Phase::ALL {
        let s = stats.phase_stats(phase);
        println!(
            "  {:<9} time={:>12} locks={:<6} lockwait={:<11} barrwait={:<12} remote={:<9} faults={}",
            phase.name(),
            s.time,
            s.lock_acquires,
            s.lock_wait,
            s.barrier_wait,
            s.remote_misses,
            s.page_faults
        );
    }
}
