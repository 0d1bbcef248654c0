//! `bhbench`: a four-workload, layer-by-layer benchmark of bh-core, ssmp
//! and bh-serve. See `bench/README.md`.
//!
//! ```text
//! bhbench --workload W --seed S --seconds T --trace 0|1   one run; last line is its JSON
//! bhbench run   [--workload W] [--seed S] [--seconds T] [--out DIR]
//! bhbench trace [--workload W] [--seed S] [--seconds T] [--out DIR]
//! bhbench agree <setA-dir> <setB-dir>
//! ```

mod agree;
mod micro;
mod run;
mod spec;
mod stage;
mod stats;
mod trace;
mod workloads {
    pub mod native_step;
    pub mod native_treebuild;
    pub mod serve_mixed;
    pub mod sim_platforms;
}

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Args, Checks, Metric, Outcome, Workload};
use spec::{Declared, Spec};
use workloads::native_step::NativeStep;
use workloads::native_treebuild::NativeTreebuild;
use workloads::serve_mixed::ServeMixed;
use workloads::sim_platforms::SimPlatforms;

const USAGE: &str = "usage:
  bhbench --workload W --seed S --seconds T --trace 0|1
  bhbench run|trace [--workload W] [--seed S] [--seconds T] [--out DIR]
  bhbench agree <setA-dir> <setB-dir>
workloads: native-step native-treebuild sim-platforms serve-mixed";

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    Ok(match name {
        NativeStep::NAME => run::run::<NativeStep>(args),
        NativeTreebuild::NAME => run::run::<NativeTreebuild>(args),
        SimPlatforms::NAME => run::run::<SimPlatforms>(args),
        ServeMixed::NAME => run::run::<ServeMixed>(args),
        _ => {
            return Err(format!(
                "BENCHMARK.json names workload {name}, bhbench has none"
            ))
        }
    })
}

/// Exactly the metrics `declared` lists, in that order. A per-layer metric
/// this workload does not measure reads 0; a per-layer metric measured but
/// not declared, in its unit, is an error.
fn declared_metrics(
    outcome: &Outcome,
    declared: &[Declared],
    per_layer: bool,
) -> Result<Vec<Metric>, String> {
    let is_declared = |m: &&Metric| {
        declared
            .iter()
            .any(|d| d.name == m.name && d.unit == m.unit)
    };
    if let Some(m) = outcome
        .metrics
        .iter()
        .find(|m| per_layer && !is_declared(m))
    {
        return Err(format!(
            "measured {} [{}] is not declared in BENCHMARK.json",
            m.name, m.unit
        ));
    }
    declared
        .iter()
        .map(
            |d| match outcome.metrics.iter().find(|m| m.name == d.name) {
                Some(m) => Ok(m.clone()),
                None if per_layer => Ok(run::metric(&d.name, 0.0, &d.unit)),
                None => Err(format!("end-to-end metric {} was not measured", d.name)),
            },
        )
        .collect()
}

/// A run's result as the one line the driver reads and `agree` reads back.
fn result_line(checks: &Checks, metrics: &[Metric]) -> Result<String, String> {
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is {}", m.name, m.value));
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted,
        checks.failures.len(),
        fields.join(", ")
    ))
}

fn report_failures(workload: &str, outcome: &Outcome) {
    for failure in outcome.checks.failures.iter().take(10) {
        eprintln!("{workload}: FAILED {failure}");
    }
}

/// The flags: which workload (all of them when none is named) and how to
/// run it.
fn parse_flags(flags: &[String], spec: &Spec) -> Result<(Option<String>, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1998,
        seconds: spec.run_seconds,
        trace: false,
        out: PathBuf::from("bench/out"),
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if spec.workloads.contains(value) => workload = Some(value.clone()),
            "--workload" => return Err(bad()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, args))
}

/// `run` and `trace`: every workload (or one), each metric on its own line
/// as `workload/name value unit`, a result file per workload, and one line
/// of pass or fail for the checks.
fn human(only: Option<&String>, args: &Args, spec: &Spec) -> Result<bool, String> {
    let mut all_passed = true;
    for workload in spec
        .workloads
        .iter()
        .filter(|w| only.is_none_or(|only| only == *w))
    {
        let outcome = run_workload(workload, args)?;
        for Metric { name, value, unit } in &outcome.metrics {
            println!("{workload}/{name} {value} {unit}");
        }
        report_failures(workload, &outcome);
        let checks = &outcome.checks;
        let verdict = if checks.failures.is_empty() {
            "pass"
        } else {
            "FAIL"
        };
        println!(
            "{workload}: checks {verdict} ({} ops attempted, {} failed)",
            checks.attempted,
            checks.failures.len()
        );
        all_passed &= checks.failures.is_empty();
        let file = format!(
            "{workload}.t{}.s{}.{}.json",
            u8::from(args.trace),
            args.seed,
            std::process::id()
        );
        let path = args.out.join(file);
        std::fs::write(
            &path,
            result_line(&outcome.checks, &outcome.metrics)? + "\n",
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_passed)
}

/// The driver's command line: one run of one workload, its declared
/// metrics as the last line of standard output.
fn contract(workload: Option<&String>, args: &Args, spec: &Spec) -> Result<bool, String> {
    let workload = workload.ok_or("--workload is required")?;
    let outcome = run_workload(workload, args)?;
    report_failures(workload, &outcome);
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = declared_metrics(&outcome, declared, args.trace)?;
    println!("{}", result_line(&outcome.checks, &metrics)?);
    // A failed check is reported in the line, not by the exit code.
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let done = match argv.first().map(String::as_str) {
        Some("agree") if argv.len() == 3 => {
            agree::agree(&spec, Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some(sub @ ("run" | "trace")) => {
            parse_flags(&argv[1..], &spec).and_then(|(workload, mut args)| {
                args.trace = sub == "trace";
                human(workload.as_ref(), &args, &spec)
            })
        }
        Some(flag) if flag.starts_with("--") => parse_flags(&argv, &spec)
            .and_then(|(workload, args)| contract(workload.as_ref(), &args, &spec)),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bhbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn well_formed(text: &str, max: usize, extra: &str) -> bool {
        !text.is_empty()
            && text.len() <= max
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn declared_names_and_units_keep_to_the_charset() {
        let spec = Spec::load();
        let declared: Vec<&Declared> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
        assert!(
            (1..=16).contains(&spec.end_to_end.len()) && (1..=128).contains(&spec.per_layer.len())
        );
        for d in &declared {
            assert!(well_formed(&d.name, 64, "_.-"), "name {:?}", d.name);
            assert!(
                d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "name {:?}",
                d.name
            );
            assert!(
                well_formed(&d.unit, 16, "_/%.-"),
                "unit {:?} of {}",
                d.unit,
                d.name
            );
            assert!(
                d.better == "lower" || d.better == "higher",
                "better of {}",
                d.name
            );
        }
        let mut names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        names.extend(spec.workloads.iter().map(String::as_str));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for d in &spec.end_to_end {
            assert!(
                d.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                "bound of {}",
                d.name
            );
        }
        assert!(spec
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    /// One cycle of every workload in both modes: what the runs print is
    /// what `BENCHMARK.json` declares, nothing missing and nothing extra.
    /// One test, so that the workloads run one after the other.
    #[test]
    fn a_smoke_run_emits_exactly_the_declared_metrics() {
        let spec = Spec::load();
        let out =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let mut layers_seen: BTreeMap<String, String> = BTreeMap::new();
        for workload in &spec.workloads {
            for trace in [false, true] {
                let args = Args {
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    out: out.clone(),
                };
                let outcome = run_workload(workload, &args).expect("a declared workload exists");
                assert_eq!(
                    outcome.checks.failures,
                    Vec::<String>::new(),
                    "{workload} trace={trace}"
                );
                assert!(outcome.checks.attempted > 0);
                let declared = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let metrics =
                    declared_metrics(&outcome, declared, trace).expect("the declared metrics");
                let line = result_line(&outcome.checks, &metrics).expect("the run's line");
                let doc = bh_serve::json::Json::parse(&line).expect("the line is JSON");
                let Some(bh_serve::json::Json::Obj(printed)) = doc.get("metrics") else {
                    panic!("no metrics in {line}");
                };
                let printed: Vec<&str> = printed.iter().map(|(name, _)| name.as_str()).collect();
                let wanted: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
                assert_eq!(printed, wanted, "{workload} trace={trace}");

                // No two timings of one workload are the same sample vector
                // under two names: two measured times never agree to the bit.
                let times: Vec<&Metric> = outcome
                    .metrics
                    .iter()
                    .filter(|m| ["s", "ms", "us", "ns"].contains(&m.unit.as_str()))
                    .collect();
                for (i, a) in times.iter().enumerate() {
                    assert!(
                        a.value.is_finite() && a.value != 0.0,
                        "{workload}/{} is {}",
                        a.name,
                        a.value
                    );
                    for b in &times[..i] {
                        assert_ne!(
                            a.value, b.value,
                            "{workload}: {} aliases {}",
                            a.name, b.name
                        );
                    }
                }
                if trace {
                    assert!(out.join(format!("trace-{workload}.json")).is_file());
                    for m in &outcome.metrics {
                        layers_seen.insert(m.name.clone(), m.unit.clone());
                    }
                }
            }
        }
        // Every per-layer metric is measured by some workload, in its unit.
        let declared: BTreeMap<String, String> = spec
            .per_layer
            .iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect();
        assert_eq!(layers_seen, declared);
        assert!(
            std::fs::read_dir(&out).unwrap().all(|e| !e
                .unwrap()
                .path()
                .to_string_lossy()
                .ends_with(".sock")),
            "a socket file was left behind"
        );
        std::fs::remove_dir_all(&out).unwrap();
    }
}
