//! The `repro` binary's command line, driven as a subprocess: what it
//! rejects (exit 2, a diagnostic naming the offender, the usage banner),
//! one `run`, and that the committed `BENCH_small.json` passes its own
//! validator.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// Assert a usage failure: exit code 2, `needle` in the diagnostic, and the
/// usage banner after it.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(needle), "did not name {needle}: {stderr}");
    assert!(stderr.contains("usage: repro"), "no usage banner: {stderr}");
}

#[test]
fn removed_subcommands_are_unknown_experiments() {
    for name in ["bench-serve", "bench-diff", "verify", "probe"] {
        assert_rejected(&repro(&[name]), &format!("unknown experiment '{name}'"));
    }
}

#[test]
fn short_aliases_are_gone_and_the_valid_names_come_from_the_table() {
    let names: Vec<&str> = bh_experiments::experiments::EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .collect();
    for alias in ["f6", "tb"] {
        let out = repro(&[alias]);
        assert_rejected(&out, &format!("unknown experiment '{alias}'"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "(valid: all, matrix, report, {})",
                names.join(", ")
            )),
            "{stderr}"
        );
        assert!(
            stderr.contains(&format!("experiments: {}", names.join(" "))),
            "{stderr}"
        );
    }
}

#[test]
fn report_rejects_the_flags_it_would_ignore() {
    for flag in [["--trace", "t.json"], ["--group-size", "8"]] {
        let out = repro(&["report", "--scale", "tiny", flag[0], flag[1]]);
        assert_rejected(&out, &format!("{} does not apply to 'report'", flag[0]));
    }
}

#[test]
fn group_size_outside_1_to_64_is_rejected_by_name() {
    for value in ["0", "65"] {
        assert_rejected(
            &repro(&["treebuild", "--scale", "tiny", "--group-size", value]),
            &format!("invalid --group-size '{value}'"),
        );
    }
}

#[test]
fn run_rejects_bad_arguments_before_running() {
    for (args, needle) in [
        (&["origin2000", "morton", "0", "2"][..], "invalid n '0'"),
        (&["origin2000", "morton", "512", "0"], "invalid procs '0'"),
        (&["origin2000", "morton", "512", "65"], "invalid procs '65'"),
        (&["native", "space", "512", "0"], "invalid procs '0'"),
        (
            &["nowhere", "morton", "512", "2"],
            "unknown platform 'nowhere'",
        ),
        (
            &["origin2000", "quicksort", "512", "2"],
            "unknown algorithm 'quicksort'",
        ),
        (
            &["origin2000", "space", "512", "2", "--attr"],
            "unrecognized flag '--attr'",
        ),
        (
            &["origin2000", "space", "512", "2", "--jobs", "2"],
            "--jobs does not apply to 'run'",
        ),
        (&["origin2000", "space", "512"], "run needs 4 arguments"),
    ] {
        let out = repro(&[&["run"][..], args].concat());
        assert_rejected(&out, needle);
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    }
    assert_rejected(&repro(&["table1", "--attr"]), "unrecognized flag '--attr'");
}

#[test]
fn a_simulated_run_prints_its_communication_and_native_does_not() {
    let stdout = |target| {
        let out = repro(&["run", target, "morton", "512", "2"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (simulated, native) = (stdout("origin2000"), stdout("native"));
    for table in ["Run phases", "Run totals"] {
        for out in [&simulated, &native] {
            assert!(out.contains(&format!("== {table}: ")), "no {table}: {out}");
        }
    }
    assert!(
        simulated.contains("== Run communication: "),
        "no communication table: {simulated}"
    );
    assert!(
        simulated
            .lines()
            .any(|l| l.contains("SGI-Origin2000  MORTON") && l.contains(" bodies ")),
        "no per-region row: {simulated}"
    );
    assert!(
        !native.contains("== Run communication: "),
        "native has no protocol to attribute: {native}"
    );
}

#[test]
fn check_json_rejects_an_unknown_experiment_value() {
    let path = std::env::temp_dir().join(format!("repro-cli-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"[{"experiment":"serve_cache","hits":3,"misses":1,"evictions":0,"hit_rate":0.75}]"#,
    )
    .expect("write temp document");
    let out = repro(&["check-json", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_rejected(&out, "record 0: unknown experiment \"serve_cache\"");
}

#[test]
fn committed_bench_document_passes_check_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_small.json");
    let out = repro(&["check-json", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK (6 record(s))"));
}
