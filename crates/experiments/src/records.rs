//! The typed records of `BENCH_<scale>.json` and `REPORT_<scale>.json`,
//! declared once: every emitter zips its values with a declaration here and
//! `repro check-json` validates against the same declaration, so a record
//! cannot carry a key the validator does not know. [`check_json`],
//! [`check_same`] and [`check_trace`] are `repro`'s gates for the documents
//! it writes.

use crate::json::{escape, Json};
use bh_core::env::Phase;
use std::collections::{HashMap, HashSet};

/// (`experiment` value, string fields, numeric fields), in emission order.
pub type RecordType = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
);

pub const RECORD_TYPES: &[RecordType] = &[
    (
        "treebuild",
        &["scale", "algorithm", "platform"],
        &[
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
        ],
    ),
    (
        "report_comm",
        &["scale", "platform", "algorithm", "region", "stage"],
        &[
            "n",
            "procs",
            "local_misses",
            "remote_misses",
            "page_faults",
            "invalidations",
            "lock_acquires",
            "lock_wait_cycles",
        ],
    ),
    (
        "report_scaling",
        &["scale", "platform", "algorithm"],
        &[
            "n",
            "procs",
            "total_cycles",
            "tree_cycles",
            "seq_cycles",
            "speedup",
            "efficiency",
        ],
    ),
    (
        "report_crossover",
        &["scale", "platform", "winner", "runner_up"],
        &["n", "procs", "winner_speedup", "margin", "changed"],
    ),
    (
        "report_steps",
        &["scale", "platform", "algorithm"],
        &[
            "n",
            "procs",
            "steps",
            "tree_p50_cycles",
            "tree_p99_cycles",
            "total_p50_cycles",
            "total_p99_cycles",
            "lock_wait_p50_cycles",
            "lock_wait_p99_cycles",
            "imbalance_p50",
            "imbalance_p99",
        ],
    ),
];

fn record_type(experiment: &str) -> Option<&'static RecordType> {
    RECORD_TYPES.iter().find(|(name, _, _)| *name == experiment)
}

/// One record as a line of a JSON array document: `strs` and `nums` are
/// the values of the declared string and numeric fields, in declaration
/// order (numbers already formatted to the precision they are reported at).
pub fn emit(experiment: &str, strs: &[&str], nums: &[String]) -> String {
    let (_, str_fields, num_fields) = record_type(experiment).expect("declared record type");
    assert_eq!(strs.len(), str_fields.len(), "{experiment}: string fields");
    assert_eq!(nums.len(), num_fields.len(), "{experiment}: numeric fields");
    let strs = str_fields.iter().zip(strs);
    let nums = num_fields.iter().zip(nums);
    let fields: Vec<String> = std::iter::once(format!("\"experiment\": {}", escape(experiment)))
        .chain(strs.map(|(field, value)| format!("\"{field}\": {}", escape(value))))
        .chain(nums.map(|(field, value)| format!("\"{field}\": {value}")))
        .collect();
    format!("  {{{}}}", fields.join(", "))
}

/// Validate one record against its declaration: a known `experiment`
/// value, every declared string field a string, every numeric field a number.
pub fn validate(record: &Json) -> Result<(), String> {
    let exp = record
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or_else(|| "record lacks \"experiment\"".to_string())?;
    let (_, strs, nums) =
        record_type(exp).ok_or_else(|| format!("unknown experiment \"{exp}\""))?;
    for field in *strs {
        if record.get(field).and_then(Json::as_str).is_none() {
            return Err(format!("{exp} record lacks string \"{field}\""));
        }
    }
    for field in *nums {
        if record.get(field).and_then(Json::as_f64).is_none() {
            return Err(format!("{exp} record lacks numeric \"{field}\""));
        }
    }
    Ok(())
}

/// The tiling property of the communication breakdown, from the document
/// alone: for every (platform, algorithm), the per-region `report_comm`
/// records must sum exactly to that configuration's `"total"` record.
/// Call it on records that passed [`validate`].
pub fn check_comm_tiling(records: &[Json]) -> Result<(), String> {
    // "platform/algorithm" -> [remote misses, lock wait cycles].
    let mut region_sums: HashMap<String, [f64; 2]> = HashMap::new();
    let mut totals: HashMap<String, [f64; 2]> = HashMap::new();
    fn text<'a>(r: &'a Json, field: &str) -> &'a str {
        r.get(field).and_then(Json::as_str).unwrap_or_default()
    }
    let number = |r: &Json, field: &str| r.get(field).and_then(Json::as_f64).unwrap_or_default();
    for r in records {
        if text(r, "experiment") != "report_comm" {
            continue;
        }
        let key = format!("{}/{}", text(r, "platform"), text(r, "algorithm"));
        let row = [number(r, "remote_misses"), number(r, "lock_wait_cycles")];
        if text(r, "region") == "total" {
            totals.insert(key, row);
        } else {
            let sum = region_sums.entry(key).or_default();
            sum[0] += row[0];
            sum[1] += row[1];
        }
    }
    for (key, total) in &totals {
        let sum = region_sums.get(key).copied().unwrap_or_default();
        if sum != *total {
            return Err(format!(
                "report_comm rows for {key} do not tile the total \
                 (regions sum to {sum:?}, total says {total:?})"
            ));
        }
    }
    Ok(())
}

/// Validate an experiment-table, BENCH or REPORT document: a non-empty
/// array of objects. Table dumps are keyed by `id`; a record with an
/// `experiment` field must match its declaration in [`RECORD_TYPES`] — any
/// other `experiment` value is an error. The `report_comm` breakdown is
/// re-checked for the tiling property from the document alone. On
/// success, a one-line count of what was checked.
pub fn check_json(doc: &Json) -> Result<String, String> {
    let items = doc.as_array().ok_or("top level is not an array")?;
    if items.is_empty() {
        return Err("empty document".into());
    }
    for (i, item) in items.iter().enumerate() {
        if item.get("experiment").is_some() {
            validate(item).map_err(|e| format!("record {i}: {e}"))?;
        } else if item.get("id").is_none() {
            return Err(format!(
                "record {i} has neither an \"experiment\" nor an \"id\" field"
            ));
        }
    }
    check_comm_tiling(items)?;
    Ok(format!("{} record(s)", items.len()))
}

/// Verify two experiment-table documents, named `names` in diagnostics,
/// describe the same report: equal table ids, titles, headers, row counts
/// and row labels (first column). This is the cross-`--jobs` matrix gate:
/// numeric cells of multi-processor simulated runs jitter run to run, but
/// which experiments, configurations and series were computed must not
/// depend on the prewarm. On success, a one-line count of what was checked.
pub fn check_same(a: &Json, b: &Json, names: [&str; 2]) -> Result<String, String> {
    let [name_a, name_b] = names;
    let not_array = |name: &str| format!("{name}: top level is not an array");
    let tables_a = a.as_array().ok_or_else(|| not_array(name_a))?;
    let tables_b = b.as_array().ok_or_else(|| not_array(name_b))?;
    if tables_a.len() != tables_b.len() {
        return Err(format!(
            "{name_a} has {} table(s) but {name_b} has {}",
            tables_a.len(),
            tables_b.len()
        ));
    }
    let str_field = |t: &Json, field: &str, name: &str, i: usize| {
        t.get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{name}: table {i} lacks \"{field}\""))
    };
    let rows_of = |t: &Json, name: &str, i: usize| -> Result<Vec<Vec<String>>, String> {
        let rows = t.get("rows").and_then(Json::as_array);
        let rows = rows.ok_or_else(|| format!("{name}: table {i} lacks \"rows\""))?;
        rows.iter()
            .map(|r| {
                let cells = r.as_array();
                let cells =
                    cells.ok_or_else(|| format!("{name}: table {i} has a non-array row"))?;
                Ok(cells
                    .iter()
                    .map(|c| c.as_str().unwrap_or("").to_string())
                    .collect())
            })
            .collect()
    };
    for (i, (ta, tb)) in tables_a.iter().zip(tables_b).enumerate() {
        for field in ["id", "title"] {
            let (va, vb) = (
                str_field(ta, field, name_a, i)?,
                str_field(tb, field, name_b, i)?,
            );
            if va != vb {
                return Err(format!("table {i}: {field} differs: \"{va}\" vs \"{vb}\""));
            }
        }
        let id = str_field(ta, "id", name_a, i)?;
        if ta.get("headers") != tb.get("headers") {
            return Err(format!("{id}: headers differ"));
        }
        let (ra, rb) = (rows_of(ta, name_a, i)?, rows_of(tb, name_b, i)?);
        if ra.len() != rb.len() {
            return Err(format!("{id}: {} row(s) vs {}", ra.len(), rb.len()));
        }
        for (j, (rowa, rowb)) in ra.iter().zip(&rb).enumerate() {
            if rowa.len() != rowb.len() {
                return Err(format!("{id} row {j}: column counts differ"));
            }
            if rowa.first() != rowb.first() {
                return Err(format!(
                    "{id} row {j}: label differs: {:?} vs {:?}",
                    rowa.first(),
                    rowb.first()
                ));
            }
        }
    }
    Ok(format!(
        "same report structure ({} table(s))",
        tables_a.len()
    ))
}

/// Validate a Chrome trace-event document: nonzero complete-event spans,
/// each named after a phase, every declared process has one thread track
/// per processor (its `num_procs` metadata arg), and all four phases
/// appear. On success, a one-line count of what was checked.
pub fn check_trace(doc: &Json) -> Result<String, String> {
    let events = doc.as_array().ok_or("top level is not an array")?;
    let int = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).map(|v| v as i64);
    let mut declared_procs: HashMap<i64, i64> = HashMap::new();
    let mut tids_by_pid: HashMap<i64, HashSet<i64>> = HashMap::new();
    let mut span_count = 0usize;
    let mut phases_seen: HashSet<&str> = HashSet::new();
    for e in events {
        let name = e.get("name").and_then(Json::as_str).unwrap_or_default();
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => {
                let pid = int(e, "pid").ok_or("metadata without pid")?;
                if name == "process_name" {
                    let n = e.get("args").and_then(|a| int(a, "num_procs"));
                    let n = n.ok_or_else(|| format!("process {pid} lacks num_procs"))?;
                    declared_procs.insert(pid, n);
                } else if name == "thread_name" {
                    tids_by_pid.entry(pid).or_default().extend(int(e, "tid"));
                }
            }
            Some("X") => {
                if !Phase::ALL.iter().any(|p| p.name() == name) {
                    return Err(format!("span '{name}' is not a phase"));
                }
                span_count += 1;
                phases_seen.insert(name);
            }
            _ => {}
        }
    }
    if span_count == 0 {
        return Err("no complete-event spans".into());
    }
    if declared_procs.is_empty() {
        return Err("no process_name metadata".into());
    }
    for (pid, &n) in &declared_procs {
        let tracks = tids_by_pid.get(pid).map_or(0, HashSet::len);
        if tracks as i64 != n {
            return Err(format!(
                "process {pid} declares {n} processors but has {tracks} thread track(s)"
            ));
        }
    }
    if let Some(phase) = Phase::ALL.iter().find(|p| !phases_seen.contains(p.name())) {
        return Err(format!("no '{}' phase spans", phase.name()));
    }
    Ok(format!(
        "{span_count} span(s), {} process track(s)",
        declared_procs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-process, two-processor trace with the four phases on P0.
    fn trace(num_procs: usize, phases: &[&str]) -> Json {
        let mut events = vec![
            format!(
                r#"{{"name":"process_name","ph":"M","pid":0,"args":{{"num_procs":{num_procs}}}}}"#
            ),
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0}"#.to_string(),
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":1}"#.to_string(),
        ];
        for phase in phases {
            events.push(format!(r#"{{"name":"{phase}","ph":"X","pid":0,"tid":0}}"#));
        }
        Json::parse(&format!("[{}]", events.join(","))).expect("test trace parses")
    }

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("test document parses")
    }

    /// A `report_comm` record of `region` with `remote` remote misses.
    fn comm(region: &str, remote: u32) -> String {
        let strs: Vec<&str> = vec!["tiny", "P", "SPACE", region, "all"];
        let mut nums = vec!["0".to_string(); 8];
        nums[3] = remote.to_string();
        emit("report_comm", &strs, &nums)
    }

    #[test]
    fn json_validator_names_each_defect() {
        let tiled = format!("[{}, {}]", comm("total", 3), comm("tree", 3));
        assert_eq!(check_json(&parse(&tiled)), Ok("2 record(s)".to_string()));
        let table = r#"[{"id": "Figure 6", "rows": []}]"#;
        assert_eq!(check_json(&parse(table)), Ok("1 record(s)".to_string()));
        let untiled = format!("[{}, {}]", comm("total", 3), comm("tree", 2));
        for (doc, diagnostic) in [
            ("{}", "top level is not an array"),
            ("[]", "empty document"),
            (
                r#"[{"id": "x"}, {"experiment": "nope"}]"#,
                "record 1: unknown experiment \"nope\"",
            ),
            (
                r#"[{"rows": []}]"#,
                "record 0 has neither an \"experiment\" nor an \"id\" field",
            ),
            (
                &untiled,
                "report_comm rows for P/SPACE do not tile the total",
            ),
        ] {
            let err = check_json(&parse(doc)).unwrap_err();
            assert!(err.starts_with(diagnostic), "{doc}: {err}");
        }
    }

    #[test]
    fn structure_check_names_each_difference() {
        let table = |id: &str, title: &str, headers: &str, rows: &str| {
            format!(
                r#"[{{"id": "{id}", "title": "{title}", "headers": {headers}, "rows": {rows}}}]"#
            )
        };
        let fig6 = |rows: &str| table("Figure 6", "T", r#"["n", "A"]"#, rows);
        let a = parse(&fig6(r#"[["512", "1.0"]]"#));
        let same = fig6(r#"[["512", "2.0"]]"#);
        let check = |b: &str| check_same(&a, &parse(b), ["a", "b"]);
        assert_eq!(
            check(&same),
            Ok("same report structure (1 table(s))".to_string())
        );
        for (b, diagnostic) in [
            ("{}".to_string(), "b: top level is not an array"),
            ("[]".to_string(), "a has 1 table(s) but b has 0"),
            (r#"[{"title": "T"}]"#.to_string(), "b: table 0 lacks \"id\""),
            (
                table("Figure 7", "T", "[]", "[]"),
                "table 0: id differs: \"Figure 6\" vs \"Figure 7\"",
            ),
            (table("Figure 6", "U", "[]", "[]"), "table 0: title differs"),
            (
                table("Figure 6", "T", r#"["n"]"#, "[]"),
                "Figure 6: headers differ",
            ),
            (
                r#"[{"id": "Figure 6", "title": "T", "headers": ["n", "A"]}]"#.to_string(),
                "b: table 0 lacks \"rows\"",
            ),
            (fig6(r#"["512"]"#), "b: table 0 has a non-array row"),
            (
                fig6(r#"[["512", "1.0"], ["1024", "1.0"]]"#),
                "Figure 6: 1 row(s) vs 2",
            ),
            (fig6(r#"[["512"]]"#), "Figure 6 row 0: column counts differ"),
            (
                fig6(r#"[["1024", "1.0"]]"#),
                "Figure 6 row 0: label differs",
            ),
        ] {
            let err = check(&b).unwrap_err();
            assert!(err.starts_with(diagnostic), "{b}: {err}");
        }
    }

    #[test]
    fn trace_validator_rejects_a_missing_phase_and_a_track_mismatch() {
        let all = ["tree", "partition", "force", "update"];
        assert_eq!(
            check_trace(&trace(2, &all)),
            Ok("4 span(s), 1 process track(s)".to_string())
        );
        let err = check_trace(&trace(2, &all[..3])).unwrap_err();
        assert!(err.contains("no 'update' phase spans"), "{err}");
        let err = check_trace(&trace(3, &all)).unwrap_err();
        assert!(
            err.contains("declares 3 processors but has 2 thread track(s)"),
            "{err}"
        );
    }

    #[test]
    fn trace_validator_refuses_a_span_that_is_not_a_phase() {
        let doc = trace(2, &["tree", "partition", "lock 70", "force", "update"]);
        assert_eq!(
            check_trace(&doc),
            Err("span 'lock 70' is not a phase".to_string())
        );
    }
}
