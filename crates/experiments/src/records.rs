//! The typed records of `BENCH_<scale>.json` and `REPORT_<scale>.json`,
//! declared once: every emitter zips its values with a declaration here and
//! `repro check-json` validates against the same declaration, so a record
//! cannot carry a key the validator does not know. [`check_trace`] is the
//! same gate for the Chrome trace documents `repro` writes.

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
            "repeats",
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

/// Validate a Chrome trace-event document: nonzero complete-event spans,
/// every declared process has one thread track per processor (its
/// `num_procs` metadata arg), and all four phases appear. On success, a
/// one-line count of what was checked.
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
                span_count += 1;
                if !name.starts_with("lock ") {
                    phases_seen.insert(name);
                }
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
}
