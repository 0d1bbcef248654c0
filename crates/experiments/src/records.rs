//! The typed records of `BENCH_<scale>.json` and `REPORT_<scale>.json`,
//! declared once: every emitter zips its values with a declaration here and
//! `repro check-json` validates against the same declaration, so a record
//! cannot carry a key the validator does not know.

use crate::json::{escape, Json};
use std::collections::HashMap;

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
