//! `bhbench agree <setA-dir> <setB-dir>`: do two sets of runs of the same
//! code tell the same story?
//!
//! A set is a directory of result files as `run` and `trace` write them
//! (`<workload>.<anything>.json`, holding the run's last output line). Per
//! (workload, metric) the medians of the two sets are compared. A metric
//! with a bound in `BENCHMARK.json` may differ by that share of set A's
//! median; the P=1 simulated cycle counts must be identical; every other
//! metric is printed for information.

use std::collections::BTreeMap;
use std::path::Path;

use bh_serve::json::Json;

use crate::spec::Spec;
use crate::stats::median;

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_set(spec: &Spec, dir: &Path) -> Result<Samples, String> {
    let mut samples = Samples::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let workload = name.split('.').next().unwrap_or_default();
        if !name.ends_with(".json") || !spec.workloads.iter().any(|w| w == workload) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no \"metrics\" object", path.display()));
        };
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: metric {metric} has no value", path.display()))?;
            samples
                .entry((workload.to_string(), metric.clone()))
                .or_default()
                .push(value);
        }
    }
    if samples.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(samples)
}

/// A P=1 simulated cycle count: exact, so two sets must agree to the cycle.
fn is_exact(metric: &str) -> bool {
    metric.starts_with("ssmp.tree_cycles_p1.") || metric.starts_with("ssmp.total_cycles_p1.")
}

/// Print one row per (workload, metric); `Ok(true)` when no pair of medians
/// differs by more than its bound.
pub fn agree(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_set(spec, dir_a)?, read_set(spec, dir_b)?);
    let mut all_within = true;
    println!("| workload | metric | set A | set B | B vs A | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (key, values_a) in &a {
        let Some(values_b) = b.get(key) else {
            return Err(format!("{}/{} is in set A only", key.0, key.1));
        };
        let (workload, metric) = key;
        let (ma, mb) = (median(values_a), median(values_b));
        let diff = if ma == mb { 0.0 } else { (mb - ma) / ma.abs() };
        let bound = match spec.end_to_end.iter().find(|d| &d.name == metric) {
            Some(d) => d.bound,
            None if is_exact(metric) => Some(0.0),
            None => None,
        };
        let verdict = match bound {
            Some(bound) if diff.abs() > bound => {
                all_within = false;
                "EXCEEDS"
            }
            Some(bound) if diff.abs() > bound / 2.0 => "over half the bound",
            Some(_) => "ok",
            None => "",
        };
        let bound = bound.map_or(String::new(), |b| format!("{:.0} %", 100.0 * b));
        println!(
            "| {workload} | {metric} | {ma:.6} | {mb:.6} | {:+.2} % | {bound} | {verdict} |",
            100.0 * diff
        );
    }
    if let Some(key) = b.keys().find(|k| !a.contains_key(*k)) {
        return Err(format!("{}/{} is in set B only", key.0, key.1));
    }
    Ok(all_within)
}
