//! `BENCHMARK.json`, compiled in: the one list of workloads, metric names,
//! units and bounds. What a run prints is checked against it, never the
//! other way round.

use bh_serve::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the median by which the metric may worsen; end-to-end
    /// metrics have one, per-layer metrics do not.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn text(obj: &Json, key: &str) -> String {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string '{key}'"))
        .to_string()
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing list '{key}'"))
}

fn declared(doc: &Json, key: &str) -> Vec<Declared> {
    list(doc, key)
        .iter()
        .map(|m| Declared {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: declared(&doc, "end_to_end"),
            per_layer: declared(&doc, "per_layer"),
        }
    }
}
