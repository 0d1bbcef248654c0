//! The line-delimited JSON job protocol: parsing and response encoding.
//!
//! One request per line, one response line per request (responses to
//! pipelined requests may interleave in completion order; match them by
//! `id`). This module is pure string-to-struct translation so every
//! protocol edge case — malformed JSON, unknown fields, wrong types — is
//! testable without a socket.
//!
//! Requests (`op` selects the kind):
//!
//! ```text
//! {"op":"job","id":"j1","tenant":"acme","scenario":"plummer",
//!  "algorithm":"partree","platform":"native","n":4096,"procs":2,
//!  "steps":1,"group_size":16}                 // warmup, k, seed optional
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Error responses carry a stable `error` code (`bad_json`, `bad_request`,
//! `unknown_field`, `oversized`, `queue_full`, `shutting_down`,
//! `engine_panic`) plus a human-readable `message` naming the offending
//! field or value. Success responses for jobs carry only run-deterministic
//! fields, so a recorded request stream replays byte-identically at one
//! processor (the replay gate in `tests/serve_protocol.rs`).

use crate::exec::JobOutcome;
use crate::job::{JobSpec, PlatformId};
use crate::json::{escape, Json};
use bh_core::prelude::{Algorithm, Model};

/// Longest accepted request line (bytes, excluding the newline). Longer
/// lines are answered with an `oversized` error and skipped without
/// buffering them.
pub const MAX_LINE: usize = 64 * 1024;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Job {
        id: String,
        tenant: String,
        spec: JobSpec,
    },
    Stats,
    Ping,
    Shutdown,
}

/// A protocol-level rejection: stable code + diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    pub code: &'static str,
    pub message: String,
}

impl ProtoError {
    fn bad_json(message: String) -> ProtoError {
        ProtoError {
            code: "bad_json",
            message,
        }
    }

    fn bad_request(message: String) -> ProtoError {
        ProtoError {
            code: "bad_request",
            message,
        }
    }
}

/// Every field a `job` request may carry; anything else is `unknown_field`.
const JOB_FIELDS: [&str; 12] = [
    "op",
    "id",
    "tenant",
    "scenario",
    "algorithm",
    "platform",
    "n",
    "procs",
    "steps",
    "warmup",
    "k",
    "group_size",
];
const SEED_FIELD: &str = "seed";

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, ProtoError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ProtoError::bad_request(format!("field '{key}' must be a string"))),
    }
}

fn get_usize(obj: &Json, key: &str) -> Result<Option<usize>, ProtoError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v.as_f64().ok_or_else(|| {
                ProtoError::bad_request(format!("field '{key}' must be a number"))
            })?;
            if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                return Err(ProtoError::bad_request(format!(
                    "field '{key}' has invalid value {n} (expected a non-negative integer)"
                )));
            }
            Ok(Some(n as usize))
        }
    }
}

/// Parse one request line. The caller enforces [`MAX_LINE`] before calling.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc = Json::parse(line).map_err(ProtoError::bad_json)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ProtoError::bad_request(
            "request must be a JSON object".to_string(),
        ));
    }
    let op = get_str(&doc, "op")?
        .ok_or_else(|| ProtoError::bad_request("missing field 'op'".to_string()))?;
    match op {
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "job" => parse_job(&doc),
        other => Err(ProtoError::bad_request(format!(
            "unknown op '{other}' (expected job, stats, ping or shutdown)"
        ))),
    }
}

fn parse_job(doc: &Json) -> Result<Request, ProtoError> {
    if let Json::Obj(fields) = doc {
        for (key, _) in fields {
            if !JOB_FIELDS.contains(&key.as_str()) && key != SEED_FIELD {
                return Err(ProtoError {
                    code: "unknown_field",
                    message: format!("unknown field '{key}' in job request"),
                });
            }
        }
    }
    let id = get_str(doc, "id")?
        .ok_or_else(|| ProtoError::bad_request("missing field 'id'".to_string()))?
        .to_string();
    let tenant = get_str(doc, "tenant")?
        .ok_or_else(|| ProtoError::bad_request("missing field 'tenant'".to_string()))?
        .to_string();
    if id.is_empty() || tenant.is_empty() {
        return Err(ProtoError::bad_request(
            "'id' and 'tenant' must be non-empty".to_string(),
        ));
    }
    let n = get_usize(doc, "n")?
        .ok_or_else(|| ProtoError::bad_request("missing field 'n'".to_string()))?;

    let mut spec = JobSpec::defaults(n);
    if let Some(s) = get_str(doc, "scenario")? {
        spec.scenario = Model::parse(s).ok_or_else(|| {
            ProtoError::bad_request(format!(
                "unknown scenario '{s}' (expected plummer, uniform or collision)"
            ))
        })?;
    }
    if let Some(s) = get_str(doc, "algorithm")? {
        spec.algorithm = Algorithm::parse(s)
            .ok_or_else(|| ProtoError::bad_request(format!("unknown algorithm '{s}'")))?;
    }
    if let Some(s) = get_str(doc, "platform")? {
        spec.platform = PlatformId::parse(s)
            .ok_or_else(|| ProtoError::bad_request(format!("unknown platform '{s}'")))?;
    }
    if let Some(v) = get_usize(doc, "procs")? {
        spec.procs = v;
    }
    if let Some(v) = get_usize(doc, "steps")? {
        spec.steps = v;
    }
    if let Some(v) = get_usize(doc, "warmup")? {
        spec.warmup = v;
    }
    if let Some(v) = get_usize(doc, "k")? {
        spec.k = v;
    }
    if let Some(v) = get_usize(doc, "group_size")? {
        spec.group_size = v;
    }
    if let Some(v) = get_usize(doc, SEED_FIELD)? {
        spec.seed = v as u64;
    }
    // Range validation happens at admission (Server::submit) so in-process
    // submitters share the same checks; parse only shapes the data.
    Ok(Request::Job { id, tenant, spec })
}

/// Success line for a finished job. Only run-deterministic fields: the
/// digest certifies physics; cycle totals are deterministic per (server
/// history, job) at one worker because the simulator itself is.
pub fn encode_job_ok(id: &str, tenant: &str, outcome: &JobOutcome) -> String {
    format!(
        "{{\"ok\":true,\"id\":{},\"tenant\":{},\"cache_hit\":{},\"digest\":\"{:016x}\",\"total_cycles\":{},\"tree_cycles\":{},\"steps\":{}}}",
        escape(id),
        escape(tenant),
        outcome.cache_hit,
        outcome.digest,
        outcome.total_cycles,
        outcome.tree_cycles,
        outcome.steps,
    )
}

/// Error line. `id` is echoed when the request got far enough to have one.
pub fn encode_error(id: Option<&str>, code: &str, message: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"ok\":false,\"id\":{},\"error\":{},\"message\":{}}}",
            escape(id),
            escape(code),
            escape(message)
        ),
        None => format!(
            "{{\"ok\":false,\"error\":{},\"message\":{}}}",
            escape(code),
            escape(message)
        ),
    }
}

/// Stats line for the `stats` op.
pub fn encode_stats(stats: &crate::server::ServerStats) -> String {
    let tenants: Vec<String> = stats
        .tenants
        .iter()
        .map(|(name, c)| {
            format!(
                "{{\"tenant\":{},\"enqueued\":{},\"served\":{},\"rejected\":{}}}",
                escape(name),
                c.enqueued,
                c.served,
                c.rejected
            )
        })
        .collect();
    format!(
        "{{\"ok\":true,\"queue_depth\":{},\"queue_capacity\":{},\"depth_hwm\":{},\"depth_p50\":{},\"depth_p99\":{},\"rejected_full\":{},\"served_total\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\"cached_engines\":{},\"tenants\":[{}]}}",
        stats.queue_depth,
        stats.queue_capacity,
        stats.depth_hwm,
        stats.depth_p50,
        stats.depth_p99,
        stats.rejected_full,
        stats.served_total,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cached_engines,
        tenants.join(",")
    )
}

pub fn encode_pong() -> String {
    "{\"ok\":true,\"pong\":true}".to_string()
}

pub fn encode_shutdown_ack() -> String {
    "{\"ok\":true,\"shutdown\":true}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_job_request() {
        let line = r#"{"op":"job","id":"j1","tenant":"acme","scenario":"uniform",
            "algorithm":"local","platform":"origin2000","n":512,"procs":4,
            "steps":2,"warmup":1,"k":4,"group_size":8,"seed":7}"#;
        match parse_request(line).unwrap() {
            Request::Job { id, tenant, spec } => {
                assert_eq!(id, "j1");
                assert_eq!(tenant, "acme");
                assert_eq!(spec.scenario, Model::UniformSphere);
                assert_eq!(spec.algorithm, Algorithm::Local);
                // Platform names canonicalize so aliases share cache keys.
                assert_eq!(spec.platform.name(), "SGI-Origin2000");
                assert_eq!((spec.n, spec.procs, spec.steps), (512, 4, 2));
                assert_eq!((spec.warmup, spec.k, spec.group_size), (1, 4, 8));
                assert_eq!(spec.seed, 7);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn optional_fields_default() {
        let req = parse_request(r#"{"op":"job","id":"a","tenant":"t","n":256}"#).unwrap();
        match req {
            Request::Job { spec, .. } => {
                assert_eq!(spec, JobSpec::defaults(256));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_json_is_bad_json() {
        let err = parse_request("{\"op\":").unwrap_err();
        assert_eq!(err.code, "bad_json");
        let err = parse_request("[1,2,3]").unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn unknown_fields_are_named() {
        let err =
            parse_request(r#"{"op":"job","id":"a","tenant":"t","n":64,"turbo":1}"#).unwrap_err();
        assert_eq!(err.code, "unknown_field");
        assert!(err.message.contains("'turbo'"), "{}", err.message);
    }

    #[test]
    fn wrong_types_and_values_are_diagnosed() {
        let err = parse_request(r#"{"op":"job","id":"a","tenant":"t","n":"big"}"#).unwrap_err();
        assert!(err.message.contains("'n'"), "{}", err.message);
        let err = parse_request(r#"{"op":"job","id":"a","tenant":"t","n":12.5}"#).unwrap_err();
        assert!(err.message.contains("12.5"), "{}", err.message);
        let err = parse_request(r#"{"op":"job","id":"a","tenant":"t","n":64,"scenario":"mars"}"#)
            .unwrap_err();
        assert!(err.message.contains("'mars'"), "{}", err.message);
        let err = parse_request(r#"{"op":"teapot"}"#).unwrap_err();
        assert!(err.message.contains("'teapot'"), "{}", err.message);
        // Parsing only shapes the data; the range check is admission's.
        match parse_request(r#"{"op":"job","id":"a","tenant":"t","n":64,"k":17}"#).unwrap() {
            Request::Job { spec, .. } => {
                let err = spec.validate().unwrap_err();
                assert!(err.contains("k 17"), "{err}");
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn responses_are_valid_json() {
        let outcome = JobOutcome {
            digest: 0xdead_beef,
            cache_hit: true,
            total_cycles: 123,
            tree_cycles: 45,
            steps: 2,
        };
        let line = encode_job_ok("j\"1", "t", &outcome);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("j\"1"));
        assert_eq!(
            doc.get("digest").unwrap().as_str(),
            Some("00000000deadbeef")
        );
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));

        let line = encode_error(Some("j2"), "queue_full", "queue at capacity (32)");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("queue_full"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));

        assert!(Json::parse(&encode_pong()).is_ok());
        assert!(Json::parse(&encode_shutdown_ack()).is_ok());
    }
}
