//! End-to-end protocol robustness: a real server on a unix socket, driven
//! through real client connections.
//!
//! The invariants under test: hostile or broken input (malformed JSON,
//! unknown fields, oversized payloads, mid-request disconnects) produces a
//! structured error or a clean close — never a wedged executor; served
//! physics is bitwise-identical to a direct engine run at one processor,
//! also with two tenants sharing warm engines; and the response stream for
//! a fixed request stream is byte-stable across server instances (the
//! replay gate).

use bh_repro::bh_core::prelude::*;
use bh_repro::bh_serve::client::Client;
use bh_repro::bh_serve::job::{digest_bodies, JobSpec};
use bh_repro::bh_serve::json::Json;
use bh_repro::bh_serve::protocol::MAX_LINE;
use bh_repro::bh_serve::server::{Server, ServerConfig};
use bh_repro::bh_serve::transport::{spawn, Endpoint};
use std::io::Write;
use std::os::unix::net::UnixStream;

/// Each test gets its own socket path (tests run in parallel).
fn test_endpoint(tag: &str) -> Endpoint {
    Endpoint::Unix(
        std::env::temp_dir().join(format!("bh-serve-test-{}-{tag}.sock", std::process::id())),
    )
}

fn start(
    tag: &str,
    config: ServerConfig,
) -> (
    Endpoint,
    std::thread::JoinHandle<std::io::Result<bh_repro::bh_serve::server::ServerStats>>,
) {
    let endpoint = test_endpoint(tag);
    let handle = spawn(Server::start(config), endpoint.clone());
    (endpoint, handle)
}

fn connect(endpoint: &Endpoint) -> Client {
    Client::connect_with_retry(endpoint, 100).expect("connect to test server")
}

fn job_line(id: &str, n: usize) -> String {
    format!(r#"{{"op":"job","id":"{id}","tenant":"t","n":{n},"steps":1,"warmup":0}}"#)
}

/// Assert the response is `ok` and return the body digest it carries.
fn served_digest(r: &str) -> u64 {
    let doc = Json::parse(r).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{r}");
    u64::from_str_radix(doc.get("digest").and_then(Json::as_str).unwrap(), 16).unwrap()
}

/// The digest a direct single-processor run of `spec` in this process ends with.
fn direct_digest(spec: &JobSpec) -> u64 {
    let (_, state) = run_simulation_with_state(&NativeEnv::new(1), &spec.config(), &spec.bodies());
    digest_bodies(&state)
}

fn shutdown_and_join(
    endpoint: &Endpoint,
    handle: std::thread::JoinHandle<std::io::Result<bh_repro::bh_serve::server::ServerStats>>,
) -> bh_repro::bh_serve::server::ServerStats {
    let mut c = connect(endpoint);
    let ack = c.request(r#"{"op":"shutdown"}"#).expect("shutdown ack");
    assert!(ack.contains("shutdown"), "unexpected ack: {ack}");
    handle.join().expect("listener join").expect("listener io")
}

#[test]
fn hostile_input_gets_structured_errors_and_the_executor_survives() {
    let (endpoint, handle) = start("hostile", ServerConfig::default());
    let mut c = connect(&endpoint);

    // Malformed JSON: structured error, connection stays usable.
    let r = c.request("{\"op\":").expect("response to malformed json");
    let doc = Json::parse(&r).expect("error response is valid json");
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_json"));

    // Unknown field: the field is named.
    let r = c
        .request(r#"{"op":"job","id":"x","tenant":"t","n":64,"turbo":9}"#)
        .expect("response to unknown field");
    let doc = Json::parse(&r).unwrap();
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("unknown_field")
    );
    assert!(r.contains("turbo"), "field not named: {r}");

    // Out-of-range value: rejected at admission, value echoed.
    let r = c
        .request(r#"{"op":"job","id":"x","tenant":"t","n":4}"#)
        .expect("response to bad n");
    let doc = Json::parse(&r).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_request"));

    // group_size 0 is not a kernel selector: rejected like any other
    // out-of-range value, never clamped.
    let r = c
        .request(r#"{"op":"job","id":"x","tenant":"t","n":64,"group_size":0}"#)
        .expect("response to group_size 0");
    let doc = Json::parse(&r).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_request"));
    assert!(r.contains("group_size 0"), "value not echoed: {r}");

    // A leaf threshold past what the builders hold is refused at admission
    // rather than panicking the executor.
    let r = c
        .request(r#"{"op":"job","id":"x","tenant":"t","n":64,"k":17}"#)
        .expect("response to k 17");
    let doc = Json::parse(&r).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_request"));
    assert!(r.contains("k 17"), "value not echoed: {r}");

    // Oversized payload: explicit error, and the *same connection* still
    // serves a real job afterwards.
    let huge = format!(
        r#"{{"op":"job","id":"{}","tenant":"t","n":64}}"#,
        "x".repeat(MAX_LINE)
    );
    let r = c.request(&huge).expect("response to oversized line");
    let doc = Json::parse(&r).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("oversized"));

    let r = c
        .request(&job_line("after-hostility", 64))
        .expect("job after errors");
    let doc = Json::parse(&r).unwrap();
    assert_eq!(
        doc.get("ok"),
        Some(&Json::Bool(true)),
        "executor wedged: {r}"
    );

    let stats = shutdown_and_join(&endpoint, handle);
    assert_eq!(stats.served_total, 1);
}

#[test]
fn mid_request_disconnect_is_a_clean_close() {
    let (endpoint, handle) = start("disconnect", ServerConfig::default());

    // Write half a request and slam the connection.
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!()
    };
    for _ in 0..100 {
        if let Ok(mut s) = UnixStream::connect(path) {
            s.write_all(br#"{"op":"job","id":"cut","#).unwrap();
            drop(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The server must keep serving new connections afterwards.
    let mut c = connect(&endpoint);
    let r = c
        .request(&job_line("survivor", 64))
        .expect("job after disconnect");
    let doc = Json::parse(&r).unwrap();
    assert_eq!(
        doc.get("ok"),
        Some(&Json::Bool(true)),
        "server wedged by disconnect: {r}"
    );
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn burst_overruns_the_queue_with_explicit_backpressure() {
    let (endpoint, handle) = start(
        "burst",
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let mut c = connect(&endpoint);
    let total = 16;
    for i in 0..total {
        c.send(&job_line(&format!("b{i}"), 256)).unwrap();
    }
    let (mut ok, mut full) = (0, 0);
    for _ in 0..total {
        let r = c.recv().expect("burst response");
        let doc = Json::parse(&r).unwrap();
        if doc.get("ok") == Some(&Json::Bool(true)) {
            ok += 1;
        } else {
            assert_eq!(
                doc.get("error").and_then(Json::as_str),
                Some("queue_full"),
                "unexpected failure: {r}"
            );
            full += 1;
        }
    }
    assert!(ok > 0, "no job ran at all");
    assert!(full > 0, "queue never filled: capacity 2, burst {total}");
    let stats = shutdown_and_join(&endpoint, handle);
    assert_eq!(stats.served_total, ok);
    assert_eq!(stats.rejected_full, full);
}

#[test]
fn served_physics_is_bitwise_identical_to_a_direct_run() {
    let (endpoint, handle) = start("digest", ServerConfig::default());
    let mut c = connect(&endpoint);
    let r = c.request(&job_line("d1", 128)).expect("job response");
    let mut spec = JobSpec::defaults(128);
    spec.warmup = 0;
    assert_eq!(
        served_digest(&r),
        direct_digest(&spec),
        "served physics diverged"
    );
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn two_tenants_share_warm_engines_and_every_digest_matches_a_direct_run() {
    // Two connections, one job outstanding each, so the default queue never
    // fills; same engine shape throughout, scenario rotating, so after the
    // first checkouts every job runs on a reused engine.
    const JOBS: usize = 24;
    let (endpoint, handle) = start(
        "tenants",
        ServerConfig {
            workers: 2,
            engine_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let expected: Vec<(&str, u64)> = Model::ALL
        .iter()
        .map(|&scenario| {
            let mut spec = JobSpec::defaults(128);
            spec.scenario = scenario;
            spec.warmup = 0;
            (scenario.name(), direct_digest(&spec))
        })
        .collect();

    std::thread::scope(|s| {
        for (t, tenant) in ["a", "b"].into_iter().enumerate() {
            let (endpoint, expected) = (&endpoint, &expected);
            s.spawn(move || {
                let mut c = connect(endpoint);
                for j in 0..JOBS {
                    let (scenario, digest) = expected[(t + j) % expected.len()];
                    let r = c
                        .request(&format!(
                            r#"{{"op":"job","id":"{tenant}{j}","tenant":"{tenant}","n":128,"steps":1,"warmup":0,"scenario":"{scenario}"}}"#
                        ))
                        .expect("job response");
                    assert_eq!(
                        served_digest(&r),
                        digest,
                        "{tenant}{j} ({scenario}) diverged: {r}"
                    );
                }
            });
        }
    });

    let stats = shutdown_and_join(&endpoint, handle);
    assert_eq!(stats.served_total, 2 * JOBS as u64);
    for tenant in ["a", "b"] {
        let (_, counters) = stats
            .tenants
            .iter()
            .find(|(name, _)| name == tenant)
            .unwrap_or_else(|| panic!("tenant {tenant} missing from {:?}", stats.tenants));
        assert_eq!(counters.served, JOBS as u64, "tenant {tenant}");
    }
    assert!(
        stats.cache.hits > stats.cache.misses,
        "engine cache idle on a same-shape mix: {:?}",
        stats.cache
    );
}

#[test]
fn response_stream_is_byte_stable_across_server_instances() {
    // Two fresh single-worker servers fed the identical request stream
    // must produce identical response bytes: responses carry only
    // deterministic fields, and one worker makes completion order the
    // submission order.
    let requests: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"op":"job","id":"r{i}","tenant":"t","n":64,"steps":2,"warmup":0,"scenario":"{}"}}"#,
                ["plummer", "uniform", "collision"][i % 3]
            )
        })
        .collect();

    let mut streams = Vec::new();
    for round in 0..2 {
        let (endpoint, handle) = start(
            &format!("replay{round}"),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let mut c = connect(&endpoint);
        let mut responses = Vec::new();
        for req in &requests {
            responses.push(c.request(req).expect("replay response"));
        }
        shutdown_and_join(&endpoint, handle);
        streams.push(responses.join("\n"));
    }
    assert_eq!(streams[0], streams[1], "response stream not byte-stable");
}

#[test]
fn stats_op_reports_the_work_done() {
    let (endpoint, handle) = start("stats", ServerConfig::default());
    let mut c = connect(&endpoint);
    for i in 0..3 {
        let r = c.request(&job_line(&format!("s{i}"), 64)).unwrap();
        let doc = Json::parse(&r).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{r}");
    }
    let r = c.request(r#"{"op":"stats"}"#).expect("stats response");
    let doc = Json::parse(&r).expect("stats is valid json");
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(num("served_total"), 3.0, "{r}");
    assert_eq!(num("queue_depth"), 0.0, "{r}");
    assert!(num("cache_hits") + num("cache_misses") >= 3.0, "{r}");
    assert!(num("depth_p50") >= 0.0 && num("depth_p99") >= 0.0, "{r}");
    let tenants = doc
        .get("tenants")
        .and_then(Json::as_array)
        .expect("tenants array");
    assert!(
        tenants
            .iter()
            .any(|t| t.get("tenant").and_then(Json::as_str) == Some("t")),
        "{r}"
    );
    shutdown_and_join(&endpoint, handle);
}
