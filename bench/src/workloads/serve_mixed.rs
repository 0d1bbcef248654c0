//! `serve-mixed`: the job server over a unix socket, one client.
//!
//! Why: a `hit` job is dominated by fixed costs (protocol, queue, thread
//! hand-offs, `WorkerPool` dispatch, `World::reset`) and a `miss` job by
//! engine construction — reads beside writes for the engine cache.
//! Execution is small in both, unlike the native workloads.
//!
//! `Server::start` with one worker, a queue of 32 and room for 4 engines,
//! behind `transport::spawn` on a socket in the output directory. One
//! `Client` in a closed loop with one request outstanding: callers wait for
//! their replies, as `SweepScheduler` does. A round is 8 `hit` jobs (n=256,
//! 1+1 steps, the builder rotating over three of one tree layout, so one
//! engine shape that is always parked) and 1 `miss` job (n = 2048 + 64 j
//! with j cycling over 0..8: by the time a shape returns, the four-entry
//! LRU has dropped it). Every job of a cycle has bodies of its own, made
//! from the run's seed.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bh_serve::cache::AnyEngine;
use bh_serve::client::Client;
use bh_serve::exec::run_job;
use bh_serve::job::JobSpec;
use bh_serve::json::Json;
use bh_serve::protocol::{parse_request, Request};
use bh_serve::server::{JobResult, Server, ServerConfig, ServerStats};
use bh_serve::transport::{self, Endpoint};

use crate::micro;
use crate::run::{metric, Checks, Metric, Rec, Workload};
use crate::stats::{median, ms_since, ns_per_call, percentile, time_ms};
use crate::trace::Trace;

const HIT_N: usize = 256;
const HIT_ALGS: [&str; 3] = ["space", "morton", "local"];
const HITS_PER_ROUND: usize = 8;
const MISS_N: usize = 2048;
const MISS_SHAPES: usize = 8;
/// Arrival rate of the open-loop phase of the traced run, jobs per second.
const OPEN_RATE: f64 = 300.0;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 32,
        engine_capacity: 4,
        ..ServerConfig::default()
    }
}

/// A request line, the spec the server parses from it, and the final-body
/// digest a direct `run_job` of that spec gives.
struct Job {
    line: String,
    spec: JobSpec,
    digest: u64,
}

fn request_line(id: &str, algorithm: &str, n: usize, seed: u64) -> String {
    format!(
        "{{\"op\":\"job\",\"id\":\"{id}\",\"tenant\":\"bench\",\"algorithm\":\"{algorithm}\",\
         \"platform\":\"native\",\"n\":{n},\"procs\":1,\"steps\":1,\"warmup\":1,\"seed\":{seed}}}"
    )
}

fn job(id: &str, algorithm: &str, n: usize, seed: u64) -> Job {
    let line = request_line(id, algorithm, n, seed);
    let Ok(Request::Job { spec, .. }) = parse_request(&line) else {
        panic!("the benchmark's own request does not parse: {line}");
    };
    let digest = run_job(&mut AnyEngine::fresh(&spec.shape()), &spec).digest;
    Job { line, spec, digest }
}

/// Check a job's reply: served, the right bodies, from the expected side of
/// the engine cache.
fn verify(reply: std::io::Result<String>, digest: u64, cache_hit: bool) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("no reply: {e}"))?;
    let doc = Json::parse(&reply)?;
    let want = format!("{digest:016x}");
    if doc.get("ok") != Some(&Json::Bool(true)) {
        Err(format!("job not served: {reply}"))
    } else if doc.get("digest").and_then(Json::as_str) != Some(&want) {
        Err(format!(
            "digest differs from a direct run_job ({want}): {reply}"
        ))
    } else if doc.get("cache_hit") != Some(&Json::Bool(cache_hit)) {
        Err(format!("expected cache_hit={cache_hit}: {reply}"))
    } else {
        Ok(())
    }
}

/// The socket file; unlinked when the workload goes, also by a panic.
struct Socket(PathBuf);

impl Drop for Socket {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub struct ServeMixed {
    socket: Socket,
    listener: JoinHandle<std::io::Result<ServerStats>>,
    client: Client,
    hits: Vec<Job>,
    misses: Vec<Job>,
    /// Jobs the server ran so far, by class.
    ran_hit: u64,
    ran_miss: u64,
    seed: u64,
}

impl ServeMixed {
    fn stats(&mut self) -> Result<Json, String> {
        let reply = self
            .client
            .request("{\"op\":\"stats\"}")
            .map_err(|e| e.to_string())?;
        Json::parse(&reply)
    }

    /// The cache counters are exact: the first `hit` job and every `miss`
    /// job miss, every other `hit` job hits.
    fn counters_exact(&mut self) -> Result<(), String> {
        let stats = self.stats()?;
        let count = |key| stats.get(key).and_then(Json::as_f64).map(|v| v as u64);
        let want_hits = self.ran_hit.saturating_sub(1);
        let want_misses = self.ran_miss + u64::from(self.ran_hit > 0);
        if (count("cache_hits"), count("cache_misses")) == (Some(want_hits), Some(want_misses)) {
            Ok(())
        } else {
            Err(format!(
                "after {} hit and {} miss jobs the cache counted {:?} hits and {:?} misses",
                self.ran_hit,
                self.ran_miss,
                count("cache_hits"),
                count("cache_misses"),
            ))
        }
    }

    /// Open loop: `hit` jobs sent at [`OPEN_RATE`] whatever the replies do,
    /// each timed from the instant it was due. The sender sleeps between
    /// sends and a second thread only blocks on the socket, so the server's
    /// worker stays the one busy thread.
    fn open_loop(&mut self, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
        let count = (OPEN_RATE * seconds) as usize;
        let lines: Vec<String> = (0..count)
            .map(|i| {
                let spec = &self.hits[i % HITS_PER_ROUND].spec;
                request_line(&i.to_string(), spec.algorithm.name(), spec.n, spec.seed)
            })
            .collect();
        let mut stream = UnixStream::connect(&self.socket.0).expect("connect for the open loop");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
        let start = Instant::now();
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
        let mut late_ms = Vec::with_capacity(count);
        let replies: Vec<(String, Instant)> = std::thread::scope(|s| {
            let replies = s.spawn(move || {
                let mut replies = Vec::with_capacity(count);
                for _ in 0..count {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read a reply");
                    replies.push((line, Instant::now()));
                }
                replies
            });
            for (i, line) in lines.iter().enumerate() {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ms.push(ms_since(due(i)));
                stream.write_all(line.as_bytes()).expect("send a request");
                stream.write_all(b"\n").expect("send a request");
            }
            replies.join().expect("the reply reader panicked")
        });
        let (mut done_ms, mut rejected) = (Vec::new(), 0u64);
        for (reply, at) in replies {
            let doc = Json::parse(reply.trim_end()).expect("a reply is JSON");
            if doc.get("error").and_then(Json::as_str) == Some("queue_full") {
                rejected += 1;
                continue;
            }
            let i: usize = doc
                .get("id")
                .and_then(Json::as_str)
                .and_then(|id| id.parse().ok())
                .expect("a reply carries its request's id");
            let digest = self.hits[i % HITS_PER_ROUND].digest;
            checks.attempt(verify(Ok(reply), digest, true));
            self.ran_hit += 1;
            done_ms.push(at.duration_since(due(i)).as_secs_f64() * 1e3);
        }
        vec![
            metric("serve.open_ms_p50", median(&done_ms), "ms"),
            metric("serve.open_ms_p99", percentile(&done_ms, 99.0), "ms"),
            metric("serve.open_late_ms_p99", percentile(&late_ms, 99.0), "ms"),
            metric("serve.open_rejected", rejected as f64, "count"),
        ]
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve-mixed";
    const KINDS: &'static [&'static str] = &["hit", "miss"];
    const CYCLE: usize = MISS_SHAPES;
    const WARMUP: usize = MISS_SHAPES;

    fn set_up(seed: u64, out: &Path) -> ServeMixed {
        // The protocol carries the seed as a JSON number below 2^32.
        let seed = seed % (1 << 32);
        let job_seed = |i: usize| (seed * 16 + i as u64) % (1 << 32);
        let hits = (0..HITS_PER_ROUND)
            .map(|i| {
                job(
                    &format!("hit-{i}"),
                    HIT_ALGS[i % HIT_ALGS.len()],
                    HIT_N,
                    job_seed(i),
                )
            })
            .collect();
        let misses = (0..MISS_SHAPES)
            .map(|j| {
                job(
                    &format!("miss-{j}"),
                    "partree",
                    MISS_N + 64 * j,
                    job_seed(HITS_PER_ROUND + j),
                )
            })
            .collect();
        // One socket per set-up of this process: a stale file of an earlier
        // set-up can never be mistaken for this one's.
        static SOCKETS: AtomicUsize = AtomicUsize::new(0);
        let nth = SOCKETS.fetch_add(1, Ordering::Relaxed);
        let socket = Socket(out.join(format!("s{}-{nth}.sock", std::process::id())));
        let endpoint = Endpoint::Unix(socket.0.clone());
        let listener = transport::spawn(Server::start(server_config()), endpoint.clone());
        let client = Client::connect_with_retry(&endpoint, 250)
            .expect("connect to the benchmark's own server");
        ServeMixed {
            socket,
            listener,
            client,
            hits,
            misses,
            ran_hit: 0,
            ran_miss: 0,
            seed,
        }
    }

    fn round(&mut self, round: usize, rec: &mut Rec) {
        for i in 0..HITS_PER_ROUND {
            let job = &self.hits[i];
            let reply = rec.op(0, |_| self.client.request(&job.line));
            rec.attempt(verify(reply, job.digest, self.ran_hit > 0));
            self.ran_hit += 1;
        }
        let job = &self.misses[round % MISS_SHAPES];
        let reply = rec.op(1, |_| self.client.request(&job.line));
        rec.attempt(verify(reply, job.digest, false));
        self.ran_miss += 1;
    }

    fn body_steps_per_round(&self) -> f64 {
        let miss_mean =
            self.misses.iter().map(|j| j.spec.n).sum::<usize>() as f64 / MISS_SHAPES as f64;
        2.0 * (HITS_PER_ROUND * HIT_N) as f64 + 2.0 * miss_mean
    }

    fn check(&mut self, checks: &mut Checks) {
        let exact = self.counters_exact();
        checks.attempt(exact);
    }

    fn layers(
        &mut self,
        _trace: &Trace,
        plain: &Rec,
        budget: Duration,
        checks: &mut Checks,
    ) -> Vec<Metric> {
        let t0 = Instant::now();
        let mut out = micro::core_fixed_costs(self.seed, HIT_N, MISS_N);
        out.extend(micro::serve_fixed_costs(
            &self.hits[0].line,
            &self.hits[0].spec,
        ));
        let ping_ns = ns_per_call(15, 200, || {
            self.client.request("{\"op\":\"ping\"}").expect("ping");
        });
        out.push(metric("serve.transport.ping_us", ping_ns / 1e3, "us"));

        // One hit job three ways, in turns so that all three see the same
        // stretch of host time: through the socket, through `Server::submit`
        // without a socket, and as the bare `run_job` the worker executes.
        let server = Server::start(server_config());
        let mut engine = AnyEngine::fresh(&self.hits[0].spec.shape());
        let (mut served_ms, mut submit_ms, mut run_hit_ms) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..150 {
            let job = &self.hits[i % HITS_PER_ROUND];
            let (reply, ms) = time_ms(|| self.client.request(&job.line));
            checks.attempt(verify(reply, job.digest, true));
            self.ran_hit += 1;
            served_ms.push(ms);

            let (tx, rx) = mpsc::channel();
            let t0 = Instant::now();
            let sent = server.submit(
                "bench",
                job.spec.clone(),
                Box::new(move |r| tx.send(r).unwrap()),
            );
            let result = rx.recv().expect("the job's callback ran");
            submit_ms.push(ms_since(t0));
            checks.attempt(match (sent, result) {
                (Ok(()), JobResult::Done(o)) if o.digest == job.digest => Ok(()),
                other => Err(format!("in-process submit: {other:?}")),
            });

            run_hit_ms.push(time_ms(|| run_job(&mut engine, &job.spec)).1);
        }
        server.shutdown();
        // A miss executes the construction of its engine too.
        let run_miss_ms: Vec<f64> = (0..2 * MISS_SHAPES)
            .map(|i| {
                let spec = &self.misses[i % MISS_SHAPES].spec;
                time_ms(|| run_job(&mut AnyEngine::fresh(&spec.shape()), spec)).1
            })
            .collect();
        out.extend([
            metric("serve.server.submit_done_ms.hit", median(&submit_ms), "ms"),
            metric("serve.exec.run_job_ms.hit", median(&run_hit_ms), "ms"),
            metric("serve.exec.run_job_ms.miss", median(&run_miss_ms), "ms"),
            metric(
                "serve.overhead_us.hit",
                (median(&served_ms) - median(&run_hit_ms)) * 1e3,
                "us",
            ),
            metric(
                "serve.job_ms_p90.hit",
                percentile(&plain.op_ms[0], 90.0),
                "ms",
            ),
            metric(
                "serve.job_ms_p99.hit",
                percentile(&plain.op_ms[0], 99.0),
                "ms",
            ),
            metric(
                "serve.job_ms_p99.miss",
                percentile(&plain.op_ms[1], 99.0),
                "ms",
            ),
        ]);

        let open_seconds = budget
            .saturating_sub(t0.elapsed())
            .as_secs_f64()
            .clamp(1.0, 5.0);
        out.extend(self.open_loop(open_seconds, checks));

        let stats = self.stats().expect("the stats op answers");
        let field = |key| {
            stats
                .get(key)
                .and_then(Json::as_f64)
                .expect("a stats field")
        };
        let (hits, misses) = (field("cache_hits"), field("cache_misses"));
        out.push(metric(
            "serve.cache.hit_rate",
            hits / (hits + misses),
            "ratio",
        ));
        out.push(metric("serve.queue_depth_p99", field("depth_p99"), "count"));
        out
    }

    /// The counters once more, then `{"op":"shutdown"}` and the listener
    /// joined; `transport::run` unlinks the socket on its way out.
    fn tear_down(mut self, checks: &mut Checks) {
        let exact = self.counters_exact();
        checks.attempt(exact);
        let ack = self.client.request("{\"op\":\"shutdown\"}");
        checks.attempt(match ack {
            Ok(ack) if ack.contains("\"shutdown\":true") => Ok(()),
            other => Err(format!("shutdown not acknowledged: {other:?}")),
        });
        drop(self.client);
        let served = self.listener.join().expect("the listener thread panicked");
        checks.attempt(served.map(|_| ()).map_err(|e| format!("listener: {e}")));
        drop(self.socket);
    }
}
