//! Socket transport: line-delimited JSON over unix-domain or TCP sockets.
//!
//! One reader thread per connection parses requests and submits them to
//! the [`Server`]; responses are written by whichever executor finishes
//! the job, through a mutex-shared writer. The reader therefore never
//! waits for a job before admitting the next pipelined request — which is
//! exactly what lets a bursting client fill the bounded queue and observe
//! real `queue_full` backpressure instead of TCP buffering.
//!
//! This module is on the sync-confinement whitelist (it owns connection
//! threads and the shared writers); protocol logic stays in
//! [`crate::protocol`], job logic in [`crate::server`].

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::{
    encode_error, encode_job_ok, encode_pong, encode_shutdown_ack, encode_stats, parse_request,
    ProtoError, Request, MAX_LINE,
};
use crate::server::{JobResult, Server, ServerStats, SubmitError};

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

impl Endpoint {
    /// Parse `unix:/path/to.sock` or `tcp:host:port`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(format!("invalid endpoint '{s}' (empty unix path)"));
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!("invalid endpoint '{s}' (expected tcp:host:port)"));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "invalid endpoint '{s}' (expected unix:<path> or tcp:<host:port>)"
            ))
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// Run the accept loop until a client sends `{"op":"shutdown"}`, then shut
/// the server down gracefully (drain queue, park engines) and return its
/// final stats. Binding errors are returned immediately.
pub fn run(server: Server, endpoint: &Endpoint) -> io::Result<ServerStats> {
    let listener = match endpoint {
        Endpoint::Unix(path) => {
            // A stale socket file from a previous run would make bind fail.
            let _ = std::fs::remove_file(path);
            Listener::Unix(UnixListener::bind(path)?)
        }
        Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
    };
    let mut server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));

    loop {
        let conn: Box<dyn Conn> = match &listener {
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Box::new(s),
                Err(e) => return Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Box::new(s),
                Err(e) => return Err(e),
            },
        };
        if stop.load(Ordering::SeqCst) {
            // This is the wake-up poke (or a late client); drop it unread.
            break;
        }
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let endpoint = endpoint.clone();
        std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                let shutdown_requested = handle_connection(conn, &server);
                if shutdown_requested {
                    stop.store(true, Ordering::SeqCst);
                    // accept() is blocking; a throwaway connection to our
                    // own endpoint unblocks it so the loop can exit.
                    poke(&endpoint);
                }
            })
            .expect("spawn connection thread");
    }
    drop(listener);
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }

    // Reclaim sole ownership once connection threads drop their clones
    // (they exit as their clients disconnect). A connection that lingers
    // past the grace period only costs us the graceful-drop path: jobs are
    // still drained via wait_idle before we take the final snapshot.
    for _ in 0..1000 {
        match Arc::try_unwrap(server) {
            Ok(owned) => return Ok(owned.shutdown()),
            Err(shared) => {
                server = shared;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    }
    server.wait_idle();
    Ok(server.stats())
}

/// Start [`run`] on a background thread: the self-hosted mode used by
/// `bhbench serve-mixed` and the protocol tests. Join the handle after a
/// client sends `{"op":"shutdown"}` to collect the final stats.
pub fn spawn(
    server: Server,
    endpoint: Endpoint,
) -> std::thread::JoinHandle<io::Result<ServerStats>> {
    std::thread::Builder::new()
        .name("serve-listener".to_string())
        .spawn(move || run(server, &endpoint))
        .expect("spawn listener thread")
}

fn poke(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr.as_str());
        }
    }
}

trait Conn: Send {
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)>;
}

impl Conn for UnixStream {
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let w = self.try_clone()?;
        Ok((Box::new(*self), Box::new(w)))
    }
}

impl Conn for TcpStream {
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let w = self.try_clone()?;
        Ok((Box::new(*self), Box::new(w)))
    }
}

/// Shared response writer: executors and the reader thread both write
/// whole lines through it.
#[derive(Clone)]
struct LineWriter {
    inner: Arc<Mutex<BufWriter<Box<dyn Write + Send>>>>,
}

impl LineWriter {
    fn send(&self, line: &str) {
        // A vanished client is not an error worth crashing for; the job
        // already ran and the counters already recorded it.
        let mut w = self.inner.lock().unwrap();
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
        let _ = w.flush();
    }
}

/// Returns true if the client requested server shutdown.
fn handle_connection(conn: Box<dyn Conn>, server: &Arc<Server>) -> bool {
    let Ok((read_half, write_half)) = conn.split() else {
        return false;
    };
    let mut reader = BufReader::new(read_half);
    let writer = LineWriter {
        inner: Arc::new(Mutex::new(BufWriter::new(write_half))),
    };
    loop {
        match read_line_bounded(&mut reader, MAX_LINE) {
            // EOF (including mid-request disconnect): clean close.
            Ok(None) => return false,
            Ok(Some(LineIn::Oversized)) => {
                writer.send(&encode_error(
                    None,
                    "oversized",
                    &format!("request line exceeds {MAX_LINE} bytes"),
                ));
            }
            Ok(Some(LineIn::Line(line))) => {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(&line) {
                    Err(ProtoError { code, message }) => {
                        writer.send(&encode_error(None, code, &message));
                    }
                    Ok(Request::Ping) => writer.send(&encode_pong()),
                    Ok(Request::Stats) => writer.send(&encode_stats(&server.stats())),
                    Ok(Request::Shutdown) => {
                        writer.send(&encode_shutdown_ack());
                        return true;
                    }
                    Ok(Request::Job { id, tenant, spec }) => {
                        let w = writer.clone();
                        let rid = id.clone();
                        let rtenant = tenant.clone();
                        let outcome = server.submit(
                            &tenant,
                            spec,
                            Box::new(move |result| match result {
                                JobResult::Done(o) => w.send(&encode_job_ok(&rid, &rtenant, &o)),
                                JobResult::Failed(msg) => {
                                    w.send(&encode_error(Some(&rid), "engine_panic", &msg))
                                }
                            }),
                        );
                        if let Err(err) = outcome {
                            let msg = match &err {
                                SubmitError::Invalid(m) => m.clone(),
                                SubmitError::QueueFull => {
                                    format!("queue at capacity ({})", server.stats().queue_capacity)
                                }
                                SubmitError::ShuttingDown => "server is draining".to_string(),
                            };
                            writer.send(&encode_error(Some(&id), err.code(), &msg));
                        }
                    }
                }
            }
            Err(_) => return false, // connection reset mid-request
        }
    }
}

enum LineIn {
    Line(String),
    /// The line exceeded the cap; it was discarded up to its newline.
    Oversized,
}

/// Read one newline-terminated line without ever buffering more than
/// `max` bytes of it. Returns `Ok(None)` at EOF (a trailing partial line
/// with no newline is treated as a disconnect, not a request).
fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> io::Result<Option<LineIn>> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(None);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if !discarding {
                    line.extend_from_slice(&buf[..nl]);
                }
                reader.consume(nl + 1);
                if discarding || line.len() > max {
                    return Ok(Some(LineIn::Oversized));
                }
                let text = String::from_utf8_lossy(&line).into_owned();
                return Ok(Some(LineIn::Line(text)));
            }
            None => {
                let len = buf.len();
                if !discarding {
                    line.extend_from_slice(buf);
                    if line.len() > max {
                        discarding = true;
                        line.clear();
                    }
                }
                reader.consume(len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse_with_diagnostics() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/s.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7007"),
            Ok(Endpoint::Tcp("127.0.0.1:7007".to_string()))
        );
        assert!(Endpoint::parse("http:x").unwrap_err().contains("http:x"));
        assert!(Endpoint::parse("unix:").unwrap_err().contains("empty"));
        assert!(Endpoint::parse("tcp:noport")
            .unwrap_err()
            .contains("noport"));
    }

    #[test]
    fn bounded_reader_enforces_the_cap() {
        let data = b"short\n".to_vec();
        let mut r = BufReader::new(&data[..]);
        match read_line_bounded(&mut r, 16).unwrap() {
            Some(LineIn::Line(s)) => assert_eq!(s, "short"),
            other => panic!("unexpected: got a line? {}", other.is_some()),
        }

        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"after\n");
        let mut r = BufReader::new(&data[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 16).unwrap(),
            Some(LineIn::Oversized)
        ));
        // The oversized line was skipped; the stream stays usable.
        match read_line_bounded(&mut r, 16).unwrap() {
            Some(LineIn::Line(s)) => assert_eq!(s, "after"),
            _ => panic!("stream wedged after oversized line"),
        }
    }

    #[test]
    fn partial_trailing_line_is_eof() {
        let data = b"no newline".to_vec();
        let mut r = BufReader::new(&data[..]);
        assert!(read_line_bounded(&mut r, 64).unwrap().is_none());
    }
}
