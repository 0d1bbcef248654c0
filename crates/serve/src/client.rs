//! Blocking protocol client: a thin line-oriented wrapper over one socket.
//!
//! `send` and `recv` are separate so a caller can pipeline requests down a
//! connection without reading between them, which is how the protocol tests
//! overrun the bounded admission queue.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::transport::Endpoint;

/// A connected protocol client (one socket, blocking I/O).
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: BufWriter<Box<dyn Write + Send>>,
}

impl Client {
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let (r, w): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match endpoint {
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                let w = s.try_clone()?;
                (Box::new(s), Box::new(w))
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                let w = s.try_clone()?;
                (Box::new(s), Box::new(w))
            }
        };
        Ok(Client {
            reader: BufReader::new(r),
            writer: BufWriter::new(w),
        })
    }

    /// Send one request line without waiting for the response (pipelining).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Read the next response line (blocks).
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Send a request and read one response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Connect, retrying while the endpoint comes up (a just-spawned
    /// listener may not have bound yet).
    pub fn connect_with_retry(endpoint: &Endpoint, attempts: u32) -> io::Result<Client> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Client::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(last.unwrap())
    }
}
