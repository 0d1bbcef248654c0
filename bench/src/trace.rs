//! Spans around the calls into each layer, recorded from the benchmark's
//! side of the public functions (no span lives inside the program).
//!
//! One span per call: name, kind (the builder, platform or job class the
//! call served), start, end, the span that caused it, and the round it
//! belongs to. Spans stay in memory until the run ends and are then written
//! in Chrome's trace format. Every timed op keeps a single thread busy and
//! the thread that opened a span is blocked while a pool worker opens its
//! children, so one stack of open spans is enough.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    pub round: u32,
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
pub struct Tracer {
    t0: Instant,
    buf: Option<Mutex<Buf>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            t0: Instant::now(),
            buf: None,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            t0: Instant::now(),
            buf: Some(Mutex::new(Buf::default())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    fn buf(&self) -> Option<std::sync::MutexGuard<'_, Buf>> {
        self.buf
            .as_ref()
            .map(|m| m.lock().expect("a span closure panicked"))
    }

    /// Spans opened from now on belong to round `round`.
    pub fn set_round(&self, round: u32) {
        if let Some(mut b) = self.buf() {
            b.round = round;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, kind: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(mut b) = self.buf() else {
            return f();
        };
        let id = b.spans.len();
        let (parent, round) = (b.open.last().copied(), b.round);
        b.open.push(id);
        b.spans.push(Span {
            name,
            kind,
            start_ns: 0,
            end_ns: 0,
            parent,
            round,
        });
        drop(b);
        let start = self.t0.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        let mut b = self.buf().expect("tracer is on");
        b.spans[id].start_ns = start;
        b.spans[id].end_ns = end;
        let closed = b.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in the order they nest");
        r
    }

    /// Take the recorded spans, in the order they were opened.
    pub fn take_spans(&self) -> Vec<Span> {
        self.buf()
            .map_or_else(Vec::new, |mut b| std::mem::take(&mut b.spans))
    }
}

/// The recorded spans of one run with each span's self time: its duration
/// minus the part of it its child spans cover.
pub struct Trace {
    pub spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl Trace {
    pub fn new(spans: Vec<Span>) -> Trace {
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        Trace { spans, self_ns }
    }

    /// Self time in milliseconds of every span called `name` for `kind`
    /// (`""` takes every kind).
    pub fn self_ms(&self, name: &str, kind: &str) -> Vec<f64> {
        self.matching(name, kind)
            .map(|(id, _)| self.self_ns[id] as f64 / 1e6)
            .collect()
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        kind: &'a str,
    ) -> impl Iterator<Item = (usize, &'a Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && (kind.is_empty() || s.kind == kind))
    }

    /// Median self time in milliseconds over the calls of one kind.
    pub fn median_self_ms(&self, name: &str, kind: &str) -> f64 {
        median(&self.self_ms(name, kind))
    }

    /// Whole duration in milliseconds, children included, of every span
    /// called `name` for `kind`.
    pub fn total_ms(&self, name: &str, kind: &str) -> Vec<f64> {
        self.matching(name, kind)
            .map(|(_, s)| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per round, the summed duration in milliseconds of the spans called
    /// `name` for `kind`.
    pub fn round_total_ms(&self, name: &str, kind: &str) -> Vec<f64> {
        let mut per_round = std::collections::BTreeMap::new();
        for (_, s) in self.matching(name, kind) {
            *per_round.entry(s.round).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        per_round.into_values().collect()
    }

    /// Chrome trace format: one complete ("X") event per span, times in
    /// microseconds, the span's id, parent and round under `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let name = if s.kind.is_empty() {
                s.name.to_string()
            } else {
                format!("{}:{}", s.name, s.kind)
            };
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"round\":{}}}}}{sep}",
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round,
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            kind: "",
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // op [0, 100) holds build [10, 40) and, right after it, com [40, 70);
        // build holds insert [15, 25).
        let trace = Trace::new(vec![
            span("op", 0, 100, None),
            span("build", 10, 40, Some(0)),
            span("insert", 15, 25, Some(1)),
            span("com", 40, 70, Some(0)),
        ]);
        let ns = |name| (trace.median_self_ms(name, "") * 1e6).round() as u64;
        assert_eq!(
            ns("op"),
            100 - 30 - 30,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(ns("build"), 30 - 10);
        assert_eq!(ns("insert"), 10);
        assert_eq!(ns("com"), 30);
    }

    #[test]
    fn tracer_records_parents_rounds_and_kinds() {
        let t = Tracer::on();
        t.set_round(3);
        let got = t.span("op", "space", || {
            t.span("build", "space", || 7) + t.span("com", "space", || 1)
        });
        assert_eq!(got, 8);
        t.set_round(4);
        t.span("op", "morton", || ());
        let trace = Trace::new(t.take_spans());
        let shape: Vec<_> = trace
            .spans
            .iter()
            .map(|s| (s.name, s.kind, s.parent, s.round))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("op", "space", None, 3),
                ("build", "space", Some(0), 3),
                ("com", "space", Some(0), 3),
                ("op", "morton", None, 4),
            ]
        );
        assert_eq!(trace.self_ms("op", "").len(), 2);
        assert_eq!(trace.self_ms("op", "morton").len(), 1);
        for s in &trace.spans {
            assert!(s.start_ns <= s.end_ns);
        }
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("op", "", || 5), 5);
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let trace = Trace::new(vec![
            span("op", 0, 2_000, None),
            span("build", 500, 1_500, Some(0)),
        ]);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        trace.write_chrome(&path).unwrap();
        let doc = bh_serve::json::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|p| p.as_f64()), Some(0.0));
    }
}
