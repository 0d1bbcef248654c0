//! Lock-contention profiling over [`Env`], and the text and Chrome-trace
//! exports of a run.
//!
//! [`TraceEnv`] wraps any environment — [`crate::env::NativeEnv`], the
//! `ssmp` simulator, or a [`crate::check::CheckedEnv`] — exactly as
//! `CheckedEnv` does, and times every [`Env::lock`] individually: the
//! acquires are kept per processor ([`TraceEnv::lock_events`]) and
//! aggregated into a per-lock-id contention histogram
//! ([`TraceEnv::lock_histogram`]). The hot shared cells that the paper
//! blames for ORIG's collapse show up as a few ids absorbing most of the
//! wait; SPACE shows an empty histogram (it takes no locks). That is what
//! only a wrapper can see. What each phase of each step did — time, lock,
//! barrier and protocol counters, the per-phase/per-processor breakdown
//! behind the paper's Table 2 and Figures 14–15 — is the application's own
//! record ([`crate::app::StepRecord`]), which [`RunStats`] folds.
//!
//! The exports combine the two: a plain-text per-phase summary with
//! per-step percentiles ([`TraceEnv::summary`]) and a
//! Chrome/Perfetto-compatible trace-event JSON
//! ([`TraceEnv::chrome_trace_json`]) with one track (thread) per processor,
//! holding its phase spans and its contended lock acquires — load it at
//! <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! All times are in the *inner* environment's units: wall nanoseconds over
//! `NativeEnv`, simulated cycles of the modeled machine over `ssmp`.
//!
//! `TraceEnv` is an [`EnvLayer`] that overrides one hook, `on_lock`, so
//! tracing is honest about its own cost: accesses and phase markers take
//! the layer's inlined forwarding and never see the wrapper, which touches
//! its per-processor buffer (an uncontended mutex) only at lock acquires.

use crate::app::{percentile_f64, percentile_u64, RunStats};
use crate::env::{Env, EnvLayer, LayerCtx, Phase};
use crate::sync::Mutex;
use std::collections::HashMap;

/// One timed lock acquisition on one processor.
#[derive(Debug, Clone)]
pub struct LockEvent {
    pub proc: usize,
    /// Raw lock id (pre-hash; see [`crate::env::lock_slot`]).
    pub lock: usize,
    /// Time the acquire started.
    pub start: u64,
    /// Time the acquire completed.
    pub end: u64,
    /// Inner-environment lock wait charged to this acquire.
    pub wait: u64,
}

/// Aggregated contention on one lock id across all processors.
#[derive(Debug, Clone, Default)]
pub struct LockStat {
    pub lock: usize,
    pub acquires: u64,
    pub wait_total: u64,
    pub wait_max: u64,
}

/// Stored lock events are capped per processor (the histogram keeps
/// aggregating past the cap, so totals stay exact).
const MAX_LOCK_EVENTS_PER_PROC: usize = 1 << 16;

#[derive(Default)]
struct ProcTrace {
    lock_events: Vec<LockEvent>,
    hist: HashMap<usize, LockStat>,
}

/// A tracing wrapper around any [`Env`]. See the module docs.
pub struct TraceEnv<E: Env> {
    inner: E,
    procs: Box<[Mutex<ProcTrace>]>,
}

impl<E: Env> TraceEnv<E> {
    pub fn new(inner: E) -> TraceEnv<E> {
        let procs = inner.num_procs();
        TraceEnv {
            inner,
            procs: (0..procs)
                .map(|_| Mutex::new(ProcTrace::default()))
                .collect(),
        }
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// All stored lock events, in processor order (capped per processor;
    /// the histogram keeps counting past the cap).
    pub fn lock_events(&self) -> Vec<LockEvent> {
        let mut out = Vec::new();
        for p in self.procs.iter() {
            out.extend(p.lock().lock_events.iter().cloned());
        }
        out
    }

    /// Contention histogram over raw lock ids, aggregated across all
    /// processors and sorted hottest-first (by total wait, then acquires).
    pub fn lock_histogram(&self) -> Vec<LockStat> {
        let mut merged: HashMap<usize, LockStat> = HashMap::new();
        for p in self.procs.iter() {
            for (lock, s) in p.lock().hist.iter() {
                let e = merged.entry(*lock).or_insert_with(|| LockStat {
                    lock: *lock,
                    ..LockStat::default()
                });
                e.acquires += s.acquires;
                e.wait_total += s.wait_total;
                e.wait_max = e.wait_max.max(s.wait_max);
            }
        }
        let mut out: Vec<LockStat> = merged.into_values().collect();
        out.sort_by(|a, b| {
            (b.wait_total, b.acquires, a.lock).cmp(&(a.wait_total, a.acquires, b.lock))
        });
        out
    }

    /// Plain-text summary of `stats`, a run on this environment, over all
    /// its steps (warm-up included). First one Table-2-style row per phase
    /// — time on the critical path, lock, barrier and protocol counters
    /// summed over processors — and the hottest lock ids; then nearest-rank
    /// p50/p99 over steps of each phase's time, lock wait and imbalance.
    /// The steps of one run are the repeats there, so a single slow step
    /// shows up in the p99 column instead of vanishing into a run-level
    /// mean.
    pub fn summary(&self, stats: &RunStats, time_unit: &str) -> String {
        let steps = 0..stats.measured().end;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>14} {:>9} {:>14} {:>14} {:>8} {:>8} {:>7}\n",
            "phase",
            format!("time({time_unit})"),
            "locks",
            "lock_wait",
            "barrier_wait",
            "remote",
            "local",
            "faults"
        ));
        for (phase, a) in Phase::ALL.iter().zip(stats.phases_over(steps.clone())) {
            out.push_str(&format!(
                "{:<10} {:>14} {:>9} {:>14} {:>14} {:>8} {:>8} {:>7}\n",
                phase.name(),
                a.time,
                a.lock_acquires,
                a.lock_wait,
                a.barrier_wait,
                a.remote_misses,
                a.local_misses,
                a.page_faults
            ));
        }
        let hist = self.lock_histogram();
        if hist.is_empty() {
            out.push_str("locks: none (lock-free)\n");
        } else {
            let total_wait: u64 = hist.iter().map(|s| s.wait_total).sum();
            out.push_str(&format!(
                "locks: {} distinct ids, total wait {total_wait} {time_unit}; hottest:",
                hist.len()
            ));
            for s in hist.iter().take(4) {
                out.push_str(&format!(
                    " [id {} x{} wait {}]",
                    s.lock, s.acquires, s.wait_total
                ));
            }
            out.push('\n');
        }

        out.push_str("\nper-step percentiles (all steps incl. warm-up):\n");
        out.push_str(&format!(
            "{:<10} {:>5} {:>14} {:>14} {:>14} {:>14} {:>10} {:>10}\n",
            "phase",
            "steps",
            format!("t_p50({time_unit})"),
            format!("t_p99({time_unit})"),
            "lockw_p50",
            "lockw_p99",
            "imbal_p50",
            "imbal_p99"
        ));
        let rows = stats.step_rows(steps);
        for phase in Phase::ALL {
            let of_phase: Vec<_> = rows.iter().filter(|r| r.phase == phase).collect();
            let times: Vec<u64> = of_phase.iter().map(|r| r.stats.time).collect();
            let waits: Vec<u64> = of_phase.iter().map(|r| r.stats.lock_wait).collect();
            let imb: Vec<f64> = of_phase.iter().map(|r| r.imbalance).collect();
            out.push_str(&format!(
                "{:<10} {:>5} {:>14} {:>14} {:>14} {:>14} {:>10.3} {:>10.3}\n",
                phase.name(),
                of_phase.len(),
                percentile_u64(&times, 50.0),
                percentile_u64(&times, 99.0),
                percentile_u64(&waits, 50.0),
                percentile_u64(&waits, 99.0),
                percentile_f64(&imb, 50.0),
                percentile_f64(&imb, 99.0)
            ));
        }
        out
    }

    /// Chrome trace-event objects for `stats`, a run on this environment:
    /// every processor's phase spans in step order, then its contended lock
    /// acquires, one JSON object per string. `pid` and `process_name` label
    /// the process track (combine several runs into one file by
    /// concatenating their events under distinct pids); timestamps are
    /// divided by `ts_div` to map the environment's units onto the format's
    /// microseconds (1000.0 for native nanoseconds; 1.0 renders one
    /// simulated cycle as 1 µs).
    pub fn chrome_trace_events(
        &self,
        stats: &RunStats,
        pid: u32,
        process_name: &str,
        ts_div: f64,
    ) -> Vec<String> {
        let div = if ts_div > 0.0 { ts_div } else { 1.0 };
        let mut out = Vec::new();
        out.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\",\"num_procs\":{}}}}}",
            escape(process_name),
            self.procs.len()
        ));
        for proc in 0..self.procs.len() {
            out.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{proc},\"args\":{{\"name\":\"P{proc}\"}}}}"
            ));
        }
        for r in &stats.procs_records {
            for (step, s) in r.steps.iter().enumerate() {
                let mut start = s.start;
                for (phase, st) in Phase::ALL.iter().zip(&s.phases) {
                    out.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{\"step\":{step},\"lock_acquires\":{},\"lock_wait\":{},\"barrier_wait\":{},\"remote_misses\":{},\"local_misses\":{},\"page_faults\":{}}}}}",
                        phase.name(),
                        start as f64 / div,
                        st.time as f64 / div,
                        r.proc,
                        st.lock_acquires,
                        st.lock_wait,
                        st.barrier_wait,
                        st.remote_misses,
                        st.local_misses,
                        st.page_faults
                    ));
                    start += st.time;
                }
            }
        }
        // Contended acquires only: uncontended native locks are ~0 ns wide
        // and would swamp the view without adding information.
        for e in self.lock_events() {
            if e.wait == 0 {
                continue;
            }
            out.push(format!(
                "{{\"name\":\"lock {}\",\"cat\":\"lock\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{\"wait\":{}}}}}",
                e.lock,
                e.start as f64 / div,
                (e.end - e.start) as f64 / div,
                e.proc,
                e.wait
            ));
        }
        out
    }

    /// A complete Chrome trace-event JSON document for `stats` alone. See
    /// [`TraceEnv::chrome_trace_events`].
    pub fn chrome_trace_json(&self, stats: &RunStats, process_name: &str, ts_div: f64) -> String {
        format!(
            "[\n{}\n]\n",
            self.chrome_trace_events(stats, 0, process_name, ts_div)
                .join(",\n")
        )
    }
}

/// Minimal JSON string escaping for trace labels.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl<E: Env> EnvLayer for TraceEnv<E> {
    type Inner = E;
    type Local = ();

    fn inner(&self) -> &E {
        &self.inner
    }

    fn make_local(&self, _proc: usize) {}

    fn on_lock(&self, ctx: &mut LayerCtx<Self>, lock: usize) {
        let start = self.inner.now(&ctx.inner);
        let before = self.inner.stats(&ctx.inner);
        self.inner.lock(&mut ctx.inner, lock);
        let end = self.inner.now(&ctx.inner);
        let wait = self
            .inner
            .stats(&ctx.inner)
            .lock_wait
            .saturating_sub(before.lock_wait);
        let mut t = self.procs[ctx.proc].lock();
        let e = t.hist.entry(lock).or_insert_with(|| LockStat {
            lock,
            ..LockStat::default()
        });
        e.acquires += 1;
        e.wait_total += wait;
        e.wait_max = e.wait_max.max(wait);
        if t.lock_events.len() < MAX_LOCK_EVENTS_PER_PROC {
            t.lock_events.push(LockEvent {
                proc: ctx.proc,
                lock,
                start,
                end,
                wait,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::app::{run_simulation, SimConfig};
    use crate::check::CheckedEnv;
    use crate::env::NativeEnv;
    use crate::harness::spmd;
    use crate::model::Model;

    fn tiny_cfg(alg: Algorithm) -> SimConfig {
        let mut cfg = SimConfig::new(alg);
        cfg.k = 4;
        cfg.warmup_steps = 1;
        cfg.measured_steps = 1;
        cfg
    }

    /// The phase spans of a Chrome trace document.
    fn phase_spans(json: &str) -> usize {
        json.matches("\"cat\":\"phase\"").count()
    }

    #[test]
    fn every_acquire_is_timed_and_counted() {
        let env = TraceEnv::new(NativeEnv::new(2));
        spmd(&env, |proc, ctx| {
            env.lock(ctx, 70 + proc);
            env.unlock(ctx, 70 + proc);
        });
        let hist = env.lock_histogram();
        assert_eq!(hist.len(), 2);
        assert!(hist.iter().all(|h| h.acquires == 1));
        let events = env.lock_events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert_eq!(e.lock, 70 + e.proc);
            assert!(e.end >= e.start);
        }
    }

    #[test]
    fn full_run_emits_four_phases_per_step_per_proc() {
        let env = TraceEnv::new(NativeEnv::new(4));
        let bodies = Model::Plummer.generate(96, 1998);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Orig), &bodies);
        stats.assert_valid();
        let json = env.chrome_trace_json(&stats, "native orig", 1000.0);
        // 2 steps (1 warm-up + 1 measured) x 4 phases x 4 procs.
        assert_eq!(phase_spans(&json), 2 * 4 * 4);
        for phase in Phase::ALL {
            let name = format!("\"name\":\"{phase}\",\"cat\":\"phase\"");
            assert_eq!(json.matches(&name).count(), 8);
        }
        // Steps 0 (warm-up) and 1 (measured) both appear.
        assert!(json.contains("\"step\":0,"));
        assert!(json.contains("\"step\":1,"));
    }

    #[test]
    fn histogram_separates_orig_from_space() {
        let bodies = Model::Plummer.generate(96, 1998);

        let orig = TraceEnv::new(NativeEnv::new(4));
        run_simulation(&orig, &tiny_cfg(Algorithm::Orig), &bodies).assert_valid();
        let orig_hist = orig.lock_histogram();
        assert!(
            !orig_hist.is_empty(),
            "ORIG locks every body insert; histogram cannot be empty"
        );
        let orig_acquires: u64 = orig_hist.iter().map(|s| s.acquires).sum();
        assert!(orig_acquires as usize >= bodies.len());

        let space = TraceEnv::new(NativeEnv::new(4));
        let stats = run_simulation(&space, &tiny_cfg(Algorithm::Space), &bodies);
        stats.assert_valid();
        let tree = stats.phases_over(0..stats.measured().end)[Phase::Tree.index()];
        assert_eq!(tree.lock_acquires, 0, "SPACE's tree build is lock-free");
    }

    #[test]
    fn composes_with_checked_env_and_stays_race_free() {
        let env = TraceEnv::new(CheckedEnv::new(NativeEnv::new(4)));
        let bodies = Model::Plummer.generate(96, 1998);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Local), &bodies);
        stats.assert_valid();
        env.inner().assert_race_free();
        let json = env.chrome_trace_json(&stats, "checked local", 1000.0);
        assert_eq!(phase_spans(&json), 2 * 4 * 4);
    }

    #[test]
    fn chrome_trace_has_tracks_and_spans() {
        let env = TraceEnv::new(NativeEnv::new(2));
        let bodies = Model::Plummer.generate(64, 7);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Partree), &bodies);
        stats.assert_valid();
        let json = env.chrome_trace_json(&stats, "native partree", 1000.0);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"process_name\""));
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert!(json.contains("\"num_procs\":2"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"tree\""));
        assert!(json.contains("\"name\":\"update\""));
    }

    #[test]
    fn summary_reports_phases_and_lock_freedom() {
        let env = TraceEnv::new(NativeEnv::new(2));
        let bodies = Model::Plummer.generate(64, 7);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Space), &bodies);
        stats.assert_valid();
        let s = env.summary(&stats, "ns");
        for phase in Phase::ALL {
            assert_eq!(s.matches(phase.name()).count(), 2, "{phase} rows: {s}");
        }
        // SPACE takes no tree locks; the update phase may lock on movers,
        // but with a pure rebuild it doesn't — accept either wording.
        assert!(s.contains("locks:"), "summary missing lock line: {s}");
        assert!(s.contains("t_p50(ns)"), "missing percentile column: {s}");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
    }
}
