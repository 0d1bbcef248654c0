//! Composable span tracing and lock-contention profiling over [`Env`].
//!
//! [`TraceEnv`] wraps any environment — [`crate::env::NativeEnv`], the
//! `ssmp` simulator, or a [`crate::check::CheckedEnv`] — exactly as
//! `CheckedEnv` does, and records per-processor event buffers:
//!
//! * **Phase spans.** The application emits [`Env::phase_begin`] /
//!   [`Env::phase_end`] at every tree/partition/force/update boundary
//!   (see [`crate::app`]); `TraceEnv` turns each pair into a
//!   [`SpanRecord`] carrying the span's start/end time *and* the
//!   [`CtxStats`] delta across it — lock acquires, lock wait, barrier
//!   wait, misses and page faults attributed to exactly one phase of one
//!   step, the per-phase/per-processor breakdown behind the paper's
//!   Table 2 and Figures 14–15.
//! * **Lock events.** Every [`Env::lock`] is timed individually and
//!   aggregated into a per-lock-id contention histogram
//!   ([`TraceEnv::lock_histogram`]). The hot shared cells that the paper
//!   blames for ORIG's collapse show up as a few ids absorbing most of
//!   the wait; SPACE shows an empty histogram (it takes no locks).
//!
//! All times are in the *inner* environment's units: wall nanoseconds over
//! `NativeEnv`, simulated cycles of the modeled machine over `ssmp`.
//!
//! Buffers are exported three ways: raw records ([`TraceEnv::spans`],
//! [`TraceEnv::lock_events`]), a plain-text per-phase summary
//! ([`TraceEnv::summary`]), and a Chrome/Perfetto-compatible trace-event
//! JSON ([`TraceEnv::chrome_trace_json`]) with one track (thread) per
//! processor — load it at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! `TraceEnv` is an [`EnvLayer`] that overrides three hooks — `on_lock`,
//! `on_phase_begin`, `on_phase_end` — so tracing is honest about its own
//! cost: accesses take the layer's inlined forwarding default and never see
//! the wrapper, which touches its per-processor buffer (an uncontended
//! mutex) only at phase boundaries and lock acquires.

use crate::env::{CtxStats, Env, EnvLayer, LayerCtx, Phase};
use crate::sync::Mutex;
use std::collections::HashMap;

/// One completed phase span on one processor.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub proc: usize,
    pub phase: Phase,
    /// Step index, counting warm-up steps (step 0 is the first warm-up).
    pub step: u32,
    /// Span start, in the inner environment's time units.
    pub start: u64,
    /// Span end, in the inner environment's time units.
    pub end: u64,
    /// Statistics delta across the span (`time` equals `end - start`).
    pub stats: CtxStats,
}

/// One (step, phase) entry of the per-step time series
/// ([`TraceEnv::step_series`]), aggregated over processors.
#[derive(Debug, Clone)]
pub struct StepPhaseRow {
    /// Step index, counting warm-up steps.
    pub step: u32,
    pub phase: Phase,
    /// Critical-path time: max span duration over processors.
    pub time: u64,
    /// Counters summed over processors (`time` mirrors the field above).
    pub stats: CtxStats,
    /// Load imbalance: max/avg over processors of span duration minus
    /// barrier wait. 1.0 is perfectly balanced.
    pub imbalance: f64,
}

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
    spans: Vec<SpanRecord>,
    lock_events: Vec<LockEvent>,
    dropped_lock_events: u64,
    hist: HashMap<usize, LockStat>,
    phase_totals: [CtxStats; 4],
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

    /// All recorded phase spans, in processor order then start order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for p in self.procs.iter() {
            out.extend(p.lock().spans.iter().cloned());
        }
        out
    }

    /// All stored lock events (capped per processor; see
    /// [`TraceEnv::lock_events_dropped`]).
    pub fn lock_events(&self) -> Vec<LockEvent> {
        let mut out = Vec::new();
        for p in self.procs.iter() {
            out.extend(p.lock().lock_events.iter().cloned());
        }
        out
    }

    /// Number of lock events dropped past the per-processor storage cap.
    pub fn lock_events_dropped(&self) -> u64 {
        self.procs
            .iter()
            .map(|p| p.lock().dropped_lock_events)
            .sum()
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

    /// Per-processor accumulated [`CtxStats`] deltas, indexed
    /// `[proc][phase.index()]`, over *all* steps (warm-up included; filter
    /// by step via [`TraceEnv::spans`] if needed).
    pub fn phase_totals(&self) -> Vec<[CtxStats; 4]> {
        self.procs.iter().map(|p| p.lock().phase_totals).collect()
    }

    /// One phase's statistics aggregated over processors: counters are
    /// summed, `time` is the maximum over processors (the phase's critical
    /// path, as the paper reports it).
    pub fn phase_aggregate(&self, phase: Phase) -> CtxStats {
        let mut agg = CtxStats::default();
        for totals in self.phase_totals() {
            let t = &totals[phase.index()];
            agg.time = agg.time.max(t.time);
            agg.lock_acquires += t.lock_acquires;
            agg.lock_wait += t.lock_wait;
            agg.barrier_wait += t.barrier_wait;
            agg.remote_misses += t.remote_misses;
            agg.local_misses += t.local_misses;
            agg.page_faults += t.page_faults;
        }
        agg
    }

    /// Per-step, per-phase time series aggregated from the recorded spans:
    /// one row per (step, phase) that actually ran, sorted by step then
    /// phase order. `time` is the critical path (max span duration over
    /// processors), counters are summed over processors, and `imbalance`
    /// is max/avg of per-processor work (duration minus barrier wait) —
    /// the run-level [`crate::app::RunStats::tree_imbalance`] decomposed
    /// step by step. Warm-up steps are included (filter on `step`).
    pub fn step_series(&self) -> Vec<StepPhaseRow> {
        let mut groups: HashMap<(u32, usize), Vec<SpanRecord>> = HashMap::new();
        for s in self.spans() {
            groups.entry((s.step, s.phase.index())).or_default().push(s);
        }
        let mut out: Vec<StepPhaseRow> = groups
            .into_iter()
            .map(|((step, phase_idx), spans)| {
                let mut stats = CtxStats::default();
                let mut time = 0u64;
                let mut work: Vec<u64> = Vec::with_capacity(spans.len());
                for s in &spans {
                    let dur = s.end - s.start;
                    time = time.max(dur);
                    work.push(dur.saturating_sub(s.stats.barrier_wait));
                    stats.lock_acquires += s.stats.lock_acquires;
                    stats.lock_wait += s.stats.lock_wait;
                    stats.barrier_wait += s.stats.barrier_wait;
                    stats.remote_misses += s.stats.remote_misses;
                    stats.local_misses += s.stats.local_misses;
                    stats.page_faults += s.stats.page_faults;
                }
                stats.time = time;
                let max = work.iter().max().copied().unwrap_or(0) as f64;
                let avg = work.iter().sum::<u64>() as f64 / work.len().max(1) as f64;
                let imbalance = if avg == 0.0 { 1.0 } else { max / avg };
                StepPhaseRow {
                    step,
                    phase: Phase::ALL[phase_idx],
                    time,
                    stats,
                    imbalance,
                }
            })
            .collect();
        out.sort_by_key(|r| (r.step, r.phase.index()));
        out
    }

    /// Plain-text per-phase summary of the step series with nearest-rank
    /// p50/p99 over steps — the repeat-aware view: steps of one run are
    /// the repeats, so a single slow step shows up in the p99 column
    /// instead of vanishing into a run-level mean.
    pub fn step_summary(&self, time_unit: &str) -> String {
        use crate::app::{percentile_f64, percentile_u64};
        let rows = self.step_series();
        let mut out = String::new();
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
        for phase in Phase::ALL {
            let of_phase: Vec<&StepPhaseRow> = rows.iter().filter(|r| r.phase == phase).collect();
            let times: Vec<u64> = of_phase.iter().map(|r| r.time).collect();
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

    /// Plain-text per-phase summary (Table-2-style): one row per phase
    /// with time on the critical path, lock, barrier and protocol counters
    /// summed over processors, plus the hottest lock ids.
    pub fn summary(&self, time_unit: &str) -> String {
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
        for phase in Phase::ALL {
            let a = self.phase_aggregate(phase);
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
        out
    }

    /// Chrome trace-event objects for this environment's buffers, one JSON
    /// object per string. `pid` and `process_name` label the process track
    /// (combine several environments into one file by concatenating their
    /// events under distinct pids); timestamps are divided by `ts_div` to
    /// map the environment's units onto the format's microseconds (1000.0
    /// for native nanoseconds; 1.0 renders one simulated cycle as 1 µs).
    pub fn chrome_trace_events(&self, pid: u32, process_name: &str, ts_div: f64) -> Vec<String> {
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
        for s in self.spans() {
            let st = &s.stats;
            out.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{\"step\":{},\"lock_acquires\":{},\"lock_wait\":{},\"barrier_wait\":{},\"remote_misses\":{},\"local_misses\":{},\"page_faults\":{}}}}}",
                s.phase.name(),
                s.start as f64 / div,
                (s.end - s.start) as f64 / div,
                s.proc,
                s.step,
                st.lock_acquires,
                st.lock_wait,
                st.barrier_wait,
                st.remote_misses,
                st.local_misses,
                st.page_faults
            ));
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

    /// A complete Chrome trace-event JSON document for this environment
    /// alone. See [`TraceEnv::chrome_trace_events`].
    pub fn chrome_trace_json(&self, process_name: &str, ts_div: f64) -> String {
        format!(
            "[\n{}\n]\n",
            self.chrome_trace_events(0, process_name, ts_div)
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
    /// The currently open phase span: (phase, step, start, stats-at-start).
    type Local = Option<(Phase, u32, u64, CtxStats)>;

    fn inner(&self) -> &E {
        &self.inner
    }

    fn make_local(&self, _proc: usize) -> Self::Local {
        None
    }

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
        } else {
            t.dropped_lock_events += 1;
        }
    }

    fn on_phase_begin(&self, ctx: &mut LayerCtx<Self>, phase: Phase, step: u32) {
        self.inner.phase_begin(&mut ctx.inner, phase, step);
        debug_assert!(
            ctx.local.is_none(),
            "phase_begin({phase}) while {:?} is open",
            ctx.local.as_ref().map(|o| o.0)
        );
        let start = self.inner.now(&ctx.inner);
        let stats = self.inner.stats(&ctx.inner);
        ctx.local = Some((phase, step, start, stats));
    }

    fn on_phase_end(&self, ctx: &mut LayerCtx<Self>, phase: Phase, step: u32) {
        let end = self.inner.now(&ctx.inner);
        let stats = self.inner.stats(&ctx.inner);
        match ctx.local.take() {
            Some((open_phase, open_step, start, stats0)) => {
                debug_assert!(
                    open_phase == phase && open_step == step,
                    "phase_end({phase}, step {step}) closes ({open_phase}, step {open_step})"
                );
                let delta = stats.delta_since(&stats0);
                let mut t = self.procs[ctx.proc].lock();
                t.phase_totals[phase.index()].accumulate(&delta);
                t.spans.push(SpanRecord {
                    proc: ctx.proc,
                    phase,
                    step,
                    start,
                    end,
                    stats: delta,
                });
            }
            None => debug_assert!(false, "phase_end({phase}) without phase_begin"),
        }
        self.inner.phase_end(&mut ctx.inner, phase, step);
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

    #[test]
    fn manual_spans_capture_time_and_lock_deltas() {
        let env = TraceEnv::new(NativeEnv::new(2));
        spmd(&env, |proc, ctx| {
            env.phase_begin(ctx, Phase::Tree, 0);
            env.lock(ctx, 70 + proc);
            env.unlock(ctx, 70 + proc);
            env.phase_end(ctx, Phase::Tree, 0);
            env.phase_begin(ctx, Phase::Force, 0);
            env.phase_end(ctx, Phase::Force, 0);
        });
        let spans = env.spans();
        assert_eq!(spans.len(), 4);
        let tree: Vec<_> = spans.iter().filter(|s| s.phase == Phase::Tree).collect();
        assert_eq!(tree.len(), 2);
        for s in &tree {
            assert_eq!(s.step, 0);
            assert_eq!(s.stats.lock_acquires, 1);
            assert!(s.end >= s.start);
        }
        let hist = env.lock_histogram();
        assert_eq!(hist.len(), 2);
        assert!(hist.iter().all(|h| h.acquires == 1));
        let totals = env.phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0][Phase::Tree.index()].lock_acquires, 1);
        assert_eq!(totals[0][Phase::Force.index()].lock_acquires, 0);
    }

    #[test]
    fn full_run_emits_four_phases_per_step_per_proc() {
        let env = TraceEnv::new(NativeEnv::new(4));
        let bodies = Model::Plummer.generate(96, 1998);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Orig), &bodies);
        stats.assert_valid();
        let spans = env.spans();
        // 2 steps (1 warm-up + 1 measured) x 4 phases x 4 procs.
        assert_eq!(spans.len(), 2 * 4 * 4);
        for phase in Phase::ALL {
            assert_eq!(spans.iter().filter(|s| s.phase == phase).count(), 8);
        }
        // Steps 0 (warm-up) and 1 (measured) both appear.
        assert!(spans.iter().any(|s| s.step == 0));
        assert!(spans.iter().any(|s| s.step == 1));
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
        run_simulation(&space, &tiny_cfg(Algorithm::Space), &bodies).assert_valid();
        let space_tree_locks: u64 = space
            .spans()
            .iter()
            .filter(|s| s.phase == Phase::Tree)
            .map(|s| s.stats.lock_acquires)
            .sum();
        assert_eq!(space_tree_locks, 0, "SPACE's tree build is lock-free");
    }

    #[test]
    fn composes_with_checked_env_and_stays_race_free() {
        let env = TraceEnv::new(CheckedEnv::new(NativeEnv::new(4)));
        let bodies = Model::Plummer.generate(96, 1998);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Local), &bodies);
        stats.assert_valid();
        env.inner().assert_race_free();
        assert_eq!(env.spans().len(), 2 * 4 * 4);
    }

    #[test]
    fn chrome_trace_has_tracks_and_spans() {
        let env = TraceEnv::new(NativeEnv::new(2));
        let bodies = Model::Plummer.generate(64, 7);
        run_simulation(&env, &tiny_cfg(Algorithm::Partree), &bodies).assert_valid();
        let json = env.chrome_trace_json("native partree", 1000.0);
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
        run_simulation(&env, &tiny_cfg(Algorithm::Space), &bodies).assert_valid();
        let s = env.summary("ns");
        for phase in Phase::ALL {
            assert!(s.contains(phase.name()), "summary missing {phase}: {s}");
        }
        // SPACE takes no tree locks; the update phase may lock on movers,
        // but with a pure rebuild it doesn't — accept either wording.
        assert!(s.contains("locks:"), "summary missing lock line: {s}");
    }

    #[test]
    fn step_series_decomposes_phase_totals() {
        let env = TraceEnv::new(NativeEnv::new(4));
        let bodies = Model::Plummer.generate(96, 1998);
        let mut cfg = tiny_cfg(Algorithm::Orig);
        cfg.measured_steps = 3;
        run_simulation(&env, &cfg, &bodies).assert_valid();
        let rows = env.step_series();
        // 4 steps (1 warm-up + 3 measured) x 4 phases, in order.
        assert_eq!(rows.len(), 4 * 4);
        let order: Vec<(u32, Phase)> = rows.iter().map(|r| (r.step, r.phase)).collect();
        let mut sorted = order.clone();
        sorted.sort_by_key(|(s, p)| (*s, p.index()));
        assert_eq!(order, sorted);
        for phase in Phase::ALL {
            let agg = env.phase_aggregate(phase);
            let of_phase: Vec<&StepPhaseRow> = rows.iter().filter(|r| r.phase == phase).collect();
            // Summing the series over steps reproduces the run aggregates.
            for (get, want) in [
                (
                    of_phase.iter().map(|r| r.stats.lock_acquires).sum::<u64>(),
                    agg.lock_acquires,
                ),
                (
                    of_phase.iter().map(|r| r.stats.lock_wait).sum::<u64>(),
                    agg.lock_wait,
                ),
                (
                    of_phase.iter().map(|r| r.stats.remote_misses).sum::<u64>(),
                    agg.remote_misses,
                ),
            ] {
                assert_eq!(get, want, "series does not tile aggregate for {phase}");
            }
            assert!(of_phase.iter().all(|r| r.imbalance >= 1.0 - 1e-9));
        }
        let s = env.step_summary("ns");
        assert!(s.contains("t_p50"), "missing percentile column: {s}");
        for phase in Phase::ALL {
            assert!(s.contains(phase.name()), "step summary missing {phase}");
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
    }
}
