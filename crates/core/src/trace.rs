//! The text and Chrome-trace exports of a run, and the per-lock-id
//! contention record they summarize.
//!
//! What each phase of each step did — time, lock, barrier and protocol
//! counters, the per-phase/per-processor breakdown behind the paper's
//! Table 2 and Figures 14–15 — is the application's own record
//! ([`crate::app::StepRecord`]), which [`RunStats`] folds. The `ssmp`
//! simulator also keeps, per processor, the acquires and wait of every raw
//! lock id and merges them into a contention histogram ([`LockStat`], one
//! per id, hottest first): the hot shared cells that the paper blames for
//! ORIG's collapse show up as a few ids absorbing most of the wait, and
//! SPACE shows an empty histogram (it takes no locks). A host run has no
//! such record, and passes an empty one.
//!
//! The exports read those two: a plain-text per-phase summary with
//! per-step percentiles ([`summary`]) and a Chrome/Perfetto-compatible
//! trace-event JSON ([`chrome_trace_json`]) with one track (thread) per
//! processor holding its phase spans — load it at <https://ui.perfetto.dev>
//! or `chrome://tracing`.
//!
//! All times are in the run's environment's units: wall nanoseconds over
//! `NativeEnv`, simulated cycles of the modeled machine over `ssmp`.

use crate::app::{percentile_f64, percentile_u64, RunStats};
use crate::env::Phase;

/// Aggregated contention on one lock id across all processors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStat {
    /// Raw lock id (pre-hash; see [`crate::env::lock_slot`]).
    pub lock: usize,
    pub acquires: u64,
    pub wait_total: u64,
    pub wait_max: u64,
}

impl LockStat {
    /// Fold `other`, a record of the same lock id, into this one.
    pub fn accumulate(&mut self, other: &LockStat) {
        self.acquires += other.acquires;
        self.wait_total += other.wait_total;
        self.wait_max = self.wait_max.max(other.wait_max);
    }
}

/// Plain-text summary of `stats` over all its steps (warm-up included),
/// with `locks` its per-lock-id histogram, hottest first (empty for a host
/// run). First one Table-2-style row per phase — time on the critical
/// path, lock, barrier and protocol counters summed over processors — and
/// the run's lock totals with its hottest lock ids; then nearest-rank
/// p50/p99 over steps of each phase's time, lock wait and imbalance. The
/// steps of one run are the repeats there, so a single slow step shows up
/// in the p99 column instead of vanishing into a run-level mean.
pub fn summary(stats: &RunStats, locks: &[LockStat], time_unit: &str) -> String {
    let steps = 0..stats.measured().end;
    let phases = stats.phases_over(steps.clone());
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
    for (phase, a) in Phase::ALL.iter().zip(&phases) {
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
    let acquires: u64 = phases.iter().map(|a| a.lock_acquires).sum();
    let wait: u64 = phases.iter().map(|a| a.lock_wait).sum();
    if acquires == 0 {
        out.push_str("locks: none (lock-free)\n");
    } else if locks.is_empty() {
        out.push_str(&format!(
            "locks: {acquires} acquires, total wait {wait} {time_unit} (no per-id histogram on the host)\n"
        ));
    } else {
        out.push_str(&format!(
            "locks: {} distinct ids, total wait {wait} {time_unit}; hottest:",
            locks.len()
        ));
        for s in locks.iter().take(4) {
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

/// Chrome trace-event objects for `stats`: every processor's phase spans
/// in step order, one JSON object per string. `pid` and `process_name`
/// label the process track (combine several runs into one file by
/// concatenating their events under distinct pids); timestamps are divided
/// by `ts_div` to map the environment's units onto the format's
/// microseconds (1000.0 for native nanoseconds; 1.0 renders one simulated
/// cycle as 1 µs).
pub fn chrome_trace_events(
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
        stats.procs
    ));
    for proc in 0..stats.procs {
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
    out
}

/// A complete Chrome trace-event JSON document for `stats` alone. See
/// [`chrome_trace_events`].
pub fn chrome_trace_json(stats: &RunStats, process_name: &str, ts_div: f64) -> String {
    format!(
        "[\n{}\n]\n",
        chrome_trace_events(stats, 0, process_name, ts_div).join(",\n")
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::app::{run_simulation, SimConfig};
    use crate::check::CheckedEnv;
    use crate::env::{Env, NativeEnv};
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
        // The host keeps no per-id record: each acquire lands in the
        // context's totals, which the summary's lock line reads.
        let env = NativeEnv::new(2);
        let per_proc = spmd(&env, |proc, ctx| {
            env.lock(ctx, 70 + proc);
            env.unlock(ctx, 70 + proc);
            env.stats(ctx)
        });
        assert_eq!(per_proc.len(), 2);
        assert!(per_proc.iter().all(|s| s.lock_acquires == 1));
    }

    #[test]
    fn histogram_separates_orig_from_space() {
        // The run's lock record, which feeds the summary's lock line,
        // separates ORIG (a lock per body insert) from lock-free SPACE.
        let bodies = Model::Plummer.generate(96, 1998);
        let tree_acquires = |alg| {
            let stats = run_simulation(&NativeEnv::new(4), &tiny_cfg(alg), &bodies);
            stats.assert_valid();
            stats.phases_over(0..stats.measured().end)[Phase::Tree.index()].lock_acquires
        };
        let orig = tree_acquires(Algorithm::Orig);
        assert!(
            orig as usize >= bodies.len(),
            "ORIG locks every body insert; got {orig} acquires"
        );
        assert_eq!(
            tree_acquires(Algorithm::Space),
            0,
            "SPACE's tree build is lock-free"
        );
    }

    #[test]
    fn full_run_emits_four_phases_per_step_per_proc() {
        let env = NativeEnv::new(4);
        let bodies = Model::Plummer.generate(96, 1998);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Orig), &bodies);
        stats.assert_valid();
        let json = chrome_trace_json(&stats, "native orig", 1000.0);
        // 2 steps (1 warm-up + 1 measured) x 4 phases x 4 procs, and
        // nothing else that is a span.
        assert_eq!(phase_spans(&json), 2 * 4 * 4);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2 * 4 * 4);
        for phase in Phase::ALL {
            let name = format!("\"name\":\"{phase}\",\"cat\":\"phase\"");
            assert_eq!(json.matches(&name).count(), 8);
        }
        // Steps 0 (warm-up) and 1 (measured) both appear.
        assert!(json.contains("\"step\":0,"));
        assert!(json.contains("\"step\":1,"));
    }

    #[test]
    fn composes_with_checked_env_and_stays_race_free() {
        // The renderers read only the run's RunStats, so a run under the
        // race detector renders all four phases and stays certified.
        let env = CheckedEnv::new(NativeEnv::new(4));
        let bodies = Model::Plummer.generate(96, 1998);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Local), &bodies);
        stats.assert_valid();
        env.assert_race_free();
        let json = chrome_trace_json(&stats, "checked local", 1000.0);
        assert_eq!(phase_spans(&json), 2 * 4 * 4);
    }

    #[test]
    fn chrome_trace_has_tracks_and_spans() {
        let env = NativeEnv::new(2);
        let bodies = Model::Plummer.generate(64, 7);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Partree), &bodies);
        stats.assert_valid();
        let json = chrome_trace_json(&stats, "native partree", 1000.0);
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
        let env = NativeEnv::new(2);
        let bodies = Model::Plummer.generate(64, 7);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Space), &bodies);
        stats.assert_valid();
        let s = summary(&stats, &[], "ns");
        for phase in Phase::ALL {
            assert_eq!(s.matches(phase.name()).count(), 2, "{phase} rows: {s}");
        }
        // SPACE takes no tree locks; the update phase may lock on movers,
        // but with a pure rebuild it doesn't — accept either wording.
        assert!(s.contains("locks:"), "summary missing lock line: {s}");
        assert!(s.contains("t_p50(ns)"), "missing percentile column: {s}");
    }

    #[test]
    fn the_lock_line_reads_the_run_totals() {
        let env = NativeEnv::new(2);
        let bodies = Model::Plummer.generate(64, 7);
        let stats = run_simulation(&env, &tiny_cfg(Algorithm::Orig), &bodies);
        let all = stats.phases_over(0..stats.measured().end);
        let acquires: u64 = all.iter().map(|a| a.lock_acquires).sum();
        assert!(acquires > 0, "ORIG locks every body insert");
        // The host keeps no per-id record: the totals alone.
        let host = summary(&stats, &[], "ns");
        assert!(
            host.contains(&format!("locks: {acquires} acquires, total wait ")),
            "{host}"
        );
        // With a histogram, its ids and hottest entries follow the totals.
        let locks = [
            LockStat {
                lock: 70,
                acquires: 3,
                wait_total: 9,
                wait_max: 4,
            },
            LockStat {
                lock: 71,
                acquires: 1,
                wait_total: 2,
                wait_max: 2,
            },
        ];
        let sim = summary(&stats, &locks, "cycles");
        assert!(sim.contains("locks: 2 distinct ids, total wait "), "{sim}");
        assert!(
            sim.contains("; hottest: [id 70 x3 wait 9] [id 71 x1 wait 2]\n"),
            "{sim}"
        );
    }

    #[test]
    fn lock_stats_accumulate_wait_and_keep_the_longest() {
        let mut a = LockStat {
            lock: 5,
            acquires: 2,
            wait_total: 10,
            wait_max: 7,
        };
        a.accumulate(&LockStat {
            lock: 5,
            acquires: 1,
            wait_total: 9,
            wait_max: 9,
        });
        assert_eq!((a.acquires, a.wait_total, a.wait_max), (3, 19, 9));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
    }
}
