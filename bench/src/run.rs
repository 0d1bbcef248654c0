//! The measurement protocol every workload shares.
//!
//! * Every timed op keeps one thread busy: the host has two cores and
//!   anything with two busy threads measures the scheduler.
//! * A round runs each of the workload's op kinds once (or a fixed number
//!   of times), interleaved, so that drift of the host hits all kinds alike.
//! * A percentile is only ever taken over ops of one kind.
//! * The inputs of the rounds repeat in a cycle (a step of the reset cycle,
//!   a body set, a miss shape), so every position of the cycle has repeats
//!   of identical work, spread evenly over the run.
//! * `mbodies_per_s`, the end-to-end metric, comes from what each op takes
//!   when the host leaves it alone, see `Rec::kind_undisturbed_ms`.
//!   `op_ms_p50` is the median round as it was: on a shared host it moves by
//!   a third between two runs of the same code, so it is a per-layer metric.
//! * Checked ops (validation, digests) run before and after the timed
//!   rounds, outside the timers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::stats::{calib_ms, median, ms_since};
use crate::trace::{Trace, Tracer};

/// How many times a run sets the workload up; `setup_s` is the median.
const SETUPS: usize = 5;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the socket and the trace files.
    pub out: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.to_string(),
    }
}

/// The ops whose outputs were checked, and what was wrong with those that
/// failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        self.failures.extend(result.err());
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

/// Times the ops of the rounds and counts what was attempted and what
/// failed.
pub struct Rec<'t> {
    pub tracer: &'t Tracer,
    kinds: &'static [&'static str],
    /// Rounds after which the inputs of a round repeat.
    cycle: usize,
    measuring: bool,
    /// Per kind, the time of every measured op in milliseconds.
    pub op_ms: Vec<Vec<f64>>,
    /// Per measured round, the sum of its op times.
    pub round_ms: Vec<f64>,
    pub calib_ms: Vec<f64>,
    open_round_ms: f64,
    pub checks: Checks,
}

impl<'t> Rec<'t> {
    pub fn new(tracer: &'t Tracer, kinds: &'static [&'static str], cycle: usize) -> Rec<'t> {
        Rec {
            tracer,
            kinds,
            cycle,
            measuring: false,
            op_ms: vec![Vec::new(); kinds.len()],
            round_ms: Vec::new(),
            calib_ms: Vec::new(),
            open_round_ms: 0.0,
            checks: Checks::default(),
        }
    }

    /// Time one op of kind `kind` (an index into the workload's kinds).
    pub fn op<R>(&mut self, kind: usize, f: impl FnOnce(&Tracer) -> R) -> R {
        let tracer = self.tracer;
        let t0 = Instant::now();
        let r = tracer.span("op", self.kinds[kind], || f(tracer));
        self.sample(kind, ms_since(t0));
        r
    }

    /// Record an op of kind `kind` that the workload timed itself.
    pub fn sample(&mut self, kind: usize, ms: f64) {
        if self.measuring {
            self.op_ms[kind].push(ms);
            self.open_round_ms += ms;
        }
    }

    /// Count one op whose output was checked.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.checks.attempt(result);
    }

    fn end_round(&mut self) {
        if self.measuring {
            self.round_ms.push(std::mem::take(&mut self.open_round_ms));
            self.calib_ms.push(calib_ms());
        }
    }

    /// Ops of `kind` in one round.
    fn per_round(&self, kind: usize) -> usize {
        self.op_ms[kind].len() / self.round_ms.len()
    }

    /// The median op of `kind`; where a round runs several different ops of
    /// a kind (`sum_rounds`), the median over the rounds of their sum.
    pub fn kind_median_ms(&self, kind: usize, sum_rounds: bool) -> f64 {
        if !sum_rounds {
            return median(&self.op_ms[kind]);
        }
        let sums: Vec<f64> = self.op_ms[kind]
            .chunks(self.per_round(kind))
            .map(|round| round.iter().sum())
            .collect();
        median(&sums)
    }

    /// What the ops of `kind` of one round take when the host leaves them
    /// alone. A kind's samples repeat with the cycle of the workload's
    /// inputs: sample `i` and sample `i + ops per cycle` timed identical
    /// work, so each position of the cycle gives the fastest of its repeats
    /// (about twenty or more, spread evenly over the run), and the positions
    /// are averaged. The host only ever adds time, in bursts and in episodes
    /// that last minutes: windows of half a minute over the same inputs
    /// differed by up to 25 % in their median, 15 % in their first quartile,
    /// 11 % in their first decile and 9 % in this.
    fn kind_undisturbed_ms(&self, kind: usize) -> f64 {
        let samples = &self.op_ms[kind];
        let per_cycle = self.per_round(kind) * self.cycle;
        let fastest = |p: usize| {
            let repeats = samples.iter().skip(p).step_by(per_cycle);
            repeats.copied().fold(f64::INFINITY, f64::min)
        };
        (0..per_cycle).map(fastest).sum::<f64>() / self.cycle as f64
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The op kinds of a round; `op_ms_p50.<kind>` is emitted for each.
    const KINDS: &'static [&'static str];
    /// Rounds after which the inputs of a round repeat.
    const CYCLE: usize;
    /// Discarded rounds that end the set-up.
    const WARMUP: usize;
    /// A round runs several different ops of a kind: `op_ms_p50.<kind>` is
    /// the median over the rounds of their sum, not the median op.
    const SUM_ROUNDS: bool = false;

    /// Generate the inputs from `seed` and construct what the rounds run on.
    fn set_up(seed: u64, out: &Path) -> Self;
    /// Run each op kind through [`Rec::op`]. `round` counts from the set-up,
    /// warm-up rounds included. When `rec.tracer` is on, drive the layers
    /// call by call.
    fn round(&mut self, round: usize, rec: &mut Rec);
    /// Body-steps one round computes.
    fn body_steps_per_round(&self) -> f64;
    /// The checked ops. Called before and after the timed rounds.
    fn check(&mut self, checks: &mut Checks);
    /// End-to-end metrics only this workload has.
    fn own_metrics(&self) -> Vec<Metric> {
        Vec::new()
    }
    /// The per-layer metrics, from the spans of the traced rounds and from
    /// calls that fit in about `budget` of wall time.
    fn layers(
        &mut self,
        trace: &Trace,
        plain: &Rec,
        budget: Duration,
        checks: &mut Checks,
    ) -> Vec<Metric>;
    /// Stop what the set-up started.
    fn tear_down(self, checks: &mut Checks);
}

/// Run measured rounds for `seconds`, and a whole cycle per recorder at
/// least. The recorders take turns, a cycle each, so that each sees every
/// round of the cycle and all see the same stretch of host time.
fn rounds<W: Workload>(w: &mut W, recs: &mut [&mut Rec], first: usize, seconds: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let at_least = first + recs.len() * W::CYCLE;
    let mut round = first;
    'run: loop {
        for rec in recs.iter_mut() {
            rec.measuring = true;
            for _ in 0..W::CYCLE {
                if round >= at_least && Instant::now() >= deadline {
                    rec.measuring = false;
                    break 'run;
                }
                let tracer = rec.tracer;
                tracer.set_round(round as u32);
                tracer.span("round", "", || w.round(round, rec));
                rec.end_round();
                round += 1;
            }
            rec.measuring = false;
        }
    }
}

fn set_up_and_warm<W: Workload>(a: &Args, rec: &mut Rec) -> (W, f64) {
    let t0 = Instant::now();
    let mut w = W::set_up(a.seed, &a.out);
    for round in 0..W::WARMUP {
        w.round(round, rec);
    }
    (w, t0.elapsed().as_secs_f64())
}

/// `mbodies_per_s`, from what the ops of a round take undisturbed.
fn throughput(rec: &Rec, body_steps_per_round: f64) -> Metric {
    let undisturbed_round_ms: f64 = (0..rec.kinds.len())
        .map(|k| rec.kind_undisturbed_ms(k))
        .sum();
    metric(
        "mbodies_per_s",
        body_steps_per_round / 1e6 / (undisturbed_round_ms / 1e3),
        "Mbody/s",
    )
}

/// The medians as they were: `op_ms_p50`, the median round, and
/// `op_ms_p50.<kind>` for every kind of the workload.
fn median_metrics<W: Workload>(rec: &Rec) -> Vec<Metric> {
    let kinds = (0..rec.kinds.len()).map(|k| {
        metric(
            format!("op_ms_p50.{}", rec.kinds[k]),
            rec.kind_median_ms(k, W::SUM_ROUNDS),
            "ms",
        )
    });
    std::iter::once(metric("op_ms_p50", median(&rec.round_ms), "ms"))
        .chain(kinds)
        .collect()
}

/// `--trace 0`: the end-to-end metrics, all timed with tracing off.
fn run_plain<W: Workload>(a: &Args) -> Outcome {
    let off = Tracer::off();
    let mut rec = Rec::new(&off, W::KINDS, W::CYCLE);
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        if let Some(old) = w.take() {
            W::tear_down(old, &mut rec.checks);
        }
        let (fresh, s) = set_up_and_warm::<W>(a, &mut rec);
        setup_s.push(s);
        w = Some(fresh);
    }
    let mut w = w.expect("set up at least once");
    w.check(&mut rec.checks);
    rounds(&mut w, &mut [&mut rec], W::WARMUP, a.seconds);
    w.check(&mut rec.checks);
    let mut metrics = vec![metric("setup_s", median(&setup_s), "s")];
    metrics.push(throughput(&rec, w.body_steps_per_round()));
    metrics.extend(median_metrics::<W>(&rec));
    metrics.extend(w.own_metrics());
    w.tear_down(&mut rec.checks);
    let checks = rec.checks;
    metrics.push(metric(
        "fail_share",
        checks.failures.len() as f64 / checks.attempted as f64,
        "ratio",
    ));
    Outcome { checks, metrics }
}

/// `--trace 1`: three quarters of the time on rounds, untraced and traced
/// in turns, and a quarter on the calls only the layer metrics need.
fn run_traced<W: Workload>(a: &Args) -> Outcome {
    let (off, tracer) = (Tracer::off(), Tracer::on());
    let mut plain = Rec::new(&off, W::KINDS, W::CYCLE);
    let mut traced = Rec::new(&tracer, W::KINDS, W::CYCLE);
    let (mut w, _) = set_up_and_warm::<W>(a, &mut plain);
    w.check(&mut plain.checks);
    rounds(
        &mut w,
        &mut [&mut plain, &mut traced],
        W::WARMUP,
        0.75 * a.seconds,
    );
    w.check(&mut traced.checks);
    let overhead = 100.0 * (median(&traced.round_ms) / median(&plain.round_ms) - 1.0);
    let mut calib = plain.calib_ms.clone();
    calib.extend(&traced.calib_ms);
    let mut checks = std::mem::take(&mut traced.checks);
    let trace = Trace::new(tracer.take_spans());

    let budget = Duration::from_secs_f64(0.25 * a.seconds);
    let mut metrics = w.layers(&trace, &plain, budget, &mut checks);
    metrics.extend(median_metrics::<W>(&plain));
    metrics.extend(w.own_metrics());
    metrics.push(metric("trace.overhead_pct", overhead, "%"));
    metrics.push(metric("host.calib_ms_p50", median(&calib), "ms"));
    w.tear_down(&mut checks);
    checks.merge(plain.checks);

    let path = a.out.join(format!("trace-{}.json", W::NAME));
    let written = trace.write_chrome(&path);
    checks.attempt(written.map_err(|e| format!("writing {}: {e}", path.display())));
    Outcome { checks, metrics }
}

/// Keep this thread, and every thread it starts, on the processor it is
/// running on. Every timed op of a `--trace 0` run has one
/// runnable thread at a time (a pool worker while its caller waits, one
/// request in flight), so one processor loses nothing, and a wake-up no
/// longer depends on where the scheduler puts the woken thread or on how
/// long the host takes to start a halted processor.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: no arguments; returns the processor's number or -1.
    let Ok(cpu) = usize::try_from(unsafe { sched_getcpu() }) else {
        return;
    };
    if cpu >= 64 * mask.len() {
        return;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is valid for the 128 bytes passed as its size, the call
    // only reads it, and pid 0 is the calling thread. If the call fails the
    // run goes on unpinned.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

pub fn run<W: Workload>(a: &Args) -> Outcome {
    std::fs::create_dir_all(&a.out).expect("create the output directory");
    if a.trace {
        // The traced run has phases with two busy threads (P=2 jobs, the
        // open loop); it stays where the scheduler puts it.
        run_traced::<W>(a)
    } else {
        // On a thread of its own, so that only this run is pinned.
        let pinned = || {
            pin_to_one_cpu();
            run_plain::<W>(a)
        };
        std::thread::scope(|s| s.spawn(pinned).join()).expect("the run panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_undisturbed_round_sums_the_fastest_repeat_of_every_position() {
        let off = Tracer::off();
        let mut rec = Rec::new(&off, &["a", "b"], 2);
        rec.measuring = true;
        // Five rounds of a two-round cycle, the last cycle cut short; a
        // round runs two ops of kind a and one of kind b.
        let a = [
            [10.0, 20.0],
            [30.0, 40.0],
            [11.0, 19.0],
            [29.0, 45.0],
            [9.0, 25.0],
        ];
        let b = [5.0, 7.0, 6.0, 6.5, 4.0];
        for (a, b) in a.iter().zip(b) {
            a.iter().for_each(|&ms| rec.sample(0, ms));
            rec.sample(1, b);
            rec.end_round();
        }
        assert_eq!(rec.kind_undisturbed_ms(0), (9.0 + 19.0 + 29.0 + 40.0) / 2.0);
        assert_eq!(rec.kind_undisturbed_ms(1), (4.0 + 6.5) / 2.0);
        assert_eq!(
            rec.kind_median_ms(0, true),
            34.0,
            "round sums 30 70 30 74 34"
        );
        assert_eq!(rec.kind_median_ms(1, false), 6.0);
        assert_eq!(rec.round_ms, [35.0, 77.0, 36.0, 80.5, 38.0]);
    }
}
