//! The paper's claims as checked verdicts.
//!
//! Each [`Spec`](crate::experiments::Spec) declares its figure's claims
//! beside its [`Grid`]: the paper's sentence, a test over the memo runs the
//! grid already reads (never the rendered cells, never a run of its own),
//! and the outcome recorded at `tiny` and at `small`. A test reads one
//! [`Metric`] over those runs into a range, and holds when the whole range
//! lies in its band. The forms: an ordering is a [`Form::Ratio`] with band
//! ≥ 1, a ratio with a band, an exact or bounded [`Form::Value`], and a
//! [`Form::Trend`] along one axis of the grid. `repro` prints one line per
//! claim under its table and exits 1 when an outcome at `tiny` or `small`
//! differs from its recording, in either direction; `full` has no
//! recording and only prints.

use crate::experiments::Grid;
use crate::runner::{run_cached, ExperimentScale};
use bh_core::prelude::*;

/// What a claim reads of one run.
#[derive(Clone, Copy, Debug)]
pub enum Metric {
    Speedup,
    TreeSpeedup,
    /// Tree-phase speedup over the application's.
    TreeOverApp,
    /// Speedup per processor.
    Efficiency,
    TreeShare,
    /// Simulated seconds per body: comparable across platforms.
    SecondsPerBody,
    /// Barrier wait per processor.
    Barrier,
    /// Tree-phase locks per body and measured step.
    LocksPerBody,
}

/// Whose runs a claim reads at one size and processor count.
#[derive(Clone, Copy)]
pub enum Who {
    /// These algorithms on the platform at hand.
    Algs(&'static [Algorithm]),
    /// The sequential baseline on these platforms of the grid (Table 1).
    Seq(&'static [&'static str]),
}

/// Which sizes and processor counts a ratio or value reads.
#[derive(Clone, Copy)]
pub enum At {
    Every,
    /// The largest size at the largest processor count.
    Largest,
}

/// The grid axis a trend runs along.
#[derive(Clone, Copy)]
pub enum Axis {
    Sizes,
    Procs,
}

#[derive(Clone, Copy)]
pub enum Form {
    /// Each of the first's readings over each of the second's.
    Ratio(Who, Who, At),
    Value(Who, At),
    /// Each reading at the axis's largest value over the same run's at its
    /// smallest, at every value of the other axis.
    Trend(Who, Axis),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Holds,
    Fails,
    /// The grid cannot evaluate the claim at this scale: a trend along an
    /// axis with one value.
    Na,
    /// The outcome differs between repeated runs (P > 1 is free-running),
    /// whose readings spanned this range. Not gated.
    Varies(f64, f64),
}

/// No upper bound.
pub const ANY: f64 = f64::INFINITY;

/// One sentence of the paper, tested over its figure's runs.
#[derive(Clone, Copy)]
pub struct Claim {
    pub text: &'static str,
    pub metric: Metric,
    pub form: Form,
    /// Inclusive bounds the whole reading must lie within.
    pub band: (f64, f64),
    /// The outcome recorded at `tiny`, then at `small`.
    pub recorded: [Verdict; 2],
}

pub const fn claim(
    text: &'static str,
    metric: Metric,
    form: Form,
    band: (f64, f64),
    recorded: [Verdict; 2],
) -> Claim {
    Claim {
        text,
        metric,
        form,
        band,
        recorded,
    }
}

fn span(lo: f64, hi: f64) -> String {
    match lo == hi {
        true => format!("{lo:.3}"),
        false => format!("{lo:.3}–{hi:.3}"),
    }
}

fn names(who: Who) -> String {
    match who {
        Who::Algs(algs) => algs.iter().map(|a| a.name()).collect::<Vec<_>>().join(","),
        Who::Seq(platforms) => platforms.join(","),
    }
}

fn mark(v: Verdict) -> String {
    match v {
        Verdict::Holds => "✔".into(),
        Verdict::Fails => "✗".into(),
        Verdict::Na => "n/a".into(),
        Verdict::Varies(lo, hi) => format!("varies, {}", span(lo, hi)),
    }
}

impl Claim {
    /// Whether `g` can evaluate the claim.
    pub fn applies(&self, g: &Grid) -> bool {
        match self.form {
            Form::Trend(_, Axis::Sizes) => g.sizes.len() > 1,
            Form::Trend(_, Axis::Procs) => g.procs.len() > 1,
            _ => true,
        }
    }

    /// The range of the reading over `g`'s runs; `None` where `g` cannot
    /// evaluate the claim.
    pub fn read(&self, g: &Grid) -> Option<(f64, f64)> {
        let (all_n, all_p) = (&g.sizes[..], &g.procs[..]);
        let (sizes, procs) = match self.form {
            _ if !self.applies(g) => return None,
            Form::Ratio(.., At::Largest) | Form::Value(_, At::Largest) => {
                (&all_n[all_n.len() - 1..], &all_p[all_p.len() - 1..])
            }
            Form::Trend(_, Axis::Sizes) => (&all_n[..1], all_p),
            Form::Trend(_, Axis::Procs) => (all_n, &all_p[..1]),
            _ => (all_n, all_p),
        };
        let mut readings = Vec::new();
        for cost in &g.platforms {
            // The metric of each of `who`'s runs at size `n`, `p` processors.
            let values = |who: Who, n: usize, p: usize| -> Vec<f64> {
                let runs: Vec<_> = match who {
                    Who::Algs(algs) => algs.iter().map(|&alg| (cost, alg, p)).collect(),
                    Who::Seq(names) => (g.platforms.iter())
                        .filter(|c| names.contains(&c.name.as_str()))
                        .map(|c| (c, Algorithm::Partree, 1))
                        .collect(),
                };
                let metric = |(c, alg, p): (&ssmp::CostModel, _, usize)| {
                    let run = run_cached(c, alg, n, p);
                    let s = run.stats;
                    match self.metric {
                        Metric::Speedup => run.speedup,
                        Metric::TreeSpeedup => run.tree_speedup,
                        Metric::TreeOverApp => run.tree_speedup / run.speedup,
                        Metric::Efficiency => run.speedup / p as f64,
                        Metric::TreeShare => s.tree_fraction(),
                        Metric::SecondsPerBody => c.cycles_to_seconds(run.total_cycles) / n as f64,
                        Metric::Barrier => s.barrier_wait_total() as f64 / p as f64,
                        Metric::LocksPerBody => {
                            let locks: u64 = s.tree_locks_per_proc().iter().sum();
                            locks as f64 / (n * s.measured().len()) as f64
                        }
                    }
                };
                runs.into_iter().map(metric).collect()
            };
            for (&n, &p) in sizes.iter().flat_map(|n| procs.iter().map(move |p| (n, p))) {
                match self.form {
                    Form::Ratio(a, b, _) => {
                        for x in values(a, n, p) {
                            readings.extend(values(b, n, p).iter().map(|y| x / y));
                        }
                    }
                    Form::Value(a, _) => readings.extend(values(a, n, p)),
                    Form::Trend(a, axis) => {
                        let (n1, p1) = match axis {
                            Axis::Sizes => (all_n[all_n.len() - 1], p),
                            Axis::Procs => (n, all_p[all_p.len() - 1]),
                        };
                        let pairs = values(a, n, p).into_iter().zip(values(a, n1, p1));
                        readings.extend(pairs.map(|(x0, x1)| x1 / x0));
                    }
                }
            }
        }
        assert!(
            !readings.is_empty(),
            "\"{}\" reads no run of its grid",
            self.text
        );
        let lo = readings.iter().copied().fold(f64::INFINITY, f64::min);
        Some((
            lo,
            readings.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ))
    }

    /// The claim's line at `scale` over `g`, and whether its outcome
    /// differs from a gated recording there:
    /// `✔ <sentence>: <what it reads> <reading>, want <band> (recorded ✔)`.
    pub fn check(&self, g: &Grid, scale: ExperimentScale) -> (String, bool) {
        let (lo, hi) = self.band;
        let reading = self.read(g);
        let outcome = match reading {
            None => Verdict::Na,
            Some((min, max)) if lo <= min && max <= hi => Verdict::Holds,
            Some(_) => Verdict::Fails,
        };
        let recorded = match scale {
            ExperimentScale::Tiny => Some(self.recorded[0]),
            ExperimentScale::Small => Some(self.recorded[1]),
            ExperimentScale::Full => None,
        };
        let differs = recorded.is_some_and(|r| !matches!(r, Verdict::Varies(..)) && r != outcome);
        let metric = format!("{:?}", self.metric);
        let what = match self.form {
            Form::Ratio(a, b, _) => format!("{}/{} {metric}", names(a), names(b)),
            Form::Value(a, _) => format!("{} {metric}", names(a)),
            Form::Trend(a, Axis::Sizes) => format!("{} {metric} largest/smallest n", names(a)),
            Form::Trend(a, Axis::Procs) => format!("{} {metric} most/fewest procs", names(a)),
        };
        let want = match () {
            _ if lo == hi => format!("= {lo}"),
            _ if hi == ANY => format!("≥ {lo}"),
            _ if lo == 0.0 => format!("≤ {hi}"),
            _ => format!("{lo}–{hi}"),
        };
        let recorded = match recorded {
            None => "no recording".to_string(),
            Some(r) if differs => format!("recorded {}: DIFFERS", mark(r)),
            Some(r) => format!("recorded {}", mark(r)),
        };
        let reading = reading.map_or("-".to_string(), |(lo, hi)| span(lo, hi));
        let line = format!(
            "{} {}: {what} {reading}, want {want} ({recorded})",
            mark(outcome),
            self.text
        );
        (line, differs)
    }
}
