//! Schedule-exploration model checking over the [`Env`] abstraction.
//!
//! [`crate::check::CheckedEnv`] certifies the *one* interleaving a run
//! happens to take. [`SchedEnv`] removes that qualifier: it serializes the
//! SPMD workers at every synchronization point — `lock`, `unlock`,
//! `barrier`, the atomic kinds of `access` and `atomic_commit` — and
//! hands control to exactly one runnable processor at a time under a
//! [`SchedStrategy`]: the deterministic round-robin schedule, or a replayed
//! choice script, which is what the bounded-exhaustive explorer drives.
//! Exploring a program that way turns "no race observed" into "no race, no
//! deadlock and no divergence in any schedule within the bound".
//!
//! ## Scheduling model
//!
//! Workers enter through the [`Env::worker_begin`] gate (called by
//! [`crate::harness::WorkerPool`]); nothing runs until all processors have
//! registered. From then on, each worker *announces* its next sync
//! operation and parks; the scheduler *grants* one pending operation at a
//! time, applying its effect (lock acquisition, barrier arrival, ...) and
//! letting the chosen worker run — plain reads, writes and compute are
//! uninstrumented straight-line code — until its next announcement. A lock
//! announcement is only grantable while the lock is free, so schedules
//! where a processor spins on a held lock simply do not exist; a barrier
//! announcement parks the arriver until the episode releases. Barrier
//! arrivals commute with every other operation (an arrival touches only
//! barrier state, and the final arrival can only be granted when no other
//! decision interleaves with its release), so they are granted eagerly and
//! are not decision points.
//!
//! Because only one worker executes at a time, the wrapped environment's
//! own locks and barriers must *not* be entered (the token holder would
//! block on a lock the scheduler knows is held and deadlock the whole
//! gate); `SchedEnv` therefore implements lock and barrier semantics itself
//! over the raw (unhashed) lock ids and never forwards those calls.
//!
//! ## Stuck states and analyses
//!
//! When no pending operation is grantable the schedule is stuck, and the
//! scheduler classifies it: waiters on locks whose holder cannot run again
//! are a **deadlock**; processors parked at a barrier generation that
//! departed processors will never arrive at are a **barrier divergence**.
//! Either aborts the schedule (every parked worker panics; the pool
//! propagates) and records a [`Finding`] with the trace tail as the
//! counterexample. Two further analyses run over the recorded sync trace:
//!
//! * **Lock-order graph** ([`SchedEnv::lock_cycles`], Eraser-style): every
//!   grant of lock `b` while holding `a` adds the edge `a → b`; a cycle in
//!   the union graph is a potential deadlock *even if no explored schedule
//!   deadlocked*.
//! * **Barrier generations** ([`SchedEnv::barrier_generations`]): per-proc
//!   episode counts; divergence shows up as unequal final generations.
//!
//! ## Bounded-exhaustive exploration
//!
//! The bounded-exhaustive plan is a replay DFS over the recorded decision
//! log: each branch replays a choice prefix deterministically, runs on past
//! it preferring the last-run processor, and pushes one branch per
//! alternative at every decision point the run added. Its one cut is a
//! CHESS-style **preemption bound**: switching away from a processor that
//! could still run costs one preemption, and an alternative that would
//! exceed the bound is not pushed. Nothing else is cut, so a DFS that
//! drains within its budget (`complete`) has run every schedule with at
//! most that many preemptions, whatever the program does between its sync
//! points.
//!
//! ## Composition
//!
//! The verification stack is [`VerifyEnv`] =
//! `CheckedEnv<SchedEnv<NativeEnv>>`: the detector outermost (so its own
//! mutex is invisible to the scheduler), the scheduler in the middle, the
//! native environment as the terminal allocator/clock. [`explore`] runs one
//! program under an [`ExplorePlan`]; `tests/schedule_matrix.rs` runs each
//! tree algorithm's whole simulation that way, one cell per (algorithm ×
//! procs), and `tests/schedule_mutation.rs` runs small kernels of the real
//! builder code over their whole bounded schedule space.

use crate::check::{CheckedEnv, RaceReport};
use crate::env::{Access, CtxStats, Env, EnvLayer, LayerCtx, NativeEnv, VAddr};
use crate::harness::panic_text;
use crate::sync::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Condvar;
use std::sync::MutexGuard;

/// One announced synchronization operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// Job registration (worker_begin rendezvous).
    Start,
    Lock(usize),
    Unlock(usize),
    Barrier,
    /// Post-load acquire instrumentation (the real load already ran).
    AtomicRead(VAddr),
    /// Pre-store release instrumentation (the real store runs next).
    AtomicWrite(VAddr),
    /// Pre-RMW instrumentation (the real RMW runs next, then `Commit`).
    Rmw(VAddr),
    /// Post-RMW acquire instrumentation.
    Commit(VAddr),
    /// Continue after a barrier release.
    Resume,
    /// Job completion (worker_end).
    Exit,
}

impl std::fmt::Display for SyncOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncOp::Start => write!(f, "start"),
            SyncOp::Lock(l) => write!(f, "lock {l}"),
            SyncOp::Unlock(l) => write!(f, "unlock {l}"),
            SyncOp::Barrier => write!(f, "barrier"),
            SyncOp::AtomicRead(a) => write!(f, "load {a:#x}"),
            SyncOp::AtomicWrite(a) => write!(f, "store {a:#x}"),
            SyncOp::Rmw(a) => write!(f, "rmw {a:#x}"),
            SyncOp::Commit(a) => write!(f, "commit {a:#x}"),
            SyncOp::Resume => write!(f, "resume"),
            SyncOp::Exit => write!(f, "exit"),
        }
    }
}

/// Where a worker is in the scheduling state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Not part of an active session.
    Idle,
    /// Parked at an announcement, awaiting a grant.
    Pending(SyncOp),
    /// Owns the token: executing between sync points.
    Running,
    /// Arrived at the barrier, waiting for the episode to release.
    BarrierBlocked,
    /// worker_end reached.
    Done,
}

/// The scheduling strategy for one run.
#[derive(Debug, Clone)]
pub enum SchedStrategy {
    /// Rotate to the next runnable processor at every decision point.
    RoundRobin,
    /// Deterministic replay of a recorded choice prefix, the processor
    /// granted at each decision in order (the exhaustive explorer's branch
    /// descriptor); past the prefix, prefer continuing the last-run
    /// processor (zero added preemptions).
    Replay(Vec<usize>),
}

/// How many trailing trace events a run keeps for counterexample reports.
const TRACE_CAP: usize = 96;

/// A schedule is aborted after this many granted sync operations: the
/// livelock net (a plain-read spin never yields, but every atomic-load spin
/// does, and so does every productive loop). Measured over every schedule
/// the test suite runs (the `sched` unit tests, `schedule_matrix`,
/// `schedule_mutation`): no passing one needs more than 1,777, SPACE's
/// round-robin cell at P = 3, so a livelock costs about ten times that.
const OP_BUDGET: u64 = 20_000;

/// One recorded decision point (≥ 2 grantable processors).
#[derive(Debug, Clone)]
pub struct Decision {
    /// Grantable processors, ascending.
    pub enabled: Vec<usize>,
    /// The processor granted.
    pub chosen: usize,
    /// The most recently running processor, if any.
    pub prev: Option<usize>,
    /// Preemptions accumulated before this decision.
    pub preemptions: u32,
}

#[derive(Debug, Clone, Copy)]
struct TraceEvent {
    seq: u64,
    proc: usize,
    op: SyncOp,
}

/// A defect found while scheduling.
#[derive(Debug, Clone)]
pub enum Finding {
    /// Processors waiting on locks whose holders can never run again.
    Deadlock {
        /// (waiting proc, lock id) pairs.
        waiting: Vec<(usize, usize)>,
        /// (lock id, holder proc, holder status) for each waited-on lock.
        holders: Vec<(usize, usize, String)>,
    },
    /// Processors parked at a barrier generation that departed processors
    /// never arrive at.
    BarrierDivergence {
        /// The generation the waiters are parked before.
        generation: u64,
        /// Processors parked at the barrier.
        waiting: Vec<usize>,
        /// (proc, generations passed) for processors that exited early.
        departed: Vec<(usize, u64)>,
    },
    /// The op budget ran out: livelock or a runaway schedule.
    OpBudgetExhausted { ops: u64 },
    /// A lock released by a non-holder (or never acquired).
    LockProtocol {
        proc: usize,
        lock: usize,
        detail: String,
    },
}

impl Finding {
    /// Short kind tag used in reports and exit summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Finding::Deadlock { .. } => "deadlock",
            Finding::BarrierDivergence { .. } => "barrier-divergence",
            Finding::OpBudgetExhausted { .. } => "op-budget",
            Finding::LockProtocol { .. } => "lock-protocol",
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::Deadlock { waiting, holders } => {
                write!(f, "deadlock:")?;
                for (p, l) in waiting {
                    write!(f, " P{p} waits lock {l};")?;
                }
                for (l, h, st) in holders {
                    write!(f, " lock {l} held by P{h} ({st});")?;
                }
                Ok(())
            }
            Finding::BarrierDivergence {
                generation,
                waiting,
                departed,
            } => {
                write!(
                    f,
                    "barrier divergence: {waiting:?} wait for generation {generation},"
                )?;
                for (p, g) in departed {
                    write!(f, " P{p} exited after {g} generation(s);")?;
                }
                Ok(())
            }
            Finding::OpBudgetExhausted { ops } => {
                write!(f, "op budget exhausted after {ops} sync operations")
            }
            Finding::LockProtocol { proc, lock, detail } => {
                write!(
                    f,
                    "lock protocol violation: P{proc} on lock {lock}: {detail}"
                )
            }
        }
    }
}

struct SchedState {
    procs: usize,
    status: Vec<Status>,
    registered: usize,
    session: bool,
    current: Option<usize>,
    last_run: Option<usize>,
    /// lock id -> holder.
    locks: HashMap<usize, usize>,
    /// Per-proc held locks in acquisition order.
    held: Vec<Vec<usize>>,
    arrived: usize,
    generation: u64,
    proc_gen: Vec<u64>,
    strategy: SchedStrategy,
    /// The next entry of a [`SchedStrategy::Replay`] script.
    cursor: usize,
    decisions: Vec<Decision>,
    preemptions: u32,
    replay_diverged: bool,
    trace: VecDeque<TraceEvent>,
    ops: u64,
    /// (held, acquired) -> grant count.
    lock_edges: HashMap<(usize, usize), u64>,
    finding: Option<Finding>,
    aborted: bool,
}

impl SchedState {
    fn push_trace(&mut self, proc: usize, op: SyncOp) {
        self.ops += 1;
        let seq = self.ops;
        if self.trace.len() == TRACE_CAP {
            self.trace.pop_front();
        }
        self.trace.push_back(TraceEvent { seq, proc, op });
    }

    fn abort(&mut self, finding: Option<Finding>) {
        if let Some(f) = finding {
            if self.finding.is_none() {
                self.finding = Some(f);
            }
        }
        self.aborted = true;
        self.current = None;
    }

    fn status_desc(&self, p: usize) -> String {
        match self.status[p] {
            Status::Done => "exited".to_string(),
            Status::BarrierBlocked => {
                format!("blocked at barrier generation {}", self.generation + 1)
            }
            Status::Pending(op) => format!("waiting at `{op}`"),
            Status::Running => "running".to_string(),
            Status::Idle => "idle".to_string(),
        }
    }

    fn classify_stuck(&self) -> Finding {
        let mut waiting = Vec::new();
        let mut barrier_waiters = Vec::new();
        let mut departed = Vec::new();
        for p in 0..self.procs {
            match self.status[p] {
                Status::Pending(SyncOp::Lock(l)) => waiting.push((p, l)),
                Status::BarrierBlocked => barrier_waiters.push(p),
                Status::Done => departed.push((p, self.proc_gen[p])),
                _ => {}
            }
        }
        if !waiting.is_empty() {
            let mut holders = Vec::new();
            for &(_, l) in &waiting {
                if let Some(&h) = self.locks.get(&l) {
                    if !holders
                        .iter()
                        .any(|&(hl, _, _): &(usize, usize, String)| hl == l)
                    {
                        holders.push((l, h, self.status_desc(h)));
                    }
                }
            }
            Finding::Deadlock { waiting, holders }
        } else {
            Finding::BarrierDivergence {
                generation: self.generation + 1,
                waiting: barrier_waiters,
                departed,
            }
        }
    }
}

/// The controlled scheduler. See the module docs.
pub struct SchedEnv<E: Env> {
    inner: E,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl<E: Env> SchedEnv<E> {
    /// Wrap `inner`; a schedule that grants more than `OP_BUDGET` sync
    /// operations ends in a livelock finding.
    pub fn new(inner: E, strategy: SchedStrategy) -> SchedEnv<E> {
        let procs = inner.num_procs();
        SchedEnv {
            inner,
            state: Mutex::new(SchedState {
                procs,
                status: vec![Status::Idle; procs],
                registered: 0,
                session: false,
                current: None,
                last_run: None,
                locks: HashMap::new(),
                held: vec![Vec::new(); procs],
                arrived: 0,
                generation: 0,
                proc_gen: vec![0; procs],
                strategy,
                cursor: 0,
                decisions: Vec::new(),
                preemptions: 0,
                replay_diverged: false,
                trace: VecDeque::new(),
                ops: 0,
                lock_edges: HashMap::new(),
                finding: None,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The defect this run hit, if any.
    pub fn finding(&self) -> Option<Finding> {
        self.state.lock().finding.clone()
    }

    /// Whether the replay script diverged from the program (a determinism
    /// bug in the program under test).
    pub fn replay_diverged(&self) -> bool {
        self.state.lock().replay_diverged
    }

    /// The recorded decision log.
    pub fn decisions(&self) -> Vec<Decision> {
        self.state.lock().decisions.clone()
    }

    /// Barrier generations passed, per processor.
    pub fn barrier_generations(&self) -> Vec<u64> {
        self.state.lock().proc_gen.clone()
    }

    /// The lock-order graph: (held, acquired) edge -> occurrence count.
    pub fn lock_edges(&self) -> HashMap<(usize, usize), u64> {
        self.state.lock().lock_edges.clone()
    }

    /// Cycles in the lock-order graph (potential deadlocks, Eraser-style).
    pub fn lock_cycles(&self) -> Vec<Vec<usize>> {
        lock_order_cycles(&self.state.lock().lock_edges)
    }

    /// The formatted tail of the sync trace (counterexample context).
    pub fn trace_tail(&self) -> Vec<String> {
        let g = self.state.lock();
        g.trace
            .iter()
            .map(|e| format!("#{} P{} {}", e.seq, e.proc, e.op))
            .collect()
    }

    fn wait_cv<'a>(&self, g: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        match self.cv.wait(g) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Park until granted the token (or the schedule aborts).
    fn park(&self, mut g: MutexGuard<'_, SchedState>, proc: usize) {
        loop {
            if g.current == Some(proc) {
                return;
            }
            if g.aborted {
                let why = match &g.finding {
                    Some(f) => format!("schedule aborted ({})", f.kind()),
                    None => "schedule aborted".to_string(),
                };
                drop(g);
                panic!("{why}");
            }
            g = self.wait_cv(g);
        }
    }

    /// Announce `op`, hand the token back, and park until re-granted.
    /// Outside an active session (setup code on the submitting thread) this
    /// is a no-op: the caller is the only runner.
    fn yield_at(&self, proc: usize, op: SyncOp) {
        let mut g = self.state.lock();
        if !g.session {
            if g.aborted {
                drop(g);
                panic!("schedule aborted (stale environment)");
            }
            return;
        }
        debug_assert_eq!(g.current, Some(proc), "yield from a non-token holder");
        g.current = None;
        g.last_run = Some(proc);
        g.status[proc] = Status::Pending(op);
        self.schedule(&mut g);
        self.park(g, proc);
    }

    /// Grant `p`'s pending operation: record it and apply its effect. Sets `current` when the operation lets `p` keep running.
    fn grant(&self, g: &mut SchedState, p: usize) {
        let Status::Pending(op) = g.status[p] else {
            unreachable!("grant of a non-pending processor");
        };
        g.push_trace(p, op);
        if g.ops > OP_BUDGET {
            let f = Finding::OpBudgetExhausted { ops: g.ops };
            g.abort(Some(f));
            return;
        }
        match op {
            SyncOp::Lock(l) => {
                debug_assert!(!g.locks.contains_key(&l), "granted a held lock");
                for i in 0..g.held[p].len() {
                    let h = g.held[p][i];
                    *g.lock_edges.entry((h, l)).or_insert(0) += 1;
                }
                g.locks.insert(l, p);
                g.held[p].push(l);
                g.status[p] = Status::Running;
                g.current = Some(p);
            }
            SyncOp::Unlock(l) => {
                match g.locks.get(&l) {
                    Some(&h) if h == p => {
                        g.locks.remove(&l);
                        g.held[p].retain(|&x| x != l);
                    }
                    Some(&h) => {
                        let f = Finding::LockProtocol {
                            proc: p,
                            lock: l,
                            detail: format!("released while held by P{h}"),
                        };
                        g.abort(Some(f));
                        return;
                    }
                    None => {
                        let f = Finding::LockProtocol {
                            proc: p,
                            lock: l,
                            detail: "released while free".to_string(),
                        };
                        g.abort(Some(f));
                        return;
                    }
                }
                g.status[p] = Status::Running;
                g.current = Some(p);
            }
            SyncOp::Barrier => {
                g.arrived += 1;
                g.proc_gen[p] += 1;
                if g.arrived == g.procs {
                    g.arrived = 0;
                    g.generation += 1;
                    for q in 0..g.procs {
                        if g.status[q] == Status::BarrierBlocked {
                            g.status[q] = Status::Pending(SyncOp::Resume);
                        }
                    }
                    g.status[p] = Status::Pending(SyncOp::Resume);
                } else {
                    g.status[p] = Status::BarrierBlocked;
                }
            }
            SyncOp::Exit => unreachable!("exit is applied at announcement"),
            SyncOp::Start
            | SyncOp::Resume
            | SyncOp::AtomicRead(_)
            | SyncOp::AtomicWrite(_)
            | SyncOp::Rmw(_)
            | SyncOp::Commit(_) => {
                g.status[p] = Status::Running;
                g.current = Some(p);
            }
        }
    }

    /// Pick one of the (at least two) grantable processors per the
    /// strategy, and record the decision.
    fn decide(&self, g: &mut SchedState, enabled: &[usize]) -> usize {
        let chosen = match &g.strategy {
            SchedStrategy::RoundRobin => {
                let from = g.last_run.map(|l| l + 1).unwrap_or(0);
                (0..g.procs)
                    .map(|i| (from + i) % g.procs)
                    .find(|p| enabled.contains(p))
                    .expect("enabled nonempty")
            }
            SchedStrategy::Replay(choices) => match choices.get(g.cursor) {
                Some(&c) => {
                    g.cursor += 1;
                    if enabled.contains(&c) {
                        c
                    } else {
                        g.replay_diverged = true;
                        enabled[0]
                    }
                }
                None => match g.last_run {
                    Some(l) if enabled.contains(&l) => l,
                    _ => enabled[0],
                },
            },
        };
        let preempt = match g.last_run {
            Some(l) => l != chosen && enabled.contains(&l),
            None => false,
        };
        g.decisions.push(Decision {
            enabled: enabled.to_vec(),
            chosen,
            prev: g.last_run,
            preemptions: g.preemptions,
        });
        if preempt {
            g.preemptions += 1;
        }
        chosen
    }

    /// Grant operations until one processor holds the token (or the session
    /// ends / aborts). Callers must have cleared `current`.
    fn schedule(&self, g: &mut SchedState) {
        if !g.session {
            return;
        }
        loop {
            if g.aborted {
                self.cv.notify_all();
                return;
            }
            let mut enabled: Vec<usize> = Vec::new();
            let mut all_done = true;
            for p in 0..g.procs {
                match g.status[p] {
                    Status::Done => {}
                    Status::Pending(op) => {
                        all_done = false;
                        let ok = match op {
                            SyncOp::Lock(l) => !g.locks.contains_key(&l),
                            _ => true,
                        };
                        if ok {
                            enabled.push(p);
                        }
                    }
                    Status::BarrierBlocked => all_done = false,
                    Status::Running | Status::Idle => all_done = false,
                }
            }
            if enabled.is_empty() {
                if all_done {
                    g.session = false;
                    g.registered = 0;
                    for st in g.status.iter_mut() {
                        *st = Status::Idle;
                    }
                    self.cv.notify_all();
                    return;
                }
                let f = g.classify_stuck();
                g.abort(Some(f));
                self.cv.notify_all();
                return;
            }
            // Barrier arrivals commute with everything: grant them eagerly,
            // outside the decision log (see the module docs).
            if let Some(&p) = enabled
                .iter()
                .find(|&&p| g.status[p] == Status::Pending(SyncOp::Barrier))
            {
                self.grant(g, p);
                continue;
            }
            let chosen = if enabled.len() == 1 {
                enabled[0]
            } else {
                self.decide(g, &enabled)
            };
            self.grant(g, chosen);
            if g.current.is_some() {
                self.cv.notify_all();
                return;
            }
        }
    }
}

impl<E: Env> EnvLayer for SchedEnv<E> {
    type Inner = E;
    /// Lock acquisitions granted to this processor (the inner environment
    /// never sees them).
    type Local = u64;

    fn inner(&self) -> &E {
        &self.inner
    }

    fn make_local(&self, _proc: usize) -> u64 {
        0
    }

    fn on_access(&self, ctx: &mut LayerCtx<Self>, addr: VAddr, bytes: u32, kind: Access) {
        // The atomic kinds are sync points; plain and deliberately unordered
        // accesses are straight-line code and do not yield.
        match kind {
            Access::Rmw => self.yield_at(ctx.proc, SyncOp::Rmw(addr)),
            Access::AtomicRead => self.yield_at(ctx.proc, SyncOp::AtomicRead(addr)),
            Access::AtomicWrite => self.yield_at(ctx.proc, SyncOp::AtomicWrite(addr)),
            Access::Read | Access::Write | Access::Unordered => {}
        }
        self.inner.access(&mut ctx.inner, addr, bytes, kind);
    }

    fn on_atomic_commit(&self, ctx: &mut LayerCtx<Self>, addr: VAddr, bytes: u32) {
        self.yield_at(ctx.proc, SyncOp::Commit(addr));
        self.inner.atomic_commit(&mut ctx.inner, addr, bytes);
    }

    fn on_lock(&self, ctx: &mut LayerCtx<Self>, lock: usize) {
        // Scheduler-level lock semantics over the raw id: the grant is the
        // acquisition. The inner environment's hashed lock table is never
        // entered (see the module docs).
        ctx.local += 1;
        self.yield_at(ctx.proc, SyncOp::Lock(lock));
    }

    fn on_unlock(&self, ctx: &mut LayerCtx<Self>, lock: usize) {
        self.yield_at(ctx.proc, SyncOp::Unlock(lock));
    }

    fn on_barrier(&self, ctx: &mut LayerCtx<Self>) {
        // Returning from the yield means this proc was granted its
        // post-release Resume: the episode completed.
        self.yield_at(ctx.proc, SyncOp::Barrier);
    }

    fn on_worker_begin(&self, proc: usize) {
        self.inner.worker_begin(proc);
        let mut g = self.state.lock();
        if g.aborted {
            drop(g);
            panic!("schedule aborted (stale environment)");
        }
        debug_assert_eq!(g.status[proc], Status::Idle, "double worker_begin");
        g.status[proc] = Status::Pending(SyncOp::Start);
        g.registered += 1;
        if g.registered == g.procs {
            g.session = true;
            g.last_run = None;
            self.schedule(&mut g);
        }
        self.park(g, proc);
    }

    fn on_worker_end(&self, proc: usize) {
        {
            let mut g = self.state.lock();
            if g.aborted {
                // Unwinding out of an aborted schedule: just leave.
                g.status[proc] = Status::Done;
            } else if g.session {
                g.push_trace(proc, SyncOp::Exit);
                g.status[proc] = Status::Done;
                g.current = None;
                g.last_run = Some(proc);
                self.schedule(&mut g);
            }
        }
        self.inner.worker_end(proc);
    }

    fn on_stats(&self, ctx: &LayerCtx<Self>) -> CtxStats {
        let mut s = self.inner.stats(&ctx.inner);
        s.lock_acquires += ctx.local;
        s
    }
}

/// Find cycles in a lock-order graph. Returns up to 8 distinct simple
/// cycles as lock-id sequences (first element is the smallest id in the
/// cycle, for deterministic reporting).
pub fn lock_order_cycles(edges: &HashMap<(usize, usize), u64>) -> Vec<Vec<usize>> {
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    for nbrs in adj.values_mut() {
        nbrs.sort_unstable();
        nbrs.dedup();
    }
    let mut nodes: Vec<usize> = adj.keys().copied().collect();
    nodes.sort_unstable();

    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut done: HashSet<usize> = HashSet::new();
    for &start in &nodes {
        if done.contains(&start) || cycles.len() >= 8 {
            continue;
        }
        // Iterative DFS from `start`, tracking the path to extract cycles.
        let mut path: Vec<usize> = Vec::new();
        let mut on_path: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(node, next)) = stack.last() {
            if next == 0 {
                path.push(node);
                on_path.insert(node);
            }
            let nbrs = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if next < nbrs.len() {
                let n = nbrs[next];
                stack.last_mut().unwrap().1 += 1;
                if on_path.contains(&n) {
                    // Back edge: the path suffix from n is a cycle.
                    let at = path.iter().position(|&x| x == n).unwrap();
                    let mut cyc = path[at..].to_vec();
                    // Rotate so the smallest id leads.
                    let min_at = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &v)| v)
                        .map(|(i, _)| i)
                        .unwrap();
                    cyc.rotate_left(min_at);
                    if !cycles.contains(&cyc) && cycles.len() < 8 {
                        cycles.push(cyc);
                    }
                } else if !done.contains(&n) {
                    stack.push((n, 0));
                }
            } else {
                stack.pop();
                path.pop();
                on_path.remove(&node);
                done.insert(node);
            }
        }
    }
    cycles
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

/// The standard verification stack: race detector over controlled
/// scheduler over the native environment.
pub type VerifyEnv = CheckedEnv<SchedEnv<NativeEnv>>;

/// The outcome of one scheduled run.
pub struct ScheduleOutcome {
    /// Human-readable schedule id ("round-robin", "exhaustive #17", ...).
    pub id: String,
    pub finding: Option<Finding>,
    pub races: Vec<RaceReport>,
    /// A worker panic that was not a scheduler abort.
    pub panic: Option<String>,
    /// A validation error the program reported.
    pub error: Option<String>,
    pub replay_diverged: bool,
    pub decisions: Vec<Decision>,
    pub lock_edges: HashMap<(usize, usize), u64>,
    pub trace_tail: Vec<String>,
}

impl ScheduleOutcome {
    /// Whether this schedule produced any defect report.
    pub fn clean(&self) -> bool {
        self.finding.is_none()
            && self.races.is_empty()
            && self.panic.is_none()
            && self.error.is_none()
    }
}

/// Run `program` once under one schedule. The program receives the
/// [`VerifyEnv`] and returns a validation error, if any.
pub fn run_schedule<F>(
    procs: usize,
    strategy: SchedStrategy,
    id: &str,
    program: &F,
) -> ScheduleOutcome
where
    F: Fn(&VerifyEnv) -> Option<String>,
{
    let env = CheckedEnv::new(SchedEnv::new(NativeEnv::new(procs), strategy));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program(&env)));
    let races = env.races();
    let sched = env.inner();
    let finding = sched.finding();
    let (panic, error) = match result {
        Ok(e) => (None, e),
        Err(payload) => {
            let msg = panic_text(&*payload).unwrap_or("<non-string panic>");
            // Scheduler aborts panic by design; they are reported via the
            // finding, not as a program failure.
            if finding.is_some() || msg.contains("schedule aborted") {
                (None, None)
            } else {
                (Some(msg.to_string()), None)
            }
        }
    };
    ScheduleOutcome {
        id: id.to_string(),
        finding,
        races,
        panic,
        error,
        replay_diverged: sched.replay_diverged(),
        decisions: sched.decisions(),
        lock_edges: sched.lock_edges(),
        trace_tail: sched.trace_tail(),
    }
}

/// One defect, packaged with its schedule and trace for reporting.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// Which schedule hit it.
    pub schedule: String,
    /// "deadlock" | "barrier-divergence" | "data-race" | "panic" |
    /// "validation" | "op-budget" | "lock-protocol".
    pub kind: String,
    pub detail: String,
    /// Trailing sync-trace events leading up to the defect.
    pub trace: Vec<String>,
}

impl std::fmt::Display for CounterExample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}] {}: {}", self.schedule, self.kind, self.detail)?;
        if !self.trace.is_empty() {
            writeln!(f, "  schedule trace (tail):")?;
            for t in &self.trace {
                writeln!(f, "    {t}")?;
            }
        }
        Ok(())
    }
}

fn counterexamples_of(o: &ScheduleOutcome) -> Vec<CounterExample> {
    let mut out = Vec::new();
    if let Some(f) = &o.finding {
        out.push(CounterExample {
            schedule: o.id.clone(),
            kind: f.kind().to_string(),
            detail: f.to_string(),
            trace: o.trace_tail.clone(),
        });
    }
    for r in o.races.iter().take(4) {
        out.push(CounterExample {
            schedule: o.id.clone(),
            kind: "data-race".to_string(),
            detail: r.to_string(),
            trace: o.trace_tail.clone(),
        });
    }
    if let Some(p) = &o.panic {
        out.push(CounterExample {
            schedule: o.id.clone(),
            kind: "panic".to_string(),
            detail: p.clone(),
            trace: o.trace_tail.clone(),
        });
    }
    if let Some(e) = &o.error {
        out.push(CounterExample {
            schedule: o.id.clone(),
            kind: "validation".to_string(),
            detail: e.clone(),
            trace: o.trace_tail.clone(),
        });
    }
    out
}

/// How to cover the schedule space.
#[derive(Debug, Clone)]
pub enum ExplorePlan {
    /// The single deterministic round-robin schedule.
    RoundRobin,
    /// Replay-based DFS under a preemption bound, capped at
    /// `max_schedules` runs.
    Exhaustive {
        preemption_bound: u32,
        max_schedules: usize,
    },
}

impl ExplorePlan {
    /// Short name for matrix rows.
    pub fn name(&self) -> String {
        match self {
            ExplorePlan::RoundRobin => "round-robin".to_string(),
            ExplorePlan::Exhaustive {
                preemption_bound, ..
            } => format!("exhaustive pb={preemption_bound}"),
        }
    }
}

/// Aggregated result of exploring one program under one plan.
pub struct Exploration {
    /// Schedules executed.
    pub schedules: usize,
    /// Exhaustive only: the DFS drained within budget (the certification is
    /// over the whole bounded space, not a sample).
    pub complete: bool,
    /// Cap on stored counterexamples applies; see `defects` for the count.
    pub counterexamples: Vec<CounterExample>,
    /// Total defective schedules (uncapped).
    pub defects: usize,
    /// Union lock-order graph over all schedules.
    pub lock_edges: HashMap<(usize, usize), u64>,
    /// Cycles in the union graph.
    pub lock_cycles: Vec<Vec<usize>>,
}

impl Exploration {
    /// No defect on any schedule and no lock-order cycle.
    pub fn certified(&self) -> bool {
        self.defects == 0 && self.lock_cycles.is_empty()
    }
}

const MAX_STORED_COUNTEREXAMPLES: usize = 16;

fn aggregate(agg: &mut Exploration, o: &ScheduleOutcome) {
    agg.schedules += 1;
    for (k, v) in &o.lock_edges {
        *agg.lock_edges.entry(*k).or_insert(0) += v;
    }
    if !o.clean() {
        agg.defects += 1;
        for ce in counterexamples_of(o) {
            if agg.counterexamples.len() < MAX_STORED_COUNTEREXAMPLES {
                agg.counterexamples.push(ce);
            }
        }
    }
}

/// Explore `program` on `procs` processors under `plan`.
pub fn explore<F>(procs: usize, plan: &ExplorePlan, program: F) -> Exploration
where
    F: Fn(&VerifyEnv) -> Option<String>,
{
    let mut agg = Exploration {
        schedules: 0,
        complete: false,
        counterexamples: Vec::new(),
        defects: 0,
        lock_edges: HashMap::new(),
        lock_cycles: Vec::new(),
    };
    match plan {
        ExplorePlan::RoundRobin => {
            let o = run_schedule(procs, SchedStrategy::RoundRobin, "round-robin", &program);
            aggregate(&mut agg, &o);
        }
        ExplorePlan::Exhaustive {
            preemption_bound,
            max_schedules,
        } => {
            agg.complete = true;
            let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
            while let Some(prefix) = stack.pop() {
                if agg.schedules >= *max_schedules {
                    agg.complete = false;
                    break;
                }
                let base_len = prefix.len();
                let id = format!("exhaustive #{}", agg.schedules);
                let o = run_schedule(procs, SchedStrategy::Replay(prefix), &id, &program);
                if o.replay_diverged {
                    // The program is not schedule-deterministic: the DFS
                    // bookkeeping is meaningless past this point.
                    agg.complete = false;
                }
                aggregate(&mut agg, &o);
                if matches!(o.finding, Some(Finding::OpBudgetExhausted { .. })) {
                    agg.complete = false;
                }
                // Branch on every new decision point of this run.
                for i in base_len..o.decisions.len() {
                    let d = &o.decisions[i];
                    for &alt in d.enabled.iter().filter(|&&a| a != d.chosen) {
                        let extra = match d.prev {
                            Some(l) if l != alt && d.enabled.contains(&l) => 1,
                            _ => 0,
                        };
                        if d.preemptions + extra > *preemption_bound {
                            continue;
                        }
                        let mut choices: Vec<usize> =
                            o.decisions[..i].iter().map(|d| d.chosen).collect();
                        choices.push(alt);
                        stack.push(choices);
                    }
                }
            }
        }
    }
    agg.lock_cycles = lock_order_cycles(&agg.lock_edges);
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Placement, Region};
    use crate::harness::spmd;
    use crate::shared::{SharedAtomicVec, SharedVec};

    fn verify_env(procs: usize, strategy: SchedStrategy) -> VerifyEnv {
        CheckedEnv::new(SchedEnv::new(NativeEnv::new(procs), strategy))
    }

    #[test]
    fn serialized_counter_survives_every_strategy() {
        for strategy in [
            SchedStrategy::RoundRobin,
            SchedStrategy::Replay(Vec::new()),
            SchedStrategy::Replay(vec![2, 1, 0, 2]),
        ] {
            let env = verify_env(3, strategy);
            let v: SharedVec<u64> = SharedVec::new(&env, 1, 0, Placement::Global, Region::Other);
            spmd(&env, |_proc, ctx| {
                for _ in 0..10 {
                    env.lock(ctx, 7);
                    let x = v.load(&env, ctx, 0);
                    v.store(&env, ctx, 0, x + 1);
                    env.unlock(ctx, 7);
                }
            });
            env.assert_race_free();
            assert_eq!(v.peek(0), 30);
            assert!(env.inner().finding().is_none());
        }
    }

    #[test]
    fn barriers_release_all_procs() {
        let env = verify_env(4, SchedStrategy::RoundRobin);
        let v: SharedVec<u64> = SharedVec::new(&env, 4, 0, Placement::Global, Region::Other);
        spmd(&env, |proc, ctx| {
            v.store(&env, ctx, proc, 1);
            env.barrier(ctx);
            let mut sum = 0;
            for i in 0..4 {
                sum += v.load(&env, ctx, i);
            }
            assert_eq!(sum, 4);
            env.barrier(ctx);
        });
        env.assert_race_free();
        assert_eq!(env.inner().barrier_generations(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn replay_is_deterministic_and_distinct_scripts_give_distinct_schedules() {
        let run = |script: &[usize]| {
            let env = verify_env(2, SchedStrategy::Replay(script.to_vec()));
            let v: SharedAtomicVec =
                SharedAtomicVec::new(&env, 1, 0, Placement::Global, Region::Other);
            spmd(&env, |_proc, ctx| {
                for _ in 0..8 {
                    v.fetch_add(&env, ctx, 0, 1);
                }
            });
            let sched = env.inner();
            assert!(!sched.replay_diverged(), "script {script:?} diverged");
            let chosen: Vec<usize> = sched.decisions().iter().map(|d| d.chosen).collect();
            assert!(chosen.starts_with(script), "{chosen:?} ignores {script:?}");
            sched.trace_tail()
        };
        let scripts: [&[usize]; 4] = [&[0], &[1], &[0, 1], &[1, 0]];
        let traces: Vec<Vec<String>> = scripts.iter().map(|s| run(s)).collect();
        for (script, trace) in scripts.iter().zip(&traces) {
            assert_eq!(&run(script), trace, "script {script:?} did not replay");
        }
        for i in 0..traces.len() {
            for j in i + 1..traces.len() {
                assert_ne!(
                    traces[i], traces[j],
                    "scripts {:?} and {:?} ran one schedule",
                    scripts[i], scripts[j]
                );
            }
        }
    }

    #[test]
    fn races_are_detected_under_the_scheduler() {
        // The classic lost-update race must survive composition: CheckedEnv
        // over SchedEnv still reports it on a serialized schedule, and the
        // bounded-exhaustive plan finds it on every run.
        let program = |env: &VerifyEnv| {
            let v: SharedVec<u64> = SharedVec::new(env, 1, 0, Placement::Global, Region::Other);
            spmd(env, |_proc, ctx| {
                for _ in 0..4 {
                    let x = v.load(env, ctx, 0);
                    v.store(env, ctx, 0, x + 1);
                }
            });
            None
        };
        let agg = explore(
            2,
            &ExplorePlan::Exhaustive {
                preemption_bound: 2,
                max_schedules: 100,
            },
            program,
        );
        assert!(agg.complete, "the bounded space must drain");
        assert!(
            agg.counterexamples.iter().any(|c| c.kind == "data-race"),
            "lost update never detected in {} schedules",
            agg.schedules
        );
    }

    #[test]
    fn ab_ba_deadlock_is_found_and_reported() {
        let program = |env: &VerifyEnv| {
            spmd(env, |proc, ctx| {
                let (first, second) = if proc == 0 { (10, 11) } else { (11, 10) };
                env.lock(ctx, first);
                env.lock(ctx, second);
                env.unlock(ctx, second);
                env.unlock(ctx, first);
            });
            None
        };
        let agg = explore(
            2,
            &ExplorePlan::Exhaustive {
                preemption_bound: 2,
                max_schedules: 200,
            },
            program,
        );
        assert!(
            agg.counterexamples.iter().any(|c| c.kind == "deadlock"),
            "AB-BA deadlock not found in {} schedules",
            agg.schedules
        );
        // The union lock-order graph must contain the 10<->11 cycle.
        assert!(
            agg.lock_cycles
                .iter()
                .any(|c| c.contains(&10) && c.contains(&11)),
            "lock-order cycle missing: {:?}",
            agg.lock_cycles
        );
        // A deadlock counterexample carries its schedule trace.
        let ce = agg
            .counterexamples
            .iter()
            .find(|c| c.kind == "deadlock")
            .unwrap();
        assert!(!ce.trace.is_empty(), "counterexample lost its trace");
    }

    #[test]
    fn lock_order_cycle_reported_even_without_a_deadlock() {
        // The barrier runs P0's two nested acquisitions to completion before
        // P1's reversed pair: no schedule deadlocks, but the union graph has
        // the cycle — the Eraser-style potential-deadlock report.
        let program = |env: &VerifyEnv| {
            spmd(env, |proc, ctx| {
                // The barrier separates the two processors' critical
                // sections in *every* schedule: the deadlock is unreachable,
                // the ordering discipline is still broken.
                if proc == 0 {
                    env.lock(ctx, 20);
                    env.lock(ctx, 21);
                    env.unlock(ctx, 21);
                    env.unlock(ctx, 20);
                }
                env.barrier(ctx);
                if proc == 1 {
                    env.lock(ctx, 21);
                    env.lock(ctx, 20);
                    env.unlock(ctx, 20);
                    env.unlock(ctx, 21);
                }
            });
            None
        };
        let agg = explore(
            2,
            &ExplorePlan::Exhaustive {
                preemption_bound: 2,
                max_schedules: 200,
            },
            program,
        );
        assert!(agg.complete, "the bounded space must drain");
        assert_eq!(
            agg.defects,
            0,
            "no schedule can deadlock here: {:?}",
            agg.counterexamples.first().map(|c| c.detail.clone())
        );
        assert!(
            agg.lock_cycles
                .iter()
                .any(|c| c.contains(&20) && c.contains(&21)),
            "potential deadlock must be visible in the lock-order graph"
        );
    }

    #[test]
    fn barrier_divergence_is_classified() {
        let program = |env: &VerifyEnv| {
            spmd(env, |proc, ctx| {
                if proc == 0 {
                    env.barrier(ctx);
                }
            });
            None
        };
        let agg = explore(2, &ExplorePlan::RoundRobin, program);
        let ce = agg
            .counterexamples
            .iter()
            .find(|c| c.kind == "barrier-divergence");
        assert!(
            ce.is_some(),
            "one proc skipping the barrier must be divergence, got {:?}",
            agg.counterexamples
                .iter()
                .map(|c| c.kind.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn deadlock_names_waiters_and_holders() {
        let o = run_schedule(2, SchedStrategy::RoundRobin, "rr", &|env: &VerifyEnv| {
            spmd(env, |proc, ctx| {
                // Both procs grab each other's lock and then exit
                // without releasing on proc 1: proc 0 waits forever.
                if proc == 1 {
                    env.lock(ctx, 30);
                } else {
                    env.barrier(ctx); // never released: divergence OR
                                      // deadlock depending on order
                }
            });
            None
        });
        // Whatever the classification, the schedule must abort with a
        // finding rather than hang.
        assert!(o.finding.is_some(), "stuck schedule must produce a finding");
    }

    #[test]
    fn unpaired_unlock_is_a_lock_protocol_finding() {
        let o = run_schedule(2, SchedStrategy::RoundRobin, "rr", &|env: &VerifyEnv| {
            spmd(env, |proc, ctx| {
                if proc == 0 {
                    env.unlock(ctx, 40);
                }
            });
            None
        });
        assert!(
            matches!(o.finding, Some(Finding::LockProtocol { .. })),
            "got {:?}",
            o.finding
        );
    }

    #[test]
    fn op_budget_catches_atomic_spin_livelock() {
        let o = run_schedule(2, SchedStrategy::RoundRobin, "rr", &|env: &VerifyEnv| {
            let flag: SharedAtomicVec =
                SharedAtomicVec::new(env, 1, 0, Placement::Global, Region::Other);
            spmd(env, |proc, ctx| {
                if proc == 1 {
                    // Spin on a flag nobody ever sets.
                    while flag.load(env, ctx, 0) == 0 {}
                }
            });
            None
        });
        assert!(
            matches!(o.finding, Some(Finding::OpBudgetExhausted { .. })),
            "got {:?}",
            o.finding
        );
    }

    #[test]
    fn exhaustive_covers_small_spaces_completely() {
        // Two procs, two disjoint lock pairs: a tiny space the DFS must
        // drain (complete = true) without findings.
        let program = |env: &VerifyEnv| {
            spmd(env, |proc, ctx| {
                let l = 50 + proc;
                env.lock(ctx, l);
                env.unlock(ctx, l);
            });
            None
        };
        let agg = explore(
            2,
            &ExplorePlan::Exhaustive {
                preemption_bound: 2,
                max_schedules: 500,
            },
            program,
        );
        assert!(agg.complete, "tiny space must drain within 500 schedules");
        assert_eq!(agg.defects, 0);
        assert!(agg.schedules >= 2, "at least both start orders exist");
    }

    #[test]
    fn preemption_bound_keeps_the_ab_ba_space_small() {
        // The AB-BA program under the exhaustive explorer: within
        // preemption bound 1 the DFS drains a small space, and one of its
        // schedules is the deadlock.
        let program = |env: &VerifyEnv| {
            spmd(env, |proc, ctx| {
                let (first, second) = if proc == 0 { (60, 61) } else { (61, 60) };
                env.lock(ctx, first);
                env.lock(ctx, second);
                env.unlock(ctx, second);
                env.unlock(ctx, first);
            });
            None
        };
        let agg = explore(
            2,
            &ExplorePlan::Exhaustive {
                preemption_bound: 1,
                max_schedules: 300,
            },
            program,
        );
        assert!(agg.counterexamples.iter().any(|c| c.kind == "deadlock"));
        assert!(agg.complete, "the bounded space must drain");
        assert_eq!(agg.schedules, 10, "schedules within preemption bound 1");
    }

    #[test]
    fn lock_cycle_detection_on_synthetic_graphs() {
        let mut edges = HashMap::new();
        edges.insert((1usize, 2usize), 1u64);
        edges.insert((2, 3), 1);
        assert!(lock_order_cycles(&edges).is_empty());
        edges.insert((3, 1), 1);
        let cycles = lock_order_cycles(&edges);
        assert_eq!(cycles, vec![vec![1, 2, 3]]);
        // Self-loop (recursive acquisition) is a cycle too.
        let mut selfy = HashMap::new();
        selfy.insert((9usize, 9usize), 2u64);
        assert_eq!(lock_order_cycles(&selfy), vec![vec![9]]);
    }

    #[test]
    fn sched_env_composes_with_one_proc() {
        let env = verify_env(1, SchedStrategy::RoundRobin);
        let v: SharedAtomicVec = SharedAtomicVec::new(&env, 1, 0, Placement::Global, Region::Other);
        spmd(&env, |_proc, ctx| {
            v.fetch_add(&env, ctx, 0, 5);
            env.barrier(ctx);
        });
        assert_eq!(v.peek(0), 5);
        assert!(env.inner().finding().is_none());
    }

    #[test]
    fn back_to_back_sessions_reuse_the_scheduler() {
        let env = std::sync::Arc::new(verify_env(2, SchedStrategy::Replay(vec![1, 0, 1])));
        // One element per round: the detector has no happens-before edge
        // across pool.run sessions (worker hooks don't touch vector
        // clocks), so cross-session reuse of one cell would be reported.
        let v: SharedVec<u64> = SharedVec::new(&*env, 3, 0, Placement::Global, Region::Other);
        let pool = crate::harness::WorkerPool::new(2);
        for round in 1..=3u64 {
            let idx = round as usize - 1;
            pool.run(&*env, |proc, ctx| {
                if proc == 0 {
                    v.store(&*env, ctx, idx, round);
                }
                env.barrier(ctx);
                assert_eq!(v.load(&*env, ctx, idx), round);
            });
        }
        env.assert_race_free();
    }
}
