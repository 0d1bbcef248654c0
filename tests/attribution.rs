//! Contract tests for attributed telemetry.
//!
//! Every simulated miss, fault, invalidation and lock wait is charged once,
//! to a (region × pipeline stage) cell, and the aggregate [`CtxStats`]
//! counters are the table's totals. What makes the breakdown trustworthy:
//!
//! 1. **Tiling.** The per-processor tables [`Machine::attribution`] hands
//!    out after a run, summed over all regions and stages, reproduce the
//!    run's final [`CtxStats`] *exactly* — for every algorithm, on both a
//!    hardware-coherent and a software-SVM platform, at one and several
//!    processors, and per job on a reused engine.
//! 2. **Resolution.** Named regions absorb the traffic; the catch-all
//!    `other` row stays empty for every algorithm.
//! 3. **Locks by id.** [`Machine::lock_histogram`] counts the same acquires
//!    and wait by raw lock id: summed, it is the run's all-steps lock
//!    totals, and a lock-free builder leaves it empty.
//! 4. **Ownership.** A builder's state is allocated by that builder
//!    alone: no other algorithm's run holds SPACE's partitioner arrays or
//!    MORTON's sort workspace, and MORTON holds no linked tree.
//! 5. **No write-only state.** Every allocation a run writes with timed
//!    stores it also reads with timed loads, so no builder pays for
//!    traffic that no reader needs.
//!
//! Attribution never touches the virtual clock: `tests/sim_cycles_golden.rs`
//! pins the P = 1 cycles of all five platforms and six algorithms.

use std::sync::Mutex;

use bh_repro::bh_core::env::{Access, NativeCtx, VAddr};
use bh_repro::bh_core::prelude::*;
use bh_repro::bh_core::trace::LockStat;
use bh_repro::ssmp::{platform, AttrTable, CostModel, Machine};

const ALGS: [Algorithm; 6] = [
    Algorithm::Orig,
    Algorithm::Local,
    Algorithm::Update,
    Algorithm::Partree,
    Algorithm::Space,
    Algorithm::Morton,
];

fn tiny_cfg(alg: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::new(alg);
    cfg.k = 4;
    cfg.warmup_steps = 1;
    cfg.measured_steps = 1;
    cfg
}

/// A run of `n` bodies on a fresh machine: its statistics, its summed
/// attribution table and its lock histogram.
fn run_on(
    cost: &CostModel,
    alg: Algorithm,
    n: usize,
    procs: usize,
) -> (RunStats, AttrTable, Vec<LockStat>) {
    let bodies = Model::Plummer.generate(n, 1998);
    let machine = Machine::new(cost.clone(), procs);
    let stats = run_simulation(&machine, &tiny_cfg(alg), &bodies);
    stats.assert_valid();
    let sum = machine.attribution().iter().sum();
    (stats, sum, machine.lock_histogram())
}

fn run_attributed(cost: &CostModel, alg: Algorithm, procs: usize) -> (RunStats, AttrTable) {
    let (stats, sum, _) = run_on(cost, alg, 192, procs);
    (stats, sum)
}

/// Assert that `sum`'s totals are `stats`' aggregate counters.
fn assert_tiles(stats: &RunStats, sum: &AttrTable, label: &str) {
    let mut agg = CtxStats::default();
    for r in &stats.procs_records {
        agg.accumulate(&r.final_stats);
    }
    let total = sum.total();
    assert_eq!(total.local_misses, agg.local_misses, "{label} local");
    assert_eq!(total.remote_misses, agg.remote_misses, "{label} remote");
    assert_eq!(total.page_faults, agg.page_faults, "{label} faults");
    assert_eq!(total.lock_acquires, agg.lock_acquires, "{label} locks");
    assert_eq!(total.lock_wait, agg.lock_wait, "{label} lock wait");
}

/// Tiling: per-(region x stage) counters sum exactly to the aggregates, for
/// all six algorithms on both platform families, serial and parallel.
#[test]
fn attribution_tiles_aggregates_for_every_algorithm() {
    for cost in [platform::origin2000(4), platform::typhoon0_hlrc(4)] {
        for alg in ALGS {
            for procs in [1, 4] {
                let (stats, sum) = run_attributed(&cost, alg, procs);
                let label = format!("{}/{}/{procs}p", cost.name, alg.name());
                assert_tiles(&stats, &sum, &label);
            }
        }
    }
}

/// The breakdown is not a blob: tagged regions absorb the traffic, and the
/// untagged catch-all stays a sliver. SPACE attributes zero lock traffic.
#[test]
fn attribution_resolves_regions() {
    let cost = platform::origin2000(4);

    let (_, orig) = run_attributed(&cost, Algorithm::Orig, 4);
    let tree_cells = orig.region_total(Region::TreeCells);
    assert!(
        tree_cells.lock_acquires > 0,
        "ORIG locks tree cells on every insert"
    );
    let tagged_remote: u64 = Region::ALL
        .iter()
        .filter(|r| **r != Region::Other)
        .map(|r| orig.region_total(*r).remote_misses)
        .sum();
    let other_remote = orig.region_total(Region::Other).remote_misses;
    assert!(
        tagged_remote > other_remote,
        "tagged regions must absorb most remote traffic \
         (tagged {tagged_remote} vs untagged {other_remote})"
    );

    let (_, space) = run_attributed(&cost, Algorithm::Space, 4);
    assert_eq!(space.total().lock_acquires, 0, "SPACE is lock-free");

    let (_, morton) = run_attributed(&cost, Algorithm::Morton, 4);
    assert_eq!(morton.total().lock_acquires, 0, "MORTON is lock-free");
    let sort = morton.region_total(Region::SortScratch);
    assert!(
        sort.local_misses + sort.remote_misses > 0,
        "MORTON's sort workspace traffic must land in its own region"
    );
    // The batched force kernel emits interaction lists into tagged
    // per-processor scratch; that traffic must resolve to its own region
    // (for both builder families — MORTON and the lock-based ORIG).
    for (name, run) in [("ORIG", &orig), ("MORTON", &morton)] {
        let fl = run.region_total(Region::ForceList);
        assert!(
            fl.local_misses + fl.remote_misses > 0,
            "{name}: force-list emission traffic must land in its own region"
        );
    }
}

/// Every shared allocation names its region, so on both platform
/// families, serial and parallel, no miss, fault, invalidation or lock of
/// any algorithm lands in the catch-all `other` row.
#[test]
fn every_algorithm_leaves_the_other_row_empty() {
    for cost in [platform::origin2000(4), platform::typhoon0_hlrc(4)] {
        for alg in ALGS {
            for procs in [1, 4] {
                let (_, sum) = run_attributed(&cost, alg, procs);
                let other = sum.region_total(Region::Other);
                let label = format!("{}/{}/{procs}p", cost.name, alg.name());
                assert!(other.is_zero(), "{label}: {other:?}");
            }
        }
    }
}

/// A parked engine starts each job on fresh contexts: after every job on
/// one reused `SimEngine<Machine>`, the tables and the lock histogram are
/// that job's alone, not the accumulation of the jobs before it. The
/// same-shape LOCAL job resets
/// and reuses the allocations; the UPDATE job after it also tags its new
/// builder's arrays mid-life. At one processor a job takes as many locks
/// as it does on a fresh machine, whatever protocol state the engine's
/// earlier jobs left behind.
#[test]
fn a_reused_engine_attributes_each_job_on_its_own() {
    let bodies = Model::Plummer.generate(192, 1998);
    for cost in [platform::origin2000(1), platform::typhoon0_hlrc(1)] {
        let mut engine = SimEngine::new(Machine::new(cost.clone(), 1));
        for (job, alg) in [Algorithm::Local, Algorithm::Local, Algorithm::Update]
            .into_iter()
            .enumerate()
        {
            let stats = engine.run(&tiny_cfg(alg), &bodies);
            stats.assert_valid();
            let sum: AttrTable = engine.env().attribution().iter().sum();
            let label = format!("{}/{}/job {job}", cost.name, alg.name());
            assert_tiles(&stats, &sum, &label);
            let (_, fresh, fresh_locks) = run_on(&cost, alg, 192, 1);
            assert!(fresh.total().lock_acquires > 0, "{label}: no locks");
            assert_eq!(
                sum.total().lock_acquires,
                fresh.total().lock_acquires,
                "{label}: locks of earlier jobs carried over"
            );
            // The histogram is the job's own too: a fresh machine's ids
            // and acquires, and the job's lock wait. The waits themselves
            // match a fresh machine's only where a lock's wait does not
            // read its previous holder's release clock: on a reused
            // software-SVM machine that clock is an earlier job's.
            let locks = engine.env().lock_histogram();
            let wait: u64 = locks.iter().map(|l| l.wait_total).sum();
            assert_eq!(wait, sum.total().lock_wait, "{label}: lock wait");
            let by_id = |locks: &[LockStat]| {
                let mut ids: Vec<_> = locks.iter().map(|l| (l.lock, l.acquires)).collect();
                ids.sort_unstable();
                ids
            };
            assert_eq!(
                by_id(&locks),
                by_id(&fresh_locks),
                "{label}: lock ids differ from a fresh machine's"
            );
            if !cost.protocol.software_sync() {
                assert_eq!(locks, fresh_locks, "{label}: lock histogram");
            }
        }
    }
}

/// Locks by id: on both platform families, serial and parallel, the
/// histogram's acquires and wait sum to the run's lock totals over all
/// steps; the lock-free builders leave it empty.
#[test]
fn the_lock_histogram_sums_to_the_runs_lock_totals() {
    for cost in [platform::origin2000(4), platform::typhoon0_hlrc(4)] {
        for alg in ALGS {
            for procs in [1, 4] {
                let (stats, _, locks) = run_on(&cost, alg, 256, procs);
                let label = format!("{}/{}/{procs}p", cost.name, alg.name());
                if matches!(alg, Algorithm::Space | Algorithm::Morton) {
                    assert!(locks.is_empty(), "{label}: {locks:?}");
                    continue;
                }
                let all = stats.phases_over(0..stats.measured().end);
                let acquires: u64 = all.iter().map(|p| p.lock_acquires).sum();
                let wait: u64 = all.iter().map(|p| p.lock_wait).sum();
                assert!(acquires > 0, "{label}: no locks");
                assert_eq!(
                    locks.iter().map(|l| l.acquires).sum::<u64>(),
                    acquires,
                    "{label} acquires"
                );
                assert_eq!(
                    locks.iter().map(|l| l.wait_total).sum::<u64>(),
                    wait,
                    "{label} wait"
                );
                assert!(
                    locks.windows(2).all(|w| w[0].wait_total >= w[1].wait_total),
                    "{label}: not hottest first"
                );
            }
        }
    }
}

/// One allocation as a [`Recorder`] saw it.
#[derive(Debug, Clone, Copy)]
struct Alloc {
    base: VAddr,
    bytes: u64,
    region: Region,
    /// Timed accesses that read it (loads, unordered loads, atomic reads
    /// and read-modify-writes).
    reads: u64,
    /// Timed accesses that write it (stores and read-modify-writes).
    writes: u64,
}

/// `NativeEnv` that maps every timed access to the allocation it hits.
struct Recorder {
    inner: NativeEnv,
    /// In allocation order, which is address order.
    allocs: Mutex<Vec<Alloc>>,
}

impl Recorder {
    fn new(procs: usize) -> Recorder {
        Recorder {
            inner: NativeEnv::new(procs),
            allocs: Mutex::new(Vec::new()),
        }
    }

    fn allocs(self) -> Vec<Alloc> {
        self.allocs.into_inner().unwrap()
    }
}

impl Env for Recorder {
    type Ctx = NativeCtx;

    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }

    fn make_ctx(&self, proc: usize) -> NativeCtx {
        self.inner.make_ctx(proc)
    }

    fn alloc(&self, bytes: u64, align: u64, place: Placement, region: Region) -> VAddr {
        let base = self.inner.alloc(bytes, align, place, region);
        let mut allocs = self.allocs.lock().unwrap();
        assert!(allocs.last().is_none_or(|a| a.base + a.bytes <= base));
        allocs.push(Alloc {
            base,
            bytes,
            region,
            reads: 0,
            writes: 0,
        });
        base
    }

    fn access(&self, ctx: &mut NativeCtx, addr: VAddr, bytes: u32, kind: Access) {
        let mut allocs = self.allocs.lock().unwrap();
        let i = allocs.partition_point(|a| a.base <= addr);
        let a = i
            .checked_sub(1)
            .map(|i| &mut allocs[i])
            .filter(|a| addr < a.base + a.bytes)
            .unwrap_or_else(|| panic!("access at {addr:#x} hits no allocation"));
        a.reads += u64::from(!matches!(kind, Access::Write | Access::AtomicWrite));
        a.writes += u64::from(kind.is_write());
        drop(allocs);
        self.inner.access(ctx, addr, bytes, kind)
    }

    fn compute(&self, ctx: &mut NativeCtx, cycles: u64) {
        self.inner.compute(ctx, cycles)
    }

    fn lock(&self, ctx: &mut NativeCtx, lock: usize) {
        self.inner.lock(ctx, lock)
    }

    fn unlock(&self, ctx: &mut NativeCtx, lock: usize) {
        self.inner.unlock(ctx, lock)
    }

    fn barrier(&self, ctx: &mut NativeCtx) {
        self.inner.barrier(ctx)
    }

    fn worker_end(&self, proc: usize) {
        self.inner.worker_end(proc)
    }

    fn now(&self, ctx: &NativeCtx) -> u64 {
        self.inner.now(ctx)
    }

    fn stats(&self, ctx: &NativeCtx) -> CtxStats {
        self.inner.stats(ctx)
    }
}

/// Ownership: each builder allocates exactly the regions it reads. SPACE
/// alone holds the partitioner scratch and MORTON alone the sort
/// workspace; MORTON, which never links a tree, allocates no tree cells,
/// leaves or allocator state. The table holds serial and parallel runs.
#[test]
fn each_builder_allocates_exactly_its_regions() {
    use Region::*;
    // What every run allocates, then each builder's own regions.
    let common = [Bodies, BodyMeta, Partition, FlatTree, ForceList];
    let linked: &[Region] = &[TreeCells, TreeLeaves, TreeAlloc];
    let table: [(Algorithm, &[Region]); 6] = [
        (Algorithm::Orig, linked),
        (Algorithm::Local, linked),
        (Algorithm::Update, linked),
        (Algorithm::Partree, linked),
        (
            Algorithm::Space,
            &[TreeCells, TreeLeaves, TreeAlloc, PartitionScratch],
        ),
        (Algorithm::Morton, &[SortScratch]),
    ];
    let bodies = Model::Plummer.generate(64, 1998);
    for (alg, own) in table {
        let mut want: Vec<Region> = common.iter().chain(own).copied().collect();
        want.sort_by_key(|r| r.index());
        for procs in [1, 2] {
            let env = Recorder::new(procs);
            run_simulation(&env, &tiny_cfg(alg), &bodies).assert_valid();
            let allocs = env.allocs();
            let got: Vec<Region> = Region::ALL
                .into_iter()
                .filter(|r| allocs.iter().any(|a| a.region == *r))
                .collect();
            assert_eq!(got, want, "{alg} at P = {procs}");
        }
    }
}

/// No write-only state: for every builder, serial and parallel, each
/// allocation that the run's timed stores write is also read by its timed
/// loads. An array that only UPDATE reads, written by every builder's
/// insertions, fails here naming the builder and the allocation.
///
/// `force-list` is exempt: the batched kernel reads its interaction lists
/// back through `peek_slice` (the native fast path) and charges each
/// entry as an interaction (`force.rs` `emit_entry`), not as a load.
#[test]
fn no_allocation_is_written_and_never_read() {
    let bodies = Model::Plummer.generate(1024, 1998);
    let mut failures = Vec::new();
    for alg in ALGS {
        for procs in [1, 2] {
            let env = Recorder::new(procs);
            let cfg = SimConfig {
                k: 8,
                warmup_steps: 1,
                measured_steps: 3,
                ..SimConfig::new(alg)
            };
            run_simulation(&env, &cfg, &bodies).assert_valid();
            for (i, a) in env.allocs().iter().enumerate() {
                if a.writes > 0 && a.reads == 0 && a.region != Region::ForceList {
                    failures.push(format!(
                        "{alg} at P = {procs}: allocation {i} ({}, {} B) written {} times, \
                         never read",
                        a.region, a.bytes, a.writes
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
