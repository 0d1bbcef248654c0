//! The eager write-invalidate protocols — bus MESI, directory and
//! fine-grain SC — at line granularity: a sharer set per line, and
//! invalidations and downgrades delivered to the private caches through
//! per-processor queues drained on each access.

use super::{Machine, Sharded, SimCtx};
use crate::cache::{Held, PrivateCache};
use crate::config::EagerCosts;
use bh_core::env::VAddr;
use bh_core::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct LineState {
    sharers: u64,
    exclusive: i16, // -1 = none
    /// Virtual time at which the line's home finishes servicing the most
    /// recent atomic operation (RMW occupancy).
    service_end: u64,
}

impl Default for LineState {
    fn default() -> Self {
        LineState {
            sharers: 0,
            exclusive: -1,
            service_end: 0,
        }
    }
}

enum QMsg {
    Invalidate(u64),
    Downgrade(u64),
}

#[derive(Default)]
struct InvalQueue {
    flag: AtomicBool,
    msgs: Mutex<Vec<QMsg>>,
}

/// The machine's eager state: the line directory and one invalidation
/// queue per processor.
pub(super) struct Eager {
    costs: EagerCosts,
    /// Cost of a miss served by another node, a remote home or a dirty
    /// remote cache. `None` on the bus, whose memory is uniform: every miss
    /// costs `t_local_miss` and is local.
    t_remote_miss: Option<u64>,
    lines: Sharded<LineState>,
    queues: Box<[Arc<InvalQueue>]>,
}

/// A processor's eager state: its private cache, and a handle on its own
/// invalidation queue for the hit path to poll.
pub(super) struct EagerCtx {
    cache: PrivateCache,
    queue: Arc<InvalQueue>,
}

impl EagerCtx {
    /// No invalidation is pending and the cache holds `grain` as `write`
    /// needs it. `Acquire` pairs with the `Release` store in `post`. A clear
    /// flag is what the swap in `drain` would see as well: a message takes
    /// effect at the first access that observes its flag.
    #[inline(always)]
    pub(super) fn hits(&self, grain: u64, write: bool) -> bool {
        !self.queue.flag.load(Ordering::Acquire)
            && matches!(
                (self.cache.get(grain), write),
                (Some(_), false) | (Some(Held::Exclusive), true)
            )
    }
}

/// Drain this processor's invalidation queue into its private cache.
#[inline]
pub(super) fn drain(ctx: &mut SimCtx, grain_shift: u32) {
    let c = ctx.local.eager();
    // Load before swapping: the flag is almost always clear, and a plain
    // load does not take the cache line exclusive the way a swap does.
    if c.queue.flag.load(Ordering::Acquire) && c.queue.flag.swap(false, Ordering::AcqRel) {
        let msgs = std::mem::take(&mut *c.queue.msgs.lock());
        for m in msgs {
            match m {
                QMsg::Invalidate(g) => {
                    if c.cache.invalidate(g) {
                        ctx.ledger.charge(g << grain_shift).invalidations += 1;
                    }
                }
                QMsg::Downgrade(g) => c.cache.downgrade(g),
            }
        }
    }
}

impl Eager {
    pub(super) fn new(costs: EagerCosts, t_remote_miss: Option<u64>, procs: usize) -> Eager {
        Eager {
            costs,
            t_remote_miss,
            lines: Sharded::new(),
            queues: (0..procs).map(|_| Arc::default()).collect(),
        }
    }

    /// `region_bits`: bits of a grain number below the region number.
    pub(super) fn ctx(&self, proc: usize, region_bits: u32) -> EagerCtx {
        EagerCtx {
            cache: PrivateCache::new(self.costs.cache_grains, region_bits),
            queue: Arc::clone(&self.queues[proc]),
        }
    }

    /// Deliver an invalidation/downgrade to `target`'s queue.
    fn post(&self, target: usize, msg: QMsg) {
        let q = &self.queues[target];
        q.msgs.lock().push(msg);
        q.flag.store(true, Ordering::Release);
    }

    pub(super) fn access(
        &self,
        m: &Machine,
        ctx: &mut SimCtx,
        addr: VAddr,
        bytes: u32,
        write: bool,
    ) {
        drain(ctx, m.grain_shift);
        let me = ctx.proc;
        let c = ctx.local.eager();
        for grain in m.grains(addr, bytes) {
            let held = c.cache.get(grain);
            match (held, write) {
                (Some(_), false) | (Some(Held::Exclusive), true) => {
                    ctx.clock += m.cost.t_hit;
                    continue;
                }
                _ => {}
            }
            // Slow path.
            let my_bit = 1u64 << me;
            let grain_base = grain << m.grain_shift;
            let (home_local, t_remote_miss) = match self.t_remote_miss {
                Some(t) => (m.home_of(grain_base) == me, t),
                None => (true, m.cost.t_local_miss),
            };
            let mut lines = self.lines.lock(grain);
            let line = lines.entry(grain).or_default();
            let mut cost;
            if write {
                // Fetch/upgrade + invalidate other copies.
                let had_shared = held == Some(Held::Shared);
                cost = if had_shared {
                    m.cost.t_local_miss / 2 // upgrade, no data transfer
                } else if line.exclusive >= 0 && line.exclusive as usize != me {
                    t_remote_miss
                } else if home_local {
                    m.cost.t_local_miss
                } else {
                    t_remote_miss
                };
                if line.exclusive >= 0 && line.exclusive as usize != me {
                    self.post(line.exclusive as usize, QMsg::Invalidate(grain));
                    cost += self.costs.t_invalidate;
                }
                let excl_mask = if line.exclusive >= 0 {
                    1u64 << line.exclusive as u64
                } else {
                    0
                };
                let others = line.sharers & !my_bit & !excl_mask;
                let n_others = others.count_ones() as u64;
                cost += self.costs.t_invalidate * n_others;
                let mut o = others;
                while o != 0 {
                    let q = o.trailing_zeros() as usize;
                    self.post(q, QMsg::Invalidate(grain));
                    o &= o - 1;
                }
                line.exclusive = me as i16;
                line.sharers = my_bit;
                drop(lines);
                c.cache.put(grain, Held::Exclusive);
            } else {
                if line.exclusive >= 0 && line.exclusive as usize != me {
                    // Dirty in another cache: remote intervention.
                    cost = t_remote_miss;
                    self.post(line.exclusive as usize, QMsg::Downgrade(grain));
                    line.exclusive = -1;
                } else {
                    cost = if home_local {
                        m.cost.t_local_miss
                    } else {
                        t_remote_miss
                    };
                }
                line.sharers |= my_bit;
                drop(lines);
                c.cache.put(grain, Held::Shared);
            }
            // Attribution uses the first accessed byte within the grain —
            // an access targets one element, which lives in one region.
            let cell = ctx.ledger.charge(addr.max(grain_base));
            if cost >= t_remote_miss && !home_local {
                cell.remote_misses += 1;
            } else {
                cell.local_misses += 1;
            }
            ctx.clock += cost;
        }
    }

    /// [`bh_core::env::Access::Rmw`]: gain exclusive ownership, then
    /// serialize at the line's home: concurrent atomics on one hot line (a
    /// shared allocation counter, a line of adjacent per-processor counters)
    /// queue up in the directory/memory controller.
    pub(super) fn rmw(&self, m: &Machine, ctx: &mut SimCtx, addr: VAddr, bytes: u32) {
        self.access(m, ctx, addr, bytes, true);
        let occ = self.costs.t_rmw_occupancy;
        if occ > 0 {
            let grain = addr >> m.grain_shift;
            let backlog = {
                let mut lines = self.lines.lock(grain);
                let line = lines.entry(grain).or_default();
                m.occupy(&mut line.service_end, ctx.clock, occ)
            };
            ctx.clock += backlog + occ;
        }
    }
}
