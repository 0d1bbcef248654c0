//! Home-based lazy release consistency at page granularity: per-page
//! version counters; a release flushes the diffs of the pages the releaser
//! dirtied and bumps their versions; an acquire opens a new epoch, forcing
//! lazy revalidation of every mapped page on first use, and pages that
//! actually changed pay a full software page fault.

use super::{Machine, Sharded, SimCtx};
use crate::cache::{PageEntry, PageTable};
use crate::config::HlrcCosts;
use bh_core::env::VAddr;
use std::sync::atomic::{AtomicU64, Ordering};

/// HLRC per-page global state: the contents version (bumped at each release
/// that dirtied the page) and the virtual time at which the page's home
/// finishes servicing the most recent fault (fault-service occupancy).
#[derive(Default, Clone, Copy)]
struct PageMeta {
    version: u64,
    service_end: u64,
}

/// The machine's HLRC state: the page versions and the notice counter.
pub(super) struct Hlrc {
    costs: HlrcCosts,
    pages: Sharded<PageMeta>,
    /// Total write notices (dirty-page flushes) issued system-wide.
    notices: AtomicU64,
}

/// A processor's HLRC state.
pub(super) struct HlrcCtx {
    pages: PageTable,
    /// The current acquire epoch: an entry checked in an older one is
    /// revalidated on first use.
    epoch: u64,
    /// Global notice count at this processor's last acquire.
    notices_seen: u64,
}

impl HlrcCtx {
    /// `region_bits`: bits of a page number below the region number.
    pub(super) fn new(region_bits: u32) -> HlrcCtx {
        HlrcCtx {
            pages: PageTable::new(region_bits),
            epoch: 1,
            notices_seen: 0,
        }
    }

    /// The page is mapped, checked in this epoch, and twinned if `write`.
    #[inline(always)]
    pub(super) fn hits(&self, page: u64, write: bool) -> bool {
        matches!(self.pages.get(page),
            Some(e) if e.checked_epoch == self.epoch && (e.writing || !write))
    }
}

impl Hlrc {
    pub(super) fn new(costs: HlrcCosts) -> Hlrc {
        Hlrc {
            costs,
            pages: Sharded::new(),
            notices: AtomicU64::new(0),
        }
    }

    /// The cycles of a full page fault at `clock`, serialized with
    /// concurrent faults on the same page at its home (handler occupancy).
    fn fault(&self, m: &Machine, page: u64, clock: u64) -> u64 {
        let mut pages = self.pages.lock(page);
        let meta = pages.entry(page).or_default();
        m.occupy(&mut meta.service_end, clock, self.costs.t_fault_occupancy)
            + self.costs.t_page_fault
    }

    pub(super) fn access(
        &self,
        m: &Machine,
        ctx: &mut SimCtx,
        addr: VAddr,
        bytes: u32,
        write: bool,
    ) {
        let c = ctx.local.lazy();
        for page in m.grains(addr, bytes) {
            let page_base = page << m.grain_shift;
            let entry = c.pages.get(page);
            let valid = matches!(entry, Some(e) if e.checked_epoch == c.epoch);
            if !valid {
                // Revalidate against the home's version (lazy invalidation).
                let gv = self.pages.lock(page).get(&page).map_or(0, |p| p.version);
                // Events are charged at the first accessed byte in the page.
                let rep = addr.max(page_base);
                let writing = match entry {
                    Some(e) if e.version == gv => {
                        // Unchanged since we fetched it: cheap check.
                        ctx.clock += self.costs.t_check;
                        e.writing
                    }
                    Some(e) => {
                        // Page was modified by someone else: software fault,
                        // serialized at the page's home (handler occupancy).
                        ctx.clock += self.fault(m, page, ctx.clock);
                        ctx.ledger.charge(rep).page_faults += 1;
                        e.writing
                    }
                    None => {
                        // Cold map-in. Locally homed fresh pages are cheap;
                        // anything else is a fault.
                        if gv == 0 && m.home_of(page_base) == ctx.proc {
                            ctx.clock += m.cost.t_local_miss;
                            ctx.ledger.charge(rep).local_misses += 1;
                        } else {
                            ctx.clock += self.fault(m, page, ctx.clock);
                            ctx.ledger.charge(rep).page_faults += 1;
                        }
                        false
                    }
                };
                c.pages.set(
                    page,
                    PageEntry {
                        version: gv,
                        checked_epoch: c.epoch,
                        writing,
                    },
                );
            } else {
                ctx.clock += m.cost.t_hit;
            }
            if write {
                let e = c.pages.entry_mut(page).expect("page just validated");
                if !e.writing {
                    e.writing = true;
                    c.pages.dirty.push(page);
                    ctx.clock += self.costs.t_twin;
                }
            }
        }
    }

    /// Release: flush diffs of dirty pages to their homes and bump the
    /// global page versions. The cost lands on the releaser *before* the
    /// lock's virtual release time is recorded — critical-section dilation.
    pub(super) fn release(&self, ctx: &mut SimCtx) {
        let c = ctx.local.lazy();
        let dirty = std::mem::take(&mut c.pages.dirty);
        let flushed = dirty.len() as u64;
        for page in dirty {
            ctx.clock += self.costs.t_diff;
            self.pages.lock(page).entry(page).or_default().version += 1;
            if let Some(e) = c.pages.entry_mut(page) {
                e.writing = false;
                // Our own flush defines the new version; account for it so we
                // do not fault on our own write.
                e.version += 1;
            }
        }
        if flushed > 0 {
            self.notices.fetch_add(flushed, Ordering::AcqRel);
        }
    }

    /// Acquire: open a new epoch (forces lazy revalidation of every mapped
    /// page) and process the write notices of every interval flushed
    /// system-wide since this processor's last acquire.
    pub(super) fn acquire(&self, ctx: &mut SimCtx) {
        let c = ctx.local.lazy();
        c.epoch += 1;
        let now = self.notices.load(Ordering::Acquire);
        let delta = now - c.notices_seen;
        c.notices_seen = now;
        ctx.clock += delta * self.costs.t_notice;
    }
}
