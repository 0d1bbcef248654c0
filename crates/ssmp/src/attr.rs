//! Attributed telemetry: per-(region × pipeline-stage) counters.
//!
//! Every simulated cache miss, page fault, invalidation and lock wait on a
//! [`crate::Machine`] is charged once, to the [`AttrCell`] keyed by the
//! [`Region`] the access hit and the pipeline stage the processor was
//! executing. The table is the machine's only record of those events: the
//! mirrored [`bh_core::env::CtxStats`] fields are its [`AttrTable::total`].
//!
//! Charging an event never touches the virtual clock, so where an event is
//! attributed cannot change any simulated timing.

use bh_core::env::{Phase, Region};

/// Number of pipeline-stage slots: the four phases plus one slot for
/// activity outside any phase (setup, inter-step glue).
pub const ATTR_SLOTS: usize = 5;

/// The slot charged while the processor is outside any [`Phase`].
pub const SETUP_SLOT: usize = ATTR_SLOTS - 1;

/// Stable lower-case name of a pipeline-stage slot.
pub fn slot_name(slot: usize) -> &'static str {
    match slot {
        0..=3 => Phase::ALL[slot].name(),
        _ => "setup",
    }
}

/// Counters for one (region × stage) cell. Summed over a table, the fields
/// that mirror a [`bh_core::env::CtxStats`] field are that field;
/// `invalidations` has no aggregate (invalidation messages that killed a
/// resident line in this processor's private cache — the coherence traffic
/// the aggregate stats fold into miss latencies).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttrCell {
    /// Misses served from local memory.
    pub local_misses: u64,
    /// Misses served remotely.
    pub remote_misses: u64,
    /// Software page faults.
    pub page_faults: u64,
    /// Invalidations received that dropped a resident line.
    pub invalidations: u64,
    /// Lock acquisitions on locks guarding this region.
    pub lock_acquires: u64,
    /// Cycles waited on locks guarding this region.
    pub lock_wait: u64,
}

impl AttrCell {
    /// Field-wise accumulation.
    pub fn accumulate(&mut self, o: &AttrCell) {
        self.local_misses += o.local_misses;
        self.remote_misses += o.remote_misses;
        self.page_faults += o.page_faults;
        self.invalidations += o.invalidations;
        self.lock_acquires += o.lock_acquires;
        self.lock_wait += o.lock_wait;
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == AttrCell::default()
    }
}

/// One processor's attribution table: an [`AttrCell`] per
/// (region, pipeline-stage slot) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrTable {
    cells: [AttrCell; Region::COUNT * ATTR_SLOTS],
}

impl AttrTable {
    pub fn new() -> AttrTable {
        AttrTable {
            cells: [AttrCell::default(); Region::COUNT * ATTR_SLOTS],
        }
    }

    #[inline]
    fn idx(region: Region, slot: usize) -> usize {
        debug_assert!(slot < ATTR_SLOTS);
        region.index() * ATTR_SLOTS + slot
    }

    #[inline]
    pub fn cell(&self, region: Region, slot: usize) -> &AttrCell {
        &self.cells[Self::idx(region, slot)]
    }

    #[inline]
    pub fn cell_mut(&mut self, region: Region, slot: usize) -> &mut AttrCell {
        &mut self.cells[Self::idx(region, slot)]
    }

    /// Sum over all stage slots for one region.
    pub fn region_total(&self, region: Region) -> AttrCell {
        let mut t = AttrCell::default();
        for slot in 0..ATTR_SLOTS {
            t.accumulate(self.cell(region, slot));
        }
        t
    }

    /// Grand total over every cell: the processor's aggregate counters for
    /// the mirrored fields.
    pub fn total(&self) -> AttrCell {
        let mut t = AttrCell::default();
        for c in self.cells.iter() {
            t.accumulate(c);
        }
        t
    }
}

impl Default for AttrTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Field-wise sum of tables, e.g. a run's processors.
impl<'a> std::iter::Sum<&'a AttrTable> for AttrTable {
    fn sum<I: Iterator<Item = &'a AttrTable>>(tables: I) -> AttrTable {
        let mut sum = AttrTable::new();
        for t in tables {
            for (c, tc) in sum.cells.iter_mut().zip(&t.cells) {
                c.accumulate(tc);
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_cover_phases_plus_setup() {
        assert_eq!(ATTR_SLOTS, Phase::ALL.len() + 1);
        for p in Phase::ALL {
            assert_eq!(slot_name(p.index()), p.name());
        }
        assert_eq!(slot_name(SETUP_SLOT), "setup");
    }

    #[test]
    fn table_indexing_and_totals() {
        let mut t = AttrTable::new();
        t.cell_mut(Region::TreeCells, 0).remote_misses = 3;
        t.cell_mut(Region::TreeCells, SETUP_SLOT).remote_misses = 2;
        t.cell_mut(Region::Bodies, 2).local_misses = 7;
        assert_eq!(t.region_total(Region::TreeCells).remote_misses, 5);
        assert_eq!(t.total().remote_misses, 5);
        assert_eq!(t.total().local_misses, 7);
        assert!(t.cell(Region::FlatTree, 1).is_zero());
        let sum: AttrTable = [&t, &t].into_iter().sum();
        assert_eq!(sum.total().remote_misses, 10);
    }
}
