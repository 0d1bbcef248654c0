//! MORTON: sort-based bulk tree construction.
//!
//! The five paper algorithms build the octree by inserting bodies one at a
//! time through linked cells; MORTON instead derives the tree from data
//! order. Each step it
//!
//! 1. computes a 63-bit Morton key per body (quantized against the exact
//!    global root cube from the bounds reduction),
//! 2. partially sorts the (key, body) pairs by the top [`SORT_BITS`] key
//!    bits with a cooperative LSD radix sort over the worker pool, and
//! 3. emits the [`crate::tree::flat::FlatTree`] **directly** from the
//!    sorted key array — leaves are maximal key ranges of at most `k`
//!    bodies, internal cells are ranges that still split, and centers of
//!    mass are computed bottom-up during emission.
//!
//! There is no linked [`crate::tree::SharedTree`] build, no flatten pass,
//! and **no locks or atomics anywhere**: every shared write in the sort and
//! in the emission has a single statically-determined owner (per-processor
//! element chunks, per-processor digit slices, per-entry output segments),
//! and phases are separated by barriers. Race freedom is certified by
//! `tests/race_freedom.rs` and the schedule matrix.
//!
//! # The radix sort
//!
//! Three stable passes of 8-bit digits order the pairs by the top 24 key
//! bits — exact tree structure down to depth [`MAX_PLAN_SPLIT_DEPTH`]` + 1`,
//! which is all the *shared* phases ever consume; deeper structure is
//! resolved exactly in private memory during emission (below). Sorting
//! only the bits the cooperative phases need is the algorithm's key
//! economy: a full 63-bit sort would nearly triple the sort's memory
//! traffic to buy resolution that per-range private sorts provide almost
//! for free. Per pass:
//!
//! * **count** — each processor histograms the digit over its contiguous
//!   element chunk privately and publishes the 256 counts into its own
//!   (locally homed) histogram row;
//! * **rank** — the digit space is split across processors; the owner of
//!   digit `d` computes the exclusive per-processor rank
//!   `rank[q][d] = Σ_{q' < q} hist[q'][d]` and the digit total;
//! * **scatter** — every processor privately prefix-sums the totals into
//!   global digit bases (identical on all processors) and copies its chunk
//!   to `base[d] + rank[proc][d] + seen`, a destination range disjoint
//!   from every other processor's by construction.
//!
//! The initial gather writes pairs in ascending body order, and every pass
//! is stable, so the result is ordered by (top sort bits, body id) — a
//! deterministic, processor-count-independent order.
//!
//! # Sort-then-emit
//!
//! The sorted key array determines the tree uniquely: the range `[0, n)`
//! is the root; a range splits into the eight sub-ranges sharing the next
//! 3-bit digit while it holds more than `k` bodies, bottoming out in a
//! leaf (or, past the 21-level key resolution, an oversized leaf of
//! key-identical bodies). It is the tree the linked builders produce,
//! described as leaf ranges of a sorted array, so emission follows the same
//! top-of-tree [`Plan`] as the flatten pass ([`crate::tree::plan`]). This
//! module is the plan's *sorted-key* source: a node is a key range, its
//! children are found by binary search over the shared sorted keys, and a
//! range may split only down to [`MAX_PLAN_SPLIT_DEPTH`], the sorted
//! resolution. Each owner then copies its ranges' (key, id) pairs into
//! private memory **once**, finishes the sort exactly on the full 63-bit
//! keys, derives and counts the subtree privately, publishes per-entry
//! totals, and — after the plan's prefix sum of segment bases — emits its
//! subtrees into disjoint output segments; the root always lands at flat
//! index 0. Within a leaf, bodies are stored in ascending id order, which
//! makes the emitted tree — and therefore the forces — bitwise identical
//! to the sequential reference builder at every processor count.

use crate::env::{Env, Placement, Region};
use crate::math::morton::{key_in_cube, MORTON_BITS};
use crate::math::{Cube, Vec3};
use crate::shared::SharedVec;
use crate::tree::flat::{FlatNode, FlatTree, LEAF_TAG};
use crate::tree::plan::{Cursors, Plan, PlanSource, SpineKid, PLAN_CAP};
use crate::world::World;

/// Radix of one sort pass.
pub const RADIX: usize = 256;

/// Number of sort passes. Odd, so the sorted pairs land in buffer 1 (see
/// [`MortonScratch::sorted`]).
const PASSES: u32 = 3;

/// Number of top key bits the cooperative sort orders exactly.
pub const SORT_BITS: u32 = 8 * PASSES;

/// Lowest key bit the sort orders (bits `[SORT_LOW_BIT, 64)` are exact).
pub const SORT_LOW_BIT: u32 = 64 - SORT_BITS;

/// Deepest range depth the shared plan may split: splitting at depth `d`
/// reads key bits `[3*(20-d), 3*(21-d))`, which lie within the sorted bits
/// iff `d <= MAX_PLAN_SPLIT_DEPTH`. Emission owners resolve deeper
/// structure privately on the full keys.
const MAX_PLAN_SPLIT_DEPTH: u32 = (3 * (MORTON_BITS - 1) - SORT_LOW_BIT) / 3;

/// Rough instruction cost of computing one Morton key (3 quantizations +
/// 3 bit spreads).
const KEY_CYCLES: u64 = 40;

/// Rough per-element instruction cost of one counting or scatter pass.
const PASS_CYCLES: u64 = 4;

/// Rough instruction cost of one binary-search probe during range
/// splitting.
const PROBE_CYCLES: u64 = 4;

/// The contiguous element chunk of processor `proc` out of `p` over `n`
/// items (also used to slice the digit space).
#[inline]
fn chunk(n: usize, p: usize, proc: usize) -> (usize, usize) {
    (n * proc / p, n * (proc + 1) / p)
}

/// Instruction charge for privately comparison-sorting `m` pairs (the cost
/// model the Morton zone reorder uses).
#[inline]
fn sort_cost(m: usize) -> u64 {
    let m = m as u64;
    if m == 0 {
        return 0;
    }
    m * (24 + 4 * (64 - m.leading_zeros() as u64))
}

/// Shared workspace of the MORTON builder: sort buffers, histogram /
/// rank arrays, and the emission plan's publication arrays. Allocated once
/// per run (untimed setup); every slot is overwritten before it is read
/// within each step, so no per-step reset is needed.
pub struct MortonScratch {
    /// Ping-pong (key, id) buffers; pass `t` reads `t % 2`, writes the
    /// other. With an odd pass count the sorted result is in buffer 1.
    keys: [SharedVec<u64>; 2],
    ids: [SharedVec<u32>; 2],
    /// Per-processor digit histogram rows, homed locally.
    hist: Vec<SharedVec<u32>>,
    /// Exclusive per-(processor, digit) scatter ranks (`proc * RADIX + d`).
    rank: SharedVec<u32>,
    /// Per-digit totals of the current pass.
    totals: SharedVec<u32>,
    /// Published per-entry (node, kid-slot) counts of the emission plan.
    ent_counts: SharedVec<u32>,
    /// Published per-entry (mass, com.x, com.y, com.z) aggregates, read by
    /// processor 0 to summarize the spine.
    ent_mass: SharedVec<f64>,
    /// Per-processor chunk cost sums for the cost-cut partition.
    chunk_cost: SharedVec<u64>,
}

impl MortonScratch {
    /// Allocate the workspace for `n` bodies (untimed setup).
    pub fn new<E: Env>(env: &E, n: usize) -> MortonScratch {
        let p = env.num_procs();
        let n = n.max(1);
        let g = Placement::Global;
        let s = MortonScratch {
            keys: [SharedVec::new(env, n, 0, g), SharedVec::new(env, n, 0, g)],
            ids: [SharedVec::new(env, n, 0, g), SharedVec::new(env, n, 0, g)],
            hist: (0..p)
                .map(|q| SharedVec::new(env, RADIX, 0, Placement::Local(q)))
                .collect(),
            rank: SharedVec::new(env, p * RADIX, 0, g),
            totals: SharedVec::new(env, RADIX, 0, g),
            ent_counts: SharedVec::new(env, 2 * PLAN_CAP, 0, g),
            ent_mass: SharedVec::new(env, 4 * PLAN_CAP, 0.0, g),
            chunk_cost: SharedVec::new(env, p, 0, g),
        };
        for v in &s.keys {
            v.tag(env, Region::SortScratch);
        }
        for v in &s.ids {
            v.tag(env, Region::SortScratch);
        }
        for v in &s.hist {
            v.tag(env, Region::SortScratch);
        }
        s.rank.tag(env, Region::SortScratch);
        s.totals.tag(env, Region::SortScratch);
        s.ent_counts.tag(env, Region::SortScratch);
        s.ent_mass.tag(env, Region::SortScratch);
        s.chunk_cost.tag(env, Region::SortScratch);
        s
    }

    /// The (keys, ids) buffers holding the sorted pairs after
    /// [`sort_keys`].
    fn sorted(&self) -> (&SharedVec<u64>, &SharedVec<u32>) {
        let b = (PASSES % 2) as usize;
        (&self.keys[b], &self.ids[b])
    }

    /// Reset the workspace to its freshly-allocated bytes (untimed).
    /// `SimEngine` does not call this between jobs: like
    /// [`FlatTree::reset`], each step overwrites every slot it reads. The
    /// benchmark's staged mirror of the engine does.
    pub fn reset(&self) {
        self.fill(0, 0, 0.0);
    }

    /// Overwrite every slot with garbage, so a test can show a step reads
    /// nothing here it did not write.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        self.fill(u64::MAX, u32::MAX, f64::NAN);
    }

    fn fill(&self, wide: u64, word: u32, real: f64) {
        for v in [&self.keys[0], &self.keys[1], &self.chunk_cost] {
            v.fill(wide);
        }
        let words = [
            &self.ids[0],
            &self.ids[1],
            &self.rank,
            &self.totals,
            &self.ent_counts,
        ];
        for v in words.into_iter().chain(&self.hist) {
            v.fill(word);
        }
        self.ent_mass.fill(real);
    }
}

// ---------------------------------------------------------------------------
// The parallel LSD radix sort
// ---------------------------------------------------------------------------

/// Sort the (Morton key, body id) pairs of all bodies by the top
/// [`SORT_BITS`] key bits (ties in ascending id order) into the scratch's
/// buffer 1. Cooperative: every processor must call this; internally
/// barriers `1 + 3 * PASSES` times.
pub fn sort_keys<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    world: &World,
    scratch: &MortonScratch,
    cube: &Cube,
    proc: usize,
) {
    let n = world.n;
    let p = env.num_procs();
    let (lo, hi) = chunk(n, p, proc);

    // Gather: key each body of the chunk, in ascending id order (the
    // stable passes below then keep top-bit ties in id order).
    for i in lo..hi {
        let pos = world.pos.load(env, ctx, i);
        scratch.keys[0].store(env, ctx, i, key_in_cube(pos, cube));
        scratch.ids[0].store(env, ctx, i, i as u32);
    }
    env.compute(ctx, (hi - lo) as u64 * KEY_CYCLES);
    env.barrier(ctx);

    for pass in 0..PASSES {
        let src = (pass % 2) as usize;
        let dst = 1 - src;
        let shift = SORT_LOW_BIT + 8 * pass;

        // Count: private histogram over the chunk, published once into
        // this processor's own row.
        let mut h = [0u32; RADIX];
        for i in lo..hi {
            let k = scratch.keys[src].load(env, ctx, i);
            h[((k >> shift) & 0xff) as usize] += 1;
        }
        for (d, &c) in h.iter().enumerate() {
            scratch.hist[proc].store(env, ctx, d, c);
        }
        env.compute(ctx, (hi - lo) as u64 * PASS_CYCLES);
        env.barrier(ctx);

        // Rank: the owner of each digit computes the exclusive
        // per-processor ranks and the digit total.
        let (dlo, dhi) = chunk(RADIX, p, proc);
        for d in dlo..dhi {
            let mut running = 0u32;
            for (q, row) in scratch.hist.iter().enumerate() {
                scratch.rank.store(env, ctx, q * RADIX + d, running);
                running += row.load(env, ctx, d);
            }
            scratch.totals.store(env, ctx, d, running);
        }
        env.compute(ctx, ((dhi - dlo) * p) as u64 * 2);
        env.barrier(ctx);

        // Scatter: identical private prefix sum of the totals gives the
        // global digit bases; each processor's destinations are the
        // disjoint range [base[d] + rank[proc][d], ...) per digit.
        let mut cur = [0u32; RADIX];
        let mut acc = 0u32;
        for (d, slot) in cur.iter_mut().enumerate() {
            *slot = acc + scratch.rank.load(env, ctx, proc * RADIX + d);
            acc += scratch.totals.load(env, ctx, d);
        }
        for i in lo..hi {
            let k = scratch.keys[src].load(env, ctx, i);
            let id = scratch.ids[src].load(env, ctx, i);
            let d = ((k >> shift) & 0xff) as usize;
            let dest = cur[d] as usize;
            cur[d] += 1;
            scratch.keys[dst].store(env, ctx, dest, k);
            scratch.ids[dst].store(env, ctx, dest, id);
        }
        env.compute(ctx, (hi - lo) as u64 * PASS_CYCLES + RADIX as u64);
        env.barrier(ctx);
    }
}

// ---------------------------------------------------------------------------
// Sort-then-emit: derive the flat tree from the sorted key array
// ---------------------------------------------------------------------------

/// One range of the sorted key array: a subtree root at `depth` covering
/// sorted positions `[lo, hi)` inside `cube`.
#[derive(Debug, Clone, Copy)]
pub struct Range {
    lo: u32,
    hi: u32,
    depth: u32,
    cube: Cube,
}

impl Range {
    #[inline]
    fn count(&self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// The emission plan: the top-of-tree [`Plan`] over sorted-key ranges;
/// identical on every processor (all inputs are the post-barrier sorted
/// keys).
pub type MortonPlan = Plan<Range>;

/// First sorted index in `[lo, hi)` whose key is `>= bound` (binary search
/// over timed loads). Only valid for bounds whose distinguishing bits are
/// within the sorted top bits.
fn lower_bound<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    keys: &SharedVec<u64>,
    mut lo: usize,
    mut hi: usize,
    bound: u64,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        env.compute(ctx, PROBE_CYCLES);
        if keys.load(env, ctx, mid) < bound {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The eight octant sub-ranges of `r`, in octant order, empty ones
/// skipped. `r.depth` must be at most [`MAX_PLAN_SPLIT_DEPTH`] — the
/// partial sort resolves no deeper.
fn split<E: Env>(env: &E, ctx: &mut E::Ctx, keys: &SharedVec<u64>, r: &Range) -> Vec<Range> {
    debug_assert!(r.depth <= MAX_PLAN_SPLIT_DEPTH);
    let shift = 3 * (MORTON_BITS - 1 - r.depth);
    // The common key prefix of the range, low (unconsumed) bits cleared.
    let first = keys.load(env, ctx, r.lo as usize);
    let prefix = first & !(((1u64 << 3) << shift) - 1);
    let mut out = Vec::with_capacity(8);
    let mut start = r.lo as usize;
    for oct in 0..8usize {
        let end = if oct == 7 {
            r.hi as usize
        } else {
            let bound = prefix + ((oct as u64 + 1) << shift);
            lower_bound(env, ctx, keys, start, r.hi as usize, bound)
        };
        if end > start {
            out.push(Range {
                lo: start as u32,
                hi: end as u32,
                depth: r.depth + 1,
                cube: r.cube.octant(oct),
            });
        }
        start = end;
    }
    out
}

/// The shared sorted key array as a [`PlanSource`].
struct SortedKeys<'a> {
    keys: &'a SharedVec<u64>,
    n: usize,
    cube: Cube,
}

impl PlanSource for SortedKeys<'_> {
    type Node = Range;
    type Kids = Vec<Range>;

    fn root<E: Env>(&self, _env: &E, _ctx: &mut E::Ctx) -> (Range, u32) {
        let root = Range {
            lo: 0,
            hi: self.n as u32,
            depth: 0,
            cube: self.cube,
        };
        (root, self.n as u32)
    }

    fn children<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: &Range) -> Vec<Range> {
        split(env, ctx, self.keys, r)
    }

    /// Every sub-range is nonempty; it may split while the sorted bits
    /// resolve its children.
    fn classify<E: Env>(&self, _env: &E, _ctx: &mut E::Ctx, r: &Range) -> Option<(u32, bool)> {
        Some((r.hi - r.lo, r.depth <= MAX_PLAN_SPLIT_DEPTH))
    }
}

/// Phase 1 of the emission: compute the deterministic plan. Identical on
/// every processor.
pub fn plan<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    scratch: &MortonScratch,
    n: usize,
    k: usize,
    cube: Cube,
) -> MortonPlan {
    let keys = scratch.sorted().0;
    Plan::build(env, ctx, &SortedKeys { keys, n, cube }, k)
}

// ---------------------------------------------------------------------------
// Private subtree derivation (full key resolution)
// ---------------------------------------------------------------------------

/// One frontier entry's private working state: its exactly-sorted
/// (key, id) pairs, copied out of the shared buffers once by the owner and
/// reused from the counting phase through the emission phase.
struct OwnedEntry {
    idx: usize,
    pairs: Vec<(u64, u32)>,
}

/// Per-processor private emission state carried from [`publish_counts`]
/// to [`fill`].
pub struct OwnedEntries {
    entries: Vec<OwnedEntry>,
}

/// The nonempty octant sub-slices of a privately-held, exactly-sorted
/// pair slice, in octant order.
fn child_slices(pairs: &[(u64, u32)], depth: u32) -> Vec<(usize, std::ops::Range<usize>)> {
    let shift = 3 * (MORTON_BITS - 1 - depth);
    let prefix = pairs[0].0 & !(((1u64 << 3) << shift) - 1);
    let mut out = Vec::with_capacity(8);
    let mut start = 0usize;
    for oct in 0..8usize {
        let end = if oct == 7 {
            pairs.len()
        } else {
            let bound = prefix + ((oct as u64 + 1) << shift);
            start + pairs[start..].partition_point(|&(key, _)| key < bound)
        };
        if end > start {
            out.push((oct, start..end));
        }
        start = end;
    }
    out
}

/// Whether a pair slice derives to a leaf: at most `k` bodies, or past the
/// key resolution (key-identical bodies cannot be split — the leaf is
/// emitted oversized; the CSR body array has no per-leaf cap).
#[inline]
fn is_leaf_slice(pairs: &[(u64, u32)], depth: u32, k: usize) -> bool {
    pairs.len() <= k || depth >= MORTON_BITS
}

/// Count (nodes, kid slots) of the subtree a pair slice derives to
/// (private memory; the caller charges the traversal as compute).
fn count_pairs(pairs: &[(u64, u32)], depth: u32, k: usize) -> (u32, u32) {
    if is_leaf_slice(pairs, depth, k) {
        return (1, 0);
    }
    let (mut nn, mut nk) = (1u32, 0u32);
    for (_, range) in child_slices(pairs, depth) {
        let (a, b) = count_pairs(&pairs[range], depth + 1, k);
        nn += a;
        nk += b + 1;
    }
    (nn, nk)
}

/// Phase 2: each owner copies its claimed ranges' pairs into private
/// memory (the only shared reads of the emission), finishes the sort on
/// the full 63-bit keys, counts the derived subtrees, and publishes the
/// per-entry totals. The caller barriers afterwards; the returned private
/// state feeds [`fill`].
pub fn publish_counts<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    scratch: &MortonScratch,
    plan: &MortonPlan,
    k: usize,
    proc: usize,
) -> OwnedEntries {
    let (keys, ids) = scratch.sorted();
    let mut entries = Vec::new();
    for (i, r) in plan.owned(proc) {
        let mut pairs = Vec::with_capacity(r.count());
        for j in r.lo..r.hi {
            let j = j as usize;
            pairs.push((keys.load(env, ctx, j), ids.load(env, ctx, j)));
        }
        // The cooperative sort ordered the top SORT_BITS only; resolve the
        // full (key, id) order privately. Already nearly sorted, but the
        // charge model assumes nothing.
        pairs.sort_unstable();
        env.compute(ctx, sort_cost(pairs.len()));
        let (nn, nk) = count_pairs(&pairs, r.depth, k);
        env.compute(ctx, 2 * pairs.len() as u64);
        scratch.ent_counts.store(env, ctx, 2 * i, nn);
        scratch.ent_counts.store(env, ctx, 2 * i + 1, nk);
        entries.push(OwnedEntry { idx: i, pairs });
    }
    OwnedEntries { entries }
}

/// Emit one privately-derived subtree in pre-order, children in octant
/// order, centers of mass computed bottom-up with exactly the summarize
/// arithmetic of the linked-tree CoM pass. Returns (flat index, mass,
/// com).
#[allow(clippy::too_many_arguments)]
fn emit_pairs<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    flat: &FlatTree,
    world: &World,
    pairs: &[(u64, u32)],
    depth: u32,
    cube: Cube,
    k: usize,
    cur: &mut Cursors,
) -> (u32, f64, Vec3) {
    let my = cur.node;
    cur.node += 1;
    let mut mass = 0.0;
    let mut weighted = Vec3::ZERO;
    if is_leaf_slice(pairs, depth, k) {
        // Leaf: bodies in ascending id order — the order the sequential
        // reference builder accumulates them in, making leaf summaries
        // (and forces) bitwise reproducible at any processor count.
        let first = cur.body;
        let mut bs: Vec<u32> = pairs.iter().map(|&(_, id)| id).collect();
        bs.sort_unstable();
        for &b in &bs {
            flat.put_body(env, ctx, cur.body as usize, b);
            cur.body += 1;
            let m = world.mass.load(env, ctx, b as usize);
            mass += m;
            weighted += world.pos.load(env, ctx, b as usize) * m;
        }
        env.compute(ctx, 8 * pairs.len() as u64);
        let com = if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        };
        flat.put_node(
            env,
            ctx,
            my as usize,
            FlatNode {
                com,
                mass,
                half: cube.half,
                first,
                tag: LEAF_TAG | pairs.len() as u32,
            },
        );
        (my, mass, com)
    } else {
        let children = child_slices(pairs, depth);
        let nkids = children.len() as u32;
        let first = cur.kid;
        cur.kid += nkids;
        for (off, (oct, range)) in children.into_iter().enumerate() {
            let (idx, m, com) = emit_pairs(
                env,
                ctx,
                flat,
                world,
                &pairs[range],
                depth + 1,
                cube.octant(oct),
                k,
                cur,
            );
            flat.put_kid(env, ctx, first as usize + off, idx);
            mass += m;
            weighted += com * m;
        }
        env.compute(ctx, 40);
        let com = if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        };
        flat.put_node(
            env,
            ctx,
            my as usize,
            FlatNode {
                com,
                mass,
                half: cube.half,
                first,
                tag: nkids,
            },
        );
        (my, mass, com)
    }
}

/// Phase 3: prefix-sum the published counts into disjoint segments and
/// emit the owned subtrees from their private pair copies, publishing each
/// entry's (mass, com) aggregate. The root always lands at flat index 0.
/// Returns the total node count. A barrier must separate this from
/// [`fill_spine`].
#[allow(clippy::too_many_arguments)]
pub fn fill<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    flat: &FlatTree,
    world: &World,
    scratch: &MortonScratch,
    plan: &MortonPlan,
    owned: &OwnedEntries,
    k: usize,
) -> u32 {
    let bases = segment_bases(env, ctx, flat, scratch, plan);
    for e in &owned.entries {
        let i = e.idx;
        let r = &plan.subs[i];
        let mut cur = bases[i];
        let (at, mass, com) = emit_pairs(
            env, ctx, flat, world, &e.pairs, r.depth, r.cube, k, &mut cur,
        );
        debug_assert_eq!(at, bases[i].node);
        scratch.ent_mass.store(env, ctx, 4 * i, mass);
        scratch.ent_mass.store(env, ctx, 4 * i + 1, com.x);
        scratch.ent_mass.store(env, ctx, 4 * i + 2, com.y);
        scratch.ent_mass.store(env, ctx, 4 * i + 3, com.z);
    }
    bases[plan.subs.len()].node
}

/// The plan's segment bases from the published per-entry counts (an
/// entry's body count is its range length).
pub(crate) fn segment_bases<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    flat: &FlatTree,
    scratch: &MortonScratch,
    plan: &MortonPlan,
) -> Vec<Cursors> {
    plan.segment_bases(flat, |i| {
        let r = &plan.subs[i];
        (
            scratch.ent_counts.load(env, ctx, 2 * i),
            scratch.ent_counts.load(env, ctx, 2 * i + 1),
            r.hi - r.lo,
        )
    })
}

/// Phase 4 (processor 0, after the post-`fill` barrier): emit the spine
/// cells, combining the published entry aggregates and already-summarized
/// spine children bottom-up (reverse pre-order) with the summarize-cell
/// arithmetic.
pub fn fill_spine<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    flat: &FlatTree,
    scratch: &MortonScratch,
    plan: &MortonPlan,
) {
    if plan.spine.is_empty() {
        return;
    }
    let bases = segment_bases(env, ctx, flat, scratch, plan);
    // Kid-slot offsets of each spine cell, in pre-order.
    let mut firsts = Vec::with_capacity(plan.spine.len());
    let mut kid_cur = 0u32;
    for (_, kids) in &plan.spine {
        firsts.push(kid_cur);
        kid_cur += kids.len() as u32;
    }
    // Reverse pre-order: every spine child (index > parent) is summarized
    // before its parent combines it.
    let mut agg: Vec<(f64, Vec3)> = vec![(0.0, Vec3::ZERO); plan.spine.len()];
    for j in (0..plan.spine.len()).rev() {
        let (r, kids) = &plan.spine[j];
        let mut mass = 0.0;
        let mut weighted = Vec3::ZERO;
        for (off, &kid) in kids.iter().enumerate() {
            let (m, com) = match kid {
                SpineKid::Spine(j2) => agg[j2 as usize],
                SpineKid::Sub(i) => {
                    let i = i as usize;
                    let m = scratch.ent_mass.load(env, ctx, 4 * i);
                    let com = Vec3::new(
                        scratch.ent_mass.load(env, ctx, 4 * i + 1),
                        scratch.ent_mass.load(env, ctx, 4 * i + 2),
                        scratch.ent_mass.load(env, ctx, 4 * i + 3),
                    );
                    (m, com)
                }
            };
            let idx = kid.flat_index(&bases);
            flat.put_kid(env, ctx, (firsts[j] + off as u32) as usize, idx);
            mass += m;
            weighted += com * m;
        }
        env.compute(ctx, 40);
        let com = if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        };
        agg[j] = (mass, com);
        flat.put_node(
            env,
            ctx,
            j,
            FlatNode {
                com,
                mass,
                half: r.cube.half,
                first: firsts[j],
                tag: kids.len() as u32,
            },
        );
    }
}

// ---------------------------------------------------------------------------
// Cost-cut partition over the emitted body order
// ---------------------------------------------------------------------------

/// The MORTON partition pass: the flat tree's CSR body array *is* the
/// tree-traversal body order, so partitioning is a cost-weighted cut of
/// that order — the costzones idea without the tree walk. Each processor
/// copies its chunk of the order into `world.order`, publishes its chunk
/// cost sum, and after one barrier writes the `zone_start` entries whose
/// cost threshold is crossed inside its chunk (a unique writer per entry,
/// determined by the shared chunk-cost prefix alone). Caller barriers
/// afterwards.
pub fn partition<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    flat: &FlatTree,
    world: &World,
    scratch: &MortonScratch,
    proc: usize,
) {
    let n = world.n;
    let p = env.num_procs();
    let (lo, hi) = chunk(n, p, proc);

    // Copy the chunk of the DFS body order out of the snapshot, caching
    // the per-body costs privately for the second scan.
    let mut costs = Vec::with_capacity(hi - lo);
    let mut sum = 0u64;
    for i in lo..hi {
        let b = flat.bodies.load(env, ctx, i);
        world.order.store(env, ctx, i, b);
        let c = world.cost.load(env, ctx, b as usize).max(1) as u64;
        costs.push(c);
        sum += c;
    }
    scratch.chunk_cost.store(env, ctx, proc, sum);
    env.compute(ctx, (hi - lo) as u64 * 2);
    env.barrier(ctx);

    // Identical private prefix of the chunk sums.
    let mut cbase = 0u64;
    let mut total = 0u64;
    for q in 0..p {
        let s = scratch.chunk_cost.load(env, ctx, q);
        if q < proc {
            cbase += s;
        }
        total += s;
    }
    let total = total.max(1);
    let zone_of = |prefix: u64| -> u64 {
        ((prefix as u128 * p as u128) / total as u128).min(p as u128 - 1) as u64
    };

    // A zone starts at the first body whose inclusive cost prefix reaches
    // its threshold; that body is in this chunk exactly when the zone of
    // the chunk-entry prefix is below it and the zone of the chunk-exit
    // prefix is not — so each `zone_start` entry has a unique writer.
    let mut prefix = cbase;
    let mut zprev = zone_of(prefix);
    for (off, &c) in costs.iter().enumerate() {
        prefix += c;
        let z = zone_of(prefix);
        for q in (zprev + 1)..=z {
            world
                .zone_start
                .store(env, ctx, q as usize, (lo + off) as u32);
        }
        zprev = z;
    }
    env.compute(ctx, (hi - lo) as u64 * 2);
    if proc == 0 {
        world.zone_start.store(env, ctx, 0, 0);
        world.zone_start.store(env, ctx, p, n as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::env::NativeEnv;
    use crate::harness::spmd;
    use crate::model::Model;

    fn sorted_pairs(env: &NativeEnv, bodies: &[Body]) -> Vec<(u64, u32)> {
        let world = World::new(env, bodies);
        let scratch = MortonScratch::new(env, bodies.len());
        let cube = {
            let bbox = crate::math::Aabb::from_points(bodies.iter().map(|b| b.pos));
            Cube::enclosing(&bbox)
        };
        spmd(env, |proc, ctx| {
            sort_keys(env, ctx, &world, &scratch, &cube, proc);
        });
        let (keys, ids) = scratch.sorted();
        (0..bodies.len())
            .map(|i| (keys.peek(i), ids.peek(i)))
            .collect()
    }

    #[test]
    fn radix_sort_orders_top_bits_at_any_proc_count() {
        let bodies = Model::Plummer.generate(257, 42);
        // The cooperative sort guarantees (top SORT_BITS, id) order.
        let reference: Vec<(u64, u32)> = {
            let bbox = crate::math::Aabb::from_points(bodies.iter().map(|b| b.pos));
            let cube = Cube::enclosing(&bbox);
            let mut v: Vec<(u64, u32)> = bodies
                .iter()
                .enumerate()
                .map(|(i, b)| (key_in_cube(b.pos, &cube), i as u32))
                .collect();
            v.sort_unstable_by_key(|&(key, id)| (key >> SORT_LOW_BIT, id));
            v
        };
        for procs in [1, 2, 3, 8] {
            let env = NativeEnv::new(procs);
            assert_eq!(
                sorted_pairs(&env, &bodies),
                reference,
                "radix sort diverged at {procs} procs"
            );
        }
    }

    #[test]
    fn split_partitions_a_range_exactly() {
        let env = NativeEnv::new(1);
        let bodies = Model::Plummer.generate(100, 7);
        let world = World::new(&env, &bodies);
        let scratch = MortonScratch::new(&env, bodies.len());
        let bbox = crate::math::Aabb::from_points(bodies.iter().map(|b| b.pos));
        let cube = Cube::enclosing(&bbox);
        let mut ctx = env.make_ctx(0);
        spmd(&env, |proc, ctx| {
            sort_keys(&env, ctx, &world, &scratch, &cube, proc);
        });
        let root = Range {
            lo: 0,
            hi: bodies.len() as u32,
            depth: 0,
            cube,
        };
        let (keys, _) = scratch.sorted();
        let parts = split(&env, &mut ctx, keys, &root);
        // The sub-ranges tile [0, n) in order; each holds exactly the keys
        // of one top digit, in ascending digit order, and its cube is that
        // octant of the root's.
        let mut at = 0u32;
        let mut octs = Vec::new();
        for r in &parts {
            assert_eq!(r.lo, at);
            let oct = (keys.peek(r.lo as usize) >> (3 * (MORTON_BITS - 1))) as usize;
            for i in r.lo..r.hi {
                let k = keys.peek(i as usize);
                assert_eq!((k >> (3 * (MORTON_BITS - 1))) as usize, oct);
            }
            assert_eq!(r.cube, cube.octant(oct));
            octs.push(oct);
            at = r.hi;
        }
        assert!(octs.windows(2).all(|w| w[0] < w[1]), "{octs:?}");
        assert_eq!(at, bodies.len() as u32);
    }

    #[test]
    fn private_derivation_tiles_and_counts_consistently() {
        // child_slices over an exactly-sorted pair list tiles the slice in
        // octant order at every depth down to a leaf, and count_pairs
        // agrees with an independent traversal.
        let bodies = Model::UniformSphere.generate(200, 3);
        let bbox = crate::math::Aabb::from_points(bodies.iter().map(|b| b.pos));
        let cube = Cube::enclosing(&bbox);
        let mut pairs: Vec<(u64, u32)> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (key_in_cube(b.pos, &cube), i as u32))
            .collect();
        pairs.sort_unstable();
        fn check(pairs: &[(u64, u32)], depth: u32, k: usize) -> (u32, u32) {
            if is_leaf_slice(pairs, depth, k) {
                return (1, 0);
            }
            let slices = child_slices(pairs, depth);
            let mut covered = 0;
            let (mut nn, mut nk) = (1, 0);
            for (_, range) in &slices {
                assert_eq!(range.start, covered, "child slices must tile");
                covered = range.end;
                let (a, b) = check(&pairs[range.clone()], depth + 1, k);
                nn += a;
                nk += b + 1;
            }
            assert_eq!(covered, pairs.len());
            (nn, nk)
        }
        assert_eq!(check(&pairs, 0, 8), count_pairs(&pairs, 0, 8));
    }
}
