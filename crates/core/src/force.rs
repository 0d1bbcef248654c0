//! The Barnes-Hut force-computation phase.
//!
//! Each body traverses the summarized octree from the root: a cell far
//! enough away (opening criterion `side/dist < θ`) is approximated by its
//! center of mass; otherwise its children are visited recursively. Gravity
//! is Plummer-softened. The per-body interaction count is recorded as the
//! body's cost for the next step's costzones partitioning — force
//! computation is >97% of sequential time, which is exactly why the paper's
//! tree-building bottleneck on commodity platforms is so surprising.
//!
//! One kernel implements the phase, [`force_phase_grouped`] — the batched
//! traversal/evaluation split over the flat snapshot: one tree walk per
//! group of `group_size` consecutive bodies in the Morton-sorted zone order
//! emits a shared interaction list into per-processor [`ForceScratch`],
//! then a branch-free structure-of-arrays loop applies the list to every
//! member. Its references are independent of it: [`seq_accel`] (the same
//! criterion, recursively, over a [`SeqTree`]) and [`direct_accel`]
//! (O(n²) summation).

use crate::env::{Env, Placement, Region};
use crate::math::Vec3;
use crate::shared::SharedVec;
use crate::tree::flat::FlatTree;
use crate::tree::seq::{SeqNode, SeqTree};
use crate::world::World;

/// Physics and accuracy parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForceParams {
    /// Barnes-Hut opening angle θ; smaller is more accurate and more work.
    pub theta: f64,
    /// Plummer softening length ε.
    pub eps: f64,
    /// Gravitational constant G.
    pub gravity: f64,
}

impl Default for ForceParams {
    fn default() -> Self {
        ForceParams {
            theta: 1.0,
            eps: 0.05,
            gravity: 1.0,
        }
    }
}

/// Cycle cost charged per body-body or body-cell interaction.
const INTERACT_CYCLES: u64 = 45;
/// Cycle cost charged per visited (opened) cell.
const VISIT_CYCLES: u64 = 10;

/// Pairwise softened-gravity acceleration on a body at `pos` from mass `m`
/// at `src`, one divide per pair — the arithmetic of [`direct_accel`].
#[inline]
pub fn pair_accel(pos: Vec3, src: Vec3, m: f64, params: &ForceParams) -> Vec3 {
    let d = src - pos;
    let r2 = d.norm_sq() + params.eps * params.eps;
    let r = r2.sqrt();
    d * (params.gravity * m / (r2 * r))
}

/// Floor on the softened `r²` of the list evaluation. A member's own entry
/// has `d = 0`, so at `eps = 0` its `r²` is 0; floored, its `r³` is
/// 1e-150 and the product of two `r³` at least 1e-300, all normal numbers,
/// so the shared divide stays finite and `0 · scale` contributes exactly
/// zero. (`f64::MIN_POSITIVE` is too small: its `r²·√r²` underflows to 0.)
/// Every real pair at `eps > 0` has `r² ≥ ε²`, far above the floor.
const R2_FLOOR: f64 = 1e-100;

/// `r³ = r²·√r²` of the offset `d`, with `r² = |d|² + ε²` floored at
/// [`R2_FLOOR`].
#[inline(always)]
fn cube_dist(d: Vec3, eps2: f64) -> f64 {
    let r2 = (d.norm_sq() + eps2).max(R2_FLOOR);
    r2 * r2.sqrt()
}

/// `(1/c0, 1/c1)` from one divide: `q = 1/(c0·c1)`, then `1/c0 = q·c1` and
/// `1/c1 = q·c0`. Plain `*`, no `mul_add`, so the bits do not depend on
/// FMA hardware.
#[inline(always)]
fn recip_pair(c0: f64, c1: f64) -> (f64, f64) {
    let q = 1.0 / (c0 * c1);
    (q * c1, q * c0)
}

/// Apply `entries` (source position, mass) in order to the body at `pos`,
/// adding into `acc`: consecutive entries share one divide
/// ([`recip_pair`]), an odd last entry takes its own. This is the
/// arithmetic of one [`eval_subgroup`] lane, which is what makes a
/// `group_size = 1` list replay [`seq_accel`] bitwise.
fn apply_sequence(acc: &mut Vec3, pos: Vec3, entries: &[(Vec3, f64)], gravity: f64, eps2: f64) {
    let mut pairs = entries.chunks_exact(2);
    for p in &mut pairs {
        let (d0, d1) = (p[0].0 - pos, p[1].0 - pos);
        let (i0, i1) = recip_pair(cube_dist(d0, eps2), cube_dist(d1, eps2));
        *acc += d0 * (gravity * p[0].1 * i0);
        *acc += d1 * (gravity * p[1].1 * i1);
    }
    if let [(src, m)] = pairs.remainder() {
        let d = *src - pos;
        *acc += d * (gravity * m * (1.0 / cube_dist(d, eps2)));
    }
}

/// The Barnes-Hut opening criterion the kernel and `seq_walk` share: a
/// cell of side `side` whose center of mass lies at squared distance `d2`
/// is accepted (approximated by its monopole) iff `side² < θ²·d2`.
#[inline]
fn cell_accepted(side: f64, theta2: f64, d2: f64) -> bool {
    side * side < theta2 * d2
}

// ---------------------------------------------------------------------------
// Batched traversal/evaluation kernel.
// ---------------------------------------------------------------------------

/// Safety margin on the group-box squared distance bounds: the accept-all
/// threshold shrinks by this factor and the open-all threshold grows by
/// it, so floating-point rounding in the box clamp arithmetic can never
/// contradict a member's own (exact, squared-form) criterion. Cells
/// inside the margin band fall into the mixed case, which resolves every
/// member exactly — the margin affects performance only, never results.
const GROUP_MARGIN: f64 = 1e-9;

/// Vector width of the batched evaluation, 4 = one AVX2 `f64` vector: the
/// members of one sub-group, which [`eval_subgroup`] applies the list to
/// together, one lane each.
pub const EVAL_LANES: usize = 4;

/// Aggregate statistics of one processor's batched force phase:
/// `interactions / list_entries` is the list-reuse factor (approaches the
/// group size for spatially compact groups) and `list_entries / groups`
/// the mean interaction-list length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForceListStats {
    /// Group traversals performed (interaction lists built).
    pub groups: u64,
    /// Total entries emitted across all lists.
    pub list_entries: u64,
    /// Total pair interactions evaluated from the lists.
    pub interactions: u64,
}

impl ForceListStats {
    /// Merge another processor's (or stage's) statistics into this one.
    pub fn accumulate(&mut self, other: &ForceListStats) {
        self.groups += other.groups;
        self.list_entries += other.list_entries;
        self.interactions += other.interactions;
    }
}

/// Reusable per-processor SoA scratch for the batched force kernel's
/// interaction lists, tagged [`Region::ForceList`] so attribution charges
/// list traffic to its own region. Capacity is `node_capacity + n`: a
/// traversal emits at most one entry per tree node (accepted cells) plus
/// one per body (leaf members), so a list can never overflow.
pub struct ForceScratch {
    rows: Vec<ForceRow>,
    cap: usize,
}

/// One processor's shared interaction list, structure-of-arrays
/// `(x, y, z, mass)`. One buffer holds both halves of a group's list:
/// **dense** entries (every member applies them) grow up from index 0 and
/// **partial** entries (some members apply them, per a bitmask kept at the
/// emitting processor) grow down from the capacity — their sum is bounded
/// by `nodes + bodies`, so the halves can never collide. The dense half is
/// streamed whole by every sub-group of members; the partial half is read
/// entry by entry, each sub-group visiting the entries that name it.
/// Entries carry no id: a member's own body contributes exactly zero in
/// either half (`dx = dy = dz = 0`, and [`R2_FLOOR`] keeps the scale
/// finite).
struct ForceRow {
    xs: SharedVec<f64>,
    ys: SharedVec<f64>,
    zs: SharedVec<f64>,
    ms: SharedVec<f64>,
}

impl ForceScratch {
    /// Allocate one list row per processor, placed processor-local.
    pub fn new<E: Env>(env: &E, flat: &FlatTree, n: usize, procs: usize) -> Self {
        let cap = flat.node_capacity() + n;
        let rows: Vec<ForceRow> = (0..procs)
            .map(|q| {
                let row = ForceRow {
                    xs: SharedVec::new(env, cap, 0.0, Placement::Local(q)),
                    ys: SharedVec::new(env, cap, 0.0, Placement::Local(q)),
                    zs: SharedVec::new(env, cap, 0.0, Placement::Local(q)),
                    ms: SharedVec::new(env, cap, 0.0, Placement::Local(q)),
                };
                row.xs.tag(env, Region::ForceList);
                row.ys.tag(env, Region::ForceList);
                row.zs.tag(env, Region::ForceList);
                row.ms.tag(env, Region::ForceList);
                row
            })
            .collect();
        ForceScratch { rows, cap }
    }

    /// Entry capacity of each per-processor list.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Zero every list (untimed). `SimEngine` does not call this between
    /// jobs: the evaluation reads only the entries the same group's
    /// traversal emitted. The benchmark's staged mirror of the engine does.
    pub fn reset(&self) {
        self.fill(0.0);
    }

    /// Fill every list with NaN, so a test can show the evaluation reads
    /// nothing its traversal did not emit.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        self.fill(f64::NAN);
    }

    fn fill(&self, v: f64) {
        for row in &self.rows {
            for c in [&row.xs, &row.ys, &row.zs, &row.ms] {
                c.fill(v);
            }
        }
    }
}

/// Store one emitted interaction-list entry's four SoA components at slot
/// `k` of the processor's scratch row. The stores are timed — simulated
/// platforms see the emission traffic under [`Region::ForceList`] — and
/// the evaluation loops later stream the same slots back as plain slices
/// ([`SharedVec::peek_slice`]), so the list is written exactly once.
#[inline]
fn emit_entry<E: Env>(env: &E, ctx: &mut E::Ctx, row: &ForceRow, k: usize, p: Vec3, m: f64) {
    row.xs.store(env, ctx, k, p.x);
    row.ys.store(env, ctx, k, p.y);
    row.zs.store(env, ctx, k, p.z);
    row.ms.store(env, ctx, k, m);
}

/// The widest group the kernel supports: one bit per member in the
/// per-entry `u64` application mask. Legal group sizes are
/// `1..=MAX_GROUP_SIZE`; the run entry point asserts the range and the
/// user-facing edges (job validation, `repro` flags) reject anything else.
pub const MAX_GROUP_SIZE: usize = 64;

/// The half-open order-index window of the interaction-list group
/// containing order index `i`: groups are aligned to absolute multiples
/// of `group_size` (in `1..=`[`MAX_GROUP_SIZE`]) and clipped to `n`,
/// independent of any zone boundary. Which bodies share a list is
/// therefore a function of `(i, group_size, n)` alone — the property
/// `tests/flat_force.rs` fuzzes.
pub fn group_window(i: usize, group_size: usize, n: usize) -> (usize, usize) {
    debug_assert!((1..=MAX_GROUP_SIZE).contains(&group_size));
    let w0 = i - i % group_size;
    (w0, (w0 + group_size).min(n))
}

/// The group windows a zone `[s, e)` participates in, as `(w0, w1, a0,
/// a1)`: the full window `[w0, w1)` the traversal covers and the
/// sub-range `[a0, a1)` this zone's owner applies the list to. A zone cut
/// can split a window; both owners then traverse the identical full
/// window (reads only, barrier-separated from the writes that produced
/// them) and apply disjoint halves — group membership never depends on
/// the partition, which keeps grouped runs processor-count independent
/// whenever the underlying tree is.
pub fn zone_group_windows(
    s: usize,
    e: usize,
    group_size: usize,
    n: usize,
) -> Vec<(usize, usize, usize, usize)> {
    debug_assert!((1..=MAX_GROUP_SIZE).contains(&group_size));
    let mut out = Vec::new();
    if s >= e {
        return out;
    }
    let mut w0 = s - s % group_size;
    while w0 < e {
        let w1 = (w0 + group_size).min(n);
        out.push((w0, w1, w0.max(s), w1.min(e)));
        w0 += group_size;
    }
    out
}

/// Batched force phase for one processor: the traversal/evaluation split
/// over the flat snapshot.
///
/// **Traversal** walks the tree once per group of `group_size` consecutive
/// bodies in zone order (Morton-sorted every `morton_every` steps, so
/// groups are spatially compact). Every stack entry carries a bitmask of
/// the members still *active* at that node — exactly the members whose own
/// walk would visit it. A cell is first classified against the group's
/// bounding box via the squared distances from the cell's center of mass
/// to the box's nearest (`dmin²`) and farthest (`dmax²`) points, which
/// bracket every member distance:
///
/// * **accept-all** — `side² < θ²·dmin²` (shrunk by [`GROUP_MARGIN`]):
///   every active member's own criterion accepts, so one `(com, mass)`
///   entry joins the list with the current mask;
/// * **open-all** — `side² ≥ θ²·dmax²` (grown by the margin): every
///   active member opens, so the children are pushed with the same mask;
/// * **mixed** — the band in between: every member slot is tested with
///   its own exact criterion in one branch-free pass ([`mixed_accepts`]);
///   the accepting active members take the entry and the rest descend
///   into the children.
///
/// Emission routes by acceptance: an entry every member applies (full
/// mask) joins the **dense** shared list; a partially-accepted entry is
/// pushed once onto the **partial** list together with its acceptance
/// bitmask. Because the band is resolved with each member's exact
/// criterion and the box bounds are conservative, every body's
/// interaction *multiset* — and its visit count, which the kernel
/// charges as [`VISIT_CYCLES`] × the popcount of the active members this
/// zone owns — is identical to a one-body-at-a-time walk's
/// ([`seq_accel`]); only the summation order differs. A window split by
/// a zone cut is walked by both owners, and each pays for its own members'
/// visits only, as it does for their interactions. At `group_size = 1` the
/// box is a point, the group test *is* the member's own criterion, the
/// self-entry is skipped at emission, and the list is the DFS sequence,
/// applied with [`seq_accel`]'s pair/tail arithmetic — bitwise identical
/// to it over the same octree.
///
/// **Evaluation** runs once per *sub-group* — an aligned run of
/// [`EVAL_LANES`] consecutive members, the vector lanes of
/// [`eval_subgroup`]: the whole dense half, then the partial entries whose
/// mask names one of its members (Morton-adjacent members accept and open
/// together, so most of a boundary-band entry's non-acceptors are never
/// evaluated at all), each member summing its own entries in emission
/// order with its mask bit as a 0/1 weight, and consecutive entries
/// sharing one divide. A member's own body contributes exactly zero,
/// because `dx = dy = dz = 0` and [`R2_FLOOR`] keeps the scale finite, so
/// the loop has no branches. Exact per-body interaction counts (dense
/// length plus the member's partial entries, minus its self appearances)
/// are stored for costzones and debug-asserted to tile the group total.
/// Caller barriers afterwards.
#[allow(clippy::too_many_arguments)]
pub fn force_phase_grouped<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    flat: &FlatTree,
    world: &World,
    params: &ForceParams,
    scratch: &ForceScratch,
    group_size: usize,
    proc: usize,
) -> ForceListStats {
    let theta2 = params.theta * params.theta;
    let eps2 = params.eps * params.eps;
    let (s, e) = world.zone(proc);
    let n = world.n;
    let row = &scratch.rows[proc];
    let cap = scratch.cap;
    let mut stack: Vec<(u32, u64)> = Vec::with_capacity(64);
    let mut members: Vec<u32> = Vec::with_capacity(group_size);
    // Member positions as `x`, `y`, `z` columns, one slot per mask bit.
    // Slots past the group repeat member 0, so every slot is a finite
    // position: a padded lane evaluates real numbers, weighed by no mask.
    let mut mcols = [[0.0f64; MAX_GROUP_SIZE]; 3];
    // Partially-accepted entries carry a per-entry member bitmask instead
    // of being scattered into per-member buffers: emission stays one store
    // per entry. `pmask_buf[j]` is the mask of the group's `j`-th emitted
    // partial entry (row slot `cap - 1 - j`). The buffer is reused across
    // groups and never zeroed, yet no stale mask can be read: a group
    // writes ranks `0..plen` in order and evaluation only sees the slice
    // `pmask_buf[..plen]`. `pidx` is the one sub-group index list, rebuilt
    // from the masks for each sub-group ([`subgroup_entries`]). Both grow
    // with the longest list seen instead of being sized by `cap`.
    let mut pmask_buf: Vec<u64> = Vec::new();
    let mut pidx: Vec<u32> = Vec::new();
    // O(1) self-lookup: `inv[b] = 1 + member-slot of body b` for current
    // group members, 0 otherwise (unmarked again at group end).
    let mut inv: Vec<u32> = vec![0; n];
    let mut stats = ForceListStats::default();

    for (w0, w1, a0, a1) in zone_group_windows(s, e, group_size, n) {
        let len = w1 - w0;
        members.clear();
        for i in w0..w1 {
            let b = world.order.load(env, ctx, i);
            members.push(b);
            let p = world.pos.load(env, ctx, b as usize);
            for (col, v) in mcols.iter_mut().zip([p.x, p.y, p.z]) {
                col[i - w0] = v;
            }
        }
        for col in &mut mcols {
            let first = col[0];
            col[len..].fill(first);
        }
        let member = |m: usize| Vec3::new(mcols[0][m], mcols[1][m], mcols[2][m]);
        // Group bounding box: Morton-consecutive members span a compact
        // AABB, whose squared distance bounds to a cell are much tighter
        // than a centroid sphere's for elongated runs — and need no sqrt.
        let mut lo = member(0);
        let mut hi = lo;
        for m in 1..len {
            lo = lo.min(member(m));
            hi = hi.max(member(m));
        }
        let single = len == 1;
        let full = low_bits(len);
        // The members this zone applies the list to: a window split by a
        // zone cut is walked by both owners, and each charges only its own.
        let owned = low_bits(a1 - w0) & !low_bits(a0 - w0);
        for (mi, &b) in members.iter().enumerate() {
            inv[b as usize] = mi as u32 + 1;
        }

        // Dense entries fill the row from the bottom, partial entries from
        // the top; `dlen + plen ≤ nodes + bodies = cap`, so they never meet.
        let mut dlen = 0usize;
        let mut plen = 0usize;
        // Bit `m` set: member `m`'s own body sits in that half (its
        // contribution there is exactly zero; only the count subtracts it).
        let mut self_in_dense = 0u64;
        let mut self_in_partial = 0u64;
        stack.clear();
        stack.push((0, full)); // the root is always flat index 0
        while let Some((idx, mask)) = stack.pop() {
            let node = flat.nodes.load(env, ctx, idx as usize);
            if node.is_leaf() {
                let first = node.first as usize;
                for j in first..first + node.count() as usize {
                    let ob = flat.bodies.load(env, ctx, j);
                    if single && ob == members[0] {
                        continue; // keeps group_size = 1 bitwise-exact
                    }
                    let opos = world.pos.load(env, ctx, ob as usize);
                    let om = world.mass.load(env, ctx, ob as usize);
                    let mi = inv[ob as usize];
                    if mask == full {
                        if !single && mi != 0 {
                            self_in_dense |= 1 << (mi - 1);
                        }
                        emit_entry(env, ctx, row, dlen, opos, om);
                        dlen += 1;
                    } else {
                        if mi != 0 {
                            self_in_partial |= (mask >> (mi - 1) & 1) << (mi - 1);
                        }
                        pmask_buf = push_mask(pmask_buf, plen, mask);
                        plen += 1;
                        emit_entry(env, ctx, row, cap - plen, opos, om);
                    }
                }
                continue;
            }
            // The members active here are exactly those whose own walk
            // visits this cell, so the visit charge is per owned member.
            env.compute(ctx, VISIT_CYCLES * u64::from((mask & owned).count_ones()));
            let side = 2.0 * node.half;
            if single {
                // A point box: the group test is the member's own
                // criterion, in the same squared form as `seq_walk`.
                if cell_accepted(side, theta2, member(0).dist_sq(node.com)) {
                    emit_entry(env, ctx, row, dlen, node.com, node.mass);
                    dlen += 1;
                } else {
                    let first = node.first as usize;
                    for j in (first..first + node.count() as usize).rev() {
                        stack.push((flat.kids.load(env, ctx, j), full));
                    }
                }
                continue;
            }
            // Squared distance from the cell's com to the nearest and
            // farthest points of the member box: every member distance
            // d_m satisfies dmin² ≤ d_m² ≤ dmax².
            let nx = (lo.x - node.com.x).max(node.com.x - hi.x).max(0.0);
            let ny = (lo.y - node.com.y).max(node.com.y - hi.y).max(0.0);
            let nz = (lo.z - node.com.z).max(node.com.z - hi.z).max(0.0);
            let dmin2 = nx * nx + ny * ny + nz * nz;
            let fx = (node.com.x - lo.x).abs().max((hi.x - node.com.x).abs());
            let fy = (node.com.y - lo.y).abs().max((hi.y - node.com.y).abs());
            let fz = (node.com.z - lo.z).abs().max((hi.z - node.com.z).abs());
            let dmax2 = fx * fx + fy * fy + fz * fz;
            let accept_mask =
                if dmin2 > 0.0 && cell_accepted(side, theta2, dmin2 * (1.0 - GROUP_MARGIN)) {
                    mask // accept-all: every member's criterion holds
                } else if !cell_accepted(side, theta2, dmax2 * (1.0 + GROUP_MARGIN)) {
                    0 // open-all: every member opens
                } else {
                    // Mixed band: each active member decides exactly.
                    mixed_accepts(&mcols, node.com, side, theta2) & mask
                };
            if accept_mask != 0 {
                if accept_mask == full {
                    emit_entry(env, ctx, row, dlen, node.com, node.mass);
                    dlen += 1;
                } else {
                    pmask_buf = push_mask(pmask_buf, plen, accept_mask);
                    plen += 1;
                    emit_entry(env, ctx, row, cap - plen, node.com, node.mass);
                }
            }
            let open_mask = mask & !accept_mask;
            if open_mask != 0 {
                let first = node.first as usize;
                for j in (first..first + node.count() as usize).rev() {
                    stack.push((flat.kids.load(env, ctx, j), open_mask));
                }
            }
        }

        let pmasks = &pmask_buf[..plen];
        stats.groups += 1;
        stats.list_entries += (dlen + plen) as u64;

        // Evaluation: stream the row's two halves straight from the scratch
        // (untimed borrows — the list was charged at emission) and apply
        // them to the members this zone owns.
        let dense = [&row.xs, &row.ys, &row.zs, &row.ms].map(|c| c.peek_slice(0..dlen));
        let partial = [&row.xs, &row.ys, &row.zs, &row.ms].map(|c| c.peek_slice(cap - plen..cap));
        #[cfg(debug_assertions)]
        let before = stats.interactions;
        // Sub-groups are the aligned runs of `EVAL_LANES` members of the
        // window, so — like the window itself — they do not depend on the
        // zone cut: a cut sub-group is evaluated whole by both owners and
        // each keeps the lanes of its own members.
        for m0 in ((a0 - w0) / EVAL_LANES * EVAL_LANES..a1 - w0).step_by(EVAL_LANES) {
            // A short last run's lanes sit on member 0's padded slots.
            let lanes = mcols
                .each_ref()
                .map(|col| std::array::from_fn(|l| col[m0 + l]));
            let visits = subgroup_entries(pmasks, m0 as u32, &mut pidx);
            let (ax, ay, az, pcnt) = eval_subgroup(
                dense,
                partial,
                pmasks,
                &pidx[..visits],
                m0 as u32,
                lanes,
                params.gravity,
                eps2,
            );
            // The sub-group's members this zone owns.
            let mine = m0.max(a0 - w0)..(m0 + EVAL_LANES).min(a1 - w0);
            for (m, &b) in mine.clone().zip(&members[mine]) {
                let l = m - m0;
                let acc = Vec3::new(ax[l], ay[l], az[l]);
                let cnt = dlen as u32 + pcnt[l]
                    - ((self_in_dense >> m) & 1) as u32
                    - ((self_in_partial >> m) & 1) as u32;
                env.compute(ctx, INTERACT_CYCLES * u64::from(cnt));
                world.acc.store(env, ctx, b as usize, acc);
                // Exact count (no floor): costzones guards zero at read time.
                world.cost.store(env, ctx, b as usize, cnt);
                stats.interactions += u64::from(cnt);
            }
        }
        #[cfg(debug_assertions)]
        {
            // Per-body counts must tile the group total: dense entries
            // plus the partial entries whose mask names the member, minus
            // the member's own appearances (recounted from the raw masks,
            // independently of the evaluation loop's running count).
            let mut expect = 0u64;
            for i in a0..a1 {
                let m = i - w0;
                let mut per = dlen as u64;
                for &pm in pmasks {
                    per += (pm >> m) & 1;
                }
                per -= (self_in_dense >> m) & 1;
                per -= (self_in_partial >> m) & 1;
                expect += per;
            }
            debug_assert_eq!(
                stats.interactions - before,
                expect,
                "per-body interaction counts must tile the group total"
            );
        }
        for &b in &members {
            inv[b as usize] = 0;
        }
    }
    stats
}

/// The member mask with bits `0..k` set, `k` in `0..=MAX_GROUP_SIZE`.
#[inline]
fn low_bits(k: usize) -> u64 {
    if k == MAX_GROUP_SIZE {
        !0
    } else {
        (1u64 << k) - 1
    }
}

/// Store `mask` as the group's partial mask of rank `len`, doubling the
/// buffer when it is full. The buffer travels by value so that its pointer
/// and length stay in registers across the walk: lent out as `&mut` to a
/// call that can reallocate (`Vec::push`), they are reloaded at every
/// emission, which cost the walk 1.2 ms of 10.5 at n = 16384.
#[inline]
fn push_mask(mut buf: Vec<u64>, len: usize, mask: u64) -> Vec<u64> {
    #[cold]
    #[inline(never)]
    fn doubled(mut buf: Vec<u64>) -> Vec<u64> {
        buf.resize((2 * buf.len()).max(64), 0);
        buf
    }
    if len == buf.len() {
        buf = doubled(buf);
    }
    buf[len] = mask;
    buf
}

/// The mixed band's decision for every member slot at once: bit `m` is
/// set iff slot `m` of the member columns accepts the cell,
/// `side² < θ²·d²` with `d²` computed exactly as `Vec3::dist_sq` does. A
/// fixed 64-slot loop with no branch, which the caller masks with the
/// active members; padded slots decide too and are masked out.
#[inline]
fn mixed_accepts(mcols: &[[f64; MAX_GROUP_SIZE]; 3], com: Vec3, side: f64, theta2: f64) -> u64 {
    let [mx, my, mz] = mcols;
    let mut accepts = 0u64;
    for m in 0..MAX_GROUP_SIZE {
        let d2 = Vec3::new(mx[m], my[m], mz[m]).dist_sq(com);
        accepts |= u64::from(cell_accepted(side, theta2, d2)) << m;
    }
    accepts
}

/// Collect into `out[..returned]`, in emission order, the ranks of the
/// partial entries whose mask names at least one member of the sub-group
/// whose first member is bit `shift` — the entries that sub-group visits.
/// The append is branch-free (store always, advance on a non-empty
/// nibble): acceptance flips along the boundary band, so a branch here
/// would mispredict. `out` only ever grows, to the longest list seen.
fn subgroup_entries(masks: &[u64], shift: u32, out: &mut Vec<u32>) -> usize {
    if out.len() < masks.len() {
        out.resize(masks.len(), 0);
    }
    let out = &mut out[..masks.len()];
    let nibble = (1u64 << EVAL_LANES) - 1;
    let mut len = 0;
    for (j, &mask) in masks.iter().enumerate() {
        out[len] = j as u32;
        len += usize::from((mask >> shift) & nibble != 0);
    }
    len
}

/// One list entry as the lanes see it: its position and a weight per lane
/// (`G·m`, times the lane's mask bit in the partial half).
type LaneEntry = (Vec3, [f64; EVAL_LANES]);

/// One sub-group's lanes: the members' positions, one column per axis,
/// and one acceleration accumulator per member.
struct Lanes {
    pos: [[f64; EVAL_LANES]; 3],
    acc: [[f64; EVAL_LANES]; 3],
}

impl Lanes {
    /// The offset from lane `l`'s member to the entry at `src`.
    #[inline(always)]
    fn offset(&self, l: usize, src: Vec3) -> Vec3 {
        let [px, py, pz] = &self.pos;
        Vec3::new(src.x - px[l], src.y - py[l], src.z - pz[l])
    }

    #[inline(always)]
    fn kick(&mut self, l: usize, d: Vec3, scale: f64) {
        let [ax, ay, az] = &mut self.acc;
        ax[l] += d.x * scale;
        ay[l] += d.y * scale;
        az[l] += d.z * scale;
    }

    /// Apply two consecutive entries with one shared divide per lane —
    /// [`apply_sequence`]'s pair step.
    #[inline(always)]
    fn two(&mut self, (s0, w0): LaneEntry, (s1, w1): LaneEntry, eps2: f64) {
        for l in 0..EVAL_LANES {
            let (d0, d1) = (self.offset(l, s0), self.offset(l, s1));
            let (i0, i1) = recip_pair(cube_dist(d0, eps2), cube_dist(d1, eps2));
            self.kick(l, d0, w0[l] * i0);
            self.kick(l, d1, w1[l] * i1);
        }
    }

    /// Apply an odd last entry with its own divide — [`apply_sequence`]'s
    /// tail.
    #[inline(always)]
    fn one(&mut self, (s, w): LaneEntry, eps2: f64) {
        for (l, wl) in w.into_iter().enumerate() {
            let d = self.offset(l, s);
            self.kick(l, d, wl * (1.0 / cube_dist(d, eps2)));
        }
    }
}

/// Evaluation of a group's list for one sub-group: the [`EVAL_LANES`]
/// lanes are as many consecutive *members* (mask bits from `shift` up,
/// positions `pos` as `x`, `y`, `z` columns), and each entry is broadcast
/// to them. The whole dense half is applied with weight `G·m` in every
/// lane, then the visited partial entries (ranks `idx`, from
/// [`subgroup_entries`]) with weight `bit·G·m`, the member's mask bit as a
/// 0/1 factor (`1.0 ·` is exact, `0.0 ·` contributes nothing). Each member
/// has one accumulator, summed in emission order; within each half,
/// consecutive entries share one divide and an odd last entry takes its
/// own, so a lane computes exactly what [`apply_sequence`] does over the
/// dense half and then the visited entries. The loop is branch-free and
/// every vector it issues holds at least one real interaction.
///
/// `dense` and `partial` are the row's halves as `(x, y, z, mass)`
/// columns. The partial half grows *down*: the entry of emission rank `j`
/// (mask `masks[j]`) sits at position `len - 1 - j`. Returns each lane's
/// acceleration and the number of partial entries that named it — its own
/// body, if present, included; the caller adds the dense length and
/// subtracts self appearances.
///
/// `inline(never)`: compiled as its own function the SLP vectorizer
/// reliably turns the lane loops into packed sqrt/divide — inlined into
/// the (large, `Env`-generic) walk it stays scalar, which costs ~2-4x on
/// the kernel's throughput bound. `check.sh` disassembles it to hold this.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn eval_subgroup(
    dense: [&[f64]; 4],
    partial: [&[f64]; 4],
    masks: &[u64],
    idx: &[u32],
    shift: u32,
    pos: [[f64; EVAL_LANES]; 3],
    gravity: f64,
    eps2: f64,
) -> (
    [f64; EVAL_LANES],
    [f64; EVAL_LANES],
    [f64; EVAL_LANES],
    [u32; EVAL_LANES],
) {
    let mut lanes = Lanes {
        pos,
        acc: [[0.0; EVAL_LANES]; 3],
    };

    // One length per half: an index below it reads each of its columns.
    let n = dense[0].len();
    let [xs, ys, zs, ms] = dense.map(|c| &c[..n]);
    let entry = |k: usize| {
        (
            Vec3::new(xs[k], ys[k], zs[k]),
            [gravity * ms[k]; EVAL_LANES],
        )
    };
    let mut k = 0;
    while k + 1 < n {
        lanes.two(entry(k), entry(k + 1), eps2);
        k += 2;
    }
    if k < n {
        lanes.one(entry(k), eps2);
    }

    let n = masks.len();
    let partial = partial.map(|c| &c[..n]);
    let mut count = [0u64; EVAL_LANES];
    let mut pairs = idx.chunks_exact(2);
    for p in &mut pairs {
        let e0 = partial_entry(partial, masks, p[0], shift, gravity, &mut count);
        let e1 = partial_entry(partial, masks, p[1], shift, gravity, &mut count);
        lanes.two(e0, e1, eps2);
    }
    if let [j] = pairs.remainder() {
        let e = partial_entry(partial, masks, *j, shift, gravity, &mut count);
        lanes.one(e, eps2);
    }

    let [ax, ay, az] = lanes.acc;
    (ax, ay, az, count.map(|c| c as u32))
}

/// The partial entry of emission rank `j` as the sub-group at `shift` sees
/// it (weights `bit·G·m`), adding its mask bits to the lanes' `count`.
/// A function, not a closure, so that it is always inlined: a closure here
/// was left out of line, a call per entry.
#[inline(always)]
fn partial_entry(
    [xs, ys, zs, ms]: [&[f64]; 4],
    masks: &[u64],
    j: u32,
    shift: u32,
    gravity: f64,
    count: &mut [u64; EVAL_LANES],
) -> LaneEntry {
    let bits = masks[j as usize] >> shift;
    let k = masks.len() - 1 - j as usize;
    let w = gravity * ms[k];
    let bit: [u64; EVAL_LANES] = std::array::from_fn(|l| (bits >> l) & 1);
    for (c, b) in count.iter_mut().zip(bit) {
        *c += b;
    }
    (Vec3::new(xs[k], ys[k], zs[k]), bit.map(|b| b as f64 * w))
}

// ---------------------------------------------------------------------------
// Sequential reference force computation (same criterion, on SeqTree).
// ---------------------------------------------------------------------------

/// Compute the acceleration on a single position over the sequential tree:
/// a recursive walk collects the accepted `(position, mass)` sources in DFS
/// order, and [`apply_sequence`] sums them.
pub fn seq_accel(
    tree: &SeqTree,
    bodies_pos: &[Vec3],
    bodies_mass: &[f64],
    body: u32,
    params: &ForceParams,
) -> (Vec3, u32) {
    let pos = bodies_pos[body as usize];
    let mut sources = Vec::new();
    seq_walk(
        tree,
        tree.root,
        bodies_pos,
        bodies_mass,
        body,
        params.theta * params.theta,
        &mut sources,
    );
    let mut acc = Vec3::ZERO;
    let eps2 = params.eps * params.eps;
    apply_sequence(&mut acc, pos, &sources, params.gravity, eps2);
    (acc, sources.len() as u32)
}

fn seq_walk(
    tree: &SeqTree,
    node: i32,
    bodies_pos: &[Vec3],
    bodies_mass: &[f64],
    body: u32,
    theta2: f64,
    sources: &mut Vec<(Vec3, f64)>,
) {
    match &tree.nodes[node as usize] {
        SeqNode::Leaf { bodies, .. } => {
            for &ob in bodies {
                if ob != body {
                    sources.push((bodies_pos[ob as usize], bodies_mass[ob as usize]));
                }
            }
        }
        SeqNode::Cell {
            child,
            com,
            mass,
            cube,
            ..
        } => {
            if *mass == 0.0 {
                return;
            }
            let pos = bodies_pos[body as usize];
            if cell_accepted(cube.side(), theta2, pos.dist_sq(*com)) {
                sources.push((*com, *mass));
                return;
            }
            for &ch in child {
                if ch != -1 {
                    seq_walk(tree, ch, bodies_pos, bodies_mass, body, theta2, sources);
                }
            }
        }
    }
}

/// Direct O(n²) summation — the accuracy oracle for tests.
pub fn direct_accel(
    bodies_pos: &[Vec3],
    bodies_mass: &[f64],
    body: u32,
    params: &ForceParams,
) -> Vec3 {
    let pos = bodies_pos[body as usize];
    let mut acc = Vec3::ZERO;
    for (i, (&p, &m)) in bodies_pos.iter().zip(bodies_mass.iter()).enumerate() {
        if i as u32 == body {
            continue;
        }
        acc += pair_accel(pos, p, m, params);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::model::Model;
    use crate::rng::SmallRng;

    #[test]
    fn pair_accel_points_toward_source() {
        let params = ForceParams {
            theta: 1.0,
            eps: 0.0,
            gravity: 1.0,
        };
        let a = pair_accel(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), 8.0, &params);
        assert!(a.x > 0.0 && a.y == 0.0 && a.z == 0.0);
        // |a| = G m / r^2 = 8 / 4 = 2.
        assert!((a.norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn softening_bounds_close_encounters() {
        let params = ForceParams {
            theta: 1.0,
            eps: 0.1,
            gravity: 1.0,
        };
        let a = pair_accel(Vec3::ZERO, Vec3::new(1e-12, 0.0, 0.0), 1.0, &params);
        assert!(
            a.norm() < 1.0 / (0.1 * 0.1),
            "softened force must stay bounded"
        );
    }

    #[test]
    fn barnes_hut_approximates_direct_sum() {
        let bodies: Vec<Body> = Model::Plummer.generate(600, 42);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = SeqTree::build(&bodies, 8);
        let params = ForceParams {
            theta: 0.5,
            eps: 0.05,
            gravity: 1.0,
        };
        let mut worst = 0.0f64;
        for b in (0..600).step_by(17) {
            let (bh, _) = seq_accel(&tree, &pos, &mass, b, &params);
            let exact = direct_accel(&pos, &mass, b, &params);
            let rel = (bh - exact).norm() / exact.norm().max(1e-12);
            worst = worst.max(rel);
        }
        assert!(worst < 0.05, "worst relative force error {worst}");
    }

    #[test]
    fn theta_zero_equals_direct_sum() {
        // θ→0 never accepts a cell, so BH degenerates to the direct sum.
        let bodies: Vec<Body> = Model::UniformSphere.generate(100, 9);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = SeqTree::build(&bodies, 4);
        let params = ForceParams {
            theta: 1e-9,
            eps: 0.05,
            gravity: 1.0,
        };
        for b in [0u32, 13, 57, 99] {
            let (bh, ints) = seq_accel(&tree, &pos, &mass, b, &params);
            let exact = direct_accel(&pos, &mass, b, &params);
            assert!((bh - exact).norm() < 1e-9);
            assert_eq!(ints, 99);
        }
    }

    #[test]
    fn larger_theta_means_fewer_interactions() {
        let bodies: Vec<Body> = Model::Plummer.generate(2000, 7);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = SeqTree::build(&bodies, 8);
        let loose = ForceParams {
            theta: 1.2,
            ..Default::default()
        };
        let tight = ForceParams {
            theta: 0.3,
            ..Default::default()
        };
        let (_, n_loose) = seq_accel(&tree, &pos, &mass, 0, &loose);
        let (_, n_tight) = seq_accel(&tree, &pos, &mass, 0, &tight);
        assert!(n_loose < n_tight, "loose {n_loose} vs tight {n_tight}");
    }

    const G: f64 = 0.75;
    const EPS2: f64 = 0.0025;

    fn random_vec3(rng: &mut SmallRng) -> Vec3 {
        Vec3::new(
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
        )
    }

    fn random_lanes(rng: &mut SmallRng) -> [Vec3; EVAL_LANES] {
        std::array::from_fn(|_| random_vec3(rng))
    }

    /// A list half in emission order: `(source, mass)` per entry.
    fn random_entries(rng: &mut SmallRng, n: usize) -> Vec<(Vec3, f64)> {
        (0..n)
            .map(|_| (random_vec3(rng), rng.gen_range(0.1, 2.0)))
            .collect()
    }

    /// The `(x, y, z, mass)` columns of a list half as the row holds it: a
    /// partial half grows down, rank `j` at position `n - 1 - j`.
    fn columns(entries: &[(Vec3, f64)], grows_down: bool) -> [Vec<f64>; 4] {
        let mut cols = [
            entries.iter().map(|e| e.0.x).collect::<Vec<f64>>(),
            entries.iter().map(|e| e.0.y).collect(),
            entries.iter().map(|e| e.0.z).collect(),
            entries.iter().map(|e| e.1).collect(),
        ];
        if grows_down {
            cols.iter_mut().for_each(|c| c.reverse());
        }
        cols
    }

    /// The mask bits of one sub-group starting at bit `shift`.
    fn nibble(mask: u64, shift: u32) -> u64 {
        (mask >> shift) & ((1 << EVAL_LANES) - 1)
    }

    /// [`eval_subgroup`] as the kernel drives it — index list from the
    /// masks, columns laid out as the row holds them; per-lane
    /// `(acceleration, count)`.
    fn eval_lanes(
        dense: &[(Vec3, f64)],
        partial: &[(Vec3, f64)],
        masks: &[u64],
        shift: u32,
        lanes: &[Vec3; EVAL_LANES],
        eps2: f64,
    ) -> [(Vec3, u32); EVAL_LANES] {
        let (d, p) = (columns(dense, false), columns(partial, true));
        let mut idx = Vec::new();
        let visits = subgroup_entries(masks, shift, &mut idx);
        let (ax, ay, az, cnt) = eval_subgroup(
            d.each_ref().map(Vec::as_slice),
            p.each_ref().map(Vec::as_slice),
            masks,
            &idx[..visits],
            shift,
            [lanes.map(|v| v.x), lanes.map(|v| v.y), lanes.map(|v| v.z)],
            G,
            eps2,
        );
        std::array::from_fn(|l| (Vec3::new(ax[l], ay[l], az[l]), cnt[l]))
    }

    /// What lane `l` must hold, one member at a time: [`apply_sequence`]
    /// over the dense half, then over the sub-group's visited partial
    /// entries with the member's mask bit as a 0/1 factor on the mass.
    fn scalar_lane(
        dense: &[(Vec3, f64)],
        partial: &[(Vec3, f64)],
        masks: &[u64],
        shift: u32,
        l: u32,
        pos: Vec3,
        eps2: f64,
    ) -> (Vec3, u32) {
        let mut acc = Vec3::ZERO;
        apply_sequence(&mut acc, pos, dense, G, eps2);
        let visited: Vec<(Vec3, f64)> = partial
            .iter()
            .zip(masks)
            .filter(|&(_, &mask)| nibble(mask, shift) != 0)
            .map(|(&(src, m), &mask)| (src, ((mask >> (shift + l)) & 1) as f64 * m))
            .collect();
        apply_sequence(&mut acc, pos, &visited, G, eps2);
        let count = masks.iter().filter(|&&m| (m >> (shift + l)) & 1 == 1);
        (acc, count.count() as u32)
    }

    fn assert_same_bits(label: &str, got: Vec3, want: Vec3) {
        for (g, w) in [(got.x, want.x), (got.y, want.y), (got.z, want.z)] {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn partial_lanes_match_a_scalar_loop_over_each_members_entries() {
        let mut rng = SmallRng::seed_from_u64(0x7061_6972);
        // Which (dense length, visited length) parities were covered.
        let mut parities = [[false; 2]; 2];
        for shift in [0u32, 4, 28, 60] {
            for dn in [0usize, 1, 6, 7] {
                for pn in [0usize, 1, 2, 7, 64, 301] {
                    let dense = random_entries(&mut rng, dn);
                    let partial = random_entries(&mut rng, pn);
                    let masks: Vec<u64> = (0..pn).map(|_| rng.next_u64()).collect();
                    let lanes = random_lanes(&mut rng);
                    let mut idx = Vec::new();
                    let visits = subgroup_entries(&masks, shift, &mut idx);
                    let visited: Vec<u32> = (0..pn as u32)
                        .filter(|&j| nibble(masks[j as usize], shift) != 0)
                        .collect();
                    assert_eq!(idx[..visits], visited[..], "shift {shift} pn {pn}");
                    parities[dn % 2][visits % 2] = true;
                    let got = eval_lanes(&dense, &partial, &masks, shift, &lanes, EPS2);
                    for (l, &(acc, cnt)) in got.iter().enumerate() {
                        let label = format!("shift {shift} dense {dn} partial {pn} lane {l}");
                        let (want, want_cnt) =
                            scalar_lane(&dense, &partial, &masks, shift, l as u32, lanes[l], EPS2);
                        assert_same_bits(&label, acc, want);
                        assert_eq!(cnt, want_cnt, "{label}");
                    }
                }
            }
        }
        assert_eq!(
            parities, [[true; 2]; 2],
            "odd and even lengths of both halves"
        );
    }

    #[test]
    fn partial_lanes_with_every_bit_set_equal_the_sequential_evaluation() {
        // Every member names every partial entry: with an even dense half
        // (pairs never straddle the halves) each lane is `apply_sequence`
        // over the whole row in emission order, as `seq_accel` sums a DFS.
        let mut rng = SmallRng::seed_from_u64(0x6675_6c6c);
        let lanes = random_lanes(&mut rng);
        for (dn, pn) in [(0usize, 97usize), (0, 96), (6, 97), (6, 96)] {
            let dense = random_entries(&mut rng, dn);
            let partial = random_entries(&mut rng, pn);
            let row: Vec<(Vec3, f64)> = dense.iter().chain(&partial).copied().collect();
            let got = eval_lanes(&dense, &partial, &vec![!0u64; pn], 8, &lanes, EPS2);
            for (l, &(acc, cnt)) in got.iter().enumerate() {
                let mut want = Vec3::ZERO;
                apply_sequence(&mut want, lanes[l], &row, G, EPS2);
                assert_same_bits(&format!("dense {dn} partial {pn} lane {l}"), acc, want);
                assert_eq!(cnt, pn as u32);
            }
        }
    }

    #[test]
    fn padded_lane_of_a_short_sub_group_is_exactly_zero() {
        // A group tail of three members: no mask names bit 3 of the
        // sub-group, and the kernel pads the lane with member 0's position.
        // It takes nothing from the partial half: exactly zero with no dense
        // half, exactly the dense half's sum with one.
        let mut rng = SmallRng::seed_from_u64(0x7061_6464);
        let partial = random_entries(&mut rng, 50);
        let masks: Vec<u64> = (0..50).map(|_| rng.next_u64() & (0b0111 << 4)).collect();
        let mut lanes = random_lanes(&mut rng);
        lanes[3] = lanes[0];
        for dn in [0, 5] {
            let dense = random_entries(&mut rng, dn);
            let got = eval_lanes(&dense, &partial, &masks, 4, &lanes, EPS2);
            assert!(got[..3].iter().all(|&(_, cnt)| cnt > 0));
            let mut dense_only = Vec3::ZERO;
            apply_sequence(&mut dense_only, lanes[3], &dense, G, EPS2);
            assert_same_bits(&format!("padded lane, dense {dn}"), got[3].0, dense_only);
            assert_eq!(got[3].1, 0);
        }
    }

    #[test]
    fn empty_index_list_returns_zeros_without_reading_the_row() {
        // Nothing dense and no mask names this sub-group: nothing is
        // visited, so not even a row of NaNs can reach the accumulators.
        let lanes = random_lanes(&mut SmallRng::seed_from_u64(1));
        let nans = vec![(Vec3::new(f64::NAN, f64::NAN, f64::NAN), f64::NAN); 12];
        for (acc, cnt) in eval_lanes(&[], &nans, &[0xF0; 12], 0, &lanes, EPS2) {
            assert_same_bits("unvisited", acc, Vec3::ZERO);
            assert_eq!(cnt, 0);
        }
    }

    #[test]
    fn a_members_own_entry_adds_exactly_zero_at_zero_softening() {
        // ε = 0: a member's own entry has r² = 0, floored at R2_FLOOR, so
        // its scale stays finite and shares a divide with a real entry
        // without disturbing it.
        let mut rng = SmallRng::seed_from_u64(0x7a65_726f);
        let lanes = random_lanes(&mut rng);
        let mut dense = random_entries(&mut rng, 6);
        dense[2].0 = lanes[1];
        let mut partial = random_entries(&mut rng, 3);
        partial[0].0 = lanes[2];
        let masks = [0b1111 << 8; 3];
        let got = eval_lanes(&dense, &partial, &masks, 8, &lanes, 0.0);
        let params = ForceParams {
            theta: 1.0,
            eps: 0.0,
            gravity: G,
        };
        for (l, &(acc, _)) in got.iter().enumerate() {
            let (want, _) = scalar_lane(&dense, &partial, &masks, 8, l as u32, lanes[l], 0.0);
            assert_same_bits(&format!("lane {l}"), acc, want);
            let direct = dense
                .iter()
                .chain(&partial)
                .filter(|e| e.0 != lanes[l])
                .fold(Vec3::ZERO, |a, e| {
                    a + pair_accel(lanes[l], e.0, e.1, &params)
                });
            let rel = (acc - direct).norm() / direct.norm();
            assert!(rel <= 1e-12, "lane {l}: {acc:?} vs {direct:?}");
        }
    }

    #[test]
    fn mixed_accepts_decides_every_slot_like_the_members_own_criterion() {
        let mut rng = SmallRng::seed_from_u64(0x6d69_7864);
        let theta2 = 0.25;
        for case in 0..200 {
            let mut mpos: Vec<Vec3> = (0..MAX_GROUP_SIZE).map(|_| random_vec3(&mut rng)).collect();
            let mut com = random_vec3(&mut rng) * 2.0;
            let mut side = rng.gen_range(0.0, 2.0);
            if case % 2 == 0 {
                // Put one member exactly on the boundary: every coordinate
                // is dyadic, so d² = 0.75² + 1² and side² = θ²·d² exactly.
                let m = case % MAX_GROUP_SIZE;
                mpos[m] = Vec3::new(0.5, -0.25, 0.125);
                com = mpos[m] + Vec3::new(0.75, 1.0, 0.0);
                side = 0.625;
                assert_eq!(side * side, theta2 * mpos[m].dist_sq(com));
            }
            let cols: [[f64; MAX_GROUP_SIZE]; 3] = [
                std::array::from_fn(|m| mpos[m].x),
                std::array::from_fn(|m| mpos[m].y),
                std::array::from_fn(|m| mpos[m].z),
            ];
            let got = mixed_accepts(&cols, com, side, theta2);
            for (m, p) in mpos.iter().enumerate() {
                let want = cell_accepted(side, theta2, p.dist_sq(com));
                assert_eq!((got >> m) & 1 == 1, want, "case {case} slot {m}");
            }
        }
    }

    #[test]
    fn group_windows_are_zone_independent() {
        // Every order index lands in the window `group_window` names, no
        // matter how the zone boundaries fall.
        let n = 103;
        let gs = 16;
        for cut in [0usize, 1, 7, 16, 17, 40, 102, 103] {
            for (w0, w1, a0, a1) in zone_group_windows(0, cut, gs, n)
                .into_iter()
                .chain(zone_group_windows(cut, n, gs, n))
            {
                for i in a0..a1 {
                    assert_eq!(group_window(i, gs, n), (w0, w1));
                }
            }
        }
    }

    #[test]
    fn zone_group_windows_tile_the_zone() {
        let n = 64;
        for gs in [1, 3, 16, 64] {
            let windows = zone_group_windows(10, 50, gs, n);
            let mut next = 10;
            for (w0, w1, a0, a1) in windows {
                assert!(w0 <= a0 && a1 <= w1);
                assert_eq!(next, a0);
                next = a1;
            }
            assert_eq!(next, 50);
        }
        assert!(zone_group_windows(5, 5, 4, 64).is_empty());
    }

    /// Charges nothing and logs every `compute` call into the context. The
    /// kernel's data live in `NativeEnv` allocations.
    struct ComputeLog;

    impl Env for ComputeLog {
        type Ctx = Vec<u64>;

        fn num_procs(&self) -> usize {
            2
        }
        fn make_ctx(&self, _proc: usize) -> Vec<u64> {
            Vec::new()
        }
        fn alloc(&self, _bytes: u64, _align: u64, _place: Placement) -> crate::env::VAddr {
            unreachable!("allocate with NativeEnv")
        }
        fn access(&self, _: &mut Vec<u64>, _: crate::env::VAddr, _: u32, _: crate::env::Access) {}
        fn compute(&self, ctx: &mut Vec<u64>, cycles: u64) {
            ctx.push(cycles);
        }
        fn lock(&self, _ctx: &mut Vec<u64>, _lock: usize) {
            unreachable!("the force kernel takes no lock")
        }
        fn unlock(&self, _ctx: &mut Vec<u64>, _lock: usize) {
            unreachable!("the force kernel takes no lock")
        }
        fn barrier(&self, _ctx: &mut Vec<u64>) {
            unreachable!("the caller barriers after the force kernel")
        }
        fn now(&self, _ctx: &Vec<u64>) -> u64 {
            0
        }
        fn stats(&self, _ctx: &Vec<u64>) -> crate::env::CtxStats {
            crate::env::CtxStats::default()
        }
    }

    #[test]
    fn a_split_window_charges_each_owner_only_its_own_members_visits() {
        use crate::env::NativeEnv;
        use crate::tree::flat::{FlatNode, LEAF_TAG};
        use crate::tree::TreeLayout;
        // One window of 64 bodies, one per leaf of a two-level octree (root,
        // eight octant cells, 64 leaves), cut at a0 = 5 between two zones.
        // At θ = 0 every member opens every cell.
        let n = 64;
        // The center of octant `o` of the cube of half side `half` at `c`.
        let sub = |c: Vec3, half: f64, o: usize| {
            let s = |bit: usize| if (o >> bit) & 1 == 1 { half } else { -half };
            c + Vec3::new(s(0), s(1), s(2)) * 0.5
        };
        let bodies: Vec<Body> = (0..n)
            .map(|i| {
                let pos = sub(sub(Vec3::ZERO, 1.0, i / 8), 0.5, i % 8);
                Body::new(pos, Vec3::ZERO, 1.0 / n as f64)
            })
            .collect();
        let native = NativeEnv::new(2);
        let world = World::new(&native, &bodies);
        world.zone_start.poke(1, 5);
        let flat = FlatTree::new(&native, n, 1, TreeLayout::GlobalArena);
        let cell = |com: Vec3, mass: f64, half: f64, first: usize, tag: u32| FlatNode {
            com,
            mass,
            half,
            first: first as u32,
            tag,
        };
        flat.nodes.poke(0, cell(Vec3::ZERO, 1.0, 1.0, 0, 8));
        for c in 0..8 {
            let com = sub(Vec3::ZERO, 1.0, c);
            flat.nodes.poke(1 + c, cell(com, 0.125, 0.5, 8 + 8 * c, 8));
            flat.kids.poke(c, 1 + c as u32);
        }
        for (i, b) in bodies.iter().enumerate() {
            let leaf = cell(b.pos, b.mass, 0.25, i, LEAF_TAG | 1);
            flat.nodes.poke(9 + i, leaf);
            flat.kids.poke(8 + i, 9 + i as u32);
            flat.bodies.poke(i, i as u32);
        }
        let scratch = ForceScratch::new(&native, &flat, n, 2);
        let params = ForceParams {
            theta: 0.0,
            ..Default::default()
        };
        for (proc, owned) in [(0, 5u64), (1, 59)] {
            let mut log = Vec::new();
            let stats = force_phase_grouped(
                &ComputeLog,
                &mut log,
                &flat,
                &world,
                &params,
                &scratch,
                64,
                proc,
            );
            assert_eq!(stats.interactions, owned * 63, "proc {proc}");
            // The walk charges its nine cell visits, then the evaluation
            // each owned member's 63 interactions.
            let mut want = vec![VISIT_CYCLES * owned; 9];
            want.extend(vec![INTERACT_CYCLES * 63; owned as usize]);
            assert_eq!(log, want, "proc {proc}");
        }
    }
}
