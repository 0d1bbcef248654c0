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

/// Floor on the softened `r²` of the list evaluation, in `f32`. A member's
/// own entry has `d = 0`, so at `eps = 0` its `r²` is 0; floored, its `r³`
/// is 1e-36, still a normal `f32`, so `1/r³` stays finite and `0 · scale`
/// contributes exactly zero. Every real pair at `eps > 0` has `r² ≥ ε²`,
/// far above the floor.
const R2_FLOOR: f32 = 1e-24;

/// `1/r³` for the softened squared distance `r2 = |d|² + ε²`, the one
/// mixed-precision step of the evaluation: `r2` is rounded to `f32` once,
/// floored at [`R2_FLOOR`], and `1/(r²·√r²)` is computed in `f32` (IEEE
/// `sqrt` and `/` are correctly rounded, so the bits do not depend on the
/// CPU) and widened. Past `f32` range `r³` overflows and the result is 0,
/// never NaN.
#[inline(always)]
fn inv_r3(r2: f64) -> f64 {
    let r2 = (r2 as f32).max(R2_FLOOR);
    f64::from(1.0 / (r2 * r2.sqrt()))
}

/// The softened `r² = dx² + dy² + dz² + ε²` of the offset `d`, as three
/// fused multiply-adds from `ε²` up: `fma(dz, dz, fma(dy, dy, fma(dx, dx,
/// ε²)))`. Every evaluator computes exactly this (`_mm512_fmadd_pd` on
/// AVX-512), and `fma` is correctly rounded, so the bits do not depend on
/// the CPU; a target without FMA hardware pays a libm `fma` call per
/// operation for the same bits.
#[inline(always)]
fn soft_r2(dx: f64, dy: f64, dz: f64, eps2: f64) -> f64 {
    dz.mul_add(dz, dy.mul_add(dy, dx.mul_add(dx, eps2)))
}

/// Apply `entries` (source position, mass) in order to the body at `pos`,
/// adding into `acc`: offsets in `f64`, `r²` from [`soft_r2`], `1/r³` from
/// [`inv_r3`], and each axis summed as `acc = fma(d, scale, acc)`. This is
/// the arithmetic of one `eval_subgroup` lane, which is what makes a
/// `group_size = 1` list replay [`seq_accel`] bitwise.
fn apply_sequence(acc: &mut Vec3, pos: Vec3, entries: &[(Vec3, f64)], gravity: f64, eps2: f64) {
    for &(src, m) in entries {
        let d = src - pos;
        let scale = gravity * m * inv_r3(soft_r2(d.x, d.y, d.z, eps2));
        *acc = Vec3::new(
            d.x.mul_add(scale, acc.x),
            d.y.mul_add(scale, acc.y),
            d.z.mul_add(scale, acc.z),
        );
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

/// Vector width of the batched evaluation: the members of one sub-group,
/// which the build's evaluator applies the list to together, one lane each.
/// 8 = one `zmm` of `f64` where the target has AVX-512F (`avx512.rs`), else
/// 4 = one `ymm`, the portable `eval_subgroup`. The lane count moves no
/// result bit: every lane sums its own member's entries in emission order.
pub const EVAL_LANES: usize = if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
    8
} else {
    4
};

// Sub-groups tile every group: none runs past the member columns.
const _: () = assert!(MAX_GROUP_SIZE.is_multiple_of(EVAL_LANES));

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512;

/// The build's evaluator of one sub-group and builder of its visit list;
/// each computes what its portable counterpart does.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use avx512::{evaluate, subgroup_entries as visit_list};
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use {eval_subgroup as evaluate, subgroup_entries as visit_list};

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
/// interaction lists, allocated as [`Region::ForceList`] so attribution
/// charges list traffic to its own region. Capacity is `node_capacity + n`:
/// a traversal emits at most one entry per tree node (accepted cells) plus
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
        let list = |q| SharedVec::new(env, cap, 0.0, Placement::Local(q), Region::ForceList);
        let rows = (0..procs)
            .map(|q| ForceRow {
                xs: list(q),
                ys: list(q),
                zs: list(q),
                ms: list(q),
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
/// applied with [`seq_accel`]'s per-entry arithmetic — bitwise identical
/// to it over the same octree.
///
/// **Evaluation** runs once per *sub-group* — an aligned run of
/// [`EVAL_LANES`] consecutive members, the vector lanes of
/// `eval_subgroup`: the whole dense half, then the partial entries whose
/// mask names one of its members (Morton-adjacent members accept and open
/// together, so most of a boundary-band entry's non-acceptors are never
/// evaluated at all), each member summing its own entries in emission
/// order with its mask bit as a 0/1 weight and every entry taking its own
/// `f32` square root and divide ([`inv_r3`]). A member's own body
/// contributes exactly zero, because `dx = dy = dz = 0` and [`R2_FLOOR`]
/// keeps the scale finite, so the loop has no branches. Exact per-body
/// interaction counts (dense length plus the member's partial entries,
/// minus its self appearances) are stored for costzones and
/// debug-asserted to tile the group total. Caller barriers afterwards.
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
    // from the masks for each sub-group (`visit_list`). Both grow
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
            let visits = visit_list(pmasks, m0 as u32, &mut pidx);
            let (ax, ay, az, pcnt) = evaluate(
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
const fn low_bits(k: usize) -> u64 {
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
/// The append is branch-free (store always, advance when a sub-group bit
/// is set): acceptance flips along the boundary band, so a branch here
/// would mispredict. `out` only ever grows, to the longest list seen.
///
/// This is the list builder of every target without AVX-512F; on a target
/// with it `avx512::subgroup_entries` returns the same list, eight masks
/// per pass, and the tests hold it to this loop.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
fn subgroup_entries(masks: &[u64], shift: u32, out: &mut Vec<u32>) -> usize {
    if out.len() < masks.len() {
        out.resize(masks.len(), 0);
    }
    let out = &mut out[..masks.len()];
    let mut len = 0;
    for (j, &mask) in masks.iter().enumerate() {
        out[len] = j as u32;
        len += usize::from((mask >> shift) & SUBGROUP_BITS != 0);
    }
    len
}

/// The mask bits of one sub-group, shifted down to bit 0.
const SUBGROUP_BITS: u64 = low_bits(EVAL_LANES);

/// What one sub-group's evaluation returns: each lane's acceleration as
/// `x`, `y`, `z` columns, and the number of partial entries that named it.
type SubgroupSums = (
    [f64; EVAL_LANES],
    [f64; EVAL_LANES],
    [f64; EVAL_LANES],
    [u32; EVAL_LANES],
);

/// One list entry as the lanes see it: its position and a weight per lane
/// (`G·m`, times the lane's mask bit in the partial half).
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
type LaneEntry = (Vec3, [f64; EVAL_LANES]);

/// One sub-group's lanes: the members' positions, one column per axis,
/// and one acceleration accumulator per member.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
struct Lanes {
    pos: [[f64; EVAL_LANES]; 3],
    acc: [[f64; EVAL_LANES]; 3],
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
impl Lanes {
    /// Apply one entry to every lane — [`apply_sequence`]'s step, one
    /// member per lane.
    #[inline(always)]
    fn apply(&mut self, (src, w): LaneEntry, eps2: f64) {
        let [px, py, pz] = &self.pos;
        let [ax, ay, az] = &mut self.acc;
        for l in 0..EVAL_LANES {
            let (dx, dy, dz) = (src.x - px[l], src.y - py[l], src.z - pz[l]);
            let scale = w[l] * inv_r3(soft_r2(dx, dy, dz, eps2));
            ax[l] = dx.mul_add(scale, ax[l]);
            ay[l] = dy.mul_add(scale, ay[l]);
            az[l] = dz.mul_add(scale, az[l]);
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
/// has one accumulator, summed in emission order, so a lane computes
/// exactly what [`apply_sequence`] does over the dense half and then the
/// visited entries. The loop is branch-free and every vector it issues
/// holds at least one real interaction; at `group_size = 1` that is the one
/// member, beside `EVAL_LANES − 1` padded lanes.
///
/// `dense` and `partial` are the row's halves as `(x, y, z, mass)`
/// columns. The partial half grows *down*: the entry of emission rank `j`
/// (mask `masks[j]`) sits at position `len - 1 - j`. Returns each lane's
/// acceleration and the number of partial entries that named it — its own
/// body, if present, included; the caller adds the dense length and
/// subtracts self appearances.
///
/// This is the portable evaluator, the kernel's on every target without
/// AVX-512F; on a target with it `avx512::eval_subgroup` computes the same
/// bits, and the tests hold it to this loop. `inline(never)`: compiled as
/// its own function the SLP vectorizer reliably turns the lane loop into
/// packed `f32` sqrt/divide on the four lanes (`vsqrtps`/`vdivps`) between
/// packed `f64` arithmetic — inlined into the (large, `Env`-generic) walk
/// it stays scalar, which costs ~2-4x on the kernel's throughput bound.
/// `check.sh` disassembles a portable build's copy to hold this.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
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
) -> SubgroupSums {
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
    for k in 0..n {
        lanes.apply(entry(k), eps2);
    }

    let n = masks.len();
    let partial = partial.map(|c| &c[..n]);
    let mut count = [0.0; EVAL_LANES];
    for &j in idx {
        let e = partial_entry(partial, masks, j, shift, gravity, &mut count);
        lanes.apply(e, eps2);
    }

    let [ax, ay, az] = lanes.acc;
    (ax, ay, az, count.map(|c| c as u32))
}

/// The partial entry of emission rank `j` as the sub-group at `shift` sees
/// it (weights `bit·G·m`), adding its mask bits to the lanes' `count` (in
/// `f64`, exact for any list length).
/// A function, not a closure, so that it is always inlined: a closure here
/// was left out of line, a call per entry.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
#[inline(always)]
fn partial_entry(
    [xs, ys, zs, ms]: [&[f64]; 4],
    masks: &[u64],
    j: u32,
    shift: u32,
    gravity: f64,
    count: &mut [f64; EVAL_LANES],
) -> LaneEntry {
    let bit = LANE_FACTORS[((masks[j as usize] >> shift) & SUBGROUP_BITS) as usize];
    let k = masks.len() - 1 - j as usize;
    let w = gravity * ms[k];
    for (c, b) in count.iter_mut().zip(bit) {
        *c += b;
    }
    (Vec3::new(xs[k], ys[k], zs[k]), bit.map(|b| b * w))
}

/// `LANE_FACTORS[b][l]` is bit `l` of `b` as 0.0 or 1.0: one load gives a
/// partial entry's lane factors (computed lane by lane, the bits vectorize
/// to eight shift, permute and blend instructions per entry).
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
const LANE_FACTORS: [[f64; EVAL_LANES]; 1 << EVAL_LANES] = {
    let mut t = [[0.0; EVAL_LANES]; 1 << EVAL_LANES];
    let mut i = 0;
    while i < t.len() * EVAL_LANES {
        t[i / EVAL_LANES][i % EVAL_LANES] = (((i / EVAL_LANES) >> (i % EVAL_LANES)) & 1) as f64;
        i += 1;
    }
    t
};

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
            let terms = (0..100)
                .filter(|&i| i != b as usize)
                .map(|i| pair_accel(pos[b as usize], pos[i], mass[i], &params).norm());
            let bound = TERM_ROUNDOFF * terms.sum::<f64>();
            let err = (bh - exact).norm();
            assert!(err <= bound, "body {b}: off by {err:e}, bound {bound:e}");
            assert_eq!(ints, 99);
        }
    }

    /// The `f32` roundoff of [`inv_r3`], as a relative bound per term. With
    /// `u = 2⁻²⁴` (`f32` unit roundoff), rounding `r²` to `f32` perturbs
    /// `r³ = (r²)^1.5` by at most `1.5u`, and the `sqrt`, the product and
    /// the divide are each correctly rounded, `u` apiece: `4.5u` to first
    /// order. The rest is `f64`: the differences and weights; the fused
    /// `r²` ([`soft_r2`]), whose three `fma`s each round once and add only
    /// non-negative terms, so it is within `3·2⁻⁵³` (`~3.3e-16`) relative
    /// of the exact `|d|² + ε²`; and the fused sums. So a sum of terms
    /// `tᵢ` is within `4.5u · Σ|tᵢ|` of the all-`f64` oracle; `5u` leaves
    /// room for the second-order terms.
    const TERM_ROUNDOFF: f64 = 5.0 * (f32::EPSILON as f64 / 2.0);

    #[test]
    fn inv_r3_is_within_f32_roundoff_and_never_nan() {
        // Log-spaced r² from ε² (the default ε = 0.05) to 1e6.
        let eps2 = 0.0025f64;
        let steps = 2000;
        let mut worst = 0.0f64;
        for i in 0..=steps {
            let r2 = eps2 * (1e6 / eps2).powf(f64::from(i) / f64::from(steps));
            let want = 1.0 / (r2 * r2.sqrt());
            let rel = ((inv_r3(r2) - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst <= TERM_ROUNDOFF, "worst relative error {worst:e}");
        // A zero offset at ε = 0 adds exactly 0: the floor keeps 1/r³
        // finite, so the zero offset is not multiplied by infinity.
        assert!(inv_r3(0.0).is_finite());
        let (pos, start) = (Vec3::new(0.3, -0.7, 0.1), Vec3::new(1.0, -2.0, 3.0));
        let mut acc = start;
        apply_sequence(&mut acc, pos, &[(pos, 1.5)], G, 0.0);
        assert_same_bits("own entry at ε = 0", acc, start);
        // Past f32 range r³ overflows to infinity: 0, never NaN.
        for r2 in [1e30, 1e40, f64::MAX, f64::INFINITY] {
            assert_eq!(inv_r3(r2).to_bits(), 0.0f64.to_bits(), "r² = {r2:e}");
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
    fn subgroup_bits(mask: u64, shift: u32) -> u64 {
        (mask >> shift) & SUBGROUP_BITS
    }

    /// The build's evaluator as the kernel drives it — index list from the
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
        eval_lanes_with(evaluate, dense, partial, masks, shift, lanes, eps2)
    }

    /// The signature every sub-group evaluator shares.
    type Evaluator = fn(
        [&[f64]; 4],
        [&[f64]; 4],
        &[u64],
        &[u32],
        u32,
        [[f64; EVAL_LANES]; 3],
        f64,
        f64,
    ) -> SubgroupSums;

    /// [`eval_lanes`] through the evaluator `eval`.
    fn eval_lanes_with(
        eval: Evaluator,
        dense: &[(Vec3, f64)],
        partial: &[(Vec3, f64)],
        masks: &[u64],
        shift: u32,
        lanes: &[Vec3; EVAL_LANES],
        eps2: f64,
    ) -> [(Vec3, u32); EVAL_LANES] {
        let (d, p) = (columns(dense, false), columns(partial, true));
        let mut idx = Vec::new();
        let visits = visit_list(masks, shift, &mut idx);
        let (ax, ay, az, cnt) = eval(
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
            .filter(|&(_, &mask)| subgroup_bits(mask, shift) != 0)
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
        // The first two sub-groups, the one below the middle and the last.
        let (l, half) = (EVAL_LANES as u32, MAX_GROUP_SIZE as u32 / 2);
        for shift in [0, l, half - l, 2 * half - l] {
            for dn in [0usize, 1, 6, 7] {
                for pn in [0usize, 1, 2, 7, 64, 301] {
                    let dense = random_entries(&mut rng, dn);
                    let partial = random_entries(&mut rng, pn);
                    let masks: Vec<u64> = (0..pn).map(|_| rng.next_u64()).collect();
                    let lanes = random_lanes(&mut rng);
                    let mut idx = Vec::new();
                    let visits = visit_list(&masks, shift, &mut idx);
                    let visited: Vec<u32> = (0..pn as u32)
                        .filter(|&j| subgroup_bits(masks[j as usize], shift) != 0)
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
        // Every member names every partial entry: each lane is
        // `apply_sequence` over the whole row in emission order, as
        // `seq_accel` sums a DFS.
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
        // A group tail one member short of a sub-group: no mask names its
        // last lane, and the kernel pads the lane with member 0's position.
        // It takes nothing from the partial half: exactly zero with no dense
        // half, exactly the dense half's sum with one.
        let mut rng = SmallRng::seed_from_u64(0x7061_6464);
        let (last, shift) = (EVAL_LANES - 1, EVAL_LANES as u32);
        let partial = random_entries(&mut rng, 50);
        let masks: Vec<u64> = (0..50)
            .map(|_| rng.next_u64() & (low_bits(last) << shift))
            .collect();
        let mut lanes = random_lanes(&mut rng);
        lanes[last] = lanes[0];
        for dn in [0, 5] {
            let dense = random_entries(&mut rng, dn);
            let got = eval_lanes(&dense, &partial, &masks, shift, &lanes, EPS2);
            assert!(got[..last].iter().all(|&(_, cnt)| cnt > 0));
            let mut dense_only = Vec3::ZERO;
            apply_sequence(&mut dense_only, lanes[last], &dense, G, EPS2);
            assert_same_bits(&format!("padded lane, dense {dn}"), got[last].0, dense_only);
            assert_eq!(got[last].1, 0);
        }
    }

    #[test]
    fn empty_index_list_returns_zeros_without_reading_the_row() {
        // Nothing dense and no mask names this sub-group: nothing is
        // visited, so not even a row of NaNs can reach the accumulators.
        let lanes = random_lanes(&mut SmallRng::seed_from_u64(1));
        let nans = vec![(Vec3::new(f64::NAN, f64::NAN, f64::NAN), f64::NAN); 12];
        let next_subgroup = [low_bits(EVAL_LANES) << EVAL_LANES; 12];
        for (acc, cnt) in eval_lanes(&[], &nans, &next_subgroup, 0, &lanes, EPS2) {
            assert_same_bits("unvisited", acc, Vec3::ZERO);
            assert_eq!(cnt, 0);
        }
    }

    #[test]
    fn a_members_own_entry_adds_exactly_zero_at_zero_softening() {
        // ε = 0: a member's own entry has r² = 0, floored at R2_FLOOR, so
        // its scale stays finite and its zero offset adds exactly nothing:
        // the lane equals the f64 oracle over the other entries to within
        // the f32 roundoff of each term.
        let mut rng = SmallRng::seed_from_u64(0x7a65_726f);
        let lanes = random_lanes(&mut rng);
        let mut dense = random_entries(&mut rng, 6);
        dense[2].0 = lanes[1];
        let mut partial = random_entries(&mut rng, 3);
        partial[0].0 = lanes[2];
        let shift = 2 * EVAL_LANES as u32;
        let masks = [SUBGROUP_BITS << shift; 3];
        let got = eval_lanes(&dense, &partial, &masks, shift, &lanes, 0.0);
        let params = ForceParams {
            theta: 1.0,
            eps: 0.0,
            gravity: G,
        };
        for (l, &(acc, _)) in got.iter().enumerate() {
            let (want, _) = scalar_lane(&dense, &partial, &masks, shift, l as u32, lanes[l], 0.0);
            assert_same_bits(&format!("lane {l}"), acc, want);
            let terms: Vec<Vec3> = dense
                .iter()
                .chain(&partial)
                .filter(|e| e.0 != lanes[l])
                .map(|e| pair_accel(lanes[l], e.0, e.1, &params))
                .collect();
            let direct = terms.iter().fold(Vec3::ZERO, |a, &t| a + t);
            let bound = TERM_ROUNDOFF * terms.iter().map(|t| t.norm()).sum::<f64>();
            let err = (acc - direct).norm();
            assert!(err <= bound, "lane {l}: {acc:?} vs {direct:?}");
        }
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn avx512_evaluator_matches_the_portable_loop_bit_for_bit() {
        // Every sub-group shift, odd and even lengths of both halves, dense
        // and sparse masks, a member's own entry in each half at ε = 0 and
        // ε > 0, and an entry far enough away that its `f32` r³ overflows.
        let mut rng = SmallRng::seed_from_u64(0x7a6d_6d38);
        for shift in (0..MAX_GROUP_SIZE).step_by(EVAL_LANES).map(|s| s as u32) {
            for dn in [0usize, 1, 2, 7, 64] {
                for pn in [0usize, 1, 2, 9, 130] {
                    for eps2 in [EPS2, 0.0] {
                        let lanes = random_lanes(&mut rng);
                        let mut dense = random_entries(&mut rng, dn);
                        let mut partial = random_entries(&mut rng, pn);
                        let masks: Vec<u64> = (0..pn)
                            .map(|j| match j % 2 {
                                0 => rng.next_u64(),
                                _ => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                            })
                            .collect();
                        if let Some(e) = dense.first_mut() {
                            e.0 = lanes[0];
                        }
                        if let Some(e) = dense.get_mut(1) {
                            e.0 = Vec3::new(1e25, 0.0, 0.0);
                        }
                        if let Some(e) = partial.last_mut() {
                            e.0 = lanes[EVAL_LANES - 1];
                        }
                        let run = |eval: Evaluator| {
                            eval_lanes_with(eval, &dense, &partial, &masks, shift, &lanes, eps2)
                        };
                        let (want, got) = (run(eval_subgroup), run(avx512::evaluate));
                        for (l, (g, w)) in got.iter().zip(&want).enumerate() {
                            let label =
                                format!("shift {shift} dense {dn} partial {pn} ε² {eps2} lane {l}");
                            assert_same_bits(&label, g.0, w.0);
                            assert_eq!(g.1, w.1, "{label}");
                        }
                    }
                }
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn avx512_list_builder_matches_the_portable_loop() {
        // Every sub-group shift; every slice length through five eight-mask
        // passes and each tail length; random, sparse, all-ones and
        // all-zero masks. Only `out[..len]` is the list.
        let mut rng = SmallRng::seed_from_u64(0x6c69_7374);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for shift in (0..MAX_GROUP_SIZE).step_by(EVAL_LANES).map(|s| s as u32) {
            for n in 0..=40 {
                let random: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                let sparse = (0..n)
                    .map(|_| rng.next_u64() & rng.next_u64() & rng.next_u64())
                    .collect();
                for masks in [random, sparse, vec![!0; n], vec![0; n]] {
                    let len = subgroup_entries(&masks, shift, &mut want);
                    assert_eq!(
                        avx512::subgroup_entries(&masks, shift, &mut got),
                        len,
                        "shift {shift} masks {masks:x?}"
                    );
                    assert_eq!(got[..len], want[..len], "shift {shift} masks {masks:x?}");
                }
            }
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
        fn alloc(&self, _: u64, _: u64, _: Placement, _: Region) -> crate::env::VAddr {
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
