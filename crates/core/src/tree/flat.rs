//! Flat traversal snapshot of the shared octree.
//!
//! After the summarization barrier the tree is immutable until the next
//! rebuild, so the force phase does not need the pointer-chasing
//! `SharedTree` representation at all. The processors cooperatively copy
//! the live tree into a compact structure-of-arrays snapshot — one 48-byte
//! record per node (center of mass, mass, half side, CSR child range) in
//! depth-first order, with husk cells and empty leaves pruned — and the
//! force walk becomes an iterative, explicit-stack scan over plain arrays.
//!
//! The snapshot is still stored in [`SharedVec`]s so every access is
//! reported to the environment: under `NativeEnv` the accounting inlines to
//! nothing and the walk runs at memory speed, while under `ssmp` the
//! flatten pass is charged as a real one-time cost and the walk's smaller
//! records (48 bytes vs a ~100-byte cell plus a 32-byte child vector)
//! show up as genuinely cheaper traffic.
//!
//! # One plan, two sources
//!
//! Flattening is deterministic and atomics-free. It follows the
//! top-of-tree [`Plan`] that MORTON's emission also follows
//! ([`crate::tree::plan`]); this module is the plan's *linked-tree*
//! source, which reads each child's record as the plan walks the spine.
//!
//! 1. **Plan** (every processor, identical result): [`FlatTree::plan`]
//!    expands cells with more than `n/(8P)` bodies into a spine, husks and
//!    empty leaves skipped, and assigns the frontier subtrees greedy-LPT.
//! 2. **Publish** (owners): each processor walks its claimed subtrees once,
//!    counting nodes / child slots / bodies, and publishes the three counts
//!    per entry into `sub_counts`.
//! 3. Barrier (the caller's), then **fill**: every processor prefix-sums
//!    the published counts into the plan's segment bases and emits its
//!    claimed subtrees into its segments; processor 0 emits the spine,
//!    pointing at the segment bases. The caller's next barrier (end of the
//!    partition phase) separates these writes from the force phase's
//!    reads.
//!
//! Child order within a node is octant order, exactly the order the
//! sequential reference (`force::seq_accel` over a `SeqTree`) visits
//! children in, so a per-body list over the snapshot performs the same
//! floating-point operations in the same order and produces bitwise
//! identical accelerations (enforced by `tests/flat_force.rs`).

use crate::env::{Env, Placement, Region};
use crate::math::Vec3;
use crate::shared::SharedVec;
use crate::tree::plan::{Cursors, Plan, PlanSource, PLAN_CAP};
use crate::tree::types::{Cell, Leaf, NodeRef, SharedTree, TreeCapacity};

/// Tag bit marking a leaf record; the low bits hold the child/body count.
pub const LEAF_TAG: u32 = 1 << 31;

/// One snapshot node: summary quantities plus a CSR range — `first` indexes
/// [`FlatTree::kids`] for cells and [`FlatTree::bodies`] for leaves.
#[derive(Debug, Clone, Copy)]
pub struct FlatNode {
    pub com: Vec3,
    pub mass: f64,
    /// Half side length of the node's cube (the opening test needs `2*half`).
    pub half: f64,
    pub first: u32,
    /// `LEAF_TAG | body count` for leaves, child count for cells.
    pub tag: u32,
}

impl FlatNode {
    fn zero() -> FlatNode {
        FlatNode {
            com: Vec3::ZERO,
            mass: 0.0,
            half: 0.0,
            first: 0,
            tag: 0,
        }
    }

    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.tag & LEAF_TAG != 0
    }

    /// Child count (cells) or body count (leaves).
    #[inline]
    pub fn count(&self) -> u32 {
        self.tag & !LEAF_TAG
    }
}

/// The flatten plan: the top-of-tree [`Plan`] over linked-tree nodes.
/// Every processor computes an identical plan from the (immutable)
/// summarized tree.
pub type FlatPlan = Plan<NodeRef>;

/// The summarized linked tree as a [`PlanSource`].
struct Linked<'a>(&'a SharedTree);

impl PlanSource for Linked<'_> {
    type Node = NodeRef;
    type Kids = [NodeRef; 8];

    fn root<E: Env>(&self, env: &E, ctx: &mut E::Ctx) -> (NodeRef, u32) {
        let root = self.0.root.load(env, ctx, 0);
        (root, self.0.load_cell(env, ctx, root).count)
    }

    fn children<E: Env>(&self, env: &E, ctx: &mut E::Ctx, cell: &NodeRef) -> [NodeRef; 8] {
        self.0.children(env, ctx, *cell)
    }

    /// Null slots, husks and empty leaves are skipped; a leaf never splits.
    fn classify<E: Env>(&self, env: &E, ctx: &mut E::Ctx, kid: &NodeRef) -> Option<(u32, bool)> {
        if kid.is_null() {
            return None;
        }
        match load_included(env, ctx, self.0, *kid)? {
            Rec::L(l) => Some((l.n, false)),
            Rec::C(c) => Some((c.count, true)),
        }
    }
}

/// The flat snapshot storage. Allocated once per run and refilled every
/// step; sized like the tree arenas it mirrors.
pub struct FlatTree {
    pub nodes: SharedVec<FlatNode>,
    pub kids: SharedVec<u32>,
    pub bodies: SharedVec<u32>,
    /// Published per-entry counts: `[3i] = nodes, [3i+1] = kid slots,
    /// [3i+2] = bodies` of frontier entry `i`.
    sub_counts: SharedVec<u32>,
}

/// A preloaded node record (loaded once to decide inclusion, then reused
/// for emission).
enum Rec {
    L(Leaf),
    C(Cell),
}

impl FlatTree {
    /// Allocate snapshot storage for up to `n` bodies with leaf threshold
    /// `k` on `p` processors (untimed setup, like the tree arenas).
    pub fn new<E: Env>(env: &E, n: usize, k: usize, layout: crate::tree::TreeLayout) -> FlatTree {
        let p = env.num_procs();
        let cap = TreeCapacity::plan(n, k, p, layout);
        let arenas = match layout {
            crate::tree::TreeLayout::GlobalArena => 1,
            crate::tree::TreeLayout::PerProcessor => p,
        };
        // Every live node appears once; every node except the root is a
        // child slot exactly once; every body lives in exactly one leaf.
        let nodes_cap = (cap.cells_per_arena + cap.leaves_per_arena) * arenas;
        let (g, r) = (Placement::Global, Region::FlatTree);
        FlatTree {
            nodes: SharedVec::new(env, nodes_cap, FlatNode::zero(), g, r),
            kids: SharedVec::new(env, nodes_cap, 0, g, r),
            bodies: SharedVec::new(env, n.max(1), 0, g, r),
            sub_counts: SharedVec::new(env, 3 * PLAN_CAP, 0, g, r),
        }
    }

    /// Reset the snapshot storage to its freshly-allocated bytes (untimed).
    /// `SimEngine` does not call this between jobs: the per-step flatten
    /// protocol (and MORTON's emission) overwrites every slot it later
    /// reads. The benchmark's staged mirror of the engine does.
    pub fn reset(&self) {
        self.nodes.fill(FlatNode::zero());
        self.kids.fill(0);
        self.bodies.fill(0);
        self.sub_counts.fill(0);
    }

    /// Overwrite every slot with garbage, so a test can show a run reads
    /// nothing here it did not write.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        self.nodes.fill(FlatNode {
            com: Vec3::splat(f64::NAN),
            mass: f64::NAN,
            half: f64::NAN,
            first: u32::MAX,
            tag: u32::MAX,
        });
        for v in [&self.kids, &self.bodies, &self.sub_counts] {
            v.fill(u32::MAX);
        }
    }

    /// Construct-in-place entry point: store one node record (timed).
    /// Used by builders that emit the snapshot directly (MORTON) instead
    /// of flattening a linked tree.
    #[inline]
    pub fn put_node<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize, node: FlatNode) {
        self.nodes.store(env, ctx, i, node);
    }

    /// Construct-in-place entry point: store one CSR child slot (timed).
    #[inline]
    pub fn put_kid<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize, kid: u32) {
        self.kids.store(env, ctx, i, kid);
    }

    /// Construct-in-place entry point: store one CSR leaf body (timed).
    #[inline]
    pub fn put_body<E: Env>(&self, env: &E, ctx: &mut E::Ctx, i: usize, body: u32) {
        self.bodies.store(env, ctx, i, body);
    }

    /// Capacity of the node array (direct builders assert against it).
    pub fn node_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Capacity of the CSR child-slot array.
    pub fn kid_capacity(&self) -> usize {
        self.kids.len()
    }

    /// Phase 1 of the flatten: compute the deterministic plan. Identical on
    /// every processor (all inputs are post-barrier immutable tree state).
    pub fn plan<E: Env>(&self, env: &E, ctx: &mut E::Ctx, tree: &SharedTree) -> FlatPlan {
        Plan::build(env, ctx, &Linked(tree), tree.k)
    }

    /// Phase 2: each owner counts its claimed subtrees and publishes the
    /// per-entry totals. The caller barriers afterwards.
    pub fn publish_counts<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        tree: &SharedTree,
        plan: &FlatPlan,
        proc: usize,
    ) {
        for (i, &node) in plan.owned(proc) {
            let rec = load_included(env, ctx, tree, node).expect("frontier entry became a husk");
            let (nn, nk, nb) = count_subtree(env, ctx, tree, node, &rec);
            self.sub_counts.store(env, ctx, 3 * i, nn);
            self.sub_counts.store(env, ctx, 3 * i + 1, nk);
            self.sub_counts.store(env, ctx, 3 * i + 2, nb);
        }
    }

    /// Phase 3: prefix-sum the published counts into disjoint segments and
    /// emit. The root always lands at flat index 0. Returns the total node
    /// count. The caller's next barrier separates these writes from the
    /// force phase's reads.
    pub fn fill<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        tree: &SharedTree,
        plan: &FlatPlan,
        proc: usize,
    ) -> u32 {
        let bases = self.segment_bases(env, ctx, plan);
        for (i, &node) in plan.owned(proc) {
            let mut cur = bases[i];
            let rec = load_included(env, ctx, tree, node).expect("frontier entry became a husk");
            let at = self.emit(env, ctx, tree, node, rec, &mut cur);
            debug_assert_eq!(at, bases[i].node);
        }

        // Processor 0 emits the spine: its cells sit at flat indices
        // [0, spine.len()) in pre-order, kid slots at [0, spine_kids_total).
        if proc == 0 {
            let mut kid_cur = 0u32;
            for (j, (node, kids)) in plan.spine.iter().enumerate() {
                let c = tree.load_cell(env, ctx, *node);
                let first = kid_cur;
                for kid in kids {
                    let idx = kid.flat_index(&bases);
                    self.kids.store(env, ctx, kid_cur as usize, idx);
                    kid_cur += 1;
                }
                self.nodes.store(
                    env,
                    ctx,
                    j,
                    FlatNode {
                        com: c.com,
                        mass: c.mass,
                        half: c.half,
                        first,
                        tag: kids.len() as u32,
                    },
                );
            }
        }
        bases[plan.subs.len()].node
    }

    /// The plan's segment bases from the published per-entry counts.
    pub(crate) fn segment_bases<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        plan: &FlatPlan,
    ) -> Vec<Cursors> {
        plan.segment_bases(self, |i| {
            (
                self.sub_counts.load(env, ctx, 3 * i),
                self.sub_counts.load(env, ctx, 3 * i + 1),
                self.sub_counts.load(env, ctx, 3 * i + 2),
            )
        })
    }

    /// Emit one subtree in pre-order, children in octant order. Returns the
    /// node's flat index.
    fn emit<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        tree: &SharedTree,
        node: NodeRef,
        rec: Rec,
        cur: &mut Cursors,
    ) -> u32 {
        let my = cur.node;
        cur.node += 1;
        match rec {
            Rec::L(l) => {
                let first = cur.body;
                for &b in l.body_slice() {
                    self.bodies.store(env, ctx, cur.body as usize, b);
                    cur.body += 1;
                }
                self.nodes.store(
                    env,
                    ctx,
                    my as usize,
                    FlatNode {
                        com: l.com,
                        mass: l.mass,
                        half: l.half,
                        first,
                        tag: LEAF_TAG | l.n,
                    },
                );
            }
            Rec::C(c) => {
                let mut included: Vec<(NodeRef, Rec)> = Vec::with_capacity(8);
                for ch in tree.children(env, ctx, node) {
                    if ch.is_null() {
                        continue;
                    }
                    if let Some(chrec) = load_included(env, ctx, tree, ch) {
                        included.push((ch, chrec));
                    }
                }
                let first = cur.kid;
                cur.kid += included.len() as u32;
                self.nodes.store(
                    env,
                    ctx,
                    my as usize,
                    FlatNode {
                        com: c.com,
                        mass: c.mass,
                        half: c.half,
                        first,
                        tag: included.len() as u32,
                    },
                );
                for (off, (chref, chrec)) in included.into_iter().enumerate() {
                    let idx = self.emit(env, ctx, tree, chref, chrec, cur);
                    self.kids.store(env, ctx, first as usize + off, idx);
                }
            }
        }
        my
    }
}

/// Load a child node iff the force walk would visit it: leaves with bodies,
/// cells with bodies and mass (husks contribute nothing).
fn load_included<E: Env>(env: &E, ctx: &mut E::Ctx, tree: &SharedTree, r: NodeRef) -> Option<Rec> {
    if r.is_leaf() {
        let l = tree.load_leaf(env, ctx, r);
        (l.n > 0).then_some(Rec::L(l))
    } else {
        let c = tree.load_cell(env, ctx, r);
        (c.count > 0 && c.mass != 0.0).then_some(Rec::C(c))
    }
}

/// Count (nodes, kid slots, bodies) of the live subtree at `node`.
fn count_subtree<E: Env>(
    env: &E,
    ctx: &mut E::Ctx,
    tree: &SharedTree,
    node: NodeRef,
    rec: &Rec,
) -> (u32, u32, u32) {
    match rec {
        Rec::L(l) => (1, 0, l.n),
        Rec::C(_) => {
            let (mut nn, mut nk, mut nb) = (1, 0, 0);
            for ch in tree.children(env, ctx, node) {
                if ch.is_null() {
                    continue;
                }
                if let Some(chrec) = load_included(env, ctx, tree, ch) {
                    let (a, b, c) = count_subtree(env, ctx, tree, ch, &chrec);
                    nn += a;
                    nk += b + 1;
                    nb += c;
                }
            }
            (nn, nk, nb)
        }
    }
}
