//! The top-of-tree plan: how the processors split one tree among them.
//!
//! The scalable builders hand the top of the tree to no one in particular
//! and give each processor whole disjoint subtrees below it (SPACE's
//! subspaces). Producing the flat snapshot works the same way, whichever
//! description of the tree it starts from — the summarized linked octree
//! ([`crate::tree::flat`]) or MORTON's sorted key array
//! ([`crate::algorithms::morton`]) — so both build one [`Plan`]:
//!
//! * a **spine** of upper-tree cells in pre-order, expanded from the root
//!   while a cell holds more than `limit = max(n / (8P), k, 1)` bodies and
//!   its source lets it split, until [`PLAN_CAP`] is near;
//! * the **frontier**: every subtree hanging off the spine, in discovery
//!   (pre-order) order, each with its body count;
//! * an **owner** per frontier entry, greedy-LPT by body count
//!   ([`lpt_owners`], which SPACE's subspace assignment also uses).
//!
//! The plan is a pure function of post-barrier immutable state, so every
//! processor computes the same one. Each owner then counts its entries and
//! publishes the counts; after a barrier every processor prefix-sums them
//! into disjoint output segments ([`Plan::segment_bases`]), spine first,
//! so the root is always flat index 0.

use crate::env::Env;
use crate::tree::flat::FlatTree;

/// Hard cap on plan size (spine cells + frontier entries). Expansion stops
/// at the cap; correctness is unaffected, balance degrades gracefully. The
/// per-entry publication arrays of both sources are sized by it.
pub(crate) const PLAN_CAP: usize = 4096;

/// Where a plan comes from: a tree read top-down, in octant order.
pub(crate) trait PlanSource {
    /// A subtree root (a spine cell or a frontier entry).
    type Node: Copy;
    /// A node's children, in octant order.
    type Kids: IntoIterator<Item = Self::Node>;

    /// The root and its body count.
    fn root<E: Env>(&self, env: &E, ctx: &mut E::Ctx) -> (Self::Node, u32);

    /// The children of a node the plan expands.
    fn children<E: Env>(&self, env: &E, ctx: &mut E::Ctx, node: &Self::Node) -> Self::Kids;

    /// Classify one child, right before the plan decides whether to expand
    /// it: `None` to skip it, else its body count and whether it may split.
    fn classify<E: Env>(&self, env: &E, ctx: &mut E::Ctx, kid: &Self::Node) -> Option<(u32, bool)>;
}

/// A child of a spine cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpineKid {
    /// Another spine cell, by pre-order index (== its flat node index).
    Spine(u32),
    /// A frontier entry, by entry index.
    Sub(u32),
}

impl SpineKid {
    /// The child's flat node index, given the frontier's segment bases.
    pub(crate) fn flat_index(self, bases: &[Cursors]) -> u32 {
        match self {
            SpineKid::Spine(j) => j,
            SpineKid::Sub(i) => bases[i as usize].node,
        }
    }
}

/// Running output cursors of one segment (node, CSR kid slot, CSR body);
/// as a segment base, where the segment starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cursors {
    pub node: u32,
    pub kid: u32,
    pub body: u32,
}

/// The deterministic top-of-tree plan over nodes of type `N`.
pub struct Plan<N> {
    /// Frontier subtree roots in discovery (pre-order) order.
    pub(crate) subs: Vec<N>,
    /// Body count of each frontier entry (the LPT weight).
    pub(crate) weights: Vec<u64>,
    /// Upper-tree cells in pre-order with their children; `spine[0]` is
    /// the root (empty when the root itself is the only frontier entry).
    pub(crate) spine: Vec<(N, Vec<SpineKid>)>,
    pub(crate) spine_kids_total: usize,
    pub(crate) owner: Vec<u8>,
}

impl<N: Copy> Plan<N> {
    /// Build the plan from `src` with leaf threshold `k`; identical on
    /// every processor.
    pub(crate) fn build<E: Env, S: PlanSource<Node = N>>(
        env: &E,
        ctx: &mut E::Ctx,
        src: &S,
        k: usize,
    ) -> Plan<N> {
        let p = env.num_procs();
        let (root, n) = src.root(env, ctx);
        // Aim for a handful of subtrees per processor: fine enough for LPT
        // balance, coarse enough that the spine stays tiny.
        let limit = (n as usize / (8 * p)).max(k).max(1);
        let mut plan = Plan {
            subs: Vec::new(),
            weights: Vec::new(),
            spine: Vec::new(),
            spine_kids_total: 0,
            owner: Vec::new(),
        };
        if n as usize > limit {
            plan.expand(env, ctx, src, limit, root);
        } else {
            plan.push_sub(root, n);
        }
        plan.spine_kids_total = plan.spine.iter().map(|(_, kids)| kids.len()).sum();
        assert!(
            plan.subs.len() <= PLAN_CAP,
            "top-of-tree plan overflow ({} entries)",
            plan.subs.len()
        );
        plan.owner = lpt_owners(env, ctx, &plan.weights);
        plan
    }

    fn push_sub(&mut self, node: N, weight: u32) -> u32 {
        self.subs.push(node);
        self.weights.push(weight as u64);
        self.subs.len() as u32 - 1
    }

    /// Record `node` (heavier than `limit`) as a spine cell and classify
    /// its children. Returns the cell's spine index.
    fn expand<E: Env, S: PlanSource<Node = N>>(
        &mut self,
        env: &E,
        ctx: &mut E::Ctx,
        src: &S,
        limit: usize,
        node: N,
    ) -> u32 {
        let j = self.spine.len() as u32;
        self.spine.push((node, Vec::new()));
        for kid in src.children(env, ctx, &node) {
            let Some((weight, may_split)) = src.classify(env, ctx, &kid) else {
                continue;
            };
            let room = self.spine.len() + self.subs.len() + 16 <= PLAN_CAP;
            let entry = if may_split && weight as usize > limit && room {
                SpineKid::Spine(self.expand(env, ctx, src, limit, kid))
            } else {
                SpineKid::Sub(self.push_sub(kid, weight))
            };
            self.spine[j as usize].1.push(entry);
        }
        j
    }

    /// The frontier entries `proc` owns, with their entry indices.
    pub(crate) fn owned(&self, proc: usize) -> impl Iterator<Item = (usize, &N)> {
        self.subs
            .iter()
            .enumerate()
            .filter(move |&(i, _)| self.owner[i] as usize == proc)
    }

    /// Segment bases of every frontier entry plus a final (total nodes,
    /// total kid slots, total bodies) sentinel, from each entry's published
    /// `(nodes, kid slots, bodies)` as `counts(i)` reads them; spine first,
    /// so the root is flat index 0. Identical on every processor. Asserts
    /// snapshot capacity.
    pub(crate) fn segment_bases(
        &self,
        flat: &FlatTree,
        mut counts: impl FnMut(usize) -> (u32, u32, u32),
    ) -> Vec<Cursors> {
        let mut at = Cursors {
            node: self.spine.len() as u32,
            kid: self.spine_kids_total as u32,
            body: 0,
        };
        let mut bases = Vec::with_capacity(self.subs.len() + 1);
        for i in 0..self.subs.len() {
            bases.push(at);
            let (nn, nk, nb) = counts(i);
            at.node += nn;
            at.kid += nk;
            at.body += nb;
        }
        bases.push(at);
        assert!(
            (at.node as usize) <= flat.node_capacity() && (at.kid as usize) <= flat.kid_capacity(),
            "flat snapshot capacity exceeded ({} nodes, {} kid slots)",
            at.node,
            at.kid
        );
        bases
    }
}

/// Greedy longest-processing-time assignment of weighted items to the
/// `env.num_procs()` processors: heaviest first (equal weights in
/// descending index order), each to the least-loaded processor (ties to
/// the lowest id). Deterministic, so every processor computes the same
/// owners. Charges 8 cycles per item.
pub(crate) fn lpt_owners<E: Env>(env: &E, ctx: &mut E::Ctx, weights: &[u64]) -> Vec<u8> {
    let p = env.num_procs();
    let mut by_weight: Vec<(u64, u32)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, i as u32))
        .collect();
    by_weight.sort_unstable_by(|a, b| b.cmp(a));
    let mut load = vec![0u64; p];
    let mut owner = vec![0u8; weights.len()];
    for &(w, i) in &by_weight {
        let q = (0..p).min_by_key(|&q| (load[q], q)).unwrap();
        load[q] += w;
        owner[i as usize] = q as u8;
        env.compute(ctx, 8);
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::bounds_phase;
    use crate::algorithms::morton::{self, MortonScratch};
    use crate::algorithms::{Algorithm, Builder};
    use crate::app::SimConfig;
    use crate::env::NativeEnv;
    use crate::harness::WorkerPool;
    use crate::model::Model;
    use crate::tree::SharedTree;
    use crate::world::World;
    use std::sync::Mutex;

    /// Everything two plans of one tree must agree on: the spine's shape,
    /// the frontier weights in order, the owners and the segment bases.
    #[derive(Debug, PartialEq)]
    struct Shape {
        spine: Vec<Vec<SpineKid>>,
        weights: Vec<u64>,
        owner: Vec<u8>,
        bases: Vec<Cursors>,
    }

    impl<N> Plan<N> {
        fn shape(&self, bases: Vec<Cursors>) -> Shape {
            Shape {
                spine: self.spine.iter().map(|(_, kids)| kids.clone()).collect(),
                weights: self.weights.clone(),
                owner: self.owner.clone(),
                bases,
            }
        }
    }

    #[test]
    fn linked_tree_and_sorted_keys_give_the_same_plan() {
        // A LOCAL tree (no husks) and MORTON's sorted keys over the same
        // bodies both describe the sequential reference octree, so the two
        // sources must produce one plan and one set of segment bases.
        let n = 2048;
        let bodies = Model::Plummer.generate(n, 1998);
        let k = SimConfig::new(Algorithm::Local).k;
        for procs in [1, 2, 4] {
            let env = NativeEnv::new(procs);
            let pool = WorkerPool::new(procs);
            let world = World::new(&env, &bodies);
            let layout = Algorithm::Local.layout();
            let tree = SharedTree::new(&env, n, k, layout);
            let flat = FlatTree::new(&env, n, k, layout);
            let scratch = MortonScratch::new(&env, n);
            let builder = Builder::new(&env, Algorithm::Local, n, k);
            let shapes = Mutex::new(None);
            pool.run(&env, |proc, ctx| {
                let cube = bounds_phase(&env, ctx, &world, proc);
                builder.build(&env, ctx, &tree, &world, proc, 0, cube);
                env.barrier(ctx);
                builder.com(&env, ctx, &tree, &world, proc, 0);
                env.barrier(ctx);
                let linked = flat.plan(&env, ctx, &tree);
                flat.publish_counts(&env, ctx, &tree, &linked, proc);
                morton::sort_keys(&env, ctx, &world, &scratch, &cube, proc);
                let sorted = morton::plan(&env, ctx, &scratch, n, k, cube);
                morton::publish_counts(&env, ctx, &scratch, &sorted, k, proc);
                env.barrier(ctx);
                if proc == 0 {
                    let a = linked.shape(flat.segment_bases(&env, ctx, &linked));
                    let b = morton::segment_bases(&env, ctx, &flat, &scratch, &sorted);
                    *shapes.lock().unwrap() = Some((a, sorted.shape(b)));
                }
            });
            let (linked, sorted) = shapes.into_inner().unwrap().unwrap();
            assert!(linked.spine.len() > 1, "P = {procs}: the spine must branch");
            assert_eq!(linked, sorted, "P = {procs}");
        }
    }
}
