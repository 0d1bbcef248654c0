//! Untimed tree traversal, invariant validation, and structural comparison
//! with the sequential reference tree. Used by tests and by the experiment
//! harness's self-checks (every platform run validates the tree it built).

use crate::math::morton::{key_in_cube, MORTON_BITS};
use crate::math::{Aabb, Cube, Vec3};
use crate::tree::flat::FlatTree;
use crate::tree::seq::SeqTree;
use crate::tree::types::{NodeRef, SharedTree};
use crate::world::World;

/// Summary of a validated tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeSummary {
    pub cells: usize,
    pub leaves: usize,
    pub bodies: usize,
    pub depth: usize,
    pub mass: f64,
}

/// Validation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOpts {
    /// Verify center-of-mass quantities (only valid after the CoM phase).
    pub check_summaries: bool,
    /// Tolerate internal cells with zero children. The UPDATE algorithm's
    /// leaf reclamation can leave such "husk" cells in the tree; all other
    /// algorithms must never produce them.
    pub allow_empty_cells: bool,
}

/// Walk the shared tree and check every structural invariant. Returns a
/// summary or a description of the first violation. `positions`/`masses`
/// give current body state; `check_summaries` additionally verifies the
/// center-of-mass quantities (only valid after the CoM phase).
pub fn validate(
    tree: &SharedTree,
    positions: &[Vec3],
    masses: &[f64],
    check_summaries: bool,
) -> Result<TreeSummary, String> {
    validate_with(
        tree,
        positions,
        masses,
        ValidateOpts {
            check_summaries,
            allow_empty_cells: false,
        },
    )
}

/// [`validate`] with explicit options.
pub fn validate_with(
    tree: &SharedTree,
    positions: &[Vec3],
    masses: &[f64],
    opts: ValidateOpts,
) -> Result<TreeSummary, String> {
    let root = tree.root.peek(0);
    if root.is_null() {
        return Err("root is NULL".into());
    }
    if !root.is_cell() {
        return Err("root is not a cell".into());
    }
    let mut seen = vec![false; positions.len()];
    let mut summary = TreeSummary {
        cells: 0,
        leaves: 0,
        bodies: 0,
        depth: 0,
        mass: 0.0,
    };
    let (mass, _com, count) = walk(
        tree,
        root,
        NodeRef::NULL,
        0,
        positions,
        masses,
        opts,
        &mut seen,
        &mut summary,
    )?;
    if count as usize != positions.len() {
        return Err(format!(
            "tree holds {count} bodies, expected {}",
            positions.len()
        ));
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(format!("body {missing} missing from tree"));
    }
    summary.mass = mass;
    Ok(summary)
}

/// Check UPDATE's forwarding pointers: every body's `body_leaf` names an
/// in-use leaf that lists it. A lost forwarding store, which the tree walk
/// of [`validate_with`] cannot see, fails here.
pub fn body_leaves(tree: &SharedTree, world: &World) -> Result<(), String> {
    for b in 0..world.n {
        let leaf = NodeRef(world.body_leaf.peek(b));
        let l = leaf.is_leaf().then(|| tree.peek_leaf(leaf));
        if !l.is_some_and(|l| l.in_use && l.body_slice().contains(&(b as u32))) {
            let in_use = l.map(|l| l.in_use);
            return Err(format!(
                "body {b}: body_leaf names {leaf:?} (in use: {in_use:?}), which does not list it"
            ));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn walk(
    tree: &SharedTree,
    node: NodeRef,
    parent: NodeRef,
    depth: usize,
    positions: &[Vec3],
    masses: &[f64],
    opts: ValidateOpts,
    seen: &mut [bool],
    summary: &mut TreeSummary,
) -> Result<(f64, Vec3, u32), String> {
    let check_summaries = opts.check_summaries;
    summary.depth = summary.depth.max(depth);
    if node.is_leaf() {
        let l = tree.peek_leaf(node);
        summary.leaves += 1;
        if !l.in_use {
            return Err(format!("leaf {node:?} reachable but not in use"));
        }
        if l.parent != parent {
            return Err(format!(
                "leaf {node:?} parent pointer wrong: {:?} != {parent:?}",
                l.parent
            ));
        }
        if l.n as usize > tree.k {
            return Err(format!("leaf {node:?} holds {} bodies > k={}", l.n, tree.k));
        }
        if l.n == 0 {
            return Err(format!("leaf {node:?} is empty"));
        }
        let mut mass = 0.0;
        let mut weighted = Vec3::ZERO;
        for &b in l.body_slice() {
            let b = b as usize;
            if b >= positions.len() {
                return Err(format!("leaf {node:?} holds invalid body id {b}"));
            }
            if seen[b] {
                return Err(format!("body {b} appears twice"));
            }
            seen[b] = true;
            if !l.cube().contains(positions[b]) {
                return Err(format!(
                    "body {b} at {:?} outside leaf cube {:?}",
                    positions[b],
                    l.cube()
                ));
            }
            mass += masses[b];
            weighted += positions[b] * masses[b];
        }
        summary.bodies += l.n as usize;
        if check_summaries {
            if (l.mass - mass).abs() > 1e-9 * mass.abs().max(1.0) {
                return Err(format!("leaf {node:?} mass {} != {}", l.mass, mass));
            }
            let com = weighted / mass;
            if (l.com - com).norm() > 1e-9 * (1.0 + com.norm()) {
                return Err(format!("leaf {node:?} com {:?} != {:?}", l.com, com));
            }
        }
        return Ok((
            mass,
            if mass > 0.0 {
                weighted / mass
            } else {
                Vec3::ZERO
            },
            l.n,
        ));
    }
    if !node.is_cell() {
        return Err(format!("dangling reference {node:?}"));
    }
    let c = tree.peek_cell(node);
    let children = tree.peek_children(node);
    summary.cells += 1;
    if !c.in_use {
        return Err(format!("cell {node:?} reachable but not in use"));
    }
    if c.parent != parent {
        return Err(format!(
            "cell {node:?} parent pointer wrong: {:?} != {parent:?}",
            c.parent
        ));
    }
    let nchild = children.iter().filter(|ch| !ch.is_null()).count();
    if nchild == 0 && !opts.allow_empty_cells {
        return Err(format!("cell {node:?} has no children"));
    }
    let pending = tree.pending_peek(node);
    if pending != nchild as u32 {
        return Err(format!(
            "cell {node:?} pending={} != non-null children {}",
            pending, nchild
        ));
    }
    let mut mass = 0.0;
    let mut weighted = Vec3::ZERO;
    let mut count = 0;
    for (oct, &ch) in children.iter().enumerate() {
        if ch.is_null() {
            continue;
        }
        // Geometry: the child must represent exactly this octant of the cell.
        let expect = c.cube().octant(oct);
        let (ch_center, ch_half, ch_oct) = if ch.is_cell() {
            let cc = tree.peek_cell(ch);
            (cc.center, cc.half, cc.octant_in_parent)
        } else {
            let ll = tree.peek_leaf(ch);
            (ll.center, ll.half, ll.octant_in_parent)
        };
        if ch_oct as usize != oct {
            return Err(format!(
                "child {ch:?} octant_in_parent={} stored in slot {oct}",
                ch_oct
            ));
        }
        let tol = 1e-9 * (1.0 + expect.half);
        if (ch_center - expect.center).norm() > tol || (ch_half - expect.half).abs() > tol {
            return Err(format!(
                "child {ch:?} cube ({ch_center:?}, {ch_half}) != expected octant ({:?}, {})",
                expect.center, expect.half
            ));
        }
        let (m, com, n) = walk(
            tree,
            ch,
            node,
            depth + 1,
            positions,
            masses,
            opts,
            seen,
            summary,
        )?;
        mass += m;
        weighted += com * m;
        count += n;
    }
    if check_summaries {
        if (c.mass - mass).abs() > 1e-9 * mass.abs().max(1.0) {
            return Err(format!("cell {node:?} mass {} != {}", c.mass, mass));
        }
        if c.count != count {
            return Err(format!("cell {node:?} count {} != {}", c.count, count));
        }
        let com = if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        };
        if (c.com - com).norm() > 1e-9 * (1.0 + com.norm()) {
            return Err(format!("cell {node:?} com {:?} != {:?}", c.com, com));
        }
    }
    Ok((
        mass,
        if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        },
        count,
    ))
}

/// Validate a flat snapshot built *directly* by the MORTON sort-then-emit
/// path against a sequential reference derived the same way: sort the
/// (quantized Morton key, body id) pairs, then the tree is the unique
/// recursive range partition that splits ranges of more than `k` bodies.
/// Using the same quantized routing as the parallel builder (rather than
/// the floating-point `SeqTree` descent) keeps the comparison exact — the
/// two routings can disagree for bodies within rounding distance of an
/// octant plane.
///
/// Checks, per node walked from flat index 0 (always the root):
/// leaf/cell decision matches the split rule, leaves hold exactly the
/// reference range's bodies in ascending id order at CSR offset `lo`,
/// cells have one child per nonempty octant sub-range in octant order,
/// cube geometry follows `octant()` subdivision from the enclosing root
/// cube, and mass / center-of-mass summaries recompute bottom-up.
pub fn validate_flat_morton(
    flat: &FlatTree,
    positions: &[Vec3],
    masses: &[f64],
    k: usize,
) -> Result<TreeSummary, String> {
    let n = positions.len();
    if n == 0 {
        return Err("MORTON validation needs at least one body".into());
    }
    // Bitwise identical to the parallel bounds reduction: min/max are exact
    // and order-independent.
    let cube = Cube::enclosing(&Aabb::from_points(positions.iter().copied()));
    let mut pairs: Vec<(u64, u32)> = positions
        .iter()
        .enumerate()
        .map(|(i, p)| (key_in_cube(*p, &cube), i as u32))
        .collect();
    pairs.sort_unstable();

    let mut summary = TreeSummary {
        cells: 0,
        leaves: 0,
        bodies: 0,
        depth: 0,
        mass: 0.0,
    };
    let r = FlatMortonRef {
        flat,
        pairs: &pairs,
        positions,
        masses,
        k,
    };
    let (mass, _com) = r.walk(0, 0, n, 0, cube, &mut summary)?;
    summary.mass = mass;
    if summary.bodies != n {
        return Err(format!(
            "flat tree holds {} bodies, expected {n}",
            summary.bodies
        ));
    }
    Ok(summary)
}

struct FlatMortonRef<'a> {
    flat: &'a FlatTree,
    pairs: &'a [(u64, u32)],
    positions: &'a [Vec3],
    masses: &'a [f64],
    k: usize,
}

impl FlatMortonRef<'_> {
    /// Walk flat node `idx`, expected to cover sorted range `[lo, hi)` at
    /// `depth` inside `cube`. Returns (mass, com).
    fn walk(
        &self,
        idx: usize,
        lo: usize,
        hi: usize,
        depth: u32,
        cube: Cube,
        summary: &mut TreeSummary,
    ) -> Result<(f64, Vec3), String> {
        if idx >= self.flat.node_capacity() {
            return Err(format!("flat node index {idx} out of bounds"));
        }
        summary.depth = summary.depth.max(depth as usize);
        let node = self.flat.nodes.peek(idx);
        let count = hi - lo;
        let tol = 1e-9 * (1.0 + cube.half);
        if (node.half - cube.half).abs() > tol {
            return Err(format!(
                "flat node {idx} half {} != expected {}",
                node.half, cube.half
            ));
        }
        let should_be_leaf = count <= self.k || depth >= MORTON_BITS;
        if node.is_leaf() != should_be_leaf {
            return Err(format!(
                "flat node {idx} is_leaf={} but range [{lo}, {hi}) at depth {depth} \
                 expects leaf={should_be_leaf} (k={})",
                node.is_leaf(),
                self.k
            ));
        }
        let mut mass = 0.0;
        let mut weighted = Vec3::ZERO;
        if node.is_leaf() {
            summary.leaves += 1;
            summary.bodies += count;
            if node.count() as usize != count {
                return Err(format!(
                    "flat leaf {idx} count {} != range size {count}",
                    node.count()
                ));
            }
            if node.first as usize != lo {
                return Err(format!(
                    "flat leaf {idx} CSR offset {} != sorted range start {lo}",
                    node.first
                ));
            }
            let mut expect: Vec<u32> = self.pairs[lo..hi].iter().map(|&(_, id)| id).collect();
            expect.sort_unstable();
            for (j, &id) in expect.iter().enumerate() {
                let got = self.flat.bodies.peek(lo + j);
                if got != id {
                    return Err(format!(
                        "flat leaf {idx} body slot {} holds {got}, expected {id} \
                         (ascending id order)",
                        lo + j
                    ));
                }
                mass += self.masses[id as usize];
                weighted += self.positions[id as usize] * self.masses[id as usize];
            }
        } else {
            summary.cells += 1;
            // Reference octant sub-ranges of [lo, hi).
            let shift = 3 * (MORTON_BITS - 1 - depth);
            let prefix = self.pairs[lo].0 & !(((1u64 << 3) << shift) - 1);
            let mut subs: Vec<(usize, usize, usize)> = Vec::new();
            let mut start = lo;
            for oct in 0..8usize {
                let end = if oct == 7 {
                    hi
                } else {
                    let bound = prefix + ((oct as u64 + 1) << shift);
                    start + self.pairs[start..hi].partition_point(|&(key, _)| key < bound)
                };
                if end > start {
                    subs.push((oct, start, end));
                }
                start = end;
            }
            if node.count() as usize != subs.len() {
                return Err(format!(
                    "flat cell {idx} has {} children, expected {} nonempty octants",
                    node.count(),
                    subs.len()
                ));
            }
            for (off, &(oct, clo, chi)) in subs.iter().enumerate() {
                let slot = node.first as usize + off;
                if slot >= self.flat.kid_capacity() {
                    return Err(format!("flat cell {idx} kid slot {slot} out of bounds"));
                }
                let kid = self.flat.kids.peek(slot) as usize;
                let (m, com) = self.walk(kid, clo, chi, depth + 1, cube.octant(oct), summary)?;
                mass += m;
                weighted += com * m;
            }
        }
        let com = if mass > 0.0 {
            weighted / mass
        } else {
            Vec3::ZERO
        };
        if (node.mass - mass).abs() > 1e-9 * mass.abs().max(1.0) {
            return Err(format!("flat node {idx} mass {} != {mass}", node.mass));
        }
        if (node.com - com).norm() > 1e-9 * (1.0 + com.norm()) {
            return Err(format!("flat node {idx} com {:?} != {com:?}", node.com));
        }
        Ok((mass, com))
    }
}

/// Canonical structural signature of the shared tree (same format as
/// [`SeqTree::signature`]).
pub fn signature(tree: &SharedTree) -> Vec<(Vec<u8>, Vec<u32>)> {
    let mut out = Vec::new();
    let root = tree.root.peek(0);
    if root.is_null() {
        return out;
    }
    let mut path = Vec::new();
    walk_signature(tree, root, &mut path, &mut out);
    out.sort();
    out
}

fn walk_signature(
    tree: &SharedTree,
    node: NodeRef,
    path: &mut Vec<u8>,
    out: &mut Vec<(Vec<u8>, Vec<u32>)>,
) {
    if node.is_leaf() {
        let l = tree.peek_leaf(node);
        let mut ids: Vec<u32> = l.body_slice().to_vec();
        ids.sort_unstable();
        out.push((path.clone(), ids));
        return;
    }
    for (oct, ch) in tree.peek_children(node).into_iter().enumerate() {
        if !ch.is_null() {
            path.push(oct as u8);
            walk_signature(tree, ch, path, out);
            path.pop();
        }
    }
}

/// Check that the shared tree is structurally identical to the sequential
/// reference tree over the same bodies.
pub fn matches_reference(tree: &SharedTree, reference: &SeqTree) -> Result<(), String> {
    let a = signature(tree);
    let b = reference.signature();
    if a.len() != b.len() {
        return Err(format!(
            "leaf count differs: {} vs reference {}",
            a.len(),
            b.len()
        ));
    }
    for (x, y) in a.iter().zip(b.iter()) {
        if x != y {
            return Err(format!("first differing leaf: {x:?} vs reference {y:?}"));
        }
    }
    Ok(())
}
