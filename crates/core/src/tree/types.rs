//! Shared octree representation.
//!
//! The tree follows the SPLASH-2 (`LOCAL`) data-structure design that the
//! paper describes: internal **cells** and **leaves** are distinct records,
//! bodies live only in leaves, and nodes are allocated from per-processor
//! arenas (or, for the ORIG algorithm, from one global arena) with
//! dynamically obtained indices. A [`NodeRef`] packs (kind, arena, index)
//! into 32 bits, exactly the role the cell-pointer arrays play in the
//! original C codes.

use crate::env::{Access, Env, Placement, Region};
use crate::math::{Cube, Vec3};
use crate::shared::{SharedAtomicVec, SharedVec};

/// Compile-time maximum bodies per leaf. The runtime threshold `k` may be
/// anything in `1..=MAX_LEAF_BODIES`; the paper notes that allowing several
/// bodies per leaf (rather than one) is what made all tree-build algorithms
/// comparable on hardware-coherent machines.
pub const MAX_LEAF_BODIES: usize = 16;

/// Maximum tree depth before insertion gives up. With `f64` coordinates two
/// distinct points always separate well before this depth; hitting it means
/// the input contains more than `k` coincident bodies.
pub const MAX_DEPTH: usize = 64;

/// Marker stored in `owner` fields of freed nodes.
pub const OWNER_FREE: u8 = u8::MAX;

/// A packed reference to a tree node: 2 bits kind, 6 bits arena, 24 bits
/// index. The all-zero value is NULL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct NodeRef(pub u32);

const KIND_CELL: u32 = 1;
const KIND_LEAF: u32 = 2;

impl NodeRef {
    pub const NULL: NodeRef = NodeRef(0);

    #[inline]
    pub fn cell(arena: usize, index: usize) -> NodeRef {
        debug_assert!(arena < 64 && index < (1 << 24));
        NodeRef((KIND_CELL << 30) | ((arena as u32) << 24) | index as u32)
    }

    #[inline]
    pub fn leaf(arena: usize, index: usize) -> NodeRef {
        debug_assert!(arena < 64 && index < (1 << 24));
        NodeRef((KIND_LEAF << 30) | ((arena as u32) << 24) | index as u32)
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn is_cell(self) -> bool {
        self.0 >> 30 == KIND_CELL
    }

    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 >> 30 == KIND_LEAF
    }

    #[inline]
    pub fn arena(self) -> usize {
        (self.0 >> 24 & 0x3f) as usize
    }

    #[inline]
    pub fn index(self) -> usize {
        (self.0 & 0xff_ffff) as usize
    }

    /// The lock id guarding this node in the environment's lock table.
    ///
    /// Node locks live in the id range `[RESERVED_LOCKS, ..)`: the low ids
    /// are reserved for arena free-list locks, which are acquired *while
    /// holding* a node lock — they must never hash to the same table entry
    /// or a subdividing processor deadlocks against itself.
    #[inline]
    pub fn lock_id(self) -> usize {
        RESERVED_LOCKS + self.0 as usize
    }
}

/// Lock ids below this are reserved for arena free-list locks; environments
/// must never alias ids `0..RESERVED_LOCKS` with any id `>= RESERVED_LOCKS`.
pub const RESERVED_LOCKS: usize = 64;

/// An internal tree cell: summary quantities and the cube of space it
/// represents. The eight child slots live in the arena's atomic `children`
/// array (see [`Arena`]): child pointers are read during lock-free descent
/// and written concurrently by different processors attaching different
/// octants of the same cell (PARTREE merge, SPACE attach), so they must be
/// individually atomic rather than fields of this struct.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Center of mass of the rooted subtree (valid after the CoM phase).
    pub com: Vec3,
    /// Total mass of the rooted subtree (valid after the CoM phase).
    pub mass: f64,
    /// Total force-computation work of bodies in the subtree, from the
    /// previous step's interaction counts. Used by costzones.
    pub cost: u64,
    /// Number of bodies in the rooted subtree (valid after the CoM phase).
    pub count: u32,
    /// Processor that created (or currently owns) this cell.
    pub owner: u8,
    pub octant_in_parent: u8,
    pub in_use: bool,
    /// Set when the UPDATE algorithm has recorded this cell in a husk list
    /// (a cell whose children were all reclaimed). Guarded by the cell's
    /// lock.
    pub husk_listed: bool,
    pub parent: NodeRef,
    /// Geometric center of the cube this cell represents.
    pub center: Vec3,
    /// Half side length of the cube.
    pub half: f64,
}

impl Cell {
    pub fn empty() -> Cell {
        Cell {
            com: Vec3::ZERO,
            mass: 0.0,
            cost: 0,
            count: 0,
            owner: 0,
            octant_in_parent: 0,
            in_use: false,
            husk_listed: false,
            parent: NodeRef::NULL,
            center: Vec3::ZERO,
            half: 0.0,
        }
    }

    #[inline]
    pub fn cube(&self) -> Cube {
        Cube::new(self.center, self.half)
    }
}

/// A leaf: up to [`MAX_LEAF_BODIES`] body indices plus summary quantities.
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    pub bodies: [u32; MAX_LEAF_BODIES],
    pub n: u32,
    pub com: Vec3,
    pub mass: f64,
    pub cost: u64,
    pub owner: u8,
    /// Processor whose created-leaf list this leaf is recorded in.
    pub listed_by: u8,
    pub octant_in_parent: u8,
    pub in_use: bool,
    /// Step stamp of the last center-of-mass processing, to make the CoM
    /// trigger idempotent across stale list entries (see the UPDATE
    /// algorithm).
    pub com_stamp: u32,
    pub parent: NodeRef,
    pub center: Vec3,
    pub half: f64,
}

impl Leaf {
    pub fn empty() -> Leaf {
        Leaf {
            bodies: [0; MAX_LEAF_BODIES],
            n: 0,
            com: Vec3::ZERO,
            mass: 0.0,
            cost: 0,
            owner: 0,
            listed_by: u8::MAX,
            octant_in_parent: 0,
            in_use: false,
            com_stamp: u32::MAX,
            parent: NodeRef::NULL,
            center: Vec3::ZERO,
            half: 0.0,
        }
    }

    #[inline]
    pub fn cube(&self) -> Cube {
        Cube::new(self.center, self.half)
    }

    #[inline]
    pub fn body_slice(&self) -> &[u32] {
        &self.bodies[..self.n as usize]
    }
}

/// One node arena: storage for cells and leaves plus allocation state.
pub struct Arena {
    pub id: usize,
    pub cells: SharedVec<Cell>,
    pub leaves: SharedVec<Leaf>,
    /// Atomic child slots: entry `8*i + oct` is the [`NodeRef`] encoding of
    /// cell `i`'s child in octant `oct` (0 = NULL).
    pub children: SharedAtomicVec,
    /// Atomic parent refs for leaves (mirrors `Leaf::parent`): lets the
    /// UPDATE algorithm locate the lock guarding a leaf without reading the
    /// (lock-protected) leaf record first.
    pub leaf_parent: SharedAtomicVec,
    /// Atomic leaf bounds (f64 bit patterns: center x/y/z, half — 4 words
    /// per leaf, mirrors the leaf's cube): lets the UPDATE algorithm run its
    /// did-the-body-cross-its-boundary check without taking any lock.
    pub leaf_bounds: SharedAtomicVec<u64>,
    /// Child-completion counters for the parallel CoM pass, parallel to
    /// `cells`.
    pub cell_pending: SharedAtomicVec,
    /// `[0]` = next free cell index (bump).
    pub next_cell: SharedAtomicVec,
    /// `[0]` = next free leaf index (bump).
    pub next_leaf: SharedAtomicVec,
    /// Free-list stacks used by the UPDATE algorithm's reclamation.
    pub free_cells: SharedVec<u32>,
    pub free_leaves: SharedVec<u32>,
    /// `[0]` = depth of `free_cells`; `[1]` = depth of `free_leaves`. Guarded
    /// by the arena's free-list lock.
    pub free_tops: SharedAtomicVec,
}

impl Arena {
    /// Lock id guarding this arena's free lists: drawn from the reserved
    /// low range so it can never alias a node lock (see
    /// [`NodeRef::lock_id`]).
    #[inline]
    pub fn freelist_lock(&self) -> usize {
        debug_assert!(self.id < RESERVED_LOCKS);
        self.id
    }
}

/// How the tree's storage is laid out, reflecting the data-structure
/// difference between the ORIG and SPLASH-2-style algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeLayout {
    /// One global arena shared by all processors; allocation counters and
    /// per-processor bookkeeping live adjacent in shared memory (heavy false
    /// sharing — the ORIG design).
    GlobalArena,
    /// One arena per processor, placed in that processor's local memory;
    /// private counters (the SPLASH-2 / LOCAL design).
    PerProcessor,
}

/// Capacity plan for tree storage.
#[derive(Debug, Clone, Copy)]
pub struct TreeCapacity {
    pub cells_per_arena: usize,
    pub leaves_per_arena: usize,
    pub leaf_list_per_proc: usize,
}

impl TreeCapacity {
    /// A generous default for `n` bodies, leaf threshold `k`, `p` processors
    /// and the given layout.
    pub fn plan(n: usize, k: usize, p: usize, layout: TreeLayout) -> TreeCapacity {
        let k = k.max(1);
        // Leaves are bounded by the number of non-empty cubes at the finest
        // occupied level; 4n/k covers strongly clustered inputs, and the
        // per-arena share gets slack for load imbalance between processors.
        let leaves_total = (4 * n / k).max(512) + 512;
        let cells_total = leaves_total + 512;
        let arenas = match layout {
            TreeLayout::GlobalArena => 1,
            TreeLayout::PerProcessor => p,
        };
        let slack = |t: usize| (t / arenas) * 3 / 2 + 1024;
        TreeCapacity {
            cells_per_arena: slack(cells_total).min(1 << 24),
            leaves_per_arena: slack(leaves_total).min(1 << 24),
            // Every allocation records a list entry (including free-list
            // reuse), so size for allocation churn, not just live leaves.
            leaf_list_per_proc: (leaves_total * 4 / p + 4096).min(1 << 24),
        }
    }
}

/// The shared octree, plus the per-processor created-leaf lists that drive
/// the parallel center-of-mass pass.
pub struct SharedTree {
    pub arenas: Vec<Arena>,
    /// `[0]` = the root cell reference.
    pub root: SharedVec<NodeRef>,
    /// `[0]` = the root cube for the current step.
    pub root_cube: SharedVec<Cube>,
    /// Leaf threshold: a leaf holding `k` bodies splits on the next insert.
    pub k: usize,
    pub layout: TreeLayout,
    /// Per-processor lists of created leaves (encoded [`NodeRef`]s).
    pub leaf_lists: Vec<SharedVec<u32>>,
    /// Per-processor list lengths; element 0 of each is the length.
    pub leaf_list_len: Vec<SharedAtomicVec>,
}

impl SharedTree {
    /// Allocate tree storage for up to `n` bodies on `p` processors.
    pub fn new<E: Env>(env: &E, n: usize, k: usize, layout: TreeLayout) -> SharedTree {
        assert!(
            (1..=MAX_LEAF_BODIES).contains(&k),
            "leaf threshold k={k} out of range"
        );
        let p = env.num_procs();
        let cap = TreeCapacity::plan(n, k, p, layout);
        let n_arenas = match layout {
            TreeLayout::GlobalArena => 1,
            TreeLayout::PerProcessor => p,
        };
        let place = |a: usize| match layout {
            TreeLayout::GlobalArena => Placement::Global,
            TreeLayout::PerProcessor => Placement::Local(a),
        };
        let (cells, leaves, alloc) = (Region::TreeCells, Region::TreeLeaves, Region::TreeAlloc);
        let (ncells, nleaves) = (cap.cells_per_arena, cap.leaves_per_arena);
        let arenas = (0..n_arenas)
            .map(|a| Arena {
                id: a,
                cells: SharedVec::new(env, ncells, Cell::empty(), place(a), cells),
                leaves: SharedVec::new(env, nleaves, Leaf::empty(), place(a), leaves),
                children: SharedAtomicVec::new(env, ncells * 8, 0, place(a), cells),
                leaf_parent: SharedAtomicVec::new(env, nleaves, 0, place(a), leaves),
                leaf_bounds: SharedAtomicVec::new(env, nleaves * 4, 0, place(a), leaves),
                cell_pending: SharedAtomicVec::new(env, ncells, 0, place(a), cells),
                next_cell: SharedAtomicVec::new(env, 1, 0, place(a), alloc),
                next_leaf: SharedAtomicVec::new(env, 1, 0, place(a), alloc),
                free_cells: SharedVec::new(env, ncells, 0, place(a), alloc),
                free_leaves: SharedVec::new(env, nleaves, 0, place(a), alloc),
                free_tops: SharedAtomicVec::new(env, 2, 0, place(a), alloc),
            })
            .collect();
        // In the GlobalArena (ORIG) layout the per-processor lists and
        // list-length counters are deliberately allocated back to back in
        // one global region — the counters share cache lines and pages,
        // reproducing the false sharing of ORIG's shared bookkeeping
        // arrays. The PerProcessor layout gives each processor a private,
        // locally homed list and counter.
        let leaf_lists = (0..p)
            .map(|q| SharedVec::new(env, cap.leaf_list_per_proc, 0u32, place(q), alloc))
            .collect();
        let leaf_list_len = (0..p)
            .map(|q| SharedAtomicVec::new(env, 1, 0, place(q), alloc))
            .collect();
        SharedTree {
            arenas,
            root: SharedVec::new(env, 1, NodeRef::NULL, Placement::Global, alloc),
            root_cube: SharedVec::new(env, 1, Cube::new(Vec3::ZERO, 1.0), Placement::Global, alloc),
            k,
            layout,
            leaf_lists,
            leaf_list_len,
        }
    }

    /// The arena a given processor allocates from.
    #[inline]
    pub fn arena_of(&self, proc: usize) -> usize {
        match self.layout {
            TreeLayout::GlobalArena => 0,
            TreeLayout::PerProcessor => proc,
        }
    }

    // ----- timed node accessors -------------------------------------------

    #[inline]
    pub fn load_cell<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef) -> Cell {
        debug_assert!(r.is_cell());
        self.arenas[r.arena()].cells.load(env, ctx, r.index())
    }

    #[inline]
    pub fn update_cell<E: Env, R>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        r: NodeRef,
        f: impl FnOnce(&mut Cell) -> R,
    ) -> R {
        debug_assert!(r.is_cell());
        self.arenas[r.arena()].cells.update(env, ctx, r.index(), f)
    }

    #[inline]
    pub fn load_leaf<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef) -> Leaf {
        debug_assert!(r.is_leaf());
        self.arenas[r.arena()].leaves.load(env, ctx, r.index())
    }

    /// Optimistic unordered read of a cell record (see
    /// [`crate::shared::SharedVec::load_relaxed`]): used by lock-free
    /// walk-ups that re-validate before acting on the result.
    #[inline]
    pub fn load_cell_relaxed<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef) -> Cell {
        debug_assert!(r.is_cell());
        self.arenas[r.arena()]
            .cells
            .load_relaxed(env, ctx, r.index())
    }

    /// Optimistic unordered read of a leaf record; see
    /// [`SharedTree::load_cell_relaxed`].
    #[inline]
    pub fn load_leaf_relaxed<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef) -> Leaf {
        debug_assert!(r.is_leaf());
        self.arenas[r.arena()]
            .leaves
            .load_relaxed(env, ctx, r.index())
    }

    #[inline]
    pub fn update_leaf<E: Env, R>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        r: NodeRef,
        f: impl FnOnce(&mut Leaf) -> R,
    ) -> R {
        debug_assert!(r.is_leaf());
        self.arenas[r.arena()].leaves.update(env, ctx, r.index(), f)
    }

    // ----- untimed node accessors (setup / validation) --------------------

    #[inline]
    pub fn peek_cell(&self, r: NodeRef) -> Cell {
        debug_assert!(r.is_cell());
        self.arenas[r.arena()].cells.peek(r.index())
    }

    #[inline]
    pub fn peek_leaf(&self, r: NodeRef) -> Leaf {
        debug_assert!(r.is_leaf());
        self.arenas[r.arena()].leaves.peek(r.index())
    }

    // ----- child slots -----------------------------------------------------

    /// Timed atomic read of a cell's child slot.
    #[inline]
    pub fn child<E: Env>(&self, env: &E, ctx: &mut E::Ctx, cell: NodeRef, oct: usize) -> NodeRef {
        debug_assert!(cell.is_cell() && oct < 8);
        NodeRef(
            self.arenas[cell.arena()]
                .children
                .load(env, ctx, cell.index() * 8 + oct),
        )
    }

    /// Timed atomic write of a cell's child slot.
    #[inline]
    pub fn set_child<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        cell: NodeRef,
        oct: usize,
        v: NodeRef,
    ) {
        debug_assert!(cell.is_cell() && oct < 8);
        self.arenas[cell.arena()]
            .children
            .store(env, ctx, cell.index() * 8 + oct, v.0)
    }

    /// Untimed child read for setup/validation.
    #[inline]
    pub fn peek_child(&self, cell: NodeRef, oct: usize) -> NodeRef {
        debug_assert!(cell.is_cell() && oct < 8);
        NodeRef(
            self.arenas[cell.arena()]
                .children
                .peek(cell.index() * 8 + oct),
        )
    }

    /// Untimed snapshot of all eight child slots.
    pub fn peek_children(&self, cell: NodeRef) -> [NodeRef; 8] {
        std::array::from_fn(|oct| self.peek_child(cell, oct))
    }

    /// Timed read of all eight child slots as one 32-byte access — the
    /// traversal phases (force, costzones, CoM) read a cell's whole child
    /// vector at once, as the original codes do. The slots are individually
    /// atomic, so the access is reported as an atomic (acquire) read.
    #[inline]
    pub fn children<E: Env>(&self, env: &E, ctx: &mut E::Ctx, cell: NodeRef) -> [NodeRef; 8] {
        debug_assert!(cell.is_cell());
        let a = &self.arenas[cell.arena()].children;
        let base = cell.index() * 8;
        // Real acquiring loads first, accounting call second: acquires are
        // instrumented after the operation they describe (see
        // [`crate::env::Env::atomic_commit`]).
        let kids = std::array::from_fn(|oct| NodeRef(a.peek(base + oct)));
        env.access(ctx, a.addr(base), 32, Access::AtomicRead);
        kids
    }

    /// Timed atomic read of a leaf's parent ref (mirror of `Leaf::parent`).
    #[inline]
    pub fn leaf_parent<E: Env>(&self, env: &E, ctx: &mut E::Ctx, leaf: NodeRef) -> NodeRef {
        debug_assert!(leaf.is_leaf());
        NodeRef(
            self.arenas[leaf.arena()]
                .leaf_parent
                .load(env, ctx, leaf.index()),
        )
    }

    /// Timed atomic write of a leaf's parent ref. Callers must keep
    /// `Leaf::parent` in sync (both are written by `new_leaf`/reparenting).
    #[inline]
    pub fn set_leaf_parent<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        leaf: NodeRef,
        parent: NodeRef,
    ) {
        debug_assert!(leaf.is_leaf());
        self.arenas[leaf.arena()]
            .leaf_parent
            .store(env, ctx, leaf.index(), parent.0)
    }

    /// Timed atomic write of a leaf's bounds mirror (center, half). Callers
    /// must keep `Leaf::{center, half}` in sync.
    pub fn set_leaf_bounds<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        leaf: NodeRef,
        cube: crate::math::Cube,
    ) {
        debug_assert!(leaf.is_leaf());
        let b = &self.arenas[leaf.arena()].leaf_bounds;
        let i = leaf.index() * 4;
        b.store(env, ctx, i, cube.center.x.to_bits());
        b.store(env, ctx, i + 1, cube.center.y.to_bits());
        b.store(env, ctx, i + 2, cube.center.z.to_bits());
        b.store(env, ctx, i + 3, cube.half.to_bits());
    }

    /// Timed atomic read of a leaf's bounds mirror.
    pub fn leaf_bounds<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        leaf: NodeRef,
    ) -> crate::math::Cube {
        debug_assert!(leaf.is_leaf());
        let b = &self.arenas[leaf.arena()].leaf_bounds;
        let i = leaf.index() * 4;
        crate::math::Cube::new(
            Vec3::new(
                f64::from_bits(b.load(env, ctx, i)),
                f64::from_bits(b.load(env, ctx, i + 1)),
                f64::from_bits(b.load(env, ctx, i + 2)),
            ),
            f64::from_bits(b.load(env, ctx, i + 3)),
        )
    }

    // ----- pending counters ------------------------------------------------

    #[inline]
    pub fn pending_store<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef, v: u32) {
        debug_assert!(r.is_cell());
        self.arenas[r.arena()]
            .cell_pending
            .store(env, ctx, r.index(), v)
    }

    #[inline]
    pub fn pending_add<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef, v: u32) -> u32 {
        debug_assert!(r.is_cell());
        self.arenas[r.arena()]
            .cell_pending
            .fetch_add(env, ctx, r.index(), v)
    }

    #[inline]
    pub fn pending_sub<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef, v: u32) -> u32 {
        debug_assert!(r.is_cell());
        self.arenas[r.arena()]
            .cell_pending
            .fetch_sub(env, ctx, r.index(), v)
    }

    #[inline]
    pub fn pending_peek(&self, r: NodeRef) -> u32 {
        self.arenas[r.arena()].cell_pending.peek(r.index())
    }

    // ----- allocation -------------------------------------------------------

    /// Allocate a fresh cell from `arena`, owned by `owner`.
    pub fn alloc_cell<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        arena: usize,
        owner: usize,
    ) -> NodeRef {
        let a = &self.arenas[arena];
        let idx = a.next_cell.fetch_add(env, ctx, 0, 1) as usize;
        assert!(
            idx < a.cells.len(),
            "cell arena {arena} exhausted ({} slots); raise TreeCapacity",
            a.cells.len()
        );
        let r = NodeRef::cell(arena, idx);
        let mut c = Cell::empty();
        c.owner = owner as u8;
        c.in_use = true;
        a.cells.store(env, ctx, idx, c);
        a.cell_pending.store(env, ctx, idx, 0);
        // Arenas are reused across steps: clear stale child slots.
        for oct in 0..8 {
            a.children.store(env, ctx, idx * 8 + oct, 0);
        }
        r
    }

    /// Allocate a fresh leaf from `arena`, owned by `owner`, recording it in
    /// `owner`'s created-leaf list (unless it is already listed there from a
    /// previous step — UPDATE reuse).
    pub fn alloc_leaf<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        arena: usize,
        owner: usize,
    ) -> NodeRef {
        let a = &self.arenas[arena];
        // Try the free list first (only ever populated by UPDATE).
        let reused = if a.free_tops.peek(1) > 0 {
            env.lock(ctx, a.freelist_lock());
            let top = a.free_tops.load(env, ctx, 1);
            let got = if top > 0 {
                let idx = a.free_leaves.load(env, ctx, top as usize - 1);
                a.free_tops.store(env, ctx, 1, top - 1);
                Some(idx as usize)
            } else {
                None
            };
            env.unlock(ctx, a.freelist_lock());
            got
        } else {
            None
        };
        let idx = match reused {
            Some(idx) => idx,
            None => {
                let idx = a.next_leaf.fetch_add(env, ctx, 0, 1) as usize;
                assert!(
                    idx < a.leaves.len(),
                    "leaf arena {arena} exhausted ({} slots); raise TreeCapacity",
                    a.leaves.len()
                );
                idx
            }
        };
        let r = NodeRef::leaf(arena, idx);
        let mut l = Leaf::empty();
        l.owner = owner as u8;
        l.in_use = true;
        l.listed_by = owner as u8;
        a.leaves.store(env, ctx, idx, l);
        // Always record: duplicate list entries are deduplicated by the CoM
        // pass's `com_stamp` (same processor scans its list sequentially),
        // and entries whose leaf was re-listed by another processor are
        // skipped via `listed_by`.
        self.record_leaf(env, ctx, owner, r);
        r
    }

    /// Append a leaf to `proc`'s created-leaf list.
    fn record_leaf<E: Env>(&self, env: &E, ctx: &mut E::Ctx, proc: usize, r: NodeRef) {
        let len = self.leaf_list_len[proc].fetch_add(env, ctx, 0, 1) as usize;
        assert!(
            len < self.leaf_lists[proc].len(),
            "created-leaf list of processor {proc} exhausted; raise TreeCapacity"
        );
        self.leaf_lists[proc].store(env, ctx, len, r.0);
    }

    /// Mark a leaf dead without recycling its slot. This is what the
    /// rebuild-every-step algorithms use when a subdivision replaces a leaf:
    /// it takes no lock, so it adds nothing to the lock counts the paper
    /// studies. The slot is reclaimed wholesale by the next
    /// [`SharedTree::reset_for_rebuild`].
    pub fn retire_leaf<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef) {
        debug_assert!(r.is_leaf());
        self.update_leaf(env, ctx, r, |l| {
            l.in_use = false;
            l.owner = OWNER_FREE;
            l.n = 0;
        });
        self.set_leaf_parent(env, ctx, r, NodeRef::NULL);
    }

    /// Return a leaf to its arena's free list (UPDATE reclamation). The leaf
    /// stays recorded in whatever list listed it; `in_use=false` makes stale
    /// entries skippable.
    pub fn free_leaf<E: Env>(&self, env: &E, ctx: &mut E::Ctx, r: NodeRef) {
        debug_assert!(r.is_leaf());
        let a = &self.arenas[r.arena()];
        self.update_leaf(env, ctx, r, |l| {
            l.in_use = false;
            l.owner = OWNER_FREE;
            l.n = 0;
        });
        self.set_leaf_parent(env, ctx, r, NodeRef::NULL);
        env.lock(ctx, a.freelist_lock());
        let top = a.free_tops.load(env, ctx, 1);
        a.free_leaves
            .store(env, ctx, top as usize, r.index() as u32);
        a.free_tops.store(env, ctx, 1, top + 1);
        env.unlock(ctx, a.freelist_lock());
    }

    /// Reset allocation state for a fresh rebuild. Called by each processor
    /// for the arenas it owns (`proc == arena`, or processor 0 for the
    /// global layout), between barriers.
    pub fn reset_for_rebuild<E: Env>(&self, env: &E, ctx: &mut E::Ctx, proc: usize) {
        if proc < self.arenas.len() {
            let a = &self.arenas[proc];
            a.next_cell.store(env, ctx, 0, 0);
            a.next_leaf.store(env, ctx, 0, 0);
            a.free_tops.store(env, ctx, 0, 0);
            a.free_tops.store(env, ctx, 1, 0);
        }
        self.leaf_list_len[proc].store(env, ctx, 0, 0);
        // Rebuilding from scratch invalidates any listed_by memory: entries
        // will be re-recorded, so clear stale flags lazily via list length.
        if proc == 0 {
            self.root.store(env, ctx, 0, NodeRef::NULL);
        }
    }

    /// Return already-allocated tree storage to an empty tree (untimed,
    /// single-threaded engine setup between jobs): allocation cursors,
    /// free-stack depths and leaf-list lengths at zero, `root` NULL and
    /// `root_cube` as [`SharedTree::new`] leaves it.
    ///
    /// Records, child slots, the leaf mirrors, pending counters, free
    /// stacks and leaf lists keep the last run's bytes. A run never reads
    /// them before writing them: [`SharedTree::alloc_cell`] and
    /// [`SharedTree::alloc_leaf`] store a whole record (and a cell's pending
    /// counter and child slots) before anything loads it, and every other
    /// read reaches the tree through `root`, a prefix of a leaf list,
    /// `World::body_leaf`, a free stack below its depth, or UPDATE's
    /// rescale of `[0, next_*)` — all reset here or written in the same
    /// run. So a run on a reused engine loads the same values as a run on
    /// a fresh allocation.
    pub fn reset(&self) {
        for a in &self.arenas {
            a.next_cell.poke(0, 0);
            a.next_leaf.poke(0, 0);
            a.free_tops.fill(0);
        }
        for len in &self.leaf_list_len {
            len.poke(0, 0);
        }
        self.root.poke(0, NodeRef::NULL);
        self.root_cube.poke(0, Cube::new(Vec3::ZERO, 1.0));
    }

    /// Overwrite every slot with garbage (NaN geometry, `u32::MAX` refs and
    /// counts, records marked in use), so a test can show
    /// [`SharedTree::reset`] restores all a run reads before writing.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        let (nan, bad) = (Vec3::splat(f64::NAN), NodeRef(u32::MAX));
        for a in &self.arenas {
            a.cells.fill(Cell {
                com: nan,
                mass: f64::NAN,
                cost: u64::MAX,
                count: u32::MAX,
                owner: 0,
                octant_in_parent: u8::MAX,
                in_use: true,
                husk_listed: true,
                parent: bad,
                center: nan,
                half: f64::NAN,
            });
            a.leaves.fill(Leaf {
                bodies: [u32::MAX; MAX_LEAF_BODIES],
                n: u32::MAX,
                com: nan,
                mass: f64::NAN,
                cost: u64::MAX,
                owner: 0,
                listed_by: 0,
                octant_in_parent: u8::MAX,
                in_use: true,
                com_stamp: 0,
                parent: bad,
                center: nan,
                half: f64::NAN,
            });
            let words = [&a.children, &a.leaf_parent, &a.cell_pending];
            for v in words
                .into_iter()
                .chain([&a.next_cell, &a.next_leaf, &a.free_tops])
            {
                v.fill(u32::MAX);
            }
            a.leaf_bounds.fill(f64::NAN.to_bits());
            a.free_cells.fill(u32::MAX);
            a.free_leaves.fill(u32::MAX);
        }
        self.leaf_lists.iter().for_each(|v| v.fill(u32::MAX));
        self.leaf_list_len.iter().for_each(|v| v.fill(u32::MAX));
        self.root.fill(bad);
        self.root_cube.fill(Cube::new(nan, f64::NAN));
    }

    /// Number of live cells allocated across all arenas (untimed).
    pub fn cells_allocated(&self) -> usize {
        self.arenas
            .iter()
            .map(|a| a.next_cell.peek(0) as usize)
            .sum()
    }

    /// Number of live leaves allocated across all arenas (untimed).
    pub fn leaves_allocated(&self) -> usize {
        self.arenas
            .iter()
            .map(|a| a.next_leaf.peek(0) as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Algorithm, Builder};
    use crate::env::NativeEnv;
    use crate::model::Model;
    use crate::tree::{validate, SeqTree};
    use crate::world::World;

    #[test]
    fn noderef_packing_roundtrip() {
        for (arena, idx) in [(0usize, 0usize), (5, 12345), (63, (1 << 24) - 1)] {
            let c = NodeRef::cell(arena, idx);
            assert!(c.is_cell() && !c.is_leaf() && !c.is_null());
            assert_eq!(c.arena(), arena);
            assert_eq!(c.index(), idx);
            let l = NodeRef::leaf(arena, idx);
            assert!(l.is_leaf() && !l.is_cell() && !l.is_null());
            assert_eq!(l.arena(), arena);
            assert_eq!(l.index(), idx);
            assert_ne!(c, l);
        }
        assert!(NodeRef::NULL.is_null());
        assert!(!NodeRef::NULL.is_cell());
        assert!(!NodeRef::NULL.is_leaf());
    }

    #[test]
    fn capacity_plan_is_positive_and_bounded() {
        for &n in &[1usize, 100, 10_000, 1_000_000] {
            for &p in &[1usize, 4, 16, 32] {
                for layout in [TreeLayout::GlobalArena, TreeLayout::PerProcessor] {
                    let c = TreeCapacity::plan(n, 8, p, layout);
                    assert!(c.cells_per_arena > 0);
                    assert!(c.leaves_per_arena > 0);
                    assert!(c.leaf_list_per_proc > 0);
                    assert!(c.cells_per_arena <= 1 << 24);
                }
            }
        }
    }

    #[test]
    fn alloc_cell_and_leaf() {
        let env = NativeEnv::new(2);
        let tree = SharedTree::new(&env, 1000, 8, TreeLayout::PerProcessor);
        let mut ctx = env.make_ctx(0);
        let c = tree.alloc_cell(&env, &mut ctx, 0, 0);
        assert!(c.is_cell());
        assert!(tree.peek_cell(c).in_use);
        assert_eq!(tree.peek_cell(c).owner, 0);
        let l = tree.alloc_leaf(&env, &mut ctx, 0, 0);
        assert!(l.is_leaf());
        assert_eq!(tree.leaf_list_len[0].peek(0), 1);
        assert_eq!(tree.leaf_lists[0].peek(0), l.0);
        assert_eq!(tree.cells_allocated(), 1);
        assert_eq!(tree.leaves_allocated(), 1);
    }

    #[test]
    fn leaf_free_and_reuse() {
        let env = NativeEnv::new(1);
        let tree = SharedTree::new(&env, 100, 4, TreeLayout::PerProcessor);
        let mut ctx = env.make_ctx(0);
        let l1 = tree.alloc_leaf(&env, &mut ctx, 0, 0);
        tree.free_leaf(&env, &mut ctx, l1);
        assert!(!tree.peek_leaf(l1).in_use);
        let l2 = tree.alloc_leaf(&env, &mut ctx, 0, 0);
        // Free-list reuse must return the same slot. The duplicate list
        // entry is expected; the CoM pass deduplicates by stamp.
        assert_eq!(l1, l2);
        assert_eq!(tree.leaf_list_len[0].peek(0), 2);
    }

    #[test]
    fn global_layout_uses_one_arena() {
        let env = NativeEnv::new(4);
        let tree = SharedTree::new(&env, 1000, 8, TreeLayout::GlobalArena);
        assert_eq!(tree.arenas.len(), 1);
        for p in 0..4 {
            assert_eq!(tree.arena_of(p), 0);
        }
        let per = SharedTree::new(&env, 1000, 8, TreeLayout::PerProcessor);
        assert_eq!(per.arenas.len(), 4);
        assert_eq!(per.arena_of(3), 3);
    }

    #[test]
    fn reset_clears_allocation_state() {
        let env = NativeEnv::new(1);
        let tree = SharedTree::new(&env, 100, 4, TreeLayout::PerProcessor);
        let mut ctx = env.make_ctx(0);
        tree.alloc_cell(&env, &mut ctx, 0, 0);
        tree.alloc_leaf(&env, &mut ctx, 0, 0);
        tree.reset_for_rebuild(&env, &mut ctx, 0);
        assert_eq!(tree.cells_allocated(), 0);
        assert_eq!(tree.leaves_allocated(), 0);
        assert_eq!(tree.leaf_list_len[0].peek(0), 0);
        assert!(tree.root.peek(0).is_null());
    }

    #[test]
    fn full_reset_restores_fresh_state() {
        let env = NativeEnv::new(2);
        let tree = SharedTree::new(&env, 200, 4, TreeLayout::PerProcessor);
        tree.poison();
        tree.reset();
        assert_eq!(tree.cells_allocated(), 0);
        assert_eq!(tree.leaves_allocated(), 0);
        assert!(tree.root.peek(0).is_null());
        let cube = tree.root_cube.peek(0);
        assert_eq!((cube.center, cube.half), (Vec3::ZERO, 1.0));
        for a in &tree.arenas {
            assert_eq!((a.free_tops.peek(0), a.free_tops.peek(1)), (0, 0));
            // Records keep their garbage: nothing reaches them until an
            // allocation rewrites them.
            assert!(a.cells.peek(0).in_use && a.leaves.peek(0).in_use);
        }
        assert!(tree.leaf_list_len.iter().all(|len| len.peek(0) == 0));
        let bodies = Model::Plummer.generate(200, 3);
        let world = World::new(&env, &bodies);
        Builder::new(&env, Algorithm::Local, 200, 4).build_once(&env, &tree, &world);
        validate::validate(&tree, &world.positions(), &world.masses(), true).unwrap();
        validate::matches_reference(&tree, &SeqTree::build(&bodies, 4)).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_k_rejected() {
        let env = NativeEnv::new(1);
        let _ = SharedTree::new(&env, 100, 0, TreeLayout::PerProcessor);
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        let env = NativeEnv::new(4);
        let tree = SharedTree::new(&env, 10_000, 8, TreeLayout::GlobalArena);
        let mut all: Vec<Vec<NodeRef>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|p| {
                    let env = &env;
                    let tree = &tree;
                    s.spawn(move || {
                        let mut ctx = env.make_ctx(p);
                        (0..200)
                            .map(|_| tree.alloc_cell(env, &mut ctx, 0, p))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                all.push(h.join().unwrap());
            }
        });
        let mut seen = std::collections::HashSet::new();
        for refs in &all {
            for r in refs {
                assert!(seen.insert(r.0), "duplicate allocation {r:?}");
            }
        }
        assert_eq!(seen.len(), 800);
    }
}
