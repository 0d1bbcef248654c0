//! The five parallel tree-building algorithms of Shan & Singh (IPPS 1998),
//! a sixth sort-based bulk builder (MORTON), plus shared machinery and a
//! uniform dispatch layer.

pub mod common;
pub mod direct;
pub mod morton;
pub mod partree;
pub mod space;
pub mod update;

use crate::env::Env;
use crate::math::Cube;
use crate::tree::types::{SharedTree, TreeLayout};
use crate::world::World;

/// Which tree-building algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// SPLASH: shared global arrays, lock per modification.
    Orig,
    /// SPLASH-2: per-processor arenas, lock per modification.
    Local,
    /// Incremental tree update instead of rebuild.
    Update,
    /// Local trees merged into the global tree.
    Partree,
    /// Spatial re-partitioning; lock-free build.
    Space,
    /// Sort-based bulk construction: parallel radix sort of Morton keys,
    /// then the flat tree is derived directly from the sorted key array —
    /// no linked tree, no locks, no flatten pass.
    Morton,
}

impl Algorithm {
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Orig,
        Algorithm::Local,
        Algorithm::Update,
        Algorithm::Partree,
        Algorithm::Space,
        Algorithm::Morton,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Orig => "ORIG",
            Algorithm::Local => "LOCAL",
            Algorithm::Update => "UPDATE",
            Algorithm::Partree => "PARTREE",
            Algorithm::Space => "SPACE",
            Algorithm::Morton => "MORTON",
        }
    }

    /// The storage layout each algorithm historically uses. MORTON never
    /// builds the linked tree at all; its (unused) `SharedTree` is sized
    /// per-processor like the other scalable algorithms.
    pub fn layout(self) -> TreeLayout {
        match self {
            Algorithm::Orig => TreeLayout::GlobalArena,
            _ => TreeLayout::PerProcessor,
        }
    }

    /// Parse a case-insensitive name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s.to_ascii_uppercase().as_str() {
            "ORIG" => Some(Algorithm::Orig),
            "LOCAL" => Some(Algorithm::Local),
            "UPDATE" => Some(Algorithm::Update),
            "PARTREE" | "MERGE" => Some(Algorithm::Partree),
            "SPACE" => Some(Algorithm::Space),
            "MORTON" => Some(Algorithm::Morton),
            _ => None,
        }
    }

    /// MORTON builds the flat snapshot directly and never populates the
    /// linked `SharedTree`; it requires the flat force walk and bypasses
    /// the build/com/flatten pipeline of the other five algorithms.
    pub fn builds_flat_directly(self) -> bool {
        self == Algorithm::Morton
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-run state of the selected algorithm: exactly the scratch arrays and
/// parameters that algorithm reads, allocated (untimed) when it is created.
pub struct Builder {
    variant: Variant,
}

enum Variant {
    /// ORIG and LOCAL insert into the tree directly; the tree layout tells
    /// them apart.
    Direct,
    Partree,
    Update(update::UpdateScratch),
    Space {
        scratch: space::SpaceScratch,
        threshold: usize,
        rebalance: f64,
    },
    Morton(morton::MortonScratch),
}

impl Builder {
    /// Create the builder for `alg` over `n` bodies; allocates any scratch
    /// the algorithm needs from `env`.
    pub fn new<E: Env>(env: &E, alg: Algorithm, n: usize, k: usize) -> Builder {
        let variant = match alg {
            Algorithm::Orig | Algorithm::Local => Variant::Direct,
            Algorithm::Partree => Variant::Partree,
            Algorithm::Update => Variant::Update(update::UpdateScratch::new(env, n, k)),
            Algorithm::Space => Variant::Space {
                scratch: space::SpaceScratch::new(env, n),
                threshold: space::default_threshold(n, env.num_procs(), k),
                rebalance: space::DEFAULT_REBALANCE,
            },
            Algorithm::Morton => Variant::Morton(morton::MortonScratch::new(env, n)),
        };
        Builder { variant }
    }

    /// The MORTON sort workspace; panics for other algorithms.
    pub fn morton_scratch(&self) -> &morton::MortonScratch {
        match &self.variant {
            Variant::Morton(scratch) => scratch,
            _ => panic!("only the MORTON builder has a sort workspace"),
        }
    }

    /// Override the SPACE cost-rebalance factor (`0.0` disables the extra
    /// refinement round for costly subspaces); other builders ignore it.
    pub fn with_space_rebalance(mut self, factor: f64) -> Builder {
        if let Variant::Space { rebalance, .. } = &mut self.variant {
            *rebalance = factor.max(0.0);
        }
        self
    }

    /// Execute the tree-build phase for one processor. Internally barriers
    /// as the algorithm requires; the caller barriers once more afterwards.
    #[allow(clippy::too_many_arguments)]
    pub fn build<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        tree: &SharedTree,
        world: &World,
        proc: usize,
        step: u32,
        cube: Cube,
    ) {
        match &self.variant {
            Variant::Direct => direct::build(env, ctx, tree, world, None, proc, cube),
            Variant::Partree => partree::build(env, ctx, tree, world, proc, cube),
            Variant::Space {
                scratch,
                threshold,
                rebalance,
            } => space::build(
                env, ctx, tree, world, scratch, proc, cube, *threshold, *rebalance,
            ),
            Variant::Update(scratch) => {
                update::build(env, ctx, tree, world, scratch, proc, step, cube)
            }
            Variant::Morton(_) => {
                unreachable!("MORTON builds the flat tree directly (see MortonTreeStage)")
            }
        }
    }

    /// Execute the center-of-mass phase for one processor (between
    /// barriers).
    pub fn com<E: Env>(
        &self,
        env: &E,
        ctx: &mut E::Ctx,
        tree: &SharedTree,
        world: &World,
        proc: usize,
        step: u32,
    ) {
        match &self.variant {
            Variant::Update(scratch) => {
                update::com_phase(env, ctx, tree, world, scratch, proc, step)
            }
            Variant::Morton(_) => {
                unreachable!("MORTON computes centers of mass during emission")
            }
            _ => common::com_pass(env, ctx, tree, world, proc, step),
        }
    }

    /// Whether validation should tolerate empty husk cells.
    pub fn may_leave_husks(&self) -> bool {
        matches!(self.variant, Variant::Update(_))
    }

    /// Check the state the builder carries into its next step against the
    /// tree it built (untimed): UPDATE's body-to-leaf links and free
    /// stacks ([`crate::tree::validate::body_leaves`]). The builders that
    /// rebuild every step carry nothing.
    pub fn check_carried_state(&self, tree: &SharedTree) -> Result<(), String> {
        match &self.variant {
            Variant::Update(scratch) => crate::tree::validate::body_leaves(tree, scratch),
            _ => Ok(()),
        }
    }

    /// Test support: a step-0 bounds, build and centre-of-mass pass on
    /// every processor of `env`.
    #[cfg(test)]
    pub(crate) fn build_once(&self, env: &crate::env::NativeEnv, tree: &SharedTree, world: &World) {
        crate::harness::WorkerPool::new(env.num_procs()).run(env, |proc, ctx| {
            let cube = common::bounds_phase(env, ctx, world, proc);
            self.build(env, ctx, tree, world, proc, 0, cube);
            env.barrier(ctx);
            self.com(env, ctx, tree, world, proc, 0);
        });
    }

    /// Overwrite the builder's scratch with garbage, so a test can show a
    /// run reads nothing there it did not write.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        match &self.variant {
            Variant::Update(scratch) => scratch.poison(),
            Variant::Space { scratch, .. } => scratch.poison(),
            Variant::Morton(scratch) => scratch.poison(),
            Variant::Direct | Variant::Partree => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_roundtrip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(alg.name()), Some(alg));
            assert_eq!(Algorithm::parse(&alg.name().to_lowercase()), Some(alg));
        }
        assert_eq!(Algorithm::parse("MERGE"), Some(Algorithm::Partree));
        assert_eq!(Algorithm::parse("nope"), None);
    }

    #[test]
    fn layouts() {
        assert_eq!(Algorithm::Orig.layout(), TreeLayout::GlobalArena);
        for alg in [
            Algorithm::Local,
            Algorithm::Update,
            Algorithm::Partree,
            Algorithm::Space,
            Algorithm::Morton,
        ] {
            assert_eq!(alg.layout(), TreeLayout::PerProcessor);
        }
    }

    #[test]
    fn only_morton_builds_flat_directly() {
        for alg in Algorithm::ALL {
            assert_eq!(alg.builds_flat_directly(), alg == Algorithm::Morton);
        }
    }
}
