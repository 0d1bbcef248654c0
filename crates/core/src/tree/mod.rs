//! Octree data structures: the shared parallel tree, the sequential
//! reference tree, and validation utilities.

pub mod flat;
pub mod plan;
pub mod seq;
pub mod types;
pub mod validate;

pub use flat::{FlatNode, FlatPlan, FlatTree};
pub use seq::{SeqNode, SeqTree};
pub use types::{
    Arena, Cell, Leaf, NodeRef, SharedTree, TreeCapacity, TreeLayout, MAX_DEPTH, MAX_LEAF_BODIES,
};
