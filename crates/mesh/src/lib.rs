//! # vibe-mesh
//!
//! Block-structured adaptive-mesh-refinement (AMR) mesh management, modeled
//! on the Parthenon framework's tree-based design (Grete et al. 2022) as
//! characterized in the IISWC 2025 Parthenon-VIBE study.
//!
//! The mesh is a logical representation of a discretized physical domain —
//! always the periodic unit cube `[0, 1)^dim` —
//! partitioned into [`MeshBlock`]s — regular arrays of cells that are the
//! fundamental granularity of refinement. Blocks are organized as the leaves
//! of a binary tree (1D), quadtree (2D), or octree (3D): the
//! [`BlockTree`]. Every spatial location is covered by exactly one leaf, the
//! 2:1 refinement rule is enforced between neighboring leaves, and leaves are
//! globally ordered along a Morton space-filling curve for load balancing.
//!
//! ## Quick example
//!
//! ```
//! use vibe_mesh::{Mesh, MeshParams};
//!
//! // 2D, 64 cells per side, 16-cell blocks, up to 2 refinement levels.
//! let params = MeshParams::builder()
//!     .dim(2)
//!     .mesh_size([64, 64, 1])
//!     .block_size([16, 16, 1])
//!     .max_levels(2)
//!     .build()
//!     .expect("valid mesh parameters");
//! let mesh = Mesh::new(params).expect("constructible mesh");
//! assert_eq!(mesh.num_blocks(), 16); // 4 x 4 base grid of blocks
//! ```

pub mod domain;
pub mod error;
pub mod index;
pub mod loadbalance;
pub mod logical;
pub mod mesh;
pub mod morton;
pub mod neighbor;
pub mod refinement;
pub mod render;
pub mod tree;

pub use domain::BlockGeometry;
pub use error::MeshError;
pub use index::{IndexRange, IndexShape};
pub use loadbalance::{partition_by_cost, RankAssignment};
pub use logical::LogicalLocation;
pub use mesh::{Mesh, MeshBlock, MeshParams, MeshParamsBuilder, RegridOutcome, RegridSource};
pub use morton::MortonKey;
pub use neighbor::{NeighborBlock, NeighborKind, NeighborOffset};
pub use refinement::{enforce_proper_nesting, AmrFlag, DerefGate, NestingTable};
pub use tree::BlockTree;
