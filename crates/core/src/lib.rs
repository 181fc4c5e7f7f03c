//! # vibe-core
//!
//! The Parthenon-style evolution driver: a block-structured AMR framework
//! that owns the mesh, per-block field containers, ghost-cell
//! communication, fine-coarse flux correction, refinement/derefinement with
//! load balancing, and second-order Runge-Kutta time integration — while
//! recording every kernel launch, serial management loop, message, and
//! allocation for the platform performance model.
//!
//! Physics lives in a [`Package`] (e.g. the Burgers benchmark in
//! `vibe-burgers`): packages register variables and provide per-block
//! kernels — the flux primitive the framework's sweep calls ([`sweep`]),
//! the derived fill, the timestep estimate, the refinement indicator and
//! the history contributions. The driver provides everything else — it
//! iterates the packs, records every launch and folds every reduction in a
//! fixed order — mirroring the paper's timestep loop (Fig. 3):
//!
//! ```text
//! loop {
//!     Step            — ghost exchange, CalculateFluxes, FluxCorrection,
//!                       FluxDivergence, RK2 stage updates, FillDerived
//!     LoadBalancingAndAMR — Refinement::Tag, UpdateMeshBlockTree,
//!                       RedistributeAndRefineMeshBlocks
//!     EstimateTimeStep
//! }
//! ```

pub mod amr;
pub mod block;
pub mod boundary;
pub mod conformance;
pub mod driver;
pub mod package;
pub mod snapshot;
pub mod sweep;
pub mod tasks;
#[cfg(test)]
pub(crate) mod test_package;
pub mod update;

pub use block::{fingerprint_slots, BlockInfo, BlockSlot};
pub use conformance::{
    check_package, check_partition_invariance, synthetic_block, ConformanceReport,
};
pub use driver::{cycle_task_graph, CycleSummary, Driver, DriverParams, ShardOutput};
pub use package::{DynPackage, FluxPhase, Package, PackageSpec, RefinementPolicy};
pub use snapshot::{read_snapshot, restore_driver, Snapshot};
pub use sweep::{CellBox, FluxTile};
pub use tasks::{TaskKind, TaskNode, TaskStatus};

pub use vibe_comm as comm;
pub use vibe_exec as exec;
pub use vibe_field as field;
pub use vibe_mesh as mesh;
pub use vibe_prof as prof;
