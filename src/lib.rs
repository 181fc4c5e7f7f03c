//! # vibe-amr
//!
//! A Rust reproduction of the system studied in *"Characterizing Adaptive
//! Mesh Refinement on Heterogeneous Platforms with Parthenon-VIBE"*
//! (IISWC 2025): a block-structured AMR framework (tree-based mesh, ghost
//! communication, flux correction, load balancing), the Parthenon-VIBE
//! Burgers benchmark (WENO5 + HLL + RK2), and analytical performance/memory
//! models of the paper's Sapphire Rapids + H100 testbed that regenerate
//! every figure and table of the evaluation.
//!
//! This facade crate re-exports the subsystem crates:
//!
//! * [`mesh`] — tree-based mesh, 2:1 nesting, Morton load balancing
//! * [`field`] — variables, containers, ghost buffers, prolong/restrict
//! * [`exec`] — Kokkos-like kernel launching and descriptors
//! * [`comm`] — simulated MPI (mailbox, buffer caches, collectives)
//! * [`prof`] — workload recording (kernels, serial, comm, memory)
//! * [`core`] — the evolution driver (timestep loop), the package
//!   interface (`Package`, `DynPackage`, `PackageSpec`) and its
//!   conformance harness
//! * [`burgers`] — the VIBE benchmark package
//! * [`physics`] — the other packages (advection, Euler, diffusion) and
//!   the closed roster: [`physics::PACKAGES`] names every package,
//!   [`physics::resolve`] builds one by name
//! * [`hwmodel`] — H100/SPR performance and memory models
//! * [`sim`] — discrete-event heterogeneous timeline simulator
//! * [`ft`] — deterministic fault injection (seeded message chaos, rank
//!   kills) for the transport layer
//! * [`rt`] — rank-parallel distributed runtime (virtual ranks as real
//!   concurrent shards over a channel transport), with failure detection
//!   and checkpoint-based recovery (`run_resilient`)
//! * [`serve`] — multi-tenant simulation service (WRR job scheduler,
//!   checkpoint/preempt/resume, fingerprint-keyed result cache, HTTP
//!   front end)
//!
//! ## Quickstart
//!
//! ```
//! use vibe_amr::prelude::*;
//!
//! let mesh = Mesh::new(
//!     MeshParams::builder()
//!         .dim(3)
//!         .mesh_cells(16)
//!         .block_cells(8)
//!         .max_levels(2)
//!         .build()?,
//! )?;
//! let pkg = BurgersPackage::new(BurgersParams { num_scalars: 1, ..Default::default() });
//! let mut driver = Driver::new(mesh, pkg, DriverParams::default());
//! driver.initialize(ic::gaussian_blob(0.8, 0.02));
//! driver.run_cycles(2);
//! let report = evaluate(driver.recorder(), &PlatformConfig::gpu(1, 1, 8));
//! println!("FOM: {:.3e} zone-cycles/s", report.fom);
//! # Ok::<(), vibe_mesh::MeshError>(())
//! ```

pub use vibe_burgers as burgers;
pub use vibe_comm as comm;
pub use vibe_core as core;
pub use vibe_exec as exec;
pub use vibe_field as field;
pub use vibe_ft as ft;
pub use vibe_hwmodel as hwmodel;
pub use vibe_mesh as mesh;
pub use vibe_physics as physics;
pub use vibe_prof as prof;
pub use vibe_rt as rt;
pub use vibe_serve as serve;
pub use vibe_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use vibe_burgers::{ic, BurgersPackage, BurgersParams, Reconstruction};
    pub use vibe_core::{
        check_package, fingerprint_slots, BlockInfo, BlockSlot, CycleSummary, Driver, DriverParams,
        DynPackage, Package, PackageSpec,
    };
    pub use vibe_field::{BlockData, Metadata, PackStrategy};
    pub use vibe_ft::{FaultPlan, FaultPlanSpec, KillSpec};
    pub use vibe_hwmodel::platform::evaluate;
    pub use vibe_hwmodel::{Backend, CpuSpec, GpuSpec, MemoryModel, PlatformConfig};
    pub use vibe_mesh::{Mesh, MeshParams};
    pub use vibe_physics::{resolve, Advect, AdvectRecon, PACKAGES};
    pub use vibe_prof::{ProfLevel, Recorder, RegionKey, StepFunction};
    pub use vibe_rt::{run_distributed, run_resilient, ResilienceOptions, RtRun, RtSession};
    pub use vibe_serve::{JobConfig, Service, ServiceConfig};
}
