//! # vibe-burgers
//!
//! The Parthenon-VIBE benchmark: a Godunov-type finite-volume solver for
//! the 3D **vector inviscid Burgers' equation**
//!
//! ```text
//! ∂u/∂t + ∇·(½ u u) = 0
//! ```
//!
//! with passive scalars `qⁱ` advected by the velocity field,
//!
//! ```text
//! ∂qⁱ/∂t + ∇·(qⁱ u) = 0,
//! ```
//!
//! and the derived kinetic-energy-like quantity `d = ½ q⁰ u·u`.
//!
//! The package offers WENO5 (Jiang–Shu) or slope-limited linear
//! reconstruction, HLL fluxes, second-order Runge-Kutta integration (via
//! the `vibe-core` driver), first-derivative refinement tagging, and a
//! total-mass history — exactly the pieces the paper's characterization
//! exercises.
//!
//! ```no_run
//! use vibe_burgers::{BurgersPackage, BurgersParams, ic};
//! use vibe_core::{Driver, DriverParams};
//! use vibe_mesh::{Mesh, MeshParams};
//!
//! let mesh = Mesh::new(
//!     MeshParams::builder().dim(3).mesh_cells(32).block_cells(16).max_levels(2).build()?,
//! )?;
//! let pkg = BurgersPackage::new(BurgersParams::default());
//! let mut driver = Driver::new(mesh, pkg, DriverParams::default());
//! driver.initialize(ic::gaussian_blob(1.0, 0.05));
//! driver.run_cycles(5);
//! # Ok::<(), vibe_mesh::MeshError>(())
//! ```

pub mod ic;
pub mod package;
pub mod recon;
pub mod riemann;
pub mod simd;
pub mod verify;

pub use package::{BurgersPackage, BurgersParams, Reconstruction};
pub use recon::{
    reconstruct_linear, reconstruct_linear_lanes, reconstruct_weno5, reconstruct_weno5_lanes,
    weno5_left, weno5_left_lanes,
};
pub use riemann::{hll_flux, hll_flux_lanes};
pub use simd::{face_counts, take_face_counts, LinearKernel, Weno5Kernel};
pub use verify::{advection_l1_error, convergence_order};
