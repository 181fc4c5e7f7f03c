//! # vibe-field
//!
//! Cell-centered field storage for block-structured AMR: multi-component
//! arrays, variables with metadata, per-block containers with variable packs,
//! inter-level prolongation/restriction operators, and the ghost-zone buffer
//! pack/unpack machinery that backs Parthenon's `SendBoundBufs` /
//! `SetBounds` communication cycle.
//!
//! Layout follows Parthenon: each variable on each block is a 4D array
//! `(component, k, j, i)` over the ghost-inclusive block extent, with `i`
//! fastest. Ghost cells at block boundaries are refreshed every timestep via
//! packed boundary buffers; data moving from fine to coarse blocks is
//! *restricted before sending* to reduce communication volume, while data
//! moving from coarse to fine blocks is sent at coarse resolution and
//! *prolongated on the receiver*.

pub mod array;
pub mod buffer;
pub mod container;
pub mod fluxcorr;
pub mod lanes;
pub mod ops;
pub mod region;
pub mod variable;

pub use array::Array4;
pub use buffer::{
    compute_buffer_spec, pack, unpack, BufferMode, BufferSpec, CellRows, RowProgram,
    TransferProgram,
};
pub use container::{BlockData, PackStrategy, VarId, VariablePack};
pub use fluxcorr::{apply_flux, flux_correction_spec, pack_flux, FluxCorrSpec, FluxProgram};
pub use lanes::{minmod_lanes, F64Lanes, LaneMask};
pub use ops::{minmod, restrict_average};
pub use region::Region;
pub use variable::{CellVariable, FluxOut, Metadata};

// The buffer machinery needs mesh types (index shapes, logical locations).
pub use vibe_mesh as mesh;
