//! # vibe-hwmodel
//!
//! Analytical performance and memory models of the paper's heterogeneous
//! testbed: a 96-core Intel Sapphire Rapids node (Table I) and NVIDIA H100
//! GPUs (Table II). The models consume the workload counters produced by
//! the functional AMR simulation (`vibe-prof::Recorder`) and produce the
//! quantities the paper reports:
//!
//! * per-kernel GPU microarchitecture metrics — duration, SM utilization,
//!   SM occupancy, warp utilization, bandwidth utilization, arithmetic
//!   intensity (Table III) — from a register-file occupancy model, a
//!   sparse-access roofline, and a warp-divergence model;
//! * serial host time per timestep-loop function (Figs. 7, 9, 11, 12) from
//!   typed serial work counters and Amdahl rank scaling;
//! * communication time from message latency/bandwidth and collective cost
//!   growth with rank count (Fig. 8's FOM rollover);
//! * GPU device memory footprints split into Kokkos-managed allocations and
//!   MPI buffers + Open MPI driver overhead, with OOM detection (Fig. 10)
//!   and the §VIII-B auxiliary-buffer restructuring formula;
//! * CPU instruction opcode mixes (Fig. 13).
//!
//! Every calibrated constant is written once here — the specs
//! (`CpuSpec::SAPPHIRE_RAPIDS_96`, `GpuSpec::H100`), the cost tables
//! (`SerialCosts::CALIBRATED`, `CommCosts::CALIBRATED`), the `platform` and
//! `memory` constants — and `vibe-sim` reads the same items, so
//! [`PlatformConfig`] and [`MemoryModel`] carry only what a caller varies.
//!
//! Nothing here executes on real accelerator hardware: this crate is the
//! documented substitution for the paper's CUDA/Nsight/PIN toolchain (see
//! DESIGN.md).

pub mod comm_cost;
pub mod gpu;
pub mod memory;
pub mod occupancy;
pub mod opcode;
pub mod platform;
pub mod serial;
pub mod specs;

pub use comm_cost::CommCosts;
pub use gpu::{grid_fill, kernel_duration, kernel_metrics, launch_exec_seconds, KernelMetrics};
pub use memory::{
    aux_buffer_bytes, flux_storage_bytes, AuxBufferLayout, FluxStorage, MemoryModel, MemoryReport,
};
pub use occupancy::{occupancy, Occupancy};
pub use opcode::{opcode_mix, opcode_mix_with_efficiency, vector_efficiency, OpcodeMix};
pub use platform::{Backend, FunctionTime, PlatformConfig, PlatformReport};
pub use serial::SerialCosts;
pub use specs::{CpuSpec, GpuSpec};
