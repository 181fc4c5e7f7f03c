//! # vibe-exec
//!
//! A Kokkos-like execution abstraction: every kernel launch is recorded
//! through a [`Launcher`] as a precise work descriptor (cells, FLOPs, bytes,
//! launch count) in the profiler, while the functional work itself runs in
//! the caller's own host loops. Each kernel carries a static [`KernelDescriptor`]
//! with the microarchitecturally relevant properties — registers per
//! thread, CUDA block configuration, useful-warp fraction, inner-loop
//! shape — that the hardware model uses to derive SM occupancy, warp
//! utilization, and roofline timing exactly as NVIDIA Nsight Compute
//! reports them for the real Parthenon kernels (paper Table III).
//!
//! Host-side data parallelism over mesh blocks is provided by
//! [`for_each_block_parallel`], backed by the persistent [`pool`] of
//! parked worker threads with dynamic (atomic-index) scheduling.

pub mod descriptor;
pub mod host;
pub mod launcher;
pub mod pool;

pub use descriptor::{catalog, InnerLoop, KernelDescriptor};
pub use host::{for_each_block_parallel, map_block_parallel, ExecCtx, SharedCells};
pub use launcher::{ghost_byte_multiplier, Launcher};
pub use pool::{
    dispatch_label, for_each_index, set_dispatch_label, stats_begin, stats_end, WorkerPool,
};
