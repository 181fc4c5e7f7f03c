//! # vibe-exec
//!
//! A Kokkos-like execution abstraction. Each kernel carries a static
//! [`KernelDescriptor`] with the microarchitecturally relevant properties —
//! registers per thread, CUDA block configuration, useful-warp fraction,
//! inner-loop shape — that the hardware model uses to derive SM occupancy,
//! warp utilization, and roofline timing exactly as NVIDIA Nsight Compute
//! reports them for the real Parthenon kernels (paper Table III). A launch
//! is recorded with [`KernelDescriptor::record`] as a precise work
//! descriptor (cells, FLOPs, bytes, launch count) in the profiler; the
//! functional work runs in the caller's own host loops. The framework
//! driver records every launch — packages supply per-block kernels and
//! never see a pack or a recorder.
//!
//! Host-side data parallelism over mesh blocks has one entry point,
//! [`ExecCtx`] (`for_each_block`, `map_blocks`, `for_each_index`), backed
//! by the persistent [`pool`] of parked worker threads with dynamic
//! (atomic-index) scheduling.

pub mod descriptor;
pub mod host;
pub mod pool;

pub use descriptor::{catalog, ghost_byte_multiplier, InnerLoop, KernelDescriptor};
pub use host::{ExecCtx, SharedCells};
pub use pool::{dispatch_label, set_dispatch_label, stats_begin, stats_end, WorkerPool};
