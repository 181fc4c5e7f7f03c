//! GPU device memory footprint model (Fig. 10), the §VIII-B
//! auxiliary-buffer restructuring formula, and the same formula for this
//! repository's own host flux storage.

use crate::specs::GpuSpec;

/// Layout of the auxiliary intermediate variables of the flux kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxBufferLayout {
    /// One full 3D (or `dim`-D) scratch buffer per mesh block — Parthenon's
    /// current kernels, which launch only over the innermost dimension.
    PerMeshBlock3D,
    /// Restructured kernels: scratch buffers sized per GPU thread block over
    /// `d`-dimensional segments (§VIII-B's optimization).
    PerThreadBlock {
        /// Reduced buffer dimensionality (e.g. 2 for 2D loop segments).
        d: u32,
        /// Concurrent GPU thread blocks ([`THREAD_BLOCKS`] on an H100).
        thread_blocks: u64,
    },
}

/// Auxiliary intermediate-variable footprint in bytes, per §VIII-B:
///
/// ```text
/// pre:  #MeshBlocks   × B × 6 × (nx1 + 2·ng)^dim × (3 + num_scalar)
/// post: #ThreadBlocks × B × 6 × (nx1 + 2·ng)^d   × (3 + num_scalar)
/// ```
///
/// where `B` is bytes per variable (8), the factor 6 covers three spatial
/// directions × two sides, `ng` is the ghost count (4 for WENO5), and
/// `3 + num_scalar` counts the conserved components.
pub fn aux_buffer_bytes(
    mesh_blocks: u64,
    nx1: usize,
    nghost: usize,
    num_scalar: usize,
    dim: u32,
    layout: AuxBufferLayout,
) -> u64 {
    let b = 8u64; // bytes per f64
    let comps = (3 + num_scalar) as u64;
    let width = (nx1 + 2 * nghost) as u64;
    match layout {
        AuxBufferLayout::PerMeshBlock3D => mesh_blocks * b * 6 * width.pow(dim) * comps,
        AuxBufferLayout::PerThreadBlock { d, thread_blocks } => {
            thread_blocks * b * 6 * width.pow(d) * comps
        }
    }
}

/// How the host path stores the face fluxes of the evolved variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FluxStorage {
    /// Three ghost-inclusive face arrays per variable per block, one longer
    /// along the face normal (Parthenon's layout, and what
    /// `CellVariable::nbytes` still models).
    PerBlockArrays,
    /// §VIII-B applied to the host: the fluxes live in per-worker tile
    /// scratch; a block keeps their divergence over its interior and the
    /// planes on its outer faces.
    TileScratch {
        /// Worker threads sweeping.
        workers: u64,
        /// Scratch bytes per worker (`vibe_core::sweep::TILE_BUDGET_BYTES`).
        tile_budget_bytes: u64,
    },
}

/// Bytes of flux storage for `mesh_blocks` blocks of `nx1` cells per active
/// dimension with `nghost` ghosts and `ncomp` flux components:
///
/// ```text
/// per-block arrays: #MeshBlocks × B × ncomp × dim·(nx1 + 2·ng)^(dim−1)·(nx1 + 2·ng + 1)
/// tile scratch:     #Workers × budget + #MeshBlocks × B × ncomp × (nx1^dim + 2·dim·nx1^(dim−1))
/// ```
pub fn flux_storage_bytes(
    mesh_blocks: u64,
    nx1: usize,
    nghost: usize,
    ncomp: usize,
    dim: u32,
    layout: FluxStorage,
) -> u64 {
    let (n, e, d) = (nx1 as u64, (nx1 + 2 * nghost) as u64, dim as u64);
    let (scratch, per_component) = match layout {
        FluxStorage::PerBlockArrays => (0, d * e.pow(dim - 1) * (e + 1)),
        FluxStorage::TileScratch {
            workers,
            tile_budget_bytes,
        } => (
            workers * tile_budget_bytes,
            n.pow(dim) + 2 * d * n.pow(dim - 1),
        ),
    };
    scratch + mesh_blocks * 8 * ncomp as u64 * per_component
}

/// Bytes of Open MPI driver overhead resident per rank (exacerbated by the
/// IPC-cache leak the paper references). With [`MPI_BUFFER_BASE_PER_RANK`]
/// calibrated to the paper's anchor: Mesh 128 / B8 / L3 with 12 ranks
/// consumes 75.5 GB of the 80 GB HBM (Fig. 10).
pub const MPI_DRIVER_PER_RANK: u64 = 3_400 << 20; // ~3.4 GiB/rank

/// Bytes of MPI communication buffers per rank, plus a per-remote-buffer
/// share added by [`MemoryModel::report`].
pub const MPI_BUFFER_BASE_PER_RANK: u64 = 1_700 << 20;

/// Concurrent GPU thread blocks on an H100: the scratch count of the
/// §VIII-B optimized auxiliary-buffer layout.
pub const THREAD_BLOCKS: u64 = 1024;

/// The device memory model (Fig. 10).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryModel {
    /// Whether the §VIII-B auxiliary-buffer optimization is applied.
    pub aux_layout_optimized: bool,
}

/// Device memory breakdown for one GPU hosting `ranks` ranks (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryReport {
    /// Kokkos/Parthenon-managed mesh data (variables + fluxes).
    pub kokkos_data_bytes: u64,
    /// Auxiliary intermediate buffers (the §VIII-B term).
    pub kokkos_aux_bytes: u64,
    /// MPI communication buffers.
    pub mpi_buffer_bytes: u64,
    /// Open MPI driver overhead.
    pub mpi_driver_bytes: u64,
    /// Whether the total exceeds the GPU's HBM capacity.
    pub oom: bool,
}

impl MemoryReport {
    /// Total bytes across all components.
    pub fn total(&self) -> u64 {
        self.kokkos_data_bytes
            + self.kokkos_aux_bytes
            + self.mpi_buffer_bytes
            + self.mpi_driver_bytes
    }

    /// Kokkos-managed total (the green bars of Fig. 10).
    pub fn kokkos_total(&self) -> u64 {
        self.kokkos_data_bytes + self.kokkos_aux_bytes
    }

    /// MPI-attributed total (the pink bars of Fig. 10).
    pub fn mpi_total(&self) -> u64 {
        self.mpi_buffer_bytes + self.mpi_driver_bytes
    }
}

impl MemoryModel {
    /// Builds the device memory report for one GPU:
    ///
    /// * `variable_bytes` — measured Kokkos variable + flux allocation bytes
    ///   (from the field containers);
    /// * `mesh_blocks`, `nx1`, `nghost`, `num_scalar`, `dim` — mesh shape
    ///   for the auxiliary-buffer formula;
    /// * `ranks` — ranks sharing this GPU;
    /// * `remote_buffer_bytes` — live boundary-buffer bytes for remote
    ///   communication.
    #[allow(clippy::too_many_arguments)]
    pub fn report(
        &self,
        gpu: &GpuSpec,
        variable_bytes: u64,
        mesh_blocks: u64,
        nx1: usize,
        nghost: usize,
        num_scalar: usize,
        dim: u32,
        ranks: usize,
        remote_buffer_bytes: u64,
    ) -> MemoryReport {
        let layout = if self.aux_layout_optimized {
            AuxBufferLayout::PerThreadBlock {
                d: 2,
                thread_blocks: THREAD_BLOCKS * ranks as u64,
            }
        } else {
            AuxBufferLayout::PerMeshBlock3D
        };
        let kokkos_aux_bytes = aux_buffer_bytes(mesh_blocks, nx1, nghost, num_scalar, dim, layout);
        let mpi_driver_bytes = MPI_DRIVER_PER_RANK * ranks as u64;
        let mpi_buffer_bytes = MPI_BUFFER_BASE_PER_RANK * ranks as u64 + 2 * remote_buffer_bytes;
        let report = MemoryReport {
            kokkos_data_bytes: variable_bytes,
            kokkos_aux_bytes,
            mpi_buffer_bytes,
            mpi_driver_bytes,
            oom: false,
        };
        MemoryReport {
            oom: report.total() > gpu.mem_capacity,
            ..report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_pre_optimization() {
        // §VIII-B: num_scalar = 8, nx1 = 8, ng = 4, B = 8 bytes:
        // per-block aux = 8 × 6 × 16³ × 11 = 2,162,688 bytes. The paper's
        // 8.858 GB total implies ≈ 4096 mesh blocks.
        let per_block = aux_buffer_bytes(1, 8, 4, 8, 3, AuxBufferLayout::PerMeshBlock3D);
        assert_eq!(per_block, 8 * 6 * 16u64.pow(3) * 11);
        let total = aux_buffer_bytes(4096, 8, 4, 8, 3, AuxBufferLayout::PerMeshBlock3D);
        let gb = total as f64 / 1e9;
        assert!((gb - 8.858).abs() < 0.05, "got {gb} GB");
    }

    #[test]
    fn paper_example_post_optimization() {
        // §VIII-B: restructured to 2D segments over 1024 thread blocks:
        // 1024 × 8 × 6 × 16² × 11 ≈ 0.138 GB.
        let total = aux_buffer_bytes(
            4096,
            8,
            4,
            8,
            3,
            AuxBufferLayout::PerThreadBlock {
                d: 2,
                thread_blocks: 1024,
            },
        );
        let gb = total as f64 / 1e9;
        assert!((gb - 0.138).abs() < 0.005, "got {gb} GB");
    }

    #[test]
    fn optimization_reduction_factor_matches_paper() {
        let pre = aux_buffer_bytes(4096, 8, 4, 8, 3, AuxBufferLayout::PerMeshBlock3D);
        let post = aux_buffer_bytes(
            4096,
            8,
            4,
            8,
            3,
            AuxBufferLayout::PerThreadBlock {
                d: 2,
                thread_blocks: 1024,
            },
        );
        let factor = pre as f64 / post as f64;
        assert!(
            (factor - 64.0).abs() < 1.0,
            "8.858/0.138 ≈ 64: got {factor}"
        );
    }

    #[test]
    fn host_flux_storage_matches_the_field_containers() {
        // A B16 Burgers block (7 flux components, 4 ghosts): three
        // 24·24·25 arrays before; 16³ of divergence and six 16² planes
        // after — what `CellVariable::{nbytes, resident_bytes}` count.
        let pre = flux_storage_bytes(1, 16, 4, 7, 3, FluxStorage::PerBlockArrays);
        assert_eq!(pre, 7 * 3 * 24 * 24 * 25 * 8);
        let tiles = FluxStorage::TileScratch {
            workers: 2,
            tile_budget_bytes: 1 << 18,
        };
        let post = flux_storage_bytes(1, 16, 4, 7, 3, tiles);
        assert_eq!(post, 2 * (1 << 18) + 7 * (4096 + 6 * 256) * 8);
        // The scratch does not grow with the mesh.
        let many = flux_storage_bytes(1000, 16, 4, 7, 3, tiles);
        assert_eq!(many - post, 999 * 7 * (4096 + 6 * 256) * 8);
    }

    #[test]
    fn memory_grows_with_ranks_mpi_dominated() {
        let gpu = GpuSpec::H100;
        let model = MemoryModel::default();
        let mk = |ranks| model.report(&gpu, 12 << 30, 4096, 8, 4, 8, 3, ranks, 1 << 30);
        let r1 = mk(1);
        let r12 = mk(12);
        assert!(r12.total() > r1.total());
        // Kokkos allocations are ~constant with ranks; MPI grows (Fig. 10).
        assert_eq!(r1.kokkos_total(), r12.kokkos_total());
        assert!(r12.mpi_total() > 10 * r1.mpi_driver_bytes);
    }

    #[test]
    fn twelve_ranks_approach_hbm_capacity() {
        // Paper: Mesh 128, B8, L3 with 12 ranks consumes 75.5 GB of the
        // 80 GB HBM.
        let gpu = GpuSpec::H100;
        let model = MemoryModel::default();
        // ~4 GB of field data (measured census extrapolated) + aux buffers.
        let r = model.report(&gpu, 4 << 30, 4096, 8, 4, 8, 3, 12, 1 << 30);
        let gb = r.total() as f64 / 1e9;
        assert!(gb > 68.0 && gb < 82.0, "paper: 75.5 GB; got {gb} GB");
        assert!(!r.oom, "12 ranks still fit");
        // 16 ranks no longer fit.
        let r16 = model.report(&gpu, 4 << 30, 4096, 8, 4, 8, 3, 16, 1 << 30);
        assert!(r16.oom);
    }

    #[test]
    fn oom_detected_beyond_capacity() {
        let gpu = GpuSpec::H100;
        let model = MemoryModel::default();
        let r = model.report(&gpu, 40 << 30, 4096, 8, 4, 8, 3, 24, 4 << 30);
        assert!(
            r.oom,
            "24 ranks must exceed 80 GB: {} GB",
            r.total() as f64 / 1e9
        );
    }

    #[test]
    fn optimized_layout_shrinks_kokkos_share() {
        let gpu = GpuSpec::H100;
        let base = MemoryModel::default();
        let opt = MemoryModel {
            aux_layout_optimized: true,
        };
        let rb = base.report(&gpu, 12 << 30, 4096, 8, 4, 8, 3, 4, 1 << 30);
        let ro = opt.report(&gpu, 12 << 30, 4096, 8, 4, 8, 3, 4, 1 << 30);
        assert!(ro.kokkos_aux_bytes < rb.kokkos_aux_bytes / 10);
        assert_eq!(ro.mpi_total(), rb.mpi_total());
    }
}
