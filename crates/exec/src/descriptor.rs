//! Static kernel descriptors: the microarchitectural identity of each
//! Kokkos kernel.

use vibe_prof::{Recorder, StepFunction};

/// Shape of a kernel's device-side iteration space, which determines warp
/// utilization and divergence behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InnerLoop {
    /// Only the innermost (x) block dimension maps to CUDA threads — the
    /// unoptimized Parthenon pattern. Each warp computes one mesh-block row,
    /// so rows shorter than the warp width strand lanes, and over-provisioned
    /// blocks leave whole warps doing only indexing work (§VII-A).
    BlockRow,
    /// A flattened 1D range over all cells: warps are fully populated except
    /// the tail.
    Flat,
}

/// Static properties of one kernel type.
///
/// `flops_per_cell` and `bytes_per_cell` describe the work per *interior*
/// cell for one component set; stencil kernels additionally read ghost
/// data, which callers account for via the launch-time byte multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelDescriptor {
    /// Kernel name (matches the paper's Table III rows).
    pub name: &'static str,
    /// Timestep-loop function the kernel belongs to.
    pub func: StepFunction,
    /// Double-precision FLOPs per processed cell.
    pub flops_per_cell: f64,
    /// Bytes moved to/from memory per processed cell.
    pub bytes_per_cell: f64,
    /// Registers per CUDA thread (drives SM occupancy).
    pub registers_per_thread: u32,
    /// CUDA threads per block.
    pub threads_per_block: u32,
    /// Fraction of launched warps doing useful computation (CalculateFluxes
    /// launches 4 warps per block but only one computes; the rest execute
    /// indexing and exit — 78% of warp instructions are ineffective).
    pub useful_warp_fraction: f64,
    /// Device-side loop shape.
    pub inner_loop: InnerLoop,
    /// Fraction of CPU instructions that vectorize when the inner loop is
    /// long enough (feeds the opcode-mix model).
    pub vector_fraction: f64,
    /// Fraction of peak HBM bandwidth this kernel's access pattern achieves
    /// at full occupancy on 32-cell blocks (sparse mesh-block layouts cap
    /// this well below 1.0 — paper §VII-A).
    pub mem_access_efficiency: f64,
    /// Fraction of peak FP64 throughput achievable when compute-bound
    /// (instruction-level parallelism and issue limits).
    pub ilp_efficiency: f64,
}

impl KernelDescriptor {
    /// Records one launch of this kernel over `cells` cells in `rec`; the
    /// functional work runs in the caller's own host loops. One call with
    /// `cells` covering many mesh blocks is one device launch over a
    /// mesh-block pack, as Parthenon's packed launches are.
    ///
    /// `byte_multiplier` scales the per-cell bytes to account for
    /// launch-specific overheads — chiefly ghost-inclusive stencil reads,
    /// which grow relative to interior work as blocks shrink
    /// ([`ghost_byte_multiplier`]).
    ///
    /// ```
    /// use vibe_exec::catalog;
    /// use vibe_prof::{Recorder, StepFunction};
    ///
    /// let mut rec = Recorder::new();
    /// rec.begin_cycle(0);
    /// catalog::WEIGHTED_SUM_DATA.record(&mut rec, 4096, 1.0);
    /// rec.end_cycle(1, 0, 0, 4096);
    /// let k = &rec.totals().kernels[&(StepFunction::WeightedSumData, "WeightedSumData")];
    /// assert_eq!((k.launches, k.cells), (1, 4096));
    /// ```
    pub fn record(&self, rec: &mut Recorder, cells: u64, byte_multiplier: f64) {
        let flops = (cells as f64 * self.flops_per_cell).round() as u64;
        let bytes = (cells as f64 * self.bytes_per_cell * byte_multiplier).round() as u64;
        rec.record_kernel(self.func, self.name, 1, cells, flops, bytes);
    }
}

/// The ghost-inclusive byte multiplier for a stencil kernel over cubic
/// blocks of `block_cells` per active dimension with `nghost` ghost layers:
/// `((B + 2·ng)/B)^dim`.
pub fn ghost_byte_multiplier(block_cells: usize, nghost: usize, dim: usize) -> f64 {
    ((block_cells + 2 * nghost) as f64 / block_cells as f64).powi(dim as i32)
}

/// The catalog of Parthenon-VIBE kernels characterized in Table III, plus
/// auxiliary framework kernels. Registers/thread and block configurations
/// are set to reproduce the occupancy limits Nsight Compute reports: e.g.
/// `CalculateFluxes` uses >100 registers per thread, capping occupancy near
/// 25%, while `WeightedSumData` is register-light and runs near full
/// occupancy.
pub mod catalog {
    use super::{InnerLoop, KernelDescriptor};
    use vibe_prof::StepFunction;

    /// WENO5 reconstruction + HLL Riemann fluxes (41% of kernel time).
    pub const CALCULATE_FLUXES: KernelDescriptor = KernelDescriptor {
        name: "CalculateFluxes",
        func: StepFunction::CalculateFluxes,
        flops_per_cell: 1548.0,
        bytes_per_cell: 360.0,
        registers_per_thread: 128,
        threads_per_block: 128,
        useful_warp_fraction: 0.25,
        inner_loop: InnerLoop::BlockRow,
        vector_fraction: 0.78,
        mem_access_efficiency: 0.39,
        ilp_efficiency: 0.3,
    };

    /// First-derivative refinement criterion evaluation.
    pub const FIRST_DERIVATIVE: KernelDescriptor = KernelDescriptor {
        name: "FirstDerivative",
        func: StepFunction::RefinementTag,
        flops_per_cell: 725.0,
        bytes_per_cell: 50.0,
        registers_per_thread: 64,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::Flat,
        vector_fraction: 0.70,
        mem_access_efficiency: 0.5,
        ilp_efficiency: 0.02,
    };

    /// History reduction of total scalar mass.
    pub const MASS_HISTORY: KernelDescriptor = KernelDescriptor {
        name: "MassHistory",
        func: StepFunction::MassHistory,
        flops_per_cell: 25.0,
        bytes_per_cell: 8.0,
        registers_per_thread: 128,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::BlockRow,
        vector_fraction: 0.80,
        mem_access_efficiency: 0.08,
        ilp_efficiency: 0.2,
    };

    /// Runge-Kutta weighted state averaging.
    pub const WEIGHTED_SUM_DATA: KernelDescriptor = KernelDescriptor {
        name: "WeightedSumData",
        func: StepFunction::WeightedSumData,
        flops_per_cell: 7.0,
        bytes_per_cell: 24.0,
        registers_per_thread: 34,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::Flat,
        vector_fraction: 0.85,
        mem_access_efficiency: 0.5,
        ilp_efficiency: 0.5,
    };

    /// Device-side restriction + buffer packing for ghost sends.
    pub const SEND_BOUND_BUFS: KernelDescriptor = KernelDescriptor {
        name: "SendBoundBufs",
        func: StepFunction::SendBoundBufs,
        flops_per_cell: 0.0,
        bytes_per_cell: 16.0,
        registers_per_thread: 33,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::Flat,
        vector_fraction: 0.60,
        mem_access_efficiency: 0.29,
        ilp_efficiency: 0.5,
    };

    /// Buffer unpacking into ghost cells.
    pub const SET_BOUNDS: KernelDescriptor = KernelDescriptor {
        name: "SetBounds",
        func: StepFunction::SetBounds,
        flops_per_cell: 2.0,
        bytes_per_cell: 16.0,
        registers_per_thread: 64,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::Flat,
        vector_fraction: 0.60,
        mem_access_efficiency: 0.22,
        ilp_efficiency: 0.5,
    };

    /// Divergence of face fluxes into conserved-state updates.
    pub const FLUX_DIVERGENCE: KernelDescriptor = KernelDescriptor {
        name: "FluxDivergence",
        func: StepFunction::FluxDivergence,
        flops_per_cell: 33.0,
        bytes_per_cell: 56.0,
        registers_per_thread: 33,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::Flat,
        vector_fraction: 0.80,
        mem_access_efficiency: 0.52,
        ilp_efficiency: 0.5,
    };

    /// Per-mesh CFL timestep reduction.
    pub const ESTIMATE_TIMESTEP_MESH: KernelDescriptor = KernelDescriptor {
        name: "Est.Time.Mesh",
        func: StepFunction::EstimateTimeStep,
        flops_per_cell: 41.0,
        bytes_per_cell: 24.0,
        registers_per_thread: 128,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::BlockRow,
        vector_fraction: 0.75,
        mem_access_efficiency: 0.14,
        ilp_efficiency: 0.2,
    };

    /// Prolongation/restriction loops during regridding and ghost exchange.
    pub const PROLONG_RESTRICT_LOOP: KernelDescriptor = KernelDescriptor {
        name: "Prolong.Restr.Loop",
        func: StepFunction::RedistributeAndRefineMeshBlocks,
        flops_per_cell: 22.0,
        bytes_per_cell: 72.0,
        registers_per_thread: 62,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::Flat,
        vector_fraction: 0.65,
        mem_access_efficiency: 0.57,
        ilp_efficiency: 0.5,
    };

    /// Derived-quantity computation (the auxiliary field `d`).
    pub const CALCULATE_DERIVED: KernelDescriptor = KernelDescriptor {
        name: "CalculateDerived",
        func: StepFunction::FillDerived,
        flops_per_cell: 4.0,
        bytes_per_cell: 40.0,
        registers_per_thread: 80,
        threads_per_block: 128,
        useful_warp_fraction: 1.0,
        inner_loop: InnerLoop::Flat,
        vector_fraction: 0.80,
        mem_access_efficiency: 0.55,
        ilp_efficiency: 0.5,
    };

    /// All catalog kernels in Table III order.
    pub const ALL: [&KernelDescriptor; 10] = [
        &CALCULATE_FLUXES,
        &FIRST_DERIVATIVE,
        &MASS_HISTORY,
        &WEIGHTED_SUM_DATA,
        &SEND_BOUND_BUFS,
        &SET_BOUNDS,
        &FLUX_DIVERGENCE,
        &ESTIMATE_TIMESTEP_MESH,
        &PROLONG_RESTRICT_LOOP,
        &CALCULATE_DERIVED,
    ];

    /// Looks a catalog kernel up by name.
    pub fn by_name(name: &str) -> Option<&'static KernelDescriptor> {
        ALL.iter().copied().find(|k| k.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_unique() {
        let mut names: Vec<_> = catalog::ALL.iter().map(|k| k.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert_eq!(n, 10, "Table III lists 10 kernels");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            catalog::by_name("CalculateFluxes")
                .unwrap()
                .registers_per_thread,
            128
        );
        assert!(catalog::by_name("Nope").is_none());
    }

    #[test]
    fn flux_kernel_matches_paper_characterization() {
        let k = catalog::CALCULATE_FLUXES;
        // >100 registers per thread (paper §VII-A).
        assert!(k.registers_per_thread > 100);
        // 128 threads = 4 warps per block, only 1 useful.
        assert_eq!(k.threads_per_block, 128);
        assert!((k.useful_warp_fraction - 0.25).abs() < 1e-12);
        // AI near the reported 4.3 FLOPs/B at B32.
        assert!((k.flops_per_cell / k.bytes_per_cell - 4.3).abs() < 0.01);
    }

    #[test]
    fn copy_kernels_have_low_intensity() {
        assert_eq!(catalog::SEND_BOUND_BUFS.flops_per_cell, 0.0);
        for k in [catalog::SET_BOUNDS, catalog::WEIGHTED_SUM_DATA] {
            assert!(k.flops_per_cell < k.bytes_per_cell, "{}", k.name);
        }
    }

    #[test]
    fn memory_bound_overall() {
        // All kernels except the stencil-heavy FirstDerivative fall below
        // the H100 operational intensity of ~10.1 FLOPs/B, i.e. the workload
        // is memory-bound (paper §VII-A).
        for k in catalog::ALL {
            let compute_bound = k.flops_per_cell > 10.1 * k.bytes_per_cell;
            assert_eq!(compute_bound, k.name == "FirstDerivative", "{}", k.name);
        }
    }

    #[test]
    fn launch_records_work() {
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        catalog::CALCULATE_FLUXES.record(&mut rec, 1000, 1.0);
        catalog::CALCULATE_FLUXES.record(&mut rec, 500, 2.0);
        rec.end_cycle(1, 0, 0, 1500);
        let k = &rec.totals().kernels[&(StepFunction::CalculateFluxes, "CalculateFluxes")];
        assert_eq!(k.launches, 2);
        assert_eq!(k.cells, 1500);
        assert_eq!(k.flops, 1548 * 1500);
        // 1000 * 360 + 500 * 720
        assert_eq!(k.bytes, 720_000);
    }

    #[test]
    fn ghost_multiplier_grows_for_small_blocks() {
        let m32 = ghost_byte_multiplier(32, 4, 3);
        let m16 = ghost_byte_multiplier(16, 4, 3);
        let m8 = ghost_byte_multiplier(8, 4, 3);
        assert!(m32 < m16 && m16 < m8);
        assert!((m8 - 8.0).abs() < 1e-12, "(8+8)/8 cubed = 8");
        assert!((m32 - (40.0f64 / 32.0).powi(3)).abs() < 1e-12);
    }

    #[test]
    fn smaller_blocks_lower_arithmetic_intensity() {
        // The paper's Table III: CalculateFluxes AI drops 4.3 -> 3.4 from
        // B32 to B16 as ghost traffic grows relative to interior work.
        let k = catalog::CALCULATE_FLUXES;
        let ai = |b: usize| {
            k.flops_per_cell
                / (k.bytes_per_cell * ghost_byte_multiplier(b, 4, 3)
                    / ghost_byte_multiplier(32, 4, 3))
        };
        assert!(ai(16) < ai(32));
    }
}
