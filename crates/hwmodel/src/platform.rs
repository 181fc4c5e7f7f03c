//! Platform-level aggregation: converts a recorded workload into modeled
//! wall time, per-function breakdowns, GPU utilization, and the
//! zone-cycles/s figure of merit for a concrete CPU/GPU configuration.

use vibe_prof::{Recorder, StepFunction};

use crate::comm_cost::CommCosts;
use crate::gpu::{descriptor_for, kernel_duration};
use crate::opcode::vector_efficiency;
use crate::serial::SerialCosts;
use crate::specs::{CpuSpec, GpuSpec};

/// Which processors execute the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// CPU-only: one MPI rank per core, kernels run on the host cores.
    Cpu {
        /// Ranks (cores) per node.
        ranks: usize,
    },
    /// GPU: kernels offload to `gpus` devices; host serial code runs on
    /// `ranks_per_gpu` MPI ranks per GPU (the paper's rank-scaling axis).
    Gpu {
        /// GPUs per node.
        gpus: usize,
        /// MPI ranks sharing each GPU.
        ranks_per_gpu: usize,
    },
}

/// Fraction of remote messages crossing node boundaries when `nodes > 1`.
pub const INTERNODE_FRACTION: f64 = 0.12;

/// Fraction of peak core FP64 the CPU kernels achieve before
/// vectorization-length effects (issue limits, cache misses).
pub const CPU_KERNEL_EFFICIENCY: f64 = 0.028;

/// Per-rank-per-cycle host overhead of GPU sharing (MPS time slicing,
/// driver contention, MPI progression) — the term that makes rank scaling
/// roll over (Fig. 8).
pub const GPU_RANK_OVERHEAD: f64 = 0.6e-3;

/// Multiplier on communication time for GPU backends spanning nodes:
/// device buffers stage through host memory and the NIC (no GPUDirect in
/// the paper's Open MPI configuration), so GPU runs scale worse across
/// nodes than CPU runs (§V).
pub const GPU_INTERNODE_COMM_PENALTY: f64 = 2.5;

/// Host seconds per cycle that `ranks_per_gpu` ranks sharing one GPU add
/// to each rank ([`GPU_RANK_OVERHEAD`] per extra rank). The analytic model
/// and the timeline simulator both charge it to `ReceiveBoundBufs`.
pub fn gpu_sharing_seconds(ranks_per_gpu: usize) -> f64 {
    GPU_RANK_OVERHEAD * (ranks_per_gpu.max(1) as f64 - 1.0)
}

/// A platform to evaluate a workload against: the paper's Sapphire Rapids
/// node ([`CpuSpec::SAPPHIRE_RAPIDS_96`]) or H100s ([`GpuSpec::H100`]),
/// costed by the calibrated tables ([`SerialCosts::CALIBRATED`],
/// [`CommCosts::CALIBRATED`]) and this module's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Processor configuration per node.
    pub backend: Backend,
    /// Node count (§V multi-node analysis; 1 for the main study).
    pub nodes: usize,
    /// Mesh block edge length in cells (warp/vectorization models).
    pub block_cells: usize,
}

impl PlatformConfig {
    /// The paper's 96-core Sapphire Rapids CPU configuration.
    pub fn cpu_only(ranks: usize, block_cells: usize) -> Self {
        Self {
            backend: Backend::Cpu { ranks },
            nodes: 1,
            block_cells,
        }
    }

    /// An H100 configuration with `gpus` devices and `ranks_per_gpu` host
    /// ranks per device.
    pub fn gpu(gpus: usize, ranks_per_gpu: usize, block_cells: usize) -> Self {
        Self {
            backend: Backend::Gpu {
                gpus,
                ranks_per_gpu,
            },
            ..Self::cpu_only(1, block_cells)
        }
    }

    /// Total MPI ranks across all nodes.
    pub fn total_ranks(&self) -> usize {
        let per_node = match self.backend {
            Backend::Cpu { ranks } => ranks,
            Backend::Gpu {
                gpus,
                ranks_per_gpu,
            } => gpus * ranks_per_gpu,
        };
        per_node * self.nodes.max(1)
    }

    /// Total GPUs across all nodes (0 for CPU-only).
    pub fn total_gpus(&self) -> usize {
        match self.backend {
            Backend::Cpu { .. } => 0,
            Backend::Gpu { gpus, .. } => gpus * self.nodes.max(1),
        }
    }
}

/// Modeled time of one timestep-loop function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionTime {
    /// The function.
    pub func: StepFunction,
    /// Kernel (device or data-parallel) seconds.
    pub kernel_s: f64,
    /// Serial host seconds.
    pub serial_s: f64,
    /// Communication seconds.
    pub comm_s: f64,
}

impl FunctionTime {
    /// Total seconds attributed to this function.
    pub fn total(&self) -> f64 {
        self.kernel_s + self.serial_s + self.comm_s
    }
}

/// The modeled execution profile of a workload on a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformReport {
    /// Per-function breakdown (Figs. 11 and 12), in canonical order.
    pub per_function: Vec<FunctionTime>,
    /// Total kernel seconds.
    pub kernel_s: f64,
    /// Total serial seconds (including rank-sharing overhead).
    pub serial_s: f64,
    /// Total communication seconds.
    pub comm_s: f64,
    /// Total wall seconds.
    pub total_s: f64,
    /// Zone-cycles processed (Σ blocks × B³ over cycles).
    pub zone_cycles: u64,
    /// The figure of merit: zone-cycles per second.
    pub fom: f64,
    /// GPU busy fraction (kernel time / wall time); 0 for CPU-only.
    pub gpu_utilization: f64,
    /// Simulation cycles evaluated.
    pub cycles: u64,
}

impl PlatformReport {
    /// Fraction of wall time spent inside kernels.
    pub fn kernel_fraction(&self) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            self.kernel_s / self.total_s
        }
    }
}

/// Evaluates the recorded workload on `config`.
///
/// Kernel work is timed by the GPU roofline/occupancy model (GPU backends,
/// divided across devices — concurrent ranks' kernels serialize on a shared
/// GPU) or by a vector-efficiency CPU model. Serial work follows the
/// Amdahl model over total ranks; communication uses the message/collective
/// cost model with the config's rank count.
pub fn evaluate(rec: &Recorder, config: &PlatformConfig) -> PlatformReport {
    let totals = rec.totals();
    let cycles = rec.cycles().len() as u64;
    let ranks = config.total_ranks();
    let nodes = config.nodes.max(1);
    let internode = if nodes > 1 { INTERNODE_FRACTION } else { 0.0 };

    let mut per_function: Vec<FunctionTime> = StepFunction::all()
        .iter()
        .map(|&func| FunctionTime {
            func,
            kernel_s: 0.0,
            serial_s: 0.0,
            comm_s: 0.0,
        })
        .collect();
    let idx = |f: StepFunction| {
        StepFunction::all()
            .iter()
            .position(|&x| x == f)
            .expect("function in canonical list")
    };

    // --- Kernel time ---
    for ((func, name), k) in &totals.kernels {
        let desc = descriptor_for(name);
        let secs = match config.backend {
            Backend::Gpu { .. } => {
                kernel_duration(desc, k, &GpuSpec::H100, config.block_cells)
                    / config.total_gpus().max(1) as f64
            }
            Backend::Cpu { .. } => {
                let cpu = CpuSpec::SAPPHIRE_RAPIDS_96;
                let nblocks = totals.nblocks.max(1);
                // Blocks are the parallelism granularity: ranks beyond the
                // block count idle (the paper's small-mesh underutilization).
                let useful_ranks = ranks.min(nblocks as usize).min(cpu.cores * nodes).max(1);
                let veff = vector_efficiency(config.block_cells);
                let t_cmp = k.flops as f64
                    / (cpu.core_peak_fp64() * useful_ranks as f64 * CPU_KERNEL_EFFICIENCY * veff);
                let bw = cpu.mem_bw
                    * cpu.stream_efficiency
                    * nodes as f64
                    * (useful_ranks as f64 / ranks.max(1) as f64).min(1.0);
                let t_mem = k.bytes as f64 / bw;
                t_cmp.max(t_mem)
            }
        };
        per_function[idx(*func)].kernel_s += secs;
    }

    // --- Serial time ---
    for (func, s) in &totals.serial {
        per_function[idx(*func)].serial_s += SerialCosts::CALIBRATED.wall_seconds(s, ranks);
    }
    // GPU-sharing host overhead: grows with ranks per GPU, charged to the
    // communication-heavy management functions.
    if let Backend::Gpu { ranks_per_gpu, .. } = config.backend {
        per_function[idx(StepFunction::ReceiveBoundBufs)].serial_s +=
            gpu_sharing_seconds(ranks_per_gpu) * cycles as f64;
    }

    // --- Communication time ---
    let comm_scale = match config.backend {
        Backend::Gpu { .. } if nodes > 1 => GPU_INTERNODE_COMM_PENALTY,
        _ => 1.0,
    };
    for (func, c) in &totals.comm {
        per_function[idx(*func)].comm_s +=
            comm_scale * CommCosts::CALIBRATED.seconds(c, ranks, internode);
    }

    let kernel_s: f64 = per_function.iter().map(|f| f.kernel_s).sum();
    let serial_s: f64 = per_function.iter().map(|f| f.serial_s).sum();
    let comm_s: f64 = per_function.iter().map(|f| f.comm_s).sum();
    let total_s = kernel_s + serial_s + comm_s;
    let zone_cycles = totals.cell_updates;
    PlatformReport {
        per_function,
        kernel_s,
        serial_s,
        comm_s,
        total_s,
        zone_cycles,
        fom: if total_s > 0.0 {
            zone_cycles as f64 / total_s
        } else {
            0.0
        },
        gpu_utilization: match config.backend {
            Backend::Gpu { .. } if total_s > 0.0 => kernel_s / total_s,
            _ => 0.0,
        },
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_prof::{CollectiveOp, SerialWork};

    /// Builds a synthetic workload loosely shaped like Mesh 128 / B8 / L3:
    /// thousands of small blocks, heavy per-block serial management, modest
    /// kernel work.
    fn synthetic_workload(cycles: u64, nranks: usize) -> Recorder {
        let mut rec = Recorder::new();
        let nblocks = 4096u64;
        let cells = nblocks * 512;
        for c in 0..cycles {
            rec.begin_cycle(c);
            rec.record_kernel(
                StepFunction::CalculateFluxes,
                "CalculateFluxes",
                6 * nranks as u64,
                cells * 2,
                cells * 2 * 1548,
                cells * 2 * 360 * 8,
            );
            rec.record_kernel(
                StepFunction::WeightedSumData,
                "WeightedSumData",
                2 * nranks as u64,
                cells * 2,
                cells * 2 * 7,
                cells * 2 * 24,
            );
            rec.record_serial(
                StepFunction::RedistributeAndRefineMeshBlocks,
                SerialWork::BlockLoop(nblocks * 8),
            );
            rec.record_serial(
                StepFunction::SendBoundBufs,
                SerialWork::BoundaryLoop(nblocks * 26),
            );
            rec.record_serial(
                StepFunction::SendBoundBufs,
                SerialWork::SortedKeys(nblocks * 26),
            );
            rec.record_serial(
                StepFunction::RebuildBufferCache,
                SerialWork::Allocations(nblocks),
            );
            rec.record_serial(StepFunction::RefinementTag, SerialWork::BlockLoop(nblocks));
            let remote_frac = 1.0 - 1.0 / nranks as f64;
            let msgs = (nblocks * 26) as f64;
            for _ in 0..(msgs * remote_frac / 1000.0) as u64 {
                rec.record_p2p(StepFunction::SendBoundBufs, 1000 * 4096, 1000 * 512, false);
            }
            rec.record_collective(
                StepFunction::UpdateMeshBlockTree,
                CollectiveOp::AllGather,
                nblocks,
            );
            rec.record_collective(StepFunction::EstimateTimeStep, CollectiveOp::AllReduce, 8);
            rec.end_cycle(nblocks, 8, 0, cells);
        }
        rec
    }

    #[test]
    fn gpu_single_rank_dominated_by_serial() {
        let rec = synthetic_workload(5, 1);
        let report = evaluate(&rec, &PlatformConfig::gpu(1, 1, 8));
        assert!(
            report.serial_s > 3.0 * report.kernel_s,
            "serial {} vs kernel {}",
            report.serial_s,
            report.kernel_s
        );
        assert!(report.gpu_utilization < 0.4);
    }

    #[test]
    fn more_ranks_per_gpu_raise_fom_until_rollover() {
        let mut foms = Vec::new();
        for r in [1usize, 2, 4, 8, 12, 16, 24, 48] {
            let rec = synthetic_workload(5, r);
            let report = evaluate(&rec, &PlatformConfig::gpu(1, r, 8));
            foms.push((r, report.fom));
        }
        let best = foms
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(
            best.0 >= 4 && best.0 <= 24,
            "best rank count {} (paper: ~12), foms {foms:?}",
            best.0
        );
        // FOM at 48 ranks is worse than at the peak.
        assert!(foms.last().unwrap().1 < best.1);
        // And 4 ranks beats 1 rank decisively.
        assert!(foms[2].1 > 1.5 * foms[0].1);
    }

    #[test]
    fn cpu_strong_scaling_monotone_to_96() {
        let mut totals = Vec::new();
        for r in [4usize, 16, 48, 96] {
            let rec = synthetic_workload(5, r);
            let report = evaluate(&rec, &PlatformConfig::cpu_only(r, 8));
            totals.push(report.total_s);
        }
        for w in totals.windows(2) {
            assert!(
                w[1] < w[0],
                "CPU total time decreases with cores: {totals:?}"
            );
        }
    }

    #[test]
    fn per_function_breakdown_sums_to_totals() {
        let rec = synthetic_workload(3, 4);
        let report = evaluate(&rec, &PlatformConfig::gpu(1, 4, 8));
        let sum: f64 = report.per_function.iter().map(FunctionTime::total).sum();
        assert!((sum - report.total_s).abs() < 1e-9);
        let fk: f64 = report.per_function.iter().map(|f| f.kernel_s).sum();
        assert!((fk - report.kernel_s).abs() < 1e-12);
    }

    #[test]
    fn multi_gpu_divides_kernel_time() {
        let rec = synthetic_workload(3, 8);
        let one = evaluate(&rec, &PlatformConfig::gpu(1, 8, 8));
        let mut cfg8 = PlatformConfig::gpu(8, 1, 8);
        cfg8.backend = Backend::Gpu {
            gpus: 8,
            ranks_per_gpu: 1,
        };
        let eight = evaluate(&rec, &cfg8);
        assert!((one.kernel_s / eight.kernel_s - 8.0).abs() < 0.01);
    }

    #[test]
    fn fom_definition() {
        let rec = synthetic_workload(2, 1);
        let report = evaluate(&rec, &PlatformConfig::cpu_only(96, 8));
        assert_eq!(report.zone_cycles, 2 * 4096 * 512);
        assert!((report.fom - report.zone_cycles as f64 / report.total_s).abs() < 1e-9);
    }

    #[test]
    fn two_nodes_scale_but_sublinearly_for_gpu() {
        let rec = synthetic_workload(3, 16);
        let mut one = PlatformConfig::gpu(8, 2, 8);
        one.nodes = 1;
        let mut two = one;
        two.nodes = 2;
        let r1 = evaluate(&rec, &one);
        let r2 = evaluate(&rec, &two);
        let speedup = r1.total_s / r2.total_s;
        assert!(speedup > 1.0, "two nodes are faster");
        assert!(speedup < 2.0, "but not perfectly: {speedup}");
    }
}
