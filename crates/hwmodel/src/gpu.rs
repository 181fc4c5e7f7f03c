//! GPU kernel timing (sparse-access roofline) and Table III metric
//! derivation.

use vibe_exec::{catalog, InnerLoop, KernelDescriptor};
use vibe_prof::KernelTotals;

use crate::occupancy::{occupancy, warp_utilization};
use crate::specs::GpuSpec;

/// The catalog descriptor of a recorded kernel. Kernels are recorded only
/// through `KernelDescriptor::record`, so every recorded name is a catalog
/// name.
///
/// # Panics
///
/// If `name` is not in `vibe_exec::catalog`.
pub fn descriptor_for(name: &str) -> &'static KernelDescriptor {
    catalog::by_name(name).unwrap_or_else(|| {
        panic!("kernel {name:?} is not in vibe_exec::catalog (record through KernelDescriptor::record)")
    })
}

/// Effective fraction of peak HBM bandwidth kernel `desc` achieves on
/// blocks of `block_cells`, combining the kernel's access pattern, the
/// occupancy available to hide latency, and row-level spatial locality
/// (block rows shorter than two cache lines fragment accesses).
pub fn memory_efficiency(desc: &KernelDescriptor, gpu: &GpuSpec, block_cells: usize) -> f64 {
    let occ = occupancy(desc, gpu).occupancy;
    // HBM needs roughly half the SM's warp slots in flight to saturate.
    let occ_sat = (occ / 0.5).min(1.0);
    let locality = match desc.inner_loop {
        InnerLoop::BlockRow => (block_cells as f64 / 32.0).min(1.0).powf(0.75),
        InnerLoop::Flat => 1.0,
    };
    (desc.mem_access_efficiency * occ_sat * locality).clamp(1e-4, 1.0)
}

/// Effective fraction of peak FP64 throughput for compute-limited phases.
pub fn compute_efficiency(desc: &KernelDescriptor, gpu: &GpuSpec, block_cells: usize) -> f64 {
    let occ = occupancy(desc, gpu).occupancy;
    let occ_sat = (occ / 0.5).min(1.0);
    (desc.ilp_efficiency * occ_sat * warp_utilization(desc, block_cells)).clamp(1e-4, 1.0)
}

/// Fraction of the GPU one launch over `cells_per_launch` cells fills:
/// resident thread blocks demanded by the grid vs. what the SMs can host
/// at this kernel's occupancy (floored at 2% — even a one-block grid keeps
/// some SMs busy).
pub fn grid_fill(
    desc: &KernelDescriptor,
    gpu: &GpuSpec,
    cells_per_launch: f64,
    block_cells: usize,
) -> f64 {
    let occ = occupancy(desc, gpu);
    let threads_needed = match desc.inner_loop {
        // One warp (padded to a CUDA block) per block row.
        InnerLoop::BlockRow => {
            let rows = cells_per_launch / block_cells.max(1) as f64;
            rows * f64::from(desc.threads_per_block)
        }
        InnerLoop::Flat => cells_per_launch,
    };
    let grid_blocks = (threads_needed / f64::from(desc.threads_per_block)).max(1.0);
    let resident_capacity = f64::from(gpu.sms) * f64::from(occ.blocks_per_sm);
    (grid_blocks / resident_capacity).clamp(0.02, 1.0)
}

/// Modeled *device-side execution* seconds of one launch of `desc`
/// processing `cells` cells with `flops`/`bytes` of work — the roofline
/// time inflated by the grid-fill penalty, excluding launch latency.
///
/// This is the per-launch primitive the timeline simulator schedules onto
/// stream queues; [`kernel_duration`] is by construction `launches ×`
/// (this + `gpu.launch_latency`) for evenly split work.
pub fn launch_exec_seconds(
    desc: &KernelDescriptor,
    gpu: &GpuSpec,
    block_cells: usize,
    cells: f64,
    flops: f64,
    bytes: f64,
) -> f64 {
    let t_mem = bytes / (gpu.mem_bw * memory_efficiency(desc, gpu, block_cells));
    let t_cmp = flops / (gpu.peak_fp64 * compute_efficiency(desc, gpu, block_cells));
    t_mem.max(t_cmp) / grid_fill(desc, gpu, cells, block_cells)
}

/// Modeled duration (seconds) of the accumulated launches in `totals` for
/// kernel `desc` on `gpu`, including per-launch latency and the grid-fill
/// penalty when individual launches are too small to cover the SMs (the
/// low-utilization regime of Fig. 1(c)). Defined as the sum of
/// [`launch_exec_seconds`] over `launches` even splits of the work, plus
/// one launch latency each.
pub fn kernel_duration(
    desc: &KernelDescriptor,
    totals: &KernelTotals,
    gpu: &GpuSpec,
    block_cells: usize,
) -> f64 {
    if totals.launches == 0 {
        return 0.0;
    }
    let n = totals.launches as f64;
    n * launch_exec_seconds(
        desc,
        gpu,
        block_cells,
        totals.cells as f64 / n,
        totals.flops as f64 / n,
        totals.bytes as f64 / n,
    ) + n * gpu.launch_latency
}

/// The Table III row for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMetrics {
    /// Modeled duration in milliseconds.
    pub duration_ms: f64,
    /// SM utilization (issue activity) in percent.
    pub sm_util_pct: f64,
    /// SM occupancy in percent.
    pub sm_occ_pct: f64,
    /// Warp utilization in percent.
    pub warp_util_pct: f64,
    /// HBM bandwidth utilization in percent.
    pub bw_util_pct: f64,
    /// Arithmetic intensity in FLOPs/byte.
    pub arith_intensity: f64,
}

/// Derives the Table III metrics for one kernel's accumulated work.
pub fn kernel_metrics(
    desc: &KernelDescriptor,
    totals: &KernelTotals,
    gpu: &GpuSpec,
    block_cells: usize,
) -> KernelMetrics {
    let duration = kernel_duration(desc, totals, gpu, block_cells).max(1e-12);
    let bw_frac = (totals.bytes as f64 / duration) / gpu.mem_bw;
    let cmp_frac = (totals.flops as f64 / duration) / gpu.peak_fp64;
    // SM issue activity: compute issue plus memory-pipe activity. The 1.1
    // factor reflects LSU/issue slots consumed per byte moved at the
    // achieved bandwidth (calibrated against Table III's WeightedSumData).
    let sm_util = (cmp_frac + 1.1 * bw_frac).min(1.0);
    KernelMetrics {
        duration_ms: duration * 1e3,
        sm_util_pct: sm_util * 100.0,
        sm_occ_pct: occupancy(desc, gpu).occupancy * 100.0,
        warp_util_pct: warp_utilization(desc, block_cells) * 100.0,
        bw_util_pct: bw_frac * 100.0,
        arith_intensity: totals.arithmetic_intensity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GPU: &GpuSpec = &GpuSpec::H100;

    fn totals(launches: u64, cells: u64, flops: u64, bytes: u64) -> KernelTotals {
        KernelTotals {
            launches,
            cells,
            flops,
            bytes,
        }
    }

    #[test]
    fn empty_totals_zero_duration() {
        let d = kernel_duration(&catalog::CALCULATE_FLUXES, &totals(0, 0, 0, 0), GPU, 32);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn memory_bound_kernel_duration_tracks_bytes() {
        let desc = &catalog::WEIGHTED_SUM_DATA;
        let big = kernel_duration(desc, &totals(1, 1 << 22, 1 << 24, 1 << 32), GPU, 32);
        let small = kernel_duration(desc, &totals(1, 1 << 22, 1 << 24, 1 << 31), GPU, 32);
        assert!(big > small);
        assert!((big / small - 2.0).abs() < 0.2, "near-linear in bytes");
    }

    #[test]
    fn launch_latency_dominates_many_tiny_launches() {
        let desc = &catalog::WEIGHTED_SUM_DATA;
        let one = kernel_duration(desc, &totals(1, 512, 3584, 12288), GPU, 8);
        let many = kernel_duration(desc, &totals(1000, 512_000, 3_584_000, 12_288_000), GPU, 8);
        // Same total work split over 1000 launches pays 1000 latencies.
        assert!(many > 1000.0 * GPU.launch_latency * 0.9);
        assert!(many > one * 100.0);
    }

    #[test]
    fn small_launches_suffer_grid_fill_penalty() {
        let desc = &catalog::CALCULATE_FLUXES;
        // One launch over 1M cells vs 64 launches over the same total.
        let work = totals(1, 1 << 20, 1548 << 20, 360 << 20);
        let split = totals(64, 1 << 20, 1548 << 20, 360 << 20);
        let d_one = kernel_duration(desc, &work, GPU, 8);
        let d_split = kernel_duration(desc, &split, GPU, 8);
        assert!(
            d_split > d_one,
            "fragmented launches must be slower: {d_split} vs {d_one}"
        );
    }

    #[test]
    fn flux_kernel_bw_util_matches_paper_scale() {
        // Table III: CalculateFluxes BW util 18.5% (B32), 11.2% (B16).
        let desc = &catalog::CALCULATE_FLUXES;
        let gpu = GpuSpec::H100;
        let cells = 1u64 << 24; // plenty to fill the GPU
        let w = totals(1, cells, cells * 1548, cells * 360);
        let m32 = kernel_metrics(desc, &w, &gpu, 32);
        let m16 = kernel_metrics(desc, &w, &gpu, 16);
        assert!(
            (m32.bw_util_pct - 18.5).abs() < 5.0,
            "B32 BW util {}",
            m32.bw_util_pct
        );
        assert!(m16.bw_util_pct < m32.bw_util_pct, "smaller blocks less BW");
    }

    #[test]
    fn metrics_report_expected_occupancy_and_ai() {
        let desc = &catalog::CALCULATE_FLUXES;
        let cells = 1u64 << 20;
        let m = kernel_metrics(desc, &totals(1, cells, cells * 1548, cells * 360), GPU, 32);
        assert!((m.sm_occ_pct - 25.0).abs() < 2.0);
        assert!((m.arith_intensity - 4.3).abs() < 0.01);
        assert!(m.sm_util_pct > 10.0 && m.sm_util_pct < 60.0);
    }

    #[test]
    fn compute_bound_kernel_insensitive_to_bytes() {
        let desc = &catalog::FIRST_DERIVATIVE;
        let cells = 1u64 << 22;
        let a = kernel_duration(desc, &totals(1, cells, cells * 725, cells * 50), GPU, 32);
        let b = kernel_duration(desc, &totals(1, cells, cells * 725, cells * 25), GPU, 32);
        assert!((a - b).abs() / a < 0.05, "compute-bound: {a} vs {b}");
    }

    #[test]
    fn per_launch_primitive_composes_to_kernel_duration() {
        // The aggregated duration is exactly launches × (exec + latency)
        // for evenly split work — the contract the timeline simulator's
        // zero-overlap validation relies on.
        let desc = &catalog::CALCULATE_FLUXES;
        let gpu = GpuSpec::H100;
        let t = totals(24, 24 * 4096, 24 * 4096 * 1548, 24 * 4096 * 360);
        let agg = kernel_duration(desc, &t, &gpu, 16);
        let one = launch_exec_seconds(desc, &gpu, 16, 4096.0, 4096.0 * 1548.0, 4096.0 * 360.0);
        let composed = 24.0 * (one + gpu.launch_latency);
        assert!((agg - composed).abs() / agg < 1e-12, "{agg} vs {composed}");
        assert!(one > 0.0);
    }

    #[test]
    fn grid_fill_small_launches_penalized() {
        let desc = &catalog::WEIGHTED_SUM_DATA;
        let gpu = GpuSpec::H100;
        let small = grid_fill(desc, &gpu, 512.0, 8);
        let big = grid_fill(desc, &gpu, (1 << 22) as f64, 8);
        assert!(small < big);
        assert!((0.02..=1.0).contains(&small));
        assert!((0.02..=1.0).contains(&big));
    }

    #[test]
    fn every_catalog_kernel_resolves_to_itself() {
        for desc in catalog::ALL {
            assert_eq!(descriptor_for(desc.name), desc);
        }
    }

    #[test]
    #[should_panic(expected = "\"SomethingNew\" is not in vibe_exec::catalog")]
    fn a_kernel_outside_the_catalog_panics() {
        descriptor_for("SomethingNew");
    }
}
