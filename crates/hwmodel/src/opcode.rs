//! CPU instruction opcode mix synthesis (Fig. 13), replacing the Intel
//! PIN + MICA toolchain.

use vibe_prof::recorder::{CycleStats, SerialTotals};

use crate::gpu::descriptor_for;

/// Instruction share by opcode class; shares sum to 1 (when any
/// instructions exist).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpcodeMix {
    /// SIMD vector arithmetic.
    pub vector: f64,
    /// Scalar loads.
    pub load: f64,
    /// Scalar stores.
    pub store: f64,
    /// Branches.
    pub branch: f64,
    /// Scalar integer/FP arithmetic.
    pub scalar_arith: f64,
    /// Everything else (moves, conversions, nops).
    pub other: f64,
    /// Total instruction count the shares describe.
    pub total_instructions: f64,
}

impl OpcodeMix {
    fn from_counts(counts: [f64; 6]) -> Self {
        let total: f64 = counts.iter().sum();
        if total == 0.0 {
            return Self::default();
        }
        Self {
            vector: counts[0] / total,
            load: counts[1] / total,
            store: counts[2] / total,
            branch: counts[3] / total,
            scalar_arith: counts[4] / total,
            other: counts[5] / total,
            total_instructions: total,
        }
    }
}

/// Vectorization efficiency of data-parallel loops over rows of
/// `block_cells` cells: shorter rows amortize loop prologue/epilogue and
/// remainder handling worse, lowering the vector share (63% at B32 vs 52%
/// at B16 in Fig. 13).
pub fn vector_efficiency(block_cells: usize) -> f64 {
    block_cells as f64 / (block_cells as f64 + 8.6)
}

/// Instruction counts implied by kernel work. The vector share of kernel
/// instructions is the descriptor's vectorizable fraction scaled by the
/// vectorization efficiency `veff`; the remainder is split into the
/// memory, control, and scalar support instructions of the loop bodies.
fn kernel_counts(stats: &CycleStats, veff: f64) -> [f64; 6] {
    let mut counts = [0.0f64; 6];
    for ((_, name), k) in &stats.kernels {
        let desc = descriptor_for(name);
        // Instruction density: one instruction per ~4 FLOPs of algorithmic
        // work plus a floor for copy kernels.
        let instr = k.flops as f64 / 4.0 + k.bytes as f64 / 48.0;
        let vec_share = desc.vector_fraction * veff;
        let rest = instr * (1.0 - vec_share);
        counts[0] += instr * vec_share;
        counts[1] += rest * 0.45;
        counts[2] += rest * 0.18;
        counts[3] += rest * 0.15;
        counts[4] += rest * 0.17;
        counts[5] += rest * 0.05;
    }
    counts
}

/// Instruction counts implied by serial block-management work: dominated by
/// pointer-chasing loads/stores over block-sparse data structures.
fn serial_counts(serial: &SerialTotals) -> [f64; 6] {
    let units = serial.block_loop as f64 * 420.0
        + serial.boundary_loop as f64 * 260.0
        + serial.sorted_keys as f64 * 95.0
        + serial.string_lookups as f64 * 70.0
        + serial.allocations as f64 * 900.0
        + serial.host_copy_bytes as f64 / 16.0
        + serial.tree_ops as f64 * 350.0;
    [
        units * 0.015, // vector: almost none
        units * 0.26,  // loads
        units * 0.14,  // stores
        units * 0.17,  // branches
        units * 0.30,  // scalar arithmetic
        units * 0.115, // other
    ]
}

/// Synthesizes the Fig. 13 opcode distributions: `(total, serial, kernel)`,
/// using the modeled [`vector_efficiency`] for `block_cells`.
pub fn opcode_mix(stats: &CycleStats, block_cells: usize) -> (OpcodeMix, OpcodeMix, OpcodeMix) {
    opcode_mix_with_efficiency(stats, vector_efficiency(block_cells))
}

/// [`opcode_mix`] with an explicit vectorization efficiency — pass the
/// lane sweep's observed coverage (lane faces over all faces, from
/// `vibe_burgers::take_face_counts`) to synthesize the opcode mix from a
/// measurement instead of the block-size model.
pub fn opcode_mix_with_efficiency(
    stats: &CycleStats,
    veff: f64,
) -> (OpcodeMix, OpcodeMix, OpcodeMix) {
    let kc = kernel_counts(stats, veff);
    let mut sc = [0.0f64; 6];
    let mut agg = SerialTotals::default();
    for s in stats.serial.values() {
        agg.block_loop += s.block_loop;
        agg.boundary_loop += s.boundary_loop;
        agg.sorted_keys += s.sorted_keys;
        agg.string_lookups += s.string_lookups;
        agg.allocations += s.allocations;
        agg.host_copy_bytes += s.host_copy_bytes;
        agg.tree_ops += s.tree_ops;
    }
    let scounts = serial_counts(&agg);
    sc.copy_from_slice(&scounts);
    let total: [f64; 6] = std::array::from_fn(|i| kc[i] + sc[i]);
    (
        OpcodeMix::from_counts(total),
        OpcodeMix::from_counts(sc),
        OpcodeMix::from_counts(kc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_prof::{Recorder, SerialWork, StepFunction};

    fn stats(block_cells: usize) -> CycleStats {
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        let cells = 2_000_000u64;
        let mult = ((block_cells + 8) as f64 / block_cells as f64).powi(3);
        rec.record_kernel(
            StepFunction::CalculateFluxes,
            "CalculateFluxes",
            10,
            cells,
            cells * 1548,
            (cells as f64 * 360.0 * mult) as u64,
        );
        rec.record_kernel(
            StepFunction::WeightedSumData,
            "WeightedSumData",
            10,
            cells,
            cells * 7,
            cells * 24,
        );
        rec.record_serial(
            StepFunction::SendBoundBufs,
            SerialWork::BoundaryLoop(40_000),
        );
        rec.record_serial(StepFunction::RefinementTag, SerialWork::BlockLoop(4_000));
        rec.record_serial(
            StepFunction::CalculateFluxes,
            SerialWork::StringLookups(50_000),
        );
        rec.end_cycle(4000, 0, 0, cells);
        rec.totals().clone()
    }

    #[test]
    fn kernel_instructions_dominate_total() {
        // Fig. 13: kernel instructions are >99% of total.
        let (total, _, kernel) = opcode_mix(&stats(32), 32);
        assert!(kernel.total_instructions / total.total_instructions > 0.97);
    }

    #[test]
    fn vector_opcodes_dominate_kernel_mix() {
        let (_, _, kernel) = opcode_mix(&stats(32), 32);
        let max_other = kernel
            .load
            .max(kernel.store)
            .max(kernel.branch)
            .max(kernel.scalar_arith)
            .max(kernel.other);
        assert!(
            kernel.vector > max_other,
            "vector {} vs max other {}",
            kernel.vector,
            max_other
        );
    }

    #[test]
    fn serial_load_store_share_matches_paper_band() {
        // Fig. 13: loads+stores are 39–41% of serial execution.
        let (_, serial, _) = opcode_mix(&stats(32), 32);
        let ls = serial.load + serial.store;
        assert!((0.37..=0.43).contains(&ls), "got {ls}");
    }

    #[test]
    fn vector_share_drops_with_smaller_blocks() {
        // Fig. 13: kernel vector share 63% at B32 vs 52% at B16.
        let (_, _, k32) = opcode_mix(&stats(32), 32);
        let (_, _, k16) = opcode_mix(&stats(16), 16);
        assert!(k16.vector < k32.vector);
        assert!(k32.vector > 0.45, "B32 vector share {}", k32.vector);
    }

    #[test]
    fn shares_sum_to_one() {
        let (t, s, k) = opcode_mix(&stats(16), 16);
        for m in [t, s, k] {
            let sum = m.vector + m.load + m.store + m.branch + m.scalar_arith + m.other;
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn measured_efficiency_feeds_opcode_mix() {
        // A higher measured lane coverage raises the kernel vector share,
        // and passing the modeled efficiency reproduces `opcode_mix`.
        let s = stats(16);
        let (_, _, low) = opcode_mix_with_efficiency(&s, 0.4);
        let (_, _, high) = opcode_mix_with_efficiency(&s, 0.9);
        assert!(high.vector > low.vector);
        let (_, _, modeled) = opcode_mix(&s, 16);
        let (_, _, explicit) = opcode_mix_with_efficiency(&s, vector_efficiency(16));
        assert_eq!(modeled.vector, explicit.vector);
    }

    #[test]
    fn empty_stats_zero_mix() {
        let (t, s, k) = opcode_mix(&CycleStats::default(), 16);
        assert_eq!(t.total_instructions, 0.0);
        assert_eq!(s.total_instructions, 0.0);
        assert_eq!(k.total_instructions, 0.0);
    }
}
