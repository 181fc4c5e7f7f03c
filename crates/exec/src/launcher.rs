//! Kernel launching: work recording.

use vibe_prof::Recorder;

use crate::descriptor::KernelDescriptor;

/// Records kernel launches as work descriptors in a [`Recorder`]; the
/// functional work runs in the caller's own host loops.
///
/// The launcher mirrors Parthenon's packed launches: one `record_only` call
/// with `cells` covering many mesh blocks corresponds to one device kernel
/// launch over a mesh-block pack.
///
/// ```
/// use vibe_exec::{catalog, Launcher};
/// use vibe_prof::{Recorder, StepFunction};
///
/// let mut rec = Recorder::new();
/// rec.begin_cycle(0);
/// {
///     let mut launcher = Launcher::new(&mut rec);
///     launcher.record_only(&catalog::WEIGHTED_SUM_DATA, 4096, 1.0);
/// }
/// rec.end_cycle(1, 0, 0, 4096);
/// let k = &rec.totals().kernels[&(StepFunction::WeightedSumData, "WeightedSumData")];
/// assert_eq!((k.launches, k.cells), (1, 4096));
/// ```
#[derive(Debug)]
pub struct Launcher<'a> {
    recorder: &'a mut Recorder,
}

impl<'a> Launcher<'a> {
    /// Wraps a recorder for the duration of a launch sequence.
    pub fn new(recorder: &'a mut Recorder) -> Self {
        Self { recorder }
    }

    /// Records one launch of `desc` over `cells` cells.
    ///
    /// `byte_multiplier` scales the descriptor's per-cell bytes to account
    /// for launch-specific overheads — chiefly ghost-inclusive stencil reads,
    /// which grow relative to interior work as blocks shrink
    /// (`((B + 2·ng)/B)^dim`).
    pub fn record_only(&mut self, desc: &KernelDescriptor, cells: u64, byte_multiplier: f64) {
        let flops = (cells as f64 * desc.flops_per_cell).round() as u64;
        let bytes = (cells as f64 * desc.bytes_per_cell * byte_multiplier).round() as u64;
        self.recorder
            .record_kernel(desc.func, desc.name, 1, cells, flops, bytes);
    }

    /// The underlying recorder.
    pub fn recorder(&mut self) -> &mut Recorder {
        self.recorder
    }
}

/// The ghost-inclusive byte multiplier for a stencil kernel over cubic
/// blocks of `block_cells` per active dimension with `nghost` ghost layers:
/// `((B + 2·ng)/B)^dim`.
pub fn ghost_byte_multiplier(block_cells: usize, nghost: usize, dim: usize) -> f64 {
    ((block_cells + 2 * nghost) as f64 / block_cells as f64).powi(dim as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::catalog;
    use vibe_prof::StepFunction;

    #[test]
    fn launch_records_work() {
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        {
            let mut l = Launcher::new(&mut rec);
            l.record_only(&catalog::CALCULATE_FLUXES, 1000, 1.0);
            l.record_only(&catalog::CALCULATE_FLUXES, 500, 2.0);
        }
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
