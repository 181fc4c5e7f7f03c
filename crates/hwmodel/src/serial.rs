//! Serial host cost model: converts typed serial work counters into
//! seconds.
//!
//! The serial portion is "code that lies outside Kokkos kernels" (§II-C).
//! Its cost is dominated by scalar per-block and per-boundary management
//! loops, string-keyed variable lookups, boundary-key sorting, allocation
//! churn, and tree manipulation — all characterized in §VIII-A. Costs here
//! are per-unit seconds on one Sapphire Rapids core, calibrated so the
//! serial:kernel ratios of the paper's single-rank GPU runs are reproduced.

use vibe_prof::recorder::SerialTotals;

/// Per-unit serial costs (seconds on one host core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialCosts {
    /// One iteration of a scalar per-block management loop.
    pub block_loop: f64,
    /// One per-boundary iteration (metadata, cache setup, probe handling).
    pub boundary_loop: f64,
    /// One key passing through sort+shuffle (amortized n·log n).
    pub sorted_key: f64,
    /// One string-keyed variable lookup (hash + compare).
    pub string_lookup: f64,
    /// One discrete allocation (host or device API call).
    pub allocation: f64,
    /// Host-side metadata copy bandwidth in bytes/s.
    pub host_copy_bw: f64,
    /// One tree node manipulation.
    pub tree_op: f64,
    /// Fraction of serial time that does not parallelize across ranks
    /// (Fig. 7's irreducible plateau).
    pub irreducible_fraction: f64,
}

impl SerialCosts {
    /// The calibrated per-unit costs: the one serial cost table.
    pub const CALIBRATED: Self = Self {
        block_loop: 2.8e-6,
        boundary_loop: 0.6e-6,
        sorted_key: 0.14e-6,
        string_lookup: 0.035e-6,
        allocation: 1.8e-6,
        host_copy_bw: 36.0e9,
        tree_op: 0.5e-6,
        // Plateau point: serial stops shrinking once S/R reaches the
        // irreducible share, i.e. around R ≈ (1-f)/f ≈ 65 ranks —
        // matching Fig. 7's flattening past 64 cores.
        irreducible_fraction: 0.015,
    };

    /// Seconds of single-core serial work implied by `totals`.
    pub fn seconds(&self, totals: &SerialTotals) -> f64 {
        totals.block_loop as f64 * self.block_loop
            + totals.boundary_loop as f64 * self.boundary_loop
            + totals.sorted_keys as f64 * self.sorted_key
            + totals.string_lookups as f64 * self.string_lookup
            + totals.allocations as f64 * self.allocation
            + totals.host_copy_bytes as f64 / self.host_copy_bw
            + totals.tree_ops as f64 * self.tree_op
    }

    /// Wall seconds when the serial work is spread over `ranks` host
    /// processes: the divisible part scales as 1/ranks, the irreducible
    /// part does not (Amdahl).
    pub fn wall_seconds(&self, totals: &SerialTotals, ranks: usize) -> f64 {
        let s = self.seconds(totals);
        let irr = s * self.irreducible_fraction;
        (s - irr) / ranks.max(1) as f64 + irr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SerialTotals {
        SerialTotals {
            block_loop: 10_000,
            boundary_loop: 100_000,
            sorted_keys: 50_000,
            string_lookups: 200_000,
            allocations: 5_000,
            host_copy_bytes: 100 << 20,
            tree_ops: 2_000,
        }
    }

    #[test]
    fn seconds_positive_and_composed() {
        let c = SerialCosts::CALIBRATED;
        let s = c.seconds(&sample());
        assert!(s > 0.0);
        // Remove one component and the total drops by exactly its share.
        let mut t = sample();
        t.string_lookups = 0;
        assert!((c.seconds(&t) + 200_000.0 * c.string_lookup - s).abs() < 1e-12);
    }

    #[test]
    fn rank_scaling_amdahl() {
        let c = SerialCosts::CALIBRATED;
        let t = sample();
        let w1 = c.wall_seconds(&t, 1);
        let w12 = c.wall_seconds(&t, 12);
        let w96 = c.wall_seconds(&t, 96);
        let winf = c.wall_seconds(&t, 1_000_000);
        assert!(w1 > w12 && w12 > w96);
        // Plateau at the irreducible fraction.
        assert!((winf / w1 - c.irreducible_fraction).abs() < 0.01);
        // 12 ranks gets most of the benefit but not all.
        assert!(w12 < w1 / 8.0 && w12 > w1 / 12.0);
    }

    #[test]
    fn zero_work_costs_nothing() {
        let c = SerialCosts::CALIBRATED;
        assert_eq!(c.seconds(&SerialTotals::default()), 0.0);
        assert_eq!(c.wall_seconds(&SerialTotals::default(), 4), 0.0);
    }
}
