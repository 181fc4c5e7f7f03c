//! Hardware specifications of the paper's testbed (Tables I and II).

/// CPU node specification (paper Table I: dual-socket Intel Xeon Platinum
/// 8468, Sapphire Rapids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Total cores across sockets.
    pub cores: usize,
    /// Base clock in Hz.
    pub base_hz: f64,
    /// Peak FP64 FLOPs per core per cycle (AVX-512: 8 lanes × 2 FMA ports ×
    /// 2 ops).
    pub fp64_per_cycle_per_core: f64,
    /// Aggregate DRAM bandwidth in bytes/s.
    pub mem_bw: f64,
    /// System memory capacity in bytes.
    pub mem_capacity: u64,
    /// Achievable fraction of peak DRAM bandwidth for streaming kernels.
    pub stream_efficiency: f64,
}

impl CpuSpec {
    /// The 96-core Sapphire Rapids node from Table I.
    pub const SAPPHIRE_RAPIDS_96: Self = Self {
        cores: 96,
        base_hz: 3.1e9,
        fp64_per_cycle_per_core: 32.0,
        mem_bw: 614.4e9,
        mem_capacity: 1 << 40, // 1.0 TiB
        stream_efficiency: 0.65,
    };

    /// Peak FP64 throughput of one core in FLOP/s.
    pub fn core_peak_fp64(&self) -> f64 {
        self.base_hz * self.fp64_per_cycle_per_core
    }

    /// Peak FP64 throughput of `n` cores.
    pub fn peak_fp64(&self, n: usize) -> f64 {
        self.core_peak_fp64() * n.min(self.cores) as f64
    }
}

/// GPU specification (paper Table II: NVIDIA H100 SXM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Streaming multiprocessors.
    pub sms: u32,
    /// Base clock in Hz.
    pub base_hz: f64,
    /// HBM capacity in bytes.
    pub mem_capacity: u64,
    /// HBM bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Peak FP64 throughput in FLOP/s (34 TFLOPS; the paper's operational
    /// intensity of 10.1 FLOPs/B uses this with 3.35 TB/s).
    pub peak_fp64: f64,
    /// Register file size per SM (32-bit registers).
    pub registers_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Kernel launch latency in seconds (host API + scheduling).
    pub launch_latency: f64,
}

impl GpuSpec {
    /// The H100 from Table II.
    pub const H100: Self = Self {
        sms: 132,
        base_hz: 1.98e9,
        mem_capacity: 81_559 * 1024 * 1024, // 81,559 MiB HBM3
        mem_bw: 3.35e12,
        peak_fp64: 34.0e12,
        registers_per_sm: 65_536,
        max_warps_per_sm: 64,
        max_blocks_per_sm: 32,
        launch_latency: 6.0e-6,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spr_matches_table_one() {
        let cpu = CpuSpec::SAPPHIRE_RAPIDS_96;
        assert_eq!(cpu.cores, 96);
        assert!((cpu.mem_bw - 614.4e9).abs() < 1.0);
        assert_eq!(cpu.mem_capacity, 1 << 40);
    }

    #[test]
    fn h100_matches_table_two() {
        let gpu = GpuSpec::H100;
        assert_eq!(gpu.sms, 132);
        assert!((gpu.mem_bw - 3.35e12).abs() < 1.0);
        // 81,559 MiB ≈ 79.6 GiB ≈ 85.5 GB.
        assert!(gpu.mem_capacity > 79 * (1u64 << 30) && gpu.mem_capacity < 81 * (1u64 << 30));
        // Paper footnote 2: 34 TFLOPS / 3.35 TB/s ≈ 10.1 FLOPs/B.
        let ridge = gpu.peak_fp64 / gpu.mem_bw;
        assert!((ridge - 10.1).abs() < 0.1, "got {ridge}");
    }

    #[test]
    fn cpu_peak_scales_with_cores_and_clamps() {
        let cpu = CpuSpec::SAPPHIRE_RAPIDS_96;
        assert!((cpu.peak_fp64(96) / cpu.peak_fp64(48) - 2.0).abs() < 1e-12);
        assert_eq!(cpu.peak_fp64(200), cpu.peak_fp64(96));
    }
}
