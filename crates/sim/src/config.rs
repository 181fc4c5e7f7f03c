//! What-if configuration knobs for the timeline simulator.

/// A simulated platform configuration: the resources the discrete-event
/// engine schedules work onto, plus the what-if knobs of §VIII (streams per
/// rank, batched/graph-style launches, block size). The hardware and its
/// costs are not knobs: the engine reads the same `vibe-hwmodel`
/// calibration `vibe_hwmodel::platform::evaluate` reads (`GpuSpec::H100`,
/// `SerialCosts::CALIBRATED`, `CommCosts::CALIBRATED`,
/// `platform::gpu_sharing_seconds`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated MPI ranks sharing one GPU (the paper's rank-scaling axis).
    pub ranks: usize,
    /// Concurrent GPU stream queues (device-wide execution slots). With
    /// one stream every kernel serializes on the device; more streams let
    /// independent launches overlap — modeling CUDA streams under MPS
    /// time-slicing, where extra *ranks* do not add device throughput but
    /// extra *streams* expose concurrency.
    pub streams_per_rank: usize,
    /// `false` = synchronous launches: the host blocks until each kernel
    /// completes (the zero-overlap configuration that must reproduce the
    /// analytic model). `true` = asynchronous: the host pays only launch
    /// latency and re-synchronizes at communication points.
    pub overlap: bool,
    /// Kernel launches fused per submission (CUDA-graph-style batching):
    /// one launch latency buys `launch_batch` kernel executions.
    pub launch_batch: usize,
    /// `true` = one kernel launch per mesh block (Parthenon without
    /// hierarchical block packing): each recorded pack-level launch is
    /// split into `nblocks` per-block launches, shrinking per-launch work
    /// until the launch-latency wall of §VIII-C appears at small block
    /// sizes. `false` = replay the driver's recorded (packed) launches.
    pub per_block_launches: bool,
    /// Mesh block edge length in cells.
    pub block_cells: usize,
}

impl SimConfig {
    /// The calibration configuration: synchronous launches, a single
    /// stream, no batching. Must reproduce the analytic hwmodel totals
    /// (DESIGN.md §Calibration) within 1%.
    pub fn zero_overlap(ranks: usize, block_cells: usize) -> Self {
        Self {
            ranks: ranks.max(1),
            streams_per_rank: 1,
            overlap: false,
            launch_batch: 1,
            per_block_launches: false,
            block_cells,
        }
    }

    /// An overlapping configuration: asynchronous launches onto `streams`
    /// device slots.
    pub fn streamed(ranks: usize, block_cells: usize, streams: usize) -> Self {
        Self {
            streams_per_rank: streams.max(1),
            overlap: true,
            ..Self::zero_overlap(ranks, block_cells)
        }
    }

    /// Total device execution slots.
    pub fn device_slots(&self) -> usize {
        self.streams_per_rank.max(1)
    }
}
