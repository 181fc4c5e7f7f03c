//! The workload recorder: accumulates kernel, serial, communication, and
//! memory events per timestep-loop function and per cycle.

use std::collections::BTreeMap;

use crate::functions::StepFunction;
use crate::wallclock::{ProfLevel, WallClock};

/// Accumulated work of one named kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelTotals {
    /// Kernel launch count (each launch pays GPU launch latency).
    pub launches: u64,
    /// Cells processed across all launches.
    pub cells: u64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Bytes moved to/from memory by the kernel.
    pub bytes: u64,
}

impl KernelTotals {
    /// Arithmetic intensity in FLOPs per byte (0 when no bytes moved).
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }

    fn absorb(&mut self, other: &KernelTotals) {
        self.launches += other.launches;
        self.cells += other.cells;
        self.flops += other.flops;
        self.bytes += other.bytes;
    }
}

/// Typed serial (non-kernel) work quantities, costed individually by the
/// serial host model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialWork {
    /// Scalar per-block management loop iterations.
    BlockLoop(u64),
    /// Per-boundary iterations (buffer cache setup, metadata fill).
    BoundaryLoop(u64),
    /// Keys passed through sort+shuffle in `InitializeBufferCache`.
    SortedKeys(u64),
    /// String-keyed variable lookups (`GetVariablesByFlag`).
    StringLookups(u64),
    /// Discrete memory allocations (Views-of-Views population etc.).
    Allocations(u64),
    /// Bytes of host-side metadata copies (incl. host-to-device setup).
    HostCopyBytes(u64),
    /// Tree node manipulations (refine/derefine/rebuild).
    TreeOps(u64),
}

/// Serial work accumulated for one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SerialTotals {
    /// See [`SerialWork::BlockLoop`].
    pub block_loop: u64,
    /// See [`SerialWork::BoundaryLoop`].
    pub boundary_loop: u64,
    /// See [`SerialWork::SortedKeys`].
    pub sorted_keys: u64,
    /// See [`SerialWork::StringLookups`].
    pub string_lookups: u64,
    /// See [`SerialWork::Allocations`].
    pub allocations: u64,
    /// See [`SerialWork::HostCopyBytes`].
    pub host_copy_bytes: u64,
    /// See [`SerialWork::TreeOps`].
    pub tree_ops: u64,
}

impl SerialTotals {
    fn add(&mut self, work: SerialWork) {
        match work {
            SerialWork::BlockLoop(n) => self.block_loop += n,
            SerialWork::BoundaryLoop(n) => self.boundary_loop += n,
            SerialWork::SortedKeys(n) => self.sorted_keys += n,
            SerialWork::StringLookups(n) => self.string_lookups += n,
            SerialWork::Allocations(n) => self.allocations += n,
            SerialWork::HostCopyBytes(n) => self.host_copy_bytes += n,
            SerialWork::TreeOps(n) => self.tree_ops += n,
        }
    }

    fn absorb(&mut self, other: &SerialTotals) {
        self.block_loop += other.block_loop;
        self.boundary_loop += other.boundary_loop;
        self.sorted_keys += other.sorted_keys;
        self.string_lookups += other.string_lookups;
        self.allocations += other.allocations;
        self.host_copy_bytes += other.host_copy_bytes;
        self.tree_ops += other.tree_ops;
    }
}

/// MPI collective operations used by the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CollectiveOp {
    /// Refinement-flag aggregation in `UpdateMeshBlockTree`.
    AllGather,
    /// Timestep reduction in `EstimateTimeStep`.
    AllReduce,
}

/// Accumulated communication events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommTotals {
    /// Point-to-point messages within a rank (buffer copy, no MPI).
    pub p2p_local_messages: u64,
    /// Point-to-point messages between ranks.
    pub p2p_remote_messages: u64,
    /// Bytes moved by local copies.
    pub p2p_local_bytes: u64,
    /// Bytes moved by remote messages.
    pub p2p_remote_bytes: u64,
    /// Ghost/flux cells communicated (the paper's "communicated cells").
    pub cells_communicated: u64,
    /// Collective invocations and payload bytes per op.
    pub collectives: BTreeMap<CollectiveOp, (u64, u64)>,
}

impl CommTotals {
    fn absorb(&mut self, other: &CommTotals) {
        self.p2p_local_messages += other.p2p_local_messages;
        self.p2p_remote_messages += other.p2p_remote_messages;
        self.p2p_local_bytes += other.p2p_local_bytes;
        self.p2p_remote_bytes += other.p2p_remote_bytes;
        self.cells_communicated += other.cells_communicated;
        for (op, (c, b)) in &other.collectives {
            let e = self.collectives.entry(*op).or_insert((0, 0));
            e.0 += c;
            e.1 += b;
        }
    }
}

/// Memory spaces distinguished by the footprint analysis (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemSpace {
    /// Kokkos/Parthenon-managed mesh data.
    Kokkos,
    /// MPI communication buffers.
    MpiBuffers,
    /// Open MPI driver overhead (per rank).
    MpiDriver,
}

/// Everything recorded during one simulation cycle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CycleStats {
    /// Cycle number.
    pub cycle: u64,
    /// Mesh blocks at the end of the cycle.
    pub nblocks: u64,
    /// Blocks split this cycle.
    pub blocks_refined: u64,
    /// Parent regions merged this cycle.
    pub blocks_derefined: u64,
    /// Interior cell updates performed (cells × RK stages).
    pub cell_updates: u64,
    /// Per-kernel work this cycle, attributed to its launching function.
    pub kernels: BTreeMap<(StepFunction, &'static str), KernelTotals>,
    /// Serial work this cycle per function.
    pub serial: BTreeMap<StepFunction, SerialTotals>,
    /// Communication this cycle per function.
    pub comm: BTreeMap<StepFunction, CommTotals>,
}

impl CycleStats {
    /// Total cells communicated this cycle (all functions).
    pub fn cells_communicated(&self) -> u64 {
        self.comm.values().map(|c| c.cells_communicated).sum()
    }
}

/// The central workload recorder, threaded through the driver.
///
/// ```
/// use vibe_prof::{Recorder, StepFunction, SerialWork};
///
/// let mut rec = Recorder::new();
/// rec.begin_cycle(0);
/// rec.record_kernel(StepFunction::CalculateFluxes, "CalculateFluxes", 1, 4096, 500_000, 300_000);
/// rec.record_serial(StepFunction::RefinementTag, SerialWork::BlockLoop(8));
/// rec.end_cycle(8, 0, 0, 4096);
/// assert_eq!(rec.cycles().len(), 1);
/// assert_eq!(rec.totals().cell_updates, 4096);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    current: CycleStats,
    in_cycle: bool,
    cycles: Vec<CycleStats>,
    totals: CycleStats,
    mem_current: BTreeMap<MemSpace, i64>,
    mem_peak: BTreeMap<MemSpace, i64>,
    /// Measured-time profiler handle (disabled by default; shared by
    /// clones).
    wall: WallClock,
}

impl Recorder {
    /// Creates an empty recorder with wall-clock profiling off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder with measured-time profiling at `level`.
    pub fn with_prof_level(level: ProfLevel) -> Self {
        Self {
            wall: WallClock::new(level),
            ..Self::default()
        }
    }

    /// The measured-time profiler handle. Open regions with
    /// `rec.wall().region(..)`; the guard owns a shared handle, so the
    /// recorder stays freely usable inside the region.
    pub fn wall(&self) -> &WallClock {
        &self.wall
    }

    /// Opens a new cycle; events recorded until [`Recorder::end_cycle`] are
    /// attributed to it.
    pub fn begin_cycle(&mut self, cycle: u64) {
        assert!(!self.in_cycle, "begin_cycle while a cycle is open");
        self.current = CycleStats {
            cycle,
            ..CycleStats::default()
        };
        self.in_cycle = true;
        // Wall time measured outside any cycle (initialization) counts
        // toward totals but is not attributed to this cycle.
        self.wall.discard_partial_cycle();
    }

    /// Closes the current cycle with its end-of-cycle mesh census.
    pub fn end_cycle(&mut self, nblocks: u64, refined: u64, derefined: u64, cell_updates: u64) {
        assert!(self.in_cycle, "end_cycle without begin_cycle");
        self.current.nblocks = nblocks;
        self.current.blocks_refined = refined;
        self.current.blocks_derefined = derefined;
        self.current.cell_updates = cell_updates;
        self.absorb_into_totals();
        let finished = std::mem::take(&mut self.current);
        self.wall.end_cycle(finished.cycle);
        self.cycles.push(finished);
        self.in_cycle = false;
    }

    /// Records one kernel launch batch.
    pub fn record_kernel(
        &mut self,
        func: StepFunction,
        name: &'static str,
        launches: u64,
        cells: u64,
        flops: u64,
        bytes: u64,
    ) {
        let e = self.current.kernels.entry((func, name)).or_default();
        e.launches += launches;
        e.cells += cells;
        e.flops += flops;
        e.bytes += bytes;
    }

    /// Records typed serial work for `func`.
    pub fn record_serial(&mut self, func: StepFunction, work: SerialWork) {
        self.current.serial.entry(func).or_default().add(work);
    }

    /// Records one point-to-point transfer of `bytes`/`cells`, local when
    /// sender and receiver share a rank.
    pub fn record_p2p(&mut self, func: StepFunction, bytes: u64, cells: u64, local: bool) {
        self.record_p2p_bulk(func, 1, bytes, cells, local);
    }

    /// Records `messages` point-to-point transfers totalling `bytes` and
    /// `cells` in one add — what a plan-driven exchange knows up front.
    pub fn record_p2p_bulk(
        &mut self,
        func: StepFunction,
        messages: u64,
        bytes: u64,
        cells: u64,
        local: bool,
    ) {
        let c = self.current.comm.entry(func).or_default();
        if local {
            c.p2p_local_messages += messages;
            c.p2p_local_bytes += bytes;
        } else {
            c.p2p_remote_messages += messages;
            c.p2p_remote_bytes += bytes;
        }
        c.cells_communicated += cells;
    }

    /// Records one collective of `bytes` payload per rank.
    pub fn record_collective(&mut self, func: StepFunction, op: CollectiveOp, bytes: u64) {
        let c = self.current.comm.entry(func).or_default();
        let e = c.collectives.entry(op).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes;
    }

    /// Records a memory allocation (positive) or deallocation (negative).
    pub fn record_alloc(&mut self, space: MemSpace, delta_bytes: i64) {
        let cur = self.mem_current.entry(space).or_insert(0);
        *cur += delta_bytes;
        let peak = self.mem_peak.entry(space).or_insert(0);
        *peak = (*peak).max(*cur);
    }

    /// Current live bytes per memory space.
    pub fn mem_current(&self, space: MemSpace) -> i64 {
        self.mem_current.get(&space).copied().unwrap_or(0)
    }

    /// Peak live bytes per memory space.
    pub fn mem_peak(&self, space: MemSpace) -> i64 {
        self.mem_peak.get(&space).copied().unwrap_or(0)
    }

    /// Completed cycles in order.
    pub fn cycles(&self) -> &[CycleStats] {
        &self.cycles
    }

    /// Accumulated totals over all completed cycles.
    pub fn totals(&self) -> &CycleStats {
        &self.totals
    }

    /// Merges another rank's recorder into this one, aligning completed
    /// cycles by cycle number: kernel, serial, and communication work sums
    /// (each rank recorded only the work it executed), while the mesh
    /// census (`nblocks`, refined/derefined, `cell_updates`) is global and
    /// replicated on every rank, so it is kept rather than summed. Memory
    /// accounting sums — ranks are separate address spaces, so the
    /// distributed footprint is the sum of per-rank footprints (the summed
    /// peak is an upper bound on the true simultaneous peak).
    ///
    /// Measured wall-clock streams are not merged; per-rank wall clocks
    /// stay with their shard and are exported as rank-tagged tracks.
    ///
    /// A recorder from a rank that recorded nothing (e.g. one that owned
    /// zero blocks after `partition_by_cost`, or never ran a cycle at all)
    /// absorbs as a no-op beyond its memory accounting; adopting straggler
    /// cycles keeps the totals census pinned to the highest-numbered cycle
    /// rather than the last-adopted one.
    pub fn absorb(&mut self, other: &Recorder) {
        assert!(
            !self.in_cycle && !other.in_cycle,
            "absorb requires both recorders to be between cycles"
        );
        let mut adopted = false;
        for theirs in &other.cycles {
            match self.cycles.iter_mut().find(|c| c.cycle == theirs.cycle) {
                Some(mine) => {
                    for (k, v) in &theirs.kernels {
                        mine.kernels.entry(*k).or_default().absorb(v);
                        self.totals.kernels.entry(*k).or_default().absorb(v);
                    }
                    for (k, v) in &theirs.serial {
                        mine.serial.entry(*k).or_default().absorb(v);
                        self.totals.serial.entry(*k).or_default().absorb(v);
                    }
                    for (k, v) in &theirs.comm {
                        mine.comm.entry(*k).or_default().absorb(v);
                        self.totals.comm.entry(*k).or_default().absorb(v);
                    }
                }
                None => {
                    self.current = theirs.clone();
                    self.absorb_into_totals();
                    self.cycles.push(std::mem::take(&mut self.current));
                    self.cycles.sort_by_key(|c| c.cycle);
                    adopted = true;
                }
            }
        }
        if adopted {
            // absorb_into_totals snapshots the census from whatever cycle
            // was adopted last; out-of-order stragglers must not leave the
            // totals reflecting an earlier mesh state.
            if let Some(last) = self.cycles.last() {
                self.totals.nblocks = last.nblocks;
            }
        }
        for (space, bytes) in &other.mem_current {
            *self.mem_current.entry(*space).or_insert(0) += bytes;
        }
        for (space, bytes) in &other.mem_peak {
            *self.mem_peak.entry(*space).or_insert(0) += bytes;
        }
    }

    fn absorb_into_totals(&mut self) {
        let t = &mut self.totals;
        t.nblocks = self.current.nblocks;
        t.blocks_refined += self.current.blocks_refined;
        t.blocks_derefined += self.current.blocks_derefined;
        t.cell_updates += self.current.cell_updates;
        for (k, v) in &self.current.kernels {
            t.kernels.entry(*k).or_default().absorb(v);
        }
        for (k, v) in &self.current.serial {
            t.serial.entry(*k).or_default().absorb(v);
        }
        for (k, v) in &self.current.comm {
            t.comm.entry(*k).or_default().absorb(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_lifecycle_and_totals() {
        let mut r = Recorder::new();
        r.begin_cycle(0);
        r.record_kernel(
            StepFunction::CalculateFluxes,
            "CalculateFluxes",
            2,
            100,
            1000,
            800,
        );
        r.end_cycle(4, 1, 0, 100);
        r.begin_cycle(1);
        r.record_kernel(
            StepFunction::CalculateFluxes,
            "CalculateFluxes",
            2,
            150,
            1500,
            1200,
        );
        r.end_cycle(7, 1, 0, 150);

        assert_eq!(r.cycles().len(), 2);
        let t = r.totals();
        assert_eq!(t.cell_updates, 250);
        assert_eq!(t.blocks_refined, 2);
        let k = &t.kernels[&(StepFunction::CalculateFluxes, "CalculateFluxes")];
        assert_eq!(k.launches, 4);
        assert_eq!(k.flops, 2500);
    }

    #[test]
    #[should_panic(expected = "begin_cycle while a cycle is open")]
    fn double_begin_panics() {
        let mut r = Recorder::new();
        r.begin_cycle(0);
        r.begin_cycle(1);
    }

    #[test]
    fn serial_work_typed_accumulation() {
        let mut r = Recorder::new();
        r.begin_cycle(0);
        r.record_serial(StepFunction::SendBoundBufs, SerialWork::BoundaryLoop(26));
        r.record_serial(StepFunction::SendBoundBufs, SerialWork::SortedKeys(26));
        r.record_serial(StepFunction::SendBoundBufs, SerialWork::BoundaryLoop(4));
        r.end_cycle(1, 0, 0, 0);
        let s = &r.totals().serial[&StepFunction::SendBoundBufs];
        assert_eq!(s.boundary_loop, 30);
        assert_eq!(s.sorted_keys, 26);
        assert_eq!(s.block_loop, 0);
    }

    #[test]
    fn p2p_local_vs_remote() {
        let mut r = Recorder::new();
        r.begin_cycle(0);
        r.record_p2p(StepFunction::SendBoundBufs, 1024, 128, true);
        r.record_p2p(StepFunction::SendBoundBufs, 2048, 256, false);
        r.end_cycle(1, 0, 0, 0);
        let c = &r.totals().comm[&StepFunction::SendBoundBufs];
        assert_eq!(c.p2p_local_messages, 1);
        assert_eq!(c.p2p_remote_messages, 1);
        assert_eq!(c.cells_communicated, 384);
        assert_eq!(r.cycles()[0].cells_communicated(), 384);
    }

    #[test]
    fn collectives_counted_per_op() {
        let mut r = Recorder::new();
        r.begin_cycle(0);
        r.record_collective(
            StepFunction::UpdateMeshBlockTree,
            CollectiveOp::AllGather,
            512,
        );
        r.record_collective(StepFunction::EstimateTimeStep, CollectiveOp::AllReduce, 8);
        r.record_collective(StepFunction::EstimateTimeStep, CollectiveOp::AllReduce, 8);
        r.end_cycle(1, 0, 0, 0);
        let est = &r.totals().comm[&StepFunction::EstimateTimeStep];
        assert_eq!(est.collectives[&CollectiveOp::AllReduce], (2, 16));
    }

    #[test]
    fn memory_peak_tracking() {
        let mut r = Recorder::new();
        r.record_alloc(MemSpace::Kokkos, 1000);
        r.record_alloc(MemSpace::Kokkos, 500);
        r.record_alloc(MemSpace::Kokkos, -800);
        assert_eq!(r.mem_current(MemSpace::Kokkos), 700);
        assert_eq!(r.mem_peak(MemSpace::Kokkos), 1500);
        assert_eq!(r.mem_current(MemSpace::MpiDriver), 0);
    }

    #[test]
    fn wall_clock_rides_the_recorder_cycle_lifecycle() {
        let mut r = Recorder::with_prof_level(ProfLevel::Coarse);
        {
            let _init = r.wall().region(crate::RegionKey::Named("Init"));
        }
        r.begin_cycle(0);
        {
            let _g = r.wall().region(crate::RegionKey::Named("Cycle"));
        }
        r.end_cycle(1, 0, 0, 0);
        r.wall()
            .with_cycles(|c| {
                assert_eq!(c.len(), 1);
                assert_eq!(c[0].cycle, 0);
                let flat = c[0].tree.flatten();
                assert_eq!(flat.len(), 1);
                assert_eq!(flat[0].path, "Cycle");
            })
            .unwrap();
        // Init work went to totals only, alongside the cycle's regions.
        r.wall()
            .with_totals(|t| assert_eq!(t.flatten().len(), 2))
            .unwrap();
        // The default recorder keeps measured time off entirely.
        assert!(!Recorder::new().wall().enabled());
    }

    #[test]
    fn absorb_merges_ranks_by_cycle() {
        let mut rank0 = Recorder::new();
        rank0.begin_cycle(0);
        rank0.record_kernel(
            StepFunction::CalculateFluxes,
            "CalculateFluxes",
            2,
            100,
            0,
            0,
        );
        rank0.record_p2p(StepFunction::SendBoundBufs, 1024, 128, false);
        rank0.end_cycle(8, 1, 0, 512);
        rank0.record_alloc(MemSpace::Kokkos, 1000);

        let mut rank1 = Recorder::new();
        rank1.begin_cycle(0);
        rank1.record_kernel(
            StepFunction::CalculateFluxes,
            "CalculateFluxes",
            3,
            150,
            0,
            0,
        );
        rank1.end_cycle(8, 1, 0, 512);
        rank1.begin_cycle(1);
        rank1.record_serial(StepFunction::RefinementTag, SerialWork::BlockLoop(4));
        rank1.end_cycle(8, 0, 0, 512);
        rank1.record_alloc(MemSpace::Kokkos, 700);

        rank0.absorb(&rank1);
        assert_eq!(rank0.cycles().len(), 2);
        let c0 = &rank0.cycles()[0];
        // Kernel work sums across ranks; the global census is kept as-is.
        let k = &c0.kernels[&(StepFunction::CalculateFluxes, "CalculateFluxes")];
        assert_eq!((k.launches, k.cells), (5, 250));
        assert_eq!(c0.nblocks, 8);
        assert_eq!(c0.blocks_refined, 1);
        // The straggler cycle from rank 1 was adopted whole.
        assert_eq!(
            rank0.cycles()[1].serial[&StepFunction::RefinementTag].block_loop,
            4
        );
        assert_eq!(rank0.totals().blocks_refined, 1);
        // Separate address spaces: footprints sum.
        assert_eq!(rank0.mem_current(MemSpace::Kokkos), 1700);
        assert_eq!(rank0.mem_peak(MemSpace::Kokkos), 1700);
    }

    #[test]
    fn absorb_tolerates_empty_rank_recorders() {
        // A rank that owned zero blocks (or never cycled) absorbs as a
        // no-op; an empty base adopts the other side whole, and stragglers
        // arriving out of order leave totals on the latest cycle's census.
        let mut populated = Recorder::new();
        populated.begin_cycle(0);
        populated.record_serial(StepFunction::RefinementTag, SerialWork::BlockLoop(3));
        populated.end_cycle(8, 0, 0, 256);
        let snapshot = populated.cycles().to_vec();

        populated.absorb(&Recorder::new());
        assert_eq!(populated.cycles(), &snapshot[..]);
        assert_eq!(populated.totals().cell_updates, 256);

        let mut empty = Recorder::new();
        empty.absorb(&populated);
        assert_eq!(empty.cycles(), &snapshot[..]);
        assert_eq!(empty.totals().nblocks, 8);

        // Straggler cycle 0 adopted after cycle 1 must not regress the
        // totals census to cycle 0's block count.
        let mut late = Recorder::new();
        late.begin_cycle(1);
        late.end_cycle(12, 1, 0, 512);
        let mut early = Recorder::new();
        early.begin_cycle(0);
        early.end_cycle(8, 0, 0, 256);
        late.absorb(&early);
        assert_eq!(late.cycles().len(), 2);
        assert_eq!(late.cycles()[0].cycle, 0);
        assert_eq!(late.totals().nblocks, 12);
        assert_eq!(late.totals().cell_updates, 768);
    }

    #[test]
    fn arithmetic_intensity() {
        let k = KernelTotals {
            launches: 1,
            cells: 10,
            flops: 430,
            bytes: 100,
        };
        assert!((k.arithmetic_intensity() - 4.3).abs() < 1e-12);
        assert_eq!(KernelTotals::default().arithmetic_intensity(), 0.0);
    }
}
