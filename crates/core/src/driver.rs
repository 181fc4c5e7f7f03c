//! The evolution driver: Parthenon's timestep loop, executed as a
//! dependency-driven task graph per cycle (see [`cycle_task_graph`]).
//!
//! There is one implementation of the cycle, and what a [`Driver`] *hosts*
//! follows from the transport it was given. On the only endpoint of a
//! transport (the lone endpoint [`Driver::new`] builds) it holds every
//! block and plays all `params.nranks` virtual rank labels itself; cut
//! into one part per label ([`Driver::into_ranks`]) and moved onto one
//! endpoint of a fabric ([`Driver::with_transport`]) it holds the blocks
//! labelled with its own rank and its peers hold the rest, while
//! the mesh — the block *tree* — stays replicated, as in Parthenon. Every
//! task body is written for the second case and degenerates to the first:
//! a gather over one endpoint returns the caller's own payload, and a
//! migration with every block resident has nothing to send or fetch.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use vibe_comm::{BoundaryKey, BufferCache, CacheConfig, Communicator, SendMeta, Transport};
use vibe_exec::{catalog, ExecCtx, KernelDescriptor};
use vibe_field::{BlockData, PackStrategy};
use vibe_mesh::{AmrFlag, DerefGate, Mesh, RegridSource};
use vibe_prof::{MemSpace, ProfLevel, Recorder, RegionKey, SerialWork, StepFunction};

use crate::amr::{deserialize_into, prolongate_to_child, restrict_to_parent, serialize_block};
use crate::block::{BlockInfo, BlockSlot};
use crate::boundary::{
    exchange_ghosts_with_plan, flux_corr_apply, flux_corr_send, ghost_pack_and_send, ghost_poll,
    ghost_retire, ghost_visit, resident_index, BlockTable, ExchangeConfig, ExchangePlan,
    FluxCorrState, GhostExchangeState, GhostFill, NOT_RESIDENT,
};
use crate::package::{FluxPhase, Package};
use crate::sweep::{record_flux_launch, sweep_block, with_scratch, CellBox, TILE_BUDGET_BYTES};
use crate::tasks::{self, TaskKind, TaskNode, TaskStatus};
use crate::update::flux_divergence_update;

/// Message-tag namespace for block-migration payloads (ghost boundaries
/// use the neighbor index, flux corrections 1000+; migration keys are
/// `BoundaryKey::new(old_gid, old_gid, MIGRATE_TAG)`).
const MIGRATE_TAG: u32 = 5000;

/// Refinement-flag wire byte of a block tagged on another endpoint.
const FLAG_ELSEWHERE: u8 = 0xFF;

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverParams {
    /// Virtual MPI ranks the mesh is decomposed over.
    pub nranks: usize,
    /// CFL safety factor for the timestep.
    pub cfl: f64,
    /// Variable-pack lookup strategy (string-keyed vs integer-cached —
    /// the §VIII-A ablation).
    pub pack_strategy: PackStrategy,
    /// Buffer-cache bookkeeping configuration.
    pub cache_config: CacheConfig,
    /// Restrict fine data before sending in ghost exchanges.
    pub restrict_on_send: bool,
    /// Host OS threads for per-block parallel stages (the CPU analogue of
    /// packed device launches, served by the persistent `vibe-exec` worker
    /// pool); 1 = the exact inline serial path.
    pub host_threads: usize,
    /// Measured-time (wall-clock) instrumentation level. `Off` (the
    /// default) pays no overhead; `Coarse`/`Full` wrap every driver stage
    /// in hierarchical region timers and sample pool utilization. The
    /// level never affects simulation results.
    pub prof_level: ProfLevel,
    /// Archive drained communication events for [`Driver::comm_events`]
    /// consumers (the timeline simulator). When `false` the per-cycle drain
    /// drops them, so long runs hold no event memory at all. Either way the
    /// communicator's *resident* log is emptied every cycle.
    pub capture_comm_events: bool,
    /// Emit a causal [`vibe_prof::TaskSpan`] per executed task (plus the
    /// wait probes that feed `vibe_prof::attribute_run`). Observational
    /// only: the solution is bitwise identical with capture on or off.
    pub capture_spans: bool,
}

impl DriverParams {
    /// The ghost-exchange configuration these parameters select.
    pub(crate) fn exchange_config(&self) -> ExchangeConfig {
        ExchangeConfig {
            cache_config: self.cache_config,
            restrict_on_send: self.restrict_on_send,
        }
    }
}

impl Default for DriverParams {
    fn default() -> Self {
        Self {
            nranks: 1,
            cfl: 0.4,
            pack_strategy: PackStrategy::StringKeyed,
            cache_config: CacheConfig::default(),
            restrict_on_send: true,
            host_threads: 1,
            prof_level: ProfLevel::Off,
            capture_comm_events: false,
            capture_spans: false,
        }
    }
}

/// What the task executor measured in one cycle, all zeros when profiling
/// is off. Region wall times are in `recorder().wall()`, per cycle through
/// `with_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleTiming {
    /// Wall time inside [`TaskKind::Compute`] task actions (ns).
    pub compute_task_ns: u64,
    /// Subset of `compute_task_ns` spent while comm traffic was
    /// outstanding — the measured comm/compute overlap.
    pub overlapped_compute_ns: u64,
}

/// Summary of one completed cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSummary {
    /// Cycle index (0-based).
    pub cycle: u64,
    /// Simulation time after the cycle.
    pub time: f64,
    /// Timestep used.
    pub dt: f64,
    /// Blocks after regridding.
    pub nblocks: usize,
    /// Blocks refined this cycle.
    pub refined: usize,
    /// Parent regions derefined this cycle.
    pub derefined: usize,
    /// The task executor's compute and overlap times (all zeros when
    /// `DriverParams::prof_level` is `Off`).
    pub timing: CycleTiming,
}

/// The body a cycle node runs: [`Driver::run_node`] maps each to its
/// `task_*` method.
#[derive(Debug, Clone, Copy)]
enum CycleOp {
    SaveStage0,
    PackSend,
    Flux(usize, FluxPhase),
    WaitUnpack,
    FluxCorrSend,
    FluxCorrApply,
    Update(usize),
    FillDerived,
    MassHistory,
    RefinementTag,
    TreeUpdate,
    Regrid,
    EstimateTimeStep,
}

/// One row of [`CYCLE_NODES`]: the [`TaskNode`] [`cycle_task_graph`]
/// exports (`deps` index earlier rows) plus the body the driver runs for it.
#[derive(Debug)]
struct CycleNode {
    node: TaskNode,
    op: CycleOp,
}

impl Borrow<TaskNode> for CycleNode {
    fn borrow(&self) -> &TaskNode {
        &self.node
    }
}

const fn node(
    name: &'static str,
    kind: TaskKind,
    funcs: &'static [StepFunction],
    deps: &'static [usize],
    op: CycleOp,
) -> CycleNode {
    let node = TaskNode {
        name,
        kind,
        funcs,
        deps,
    };
    CycleNode { node, op }
}

/// The cycle, written once: [`Driver::step`] sweeps this table, running
/// each row through [`Driver::run_node`], and [`cycle_task_graph`] exports
/// it without the ops, so the graph consumers replay is the graph the
/// driver ran.
#[rustfmt::skip] // one row per node, in columns
static CYCLE_NODES: [CycleNode; 22] = {
    use CycleOp as Op;
    use FluxPhase::{Exterior, Interior};
    use StepFunction::*;
    use TaskKind::{CommSend, CommWait, Compute, Serial};
    const SEND: &[StepFunction] = &[StartReceiveBoundBufs, SendBoundBufs, InitializeBufferCache];
    const REGRID: &[StepFunction] = &[RedistributeAndRefineMeshBlocks, RebuildBufferCache];
    [
        node("SaveStage0",            Compute,  &[],                                &[],       Op::SaveStage0),
        node("Stage0::PackSend",      CommSend, SEND,                               &[0],      Op::PackSend),
        node("Stage0::InteriorFlux",  Compute,  &[CalculateFluxes],                 &[1],      Op::Flux(0, Interior)),
        node("Stage0::WaitUnpack",    CommWait, &[ReceiveBoundBufs, SetBounds],     &[1],      Op::WaitUnpack),
        node("Stage0::ExteriorFlux",  Compute,  &[CalculateFluxes],                 &[2, 3],   Op::Flux(0, Exterior)),
        node("Stage0::FluxCorrSend",  CommSend, &[FluxCorrection],                  &[4],      Op::FluxCorrSend),
        node("Stage0::FluxCorrApply", CommWait, &[FluxCorrection],                  &[5],      Op::FluxCorrApply),
        node("Stage0::Update",        Compute,  &[WeightedSumData, FluxDivergence], &[6],      Op::Update(0)),
        node("Stage0::FillDerived",   Compute,  &[FillDerived],                     &[7],      Op::FillDerived),
        node("Stage1::PackSend",      CommSend, SEND,                               &[8],      Op::PackSend),
        node("Stage1::InteriorFlux",  Compute,  &[CalculateFluxes],                 &[9],      Op::Flux(1, Interior)),
        node("Stage1::WaitUnpack",    CommWait, &[ReceiveBoundBufs, SetBounds],     &[9],      Op::WaitUnpack),
        node("Stage1::ExteriorFlux",  Compute,  &[CalculateFluxes],                 &[10, 11], Op::Flux(1, Exterior)),
        node("Stage1::FluxCorrSend",  CommSend, &[FluxCorrection],                  &[12],     Op::FluxCorrSend),
        node("Stage1::FluxCorrApply", CommWait, &[FluxCorrection],                  &[13],     Op::FluxCorrApply),
        node("Stage1::Update",        Compute,  &[WeightedSumData, FluxDivergence], &[14],     Op::Update(1)),
        node("Stage1::FillDerived",   Compute,  &[FillDerived],                     &[15],     Op::FillDerived),
        node("MassHistory",           Compute,  &[MassHistory],                     &[16],     Op::MassHistory),
        node("RefinementTag",         Compute,  &[RefinementTag],                   &[16],     Op::RefinementTag),
        node("TreeUpdate",            Serial,   &[UpdateMeshBlockTree],             &[18],     Op::TreeUpdate),
        node("Regrid",                Serial,   REGRID,                             &[19, 17], Op::Regrid),
        node("EstimateTimeStep",      Compute,  &[EstimateTimeStep],                &[20],     Op::EstimateTimeStep),
    ]
};

// Every dependency points at an earlier row, so table order is an
// execution order and a sweep always has a node it can poll.
const _: () = {
    let mut i = 0;
    while i < CYCLE_NODES.len() {
        let deps = CYCLE_NODES[i].node.deps;
        let mut j = 0;
        while j < deps.len() {
            assert!(deps[j] < i, "a cycle node depends on a later row");
            j += 1;
        }
        i += 1;
    }
};

/// The dependency graph of one driver cycle — the rows of the node table
/// [`Driver::step`] sweeps, exported without their ops so
/// consumers like the timeline simulator replay the same schedule the
/// driver ran (diagram: DESIGN.md, "The cycle task graph").
///
/// Per RK stage, the ghost exchange is split around the interior share of
/// the flux launch — work a device could overlap with in-flight boundary
/// traffic, which is what the platform model and the simulator replay. On
/// the host a block is visited once per stage — ghosts filled, then swept
/// while it is in cache ([`crate::boundary::ghost_visit`]): `InteriorFlux`
/// visits the blocks whose every boundary is filled directly (all of them
/// when one rank label holds every block), while messages are in flight;
/// `WaitUnpack` only polls and banks deliveries; `ExteriorFlux` visits the
/// blocks that needed one and retires the exchange; both flux nodes record
/// their share of the launch. The AMR tail (`MassHistory` ∥ `RefinementTag`
/// → `TreeUpdate` → `Regrid` → `EstimateTimeStep`) follows the second
/// stage.
pub fn cycle_task_graph() -> Vec<TaskNode> {
    CYCLE_NODES.iter().map(|n| n.node).collect()
}

/// Where [`Driver::initialize_impl`] gets its initial condition: the
/// package's own problem generator, or a caller-supplied fill.
enum IcSource<'a> {
    Package,
    Custom(&'a dyn Fn(&BlockInfo, &mut BlockData)),
}

/// Everything a finished driver hands back to a conductor that merges the
/// endpoints of a fabric.
#[derive(Debug)]
pub struct ShardOutput {
    /// The driver's rank on its transport.
    pub rank: usize,
    /// The blocks it held, ascending gid.
    pub owned: Vec<BlockSlot>,
    /// Its workload recorder.
    pub recorder: Recorder,
    /// Its archived communication events (rank-stamped, globally
    /// sequenced on the fabric's shared counter).
    pub events: Vec<vibe_comm::CommEvent>,
    /// History reductions as (cycle, values) — identical on every rank.
    pub history: Vec<(u64, Vec<f64>)>,
    /// Final simulation time.
    pub time: f64,
    /// Final timestep.
    pub dt: f64,
    /// Completed cycles.
    pub cycles: u64,
    /// Causal task spans (rank/cycle-stamped), empty unless
    /// [`DriverParams::capture_spans`] was on.
    pub spans: Vec<vibe_prof::TaskSpan>,
    /// Directly measured wait probes (collective blocking, migration
    /// stalls) accumulated over the run.
    pub probes: vibe_prof::WaitProbes,
}

/// The evolution driver: owns the mesh, block data, communication state,
/// and profiler, and advances the simulation with the paper's timestep
/// loop (`Step` → `LoadBalancingAndAMR` → `EstimateTimeStep`), each cycle
/// executed as the dependency-driven task graph of [`cycle_task_graph`].
/// See the module docs for which blocks it holds.
///
/// Cache-line aligned: a rank thread keeps its shard on its stack, and
/// where in a cache line the driver then started moved `serve-mix`
/// throughput by 5–15 % between builds that did the same work.
#[derive(Debug)]
#[repr(align(64))]
pub struct Driver<P: Package> {
    /// The replicated mesh: every block's location, neighbors and rank.
    mesh: Mesh,
    /// The resident blocks in ascending gid.
    slots: Vec<BlockSlot>,
    /// gid → position in `slots` ([`NOT_RESIDENT`] for blocks a peer holds).
    index: Vec<usize>,
    /// Shared by the parts of a cut ([`Driver::into_ranks`]).
    package: Arc<P>,
    params: DriverParams,
    comm: Communicator,
    cache: BufferCache,
    rec: Recorder,
    gate: DerefGate,
    time: f64,
    dt: f64,
    cycle: u64,
    history: Vec<(u64, Vec<f64>)>,
    /// Per-mesh-generation communication plan; `None` after a regrid until
    /// the next [`Self::ensure_plan`].
    plan: Option<ExchangePlan>,
    /// Ghost-exchange traffic in flight between the PackSend and
    /// WaitUnpack tasks of the current stage.
    ghost_state: GhostExchangeState,
    /// Flux corrections in flight between FluxCorrSend and FluxCorrApply.
    fcorr_state: FluxCorrState,
    /// Timestep frozen at the start of the current cycle's task list.
    step_dt: f64,
    /// Refinement flags of the resident blocks, one byte per block of the
    /// mesh, handed from the RefinementTag task to TreeUpdate.
    step_flags: Vec<u8>,
    /// Regrid decision handed from TreeUpdate to Regrid.
    step_decision: Option<vibe_mesh::refinement::RegridDecision>,
    /// (refined, derefined) counts recorded by the Regrid task.
    step_counts: (usize, usize),
    /// Archived communication events, drained from the communicator at the
    /// end of every cycle so the mailbox's resident log stays O(one cycle)
    /// no matter how long the run is.
    comm_log: Vec<vibe_comm::CommEvent>,
    /// Causal task spans, rank/cycle-stamped, archived per cycle when
    /// [`DriverParams::capture_spans`] is on.
    span_log: Vec<vibe_prof::TaskSpan>,
    /// Accumulated wait probes (collective blocking, migration stalls).
    wait_probes: vibe_prof::WaitProbes,
}

impl<P: Package> Driver<P> {
    /// Creates a driver over `mesh` with `package` physics, holding every
    /// block on a lone endpoint of its own.
    pub fn new(mesh: Mesh, package: P, params: DriverParams) -> Self {
        let mut mesh = mesh;
        mesh.load_balance(params.nranks);
        let comm = Communicator::new(params.nranks);
        let mut driver = Self::assemble(mesh, Vec::new(), Arc::new(package), params, comm);
        driver.slots = (0..driver.mesh.num_blocks())
            .map(|gid| driver.new_slot(gid))
            .collect();
        driver.index = resident_index(&driver.slots, driver.mesh.num_blocks());
        let bytes = driver.total_field_bytes();
        driver.rec.record_alloc(MemSpace::Kokkos, bytes as i64);
        driver
    }

    /// A driver holding `slots` of `mesh` on `comm`, at time zero, with a
    /// fresh recorder, logs, buffer cache and exchange plan.
    fn assemble(
        mesh: Mesh,
        slots: Vec<BlockSlot>,
        package: Arc<P>,
        params: DriverParams,
        mut comm: Communicator,
    ) -> Self {
        comm.set_event_capture(params.capture_comm_events);
        Self {
            comm,
            cache: BufferCache::new(),
            rec: Recorder::with_prof_level(params.prof_level),
            gate: DerefGate::new(mesh.params().deref_gap()),
            time: 0.0,
            dt: 0.0,
            cycle: 0,
            history: Vec::new(),
            index: resident_index(&slots, mesh.num_blocks()),
            slots,
            plan: None,
            ghost_state: GhostExchangeState::default(),
            fcorr_state: FluxCorrState::default(),
            step_dt: 0.0,
            step_flags: Vec::new(),
            step_decision: None,
            step_counts: (0, 0),
            comm_log: Vec::new(),
            span_log: Vec::new(),
            wait_probes: vibe_prof::WaitProbes::default(),
            mesh,
            package,
            params,
        }
    }

    /// Cuts a driver that holds every block into one driver per rank
    /// label, for the endpoints of a fabric: part `r` holds the blocks
    /// labelled `r` — moved, never copied — and a copy of the replicated
    /// mesh, and shares the package. The clock, derefinement gate and
    /// history carry over to every part. A part is meant for one thing:
    /// [`Self::with_transport`] onto endpoint `r`. With one rank label the
    /// driver comes back whole and untouched.
    ///
    /// This is how the endpoints of a fabric are born: one thread builds
    /// and initializes the whole problem once, cuts it, and hands each rank
    /// its part — no rank ever holds blocks it does not host.
    ///
    /// # Panics
    ///
    /// Panics if the driver does not hold every block of its mesh.
    pub fn into_ranks(self) -> Vec<Self> {
        let nranks = self.params.nranks;
        if nranks == 1 {
            return vec![self];
        }
        assert_eq!(
            self.slots.len(),
            self.mesh.num_blocks(),
            "only a driver holding every block can be cut"
        );
        let Self {
            mesh,
            slots,
            package,
            params,
            gate,
            time,
            dt,
            cycle,
            history,
            ..
        } = self;
        let mut held: Vec<Vec<BlockSlot>> = (0..nranks).map(|_| Vec::new()).collect();
        for slot in slots {
            held[slot.info.rank].push(slot);
        }
        let mut meshes: Vec<Mesh> = (1..nranks).map(|_| mesh.clone()).collect();
        meshes.push(mesh);
        held.into_iter()
            .zip(meshes)
            .map(|(slots, mesh)| {
                let comm = Communicator::new(nranks);
                let mut part = Self::assemble(mesh, slots, Arc::clone(&package), params, comm);
                part.restore_clock(time, dt, cycle);
                part.restore_amr_state(gate.clone(), history.clone());
                part
            })
            .collect()
    }

    /// Moves an initialized driver onto `transport`: the whole driver onto
    /// a transport of its own, or a part of a cut ([`Self::into_ranks`])
    /// onto the fabric endpoint of its rank. The clock, derefinement gate
    /// and history carry over (a replica restored from a checkpoint
    /// resumes mid-run, and the gate keys decisions on absolute cycle
    /// numbers); the recorder, event and span logs, buffer cache and
    /// exchange plan start afresh, since initialization is not attributed
    /// to any cycle.
    ///
    /// # Panics
    ///
    /// Panics if the transport is a fabric of other than `params.nranks`
    /// endpoints, if the driver was never initialized, or if it does not
    /// hold exactly the blocks the endpoint hosts.
    pub fn with_transport(self, transport: Box<dyn Transport>) -> Self {
        assert!(
            transport.nranks() == 1 || transport.nranks() == self.params.nranks,
            "a fabric needs one endpoint per rank of the decomposition"
        );
        assert!(
            self.dt > 0.0,
            "initialize() must run before with_transport()"
        );
        let Self {
            mesh,
            slots,
            package,
            params,
            gate,
            time,
            dt,
            cycle,
            history,
            ..
        } = self;
        let comm = Communicator::with_transport(params.nranks, transport);
        let mut moved = Self::assemble(mesh, slots, package, params, comm);
        moved.restore_clock(time, dt, cycle);
        moved.restore_amr_state(gate, history);
        let hosted = moved.hosting();
        let mesh = &moved.mesh;
        let hosts = (0..mesh.num_blocks()).filter(|&gid| hosted(mesh.block(gid).rank()));
        assert!(
            moved.slots.iter().all(|slot| hosted(slot.info.rank))
                && moved.slots.len() == hosts.count(),
            "an endpoint must hold exactly the blocks it hosts (cut with into_ranks)"
        );
        let bytes = moved.total_field_bytes();
        moved.rec.record_alloc(MemSpace::Kokkos, bytes as i64);
        moved
    }

    /// Which rank labels' blocks this driver holds: every label on the
    /// only endpoint of a transport, its own rank's on a fabric.
    fn hosting(&self) -> impl Fn(usize) -> bool + Copy {
        let (endpoints, me) = (self.comm.endpoints(), self.comm.rank());
        move |label| endpoints == 1 || label == me
    }

    /// Builds a fresh registered container for this problem.
    fn fresh_data(&self) -> BlockData {
        let mut data = BlockData::new(self.mesh.index_shape());
        data.set_pack_strategy(self.params.pack_strategy);
        self.package.register(&mut data);
        data
    }

    fn new_slot(&self, gid: usize) -> BlockSlot {
        BlockSlot::new(BlockInfo::from_mesh(&self.mesh, gid), self.fresh_data())
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The physics package this driver evolves.
    pub fn package(&self) -> &P {
        &self.package
    }

    /// The resident block slots in gid order: every block of the mesh
    /// unless the driver was moved onto a fabric.
    pub fn slots(&self) -> &[BlockSlot] {
        &self.slots
    }

    /// Mutable block slots (initial conditions).
    pub fn slots_mut(&mut self) -> &mut [BlockSlot] {
        &mut self.slots
    }

    /// This driver's rank on its transport (0 on a lone endpoint).
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Endpoints of this driver's transport (1 on a lone endpoint).
    pub(crate) fn endpoints(&self) -> usize {
        self.comm.endpoints()
    }

    /// The workload recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The ordered communication event log (post/send/completion order with
    /// monotone sequence numbers) — the per-rank message streams the
    /// timeline simulator replays. Events are drained out of the
    /// communicator at the end of every cycle and archived here; empty when
    /// [`DriverParams::capture_comm_events`] is off.
    pub fn comm_events(&self) -> &[vibe_comm::CommEvent] {
        &self.comm_log
    }

    /// Number of events currently resident in the communicator's own log —
    /// bounded by one cycle's traffic because [`Driver::step`] drains it
    /// every cycle (the archive in [`Driver::comm_events`] is the consumer).
    pub fn resident_comm_events(&self) -> usize {
        self.comm.resident_events()
    }

    /// Drains the communicator's event log into the archive (the log stays
    /// empty when event capture is disabled: nothing is logged at all).
    fn drain_comm_events(&mut self) {
        self.comm_log.append(&mut self.comm.take_events());
    }

    /// Consumes the driver, returning the recorder.
    pub fn into_recorder(self) -> Recorder {
        self.rec
    }

    /// Archived causal task spans (rank- and cycle-stamped); empty unless
    /// [`DriverParams::capture_spans`] is on.
    pub fn task_spans(&self) -> &[vibe_prof::TaskSpan] {
        &self.span_log
    }

    /// Accumulated directly measured wait probes.
    pub fn wait_probes(&self) -> vibe_prof::WaitProbes {
        self.wait_probes
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current timestep.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Completed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// History reductions recorded so far, as (cycle, values).
    pub fn history(&self) -> &[(u64, Vec<f64>)] {
        &self.history
    }

    /// Field bytes across the resident blocks in Parthenon's layout (see
    /// [`BlockSlot::nbytes`]) — what the recorder's Kokkos totals and the
    /// memory model are fed.
    pub fn total_field_bytes(&self) -> usize {
        self.slots.iter().map(BlockSlot::nbytes).sum()
    }

    /// Field bytes this process actually holds for the resident blocks
    /// (flux scratch is per worker thread, not per block: see
    /// [`crate::sweep::TILE_BUDGET_BYTES`]).
    pub fn resident_field_bytes(&self) -> usize {
        self.slots.iter().map(BlockSlot::resident_bytes).sum()
    }

    /// Blocks until every endpoint of the transport reaches this barrier
    /// (used by a conductor to bracket timed regions).
    pub fn barrier(&mut self, label: &'static str) {
        self.comm.barrier(label);
    }

    /// Finishes the driver, returning everything a conductor merges.
    pub fn finish(mut self) -> ShardOutput {
        self.drain_comm_events();
        ShardOutput {
            rank: self.comm.rank(),
            owned: self.slots,
            recorder: self.rec,
            events: self.comm_log,
            history: self.history,
            time: self.time,
            dt: self.dt,
            cycles: self.cycle,
            spans: self.span_log,
            probes: self.wait_probes,
        }
    }

    /// Host execution context for per-block parallel stages.
    fn exec(&self) -> ExecCtx {
        ExecCtx::new(self.params.host_threads)
    }

    /// Applies `ic` to every block and adapts the initial mesh to it:
    /// repeatedly tags, regrids, and re-applies `ic` until the hierarchy
    /// stabilizes (at most `max_levels` rounds), then performs the initial
    /// ghost exchange, derived fill, and timestep estimate.
    ///
    /// Work during initialization is not attributed to any cycle.
    pub fn initialize(&mut self, ic: impl Fn(&BlockInfo, &mut BlockData)) {
        self.initialize_impl(IcSource::Custom(&ic));
    }

    /// Like [`Self::initialize`], but fills the initial condition from the
    /// package's own problem generator
    /// ([`Package::initial_condition`](crate::Package::initial_condition))
    /// — the setup path for packages resolved by name, where no caller
    /// knows the concrete physics.
    pub fn initialize_package(&mut self) {
        self.initialize_impl(IcSource::Package);
    }

    /// Applies the selected initial-condition source to every block.
    fn apply_ic(&mut self, ic: &IcSource<'_>) {
        // Disjoint field borrows: the package reads while the slots fill.
        let package: &P = &self.package;
        match ic {
            IcSource::Package => {
                for slot in &mut self.slots {
                    package.initial_condition(&slot.info, &mut slot.data);
                }
            }
            IcSource::Custom(f) => {
                for slot in &mut self.slots {
                    f(&slot.info, &mut slot.data);
                }
            }
        }
    }

    /// Runs on the lone endpoint a driver is born with, every block
    /// resident: the tag/regrid rounds need no gather and move no block.
    fn initialize_impl(&mut self, ic: IcSource<'_>) {
        // Comm events during initialization carry a sentinel cycle so
        // consumers replaying per-cycle streams (vibe-sim) can drop them,
        // mirroring how recorded work here is not attributed to any cycle.
        self.comm.begin_cycle(u64::MAX);
        let wall = self.rec.wall().clone();
        if wall.enabled() {
            vibe_exec::stats_begin();
        }
        let init_guard = wall.region(RegionKey::Named("Initialize"));
        let rounds = self.mesh.params().max_levels();
        self.apply_ic(&ic);
        for _ in 0..rounds {
            self.exchange();
            let tags = self.collect_tags();
            let decision = self.mesh.proper_nesting(&self.merged_flags(&[tags]));
            if decision.is_empty() {
                break;
            }
            let outcome = self.mesh.regrid(&decision).expect("valid regrid decision");
            self.move_blocks(&outcome.sources, true);
            self.apply_ic(&ic);
        }
        self.mesh.load_balance(self.params.nranks);
        for slot in &mut self.slots {
            slot.info.rank = self.mesh.block(slot.info.gid).rank();
        }
        self.exchange();
        self.task_fill_derived();
        self.estimate_dt();
        drop(init_guard);
        if wall.enabled() {
            wall.record_pool_samples(&vibe_exec::stats_end());
        }
        self.drain_comm_events();
    }

    /// Advances `n` cycles, returning their summaries.
    pub fn run_cycles(&mut self, n: u64) -> Vec<CycleSummary> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Advances one full cycle by executing the [`cycle_task_graph`]: RK2
    /// predictor + corrector with split ghost exchanges, then the AMR tail
    /// and the timestep estimate.
    ///
    /// The executor's ready sweep is deterministic — tasks complete in
    /// insertion order once their dependencies resolve — so results are
    /// bitwise identical to a fully barriered stage sequence at any
    /// `host_threads`, and every endpoint of a fabric issues its
    /// collectives in the same program order (the
    /// [`CollectiveHub`](vibe_comm::CollectiveHub) panics if ranks ever
    /// rendezvous under different labels). This is the first of the three
    /// properties that make the solution independent of the decomposition;
    /// the rank-ordered reduction (`estimate_dt`) and the order-free flag
    /// merge (`merged_flags`) are the others.
    pub fn step(&mut self) -> CycleSummary {
        assert!(self.dt > 0.0, "initialize() must run before step()");
        self.rec.begin_cycle(self.cycle);
        self.comm.begin_cycle(self.cycle);
        let wall = self.rec.wall().clone();
        if wall.enabled() {
            vibe_exec::stats_begin();
        }
        let cycle_guard = wall.region(RegionKey::Named("Cycle"));
        self.ensure_plan();
        let dt = self.dt;
        self.step_dt = dt;
        let capture = self.params.capture_spans;
        let mut cycle_spans: Vec<vibe_prof::TaskSpan> = Vec::new();
        let spans = capture.then_some(&mut cycle_spans);
        let timing = tasks::execute(&CYCLE_NODES, wall.enabled(), spans, |i| self.run_node(i));
        drop(cycle_guard);
        if wall.enabled() {
            wall.record_pool_samples(&vibe_exec::stats_end());
        }
        let blocked = self.comm.take_collective_block_ns();
        if capture {
            for s in &mut cycle_spans {
                s.rank = self.comm.rank();
                s.cycle = self.cycle;
            }
            self.span_log.append(&mut cycle_spans);
            self.wait_probes.collective_block_ns += blocked;
        }
        let (refined, derefined) = self.step_counts;
        let nblocks = self.mesh.num_blocks();
        let cell_updates = self.mesh.total_interior_cells();
        self.rec.end_cycle(
            nblocks as u64,
            refined as u64,
            derefined as u64,
            cell_updates,
        );
        self.time += dt;
        self.cycle += 1;
        self.drain_comm_events();
        CycleSummary {
            cycle: self.cycle - 1,
            time: self.time,
            dt,
            nblocks,
            refined,
            derefined,
            timing,
        }
    }

    /// Runs row `i` of [`CYCLE_NODES`]: the one place an op meets its task
    /// body, the one place comm events are stamped with a node name, and
    /// the one place an incomplete wait is handled ([`Self::yield_to_peers`]).
    fn run_node(&mut self, i: usize) -> TaskStatus {
        let CycleNode { node, op } = &CYCLE_NODES[i];
        self.comm.set_task(Some(node.name));
        let mut status = TaskStatus::Complete;
        match *op {
            CycleOp::SaveStage0 => self.task_save_stage0(node.name),
            CycleOp::PackSend => self.task_ghost_pack_send(),
            CycleOp::Flux(stage, phase) => self.task_flux(stage, phase),
            CycleOp::WaitUnpack => status = self.task_ghost_wait_unpack(),
            CycleOp::FluxCorrSend => self.task_fcorr_send(),
            CycleOp::FluxCorrApply => status = self.task_fcorr_apply(),
            CycleOp::Update(stage) => self.task_update(stage),
            CycleOp::FillDerived => self.task_fill_derived(),
            CycleOp::MassHistory => self.task_history(),
            CycleOp::RefinementTag => self.task_refinement_tag(),
            CycleOp::TreeUpdate => self.task_tree_update(),
            CycleOp::Regrid => self.task_regrid(),
            CycleOp::EstimateTimeStep => self.estimate_dt(),
        }
        self.comm.set_task(None);
        if status == TaskStatus::Incomplete {
            self.yield_to_peers(node.name);
        }
        status
    }

    /// SaveStage0 node: the cycle-start copies of the two-stage variables
    /// are taken by the stage-0 visit of [`Self::task_flux`], while each
    /// block is in cache — neither fill nor sweep writes an interior cell,
    /// so the copy holds the same bits. The node keeps its place in the
    /// graph (and its region, as a count).
    fn task_save_stage0(&mut self, task: &'static str) {
        let wall = self.rec.wall().clone();
        let _g = wall.region_hot(RegionKey::Named(task));
    }

    /// PackSend task: posts receives for the boundaries the resident
    /// blocks consume, packs and ships the ones that go through the
    /// mailbox to a peer endpoint; boundaries between resident blocks wait
    /// for the receiver's visit.
    fn task_ghost_pack_send(&mut self) {
        let cfg = self.params.exchange_config();
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        self.ghost_state = ghost_pack_and_send(
            self.plan.as_ref().expect("plan built"),
            &BlockTable::of(&mut self.slots, &self.index, &self.mesh),
            &mut self.comm,
            &mut self.cache,
            &cfg,
            exec,
            &mut self.rec,
        );
    }

    /// WaitUnpack task: one delivery sweep, banking what arrived.
    fn task_ghost_wait_unpack(&mut self) -> TaskStatus {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        match ghost_poll(&mut self.ghost_state, &mut self.comm, &mut self.rec) {
            true => TaskStatus::Complete,
            false => TaskStatus::Incomplete,
        }
    }

    /// Node `node` waits for a message that has not arrived: on a fabric a
    /// peer endpoint's thread packs it, so this one hands the OS thread
    /// on. On the only endpoint of a transport every boundary moves
    /// directly and nothing is ever in flight, so a wait there is a
    /// deadlock — it panics, naming the node, rather than hang.
    fn yield_to_peers(&self, node: &str) {
        assert!(
            self.comm.endpoints() > 1,
            "{node} waits for a message on the only endpoint of its transport"
        );
        std::thread::yield_now();
    }

    /// Interior/exterior flux task: both record their share of the flux
    /// launch and visit their blocks — ghost fill, in stage 0 the stage
    /// copy, then the sweep in the production tiling, each worker in its
    /// own scratch; the exterior one then retires the exchange. Stage 0
    /// fills only the stencil halo, which is all its sweep reads; stage 1,
    /// the last, fills the whole ghost shell, so every observer after the
    /// cycle sees the bits of a full fill ([`GhostFill`]).
    fn task_flux(&mut self, stage: usize, phase: FluxPhase) {
        let exec = self.exec();
        let ids = self.plan.as_ref().expect("plan built").flux_ids.clone();
        self.with_rank_packs(StepFunction::CalculateFluxes, |pkg, pack, rec| {
            record_flux_launch(pkg, pack, phase, &ids, rec);
        });
        let wall = self.rec.wall().clone();
        let plan = self.plan.as_ref().expect("plan built");
        let shape = self.mesh.index_shape();
        let budget = TILE_BUDGET_BYTES / 8;
        let tiles = CellBox::interior(&shape).tiles(shape.dim(), plan.flux_ncomp(), budget);
        let (pkg, corrected): (&P, _) = (&self.package, &plan.corrected);
        let sweep = |info: &BlockInfo, data: &BlockData, out: &mut [vibe_field::FluxOut]| {
            let keep = corrected[info.gid];
            with_scratch(|scratch| sweep_block(pkg, info, data, out, &tiles, keep, scratch));
        };
        let fill = match stage {
            0 => GhostFill::Halo,
            _ => GhostFill::Full,
        };
        ghost_visit(
            plan,
            &self.ghost_state,
            &mut BlockTable::of(&mut self.slots, &self.index, &self.mesh),
            phase,
            fill,
            stage == 0,
            Some(&sweep),
            exec,
            &wall,
        );
        if phase == FluxPhase::Exterior {
            let state = std::mem::take(&mut self.ghost_state);
            ghost_retire(plan, state, &mut self.rec);
        }
    }

    /// FluxCorrSend task: ships the restricted fine face fluxes that go
    /// to a peer endpoint and applies the ones between resident blocks
    /// directly.
    fn task_fcorr_send(&mut self) {
        let exec = self.exec();
        self.fcorr_state = flux_corr_send(
            self.plan.as_ref().expect("plan built"),
            &mut BlockTable::of(&mut self.slots, &self.index, &self.mesh),
            &mut self.comm,
            exec,
            &mut self.rec,
        );
    }

    /// FluxCorrApply task: polls for corrections, then overwrites coarse
    /// fluxes once everything arrived.
    fn task_fcorr_apply(&mut self) -> TaskStatus {
        let exec = self.exec();
        flux_corr_apply(
            self.plan.as_ref().expect("plan built"),
            &mut self.fcorr_state,
            &mut BlockTable::of(&mut self.slots, &self.index, &self.mesh),
            &mut self.comm,
            exec,
            &mut self.rec,
        )
    }

    /// RK2 stage update (flux ids and corrected faces cached in the
    /// exchange plan).
    fn task_update(&mut self, stage: usize) {
        let coef = if stage == 0 {
            (0.0, 1.0, 1.0)
        } else {
            (0.5, 0.5, 0.5)
        };
        let dt = self.step_dt;
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("RK2Update"));
        let plan = self.plan.as_ref().expect("plan built");
        let (ids, corrected) = (&plan.flux_ids, &plan.corrected);
        let rec = &mut self.rec;
        for_each_rank_pack(&mut self.slots, |pack| {
            flux_divergence_update(pack, exec, coef, dt, ids, corrected, rec);
        });
    }

    /// FillDerived task (also the initializer's derived fill).
    fn task_fill_derived(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::FillDerived));
        self.map_rank_packs(
            StepFunction::FillDerived,
            &catalog::CALCULATE_DERIVED,
            |pkg, info, data| pkg.fill_derived(info, data),
            |_, _| {},
        );
    }

    /// MassHistory task, every cycle. Per-block contributions are tagged
    /// with their gid, gathered from every endpoint, and folded in
    /// *global gid order*: the reduction order is
    /// the same whatever the rank partition, so the history of any
    /// decomposition is bitwise identical to the single-rank fold. Every
    /// endpoint joins the gather, including ones without blocks.
    fn task_history(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::MassHistory));
        let ncols = self.package.history_labels().len();
        // One (gid: u64 le, row: ncols × f64 le) entry per resident block.
        let mut payload: Vec<u8> = Vec::new();
        self.map_rank_packs(
            StepFunction::MassHistory,
            &catalog::MASS_HISTORY,
            |pkg, info, data| {
                let mut row = vec![0.0; ncols];
                pkg.history_contributions(info, data, &mut row);
                row
            },
            |pack, rows| {
                for (slot, row) in pack.iter().zip(rows) {
                    payload.extend_from_slice(&(slot.info.gid as u64).to_le_bytes());
                    for v in row {
                        payload.extend_from_slice(&v.to_le_bytes());
                    }
                }
            },
        );
        let parts = self.gather_across_endpoints(StepFunction::MassHistory, payload);
        let mut rows: Vec<(u64, Vec<f64>)> = Vec::new();
        for entry in parts.iter().flat_map(|p| p.chunks_exact(8 + 8 * ncols)) {
            let gid = u64::from_le_bytes(entry[..8].try_into().expect("8-byte gid"));
            let row = entry[8..]
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte value")))
                .collect();
            rows.push((gid, row));
        }
        rows.sort_by_key(|&(gid, _)| gid);
        let mut values = vec![0.0; ncols];
        for (_, row) in rows {
            for (acc, x) in values.iter_mut().zip(row) {
                *acc += x;
            }
        }
        self.history.push((self.cycle, values));
    }

    /// Every endpoint's `payload`, indexed by rank — for data only a
    /// fabric splits up: a recorded AllGather between its endpoints, and
    /// on the only endpoint of a transport, where every block is resident
    /// and nothing needs gathering, the payload itself.
    pub(crate) fn gather_across_endpoints(
        &mut self,
        func: StepFunction,
        payload: Vec<u8>,
    ) -> Vec<Vec<u8>> {
        if self.comm.endpoints() == 1 {
            return vec![payload];
        }
        self.comm.all_gather_data(func, payload, &mut self.rec)
    }

    fn task_refinement_tag(&mut self) {
        self.step_flags = self.collect_tags();
    }

    /// UpdateMeshBlockTree task: an AllGather of every rank's refinement
    /// flags — one byte per block of the replicated mesh from each rank —
    /// reconciled into a regrid decision for the Regrid task by
    /// proper-nesting enforcement and the derefinement-gate filter:
    /// replicated tree surgery, identical on every endpoint.
    fn task_tree_update(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::UpdateMeshBlockTree));
        let tags = std::mem::take(&mut self.step_flags);
        let parts =
            self.comm
                .all_gather_data(StepFunction::UpdateMeshBlockTree, tags, &mut self.rec);
        let mut decision = self.mesh.proper_nesting(&self.merged_flags(&parts));
        decision.derefine_parents = self.gate.filter(decision.derefine_parents, self.cycle);
        self.rec.record_serial(
            StepFunction::UpdateMeshBlockTree,
            SerialWork::TreeOps(
                (decision.refine.len() + decision.derefine_parents.len() + 1) as u64,
            ),
        );
        self.rec.record_serial(
            StepFunction::UpdateMeshBlockTree,
            SerialWork::BlockLoop(self.mesh.num_blocks() as u64),
        );
        self.step_decision = Some(decision);
    }

    /// Regrid task: replicated tree surgery and load balance, then the
    /// blocks follow the new ownership map ([`Self::move_blocks`]); block
    /// moves and list rebuilds are accounted, the buffer cache rebuilt
    /// when invalidated.
    fn task_regrid(&mut self) {
        let func = StepFunction::RedistributeAndRefineMeshBlocks;
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(func));
        let decision = self.step_decision.take().expect("tree update ran");
        self.step_counts = (decision.refine.len(), decision.derefine_parents.len());
        let structural = !decision.is_empty();
        let sources: Vec<RegridSource> = if structural {
            for parent in &decision.derefine_parents {
                self.gate.record_derefine(parent, self.cycle);
            }
            for loc in &decision.refine {
                self.gate.record_refine(loc, self.cycle);
            }
            let outcome = self.mesh.regrid(&decision).expect("valid regrid decision");
            outcome.sources
        } else {
            (0..self.mesh.num_blocks())
                .map(|old_gid| RegridSource::Unchanged { old_gid })
                .collect()
        };
        // Load balancing every cycle (paper configuration) over the
        // mesh's uniform per-block cost: equal cell counts, equal cost.
        let nblocks = self.mesh.num_blocks();
        let labels_before: Vec<usize> = (0..nblocks).map(|g| self.mesh.block(g).rank()).collect();
        self.mesh.load_balance(self.params.nranks);
        self.move_blocks(&sources, structural);
        // A block that changed label between two ranks this driver plays
        // would have shipped its full state: modeled here. (Between
        // endpoints of a fabric the shipment is real and the mailbox
        // recorded it.)
        let hosted = self.hosting();
        for slot in &self.slots {
            let before = labels_before[slot.info.gid];
            if slot.info.rank != before && hosted(before) {
                let bytes = slot.nbytes() as u64;
                let cells = slot.data.shape().interior_count() as u64;
                self.rec.record_p2p(func, bytes, cells, false);
            }
        }
        // Per-cycle list rebuild, cost computation, ownership update, and
        // SetMeshBlockNeighbors — load balancing runs every cycle in the
        // paper's configuration, and this scalar block management is the
        // dominant serial cost of low-rank GPU runs (Fig. 11). Every
        // endpoint of a fabric does it over the whole replicated list.
        self.rec
            .record_serial(func, SerialWork::BlockLoop(8 * nblocks as u64));
        let boundaries = self.mesh.num_boundaries() as u64;
        self.rec
            .record_serial(func, SerialWork::BoundaryLoop(boundaries));
        // BuildTagMapAndBoundaryBuffers + SetMeshBlockNeighbors.
        if !self.cache.is_valid() {
            self.cache
                .rebuild(boundaries, boundaries * 96, &mut self.rec);
        }
    }

    /// Rebuilds the communication plan if the mesh generation changed
    /// (plan invalidation happens in [`Self::move_blocks`]). A driver
    /// without blocks compiles it from a spare container: blocks may
    /// migrate to it while the plan lives.
    fn ensure_plan(&mut self) {
        if self.plan.is_none() {
            let cfg = self.params.exchange_config();
            let mut spare = self.slots.is_empty().then(|| self.fresh_data());
            let containers = self.slots.iter_mut().map(|s| &mut s.data);
            self.plan = Some(ExchangePlan::build(
                &self.mesh,
                containers.chain(spare.as_mut()),
                &cfg,
                self.package.stencil_radius(),
                &mut self.rec,
            ));
        }
    }

    /// One blocking ghost exchange over all FILL_GHOST variables (the
    /// initializer's path; cycles run the same phases as separate tasks,
    /// with the sweep riding the visit).
    fn exchange(&mut self) {
        let cfg = self.params.exchange_config();
        let exec = self.exec();
        self.ensure_plan();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        exchange_ghosts_with_plan(
            self.plan.as_ref().expect("plan built"),
            &mut BlockTable::of(&mut self.slots, &self.index, &self.mesh),
            &mut self.comm,
            &mut self.cache,
            &cfg,
            exec,
            &mut self.rec,
        );
    }

    /// Tags the resident blocks, pack by pack, with the package's policy
    /// applied to its per-block indicator. Returns one wire byte per block
    /// of the mesh, [`FLAG_ELSEWHERE`] for the ones tagged by a peer; the
    /// cross-rank merge is [`Self::merged_flags`].
    fn collect_tags(&mut self) -> Vec<u8> {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::RefinementTag));
        if !self.slots.is_empty() {
            self.rec.record_serial(
                StepFunction::RefinementTag,
                SerialWork::BlockLoop(self.slots.len() as u64),
            );
        }
        let policy = self.package.refinement_policy();
        let mut tags = vec![FLAG_ELSEWHERE; self.mesh.num_blocks()];
        self.map_rank_packs(
            StepFunction::RefinementTag,
            &catalog::FIRST_DERIVATIVE,
            |pkg, info, data| policy.flag(pkg.refinement_indicator(info, data)),
            |pack, flags| {
                for (slot, flag) in pack.iter().zip(flags) {
                    tags[slot.info.gid] = match flag {
                        AmrFlag::Derefine => 0,
                        AmrFlag::Same => 1,
                        AmrFlag::Refine => 2,
                    };
                }
            },
        );
        tags
    }

    /// Merges every endpoint's tag bytes ([`Self::collect_tags`]) into the
    /// flag of every block, indexed by gid. The merge is order-free: each
    /// block was tagged by exactly one endpoint, so the regrid decision never
    /// depends on gather order, and the tree surgery and the derefinement
    /// gate replay identically on every endpoint.
    ///
    /// # Panics
    ///
    /// Panics if a block was tagged nowhere or a byte is not a flag — both
    /// indicate rank divergence.
    fn merged_flags(&self, parts: &[Vec<u8>]) -> Vec<AmrFlag> {
        let nblocks = self.mesh.num_blocks();
        assert!(
            parts.iter().all(|p| p.len() == nblocks),
            "flag payload framing"
        );
        (0..nblocks)
            .map(|gid| {
                let tagged = parts.iter().map(|p| p[gid]).find(|&b| b != FLAG_ELSEWHERE);
                match tagged {
                    Some(0) => AmrFlag::Derefine,
                    Some(1) => AmrFlag::Same,
                    Some(2) => AmrFlag::Refine,
                    other => panic!("block {gid} carries flag byte {other:?}"),
                }
            })
            .collect()
    }

    /// Ships the old-generation blocks held here to every peer endpoint
    /// that builds a new block from them (`sources[g]` is new block `g`'s
    /// provenance), and fetches the ones peers hold that blocks hosted
    /// here are built from. All sends go out strictly before any blocking
    /// receive, in (old gid, destination) order; see the deadlock-freedom
    /// argument in DESIGN.md. With every block resident both sets are
    /// empty.
    fn migrate(&mut self, sources: &[RegridSource]) -> HashMap<usize, BlockData> {
        let hosted = self.hosting();
        let (mut outgoing, mut wanted) = (Vec::new(), Vec::new());
        for (gid, source) in sources.iter().enumerate() {
            let label = self.mesh.block(gid).rank();
            for &old_gid in old_gids(source) {
                let here = self.index[old_gid] != NOT_RESIDENT;
                if here && !hosted(label) {
                    outgoing.push((old_gid, label));
                } else if !here && hosted(label) {
                    wanted.push(old_gid);
                }
            }
        }
        outgoing.sort_unstable();
        outgoing.dedup();
        wanted.sort_unstable();
        wanted.dedup();
        let func = StepFunction::RedistributeAndRefineMeshBlocks;
        let key = |old_gid: usize| BoundaryKey::new(old_gid, old_gid, MIGRATE_TAG);
        for &(old_gid, dst) in &outgoing {
            let data = &self.slots[self.index[old_gid]].data;
            let meta = SendMeta {
                src: self.comm.rank(),
                dst,
                cells: data.shape().interior_count() as u64,
            };
            self.comm.send(
                key(old_gid),
                serialize_block(data),
                meta,
                func,
                &mut self.rec,
            );
        }
        if wanted.is_empty() {
            return HashMap::new();
        }
        // The fetch loop blocks until every remote source block lands —
        // the migration-stall wait state (probed, like collective
        // blocking, because it hides inside a task action the span layer
        // counts as busy).
        let stall_t0 = self.params.capture_spans.then(std::time::Instant::now);
        let mut payloads = Vec::with_capacity(wanted.len());
        while !wanted.is_empty() {
            wanted.retain(
                |&old_gid| match self.comm.try_receive(key(old_gid), &mut self.rec) {
                    Some(payload) => {
                        payloads.push((old_gid, payload));
                        false
                    }
                    None => true,
                },
            );
            if !wanted.is_empty() {
                std::thread::yield_now();
            }
        }
        if let Some(t0) = stall_t0 {
            self.wait_probes.migration_stall_ns += t0.elapsed().as_nanos() as u64;
        }
        payloads
            .into_iter()
            .map(|(old_gid, payload)| {
                let mut data = self.fresh_data();
                deserialize_into(&mut data, &payload);
                (old_gid, data)
            })
            .collect()
    }

    /// Brings the resident slots to the mesh's current generation and
    /// rank labels: `sources[g]` says which blocks of the previous
    /// generation new block `g` is built from (all `Unchanged` for a plain
    /// load balance). After the wire exchange ([`Self::migrate`]) the new
    /// resident list is built in two passes: a serial one that reuses,
    /// adopts or allocates each slot, and a pool-parallel one that fills
    /// the newcomers of a `structural` regrid by prolongation/restriction.
    fn move_blocks(&mut self, sources: &[RegridSource], structural: bool) {
        let hosted = self.hosting();
        let old_bytes = self.total_field_bytes();
        let mut fetched = self.migrate(sources);
        let old_index = std::mem::take(&mut self.index);
        let mut old: Vec<Option<BlockSlot>> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(Some)
            .collect();
        let mut created = 0u64;
        let mut moved_cells = 0u64;
        // Pass 1 (serial): the new resident list — reusing the slots of
        // unchanged blocks held here, adopting fetched ones, allocating
        // fresh ones for refined/derefined blocks.
        let mut new_slots = Vec::new();
        for (gid, source) in sources.iter().enumerate() {
            if !hosted(self.mesh.block(gid).rank()) {
                continue;
            }
            let slot = match source {
                RegridSource::Unchanged { old_gid } => {
                    let info = BlockInfo::from_mesh(&self.mesh, gid);
                    match old.get_mut(old_index[*old_gid]).and_then(Option::take) {
                        Some(slot) => BlockSlot { info, ..slot },
                        None => {
                            let data = fetched.remove(old_gid).expect("migrated block fetched");
                            BlockSlot::new(info, data)
                        }
                    }
                }
                RegridSource::Refined { .. } | RegridSource::Derefined { .. } => {
                    created += 1;
                    let slot = self.new_slot(gid);
                    moved_cells += slot.data.shape().interior_count() as u64;
                    slot
                }
            };
            new_slots.push(slot);
        }
        // Pass 2 (parallel): fill new blocks by prolongation/restriction.
        // Refined parents and derefined children are never `Unchanged`, so
        // what pass 1 left of them is read-shared here.
        let source_data = |old_gid: usize| -> &BlockData {
            match old.get(old_index[old_gid]) {
                Some(slot) => &slot.as_ref().expect("source block kept").data,
                None => &fetched[&old_gid],
            }
        };
        self.exec()
            .for_each_block(&mut new_slots, |_, slot| match &sources[slot.info.gid] {
                RegridSource::Unchanged { .. } => {}
                RegridSource::Refined {
                    parent_old_gid,
                    child_index,
                } => {
                    let parent = source_data(*parent_old_gid);
                    prolongate_to_child(parent, *child_index, &mut slot.data);
                }
                RegridSource::Derefined { child_old_gids } => {
                    let children: Vec<&BlockData> =
                        child_old_gids.iter().map(|&g| source_data(g)).collect();
                    restrict_to_parent(&children, &mut slot.data);
                }
            });
        self.slots = new_slots;
        self.index = resident_index(&self.slots, self.mesh.num_blocks());
        let new_bytes = self.total_field_bytes();
        self.rec
            .record_alloc(MemSpace::Kokkos, new_bytes as i64 - old_bytes as i64);
        if !structural {
            return;
        }
        let func = StepFunction::RedistributeAndRefineMeshBlocks;
        self.rec
            .record_serial(func, SerialWork::Allocations(created));
        // Data movement for new blocks plus neighbor/boundary rebuild
        // (BuildTagMapAndBoundaryBuffers + SetMeshBlockNeighbors) are part
        // of RedistributeAndRefineMeshBlocks.
        if created > 0 {
            let per_block = self.slots.first().map_or(0, |s| s.nbytes() as u64);
            self.rec
                .record_serial(func, SerialWork::HostCopyBytes(created * per_block));
        }
        let boundaries = self.mesh.num_boundaries() as u64;
        self.rec
            .record_serial(func, SerialWork::BoundaryLoop(boundaries));
        if moved_cells > 0 {
            catalog::PROLONG_RESTRICT_LOOP.record(&mut self.rec, moved_cells, 1.0);
        }
        self.cache.invalidate();
        // New gids and neighbor lists: the communication plan (and its
        // cached variable-id lookups) must be rebuilt.
        self.plan = None;
    }

    /// Restores the simulation clock from a checkpoint (used by
    /// `snapshot::restore_driver`).
    pub(crate) fn restore_clock(&mut self, time: f64, dt: f64, cycle: u64) {
        self.time = time;
        self.dt = dt;
        self.cycle = cycle;
    }

    /// Restores checkpointed AMR continuation state: the derefinement gate
    /// (absolute-cycle keyed, so it must survive a checkpoint for resumed
    /// runs to make identical regrid decisions) and the history series
    /// accumulated before the checkpoint.
    pub(crate) fn restore_amr_state(&mut self, gate: DerefGate, history: Vec<(u64, Vec<f64>)>) {
        self.gate = gate;
        self.history = history;
    }

    /// The derefinement gate state (for checkpointing).
    pub(crate) fn gate(&self) -> &DerefGate {
        &self.gate
    }

    /// Estimates the next timestep: the minimum over each resident pack's
    /// per-block estimates, then over the packs, then an AllReduce
    /// implemented as gather-then-fold — every endpoint
    /// receives all deposits indexed by rank and folds them `0..n` as
    /// `f64::min` from an infinity identity (an endpoint without blocks
    /// deposits infinity). The result is independent of arrival order and
    /// of how the ranks are spread over endpoints.
    fn estimate_dt(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::EstimateTimeStep));
        let cfl = self.params.cfl;
        let mut min_dt = f64::INFINITY;
        self.map_rank_packs(
            StepFunction::EstimateTimeStep,
            &catalog::ESTIMATE_TIMESTEP_MESH,
            |pkg, info, data| pkg.estimate_dt(info, data),
            |_, dts| min_dt = min_dt.min(dts.into_iter().fold(f64::INFINITY, f64::min)),
        );
        let parts = self.comm.all_reduce_data(
            StepFunction::EstimateTimeStep,
            min_dt.to_le_bytes().to_vec(),
            8,
            &mut self.rec,
        );
        let global = parts.iter().fold(f64::INFINITY, |acc, part| {
            acc.min(f64::from_le_bytes(
                part.as_slice().try_into().expect("8-byte dt deposit"),
            ))
        });
        self.dt = cfl * global;
    }

    /// Runs the per-block package hook `f` over every rank label's pack of
    /// resident blocks ([`Self::with_rank_packs`]): records one launch of
    /// `kernel` over the pack's interior cells, maps `f` over the pack on
    /// the host pool and hands `fold` the pack with its results in pack
    /// order, whatever the thread count.
    fn map_rank_packs<R: Send>(
        &mut self,
        func: StepFunction,
        kernel: &KernelDescriptor,
        f: impl Fn(&P, &BlockInfo, &mut BlockData) -> R + Sync,
        mut fold: impl FnMut(&[&mut BlockSlot], Vec<R>),
    ) {
        let exec = self.exec();
        self.with_rank_packs(func, |pkg, pack, rec| {
            let cells = pack.len() * pack[0].data.shape().interior_count();
            kernel.record(rec, cells as u64, 1.0);
            let out = exec.map_blocks(pack, |_, slot| f(pkg, &slot.info, &mut slot.data));
            fold(pack, out);
        });
    }

    /// Runs `f` once per rank label over that label's contiguous pack of
    /// resident blocks — `nranks` packs when this driver plays every rank,
    /// one (or none) on a fabric — then drains string-lookup counters into
    /// `func`'s serial profile.
    fn with_rank_packs(
        &mut self,
        func: StepFunction,
        mut f: impl FnMut(&P, &mut Vec<&mut BlockSlot>, &mut Recorder),
    ) {
        let package: &P = &self.package;
        let rec = &mut self.rec;
        for_each_rank_pack(&mut self.slots, |pack| {
            f(package, pack, rec);
            for slot in pack.iter_mut() {
                let lookups = slot.data.take_string_lookups();
                if lookups > 0 {
                    rec.record_serial(func, SerialWork::StringLookups(lookups));
                }
            }
        });
    }
}

/// Runs `f` over each run of equal rank label in `slots` (ascending gid,
/// so a rank's blocks are contiguous).
fn for_each_rank_pack(slots: &mut [BlockSlot], mut f: impl FnMut(&mut Vec<&mut BlockSlot>)) {
    let mut rest = slots;
    while let Some(first) = rest.first() {
        let rank = first.info.rank;
        let len = rest.iter().take_while(|s| s.info.rank == rank).count();
        let (head, tail) = rest.split_at_mut(len);
        f(&mut head.iter_mut().collect());
        rest = tail;
    }
}

/// The blocks of the previous generation a post-regrid block's data comes
/// from.
fn old_gids(source: &RegridSource) -> &[usize] {
    match source {
        RegridSource::Unchanged { old_gid } => std::slice::from_ref(old_gid),
        RegridSource::Refined { parent_old_gid, .. } => std::slice::from_ref(parent_old_gid),
        RegridSource::Derefined { child_old_gids } => child_old_gids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_package::Advect;
    use vibe_mesh::MeshParams;

    fn mesh() -> Mesh {
        Mesh::new(
            MeshParams::builder()
                .dim(2)
                .mesh_cells(32)
                .block_cells(8)
                .max_levels(2)
                .nghost(2)
                .deref_gap(4)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn gaussian_ic(info: &BlockInfo, data: &mut BlockData) {
        let shape = *data.shape();
        let qid = data.id_of("q").unwrap();
        let geom = info.geom;
        let var = data.var_mut(qid);
        for k in 0..shape.entire_d(2) {
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let c = geom.cell_center(
                        i as i64 - shape.nghost_d(0) as i64,
                        j as i64 - shape.nghost_d(1) as i64,
                        0,
                    );
                    let r2 = (c[0] - 0.5).powi(2) + (c[1] - 0.5).powi(2);
                    var.data_mut().set(0, k, j, i, (-r2 / 0.002).exp());
                }
            }
        }
    }

    fn driver(nranks: usize) -> Driver<Advect> {
        driver_with(DriverParams {
            nranks,
            cfl: 0.3,
            ..DriverParams::default()
        })
    }

    fn driver_with(params: DriverParams) -> Driver<Advect> {
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let mut d = Driver::new(mesh(), pkg, params);
        d.initialize(gaussian_ic);
        d
    }

    #[test]
    fn initialization_adapts_mesh_to_feature() {
        let d = driver(1);
        // The sharp Gaussian must trigger refinement near the center.
        assert!(
            d.mesh().num_blocks() > 16,
            "refined blocks expected, got {}",
            d.mesh().num_blocks()
        );
        assert!(d.dt() > 0.0);
    }

    #[test]
    fn steps_advance_time_and_record_cycles() {
        let mut d = driver(2);
        let summaries = d.run_cycles(3);
        assert_eq!(summaries.len(), 3);
        assert!(d.time() > 0.0);
        assert_eq!(d.recorder().cycles().len(), 3);
        let t = d.recorder().totals();
        assert!(t.cell_updates > 0);
        assert!(t.cells_communicated() > 0);
        // Core kernels all present.
        let names: Vec<&str> = t.kernels.keys().map(|(_, n)| *n).collect();
        for want in [
            "CalculateFluxes",
            "WeightedSumData",
            "FluxDivergence",
            "SendBoundBufs",
            "SetBounds",
            "FirstDerivative",
            "Est.Time.Mesh",
        ] {
            assert!(names.contains(&want), "missing kernel {want}");
        }
    }

    #[test]
    fn mass_is_conserved_across_steps() {
        let mut d = driver(1);
        d.run_cycles(4);
        let hist = d.history();
        assert!(hist.len() >= 4);
        let first = hist.first().unwrap().1[0];
        let last = hist.last().unwrap().1[0];
        assert!(
            ((first - last) / first).abs() < 1e-8,
            "mass drifted: {first} -> {last}"
        );
    }

    #[test]
    fn advection_moves_the_peak() {
        let mut d = driver(1);
        let find_peak = |d: &Driver<Advect>| {
            let mut best = (0.0f64, [0.0f64; 3]);
            for slot in d.slots() {
                let shape = *slot.data.shape();
                let var = &slot.data.vars()[0];
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        let v = var.data().get(0, 0, j, i);
                        if v > best.0 {
                            let c = slot.info.geom.cell_center(
                                i as i64 - shape.nghost_d(0) as i64,
                                j as i64 - shape.nghost_d(1) as i64,
                                0,
                            );
                            best = (v, c);
                        }
                    }
                }
            }
            best
        };
        let before = find_peak(&d);
        for _ in 0..6 {
            d.step();
        }
        let after = find_peak(&d);
        assert!(
            after.1[0] > before.1[0] + 1e-3,
            "peak moved +x: {:?} -> {:?} (t={})",
            before.1,
            after.1,
            d.time()
        );
    }

    #[test]
    fn rank_decomposition_generates_remote_traffic() {
        let mut d = driver(4);
        d.run_cycles(2);
        let t = d.recorder().totals();
        let send = &t.comm[&StepFunction::SendBoundBufs];
        assert!(send.p2p_remote_messages > 0);
        assert!(send.p2p_local_messages > 0);
    }

    #[test]
    fn more_ranks_more_remote_fewer_local() {
        let mut d1 = driver(1);
        d1.run_cycles(2);
        let mut d8 = driver(8);
        d8.run_cycles(2);
        let c1 = &d1.recorder().totals().comm[&StepFunction::SendBoundBufs];
        let c8 = &d8.recorder().totals().comm[&StepFunction::SendBoundBufs];
        assert_eq!(c1.p2p_remote_messages, 0, "single rank is all-local");
        assert!(c8.p2p_remote_messages > 0);
    }

    #[test]
    fn kokkos_memory_tracked() {
        let d = driver(1);
        let bytes = d.recorder().mem_current(MemSpace::Kokkos);
        assert!(bytes > 0);
        assert_eq!(bytes as usize, d.total_field_bytes());
    }

    #[test]
    fn profiling_records_stage_regions_and_cycle_timing() {
        let params = DriverParams {
            nranks: 2,
            cfl: 0.3,
            host_threads: 2,
            prof_level: ProfLevel::Full,
            ..DriverParams::default()
        };
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let mut d = Driver::new(mesh(), pkg, params);
        d.initialize(gaussian_ic);
        let summaries = d.run_cycles(2);
        let t = summaries[0].timing;
        assert!(t.compute_task_ns > 0, "compute task time measured");
        // The interior flux node visits the blocks whose every boundary is
        // direct while ghost traffic is outstanding; the rest of the
        // cycle's compute runs with nothing in flight.
        assert!(t.overlapped_compute_ns > 0 && t.overlapped_compute_ns < t.compute_task_ns);
        // Per-cycle archives line up with the summaries and hold the
        // stage breakdown and the pool's utilization.
        d.recorder()
            .wall()
            .with_cycles(|cycles| {
                assert_eq!(cycles.len(), 2);
                let first = &cycles[0];
                let by_key = first.tree.by_key();
                let ns = |key: RegionKey| by_key.get(&key).map_or(0, |s| s.total_ns);
                let step = |f: StepFunction| ns(RegionKey::Step(f));
                let wall_ns = ns(RegionKey::Named("Cycle"));
                assert!(wall_ns > 0, "cycle wall time measured");
                let flux_ns = step(StepFunction::CalculateFluxes);
                assert!(flux_ns > 0 && flux_ns < wall_ns);
                let comm_ns = ns(RegionKey::Named("GhostExchange")) + step(StepFunction::SetBounds);
                assert!(comm_ns > 0 && comm_ns < wall_ns);
                assert!(ns(RegionKey::Named("RK2Update")) > 0);
                assert!(step(StepFunction::EstimateTimeStep) > 0);
                assert!(first.pool.busy_ns > 0 && first.pool.thread_time_ns >= first.pool.busy_ns);
                assert!(first.pool.load_imbalance() >= 1.0);
            })
            .unwrap();
        d.recorder()
            .wall()
            .with_totals(|tree| {
                let paths: Vec<String> = tree.flatten().iter().map(|f| f.path.clone()).collect();
                for want in [
                    "Initialize",
                    "Cycle",
                    "Cycle/GhostExchange",
                    "Cycle/GhostExchange/SendBoundBufs",
                    "Cycle/SetBounds",
                    "Cycle/CalculateFluxes",
                    "Cycle/SaveStage0",
                    "Initialize/GhostExchange/SetBounds",
                    "Cycle/FluxCorrection",
                    "Cycle/RK2Update/FluxDivergence",
                    "Cycle/Refinement::Tag",
                    "Cycle/EstimateTimeStep",
                ] {
                    assert!(
                        paths.iter().any(|p| p == want),
                        "missing region {want}, have {paths:?}"
                    );
                }
            })
            .unwrap();
        // Trace events were buffered for export.
        let (events, dropped) = d.recorder().wall().trace_events();
        assert!(!events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn profiling_off_leaves_timing_zeroed() {
        let mut d = driver(1);
        let s = d.step();
        assert_eq!(s.timing, CycleTiming::default());
        assert!(!d.recorder().wall().enabled());
    }

    #[test]
    fn cycle_node_table_is_the_graph() {
        let graph = cycle_task_graph();
        assert_eq!(graph.len(), 22);
        let names: std::collections::HashSet<&str> = graph.iter().map(|n| n.name).collect();
        assert_eq!(names.len(), graph.len(), "node names are unique");
        // (That every dependency points backwards is a const assertion.)
        let deps_of = |name: &str| -> Vec<&str> {
            let n = graph.iter().find(|n| n.name == name).expect(name);
            n.deps.iter().map(|&d| graph[d].name).collect()
        };
        for stage in ["Stage0", "Stage1"] {
            assert_eq!(
                deps_of(&format!("{stage}::ExteriorFlux")),
                [
                    format!("{stage}::InteriorFlux"),
                    format!("{stage}::WaitUnpack")
                ]
            );
        }
        assert_eq!(deps_of("Regrid"), ["TreeUpdate", "MassHistory"]);
    }

    #[test]
    fn string_vs_cached_lookup_strategies() {
        let params_str = DriverParams {
            nranks: 1,
            pack_strategy: PackStrategy::StringKeyed,
            ..DriverParams::default()
        };
        let params_int = DriverParams {
            nranks: 1,
            pack_strategy: PackStrategy::IntegerCached,
            ..DriverParams::default()
        };
        let mut ds = Driver::new(mesh(), Advect::default(), params_str);
        ds.initialize(gaussian_ic);
        ds.run_cycles(2);
        let mut di = Driver::new(mesh(), Advect::default(), params_int);
        di.initialize(gaussian_ic);
        di.run_cycles(2);
        let lookups = |d: &Driver<Advect>| -> u64 {
            d.recorder()
                .totals()
                .serial
                .values()
                .map(|s| s.string_lookups)
                .sum()
        };
        assert!(
            lookups(&ds) > lookups(&di),
            "string-keyed strategy performs more lookups: {} vs {}",
            lookups(&ds),
            lookups(&di)
        );
    }

    /// Satellite regression: the communicator's event log is drained into
    /// the driver's archive every cycle, so the *resident* count never
    /// grows with run length — it is bounded by one cycle's traffic (zero
    /// between steps) no matter how many cycles run.
    #[test]
    fn resident_comm_events_stay_bounded_per_cycle() {
        let mut d = driver_with(DriverParams {
            nranks: 2,
            cfl: 0.3,
            capture_comm_events: true,
            ..DriverParams::default()
        });
        assert_eq!(
            d.resident_comm_events(),
            0,
            "initialization traffic must already be drained"
        );
        let mut archived_last = d.comm_events().len();
        assert!(archived_last > 0, "initialization is archived");
        for _ in 0..6 {
            d.step();
            assert_eq!(
                d.resident_comm_events(),
                0,
                "every step must drain the communicator"
            );
            let archived = d.comm_events().len();
            assert!(archived > archived_last, "the archive is the consumer");
            archived_last = archived;
        }

        // Mid-cycle — after an exchange, before the end-of-cycle drain —
        // the log holds what it always held: two events per boundary
        // (send, complete), whichever route the boundary took.
        d.exchange();
        let boundaries: usize = (0..d.mesh.num_blocks())
            .map(|gid| d.mesh.neighbors(gid).len())
            .sum();
        assert_eq!(d.resident_comm_events(), 2 * boundaries);

        // With capture off, nothing accumulates anywhere: logging is gated
        // at the source, so the log is empty mid-cycle too, not merely
        // dropped at the drain.
        let params = DriverParams {
            nranks: 2,
            capture_comm_events: false,
            ..DriverParams::default()
        };
        let mut d = Driver::new(mesh(), Advect::default(), params);
        d.initialize(gaussian_ic);
        d.run_cycles(3);
        assert_eq!(d.resident_comm_events(), 0);
        assert!(d.comm_events().is_empty());
        d.exchange();
        assert_eq!(d.resident_comm_events(), 0, "nothing is logged at all");
    }

    /// A driver built from `DriverParams::default()` archives no message
    /// events however long it runs, and the archive never touches the
    /// answer.
    #[test]
    fn default_params_archive_no_comm_events() {
        let mut quiet = driver(2);
        let mut capturing = driver_with(DriverParams {
            nranks: 2,
            cfl: 0.3,
            capture_comm_events: true,
            ..DriverParams::default()
        });
        quiet.run_cycles(3);
        capturing.run_cycles(3);
        assert!(quiet.comm_events().is_empty());
        assert!(!capturing.comm_events().is_empty());
        assert_eq!(
            crate::block::fingerprint_slots(quiet.slots()),
            crate::block::fingerprint_slots(capturing.slots())
        );
    }

    /// Instrumentation is observational: with span capture and full
    /// profiling on, the solution fingerprint and timestep sequence are
    /// bitwise those of a plain run, every cycle ends with the same rank
    /// label on every block, and the recorder counts the same messages
    /// and bytes.
    #[test]
    fn instrumentation_changes_neither_numerics_nor_ownership() {
        // Long enough that a wall-time block cost would move some
        // partition boundary in one of the cycles.
        const CYCLES: usize = 32;
        let mut plain = driver(4);
        let mut instrumented = driver_with(DriverParams {
            nranks: 4,
            cfl: 0.3,
            capture_spans: true,
            prof_level: ProfLevel::Full,
            ..DriverParams::default()
        });
        let labels = |d: &Driver<Advect>| -> Vec<(usize, usize)> {
            d.slots()
                .iter()
                .map(|s| (s.info.gid, s.info.rank))
                .collect()
        };
        for cycle in 0..CYCLES {
            let a = plain.step();
            let b = instrumented.step();
            assert_eq!(a.dt.to_bits(), b.dt.to_bits());
            assert_eq!(a.nblocks, b.nblocks);
            assert_eq!(
                labels(&plain),
                labels(&instrumented),
                "ownership diverged in cycle {cycle}"
            );
        }
        assert_eq!(
            crate::block::fingerprint_slots(plain.slots()),
            crate::block::fingerprint_slots(instrumented.slots()),
            "attribution instrumentation must not touch the numerics"
        );
        let comm = |d: &Driver<Advect>| d.recorder().totals().comm.clone();
        assert_eq!(comm(&plain), comm(&instrumented), "recorded traffic moved");
        let remote: u64 = comm(&plain).values().map(|c| c.p2p_remote_bytes).sum();
        assert!(remote > 0, "four ranks exchange remote messages");
        assert!(plain.task_spans().is_empty());

        // 22 labeled tasks per cycle, every span cycle-stamped on rank 0.
        let spans = instrumented.task_spans();
        assert_eq!(spans.len(), CYCLES * 22);
        assert!(spans.iter().all(|s| s.rank == 0));
        assert_eq!(spans.iter().filter(|s| s.cycle == 3).count(), 22);
    }

    /// The transport-swap constructor on a lone endpoint of its own
    /// must reproduce the driver it was made from bitwise, cycle for
    /// cycle, and hand every block back.
    #[test]
    fn single_shard_matches_driver_bitwise() {
        let mut driver = driver(1);
        let lone = vibe_comm::channel_fabric(1).remove(0);
        let mut shard = self::driver(1).with_transport(Box::new(lone));
        for _ in 0..4 {
            let ds = driver.step();
            let ss = shard.step();
            assert_eq!(ds.nblocks, ss.nblocks);
            assert_eq!(ds.refined, ss.refined);
            assert_eq!(ds.dt.to_bits(), ss.dt.to_bits());
        }
        let out = shard.finish();
        assert_eq!(
            crate::block::fingerprint_slots(driver.slots()),
            crate::block::fingerprint_slots(&out.owned),
            "single-shard fingerprint must equal the driver's"
        );
        assert_eq!(driver.history(), out.history.as_slice());
        assert_eq!(driver.dt().to_bits(), out.dt.to_bits());
    }

    /// One endpoint playing every rank that refuses to carry a message.
    #[derive(Debug, Default)]
    struct NoMessages {
        seq: u64,
    }

    impl Transport for NoMessages {
        fn rank(&self) -> usize {
            0
        }
        fn nranks(&self) -> usize {
            1
        }
        fn next_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }
        fn post(&mut self, msg: vibe_comm::WireMessage) {
            panic!("{:?} posted on the only endpoint", msg.key);
        }
        fn drain(&mut self) -> Vec<vibe_comm::WireMessage> {
            Vec::new()
        }
        fn all_gather_bytes(&mut self, _label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>> {
            vec![payload]
        }
    }

    /// Virtual ranks are labels: a driver playing four of them on one
    /// endpoint fills every boundary directly — it posts no message and no
    /// wait ever polls twice — while recording the remote traffic the
    /// labels stand for.
    #[test]
    fn virtual_ranks_move_boundaries_without_messages() {
        let mut d = driver_with(DriverParams {
            nranks: 4,
            cfl: 0.3,
            capture_spans: true,
            ..DriverParams::default()
        })
        .with_transport(Box::new(NoMessages::default()));
        // Until a cycle has regridded.
        loop {
            let s = d.step();
            if s.refined + s.derefined > 0 {
                break;
            }
            assert!(d.cycle() < 100, "the feature never regridded");
        }
        d.run_cycles(3);
        let t = d.recorder().totals();
        for func in [StepFunction::SendBoundBufs, StepFunction::FluxCorrection] {
            assert!(t.comm[&func].p2p_remote_messages > 0, "{func:?}");
        }
        let cycles = d.cycle() as usize;
        assert_eq!(d.task_spans().len(), cycles * CYCLE_NODES.len());
        assert!(d.task_spans().iter().all(|s| s.polls == 0));
    }

    /// A wait that stays incomplete on the only endpoint of a transport is
    /// a single-process deadlock: it panics, naming its node, instead of
    /// spinning.
    #[test]
    #[should_panic(expected = "Stage0::WaitUnpack waits for a message on the only endpoint")]
    fn an_incomplete_wait_on_one_endpoint_names_its_node() {
        driver(4).yield_to_peers("Stage0::WaitUnpack");
    }

    /// Where a block's cell data lives: moving a slot keeps it, copying
    /// one does not.
    fn data_address(slot: &BlockSlot) -> *const f64 {
        slot.data.vars()[0].data().as_slice().as_ptr()
    }

    /// The cut moves every block into the part of its rank label: the
    /// parts' gid sets tile the mesh, their bytes sum to the whole's, every
    /// cell array stays where it was, and every part carries the whole's
    /// clock, derefinement gate and history.
    #[test]
    fn into_ranks_moves_each_block_to_the_part_of_its_rank() {
        let mut whole = driver(4);
        // Until the gate holds a refinement, so there is one to carry over.
        while whole.gate().entries().is_empty() {
            assert!(whole.cycle() < 100, "the feature never refined");
            whole.step();
        }
        let gids: Vec<usize> = whole.slots().iter().map(|s| s.info.gid).collect();
        let addresses: Vec<_> = whole.slots().iter().map(data_address).collect();
        let bytes = whole.resident_field_bytes();
        let clock = (whole.time().to_bits(), whole.dt().to_bits(), whole.cycle());
        let gate = whole.gate().entries();
        let history = whole.history().to_vec();
        let parts = whole.into_ranks();
        assert_eq!(parts.len(), 4);
        let mut held = Vec::new();
        for (rank, part) in parts.iter().enumerate() {
            assert!(!part.slots().is_empty());
            assert!(part.slots().iter().all(|s| s.info.rank == rank));
            held.extend(part.slots().iter().map(|s| (s.info.gid, data_address(s))));
            assert_eq!(part.mesh().num_blocks(), gids.len());
            assert_eq!(
                (part.time().to_bits(), part.dt().to_bits(), part.cycle()),
                clock
            );
            assert_eq!(part.gate().entries(), gate);
            assert_eq!(part.history(), history);
        }
        held.sort_unstable();
        assert_eq!(held.iter().map(|h| h.0).collect::<Vec<_>>(), gids);
        assert_eq!(held.iter().map(|h| h.1).collect::<Vec<_>>(), addresses);
        let part_bytes: usize = parts.iter().map(Driver::resident_field_bytes).sum();
        assert_eq!(part_bytes, bytes);
    }

    /// One rank label: the cut hands the driver back whole.
    #[test]
    fn into_ranks_of_one_rank_is_the_driver() {
        let whole = driver(1);
        let addresses: Vec<_> = whole.slots().iter().map(data_address).collect();
        let mut parts = whole.into_ranks();
        assert_eq!(parts.len(), 1);
        let part = parts.pop().unwrap();
        assert_eq!(
            part.slots().iter().map(data_address).collect::<Vec<_>>(),
            addresses
        );
    }

    /// A part of a cut holds one label's blocks: it cannot pose as the
    /// whole driver on a transport of its own.
    #[test]
    #[should_panic(expected = "exactly the blocks it hosts")]
    fn a_part_cannot_pose_as_the_whole() {
        let part = driver(2).into_ranks().swap_remove(0);
        let _ = part.with_transport(Box::new(vibe_comm::channel_fabric(1).remove(0)));
    }

    /// Two replicas of the same problem produce bitwise-identical init
    /// state — the property every replay of a problem (a resumed
    /// checkpoint, a recovery, a package golden) depends on.
    #[test]
    fn replica_initialization_is_bitwise_reproducible() {
        let (a, b) = (driver(4), driver(4));
        assert_eq!(
            crate::block::fingerprint_slots(a.slots()),
            crate::block::fingerprint_slots(b.slots())
        );
        assert_eq!(a.dt().to_bits(), b.dt().to_bits());
        assert_eq!(a.mesh().num_blocks(), b.mesh().num_blocks());
    }
}
