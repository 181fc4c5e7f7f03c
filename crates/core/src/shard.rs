//! Rank-parallel execution: one [`RankShard`] per virtual rank, each
//! running the [`cycle_task_graph`](crate::driver::cycle_task_graph) over
//! *its own blocks only*, connected to its peers by a
//! [`Transport`](vibe_comm::Transport) (the cross-thread channel fabric in
//! `vibe-rt`, or the degenerate single-rank shared path in tests).
//!
//! # Shard lifecycle
//!
//! A shard is born from a **full-replica initialization**: every rank
//! constructs the same [`Driver`], applies the same initial condition, and
//! lets the deterministic init sequence adapt the mesh — producing a
//! bitwise-identical mesh, block list, and timestep on every rank without
//! any startup communication (exactly how a distributed AMR code replays a
//! deterministic problem generator instead of scattering from rank 0).
//! [`RankShard::from_replica`] then keeps only the slots whose mesh rank
//! matches the transport rank and drops the rest; the mesh itself (the
//! block *tree*) stays replicated, as in Parthenon.
//!
//! Each cycle runs the same 22-node task graph as the driver. Point-to-point
//! ghost and flux-correction messages cross the transport only when sender
//! and receiver live on different shards; the AMR tail reconciles
//! refinement flags with a real AllGather, migrates block data for the new
//! ownership map, and closes with the timestep AllReduce.
//!
//! # Determinism
//!
//! The headline invariant — the global solution fingerprint is bitwise
//! identical to the single-shard driver for any `(nranks, host_threads)` —
//! follows from three properties:
//!
//! 1. **The executor's ready sweep is deterministic.** Tasks complete in
//!    insertion order once their dependencies resolve, so every rank issues
//!    its collectives in the same program order; the
//!    [`CollectiveHub`](vibe_comm::CollectiveHub) panics if ranks ever
//!    rendezvous under different labels.
//! 2. **Reductions fold in rank index order.** AllReduce is implemented as
//!    gather-then-fold: every rank receives all deposits indexed by rank
//!    and folds them 0..nranks with a fixed identity, so the result is
//!    independent of arrival order — and identical to the driver's fold
//!    over its rank packs, which visit ranks in ascending order.
//! 3. **The flag merge is order-free.** Refinement flags reconcile into a
//!    `BTreeMap` keyed by logical location, so the regrid decision never
//!    depends on gather order; the tree surgery and the derefinement gate
//!    replay identically on every rank.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vibe_comm::{BoundaryKey, BufferCache, Communicator, SendMeta, Transport};
use vibe_exec::{catalog, ExecCtx, Launcher};
use vibe_field::{BlockData, VarId};
use vibe_mesh::{enforce_proper_nesting, AmrFlag, DerefGate, LogicalLocation, Mesh, RegridSource};
use vibe_prof::{MemSpace, Recorder, RegionKey, SerialWork, StepFunction};

use crate::amr::{prolongate_to_child, restrict_to_parent};
use crate::block::{BlockInfo, BlockSlot};
use crate::boundary::{
    apply_physical_bcs, flux_corr_apply, flux_corr_send, ghost_pack_and_send, ghost_wait_unpack,
    ExchangePlan, FluxCorrState, GhostExchangeState, ShardBlocks,
};
use crate::driver::{
    build_cycle_list, cycle_task_graph, last_cycle_timing_from, map_block_costs, CycleSummary,
    CycleTasks, Driver, DriverParams,
};
use crate::package::{FluxPhase, Package};
use crate::snapshot::Snapshot;
use crate::tasks::TaskStatus;
use crate::update::{flux_divergence_update_costed, flux_divergence_update_with_ids};

/// Message-tag namespace for block-migration payloads (ghost boundaries
/// use the neighbor index, flux corrections 1000+; migration keys are
/// `BoundaryKey::new(old_gid, old_gid, MIGRATE_TAG)`).
const MIGRATE_TAG: u32 = 5000;

/// Everything a finished shard hands back to the conductor.
#[derive(Debug)]
pub struct ShardOutput {
    /// This shard's rank.
    pub rank: usize,
    /// Owned blocks as (gid, slot), ascending gid.
    pub owned: Vec<(usize, BlockSlot)>,
    /// The shard's workload recorder.
    pub recorder: Recorder,
    /// The shard's archived communication events (rank-stamped, globally
    /// sequenced on the shared transport counter).
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

/// One virtual rank executing as a real concurrent shard: the replicated
/// mesh tree, *only its own* block slots, and a transport-backed
/// communicator. See the module docs for the lifecycle and determinism
/// argument.
pub struct RankShard<P: Package> {
    rank: usize,
    nranks: usize,
    mesh: Mesh,
    /// Slot per gid; `Some` only for blocks this shard owns.
    owned: Vec<Option<BlockSlot>>,
    package: P,
    params: DriverParams,
    comm: Communicator,
    cache: BufferCache,
    rec: Recorder,
    gate: DerefGate,
    time: f64,
    dt: f64,
    cycle: u64,
    history: Vec<(u64, Vec<f64>)>,
    plan: Option<ExchangePlan>,
    ghost_state: GhostExchangeState,
    fcorr_state: FluxCorrState,
    step_dt: f64,
    step_flags: BTreeMap<LogicalLocation, AmrFlag>,
    step_decision: Option<vibe_mesh::refinement::RegridDecision>,
    step_counts: (usize, usize),
    comm_log: Vec<vibe_comm::CommEvent>,
    span_log: Vec<vibe_prof::TaskSpan>,
    wait_probes: vibe_prof::WaitProbes,
    /// This cycle's measured per-gid cost ledger (ns); only owned gids are
    /// non-zero — the Regrid task all-gathers the full map.
    block_cost_ns: Vec<u64>,
}

impl<P: Package> std::fmt::Debug for RankShard<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankShard")
            .field("rank", &self.rank)
            .field("nranks", &self.nranks)
            .field("cycle", &self.cycle)
            .field("owned", &self.num_owned())
            .finish_non_exhaustive()
    }
}

impl<P: Package> RankShard<P> {
    /// Builds a shard from a fully initialized replica driver, keeping only
    /// the slots whose mesh rank matches `transport.rank()` — the
    /// full-replica initialization described in the module docs. The
    /// replica's recorder and event log are discarded (initialization is
    /// not attributed to any cycle); the shard starts with a fresh recorder
    /// at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the driver was built with a different `nranks` than the
    /// transport, or if it was never initialized.
    pub fn from_replica(replica: Driver<P>, transport: Box<dyn Transport>) -> Self {
        let rank = transport.rank();
        let nranks = transport.nranks();
        let parts = replica.into_parts();
        let (mesh, slots, package, params) = (parts.mesh, parts.slots, parts.package, parts.params);
        assert_eq!(
            params.nranks, nranks,
            "replica rank count must match the transport"
        );
        assert!(
            parts.dt > 0.0,
            "replica must be initialized before sharding"
        );
        let mut comm = Communicator::with_transport(nranks, transport);
        comm.set_remote_delivery_delay(params.remote_delivery_polls);
        comm.set_event_capture(params.capture_comm_events);
        let mut rec = Recorder::with_prof_level(params.prof_level);
        let owned: Vec<Option<BlockSlot>> = slots
            .into_iter()
            .enumerate()
            .map(|(gid, slot)| (mesh.block(gid).rank() == rank).then_some(slot))
            .collect();
        let owned_bytes: usize = owned.iter().flatten().map(BlockSlot::nbytes).sum();
        rec.record_alloc(MemSpace::Kokkos, owned_bytes as i64);
        // Inherit the replica's clock and derefinement-gate state: for a
        // freshly initialized replica these are zero/empty, but a replica
        // restored from a checkpoint resumes mid-run and the gate keys
        // decisions on absolute cycle numbers.
        Self {
            rank,
            nranks,
            owned,
            package,
            comm,
            cache: BufferCache::new(),
            rec,
            gate: parts.gate,
            time: parts.time,
            dt: parts.dt,
            cycle: parts.cycle,
            history: parts.history,
            plan: None,
            ghost_state: GhostExchangeState::default(),
            fcorr_state: FluxCorrState::default(),
            step_dt: 0.0,
            step_flags: BTreeMap::new(),
            step_decision: None,
            step_counts: (0, 0),
            comm_log: Vec::new(),
            span_log: Vec::new(),
            wait_probes: vibe_prof::WaitProbes::default(),
            block_cost_ns: Vec::new(),
            mesh,
            params,
        }
    }

    /// This shard's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks on the transport.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The replicated mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Number of blocks this shard owns.
    pub fn num_owned(&self) -> usize {
        self.owned.iter().flatten().count()
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

    /// The shard's workload recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Events currently resident in the communicator (bounded by one
    /// cycle's traffic; [`Self::step`] drains them every cycle).
    pub fn resident_comm_events(&self) -> usize {
        self.comm.resident_events()
    }

    /// Blocks until every rank on the transport reaches this barrier (used
    /// by the conductor to bracket timed regions).
    pub fn barrier(&mut self, label: &'static str) {
        self.comm.barrier(label);
    }

    /// Collectively assembles a full-run checkpoint at a cycle boundary:
    /// every rank contributes its owned blocks' variable data over an
    /// AllGather, and every rank returns the identical complete
    /// [`Snapshot`] — the replicated mesh tree and clock, the
    /// derefinement-gate and history continuation state, and the gathered
    /// per-block cell data. No ghost traffic is in flight between cycles,
    /// so the boundary state is exactly the restartable state.
    ///
    /// Collective: every rank on the transport must call this at the same
    /// point of its cycle loop.
    ///
    /// # Panics
    ///
    /// Panics if a peer's payload is malformed or leaves a block
    /// uncovered (both indicate rank divergence, which the deterministic
    /// runtime rules out).
    pub fn checkpoint(&mut self) -> Snapshot {
        let payload = crate::snapshot::encode_rank_blocks(&self.owned);
        let parts = self
            .comm
            .all_gather_data(StepFunction::Other, payload, &mut self.rec);
        let nblocks = self.mesh.num_blocks();
        let mut block_vars: Vec<Vec<(String, usize, Vec<f64>)>> = vec![Vec::new(); nblocks];
        for part in &parts {
            for (gid, vars) in crate::snapshot::decode_rank_blocks(part)
                .expect("malformed peer checkpoint payload")
            {
                assert!(gid < nblocks, "peer checkpoint refers to unknown gid {gid}");
                block_vars[gid] = vars;
            }
        }
        assert!(
            block_vars.iter().all(|v| !v.is_empty()),
            "checkpoint gather left a block uncovered"
        );
        let mp = self.mesh.params();
        Snapshot {
            dim: mp.dim(),
            mesh_size: mp.mesh_size(),
            block_size: mp.block_size(),
            max_levels: mp.max_levels(),
            nghost: mp.nghost(),
            deref_gap: mp.deref_gap(),
            time: self.time,
            dt: self.dt,
            cycle: self.cycle,
            leaves: (0..nblocks).map(|g| self.mesh.block(g).loc()).collect(),
            block_vars,
            gate: self.gate.entries(),
            history: self.history.clone(),
        }
    }

    /// Finishes the shard, returning everything the conductor merges.
    pub fn finish(mut self) -> ShardOutput {
        self.drain_comm_events();
        ShardOutput {
            rank: self.rank,
            owned: self
                .owned
                .into_iter()
                .enumerate()
                .filter_map(|(gid, s)| s.map(|s| (gid, s)))
                .collect(),
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

    /// Advances `n` cycles, returning their summaries.
    pub fn run_cycles(&mut self, n: u64) -> Vec<CycleSummary> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Advances one cycle by executing the driver's
    /// [`cycle_task_graph`] over this shard's blocks. CommWait tasks yield
    /// the OS thread while peer messages are in flight, so concurrent
    /// shards interleave without burning cores.
    pub fn step(&mut self) -> CycleSummary {
        assert!(self.dt > 0.0, "shard built from an initialized replica");
        self.rec.begin_cycle(self.cycle);
        self.comm.begin_cycle(self.cycle);
        let wall = self.rec.wall().clone();
        if wall.enabled() {
            vibe_exec::stats_begin();
        }
        let cycle_guard = wall.region(RegionKey::Named("Cycle"));
        self.ensure_plan();
        if self.params.measured_costs {
            self.block_cost_ns.clear();
            self.block_cost_ns.resize(self.mesh.num_blocks(), 0);
        }
        let dt = self.dt;
        self.step_dt = dt;
        let mut list = build_cycle_list::<Self>();
        debug_assert_eq!(
            list.graph(),
            cycle_task_graph(),
            "shard task list drifted from the exported cycle graph"
        );
        // Real cross-thread waits can take arbitrarily many polls; the
        // default budget exists to catch single-process deadlocks.
        list.set_max_polls(usize::MAX / 2);
        let capture = self.params.capture_spans;
        let mut cycle_spans: Vec<vibe_prof::TaskSpan> = Vec::new();
        let stats = list
            .execute_spanned(self, wall.enabled(), capture.then_some(&mut cycle_spans))
            .expect("cycle task graph completes");
        drop(cycle_guard);
        if wall.enabled() {
            wall.record_pool_samples(&vibe_exec::stats_end());
        }
        let blocked = self.comm.take_collective_block_ns();
        if capture {
            for s in &mut cycle_spans {
                s.rank = self.rank;
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
        let mut timing = last_cycle_timing_from(&self.rec);
        if wall.enabled() {
            timing.compute_task_ns = stats.compute_ns;
            timing.overlapped_compute_ns = stats.overlapped_compute_ns;
        }
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

    fn drain_comm_events(&mut self) {
        self.comm_log.append(&mut self.comm.take_events());
    }

    fn exec(&self) -> ExecCtx {
        ExecCtx::new(self.params.host_threads)
    }

    /// Rank owning block `gid` in the current mesh generation.
    fn rank_of(&self, gid: usize) -> usize {
        self.mesh.block(gid).rank()
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

    /// Rebuilds the communication plan from the replicated mesh (the shard
    /// does not hold every slot, so the plan comes from
    /// [`ExchangePlan::build_from_mesh`] with a sample container).
    fn ensure_plan(&mut self) {
        if self.plan.is_none() {
            let cfg = self.params.exchange_config();
            let mut sample = self.fresh_data();
            self.plan = Some(ExchangePlan::build_from_mesh(
                &self.mesh,
                &mut sample,
                &cfg,
                &mut self.rec,
            ));
        }
    }

    /// Runs `f` over this shard's pack of owned blocks (ascending gid),
    /// then drains string-lookup counters into `func`'s serial profile.
    /// No-op when the shard owns nothing.
    fn with_owned_pack(
        &mut self,
        func: StepFunction,
        f: impl FnOnce(&P, &mut Vec<&mut BlockSlot>, &mut Recorder),
    ) {
        let package = &self.package;
        let rec = &mut self.rec;
        let mut pack: Vec<&mut BlockSlot> = self.owned.iter_mut().flatten().collect();
        if pack.is_empty() {
            return;
        }
        f(package, &mut pack, rec);
        for slot in pack.iter_mut() {
            let lookups = slot.data.take_string_lookups();
            if lookups > 0 {
                rec.record_serial(func, SerialWork::StringLookups(lookups));
            }
        }
    }
}

impl<P: Package> CycleTasks for RankShard<P> {
    fn task_save_stage0(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region_hot(RegionKey::Named("SaveStage0"));
        let ids = self
            .plan
            .as_ref()
            .expect("plan built")
            .two_stage_ids
            .clone();
        let exec = self.exec();
        let mut pack: Vec<&mut BlockSlot> = self.owned.iter_mut().flatten().collect();
        exec.for_each_block(&mut pack, |_, slot| {
            slot.save_stage0(&ids);
        });
    }

    /// PackSend: posts receives for the boundaries this shard consumes,
    /// packs and ships the ones its blocks feed to other ranks; same-rank
    /// boundaries wait for the direct fill in WaitUnpack.
    fn task_ghost_pack_send(&mut self, task: &'static str) {
        let cfg = self.params.exchange_config();
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        self.comm.set_task(Some(task));
        self.ghost_state = ghost_pack_and_send(
            self.plan.as_ref().expect("plan built"),
            &ShardBlocks::of(&mut self.owned, &self.mesh),
            &mut self.comm,
            &mut self.cache,
            &cfg,
            exec,
            &mut self.rec,
        );
        self.comm.set_task(None);
    }

    /// WaitUnpack: fills the same-rank boundaries directly, then polls the
    /// pending ones; once every one of this shard's messages has landed,
    /// unpacks into ghost zones and applies physical boundary conditions.
    /// Yields the OS thread while peers are still packing.
    fn task_ghost_wait_unpack(&mut self, task: &'static str) -> TaskStatus {
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        self.comm.set_task(Some(task));
        let plan = self.plan.as_ref().expect("plan built");
        let mut blocks = ShardBlocks::of(&mut self.owned, &self.mesh);
        let status = ghost_wait_unpack(
            plan,
            &mut self.ghost_state,
            &mut blocks,
            &mut self.comm,
            exec,
            &mut self.rec,
        );
        self.comm.set_task(None);
        if status == TaskStatus::Complete {
            let kind = self.params.boundary_condition;
            apply_physical_bcs(plan, &self.mesh, kind, &mut blocks, exec, &mut self.rec);
        } else {
            std::thread::yield_now();
        }
        status
    }

    /// One phase of the split flux sweep; under
    /// [`DriverParams::measured_costs`] the pack's wall time is amortized
    /// evenly over its blocks into the cost ledger (same approximation as
    /// the driver).
    fn task_flux(&mut self, phase: FluxPhase) {
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::CalculateFluxes));
        let measured = self.params.measured_costs;
        let mut costed: Vec<(usize, u64)> = Vec::new();
        self.with_owned_pack(StepFunction::CalculateFluxes, |pkg, pack, rec| {
            let t0 = measured.then(std::time::Instant::now);
            pkg.calculate_fluxes_phase(pack, phase, exec, rec);
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64 / pack.len().max(1) as u64;
                costed.extend(pack.iter().map(|s| (s.info.gid, ns)));
            }
        });
        for (gid, ns) in costed {
            self.block_cost_ns[gid] += ns;
        }
    }

    fn task_fcorr_send(&mut self, task: &'static str) {
        let exec = self.exec();
        self.comm.set_task(Some(task));
        self.fcorr_state = flux_corr_send(
            self.plan.as_ref().expect("plan built"),
            &mut ShardBlocks::of(&mut self.owned, &self.mesh),
            &mut self.comm,
            exec,
            &mut self.rec,
        );
        self.comm.set_task(None);
    }

    fn task_fcorr_apply(&mut self, task: &'static str) -> TaskStatus {
        let exec = self.exec();
        self.comm.set_task(Some(task));
        let status = flux_corr_apply(
            self.plan.as_ref().expect("plan built"),
            &mut self.fcorr_state,
            &mut ShardBlocks::of(&mut self.owned, &self.mesh),
            &mut self.comm,
            exec,
            &mut self.rec,
        );
        self.comm.set_task(None);
        if status != TaskStatus::Complete {
            std::thread::yield_now();
        }
        status
    }

    fn task_update(&mut self, stage: usize) {
        let (a0, b, c) = if stage == 0 {
            (0.0, 1.0, 1.0)
        } else {
            (0.5, 0.5, 0.5)
        };
        let dt = self.step_dt;
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("RK2Update"));
        let ids = self.plan.as_ref().expect("plan built").flux_ids.clone();
        let measured = self.params.measured_costs;
        let ledger = &mut self.block_cost_ns;
        let rec = &mut self.rec;
        let mut pack: Vec<&mut BlockSlot> = self.owned.iter_mut().flatten().collect();
        if measured {
            let mut cost = vec![0u64; pack.len()];
            flux_divergence_update_costed(&mut pack, exec, a0, b, c, dt, &ids, rec, &mut cost);
            for (slot, ns) in pack.iter().zip(cost) {
                ledger[slot.info.gid] += ns;
            }
        } else {
            flux_divergence_update_with_ids(&mut pack, exec, a0, b, c, dt, &ids, rec);
        }
    }

    fn task_fill_derived(&mut self) {
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::FillDerived));
        self.with_owned_pack(StepFunction::FillDerived, |pkg, pack, rec| {
            pkg.fill_derived(pack, exec, rec);
        });
    }

    /// MassHistory: per-block contributions tagged with their gid, then a
    /// data AllGather and a fold in *global gid order* — the same
    /// reduction order as the single-process driver, whatever the rank
    /// partition, so the gathered history is bitwise identical to a
    /// one-shot single-rank run. Every rank joins the gather, including
    /// empty ones.
    fn task_history(&mut self) {
        if self.params.history_every == 0 || !self.cycle.is_multiple_of(self.params.history_every) {
            return;
        }
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::MassHistory));
        let ncols = self.package.history_labels().len();
        // Payload: one (gid: u64 le, row: ncols × f64 le) entry per owned
        // block. An empty shard contributes an empty payload.
        let mut payload: Vec<u8> = Vec::new();
        self.with_owned_pack(StepFunction::MassHistory, |pkg, pack, rec| {
            let contrib = pkg.history_contributions(pack, exec, rec);
            for (slot, row) in pack.iter().zip(contrib) {
                payload.extend_from_slice(&(slot.info.gid as u64).to_le_bytes());
                for v in row {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
            }
        });
        self.comm.set_task(Some("MassHistory"));
        let parts = self
            .comm
            .all_gather_data(StepFunction::MassHistory, payload, &mut self.rec);
        self.comm.set_task(None);
        let stride = 8 + 8 * ncols;
        let mut rows: Vec<(u64, Vec<f64>)> = Vec::new();
        for part in &parts {
            for entry in part.chunks_exact(stride) {
                let gid = u64::from_le_bytes(entry[..8].try_into().expect("8-byte gid"));
                let row: Vec<f64> = entry[8..]
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte value")))
                    .collect();
                rows.push((gid, row));
            }
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

    /// TreeUpdate: a real AllGather of every rank's refinement flags,
    /// merged into an ordered map (order-free), then the same proper-nesting
    /// enforcement and derefinement-gate filter as the driver — replicated
    /// tree surgery, identical on every rank.
    fn task_tree_update(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::UpdateMeshBlockTree));
        self.comm.set_task(Some("TreeUpdate"));
        let local = std::mem::take(&mut self.step_flags);
        let payload = encode_flags(&local);
        let parts =
            self.comm
                .all_gather_data(StepFunction::UpdateMeshBlockTree, payload, &mut self.rec);
        self.comm.set_task(None);
        let mut flags = BTreeMap::new();
        for part in &parts {
            decode_flags_into(part, &mut flags);
        }
        let mut decision = enforce_proper_nesting(self.mesh.tree(), &flags);
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

    /// Regrid: replicated tree surgery plus *real* block migration. Every
    /// rank applies the same decision and load balance to its mesh copy,
    /// computes which old blocks feed which new blocks, ships full block
    /// payloads for cross-rank provenance edges (all sends strictly before
    /// any blocking receive — see the deadlock-freedom argument in
    /// DESIGN.md), and rebuilds its owned slots in ascending gid order.
    fn task_regrid(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(
            StepFunction::RedistributeAndRefineMeshBlocks,
        ));
        self.comm.set_task(Some("Regrid"));
        let decision = self.step_decision.take().expect("tree update ran");
        self.step_counts = (decision.refine.len(), decision.derefine_parents.len());
        let me = self.rank;
        let structural = !decision.is_empty();
        if structural {
            for parent in &decision.derefine_parents {
                self.gate.record_derefine(parent, self.cycle);
            }
            for loc in &decision.refine {
                self.gate.record_refine(loc, self.cycle);
            }
        }
        let old_ranks: Vec<usize> = (0..self.mesh.num_blocks())
            .map(|g| self.rank_of(g))
            .collect();
        let old_bytes: usize = self.owned.iter().flatten().map(BlockSlot::nbytes).sum();
        let sources: Vec<RegridSource> = if structural {
            self.mesh
                .regrid(&decision)
                .expect("valid regrid decision")
                .sources
        } else {
            (0..self.mesh.num_blocks())
                .map(|g| RegridSource::Unchanged { old_gid: g })
                .collect()
        };
        if self.params.measured_costs && !self.block_cost_ns.is_empty() {
            // Each rank measured only its own blocks: gather the full
            // per-old-gid ledger so every replica applies identical weights
            // (the deterministic partition depends on it), then map it
            // through the regrid provenance onto new gids.
            let mut payload = Vec::new();
            for (gid, &ns) in self.block_cost_ns.iter().enumerate() {
                if old_ranks[gid] == me && ns > 0 {
                    payload.extend_from_slice(&(gid as u64).to_le_bytes());
                    payload.extend_from_slice(&ns.to_le_bytes());
                }
            }
            let parts = self.comm.all_gather_data(
                StepFunction::RedistributeAndRefineMeshBlocks,
                payload,
                &mut self.rec,
            );
            let mut full = vec![0u64; old_ranks.len()];
            for part in &parts {
                for pair in part.chunks_exact(16) {
                    let gid =
                        u64::from_le_bytes(pair[0..8].try_into().expect("gid bytes")) as usize;
                    full[gid] = u64::from_le_bytes(pair[8..16].try_into().expect("cost bytes"));
                }
            }
            for (gid, &ns) in map_block_costs(&full, &sources).iter().enumerate() {
                self.mesh.set_block_cost(gid, (ns as f64).max(1.0));
            }
        } else {
            self.params.cost_model.apply(&mut self.mesh);
        }
        self.mesh.load_balance(self.params.nranks);

        // Which ranks need each old block under the new ownership map.
        let mut dests: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); old_ranks.len()];
        for (g, source) in sources.iter().enumerate() {
            let dst = self.rank_of(g);
            for x in source_old_gids(source) {
                dests[x].insert(dst);
            }
        }
        // Ship my old blocks to every remote rank that needs them — all
        // sends before any receive completes, in (old gid, dst) order.
        for (x, ds) in dests.iter().enumerate() {
            if old_ranks[x] != me {
                continue;
            }
            for &dst in ds {
                if dst == me {
                    continue;
                }
                let slot = self.owned[x].as_ref().expect("old block owned");
                let payload = serialize_block(&slot.data);
                let cells = slot.data.shape().interior_count() as u64;
                self.comm.send(
                    BoundaryKey::new(x, x, MIGRATE_TAG),
                    payload,
                    SendMeta {
                        src: me,
                        dst,
                        cells,
                    },
                    StepFunction::RedistributeAndRefineMeshBlocks,
                    &mut self.rec,
                );
            }
        }
        // Fetch the remote old blocks my new blocks are built from.
        let needed: Vec<usize> = (0..old_ranks.len())
            .filter(|&x| old_ranks[x] != me && dests[x].contains(&me))
            .collect();
        for &x in &needed {
            self.comm.start_receive(BoundaryKey::new(x, x, MIGRATE_TAG));
        }
        let mut fetched: HashMap<usize, Vec<f64>> = HashMap::new();
        {
            // The fetch loop blocks until every remote source block lands —
            // the migration-stall wait state (probed, like collective
            // blocking, because it hides inside a task action the span
            // layer counts as busy).
            let stall_t0 = self.params.capture_spans.then(std::time::Instant::now);
            let comm = &mut self.comm;
            let rec = &mut self.rec;
            let mut pending = needed;
            while !pending.is_empty() {
                pending.retain(|&x| {
                    match comm.try_receive(BoundaryKey::new(x, x, MIGRATE_TAG), rec) {
                        Some(buf) => {
                            fetched.insert(x, buf);
                            false
                        }
                        None => true,
                    }
                });
                if !pending.is_empty() {
                    std::thread::yield_now();
                }
            }
            if let Some(t0) = stall_t0 {
                self.wait_probes.migration_stall_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        // Rebuild owned slots in ascending gid order.
        let mut old: Vec<Option<BlockSlot>> = std::mem::take(&mut self.owned);
        let mut new_owned: Vec<Option<BlockSlot>> = Vec::with_capacity(sources.len());
        let mut created = 0u64;
        let mut moved_cells = 0u64;
        for (g, source) in sources.iter().enumerate() {
            if self.rank_of(g) != me {
                new_owned.push(None);
                continue;
            }
            let slot = match source {
                RegridSource::Unchanged { old_gid } => {
                    if old_ranks[*old_gid] == me {
                        let mut s = old[*old_gid].take().expect("unchanged block available");
                        s.info = BlockInfo::from_mesh(&self.mesh, g);
                        s
                    } else {
                        let mut s = self.new_slot(g);
                        deserialize_into(&mut s.data, &fetched[old_gid]);
                        s
                    }
                }
                RegridSource::Refined {
                    parent_old_gid,
                    child_index,
                } => {
                    created += 1;
                    let mut s = self.new_slot(g);
                    moved_cells += s.data.shape().interior_count() as u64;
                    let materialized: Option<BlockData> = (old_ranks[*parent_old_gid] != me)
                        .then(|| self.block_from_payload(&fetched[parent_old_gid]));
                    let parent: &BlockData = match &materialized {
                        Some(d) => d,
                        None => {
                            &old[*parent_old_gid]
                                .as_ref()
                                .expect("parent available")
                                .data
                        }
                    };
                    prolongate_to_child(parent, *child_index, &mut s.data);
                    s
                }
                RegridSource::Derefined { child_old_gids } => {
                    created += 1;
                    let mut s = self.new_slot(g);
                    moved_cells += s.data.shape().interior_count() as u64;
                    let materialized: Vec<Option<BlockData>> = child_old_gids
                        .iter()
                        .map(|&x| {
                            (old_ranks[x] != me).then(|| self.block_from_payload(&fetched[&x]))
                        })
                        .collect();
                    let children: Vec<&BlockData> = child_old_gids
                        .iter()
                        .zip(&materialized)
                        .map(|(&x, m)| match m {
                            Some(d) => d,
                            None => &old[x].as_ref().expect("child available").data,
                        })
                        .collect();
                    restrict_to_parent(&children, &mut s.data);
                    s
                }
            };
            new_owned.push(Some(slot));
        }
        drop(old);
        self.owned = new_owned;
        let new_bytes: usize = self.owned.iter().flatten().map(BlockSlot::nbytes).sum();
        self.rec
            .record_alloc(MemSpace::Kokkos, new_bytes as i64 - old_bytes as i64);
        if structural {
            self.rec.record_serial(
                StepFunction::RedistributeAndRefineMeshBlocks,
                SerialWork::Allocations(created),
            );
            if created > 0 {
                let per_block = self
                    .owned
                    .iter()
                    .flatten()
                    .next()
                    .map(|s| s.nbytes() as u64)
                    .unwrap_or(0);
                self.rec.record_serial(
                    StepFunction::RedistributeAndRefineMeshBlocks,
                    SerialWork::HostCopyBytes(created * per_block),
                );
            }
            if moved_cells > 0 {
                Launcher::new(&mut self.rec).record_only(
                    &catalog::PROLONG_RESTRICT_LOOP,
                    moved_cells,
                    1.0,
                );
            }
            self.cache.invalidate();
            self.plan = None;
        }
        // Per-cycle block management (replicated on every rank, as the
        // scalar list rebuild is in Parthenon).
        self.rec.record_serial(
            StepFunction::RedistributeAndRefineMeshBlocks,
            SerialWork::BlockLoop(8 * self.mesh.num_blocks() as u64),
        );
        let boundary_count: usize = (0..self.mesh.num_blocks())
            .map(|g| self.mesh.neighbors(g).len())
            .sum();
        self.rec.record_serial(
            StepFunction::RedistributeAndRefineMeshBlocks,
            SerialWork::BoundaryLoop(boundary_count as u64),
        );
        if !self.cache.is_valid() {
            self.cache.rebuild(
                boundary_count as u64,
                boundary_count as u64 * 96,
                &mut self.rec,
            );
        }
        self.comm.mark_all_stale();
        self.comm.set_task(None);
    }

    fn task_refinement_tag(&mut self) {
        self.step_flags = self.collect_tags();
    }

    fn task_estimate_dt(&mut self) {
        self.comm.set_task(Some("EstimateTimeStep"));
        self.estimate_dt();
        self.comm.set_task(None);
    }
}

impl<P: Package> RankShard<P> {
    /// Tags this shard's blocks; the cross-rank merge happens in
    /// [`Self::task_tree_update`].
    fn collect_tags(&mut self) -> BTreeMap<LogicalLocation, AmrFlag> {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::RefinementTag));
        let exec = self.exec();
        let mut flags = BTreeMap::new();
        let package = &self.package;
        let rec = &mut self.rec;
        let mut pack: Vec<&mut BlockSlot> = self.owned.iter_mut().flatten().collect();
        if pack.is_empty() {
            return flags;
        }
        rec.record_serial(
            StepFunction::RefinementTag,
            SerialWork::BlockLoop(pack.len() as u64),
        );
        let pack_flags = package.tag_refinement(&mut pack, exec, rec);
        for (slot, f) in pack.iter().zip(pack_flags) {
            flags.insert(slot.info.loc, f);
        }
        for slot in pack.iter_mut() {
            let lookups = slot.data.take_string_lookups();
            if lookups > 0 {
                rec.record_serial(
                    StepFunction::RefinementTag,
                    SerialWork::StringLookups(lookups),
                );
            }
        }
        flags
    }

    /// EstimateTimeStep: local minimum over owned blocks, then a data
    /// AllReduce folded as `f64::min` in rank index order with an infinity
    /// identity (empty ranks deposit infinity) — the same fold order as the
    /// driver's sweep over its rank packs.
    fn estimate_dt(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::EstimateTimeStep));
        let cfl = self.params.cfl;
        let exec = self.exec();
        let mut min_dt = f64::INFINITY;
        self.with_owned_pack(StepFunction::EstimateTimeStep, |pkg, pack, rec| {
            min_dt = pkg.estimate_dt(pack, exec, rec);
        });
        let parts = self.comm.all_reduce_data(
            StepFunction::EstimateTimeStep,
            min_dt.to_le_bytes().to_vec(),
            8,
            &mut self.rec,
        );
        let mut global = f64::INFINITY;
        for part in &parts {
            let v = f64::from_le_bytes(part.as_slice().try_into().expect("8-byte dt deposit"));
            global = global.min(v);
        }
        self.dt = cfl * global;
    }

    /// Builds a registered container holding a migrated block payload.
    fn block_from_payload(&self, payload: &[f64]) -> BlockData {
        let mut data = self.fresh_data();
        deserialize_into(&mut data, payload);
        data
    }
}

/// The old gids a post-regrid block's data comes from.
fn source_old_gids(source: &RegridSource) -> Vec<usize> {
    match source {
        RegridSource::Unchanged { old_gid } => vec![*old_gid],
        RegridSource::Refined { parent_old_gid, .. } => vec![*parent_old_gid],
        RegridSource::Derefined { child_old_gids } => child_old_gids.clone(),
    }
}

/// Serializes every variable's full data array (ghosts included — the
/// prolongation stencil reads parent neighbor cells that reach into the
/// ghost layers) in registration order. Fluxes and stage-0 copies are dead
/// across the regrid point (SaveStage0 overwrites them next cycle) and are
/// not shipped.
fn serialize_block(data: &BlockData) -> Vec<f64> {
    let mut out = Vec::new();
    for var in data.vars() {
        out.extend_from_slice(var.data().as_slice());
    }
    out
}

/// Inverse of [`serialize_block`] into an identically registered container.
fn deserialize_into(data: &mut BlockData, payload: &[f64]) {
    let mut offset = 0usize;
    for i in 0..data.num_vars() {
        let dst = data.var_mut(VarId(i)).data_mut().as_mut_slice();
        dst.copy_from_slice(&payload[offset..offset + dst.len()]);
        offset += dst.len();
    }
    assert_eq!(offset, payload.len(), "payload matches registration");
}

/// Wire record: level (i32), lx1..lx3 (i64), flag (u8).
const FLAG_RECORD_BYTES: usize = 4 + 3 * 8 + 1;

/// Serializes refinement flags (all of them, `Same` included, so the merged
/// map equals the driver's single-process tag map).
fn encode_flags(flags: &BTreeMap<LogicalLocation, AmrFlag>) -> Vec<u8> {
    let mut out = Vec::with_capacity(flags.len() * FLAG_RECORD_BYTES);
    for (loc, flag) in flags {
        out.extend_from_slice(&loc.level().to_le_bytes());
        for d in 0..3 {
            out.extend_from_slice(&loc.lx_d(d).to_le_bytes());
        }
        out.push(match flag {
            AmrFlag::Derefine => 0,
            AmrFlag::Same => 1,
            AmrFlag::Refine => 2,
        });
    }
    out
}

/// Inverse of [`encode_flags`], merging into `flags`.
fn decode_flags_into(bytes: &[u8], flags: &mut BTreeMap<LogicalLocation, AmrFlag>) {
    assert!(
        bytes.len().is_multiple_of(FLAG_RECORD_BYTES),
        "flag payload framing"
    );
    for rec in bytes.chunks_exact(FLAG_RECORD_BYTES) {
        let level = i32::from_le_bytes(rec[0..4].try_into().expect("level bytes"));
        let lx1 = i64::from_le_bytes(rec[4..12].try_into().expect("lx1 bytes"));
        let lx2 = i64::from_le_bytes(rec[12..20].try_into().expect("lx2 bytes"));
        let lx3 = i64::from_le_bytes(rec[20..28].try_into().expect("lx3 bytes"));
        let flag = match rec[28] {
            0 => AmrFlag::Derefine,
            1 => AmrFlag::Same,
            2 => AmrFlag::Refine,
            other => panic!("unknown flag byte {other}"),
        };
        flags.insert(LogicalLocation::new(level, lx1, lx2, lx3), flag);
    }
}

/// FNV-1a fingerprint over the bit patterns of every variable of every
/// slot, in slot then registration order — the canonical solution
/// fingerprint shared by the bench gates and the rank-parallel runtime's
/// headline invariant (merged shard state must hash identically to the
/// single-shard driver's).
pub fn fingerprint_slots(slots: &[BlockSlot]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (bits >> shift) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for slot in slots {
        for var in slot.data.vars() {
            for &v in var.data().as_slice() {
                eat(v.to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_package::Advect;
    use vibe_comm::SharedTransport;
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

    fn replica(nranks: usize) -> Driver<Advect> {
        let params = DriverParams {
            nranks,
            cfl: 0.3,
            ..DriverParams::default()
        };
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let mut d = Driver::new(mesh(), pkg, params);
        d.initialize(gaussian_ic);
        d
    }

    /// One shard on the degenerate single-rank shared transport must
    /// reproduce the driver bitwise, cycle for cycle.
    #[test]
    fn single_shard_matches_driver_bitwise() {
        let mut driver = replica(1);
        let mut shard = RankShard::from_replica(replica(1), Box::new(SharedTransport::default()));
        for _ in 0..4 {
            let ds = driver.step();
            let ss = shard.step();
            assert_eq!(ds.nblocks, ss.nblocks);
            assert_eq!(ds.refined, ss.refined);
            assert_eq!(ds.dt.to_bits(), ss.dt.to_bits());
        }
        let out = shard.finish();
        let merged: Vec<BlockSlot> = out.owned.into_iter().map(|(_, s)| s).collect();
        assert_eq!(
            fingerprint_slots(driver.slots()),
            fingerprint_slots(&merged),
            "single-shard fingerprint must equal the driver's"
        );
        assert_eq!(driver.history(), out.history.as_slice());
        assert_eq!(driver.dt().to_bits(), out.dt.to_bits());
    }

    /// Two replicas of the same problem produce bitwise-identical init
    /// state — the property the full-replica shard init depends on.
    #[test]
    fn replica_initialization_is_bitwise_reproducible() {
        let a = replica(4);
        let b = replica(4);
        assert_eq!(fingerprint_slots(a.slots()), fingerprint_slots(b.slots()));
        assert_eq!(a.dt().to_bits(), b.dt().to_bits());
        assert_eq!(a.mesh().num_blocks(), b.mesh().num_blocks());
    }

    #[test]
    fn flag_roundtrip_preserves_map() {
        let mut flags = BTreeMap::new();
        flags.insert(LogicalLocation::new(0, 0, 1, 0), AmrFlag::Refine);
        flags.insert(LogicalLocation::new(2, 3, 2, 1), AmrFlag::Same);
        flags.insert(LogicalLocation::new(1, 1, 0, 0), AmrFlag::Derefine);
        let bytes = encode_flags(&flags);
        let mut back = BTreeMap::new();
        decode_flags_into(&bytes, &mut back);
        assert_eq!(flags, back);
    }

    #[test]
    fn block_payload_roundtrip() {
        let d = replica(1);
        let src = &d.slots()[0].data;
        let payload = serialize_block(src);
        let mut dst = BlockData::new(d.mesh().index_shape());
        Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        }
        .register(&mut dst);
        deserialize_into(&mut dst, &payload);
        assert_eq!(
            src.var(VarId(0)).data().as_slice(),
            dst.var(VarId(0)).data().as_slice()
        );
    }
}
