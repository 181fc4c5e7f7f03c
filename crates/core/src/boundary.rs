//! Ghost-cell communication: the StartReceiveBoundBufs → SendBoundBufs →
//! ReceiveBoundBufs → SetBounds cycle, plus fine-coarse flux correction.
//!
//! One plan-compiled engine serves the [`Driver`] wherever it runs — every
//! block resident under `nranks` virtual rank labels, or one rank's blocks
//! on a transport fabric: at plan time each boundary becomes a dense
//! transfer record (sender, receiver, key, wire length) with a compiled
//! [`RowProgram`]; at exchange time each transfer takes one of two routes,
//! chosen from residency alone:
//!
//! * **direct** — both blocks are resident, whatever their rank labels:
//!   the values move straight from the sender's interior into the
//!   receiver's ghost band ([`RowProgram::fill`]), no buffer, no mailbox —
//!   neighbours in one process are plain memory copies, as in Parthenon;
//! * **mailbox** — one end lives in another process (a peer endpoint of a
//!   channel fabric, chaos-wrapped or not): packed into a recycled wire
//!   buffer, sent, banked on arrival in a table indexed by transfer,
//!   unpacked, and the buffer recycled.
//!
//! The rank labels decide only the accounting: a direct transfer between
//! two labels is recorded and logged as the remote message it models.
//!
//! The exchange is split into phases so the task graph can keep compute
//! running while messages are in flight:
//!
//! * [`ExchangePlan::build`] — per-mesh-generation compilation;
//! * [`ghost_pack_and_send`] — route, account the receives, pack and ship;
//! * [`ghost_visit`] — the stage visit: one worker per receiver block runs
//!   its direct fills, unpacks its delivered payloads and, while the block
//!   is resident in cache, sweeps it (the domain is periodic, so every
//!   ghost cell is some block's interior). The blocks whose every boundary
//!   is direct are visited while remote messages are in flight
//!   (InteriorFlux), the others once theirs arrived (ExteriorFlux). Every
//!   stage but the last of a cycle fills directly only the *stencil halo*
//!   — face ghosts within the package's stencil radius, all its sweep
//!   reads — and the last the whole ghost shell ([`GhostFill`]); so
//!   whatever observes a whole array at a cycle boundary sees a full
//!   fill's bits, and a hook between the fills may read the outer shell
//!   only to derive values the last stage recomputes (euler's
//!   `fill_derived`);
//! * [`ghost_poll`] — one non-blocking delivery sweep (WaitUnpack);
//! * [`ghost_retire`] — recycle the buffers, account the exchange;
//! * [`flux_corr_send`] / [`flux_corr_apply`] — the same for fine→coarse
//!   flux correction.
//!
//! Workload accounting comes from the plan in bulk and totals what one
//! record per message used to.
//!
//! [`Driver`]: crate::driver::Driver

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use vibe_comm::{BoundaryKey, BufferCache, CacheConfig, CommEventKind, Communicator, SendMeta};
use vibe_exec::{catalog, ExecCtx, SharedCells};
use vibe_field::buffer::compute_buffer_spec_with;
use vibe_field::{
    flux_correction_spec, BlockData, CellRows, FluxOut, FluxProgram, Metadata, RowProgram,
    TransferProgram, VarId,
};
use vibe_mesh::Mesh;
use vibe_prof::{MemSpace, Recorder, RegionKey, SerialWork, StepFunction, WallClock};

use crate::block::{save_stage0, BlockInfo, BlockSlot};
use crate::package::FluxPhase;
use crate::tasks::TaskStatus;

/// Configuration of the ghost exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeConfig {
    /// Buffer-cache bookkeeping configuration (sort+shuffle toggle).
    pub cache_config: CacheConfig,
    /// Restrict fine data before sending (Parthenon's optimization); when
    /// disabled, fine→coarse buffers grow by `2^dim` and the receiver
    /// averages (ablation of the §II-C behavior).
    pub restrict_on_send: bool,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        Self {
            cache_config: CacheConfig::default(),
            restrict_on_send: true,
        }
    }
}

/// `index` entry of a block whose data lives in another process.
pub const NOT_RESIDENT: usize = usize::MAX;

/// The gid → position table of `slots` (resident blocks in ascending gid)
/// within a mesh of `num_blocks` blocks.
pub fn resident_index(slots: &[BlockSlot], num_blocks: usize) -> Vec<usize> {
    let mut index = vec![NOT_RESIDENT; num_blocks];
    for (at, slot) in slots.iter().enumerate() {
        index[slot.info.gid] = at;
    }
    index
}

/// The blocks an exchange runs over: the resident slots in ascending gid,
/// where each gid of the mesh sits among them, and the replicated mesh,
/// which knows the rank of the blocks held elsewhere.
#[derive(Debug)]
pub struct BlockTable<'a> {
    slots: &'a mut [BlockSlot],
    index: &'a [usize],
    mesh: &'a Mesh,
}

impl<'a> BlockTable<'a> {
    /// The view over `slots`, their [`resident_index`] and the mesh.
    pub fn of(slots: &'a mut [BlockSlot], index: &'a [usize], mesh: &'a Mesh) -> Self {
        Self { slots, index, mesh }
    }

    /// Number of blocks in the mesh (resident or not).
    fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// Block `gid`, if its data lives in this process.
    fn resident(&self, gid: usize) -> Option<&BlockSlot> {
        self.slots.get(self.index[gid])
    }

    /// The rank label block `gid` carries right now, resident or not.
    /// Read at every exchange, so plain load balancing keeps a plan valid.
    fn rank_of(&self, gid: usize) -> usize {
        self.resident(gid)
            .map_or_else(|| self.mesh.block(gid).rank(), |slot| slot.info.rank)
    }
}

/// One compiled transfer: who sends, who receives, under which key, and how
/// many `f64` travel (all exchanged variables together).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    key: BoundaryKey,
    recv: usize,
    send: usize,
    wire_len: usize,
}

/// How one transfer travels this exchange, decided from residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Both blocks here: filled directly.
    Direct,
    /// Only the sender is here.
    Send,
    /// Only the receiver is here.
    Receive,
    /// Neither block is here.
    Elsewhere,
}

impl Route {
    /// The route of `t` given every block's (resident, rank label).
    fn of(labels: &[(bool, usize)], t: &Transfer) -> Self {
        match (labels[t.send].0, labels[t.recv].0) {
            (true, true) => Route::Direct,
            (true, false) => Route::Send,
            (false, true) => Route::Receive,
            (false, false) => Route::Elsewhere,
        }
    }

    fn sender_here(self) -> bool {
        matches!(self, Route::Direct | Route::Send)
    }

    fn receiver_here(self) -> bool {
        matches!(self, Route::Direct | Route::Receive)
    }
}

thread_local! {
    /// Per-worker wire scratch of the direct fill, for the two modes that
    /// resample on the receiver ([`RowProgram::fill`]); pool workers are
    /// persistent, so it is grown once and reused.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// [`SharedCells`] as the rows of a block's storage during a dispatch over
/// receiver blocks.
///
/// The aliasing contract that makes the accesses below sound: during a
/// dispatch every block's *interior* (and every face plane no correction
/// writes) is read-only for every worker, and a block's ghost band (or its
/// corrected planes) belongs to the one worker that claimed the block. That
/// is a property of the plan — every program reads only its sender's
/// interior and writes only its receiver's ghost band
/// ([`RowProgram::compile`] asserts it per transfer in debug builds; for
/// face planes [`ExchangePlan`] asserts that no block face is both corrected
/// and a source) — and of the dispatch, which hands each receiver to
/// exactly one worker. The stage visit ([`ghost_visit`]) extends it to the
/// rest of what it writes: a visited block's divergence arrays, face planes
/// and stage copy are moved out of the block before the dispatch and owned
/// by the claiming worker, which borrows the block's container shared for
/// the sweep only after its own ghost writes — neither fill nor sweep
/// writes an interior cell, and no `&mut` to a block is formed while other
/// workers read it. Bounds are checked per storage before a program runs
/// ([`check_span`]).
struct Rows<'a>(SharedCells<'a>);

impl CellRows for Rows<'_> {
    #[inline(always)]
    fn row(&self, start: usize, len: usize) -> &[f64] {
        // SAFETY: reads lie in a block's interior (or in a face plane no
        // correction writes), which no worker writes during the dispatch,
        // or in ghost cells of the block this worker claimed and filled.
        unsafe { self.0.read(start, len) }
    }

    #[inline(always)]
    fn row_mut(&mut self, start: usize, len: usize) -> &mut [f64] {
        // SAFETY: writes lie in the ghost band (or in the corrected planes)
        // of the receiver this worker claimed; no other worker touches
        // those cells, and `&mut self` keeps this worker to one row at a
        // time.
        unsafe { self.0.write(start, len) }
    }
}

/// Panics unless a program spanning `span` cells fits both storages — the
/// bounds half of [`Rows`]' contract, checked once per program run.
fn check_span(span: usize, src: &SharedCells<'_>, dst: &SharedCells<'_>) {
    assert!(
        span <= src.len() && span <= dst.len(),
        "transfer program spans {span} cells, storages hold {} and {}",
        src.len(),
        dst.len()
    );
}

/// One transfer the poll pass waits on.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    transfer: usize,
    key: BoundaryKey,
}

/// In-flight bookkeeping of one exchange round (ghost or flux correction).
/// Every container is reused from round to round.
#[derive(Debug, Default)]
struct Flight {
    /// Every block's (resident, rank label) as read when the round opened
    /// — dense, so routing touches no block.
    labels: Vec<(bool, usize)>,
    /// Route of every transfer of the plan this round.
    routes: Vec<Route>,
    /// What the poll pass still waits on, in plan order: the mailbox
    /// deliveries — and, while the communicator logs events, the direct
    /// transfers too, which complete on the first sweep so the event
    /// stream reads as if every transfer had been a message between its
    /// rank labels.
    pending: Vec<Waiting>,
    /// Transfers received through the mailbox this round, and per block
    /// whether it receives any of them.
    mailed: Vec<usize>,
    awaits: Vec<bool>,
    /// Delivered payloads, indexed by transfer.
    bank: Vec<Vec<f64>>,
    /// (transfer, buffer) pairs being packed for the mailbox.
    outgoing: Vec<(usize, Vec<f64>)>,
    /// Consumed payloads waiting to become send buffers.
    spare: Vec<Vec<f64>>,
    /// Cells packed per sending rank and unpacked per receiving rank.
    sent_cells: Vec<u64>,
    received_cells: Vec<u64>,
    /// Transfers whose receiver is here; how many of them are direct; and
    /// the direct ones' probes the first poll has yet to account.
    receives: u64,
    direct: u64,
    direct_probes: u64,
}

impl Flight {
    /// Routes every transfer from residency, reads the live rank labels,
    /// counts the receives, and queues what the poll pass waits on.
    fn open(&mut self, transfers: &[Transfer], blocks: &BlockTable<'_>, comm: &Communicator) {
        let logging = comm.captures_events();
        self.labels.clear();
        self.labels.extend(
            (0..blocks.num_blocks())
                .map(|gid| (blocks.resident(gid).is_some(), blocks.rank_of(gid))),
        );
        self.routes.clear();
        self.pending.clear();
        self.mailed.clear();
        self.awaits.clear();
        self.awaits.resize(blocks.num_blocks(), false);
        self.bank.resize_with(transfers.len(), Vec::new);
        for cells in [&mut self.sent_cells, &mut self.received_cells] {
            cells.clear();
            cells.resize(comm.nranks(), 0);
        }
        (self.receives, self.direct) = (0, 0);
        for (b, t) in transfers.iter().enumerate() {
            let route = Route::of(&self.labels, t);
            self.routes.push(route);
            if !route.receiver_here() {
                continue;
            }
            self.receives += 1;
            self.received_cells[self.labels[t.recv].1] += t.wire_len as u64;
            let waiting = Waiting {
                transfer: b,
                key: t.key,
            };
            if route == Route::Direct {
                self.direct += 1;
                if logging {
                    self.pending.push(waiting);
                }
            } else {
                self.pending.push(waiting);
                self.mailed.push(b);
                self.awaits[t.recv] = true;
            }
        }
        self.direct_probes = self.direct;
    }

    /// Packs every mailbox-bound transfer in parallel (pure reads of the
    /// sender blocks) into recycled buffers, then streams the sends
    /// serially in plan order and accounts the round's traffic under
    /// `func`: one record per mailbox message (from the mailbox), and for
    /// the direct transfers one bulk add per kind — same label (local),
    /// different labels (remote) — totalling what sending each would have.
    /// Returns the payload bytes now held in message buffers bound for
    /// another rank.
    fn ship(
        &mut self,
        transfers: &[Transfer],
        comm: &mut Communicator,
        func: StepFunction,
        exec: ExecCtx,
        rec: &mut Recorder,
        pack: impl Fn(usize, &mut Vec<f64>) + Send + Sync,
    ) -> i64 {
        for (b, route) in self.routes.iter().enumerate() {
            if *route == Route::Send {
                self.outgoing
                    .push((b, self.spare.pop().unwrap_or_default()));
            }
        }
        exec.for_each_block(&mut self.outgoing, |_, (b, buf)| pack(*b, buf));
        let mut mail = self.outgoing.drain(..);
        let mut remote_bytes = 0i64;
        let mut sends = 0u64;
        // (messages, cells) of the direct transfers, remote then local.
        let mut direct = [(0u64, 0u64); 2];
        for (t, route) in transfers.iter().zip(&self.routes) {
            if !route.sender_here() {
                continue;
            }
            sends += 1;
            let (src, dst) = (self.labels[t.send].1, self.labels[t.recv].1);
            let (cells, local) = (t.wire_len as u64, src == dst);
            self.sent_cells[src] += cells;
            if !local {
                remote_bytes += 8 * cells as i64;
            }
            if *route == Route::Direct {
                let tally = &mut direct[usize::from(local)];
                *tally = (tally.0 + 1, tally.1 + cells);
                let kind = CommEventKind::Send {
                    src,
                    dst,
                    bytes: 8 * cells,
                    local,
                };
                comm.record_event(t.key, func, kind);
            } else {
                let (_, buf) = mail.next().expect("one packed buffer per mailbox send");
                comm.send(t.key, buf, SendMeta { src, dst, cells }, func, rec);
            }
        }
        for (local, (messages, cells)) in [false, true].into_iter().zip(direct) {
            if messages > 0 {
                rec.record_p2p_bulk(func, messages, 8 * cells, cells, local);
            }
        }
        rec.record_serial(func, SerialWork::BoundaryLoop(sends));
        remote_bytes
    }

    /// One delivery sweep: probes every still-pending transfer once,
    /// banking arrivals. Returns `true` once nothing is pending.
    fn poll(&mut self, comm: &mut Communicator, rec: &mut Recorder) -> bool {
        let probes = std::mem::take(&mut self.direct_probes);
        if probes > 0 {
            // What probing each direct transfer once used to record.
            rec.record_serial(
                StepFunction::ReceiveBoundBufs,
                SerialWork::BoundaryLoop(probes),
            );
        }
        let (routes, bank) = (&self.routes, &mut self.bank);
        self.pending.retain(|w| {
            if routes[w.transfer] == Route::Direct {
                let func = StepFunction::ReceiveBoundBufs;
                comm.record_event(w.key, func, CommEventKind::Complete);
                return false;
            }
            match comm.try_receive(w.key, rec) {
                Some(payload) => {
                    bank[w.transfer] = payload;
                    false
                }
                None => true,
            }
        });
        self.pending.is_empty()
    }

    /// Turns the consumed payloads into the next round's send buffers, in
    /// reverse, so that the send pass pops them in arrival order.
    fn recycle(&mut self) {
        self.spare.clear();
        for &b in self.mailed.iter().rev() {
            self.spare.push(std::mem::take(&mut self.bank[b]));
        }
    }
}

/// The transfers of one kind — ghost boundaries ([`RowProgram`]) or
/// fine→coarse flux corrections ([`FluxProgram`]) — compiled for a mesh
/// generation, in the fixed receiver-major enumeration order.
#[derive(Debug)]
struct Lane<P> {
    transfers: Vec<Transfer>,
    /// The transfers' programs (parallel to `transfers`).
    progs: Vec<P>,
    /// `transfers[start[r]..start[r + 1]]` are received by block `r`.
    start: Vec<usize>,
    /// The exchanged variables (registration is identical on every block)
    /// and their component counts.
    vars: Vec<(VarId, usize)>,
    /// The last round's bookkeeping and buffers, reused by the next one.
    parked: Mutex<Flight>,
}

impl<P: TransferProgram> Lane<P> {
    fn new(ids: &[VarId], sample: &BlockData) -> Self {
        Self {
            transfers: Vec::new(),
            progs: Vec::new(),
            start: vec![0],
            vars: ids.iter().map(|&id| (id, sample.var(id).ncomp())).collect(),
            parked: Mutex::default(),
        }
    }

    fn push(&mut self, key: BoundaryKey, recv: usize, send: usize, prog: P) {
        self.transfers.push(Transfer {
            key,
            recv,
            send,
            wire_len: self.vars.iter().map(|&(_, n)| prog.wire_len(n)).sum(),
        });
        self.progs.push(prog);
    }

    /// Transfers received by block `r`, in enumeration order.
    fn received_by(&self, r: usize) -> Range<usize> {
        self.start[r]..self.start[r + 1]
    }

    /// Takes the parked bookkeeping (or a fresh one).
    fn unpark(&self) -> Flight {
        std::mem::take(&mut *self.parked.lock().expect("held only for a move"))
    }

    fn park(&self, flight: Flight) {
        *self.parked.lock().expect("held only for a move") = flight;
    }

    /// Packs transfer `b` from its (resident) sender into `buf`, one
    /// variable after the other.
    fn pack(&self, b: usize, blocks: &BlockTable<'_>, buf: &mut Vec<f64>) {
        let (t, prog) = (&self.transfers[b], &self.progs[b]);
        let sender = blocks.resident(t.send).expect("sender block resident");
        buf.resize(t.wire_len, 0.0);
        let mut at = 0usize;
        for &(id, ncomp) in &self.vars {
            let len = prog.wire_len(ncomp);
            let cells = P::arrays(sender.data.var(id))[prog.src_array()].as_slice();
            prog.pack(ncomp, cells, &mut buf[at..at + len]);
            at += len;
        }
    }

    /// A view of every addressable array of every exchanged variable of
    /// the resident blocks `(gid, container)`.
    fn views<'a>(&self, residents: impl Iterator<Item = (usize, &'a mut BlockData)>) -> Views<'a> {
        let (nvars, arrays) = (self.vars.len(), P::ARRAYS);
        let blocks = self.start.len() - 1;
        let mut cells = vec![SharedCells::empty(); blocks * nvars * arrays];
        for (gid, data) in residents {
            for (i, var) in data.vars_mut().iter_mut().enumerate() {
                let Some(v) = self.vars.iter().position(|(id, _)| id.0 == i) else {
                    continue;
                };
                for (a, array) in P::arrays_mut(var).iter_mut().enumerate() {
                    cells[(gid * nvars + v) * arrays + a] = SharedCells::new(array.as_mut_slice());
                }
            }
        }
        Views {
            cells,
            nvars,
            arrays,
        }
    }

    /// Runs the transfers block `r` receives over the routes `wanted`: a
    /// direct one straight from the sender's storage through `direct` (a
    /// program's [`TransferProgram::fill`], or the part of it a stage
    /// needs), a delivered one out of the bank, whole.
    fn receive(
        &self,
        r: usize,
        flight: &Flight,
        views: &Views<'_>,
        wanted: impl Fn(Route) -> bool,
        direct: impl Fn(&P, usize, &Rows<'_>, &mut Rows<'_>, &mut Vec<f64>),
        scratch: &mut Vec<f64>,
    ) {
        for b in self.received_by(r) {
            let route = flight.routes[b];
            if !route.receiver_here() || !wanted(route) {
                continue;
            }
            let (t, prog, wire) = (&self.transfers[b], &self.progs[b], &flight.bank[b]);
            let here = route == Route::Direct;
            assert!(here || wire.len() == t.wire_len, "payload length");
            let mut at = 0usize;
            for (v, &(_, ncomp)) in self.vars.iter().enumerate() {
                let dst = views.at(r, v, prog.dst_array());
                if here {
                    let src = views.at(t.send, v, prog.src_array());
                    check_span(prog.storage_span(ncomp), &src, &dst);
                    direct(prog, ncomp, &Rows(src), &mut Rows(dst), scratch);
                } else {
                    let len = prog.wire_len(ncomp);
                    check_span(prog.storage_span(ncomp), &dst, &dst);
                    prog.unpack(ncomp, &wire[at..at + len], &mut Rows(dst));
                    at += len;
                }
            }
        }
    }

    /// [`Lane::receive`] for every resident receiver, in parallel over
    /// receiver blocks.
    fn receive_all(
        &self,
        flight: &Flight,
        blocks: &mut BlockTable<'_>,
        exec: ExecCtx,
        wanted: fn(Route) -> bool,
    ) {
        let residents = blocks.slots.iter_mut();
        let views = self.views(residents.map(|slot| (slot.info.gid, &mut slot.data)));
        let receivers: Vec<usize> = (0..self.start.len() - 1)
            .filter(|&r| flight.labels[r].0 && !self.received_by(r).is_empty())
            .collect();
        exec.for_each_index(receivers.len(), |i| {
            SCRATCH.with_borrow_mut(|scratch| {
                let fill =
                    |prog: &P, ncomp, src: &Rows<'_>, dst: &mut Rows<'_>, scratch: &mut _| {
                        prog.fill(ncomp, src, dst, scratch);
                    };
                self.receive(receivers[i], flight, &views, wanted, fill, scratch);
            });
        });
    }
}

/// One [`SharedCells`] view per (block of the mesh, exchanged variable,
/// addressable array), empty where the block is not resident.
struct Views<'a> {
    cells: Vec<SharedCells<'a>>,
    nvars: usize,
    arrays: usize,
}

impl<'a> Views<'a> {
    fn at(&self, gid: usize, v: usize, a: usize) -> SharedCells<'a> {
        self.cells[(gid * self.nvars + v) * self.arrays + a]
    }
}

/// Everything the communication phases need that only changes when the
/// mesh does: the compiled ghost boundaries and fine→coarse flux-correction
/// transfers, the variable-id pack lookups — and, parked between exchanges,
/// the buffers the last exchange used, so that after the first exchange of
/// a mesh generation the cycle path allocates nothing per message.
///
/// Ranks are deliberately *not* cached: every exchange reads the live rank
/// labels, so plain load balancing keeps the plan valid; only regridding
/// (new gids and neighbor lists) invalidates it.
#[derive(Debug)]
pub struct ExchangePlan {
    ghosts: Lane<RowProgram>,
    fluxes: Lane<FluxProgram>,
    /// [`Metadata::FILL_GHOST`] variable ids.
    pub ghost_ids: Vec<VarId>,
    /// [`Metadata::WITH_FLUXES`] variable ids.
    pub flux_ids: Vec<VarId>,
    /// [`Metadata::TWO_STAGE`] variable ids.
    pub two_stage_ids: Vec<VarId>,
    /// Per block, the outer faces flux correction overwrites: bit
    /// `2 * normal + upper side`. The stage sweep keeps the fluxes of the
    /// layers under them, and the stage update re-reduces those layers.
    pub corrected: Vec<u8>,
    /// How deep a [`GhostFill::Halo`] fills the face ghosts: the package's
    /// stencil radius.
    radius: usize,
}

impl ExchangePlan {
    /// Components of all [`Metadata::WITH_FLUXES`] variables together —
    /// what one face of a flux tile carries.
    pub fn flux_ncomp(&self) -> usize {
        self.fluxes.vars.iter().map(|&(_, ncomp)| ncomp).sum()
    }

    /// Builds the plan for the current mesh generation from the replicated
    /// mesh and the resident blocks' `containers`, for a flux stencil of
    /// `radius` ([`crate::Package::stencil_radius`]), performing (and
    /// recording) the per-block variable lookups that previously ran on
    /// every exchange. Boundary enumeration only reads the mesh — like
    /// every MPI rank, a driver that holds a few blocks knows the whole
    /// block tree; variable ids come from the first container, which every
    /// block registers identically.
    ///
    /// # Panics
    ///
    /// Panics if `containers` is empty: a process without blocks passes a
    /// freshly registered container, since blocks may migrate to it while
    /// the plan lives.
    pub fn build<'a>(
        mesh: &Mesh,
        mut containers: impl Iterator<Item = &'a mut BlockData>,
        cfg: &ExchangeConfig,
        radius: usize,
        rec: &mut Recorder,
    ) -> Self {
        let sample = containers.next().expect("a registered container");
        let ghost_ids = sample.pack_by_flag(Metadata::FILL_GHOST).ids().to_vec();
        let flux_ids = sample.pack_by_flag(Metadata::WITH_FLUXES).ids().to_vec();
        let two_stage_ids = sample.pack_by_flag(Metadata::TWO_STAGE).ids().to_vec();
        record_lookups(sample, rec);
        // Variable selection per block (string-keyed or cached, per
        // container strategy), once per generation.
        for data in containers {
            data.pack_by_flag(Metadata::FILL_GHOST);
            record_lookups(data, rec);
        }
        let mut plan = Self {
            ghosts: Lane::new(&ghost_ids, sample),
            fluxes: Lane::new(&flux_ids, sample),
            ghost_ids,
            flux_ids,
            two_stage_ids,
            corrected: vec![0; mesh.num_blocks()],
            radius,
        };
        let shape = mesh.index_shape();
        // Per block: faces whose fluxes corrections read.
        let mut sources = vec![0u8; mesh.num_blocks()];
        for recv in 0..mesh.num_blocks() {
            let r_loc = mesh.block(recv).loc();
            let neighbors = mesh.neighbors(recv).iter().zip(mesh.neighbor_gids(recv));
            for (t, (nb, &send)) in neighbors.enumerate() {
                let send = send as usize;
                let spec = compute_buffer_spec_with(
                    &shape,
                    &r_loc,
                    &nb.loc,
                    &nb.offset,
                    cfg.restrict_on_send,
                );
                let key = BoundaryKey::new(send, recv, t as u32);
                plan.ghosts
                    .push(key, recv, send, RowProgram::compile(&spec));
                if nb.is_finer() && nb.offset.order() == 1 {
                    let spec = flux_correction_spec(&shape, &r_loc, &nb.loc, &nb.offset);
                    let prog = FluxProgram::compile(&spec);
                    plan.corrected[recv] |= 1 << prog.dst_array();
                    sources[send] |= 1 << prog.src_array();
                    let key = BoundaryKey::new(send, recv, 1000 + t as u32);
                    plan.fluxes.push(key, recv, send, prog);
                }
            }
            plan.ghosts.start.push(plan.ghosts.transfers.len());
            plan.fluxes.start.push(plan.fluxes.transfers.len());
        }
        // The flux-correction half of the direct-fill invariant: no face of
        // any block is both corrected (written) and a source of corrections
        // (read), so one worker may correct a block while another reads it.
        debug_assert!(
            plan.corrected.iter().zip(&sources).all(|(w, r)| w & r == 0),
            "a block face is both corrected and a source of corrections"
        );
        plan
    }
}

fn record_lookups(data: &mut BlockData, rec: &mut Recorder) {
    let lookups = data.take_string_lookups();
    if lookups > 0 {
        rec.record_serial(
            StepFunction::SendBoundBufs,
            SerialWork::StringLookups(lookups),
        );
    }
}

/// In-flight state of one ghost exchange between its pack/send and
/// wait/unpack phases.
#[derive(Debug, Default)]
pub struct GhostExchangeState {
    flight: Flight,
    /// Remote payload bytes currently held in MPI buffers.
    remote_bytes_live: i64,
}

/// Routes every boundary, accounts the receives (`StartReceiveBoundBufs`),
/// packs the mailbox-bound buffers in parallel (pure reads of the sender
/// blocks) and streams those sends serially in key order
/// (`SendBoundBufs`). Direct boundaries move nothing yet: the receiver's
/// [`ghost_visit`] fills them. Returns the in-flight state that
/// [`ghost_poll`] completes and [`ghost_retire`] retires.
pub fn ghost_pack_and_send(
    plan: &ExchangePlan,
    blocks: &BlockTable<'_>,
    comm: &mut Communicator,
    cache: &mut BufferCache,
    cfg: &ExchangeConfig,
    exec: ExecCtx,
    rec: &mut Recorder,
) -> GhostExchangeState {
    let wall = rec.wall().clone();
    let lane = &plan.ghosts;
    let mut flight = lane.unpark();
    {
        let _g = wall.region_hot(RegionKey::Step(StepFunction::StartReceiveBoundBufs));
        flight.open(&lane.transfers, blocks, comm);
        rec.record_serial(
            StepFunction::StartReceiveBoundBufs,
            SerialWork::BoundaryLoop(flight.receives),
        );
    }

    let _send_guard = wall.region(RegionKey::Step(StepFunction::SendBoundBufs));
    let consumed = lane.transfers.iter().zip(&flight.routes);
    cache.initialize(
        consumed
            .filter(|(_, route)| route.receiver_here())
            .map(|(t, _)| t.key),
        &cfg.cache_config,
        rec,
    );
    let func = StepFunction::SendBoundBufs;
    let remote_bytes_live = flight.ship(&lane.transfers, comm, func, exec, rec, |b, buf| {
        lane.pack(b, blocks, buf)
    });
    rec.record_alloc(MemSpace::MpiBuffers, remote_bytes_live);
    for &cells in flight.sent_cells.iter().filter(|&&cells| cells > 0) {
        catalog::SEND_BOUND_BUFS.record(rec, cells, 1.0);
    }
    GhostExchangeState {
        flight,
        remote_bytes_live,
    }
}

/// One delivery sweep (`ReceiveBoundBufs`): probes every still-pending
/// boundary once, banking arrivals. Returns `true` once every message has
/// landed — on the first sweep wherever every sender is resident, since
/// direct boundaries wait for nothing; only a message from a peer endpoint
/// that has not arrived yet leaves the sweep incomplete.
pub fn ghost_poll(
    state: &mut GhostExchangeState,
    comm: &mut Communicator,
    rec: &mut Recorder,
) -> bool {
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::ReceiveBoundBufs));
    state.flight.poll(comm, rec)
}

/// Which ghost cells a stage visit fills directly.
///
/// Until the next stage's fill only the dimension-by-dimension sweep reads
/// ghosts, and it reads only face ghosts within the stencil radius of the
/// interior. So every stage but the last of a cycle fills that *stencil
/// halo* alone, and the last stage fills the whole shell: everything that
/// observes a whole array — fingerprints, snapshots, regrid, refinement
/// tagging — runs at a cycle boundary, after that full fill, and sees the
/// bits a full fill in every stage would leave. Delivered payloads are always unpacked whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostFill {
    /// Face ghosts within the plan's stencil radius of the interior
    /// ([`RowProgram::fill_halo`]); the edges, corners and deeper face
    /// layers — the *outer shell* — keep their values (debug builds write
    /// [`vibe_field::buffer::SKIPPED`] there).
    Halo,
    /// Every ghost cell.
    Full,
}

/// What a stage visit does with a block once its ghosts are filled: the
/// block's metadata, its container — borrowed shared — and the flux outputs
/// of its flux-bearing variables in registration order.
pub type VisitSweep<'a> = &'a (dyn Fn(&BlockInfo, &BlockData, &mut [FluxOut]) + Sync);

/// One block of a stage visit: what its worker borrows of it and what it
/// owns outright for the dispatch.
struct Visited<'a> {
    info: &'a BlockInfo,
    data: SharedCells<'a, BlockData>,
    out: &'a mut [FluxOut],
    stage0: &'a mut Vec<Vec<f64>>,
    /// Nanoseconds the fill side, the stage copy and the sweep took.
    ns: [u64; 3],
}

/// The stage visit (`SetBounds`, and `CalculateFluxes` with a `sweep`): in
/// parallel over the resident blocks of one `phase` — `Interior`, the ones
/// whose every inbound boundary is direct, which need nothing the mailbox
/// delivers; `Exterior`, the rest, once [`ghost_poll`] reported completion
/// — one worker per block fills its direct boundaries straight from the
/// senders' interiors (the cells `fill` names), unpacks its delivered
/// buffers, takes its stage copy if `save`, and while the block is still
/// in cache runs `sweep` on it. A [`GhostFill::Halo`] visit leaves the
/// outer shell to the next full fill; only values that fill recomputes
/// may be derived from it in between.
/// Nothing writes an interior cell between the pack/send phase and the end
/// of the stage's visits, so reading a sender now yields the bits packing
/// it then would have; one block's boundaries fill disjoint cells; and a
/// block's fill and sweep touch nothing another block's do (see
/// [`Rows`]): the result is the same bits in any visiting order at any
/// thread count.
///
/// The dispatch's wall time is credited to `SetBounds`, `SaveStage0` (if
/// `save`) and `CalculateFluxes` (with a `sweep`) in proportion to the
/// summed per-block times of the fill, the copy and the sweep, and `cost`,
/// if given (indexed by gid), is charged each block's own sweep time.
#[allow(clippy::too_many_arguments)]
pub fn ghost_visit(
    plan: &ExchangePlan,
    state: &GhostExchangeState,
    blocks: &mut BlockTable<'_>,
    phase: FluxPhase,
    fill: GhostFill,
    save: bool,
    sweep: Option<VisitSweep<'_>>,
    cost: Option<&mut [u64]>,
    exec: ExecCtx,
    wall: &WallClock,
) {
    let (lane, flight, radius) = (&plan.ghosts, &state.flight, plan.radius);
    assert!(
        phase == FluxPhase::Interior || flight.pending.is_empty(),
        "every boundary message delivered"
    );
    let visited = |gid: usize| flight.awaits[gid] == (phase == FluxPhase::Exterior);
    if !blocks.slots.iter().any(|slot| visited(slot.info.gid)) {
        return;
    }
    let start = Instant::now();
    let swept: &[VarId] = if sweep.is_some() { &plan.flux_ids } else { &[] };
    // What the sweep writes leaves the visited blocks for the dispatch.
    let mut outs: Vec<FluxOut> = Vec::with_capacity(blocks.slots.len() * swept.len());
    for slot in blocks.slots.iter_mut().filter(|s| visited(s.info.gid)) {
        let take = |&id| slot.data.var_mut(id).take_flux_out();
        outs.extend(swept.iter().map(take));
    }
    let (mut rest, mut containers, mut items) = (&mut outs[..], Vec::new(), Vec::new());
    for BlockSlot { info, data, stage0 } in blocks.slots.iter_mut() {
        let data = SharedCells::new(std::slice::from_mut(data));
        containers.push((info.gid, data));
        if visited(info.gid) {
            let (out, tail) = rest.split_at_mut(swept.len());
            rest = tail;
            let ns = [0; 3];
            items.push(Visited {
                info,
                data,
                out,
                stage0,
                ns,
            });
        }
    }
    let residents = containers.iter().map(|(gid, data)| {
        // SAFETY: no worker runs yet, and `containers` holds the only
        // handle to each resident container.
        (*gid, unsafe { &mut data.write(0, 1)[0] })
    });
    let views = lane.views(residents);

    exec.for_each_block(&mut items, |_, block| {
        let t0 = Instant::now();
        let gid = block.info.gid;
        let direct =
            |prog: &RowProgram, ncomp, src: &Rows<'_>, dst: &mut Rows<'_>, scratch: &mut _| {
                match fill {
                    GhostFill::Halo => prog.fill_halo(radius, ncomp, src, dst, scratch),
                    GhostFill::Full => prog.fill(ncomp, src, dst, scratch),
                }
            };
        SCRATCH.with_borrow_mut(|scratch| {
            lane.receive(gid, flight, &views, |_| true, direct, scratch);
        });
        // SAFETY: the claiming worker's shared borrow of its block's
        // container: other workers only read the interior cells of its
        // arrays, through `views`, and this worker's ghost writes are done.
        let data = unsafe { &block.data.read(0, 1)[0] };
        let t1 = Instant::now();
        let t2 = if save {
            save_stage0(data, &plan.two_stage_ids, block.stage0);
            Instant::now()
        } else {
            t1
        };
        if let Some(sweep) = sweep {
            sweep(block.info, data, block.out);
        }
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        block.ns = [ns(t0, t1), ns(t1, t2), t2.elapsed().as_nanos() as u64];
    });

    let mut sums = [0u64; 3];
    let mut cost = cost;
    for block in &items {
        for (sum, part) in sums.iter_mut().zip(block.ns) {
            *sum += part;
        }
        if let Some(cost) = cost.as_deref_mut() {
            cost[block.info.gid] += block.ns[2];
        }
    }
    drop((items, views));
    let mut outs = outs.into_iter();
    for slot in blocks.slots.iter_mut().filter(|s| visited(s.info.gid)) {
        for (&id, out) in swept.iter().zip(&mut outs) {
            slot.data.var_mut(id).put_flux_out(out);
        }
    }
    // The fill takes the rounding remainder, and the sweep's share too
    // when there is no sweep, so the credits tile the wall time.
    let wall_ns = start.elapsed().as_nanos() as u64;
    let busy = sums.iter().sum::<u64>().max(1) as u128;
    let share = |part: u64| (wall_ns as u128 * part as u128 / busy) as u64;
    let copy_ns = share(sums[1]);
    let sweep_ns = if sweep.is_some() { share(sums[2]) } else { 0 };
    let (bounds, fluxes) = (StepFunction::SetBounds, StepFunction::CalculateFluxes);
    let credits = [
        (RegionKey::Step(bounds), true, wall_ns - copy_ns - sweep_ns),
        (RegionKey::Named("SaveStage0"), save, copy_ns),
        (RegionKey::Step(fluxes), sweep.is_some(), sweep_ns),
    ];
    let mut at = start;
    for (key, _, part) in credits.into_iter().filter(|credit| credit.1) {
        wall.credit(key, at, part);
        at += std::time::Duration::from_nanos(part);
    }
}

/// Retires a completed exchange (the tail of the ExteriorFlux node):
/// recycles the consumed payloads, accounts the `SetBounds` launches and
/// boundary loop, and releases the exchange's MPI buffer memory.
///
/// # Panics
///
/// Panics unless [`ghost_poll`] reported completion for `state`.
pub fn ghost_retire(plan: &ExchangePlan, state: GhostExchangeState, rec: &mut Recorder) {
    let mut flight = state.flight;
    assert!(
        flight.pending.is_empty(),
        "every boundary message delivered"
    );
    flight.recycle();
    for &cells in flight.received_cells.iter().filter(|&&cells| cells > 0) {
        catalog::SET_BOUNDS.record(rec, cells, 1.0);
    }
    rec.record_serial(
        StepFunction::SetBounds,
        SerialWork::BoundaryLoop(flight.receives),
    );
    rec.record_alloc(MemSpace::MpiBuffers, -state.remote_bytes_live);
    plan.ghosts.park(flight);
}

/// Runs the pack/send → poll → visit → retire phases back-to-back with a
/// prebuilt plan and no sweep. This is the non-overlapping path
/// (initialization and direct callers, every sender resident); the cycle
/// path schedules the same phases as separate tasks so compute proceeds
/// while messages are in flight.
///
/// # Panics
///
/// Panics if a boundary message has not arrived after one delivery sweep:
/// this call blocks the thread a sender would have to run on.
pub fn exchange_ghosts_with_plan(
    plan: &ExchangePlan,
    blocks: &mut BlockTable<'_>,
    comm: &mut Communicator,
    cache: &mut BufferCache,
    cfg: &ExchangeConfig,
    exec: ExecCtx,
    rec: &mut Recorder,
) {
    let wall = rec.wall().clone();
    let mut state = ghost_pack_and_send(plan, &*blocks, comm, cache, cfg, exec, rec);
    assert!(
        ghost_poll(&mut state, comm, rec),
        "a one-shot ghost exchange waits on a message not yet sent"
    );
    for phase in [FluxPhase::Interior, FluxPhase::Exterior] {
        let full = GhostFill::Full;
        ghost_visit(
            plan, &state, blocks, phase, full, false, None, None, exec, &wall,
        );
    }
    ghost_retire(plan, state, rec);
}

/// In-flight state of one flux-correction round between its send and
/// apply phases.
#[derive(Debug, Default)]
pub struct FluxCorrState {
    flight: Flight,
}

/// Routes every fine→coarse transfer (`FluxCorrection`): the mailbox-bound
/// ones are packed in parallel (pure reads) and sent serially in face
/// order; then the direct ones restrict the fine block's face plane
/// straight into the coarse block's, in parallel over receivers — the
/// planes are final by now, and no corrected face is anyone's source.
pub fn flux_corr_send(
    plan: &ExchangePlan,
    blocks: &mut BlockTable<'_>,
    comm: &mut Communicator,
    exec: ExecCtx,
    rec: &mut Recorder,
) -> FluxCorrState {
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::FluxCorrection));
    let lane = &plan.fluxes;
    let mut flight = lane.unpark();
    flight.open(&lane.transfers, &*blocks, comm);
    let func = StepFunction::FluxCorrection;
    {
        let blocks = &*blocks;
        flight.ship(&lane.transfers, comm, func, exec, rec, |b, buf| {
            lane.pack(b, blocks, buf)
        });
    }
    if flight.direct > 0 {
        lane.receive_all(&flight, blocks, exec, |route| route == Route::Direct);
    }
    FluxCorrState { flight }
}

/// The body of a FluxCorrApply task: one delivery sweep over the pending
/// corrections; once every one has arrived, overwrites the coarse planes
/// with the delivered restricted fine fluxes, in parallel over receiver
/// blocks (the direct corrections were applied by [`flux_corr_send`]), and
/// retires `state`.
pub fn flux_corr_apply(
    plan: &ExchangePlan,
    state: &mut FluxCorrState,
    blocks: &mut BlockTable<'_>,
    comm: &mut Communicator,
    exec: ExecCtx,
    rec: &mut Recorder,
) -> TaskStatus {
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::FluxCorrection));
    if !state.flight.poll(comm, rec) {
        return TaskStatus::Incomplete;
    }
    let mut flight = std::mem::take(state).flight;
    if !flight.mailed.is_empty() {
        let delivered = |route| route != Route::Direct;
        plan.fluxes.receive_all(&flight, blocks, exec, delivered);
    }
    flight.recycle();
    plan.fluxes.park(flight);
    TaskStatus::Complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockInfo, BlockSlot};
    use vibe_field::BlockData;
    use vibe_mesh::{enforce_proper_nesting, AmrFlag, MeshParams};

    /// One full ghost exchange of every [`Metadata::FILL_GHOST`] variable
    /// over `slots`, every block of `mesh` in gid order, with a one-shot
    /// [`ExchangePlan`].
    fn exchange_ghosts(
        mesh: &Mesh,
        slots: &mut [BlockSlot],
        comm: &mut Communicator,
        cache: &mut BufferCache,
        cfg: &ExchangeConfig,
        exec: ExecCtx,
        rec: &mut Recorder,
    ) {
        let containers = slots.iter_mut().map(|s| &mut s.data);
        let radius = mesh.index_shape().nghost();
        let plan = ExchangePlan::build(mesh, containers, cfg, radius, rec);
        let index = resident_index(slots, mesh.num_blocks());
        let mut blocks = BlockTable::of(slots, &index, mesh);
        exchange_ghosts_with_plan(&plan, &mut blocks, comm, cache, cfg, exec, rec);
    }

    /// One fine→coarse flux correction over `slots`, every block of
    /// `mesh`, with a one-shot [`ExchangePlan`]: the send and apply phases
    /// back-to-back.
    fn flux_correction(
        mesh: &Mesh,
        slots: &mut [BlockSlot],
        comm: &mut Communicator,
        exec: ExecCtx,
        rec: &mut Recorder,
    ) {
        let cfg = ExchangeConfig::default();
        let containers = slots.iter_mut().map(|s| &mut s.data);
        let radius = mesh.index_shape().nghost();
        let plan = ExchangePlan::build(mesh, containers, &cfg, radius, rec);
        let index = resident_index(slots, mesh.num_blocks());
        let blocks = &mut BlockTable::of(slots, &index, mesh);
        let mut state = flux_corr_send(&plan, blocks, comm, exec, rec);
        assert_eq!(
            flux_corr_apply(&plan, &mut state, blocks, comm, exec, rec),
            TaskStatus::Complete,
            "a one-shot flux correction waits on a message not yet sent"
        );
    }

    fn build(mesh: &Mesh, ncomp: usize) -> Vec<BlockSlot> {
        (0..mesh.num_blocks())
            .map(|gid| {
                let mut data = BlockData::new(mesh.index_shape());
                data.add_variable(
                    "q",
                    ncomp,
                    Metadata::INDEPENDENT | Metadata::FILL_GHOST | Metadata::WITH_FLUXES,
                );
                BlockSlot::new(BlockInfo::from_mesh(mesh, gid), data)
            })
            .collect()
    }

    fn uniform_mesh() -> Mesh {
        Mesh::new(
            MeshParams::builder()
                .dim(2)
                .mesh_cells(32)
                .block_cells(8)
                .max_levels(2)
                .nghost(2)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    /// Fill every block's interior with a global linear function; after the
    /// exchange, ghost cells must continue the same function.
    #[test]
    fn ghost_exchange_reproduces_linear_field_same_level() {
        let mesh = uniform_mesh();
        let mut slots = build(&mesh, 1);
        for slot in &mut slots {
            let geom = slot.info.geom;
            let shape = *slot.data.shape();
            let qid = slot.data.id_of("q").unwrap();
            let var = slot.data.var_mut(qid);
            for k in 0..shape.entire_d(2) {
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        let c = geom.cell_center(
                            i as i64 - shape.nghost_d(0) as i64,
                            j as i64 - shape.nghost_d(1) as i64,
                            k as i64 - shape.nghost_d(2) as i64,
                        );
                        // Interior only; ghosts start poisoned.
                        let interior = (shape.nghost_d(0)..shape.nghost_d(0) + shape.ncells()[0])
                            .contains(&i)
                            && (shape.nghost_d(1)..shape.nghost_d(1) + shape.ncells()[1])
                                .contains(&j);
                        let v = 2.0 * c[0] + 3.0 * c[1];
                        var.data_mut()
                            .set(0, k, j, i, if interior { v } else { -999.0 });
                    }
                }
            }
        }
        let mut comm = Communicator::new(1);
        let mut cache = BufferCache::new();
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        exchange_ghosts(
            &mesh,
            &mut slots,
            &mut comm,
            &mut cache,
            &ExchangeConfig::default(),
            ExecCtx::serial(),
            &mut rec,
        );
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);

        // Check interior-adjacent ghost cells on an interior block (gid of
        // block at (1,1)): they must match the linear field (periodic wrap
        // introduces discontinuity only at domain edges).
        let gid = mesh
            .gid_at(&vibe_mesh::LogicalLocation::new(0, 1, 1, 0))
            .unwrap();
        let slot = &slots[gid];
        let shape = *slot.data.shape();
        let geom = slot.info.geom;
        let var = slot.data.vars().first().unwrap();
        for (i, j) in [(0usize, 4usize), (11, 4), (4, 0), (4, 11), (1, 1)] {
            let c = geom.cell_center(
                i as i64 - shape.nghost_d(0) as i64,
                j as i64 - shape.nghost_d(1) as i64,
                0,
            );
            let want = 2.0 * c[0] + 3.0 * c[1];
            let got = var.data().get(0, 0, j, i);
            assert!(
                (got - want).abs() < 1e-12,
                "ghost ({i},{j}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn exchange_records_workload() {
        let mesh = uniform_mesh();
        let mut slots = build(&mesh, 2);
        let mut comm = Communicator::new(4);
        // Re-rank the slots to the mesh's 4-rank balance.
        let mut mesh = mesh;
        mesh.load_balance(4);
        for (gid, slot) in slots.iter_mut().enumerate() {
            slot.info.rank = mesh.block(gid).rank();
        }
        let mut cache = BufferCache::new();
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        exchange_ghosts(
            &mesh,
            &mut slots,
            &mut comm,
            &mut cache,
            &ExchangeConfig::default(),
            ExecCtx::serial(),
            &mut rec,
        );
        rec.end_cycle(16, 0, 0, 0);
        let totals = rec.totals();
        // 16 blocks x 8 neighbors = 128 boundaries.
        let comm_t = &totals.comm[&StepFunction::SendBoundBufs];
        assert_eq!(comm_t.p2p_local_messages + comm_t.p2p_remote_messages, 128);
        assert!(comm_t.p2p_remote_messages > 0, "4 ranks => remote traffic");
        assert!(comm_t.cells_communicated > 0);
        // Pack/unpack kernels recorded per rank.
        let send_k = &totals.kernels[&(StepFunction::SendBoundBufs, "SendBoundBufs")];
        assert_eq!(send_k.launches, 4);
        let set_k = &totals.kernels[&(StepFunction::SetBounds, "SetBounds")];
        assert_eq!(set_k.launches, 4);
        // MPI buffer memory returns to zero after SetBounds.
        assert_eq!(rec.mem_current(MemSpace::MpiBuffers), 0);
        assert!(rec.mem_peak(MemSpace::MpiBuffers) > 0);
    }

    #[test]
    fn refined_mesh_exchange_constant_field_exact() {
        let mut mesh = uniform_mesh();
        let loc = mesh.block(5).loc();
        let flags = [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(mesh.tree(), &flags);
        mesh.regrid(&d).unwrap();
        let mut slots = build(&mesh, 1);
        for slot in &mut slots {
            let qid = slot.data.id_of("q").unwrap();
            slot.data.var_mut(qid).data_mut().fill(7.25);
        }
        let mut comm = Communicator::new(1);
        let mut cache = BufferCache::new();
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        exchange_ghosts(
            &mesh,
            &mut slots,
            &mut comm,
            &mut cache,
            &ExchangeConfig::default(),
            ExecCtx::serial(),
            &mut rec,
        );
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
        for slot in &slots {
            let var = &slot.data.vars()[0];
            for v in var.data().as_slice() {
                assert!((v - 7.25).abs() < 1e-13, "constant preserved everywhere");
            }
        }
    }

    #[test]
    fn flux_correction_overwrites_coarse_faces() {
        let mut mesh = uniform_mesh();
        let loc = mesh.block(0).loc();
        let flags = [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(mesh.tree(), &flags);
        mesh.regrid(&d).unwrap();
        let mut slots = build(&mesh, 1);
        // Fine blocks carry x-flux 2.0; coarse blocks 1.0.
        for slot in &mut slots {
            let level = slot.info.level;
            let qid = slot.data.id_of("q").unwrap();
            for fx in &mut slot.data.var_mut(qid).planes_mut()[..2] {
                fx.fill(if level > 0 { 2.0 } else { 1.0 });
            }
        }
        let mut comm = Communicator::new(1);
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        flux_correction(&mesh, &mut slots, &mut comm, ExecCtx::serial(), &mut rec);
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);

        // The coarse block at +x of the refined region must now carry the
        // restricted fine flux (2.0) on its low-x face.
        let coarse_gid = mesh
            .gid_at(&vibe_mesh::LogicalLocation::new(0, 1, 0, 0))
            .unwrap();
        let planes = slots[coarse_gid].data.vars()[0].planes();
        // Every tangential cell of the low-x face.
        for j in 0..8 {
            let got = planes[0].get(0, 0, j, 0);
            assert!((got - 2.0).abs() < 1e-13, "corrected flux, got {got}");
        }
        // The opposite face is untouched.
        assert!(planes[1].as_slice().iter().all(|&v| v == 1.0));
        // Workload recorded under FluxCorrection.
        let c = &rec.totals().comm[&StepFunction::FluxCorrection];
        assert!(c.cells_communicated > 0);
    }

    #[test]
    fn disabling_restrict_on_send_inflates_fine_to_coarse_traffic() {
        let mut mesh = uniform_mesh();
        let loc = mesh.block(5).loc();
        let flags = [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(mesh.tree(), &flags);
        mesh.regrid(&d).unwrap();

        let cells = |restrict: bool| {
            let mut slots = build(&mesh, 1);
            for slot in &mut slots {
                let qid = slot.data.id_of("q").unwrap();
                slot.data.var_mut(qid).data_mut().fill(1.5);
            }
            let mut comm = Communicator::new(1);
            let mut cache = BufferCache::new();
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            let cfg = ExchangeConfig {
                restrict_on_send: restrict,
                ..ExchangeConfig::default()
            };
            exchange_ghosts(
                &mesh,
                &mut slots,
                &mut comm,
                &mut cache,
                &cfg,
                ExecCtx::serial(),
                &mut rec,
            );
            rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
            // Constant field stays exact under receiver-side averaging too.
            for slot in &slots {
                for v in slot.data.vars()[0].data().as_slice() {
                    assert!((v - 1.5).abs() < 1e-13);
                }
            }
            rec.totals().comm[&StepFunction::SendBoundBufs].cells_communicated
        };
        let with = cells(true);
        let without = cells(false);
        assert!(
            without > with,
            "unrestricted sends move more cells: {without} vs {with}"
        );
    }

    /// The split phases driven separately on a two-endpoint fabric, in
    /// another order than the one-shot exchange runs them, must be
    /// indistinguishable from the one-shot exchange on one endpoint: same
    /// ghost values, same message totals.
    #[test]
    fn phased_exchange_matches_one_shot() {
        let mesh = balanced(&uniform_mesh(), 2);
        let fresh = || {
            let mut slots = build(&mesh, 1);
            for slot in slots.iter_mut() {
                let qid = slot.data.id_of("q").unwrap();
                let shape = *slot.data.shape();
                let var = slot.data.var_mut(qid);
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        var.data_mut()
                            .set(0, 0, j, i, (i as f64 * 1.7 + j as f64 * 0.3).sin());
                    }
                }
            }
            slots
        };
        let (cfg, exec) = (ExchangeConfig::default(), ExecCtx::serial());
        let run = |phased: bool| {
            let mut slots = fresh();
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            if phased {
                // Every delivery first, then both visits, the delivered
                // blocks before the direct ones.
                let mut fabric = Fabric::split(&mesh, slots, &cfg, 2, &mut rec);
                let phases = [FluxPhase::Exterior, FluxPhase::Interior];
                let fill = GhostFill::Full;
                fabric.exchange_ghosts(&mesh, &cfg, exec, &mut rec, phases, fill, false, None);
                slots = fabric.join();
            } else {
                let mut comm = Communicator::new(2);
                let containers = slots.iter_mut().map(|s| &mut s.data);
                let plan = ExchangePlan::build(&mesh, containers, &cfg, 2, &mut rec);
                let index = resident_index(&slots, mesh.num_blocks());
                let mut blocks = BlockTable::of(&mut slots, &index, &mesh);
                let mut cache = BufferCache::new();
                exchange_ghosts_with_plan(
                    &plan,
                    &mut blocks,
                    &mut comm,
                    &mut cache,
                    &cfg,
                    exec,
                    &mut rec,
                );
            }
            rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
            let ghosts: Vec<f64> = slots
                .iter()
                .flat_map(|s| s.data.vars()[0].data().as_slice().to_vec())
                .collect();
            let t = rec.totals().comm[&StepFunction::SendBoundBufs].clone();
            (ghosts, (t.p2p_local_messages, t.p2p_remote_messages))
        };
        let (a_ghosts, a_msgs) = run(true);
        let (b_ghosts, b_msgs) = run(false);
        assert!(a_msgs.0 > 0 && a_msgs.1 > 0, "both kinds of boundary");
        assert_eq!(a_msgs, b_msgs);
        assert!(a_ghosts == b_ghosts, "bitwise identical ghost fill");
    }

    /// A 3-D mesh with one refined block: every transfer mode occurs, and
    /// the small periodic base grid makes blocks neighbors of themselves
    /// across the wrap.
    fn refined_mesh_3d() -> Mesh {
        let mut mesh = Mesh::new(
            MeshParams::builder()
                .dim(3)
                .mesh_cells(16)
                .block_cells(8)
                .max_levels(2)
                .nghost(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        let flags = [(mesh.block(3).loc(), AmrFlag::Refine)]
            .into_iter()
            .collect();
        let d = enforce_proper_nesting(mesh.tree(), &flags);
        mesh.regrid(&d).unwrap();
        mesh
    }

    /// Two exchanged variables (3 and `ncomp` components), every cell of
    /// data and face planes a distinct value.
    fn build_varied(mesh: &Mesh, ncomp: usize) -> Vec<BlockSlot> {
        let flags = Metadata::INDEPENDENT
            | Metadata::FILL_GHOST
            | Metadata::WITH_FLUXES
            | Metadata::TWO_STAGE;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..mesh.num_blocks())
            .map(|gid| {
                let mut data = BlockData::new(mesh.index_shape());
                data.add_variable("u", 3, flags);
                data.add_variable("q", ncomp, flags);
                for var in data.vars_mut() {
                    var.data_mut().as_mut_slice().fill_with(&mut next);
                    for plane in var.planes_mut() {
                        plane.as_mut_slice().fill_with(&mut next);
                    }
                }
                BlockSlot::new(BlockInfo::from_mesh(mesh, gid), data)
            })
            .collect()
    }

    /// Bit patterns of every cell (data, or face planes) of every block.
    fn bits(slots: &[BlockSlot], fluxes: bool) -> Vec<u64> {
        let mut out = Vec::new();
        for var in slots.iter().flat_map(|s| s.data.vars()) {
            let arrays = if fluxes {
                var.planes()
            } else {
                std::slice::from_ref(var.data())
            };
            for a in arrays {
                out.extend(a.as_slice().iter().map(|v| v.to_bits()));
            }
        }
        out
    }

    /// `mesh` balanced over `nranks` ranks — everything on rank 0, a
    /// 4-rank balance, or one rank per block — so that the blocks built
    /// from it carry those labels.
    fn balanced(mesh: &Mesh, nranks: usize) -> Mesh {
        let mut mesh = mesh.clone();
        mesh.load_balance(nranks);
        mesh
    }

    /// Blocks split by rank label over the endpoints of a channel fabric,
    /// each endpoint with its plan and communicator, driven in sequence on
    /// one thread (the fabric's queues make that legal): every boundary
    /// between two endpoints goes through the mailbox.
    struct Fabric {
        parts: Vec<Vec<BlockSlot>>,
        index: Vec<Vec<usize>>,
        plans: Vec<ExchangePlan>,
        comms: Vec<Communicator>,
    }

    impl Fabric {
        /// `slots` on one endpoint per rank label, in their given order,
        /// with plans for a stencil of `radius`.
        fn split(
            mesh: &Mesh,
            slots: Vec<BlockSlot>,
            cfg: &ExchangeConfig,
            radius: usize,
            rec: &mut Recorder,
        ) -> Self {
            let nranks = 1 + slots.iter().map(|s| s.info.rank).max().unwrap();
            let mut parts: Vec<Vec<BlockSlot>> = (0..nranks).map(|_| Vec::new()).collect();
            for slot in slots {
                parts[slot.info.rank].push(slot);
            }
            let index = parts
                .iter()
                .map(|part| resident_index(part, mesh.num_blocks()))
                .collect();
            let plans = parts
                .iter_mut()
                .map(|part| {
                    ExchangePlan::build(
                        mesh,
                        part.iter_mut().map(|s| &mut s.data),
                        cfg,
                        radius,
                        rec,
                    )
                })
                .collect();
            let comms = vibe_comm::channel_fabric(nranks)
                .into_iter()
                .map(|t| Communicator::with_transport(nranks, Box::new(t)))
                .collect();
            Self {
                parts,
                index,
                plans,
                comms,
            }
        }

        /// Every block back in one list, in gid order.
        fn join(self) -> Vec<BlockSlot> {
            let mut slots: Vec<BlockSlot> = self.parts.into_iter().flatten().collect();
            slots.sort_by_key(|slot| slot.info.gid);
            slots
        }

        /// One ghost exchange: every endpoint packs and sends, then each in
        /// turn polls once — every message has been sent by then — visits
        /// its blocks phase by phase and retires. Returns how many blocks
        /// waited for a delivery.
        #[allow(clippy::too_many_arguments)]
        fn exchange_ghosts(
            &mut self,
            mesh: &Mesh,
            cfg: &ExchangeConfig,
            exec: ExecCtx,
            rec: &mut Recorder,
            phases: [FluxPhase; 2],
            fill: GhostFill,
            save: bool,
            sweep: Option<VisitSweep<'_>>,
        ) -> usize {
            let mut cache = BufferCache::new();
            let mut states = Vec::new();
            for (r, part) in self.parts.iter_mut().enumerate() {
                let blocks = BlockTable::of(part, &self.index[r], mesh);
                let comm = &mut self.comms[r];
                let plan = &self.plans[r];
                states.push(ghost_pack_and_send(
                    plan, &blocks, comm, &mut cache, cfg, exec, rec,
                ));
            }
            let (wall, mut waited) = (WallClock::default(), 0);
            for (r, mut state) in states.into_iter().enumerate() {
                let (plan, comm) = (&self.plans[r], &mut self.comms[r]);
                waited += state.flight.awaits.iter().filter(|w| **w).count();
                assert!(ghost_poll(&mut state, comm, rec), "every message was sent");
                let mut blocks = BlockTable::of(&mut self.parts[r], &self.index[r], mesh);
                for phase in phases {
                    ghost_visit(
                        plan,
                        &state,
                        &mut blocks,
                        phase,
                        fill,
                        save,
                        sweep,
                        None,
                        exec,
                        &wall,
                    );
                }
                ghost_retire(plan, state, rec);
            }
            waited
        }

        /// One flux-correction round: every endpoint sends, then each in
        /// turn applies.
        fn flux_correction(&mut self, mesh: &Mesh, exec: ExecCtx, rec: &mut Recorder) {
            let mut states = Vec::new();
            for (r, part) in self.parts.iter_mut().enumerate() {
                let blocks = &mut BlockTable::of(part, &self.index[r], mesh);
                states.push(flux_corr_send(
                    &self.plans[r],
                    blocks,
                    &mut self.comms[r],
                    exec,
                    rec,
                ));
            }
            for (r, mut state) in states.into_iter().enumerate() {
                let blocks = &mut BlockTable::of(&mut self.parts[r], &self.index[r], mesh);
                let (plan, comm) = (&self.plans[r], &mut self.comms[r]);
                let status = flux_corr_apply(plan, &mut state, blocks, comm, exec, rec);
                assert_eq!(status, TaskStatus::Complete, "every correction was sent");
            }
        }
    }

    /// What licenses the direct route: for every mode and at any thread
    /// count it leaves exactly the bits the mailbox route leaves, in the
    /// cells it must fill and in the ones it must not touch — whatever the
    /// rank labels of the two blocks.
    #[test]
    fn direct_fill_matches_the_mailbox_route_bitwise() {
        let mesh = refined_mesh_3d();
        let nblocks = mesh.num_blocks();
        for restrict_on_send in [true, false] {
            let cfg = ExchangeConfig {
                restrict_on_send,
                ..ExchangeConfig::default()
            };
            // Every block on one endpoint (all direct), or split over one
            // endpoint per label (direct within a label, mailed across).
            let run = |nranks: usize, fabric: bool, threads: usize| {
                let mesh = balanced(&mesh, nranks);
                let mut slots = build_varied(&mesh, 2);
                let mut rec = Recorder::new();
                rec.begin_cycle(0);
                let exec = ExecCtx::new(threads);
                if fabric {
                    let mut fabric = Fabric::split(&mesh, slots, &cfg, 2, &mut rec);
                    let phases = [FluxPhase::Interior, FluxPhase::Exterior];
                    let fill = GhostFill::Full;
                    fabric.exchange_ghosts(&mesh, &cfg, exec, &mut rec, phases, fill, false, None);
                    slots = fabric.join();
                } else {
                    let mut comm = Communicator::new(nranks);
                    let mut cache = BufferCache::new();
                    exchange_ghosts(
                        &mesh, &mut slots, &mut comm, &mut cache, &cfg, exec, &mut rec,
                    );
                }
                rec.end_cycle(nblocks as u64, 0, 0, 0);
                let t = &rec.totals().comm[&StepFunction::SendBoundBufs];
                (bits(&slots, false), t.p2p_local_messages)
            };
            let (direct, all_local) = run(1, false, 1);
            let (mailed, none_local) = run(nblocks, true, 1);
            assert!(
                all_local > 0 && none_local == 0,
                "the two routes were taken"
            );
            assert!(direct == mailed, "direct fill differs from pack/unpack");
            assert!(direct == run(4, true, 1).0, "mixed routes differ");
            assert!(direct == run(4, false, 1).0, "direct across labels differs");
            assert!(direct == run(1, false, 4).0, "threaded direct fill differs");
            assert!(direct == run(4, true, 3).0, "threaded mixed routes differ");
        }
    }

    /// Same for flux correction: restricting straight into the coarse
    /// block's face planes equals pack/apply through the mailbox.
    #[test]
    fn direct_flux_correction_matches_the_mailbox_route_bitwise() {
        let mesh = refined_mesh_3d();
        let run = |nranks: usize, fabric: bool, threads: usize| {
            let mesh = balanced(&mesh, nranks);
            let mut slots = build_varied(&mesh, 2);
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            let exec = ExecCtx::new(threads);
            if fabric {
                let cfg = ExchangeConfig::default();
                let mut fabric = Fabric::split(&mesh, slots, &cfg, 2, &mut rec);
                fabric.flux_correction(&mesh, exec, &mut rec);
                slots = fabric.join();
            } else {
                let mut comm = Communicator::new(nranks);
                flux_correction(&mesh, &mut slots, &mut comm, exec, &mut rec);
            }
            rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
            assert!(rec.totals().comm[&StepFunction::FluxCorrection].cells_communicated > 0);
            bits(&slots, true)
        };
        let direct = run(1, false, 1);
        assert!(
            direct != bits(&build_varied(&mesh, 2), true),
            "faces corrected"
        );
        assert!(
            direct == run(mesh.num_blocks(), true, 1),
            "direct differs from mailed"
        );
        assert!(direct == run(4, false, 1), "direct across labels differs");
        assert!(direct == run(4, true, 3), "threaded mixed routes differ");
    }

    /// What licenses filling the direct boundaries *before* the delivered
    /// ones: the boundaries of one block fill pairwise disjoint cells, so
    /// the order among them cannot matter.
    #[test]
    fn receive_regions_of_one_block_are_pairwise_disjoint() {
        let mut meshes = vec![refined_mesh_3d(), uniform_mesh()];
        let mut refined_2d = uniform_mesh();
        let flags = [(refined_2d.block(5).loc(), AmrFlag::Refine)]
            .into_iter()
            .collect();
        let d = enforce_proper_nesting(refined_2d.tree(), &flags);
        refined_2d.regrid(&d).unwrap();
        meshes.push(refined_2d);
        for mesh in &meshes {
            let shape = mesh.index_shape();
            for r in 0..mesh.num_blocks() {
                let regions: Vec<vibe_field::Region> = mesh
                    .neighbors(r)
                    .iter()
                    .map(|nb| {
                        let r_loc = mesh.block(r).loc();
                        *compute_buffer_spec_with(&shape, &r_loc, &nb.loc, &nb.offset, true)
                            .recv_region()
                    })
                    .collect();
                for (a, ra) in regions.iter().enumerate() {
                    for rb in &regions[a + 1..] {
                        let overlap = (0..3).all(|d| {
                            ra.range(d).s <= rb.range(d).e && rb.range(d).s <= ra.range(d).e
                        });
                        assert!(!overlap, "block {r}: {ra:?} and {rb:?} overlap");
                    }
                }
            }
        }
    }

    /// What a stage visit leaves in a block: state, divergence, face planes
    /// and stage copy, bit for bit.
    fn visit_bits(slots: &[BlockSlot]) -> Vec<u64> {
        let mut out = bits(slots, false);
        out.extend(swept_bits(slots));
        out
    }

    /// What the sweep of a stage visit leaves: divergence, face planes and
    /// stage copy.
    fn swept_bits(slots: &[BlockSlot]) -> Vec<u64> {
        let mut out = bits(slots, true);
        for slot in slots {
            let divs = slot.data.vars().iter().filter_map(|v| v.div());
            let cells = divs
                .flat_map(|div| div.as_slice())
                .chain(slot.stage0.iter().flatten());
            out.extend(cells.map(|v| v.to_bits()));
        }
        out
    }

    /// The stage visit — fill, stage copy, sweep, one block at a time —
    /// leaves the bits of a global fill followed by a global sweep, in any
    /// block order at any thread count: on a 3-D refined mesh under three
    /// uneven rank labels, all on one endpoint and split over a three-endpoint
    /// fabric, so that direct and delivered ghosts both occur and both
    /// phases have blocks to visit. A halo visit sweeps to the same bits,
    /// and its ghost arrays — halo filled, outer shell skipped (poisoned in
    /// debug builds) — are the same bits in every order at every thread
    /// count.
    #[test]
    fn stage_visit_is_invariant_under_block_order_and_threads() {
        use crate::sweep::{sweep_block, sweep_slot, with_scratch, CellBox};
        use crate::test_package::Advect;
        let params = MeshParams::builder()
            .dim(3)
            .mesh_cells(32)
            .block_cells(8)
            .max_levels(2)
            .nghost(2)
            .build()
            .unwrap();
        let mut mesh = Mesh::new(params).unwrap();
        let mut flags = vec![AmrFlag::Same; mesh.num_blocks()];
        flags[21] = AmrFlag::Refine;
        mesh.regrid(&mesh.proper_nesting(&flags)).unwrap();
        // Ranks 1 and 2 get the last block each: every block of this
        // periodic domain borders more than a third of it, so under an even
        // split none would have only direct boundaries.
        let n = mesh.num_blocks();
        for gid in n - 2..n {
            mesh.set_block_cost(gid, n as f64);
        }
        mesh.load_balance(3);
        let (cfg, pkg, ids) = (
            ExchangeConfig::default(),
            Advect::default(),
            [VarId(0), VarId(1)],
        );
        let budget = crate::sweep::TILE_BUDGET_BYTES / 8;
        let tiles = CellBox::interior(&mesh.index_shape()).tiles(3, 5, budget);
        // One layer of the two-deep shell is halo.
        let radius = crate::Package::stencil_radius(&pkg);
        assert!(radius < mesh.index_shape().nghost());
        let fresh = || build_varied(&mesh, 2);

        // The reference: every ghost of every block, then every block swept.
        let mut reference = fresh();
        let mut comm = Communicator::new(3);
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        let mut cache = BufferCache::new();
        let exec = ExecCtx::serial();
        exchange_ghosts(
            &mesh,
            &mut reference,
            &mut comm,
            &mut cache,
            &cfg,
            exec,
            &mut rec,
        );
        for slot in &mut reference {
            slot.save_stage0(&ids);
            with_scratch(|s| sweep_slot(&pkg, slot, &ids, &tiles, 0, s));
        }
        let want = visit_bits(&reference);
        assert!(want != visit_bits(&fresh()), "the reference moved bits");

        let sweep = |info: &BlockInfo, data: &BlockData, out: &mut [FluxOut]| {
            with_scratch(|s| sweep_block(&pkg, info, data, out, &tiles, 0, s));
        };
        let wall = WallClock::default();
        let mut seed = 0x0dd_ba11_5eed_0022u64;
        // The ghost arrays of the first halo visit, per route set.
        let mut halo_ghosts: [Option<Vec<u64>>; 2] = [None, None];
        let mut check = |fill, route: usize, slots: &[BlockSlot], what: &str| match fill {
            GhostFill::Full => assert!(visit_bits(slots) == want, "{what}"),
            GhostFill::Halo => {
                let want_swept = &want[bits(&reference, false).len()..];
                assert!(swept_bits(slots) == want_swept, "halo sweep, {what}");
                let ghosts = bits(slots, false);
                let first = halo_ghosts[route].get_or_insert_with(|| ghosts.clone());
                assert!(*first == ghosts, "halo ghost arrays, {what}");
            }
        };
        for (order, fill) in ["ascending", "descending", "shuffled"]
            .into_iter()
            .flat_map(|order| [GhostFill::Full, GhostFill::Halo].map(|fill| (order, fill)))
        {
            for threads in [1, 2, 8] {
                let mut slots = fresh();
                match order {
                    "ascending" => {}
                    "descending" => slots.reverse(),
                    _ => {
                        for i in (1..slots.len()).rev() {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            slots.swap(i, (seed >> 11) as usize % (i + 1));
                        }
                    }
                }
                let exec = ExecCtx::new(threads);
                let sweep = Some(&sweep as VisitSweep<'_>);
                let phases = [FluxPhase::Interior, FluxPhase::Exterior];
                let mut fabric = Fabric::split(&mesh, slots.clone(), &cfg, radius, &mut rec);
                let waited =
                    fabric.exchange_ghosts(&mesh, &cfg, exec, &mut rec, phases, fill, true, sweep);
                assert!(
                    0 < waited && waited < mesh.num_blocks(),
                    "both phases visit: some blocks take delivered ghosts, the rest direct ones"
                );
                let what = format!("{order} order, {threads} threads, three endpoints");
                check(fill, 0, &fabric.join(), &what);

                let mut comm = Communicator::new(3);
                let containers = slots.iter_mut().map(|s| &mut s.data);
                let plan = ExchangePlan::build(&mesh, containers, &cfg, radius, &mut rec);
                let index = resident_index(&slots, mesh.num_blocks());
                let mut blocks = BlockTable::of(&mut slots, &index, &mesh);
                let mut state = ghost_pack_and_send(
                    &plan, &blocks, &mut comm, &mut cache, &cfg, exec, &mut rec,
                );
                assert!(state.flight.awaits.iter().all(|w| !w), "all direct");
                assert!(ghost_poll(&mut state, &mut comm, &mut rec));
                for phase in phases {
                    ghost_visit(
                        &plan,
                        &state,
                        &mut blocks,
                        phase,
                        fill,
                        true,
                        sweep,
                        None,
                        exec,
                        &wall,
                    );
                }
                ghost_retire(&plan, state, &mut rec);
                slots.sort_by_key(|slot| slot.info.gid);
                check(
                    fill,
                    1,
                    &slots,
                    &format!("{order} order, {threads} threads, one endpoint"),
                );
            }
        }
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
    }

    /// A visit's wall time is credited three ways, back to back from its
    /// start: the fill to `SetBounds`, the stage copy — only when the
    /// visit takes one — to `SaveStage0`, the sweep to `CalculateFluxes`.
    #[test]
    fn visit_credits_fill_copy_and_sweep_apart() {
        use crate::sweep::{sweep_block, with_scratch, CellBox};
        use crate::test_package::Advect;
        use vibe_prof::ProfLevel;
        let mesh = uniform_mesh();
        let (cfg, pkg) = (ExchangeConfig::default(), Advect::default());
        let radius = crate::Package::stencil_radius(&pkg);
        let budget = crate::sweep::TILE_BUDGET_BYTES / 8;
        let tiles = CellBox::interior(&mesh.index_shape()).tiles(2, 5, budget);
        let sweep = |info: &BlockInfo, data: &BlockData, out: &mut [FluxOut]| {
            with_scratch(|s| sweep_block(&pkg, info, data, out, &tiles, 0, s));
        };
        for (save, fill) in [(true, GhostFill::Halo), (false, GhostFill::Full)] {
            let mut slots = build_varied(&mesh, 2);
            let (mut comm, mut cache) = (Communicator::new(1), BufferCache::new());
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            let containers = slots.iter_mut().map(|s| &mut s.data);
            let plan = ExchangePlan::build(&mesh, containers, &cfg, radius, &mut rec);
            let index = resident_index(&slots, mesh.num_blocks());
            let mut blocks = BlockTable::of(&mut slots, &index, &mesh);
            let exec = ExecCtx::new(2);
            let mut state =
                ghost_pack_and_send(&plan, &blocks, &mut comm, &mut cache, &cfg, exec, &mut rec);
            assert!(ghost_poll(&mut state, &mut comm, &mut rec));
            let wall = WallClock::new(ProfLevel::Full);
            let before = Instant::now();
            for phase in [FluxPhase::Interior, FluxPhase::Exterior] {
                let sweep = Some(&sweep as VisitSweep<'_>);
                ghost_visit(
                    &plan,
                    &state,
                    &mut blocks,
                    phase,
                    fill,
                    save,
                    sweep,
                    None,
                    exec,
                    &wall,
                );
            }
            let outer_ns = before.elapsed().as_nanos() as u64;
            ghost_retire(&plan, state, &mut rec);
            rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);

            let (events, _) = wall.trace_events();
            let names: Vec<&str> = events.iter().map(|e| e.name).collect();
            let want = match save {
                true => &["SetBounds", "SaveStage0", "CalculateFluxes"][..],
                false => &["SetBounds", "CalculateFluxes"][..],
            };
            assert_eq!(names, want, "one visit, save = {save}");
            for pair in events.windows(2) {
                assert_eq!(pair[0].ts_ns + pair[0].dur_ns, pair[1].ts_ns, "{names:?}");
            }
            assert!(events.iter().all(|e| e.dur_ns > 0), "{events:?}");
            let credited: u64 = events.iter().map(|e| e.dur_ns).sum();
            assert!(
                credited <= outer_ns,
                "{credited} ns credited in {outer_ns} ns"
            );
        }
    }

    /// Event logging is gated at the source: with capture off an exchange
    /// leaves the communicator's log empty at every point, with it on the
    /// log reads as if every boundary had gone through the mailbox.
    #[test]
    fn event_capture_is_gated_at_the_source() {
        let mesh = uniform_mesh();
        let exchange = |capture: bool, nranks: usize| {
            let mesh = balanced(&mesh, nranks);
            let mut slots = build(&mesh, 1);
            let mut comm = Communicator::new(nranks);
            comm.set_event_capture(capture);
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            exchange_ghosts(
                &mesh,
                &mut slots,
                &mut comm,
                &mut BufferCache::new(),
                &ExchangeConfig::default(),
                ExecCtx::serial(),
                &mut rec,
            );
            rec.end_cycle(16, 0, 0, 0);
            comm.take_events()
        };
        assert!(exchange(false, 1).is_empty());
        assert!(exchange(false, 4).is_empty());
        for nranks in [1, 4] {
            let events = exchange(true, nranks);
            // 16 blocks x 8 neighbors, each sent and completed.
            assert_eq!(events.len(), 2 * 128);
            assert_eq!(vibe_comm::validate_event_order(&events, 1), Ok(128));
            let sent = events
                .iter()
                .take_while(|e| matches!(e.kind, CommEventKind::Send { .. }))
                .count();
            assert_eq!(sent, 128, "everything is sent before anything completes");
        }
    }

    /// Wire buffers circulate: an endpoint's consumed payloads become its
    /// next sends, so a fabric holds one pool of them, one per mailed
    /// transfer. On a uniform mesh every endpoint sends the lengths it
    /// receives, so once each buffer has grown to the longest transfer the
    /// exchanges allocate nothing more: same buffers, same capacities.
    #[test]
    fn wire_buffers_are_recycled_across_exchanges() {
        let mesh = balanced(&uniform_mesh(), 4);
        let slots = build(&mesh, 2);
        let cfg = ExchangeConfig::default();
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        let mut fabric = Fabric::split(&mesh, slots, &cfg, 2, &mut rec);
        let phases = [FluxPhase::Interior, FluxPhase::Exterior];
        let mut pools = Vec::new();
        for _ in 0..12 {
            let (exec, fill) = (ExecCtx::new(2), GhostFill::Full);
            fabric.exchange_ghosts(&mesh, &cfg, exec, &mut rec, phases, fill, false, None);
            let mut pool: Vec<(*const f64, usize)> = Vec::new();
            for plan in &fabric.plans {
                let parked = plan.ghosts.parked.lock().unwrap();
                assert_eq!(parked.spare.len(), parked.mailed.len());
                assert!(parked.bank.iter().all(Vec::is_empty));
                pool.extend(
                    parked
                        .spare
                        .iter()
                        .map(|buf| (buf.as_ptr(), buf.capacity())),
                );
            }
            pool.sort_unstable();
            pools.push(pool);
        }
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
        assert!(!pools[0].is_empty(), "4 ranks => mailbox traffic");
        let settled = pools.windows(2).position(|w| w[0] == w[1]);
        let settled = settled.expect("the pool settles");
        assert!(pools.len() - settled >= 4, "settled late, at {settled}");
        assert!(
            pools[settled..].windows(2).all(|w| w[0] == w[1]),
            "and stays settled"
        );
    }
}
