//! # vibe-rt
//!
//! The rank-parallel distributed runtime: executes every virtual rank as a
//! **real concurrent shard** — one OS thread per rank, each running the
//! per-cycle task graph over its own blocks only — connected by the
//! channel-backed [`Transport`](vibe_comm::Transport) fabric. This turns
//! the single-process driver's *accounting* of rank communication into an
//! actual distributed-memory execution: ghost exchanges, flux corrections,
//! and block migrations cross real channels; refinement-flag reconciliation
//! and the timestep reduction run as real collectives through the
//! rendezvous hub.
//!
//! The headline invariant (checked in this crate's tests and the CI gate):
//! the merged global solution fingerprint is **bitwise identical** to the
//! single-shard [`Driver`](vibe_core::Driver) for any `(nranks,
//! host_threads)` combination.
//!
//! See [`run_distributed`] for the entry point; this crate's tests show a
//! complete wiring example against the driver as the bitwise reference.
//!
//! A rank that dies is noticed one way: its endpoint leaves the fabric,
//! every peer waiting on it raises [`PeerLost`], and the conductor reports
//! the root cause — classified by panic payload type — as a
//! [`SessionError`]. [`run_resilient`] recovers from it by replaying from
//! the last checkpoint on the surviving ranks.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use vibe_comm::{
    channel_fabric, match_cross_edges, validate_event_order, CommEvent, PeerLost, Transport,
};
use vibe_core::driver::CycleSummary;
use vibe_core::{fingerprint_slots, Driver, Package, ShardOutput, Snapshot};
use vibe_ft::{ChaosTransport, FaultPlan, InjectedKill};
use vibe_prof::{
    attribute_run, build_span_graph, Attribution, CrossEdge, FlowEvent, Recorder, TaskSpan,
    TraceEvent, TraceWriter, WaitProbes,
};

pub mod recovery;
pub use recovery::{run_resilient, RecoveryReport, ResilienceOptions};

/// The merged result of a rank-parallel run.
#[derive(Debug)]
pub struct RtRun {
    /// Rank shards executed.
    pub nranks: usize,
    /// Cycles advanced.
    pub cycles: u64,
    /// FNV-1a fingerprint of the merged global solution (bitwise
    /// comparable against the single-shard driver's).
    pub fingerprint: u64,
    /// Final simulation time.
    pub time: f64,
    /// Final timestep.
    pub dt: f64,
    /// History reductions as (cycle, values) — verified identical on every
    /// rank before being returned.
    pub history: Vec<(u64, Vec<f64>)>,
    /// Rank 0's per-cycle summaries (the mesh census columns are global).
    pub summaries: Vec<CycleSummary>,
    /// Every rank's communication events merged and sorted by the shared
    /// sequence counter, already validated by
    /// [`validate_event_order`].
    pub events: Vec<CommEvent>,
    /// Satisfied send→complete dependency edges in the merged log.
    pub dependency_edges: usize,
    /// All ranks' workload recorders merged
    /// (see [`Recorder::absorb`]).
    pub recorder: Recorder,
    /// Per-rank wall time spent advancing cycles (between the session's
    /// begin and end barriers, inside its `run` commands), in ns.
    pub rank_wall_ns: Vec<u64>,
    /// Final owned-block count per rank.
    pub rank_blocks: Vec<usize>,
    /// Per-rank measured-time trace streams (empty unless the replica was
    /// built with wall-clock profiling on), all on the process-wide span
    /// epoch, so concurrent rank timelines align.
    pub rank_traces: Vec<(usize, Vec<TraceEvent>)>,
    /// Every rank's causal task spans merged and sorted (empty unless the
    /// replica was built with `capture_spans`).
    pub spans: Vec<TaskSpan>,
    /// Matched cross-rank send→complete message edges from the merged
    /// event log.
    pub cross_edges: Vec<CrossEdge>,
    /// Perfetto flow arrows linking each matched send span to the receive
    /// span that consumed its message.
    pub flows: Vec<FlowEvent>,
    /// Per-rank directly measured wait probes (collective blocking,
    /// migration stalls).
    pub wait_probes: Vec<WaitProbes>,
    /// Cross-rank wait-state attribution over the merged activity DAG
    /// (`None` unless the replica was built with `capture_spans`).
    pub attribution: Option<Attribution>,
}

impl RtRun {
    /// Wall time of the slowest rank's cycle loop — the distributed
    /// runtime's time-to-solution.
    pub fn elapsed_ns(&self) -> u64 {
        self.rank_wall_ns.iter().copied().max().unwrap_or(0)
    }

    /// Renders the per-rank wall-clock streams as one Perfetto trace, a
    /// process track per rank (`pid` = rank + 1, named `rank N`), plus one
    /// flow arrow per matched cross-rank message ([`RtRun::flows`], empty
    /// unless both spans and comm events were captured).
    pub fn perfetto_trace_json(&self) -> String {
        let spans: usize = self.rank_traces.iter().map(|(_, evs)| evs.len()).sum();
        let mut w = TraceWriter::new(spans + 2 * self.flows.len());
        for (rank, events) in &self.rank_traces {
            w.process(rank + 1, &format!("rank {rank}"));
            w.events(rank + 1, events);
        }
        for f in &self.flows {
            w.flow(f);
        }
        w.finish()
    }
}

/// Runs `cycles` timesteps with `nranks` concurrent rank shards over a
/// channel transport fabric and merges the results: one [`RtSession`]
/// started, run once and finished.
///
/// `make_replica` builds (and initializes) the whole replica of the
/// problem once, on rank 0's thread, which cuts it and moves every other
/// rank its blocks ([`Driver::into_ranks`]). The driver's `nranks`
/// parameter must equal `nranks` here (the shard constructor asserts
/// this).
///
/// # Panics
///
/// Panics with the root-cause [`SessionError`] if a shard thread panics
/// (e.g. on a collective rendezvous mismatch), if the merged event log
/// violates the multi-rank ordering invariants, or if the ranks disagree
/// on time, dt, or history — all of which indicate a broken determinism
/// invariant rather than a recoverable condition.
pub fn run_distributed<P, F>(nranks: usize, cycles: u64, make_replica: F) -> RtRun
where
    P: Package + Send + 'static,
    F: FnOnce() -> Driver<P> + Send + 'static,
{
    let mut session = RtSession::new(nranks, make_replica);
    session
        .run(cycles)
        .and_then(|_| session.finish())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// A builder for rank `rank`'s OS thread, named `vibe-rt-rank-<rank>` so
/// debuggers, `/proc/self/task/*/comm` and the per-rank Perfetto tracks
/// tell rank threads from pool workers and test-harness threads.
fn rank_thread(rank: usize) -> std::thread::Builder {
    std::thread::Builder::new().name(format!("vibe-rt-rank-{rank}"))
}

/// One rank thread's classified death: who, why, and whether the fault
/// plan did it or it is the consequence of another rank's death.
#[derive(Debug, Clone)]
struct RankFailure {
    rank: usize,
    payload: String,
    injected: bool,
    /// The rank raised [`PeerLost`]: it died because a peer did.
    cascade: bool,
}

impl RankFailure {
    /// Classifies a joined thread's panic value by its type: the fault
    /// layer's [`InjectedKill`] is injected, the fabric's [`PeerLost`] is a
    /// cascade, anything else is an origin.
    fn from_payload(rank: usize, p: &(dyn std::any::Any + Send)) -> Self {
        let (payload, injected, cascade) = if let Some(k) = p.downcast_ref::<InjectedKill>() {
            (k.to_string(), true, false)
        } else if let Some(lost) = p.downcast_ref::<PeerLost>() {
            (lost.to_string(), false, true)
        } else if let Some(s) = p.downcast_ref::<String>() {
            (s.clone(), false, false)
        } else if let Some(s) = p.downcast_ref::<&str>() {
            (s.to_string(), false, false)
        } else {
            ("opaque panic payload".to_string(), false, false)
        };
        Self {
            rank,
            payload,
            injected,
            cascade,
        }
    }
}

/// Picks the root cause out of a set of concurrent rank failures: an
/// injected kill wins, then the first origin, then whatever came first.
/// Returns `None` when nothing failed.
fn pick_root_cause(mut failures: Vec<RankFailure>) -> Option<SessionError> {
    if failures.is_empty() {
        return None;
    }
    let best = failures
        .iter()
        .position(|f| f.injected)
        .or_else(|| failures.iter().position(|f| !f.cascade))
        .unwrap_or(0);
    let f = failures.swap_remove(best);
    Some(SessionError::RankFailed {
        rank: f.rank,
        payload: f.payload,
        injected: f.injected,
    })
}

/// Merges the per-rank shard outputs an [`RtSession`]'s threads hand back
/// into one [`RtRun`]: global gid-ordered slots and their fingerprint, the
/// seq-sorted validated event log, absorbed recorders, the per-rank
/// traces, matched cross edges / flow arrows, and (when spans were
/// captured) the wait-state attribution.
///
/// # Panics
///
/// Panics when the merged outputs violate a determinism invariant: shard
/// ownership not tiling the mesh, a mis-ordered event log, or ranks
/// disagreeing on collective-derived scalars.
fn merge_shard_results(nranks: usize, cycles: u64, mut results: Vec<RankExit>) -> RtRun {
    results.sort_by_key(|(_, _, out)| out.rank);

    // Merge owned blocks back into the global gid order and fingerprint.
    let mut slots: Vec<vibe_core::BlockSlot> = Vec::new();
    let mut rank_blocks = vec![0usize; nranks];
    let mut events: Vec<CommEvent> = Vec::new();
    let mut rank_wall_ns = Vec::with_capacity(nranks);
    let mut rank_traces = Vec::with_capacity(nranks);
    let mut recorder: Option<Recorder> = None;
    let mut spans: Vec<TaskSpan> = Vec::new();
    let mut wait_probes = vec![WaitProbes::default(); nranks];
    for (_, wall_ns, out) in &mut results {
        rank_blocks[out.rank] = out.owned.len();
        rank_wall_ns.push(*wall_ns);
        slots.append(&mut out.owned);
        events.append(&mut out.events);
        wait_probes[out.rank] = out.probes;
        spans.append(&mut out.spans);
        rank_traces.push((out.rank, out.recorder.wall().trace_events().0));
        match recorder.as_mut() {
            Some(merged) => merged.absorb(&out.recorder),
            None => recorder = Some(out.recorder.clone()),
        }
    }
    slots.sort_by_key(|slot| slot.info.gid);
    for (expect, slot) in slots.iter().enumerate() {
        assert_eq!(
            slot.info.gid, expect,
            "merged shard ownership must tile the mesh"
        );
    }
    let fingerprint = fingerprint_slots(&slots);

    events.sort_by_key(|e| e.seq);
    let dependency_edges =
        validate_event_order(&events, nranks).expect("merged multi-rank event log is well ordered");

    // Cross-rank causal attribution: matched send→complete pairs become
    // edges of the merged activity DAG; spans (when captured) yield the
    // critical path, per-rank wait-state buckets, and Perfetto flow arrows.
    let cross_edges = match_cross_edges(&events);
    let mut flows = Vec::new();
    let (attribution, spans) = if spans.is_empty() {
        (None, spans)
    } else {
        let mut end_by_task: HashMap<(usize, u64, &'static str), u64> = HashMap::new();
        for s in &spans {
            let e = end_by_task.entry((s.rank, s.cycle, s.name)).or_insert(0);
            *e = (*e).max(s.end_ns);
        }
        for e in &cross_edges {
            let src = end_by_task.get(&(e.src_rank, e.src_cycle, e.src_task));
            let dst = end_by_task.get(&(e.dst_rank, e.dst_cycle, e.dst_task));
            if let (Some(&src_end), Some(&dst_end)) = (src, dst) {
                flows.push(FlowEvent {
                    id: e.seq,
                    name: e.src_task,
                    src_rank: e.src_rank,
                    // The send span can outlive the receive that consumed
                    // one of its messages (it keeps sending to other
                    // neighbors); clamp so the arrow never runs backwards.
                    src_ts_ns: src_end.min(dst_end),
                    dst_rank: e.dst_rank,
                    dst_ts_ns: dst_end,
                });
            }
        }
        let graph = build_span_graph(spans, &cross_edges);
        let attribution = attribute_run(&graph, &wait_probes, &rank_wall_ns);
        (Some(attribution), graph.spans)
    };

    // Every rank must agree on the collective-derived scalars.
    let (summaries, _, rank0) = &results[0];
    for (_, _, out) in &results[1..] {
        assert_eq!(
            rank0.time.to_bits(),
            out.time.to_bits(),
            "ranks disagree on simulation time"
        );
        assert_eq!(
            rank0.dt.to_bits(),
            out.dt.to_bits(),
            "ranks disagree on the reduced timestep"
        );
        assert_eq!(
            rank0.history.len(),
            out.history.len(),
            "ranks disagree on history length"
        );
        for ((c0, v0), (c1, v1)) in rank0.history.iter().zip(&out.history) {
            assert_eq!(c0, c1, "ranks disagree on history cycles");
            assert_eq!(v0.len(), v1.len(), "ranks disagree on history arity");
            for (a, b) in v0.iter().zip(v1) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "ranks disagree on reduced history values"
                );
            }
        }
    }

    RtRun {
        nranks,
        cycles,
        fingerprint,
        time: rank0.time,
        dt: rank0.dt,
        history: rank0.history.clone(),
        summaries: summaries.clone(),
        events,
        dependency_edges,
        recorder: recorder.expect("at least one rank"),
        rank_wall_ns,
        rank_blocks,
        rank_traces,
        spans,
        cross_edges,
        flows,
        wait_probes,
        attribution,
    }
}

/// A command the session conductor sends every rank thread. Commands are
/// broadcast in identical order, so shards stay in collective lockstep.
#[derive(Clone, Copy)]
enum Cmd {
    /// Advance this many cycles.
    Run(u64),
    /// Assemble a checkpoint collective at the current cycle boundary.
    Checkpoint,
    /// Stop the command loop and finish the shard.
    Finish,
}

/// A rank thread's reply to one [`Cmd`].
enum Reply {
    Ran(Vec<CycleSummary>),
    Snapshot(Box<Snapshot>),
}

/// A distributed run failed — classified, not hung.
///
/// A single shard panic cascades: its dropped transport leaves the fabric,
/// and every peer waiting on it — in a collective, a boundary message or a
/// migration fetch — raises [`PeerLost`], so the whole session reports
/// failure instead of deadlocking. The conductor joins every rank and
/// classifies the concurrent panics by payload type down to the root cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A specific rank thread died. `payload` carries its panic message;
    /// `injected` is true when the fault plan's kill trigger caused it
    /// (an expected, recoverable death rather than a bug).
    RankFailed {
        /// The rank whose death caused the others' (root cause, not
        /// cascade).
        rank: usize,
        /// The panic payload, rendered.
        payload: String,
        /// True when the death was injected by a [`FaultPlan`] kill.
        injected: bool,
    },
    /// The failure could not be attributed to one rank.
    Failed(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::RankFailed {
                rank,
                payload,
                injected,
            } => write!(
                f,
                "rt session failed: rank {rank} died{}: {payload}",
                if *injected { " (injected)" } else { "" }
            ),
            SessionError::Failed(msg) => write!(f, "rt session failed: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Conductor-level configuration for an [`RtSession`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Deterministic fault schedule. When set, every rank's transport is
    /// wrapped in a [`ChaosTransport`] and the session's rank threads
    /// honor the plan's kill trigger at cycle boundaries. A plan whose
    /// rates are zero and whose kill is `None` is byte-for-byte neutral.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Absolute cycle number the replicas start at (non-zero when the
    /// session resumes a checkpoint); the kill trigger compares against
    /// absolute cycles so recovery replays line up with the plan.
    pub start_cycle: u64,
}

/// What a rank thread hands back when it exits: per-cycle summaries, the
/// cycle count it completed, and the shard's merged output.
type RankExit = (Vec<CycleSummary>, u64, ShardOutput);

/// A preemptible, resumable distributed run, and the only code that turns
/// a replica into a rank ([`run_distributed`] is one session run once).
///
/// A session keeps its rank shards alive between commands, so a scheduler
/// advances a job in budget-sized slices on one session and
/// [`checkpoint`]s it at a slice boundary as a recovery point, without
/// stopping it. A checkpoint also resumes in a *new* session — after a
/// failure, or under a different `(nranks, host_threads)` configuration
/// (build the replicas with
/// [`restore_driver`](vibe_core::restore_driver)) — and the bitwise-
/// reproducibility invariant guarantees the resumed run's final
/// fingerprint equals the uninterrupted run's.
///
/// Dropping a session without calling [`finish`] is the preempt path: the
/// conductor hangs up the command channels, every rank thread exits its
/// loop, finishes its shard, and is joined — no thread leaks and no
/// gather-hub deadlock (a rank still waiting on a departed endpoint raises
/// [`PeerLost`]).
///
/// [`checkpoint`]: RtSession::checkpoint
/// [`finish`]: RtSession::finish
pub struct RtSession<P: Package> {
    nranks: usize,
    cycles: u64,
    cmd_tx: Vec<Sender<Cmd>>,
    reply_rx: Vec<Receiver<Reply>>,
    handles: Vec<std::thread::JoinHandle<RankExit>>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

/// How a rank thread gets its shard: rank 0 builds the whole replica once,
/// cuts it ([`Driver::into_ranks`]) and sends every other rank its part.
enum Start<F, P: Package> {
    Build(F, Vec<Sender<Driver<P>>>),
    Receive(Receiver<Driver<P>>),
}

/// The barrier every rank passes once it holds its shard.
const SESSION_BEGIN: &str = "rt-session-begin";

/// Rank `r > 0`'s part of the replica, as rank 0 sent it. A hand-off
/// channel that disconnects empty means rank 0 died before the cut; the
/// session-begin barrier it never reaches then raises [`PeerLost`] here
/// once its endpoint has left the fabric — the wait is tied to the fabric,
/// so it can neither hang nor fail in a way of its own.
fn receive_part<P: Package>(parts: Receiver<Driver<P>>, wire: &mut dyn Transport) -> Driver<P> {
    match parts.recv() {
        Ok(part) => part,
        Err(_) => loop {
            wire.barrier(SESSION_BEGIN);
        },
    }
}

impl<P: Package + Send + 'static> RtSession<P> {
    /// Spawns `nranks` persistent rank threads. Rank 0's thread calls
    /// `make_replica` once and builds the whole replica — a freshly
    /// initialized problem, or a checkpoint restored via
    /// [`restore_driver`](vibe_core::restore_driver) to resume a preempted
    /// run (possibly under a different rank/thread configuration than the
    /// checkpointing one) — then moves every other rank its blocks. The
    /// factory, and whatever it captured, is dropped right after the build.
    pub fn new<F>(nranks: usize, make_replica: F) -> Self
    where
        F: FnOnce() -> Driver<P> + Send + 'static,
    {
        Self::with_options(nranks, SessionOptions::default(), make_replica)
    }

    /// [`RtSession::new`] with conductor options: fault injection and the
    /// absolute start cycle for resumed checkpoints.
    pub fn with_options<F>(nranks: usize, opts: SessionOptions, make_replica: F) -> Self
    where
        F: FnOnce() -> Driver<P> + Send + 'static,
    {
        assert!(nranks > 0, "at least one rank");
        let (part_tx, part_rx): (Vec<_>, Vec<_>) =
            (1..nranks).map(|_| std::sync::mpsc::channel()).unzip();
        let starts = std::iter::once(Start::Build(make_replica, part_tx))
            .chain(part_rx.into_iter().map(Start::Receive));
        let mut cmd_tx = Vec::with_capacity(nranks);
        let mut reply_rx = Vec::with_capacity(nranks);
        let handles: Vec<_> = channel_fabric(nranks)
            .into_iter()
            .zip(starts)
            .map(|(transport, start)| {
                let plan = opts.fault_plan.clone();
                let start_cycle = opts.start_cycle;
                let (ctx, crx) = std::sync::mpsc::channel::<Cmd>();
                let (rtx, rrx) = std::sync::mpsc::channel::<Reply>();
                cmd_tx.push(ctx);
                reply_rx.push(rrx);
                let rank = transport.rank();
                let spawned = rank_thread(rank).spawn(move || {
                    // The chaos layer wraps the wire, not the mailbox: the
                    // CommEvent log above it is identical to a fault-free
                    // run, and a zero-rate plan is byte-for-byte neutral.
                    let mut wire: Box<dyn Transport> = match &plan {
                        Some(p) => {
                            Box::new(ChaosTransport::new(Box::new(transport), Arc::clone(p)))
                        }
                        None => Box::new(transport),
                    };
                    let part = match start {
                        Start::Build(make, peers) => {
                            let mut parts = make().into_ranks();
                            for (tx, part) in peers.into_iter().zip(parts.drain(1..)) {
                                // A peer that is gone is reported by its join.
                                let _ = tx.send(part);
                            }
                            parts.swap_remove(0)
                        }
                        Start::Receive(rx) => receive_part(rx, &mut *wire),
                    };
                    let mut shard = part.with_transport(wire);
                    shard.barrier(SESSION_BEGIN);
                    let mut all: Vec<CycleSummary> = Vec::new();
                    let mut wall_ns = 0u64;
                    let mut cur = start_cycle;
                    loop {
                        match crx.recv() {
                            Ok(Cmd::Run(n)) => {
                                let start = Instant::now();
                                let mut summaries = Vec::with_capacity(n as usize);
                                for _ in 0..n {
                                    // The injected kill fires at a cycle
                                    // *boundary*: this rank completed every
                                    // cycle before `kc`, then dies. The
                                    // latch makes the recovery replay of
                                    // the same plan run fault-free.
                                    if let Some(plan) = &plan {
                                        if plan.pending_kill(rank) == Some(cur) && plan.fire_kill()
                                        {
                                            std::panic::panic_any(InjectedKill {
                                                rank,
                                                cycle: cur,
                                            });
                                        }
                                    }
                                    summaries.push(shard.step());
                                    cur += 1;
                                }
                                wall_ns += start.elapsed().as_nanos() as u64;
                                all.extend(summaries.iter().cloned());
                                let _ = rtx.send(Reply::Ran(summaries));
                            }
                            Ok(Cmd::Checkpoint) => {
                                let snap = shard.checkpoint();
                                let _ = rtx.send(Reply::Snapshot(Box::new(snap)));
                            }
                            // Finish, or the conductor hung up (session
                            // dropped mid-run): leave the loop and join.
                            Ok(Cmd::Finish) | Err(_) => break,
                        }
                    }
                    shard.barrier("rt-session-end");
                    (all, wall_ns, shard.finish())
                });
                spawned.expect("spawn rank thread")
            })
            .collect();
        Self {
            nranks,
            cycles: 0,
            cmd_tx,
            reply_rx,
            handles,
            _marker: std::marker::PhantomData,
        }
    }

    /// The session has lost a rank: hangs up every command channel and
    /// joins every rank thread, then classifies their panics into the
    /// root-cause [`SessionError`]. No join can hang: a rank blocked on a
    /// peer raises [`PeerLost`] once that peer's endpoint has left, and an
    /// idle rank leaves its command loop and does the same in its final
    /// barrier.
    fn fail(&mut self) -> SessionError {
        self.cmd_tx.clear();
        let failures = self
            .handles
            .drain(..)
            .enumerate()
            .filter_map(|(rank, h)| h.join().err().map(|p| RankFailure::from_payload(rank, &*p)))
            .collect();
        pick_root_cause(failures)
            .unwrap_or_else(|| SessionError::Failed("unattributable rank failure".into()))
    }

    /// Broadcasts one command; a hung-up rank fails the session.
    fn broadcast(&mut self, cmd: Cmd) -> Result<(), SessionError> {
        if self.cmd_tx.iter().all(|tx| tx.send(cmd).is_ok()) {
            Ok(())
        } else {
            Err(self.fail())
        }
    }

    /// Waits for every rank's reply to one broadcast and returns rank 0's
    /// (all ranks reply in kind). A disconnected reply channel means its
    /// rank thread died, and fails the session.
    fn recv_all(&mut self) -> Result<Reply, SessionError> {
        match self
            .reply_rx
            .iter()
            .map(Receiver::recv)
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(mut replies) => Ok(replies.swap_remove(0)),
            Err(_) => Err(self.fail()),
        }
    }

    /// Ranks on the session's fabric.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Advances `n` cycles on every rank and returns rank 0's summaries
    /// (the mesh census columns are global).
    ///
    /// # Errors
    ///
    /// [`SessionError`] when a rank thread has failed.
    pub fn run(&mut self, n: u64) -> Result<Vec<CycleSummary>, SessionError> {
        self.broadcast(Cmd::Run(n))?;
        match self.recv_all()? {
            Reply::Ran(summaries) => {
                self.cycles += n;
                Ok(summaries)
            }
            Reply::Snapshot(_) => Err(SessionError::Failed(
                "protocol mismatch: unexpected snapshot".into(),
            )),
        }
    }

    /// Assembles a full checkpoint at the current cycle boundary: every
    /// rank contributes its owned blocks over the checkpoint collective
    /// (see [`Driver::checkpoint`]) and the conductor returns rank 0's
    /// copy of the identical snapshot. The session remains runnable —
    /// checkpointing is non-destructive.
    ///
    /// # Errors
    ///
    /// [`SessionError`] when a rank thread has failed.
    pub fn checkpoint(&mut self) -> Result<Snapshot, SessionError> {
        self.broadcast(Cmd::Checkpoint)?;
        match self.recv_all()? {
            Reply::Snapshot(snap) => Ok(*snap),
            Reply::Ran(_) => Err(SessionError::Failed(
                "protocol mismatch: unexpected summaries".into(),
            )),
        }
    }

    /// Finishes the session: joins every rank thread and merges their
    /// outputs into an [`RtRun`] (whose `cycles` counts this session's
    /// cycles only — a resumed job's earlier slices live in the
    /// checkpoint's history).
    ///
    /// # Errors
    ///
    /// [`SessionError`] when a rank thread panicked; all threads are
    /// still joined first, so no threads leak even on failure.
    pub fn finish(mut self) -> Result<RtRun, SessionError> {
        for tx in &self.cmd_tx {
            // A dead thread is reported by its join below.
            let _ = tx.send(Cmd::Finish);
        }
        self.cmd_tx.clear();
        let mut results = Vec::with_capacity(self.handles.len());
        let mut failures = Vec::new();
        for (rank, h) in self.handles.drain(..).enumerate() {
            match h.join() {
                Ok(out) => results.push(out),
                Err(p) => failures.push(RankFailure::from_payload(rank, &*p)),
            }
        }
        if let Some(err) = pick_root_cause(failures) {
            return Err(err);
        }
        if results.len() < self.nranks {
            return Err(SessionError::Failed(
                "the session already lost a rank".into(),
            ));
        }
        Ok(merge_shard_results(self.nranks, self.cycles, results))
    }
}

impl<P: Package> Drop for RtSession<P> {
    /// The preempt/teardown path: hang up the command channels so every
    /// rank thread exits its loop, then join them all. Harmless after
    /// [`finish`](RtSession::finish) (everything is already drained).
    fn drop(&mut self) {
        self.cmd_tx.clear();
        for h in self.handles.drain(..) {
            // A panicked thread's endpoint already left the fabric, so its
            // peers raised PeerLost; nothing to propagate here.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vibe_core::block::BlockInfo;
    use vibe_core::driver::DriverParams;
    use vibe_core::field::BlockData;
    use vibe_core::mesh::{Mesh, MeshParams};
    use vibe_physics::{Advect, AdvectRecon};

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

    fn replica(nranks: usize, host_threads: usize) -> vibe_core::Driver<Advect> {
        replica_with(nranks, host_threads, false)
    }

    fn replica_with(
        nranks: usize,
        host_threads: usize,
        instrumented: bool,
    ) -> vibe_core::Driver<Advect> {
        let params = DriverParams {
            nranks,
            host_threads,
            cfl: 0.3,
            // The merged event log and the cross-rank edges of the
            // attribution are what these tests look at.
            capture_comm_events: true,
            capture_spans: instrumented,
            measured_costs: instrumented,
            prof_level: if instrumented {
                vibe_prof::ProfLevel::Coarse
            } else {
                vibe_prof::ProfLevel::Off
            },
            ..DriverParams::default()
        };
        let mut d = vibe_core::Driver::new(mesh(), advect(), params);
        d.initialize(gaussian_ic);
        d
    }

    fn advect() -> Advect {
        Advect {
            recon: AdvectRecon::Upwind1,
            refine_above: 0.2,
            deref_below: 0.02,
            ..Advect::default()
        }
    }

    /// [`advect`], plus what a test needs to watch the shards from outside:
    /// a token the package holds for as long as any shard does (the shards
    /// share one package), and the name of a rank thread whose first
    /// derived fill panics with a message that happens to say
    /// "disconnected".
    struct Probe {
        inner: Advect,
        _token: Arc<()>,
        panic_on: Option<&'static str>,
    }

    impl Package for Probe {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn register(&self, data: &mut BlockData) {
            self.inner.register(data)
        }
        fn nghost(&self) -> usize {
            self.inner.nghost()
        }
        fn initial_condition(&self, info: &BlockInfo, data: &mut BlockData) {
            self.inner.initial_condition(info, data)
        }
        fn history_labels(&self) -> Vec<&'static str> {
            self.inner.history_labels()
        }
        fn refinement_policy(&self) -> vibe_core::RefinementPolicy {
            self.inner.refinement_policy()
        }
        fn stencil_radius(&self) -> usize {
            self.inner.stencil_radius()
        }
        fn flux_byte_multiplier(&self, shape: &vibe_core::mesh::IndexShape) -> f64 {
            self.inner.flux_byte_multiplier(shape)
        }
        fn fill_fluxes(
            &self,
            info: &BlockInfo,
            data: &BlockData,
            tile: &mut vibe_core::FluxTile<'_>,
        ) {
            self.inner.fill_fluxes(info, data, tile)
        }
        fn fill_derived(&self, info: &BlockInfo, data: &mut BlockData) {
            if self.panic_on.is_some() && std::thread::current().name() == self.panic_on {
                panic!("rank input stream disconnected");
            }
            self.inner.fill_derived(info, data)
        }
        fn estimate_dt(&self, info: &BlockInfo, data: &mut BlockData) -> f64 {
            self.inner.estimate_dt(info, data)
        }
        fn refinement_indicator(&self, info: &BlockInfo, data: &mut BlockData) -> f64 {
            self.inner.refinement_indicator(info, data)
        }
        fn history_contributions(&self, info: &BlockInfo, data: &mut BlockData, row: &mut [f64]) {
            self.inner.history_contributions(info, data, row)
        }
    }

    fn probe_replica(
        nranks: usize,
        token: Arc<()>,
        panic_on: Option<&'static str>,
    ) -> vibe_core::Driver<Probe> {
        let params = DriverParams {
            nranks,
            cfl: 0.3,
            ..DriverParams::default()
        };
        let pkg = Probe {
            inner: advect(),
            _token: token,
            panic_on,
        };
        let mut d = vibe_core::Driver::new(mesh(), pkg, params);
        d.initialize(gaussian_ic);
        d
    }

    fn driver_fingerprint(nranks: usize, cycles: u64) -> (u64, u64, u64) {
        let mut d = replica(nranks, 1);
        for _ in 0..cycles {
            d.step();
        }
        (
            vibe_core::fingerprint_slots(d.slots()),
            d.dt().to_bits(),
            d.mesh().num_blocks() as u64,
        )
    }

    /// The headline invariant: the merged rank-parallel solution is
    /// bitwise identical to the single-shard driver across rank counts,
    /// through cycles that refine, migrate, and derefine blocks.
    #[test]
    fn rank_parallel_fingerprint_matches_driver() {
        let cycles = 6;
        let reference = driver_fingerprint(1, cycles);
        for nranks in [1usize, 2, 4] {
            let run = run_distributed(nranks, cycles, move || replica(nranks, 1));
            let gated = driver_fingerprint(nranks, cycles);
            assert_eq!(
                gated.0, reference.0,
                "driver solution must not depend on nranks"
            );
            assert_eq!(
                run.fingerprint, reference.0,
                "rank-parallel fingerprint diverged at nranks={nranks}"
            );
            assert_eq!(run.dt.to_bits(), reference.1);
            assert_eq!(run.rank_blocks.iter().sum::<usize>() as u64, reference.2);
        }
    }

    /// Host-thread count inside each shard must not perturb the solution.
    #[test]
    fn host_threads_do_not_perturb_distributed_solution() {
        let cycles = 4;
        let serial = run_distributed(2, cycles, || replica(2, 1));
        let threaded = run_distributed(2, cycles, || replica(2, 4));
        assert_eq!(serial.fingerprint, threaded.fingerprint);
        assert_eq!(serial.dt.to_bits(), threaded.dt.to_bits());
    }

    /// Attribution capture and measured costs are observational: the
    /// merged solution fingerprint is bitwise identical with them on or
    /// off, across rank and thread counts.
    #[test]
    fn attribution_capture_does_not_perturb_fingerprint() {
        let cycles = 5;
        let reference = driver_fingerprint(1, cycles);
        for (nranks, threads) in [(1usize, 1usize), (2, 1), (4, 1), (2, 4)] {
            let run = run_distributed(nranks, cycles, move || replica_with(nranks, threads, true));
            assert_eq!(
                run.fingerprint, reference.0,
                "instrumented fingerprint diverged at nranks={nranks} threads={threads}"
            );
            assert_eq!(run.dt.to_bits(), reference.1);
        }
    }

    /// The merged DAG yields per-rank wait-state buckets that sum to the
    /// measured wall time, a critical path, matched cross edges, and flow
    /// arrows that pass the offline Perfetto validator.
    #[test]
    fn attribution_classifies_wall_and_flows_validate() {
        let nranks = 4;
        let run = run_distributed(nranks, 4, move || replica_with(nranks, 1, true));
        let attr = run.attribution.as_ref().expect("spans were captured");
        assert_eq!(attr.per_rank.len(), nranks);
        assert!(
            attr.max_sum_error_frac() <= 0.05,
            "buckets must sum to wall within 5%, got {:.4}",
            attr.max_sum_error_frac()
        );
        assert!(
            attr.min_coverage_frac() >= 0.90,
            "at least 90% of wall must land in named buckets, got {:.4}",
            attr.min_coverage_frac()
        );
        assert!(!attr.critical_path.path.is_empty());
        assert!(attr.critical_path.switches + 1 == attr.critical_path.segments.len());
        assert!(attr.matched_cross_edges > 0, "cross edges must match");
        assert!(!run.flows.is_empty(), "matched edges must yield flows");
        let json = run.perfetto_trace_json();
        let stats = vibe_prof::validate_trace(&json).expect("flow trace validates");
        assert_eq!(stats.flows, run.flows.len());

        // Determinism: re-deriving the attribution from the same spans and
        // edges reproduces it exactly.
        let graph = build_span_graph(run.spans.clone(), &run.cross_edges);
        let again = attribute_run(&graph, &run.wait_probes, &run.rank_wall_ns);
        for (a, b) in attr.per_rank.iter().zip(&again.per_rank) {
            assert_eq!(a.as_array(), b.as_array());
        }
        assert_eq!(attr.critical_path.path, again.critical_path.path);
        assert_eq!(attr.dominant_loss().0, again.dominant_loss().0);
    }

    /// A replica factory over a 2 x 1 base grid with spans captured.
    /// Adaptive: a blob in the left block is refined at start, drifts
    /// right (refining its new surroundings around cycle 13) and diffuses
    /// until everything derefines back to the two base blocks (cycles 34
    /// and 42), so block ownership keeps moving between ranks.
    fn drifting_blob(
        nranks: usize,
        threads: usize,
        adaptive: bool,
    ) -> impl Fn() -> vibe_core::Driver<Advect> + Send + Sync + 'static {
        move || {
            let mesh = Mesh::new(
                MeshParams::builder()
                    .dim(2)
                    .mesh_size([16, 8, 1])
                    .block_size([8, 8, 1])
                    .max_levels(2)
                    .nghost(2)
                    .deref_gap(2)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let params = DriverParams {
                nranks,
                host_threads: threads,
                cfl: 0.3,
                capture_comm_events: true,
                capture_spans: true,
                prof_level: vibe_prof::ProfLevel::Coarse,
                ..DriverParams::default()
            };
            let pkg = Advect {
                recon: AdvectRecon::Upwind1,
                // 2.0 never refines: the block count stays below nranks.
                refine_above: if adaptive { 0.1 } else { 2.0 },
                deref_below: if adaptive { 0.05 } else { 0.0 },
                ..Advect::default()
            };
            let mut d = vibe_core::Driver::new(mesh, pkg, params);
            d.initialize(|info: &BlockInfo, data: &mut BlockData| {
                let shape = *data.shape();
                let qid = data.id_of("q").unwrap();
                let var = data.var_mut(qid);
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        let c = info.geom.cell_center(
                            i as i64 - shape.nghost_d(0) as i64,
                            j as i64 - shape.nghost_d(1) as i64,
                            0,
                        );
                        let r2 = (c[0] - 0.25).powi(2) + (c[1] - 0.5).powi(2);
                        var.data_mut().set(0, 0, j, i, (-r2 / 0.004).exp());
                    }
                }
            });
            d
        }
    }

    /// Regression: ranks left empty by `partition_by_cost` (more ranks
    /// than blocks) must merge cleanly — recorder absorb, span/attribution
    /// paths, and the solution fingerprint all intact — whether they are
    /// empty from the start or become so when the mesh derefines under
    /// them. The adaptive run refines, derefines and migrates blocks
    /// between ranks, and must match the serial driver's fingerprint,
    /// history and every cycle's `dt` bitwise at any rank and host-thread
    /// count (regrid fills new blocks on the pool).
    #[test]
    fn ranks_with_zero_blocks_merge_cleanly() {
        let nranks = 6; // only 2 level-0 blocks: four ranks are empty
        let run = run_distributed(nranks, 3, drifting_blob(nranks, 1, false));
        assert_eq!(run.rank_blocks.iter().filter(|&&n| n == 0).count(), 4);
        assert_eq!(run.rank_blocks.iter().sum::<usize>(), 2);
        let mut reference = drifting_blob(nranks, 1, false)();
        reference.run_cycles(3);
        assert_eq!(
            run.fingerprint,
            vibe_core::fingerprint_slots(reference.slots())
        );
        let attr = run.attribution.expect("spans captured on every rank");
        assert_eq!(attr.per_rank.len(), nranks);
        assert!(attr.max_sum_error_frac() <= 0.05);

        let cycles = 45;
        let mut serial = drifting_blob(1, 1, true)();
        let summaries = serial.run_cycles(cycles);
        assert!(summaries.iter().any(|s| s.refined > 0));
        assert!(summaries.iter().any(|s| s.derefined > 0));
        assert_eq!(serial.mesh().num_blocks(), 2, "derefined to the base grid");
        for (nranks, threads) in [(2usize, 1usize), (2, 8), (4, 1), (4, 8)] {
            let run = run_distributed(nranks, cycles, drifting_blob(nranks, threads, true));
            let at = format!("at nranks={nranks} threads={threads}");
            assert_eq!(
                run.fingerprint,
                vibe_core::fingerprint_slots(serial.slots()),
                "fingerprint {at}"
            );
            assert_eq!(run.history, serial.history(), "history {at}");
            for (got, want) in run.summaries.iter().zip(&summaries) {
                assert_eq!(got.dt.to_bits(), want.dt.to_bits(), "dt {at}");
                assert_eq!(got.nblocks, want.nblocks, "block census {at}");
            }
            let moved = &run.recorder.totals().comm
                [&vibe_prof::StepFunction::RedistributeAndRefineMeshBlocks];
            assert!(moved.p2p_remote_messages > 0, "blocks migrated {at}");
            assert_eq!(
                run.rank_blocks.contains(&0),
                nranks == 4,
                "two blocks leave two of four ranks empty {at}"
            );
        }
    }

    /// The accounting rule, as a test: a fabric's endpoints together record
    /// what one driver playing all `nranks` labels on a lone endpoint
    /// records — each endpoint the share of the labels it hosts — plus
    /// what physically exists only between endpoints. The residual
    /// differences are the three rows of DESIGN.md's "Model inputs on a
    /// fabric" table, and nothing else.
    #[test]
    fn merged_workload_matches_virtual_rank_driver() {
        use vibe_prof::{CollectiveOp, StepFunction};
        let cycles = 45;
        let regrid = StepFunction::RedistributeAndRefineMeshBlocks;
        for nranks in [2usize, 4] {
            let mut virt = drifting_blob(nranks, 1, true)()
                .with_transport(Box::new(vibe_comm::channel_fabric(1).remove(0)));
            let summaries = virt.run_cycles(cycles);
            assert!(summaries.iter().any(|s| s.refined > 0));
            assert!(summaries.iter().any(|s| s.derefined > 0));
            let want = virt.recorder().totals();
            let run = run_distributed(nranks, cycles, drifting_blob(nranks, 1, true));
            let got = run.recorder.totals();
            let n = nranks as u64;

            // Kernels: same launches and cells. (Row 3: each endpoint that
            // builds new blocks launches its own prolongation/restriction
            // loop, so under Regrid only the cells are comparable.)
            assert_eq!(
                got.kernels.keys().collect::<Vec<_>>(),
                want.kernels.keys().collect::<Vec<_>>()
            );
            for (key, w) in &want.kernels {
                let g = &got.kernels[key];
                assert_eq!(g.cells, w.cells, "cells of {key:?} at nranks={nranks}");
                if key.0 != regrid {
                    assert_eq!(g.launches, w.launches, "launches of {key:?}");
                }
            }
            // Ghost and flux-correction traffic: message for message.
            for func in [StepFunction::SendBoundBufs, StepFunction::FluxCorrection] {
                let (g, w) = (&got.comm[&func], &want.comm[&func]);
                assert_eq!(
                    (g.p2p_local_messages, g.p2p_local_bytes),
                    (w.p2p_local_messages, w.p2p_local_bytes),
                    "{func:?} local at nranks={nranks}"
                );
                assert_eq!(
                    (g.p2p_remote_messages, g.p2p_remote_bytes),
                    (w.p2p_remote_messages, w.p2p_remote_bytes),
                    "{func:?} remote at nranks={nranks}"
                );
                assert_eq!(g.cells_communicated, w.cells_communicated);
            }
            // Variable lookups per function, and block allocations. (Row 3:
            // every endpoint compiles the exchange plan, so each pays the
            // flux and two-stage id lookups the virtual-rank driver does
            // once, under SendBoundBufs.)
            for (func, w) in &want.serial {
                let g = &got.serial[func];
                if *func == StepFunction::SendBoundBufs {
                    assert!(g.string_lookups > w.string_lookups);
                } else {
                    assert_eq!(g.string_lookups, w.string_lookups, "lookups of {func:?}");
                }
            }
            assert_eq!(
                got.serial[&regrid].allocations,
                want.serial[&regrid].allocations
            );
            // The replicated collectives: every endpoint joins each one and
            // records the same size the virtual-rank driver models.
            for (func, op) in [
                (StepFunction::UpdateMeshBlockTree, CollectiveOp::AllGather),
                (StepFunction::EstimateTimeStep, CollectiveOp::AllReduce),
            ] {
                let (count, bytes) = want.comm[&func].collectives[&op];
                assert_eq!(
                    got.comm[&func].collectives[&op],
                    (n * count, n * bytes),
                    "{func:?} at nranks={nranks}"
                );
            }

            // Row 1: history rows are gathered only between endpoints.
            let history = |t: &vibe_prof::CycleStats| {
                t.comm
                    .get(&StepFunction::MassHistory)
                    .map_or(0, |c| c.collectives.len())
            };
            assert_eq!((history(want), history(got)), (0, 1));
            // Row 2: between endpoints migration is the real payloads
            // (cell data of every block whose holder changes); between
            // virtual ranks it is a modeled full-state shipment of the
            // blocks the load balance relabels.
            let (g, w) = (got.comm.get(&regrid), want.comm.get(&regrid));
            assert!(g.is_some_and(|c| c.p2p_remote_messages > 0));
            assert_ne!(g, w);
            // Row 3: tree and regrid list work runs on every endpoint.
            let (g, w) = (
                &got.serial[&StepFunction::UpdateMeshBlockTree],
                &want.serial[&StepFunction::UpdateMeshBlockTree],
            );
            assert_eq!(
                (g.tree_ops, g.block_loop),
                (n * w.tree_ops, n * w.block_loop)
            );
            let (g, w) = (&got.serial[&regrid], &want.serial[&regrid]);
            assert_eq!(
                (g.block_loop, g.boundary_loop),
                (n * w.block_loop, n * w.boundary_loop)
            );
            let (g, w) = (
                &got.serial[&StepFunction::RebuildBufferCache],
                &want.serial[&StepFunction::RebuildBufferCache],
            );
            assert_eq!(g.allocations, n * w.allocations);
        }
    }

    /// A session advanced in slices (with a non-destructive mid-run
    /// checkpoint) finishes bitwise identical to the one-shot run, and the
    /// checkpoint it takes equals the single-process driver's snapshot at
    /// the same boundary — gathered over two endpoints, copied on one.
    #[test]
    fn session_slices_match_one_shot_run() {
        let mut d = replica(1, 1);
        d.run_cycles(2);
        let local = d.to_snapshot();
        let mut local_bytes = Vec::new();
        local.write_to(&mut local_bytes).unwrap();
        for nranks in [1, 2] {
            let one_shot = run_distributed(nranks, 5, move || replica(nranks, 1));
            let mut session = RtSession::new(nranks, move || replica(nranks, 1));
            let s1 = session.run(2).unwrap();
            let snap = session.checkpoint().unwrap();
            let s2 = session.run(3).unwrap();
            assert_eq!(s1.len(), 2);
            assert_eq!(s2.len(), 3);
            let run = session.finish().unwrap();
            assert_eq!(run.fingerprint, one_shot.fingerprint);
            assert_eq!(run.dt.to_bits(), one_shot.dt.to_bits());
            assert_eq!(run.cycles, 5);

            // The session's checkpoint is exactly the state a
            // single-process driver snapshots at the same cycle boundary —
            // including history rows: contributions are folded in global
            // gid order on every path, so the reduction is
            // partition-independent and the snapshots are the same bytes.
            assert_eq!(snap, local, "{nranks} ranks");
            let mut bytes = Vec::new();
            snap.write_to(&mut bytes).unwrap();
            assert!(bytes == local_bytes, "{nranks} ranks: encodings differ");
        }
    }

    /// The preempt/resume acceptance invariant: checkpoint a Mesh 32/B8/L2
    /// run at *every* cycle boundary, resume each checkpoint in a new
    /// session under a different `(nranks, host_threads)`, and the final
    /// fingerprint (and clock, and full history) must equal the
    /// uninterrupted run's bitwise.
    #[test]
    fn preempt_resume_bitwise_identical_at_every_boundary() {
        let cycles = 6u64;
        let reference = run_distributed(2, cycles, || replica(2, 1));
        for boundary in 1..cycles {
            let mut first = RtSession::new(2, || replica(2, 1));
            first.run(boundary).unwrap();
            let snap = Arc::new(first.checkpoint().unwrap());
            // Preempt: tear the session down without finishing it.
            drop(first);

            // Resume elastically on a different shard/thread layout.
            let (nranks, threads) = if boundary % 2 == 0 { (4, 1) } else { (3, 2) };
            let make = {
                let snap = Arc::clone(&snap);
                move || {
                    let params = DriverParams {
                        nranks,
                        host_threads: threads,
                        cfl: 0.3,
                        ..DriverParams::default()
                    };
                    vibe_core::restore_driver(&snap, advect(), params).unwrap()
                }
            };
            let mut resumed = RtSession::new(nranks, make);
            resumed.run(cycles - boundary).unwrap();
            let run = resumed.finish().unwrap();
            assert_eq!(
                run.fingerprint, reference.fingerprint,
                "resume diverged at boundary {boundary} under ({nranks}, {threads})"
            );
            assert_eq!(run.dt.to_bits(), reference.dt.to_bits());
            assert_eq!(run.time.to_bits(), reference.time.to_bits());
            // History continues across the preemption seam bitwise: rows
            // before the boundary traveled through the checkpoint, rows
            // after it were reduced under a different rank partition —
            // but the gid-ordered fold makes the reduction order
            // partition-independent, so every row is bitwise intact.
            assert_eq!(run.history.len(), reference.history.len());
            for ((ca, va), (cb, vb)) in run.history.iter().zip(&reference.history) {
                assert_eq!(ca, cb);
                for (a, b) in va.iter().zip(vb) {
                    assert_eq!(a.to_bits(), b.to_bits(), "history row {ca} not bitwise");
                }
            }
        }
    }

    /// Regression for the preempt teardown path: dropping a session
    /// mid-run (no `finish`) must join every rank thread and leave the
    /// gather hub drained — a fresh session right after must work.
    ///
    /// The shards share one package, so a token the package holds counts
    /// whether any of this test's rank threads still holds a shard.
    /// (Counting `/proc/self/task` entries, even only the ones named
    /// `vibe-rt-rank-*`, also counts the rank threads sibling tests spawn
    /// in this process.) A second token, captured by the factory alone,
    /// shows that a started session has released its factory.
    #[test]
    fn dropping_session_mid_run_joins_cleanly() {
        let shards = Arc::new(());
        let factory = Arc::new(());
        let make = |nranks: usize| {
            let (held, captured) = (Arc::clone(&shards), Arc::clone(&factory));
            move || {
                let _captured = captured;
                probe_replica(nranks, held, None)
            }
        };
        let mut session = RtSession::new(4, make(4));
        session.run(0).unwrap();
        assert_eq!(
            Arc::strong_count(&factory),
            1,
            "a started session holds neither its factory nor what it captured"
        );
        session.run(2).unwrap();
        assert_eq!(
            Arc::strong_count(&shards),
            2,
            "the rank shards share one package"
        );
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            let named = tasks
                .flatten()
                .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
                .filter(|comm| comm.starts_with("vibe-rt-rank-"))
                .count();
            assert!(named >= 4, "rank threads carry their name, found {named}");
        }
        drop(session);
        assert_eq!(
            Arc::strong_count(&shards),
            1,
            "dropped session leaked a rank thread"
        );
        let mut again = RtSession::new(2, make(2));
        again.run(1).unwrap();
        let run = again.finish().unwrap();
        assert_eq!(run.cycles, 1);
        assert_eq!(
            Arc::strong_count(&shards),
            1,
            "finished session leaked a rank thread"
        );
    }

    /// A session builds the whole replica once, on rank 0, whatever its
    /// rank count, and the cut runs to the one-rank answer.
    #[test]
    fn a_session_builds_its_replica_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cycles = 3;
        let reference = driver_fingerprint(1, cycles).0;
        for nranks in 1..=4 {
            let calls = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&calls);
            let run = run_distributed(nranks, cycles, move || {
                counted.fetch_add(1, Ordering::SeqCst);
                replica(nranks, 1)
            });
            assert_eq!(calls.load(Ordering::SeqCst), 1, "builds at nranks={nranks}");
            assert_eq!(run.fingerprint, reference, "fingerprint at nranks={nranks}");
        }
    }

    /// Real cross-shard traffic exists and the merged log is causal: the
    /// validator must count send→complete edges from remote deliveries.
    #[test]
    fn merged_event_log_shows_cross_rank_traffic() {
        let run = run_distributed(4, 3, || replica(4, 1));
        assert!(
            run.dependency_edges > 0,
            "expected satisfied remote send→complete edges"
        );
        assert!(
            run.events.iter().any(|e| e.rank != 0),
            "expected events from non-zero ranks"
        );
        // Per-rank histories were checked identical inside run_distributed;
        // the merged history has one row per cycle.
        assert!(!run.history.is_empty());
    }

    // -- fault tolerance ---------------------------------------------------

    use vibe_ft::{FaultPlanSpec, KillSpec};

    fn kill_plan(rank: usize, cycle: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(FaultPlanSpec {
            kill: Some(KillSpec { rank, cycle }),
            ..Default::default()
        }))
    }

    /// An injected rank kill surfaces as a structured, correctly
    /// attributed failure — naming the killed rank, not a cascade victim
    /// — on both the run path and the finish path.
    #[test]
    fn injected_kill_is_classified_to_the_killed_rank() {
        let opts = SessionOptions {
            fault_plan: Some(kill_plan(1, 2)),
            ..SessionOptions::default()
        };
        let mut session = RtSession::with_options(2, opts, || replica(2, 1));
        let err = session
            .run(4)
            .err()
            .or_else(|| session.finish().err())
            .expect("the killed session must fail");
        match err {
            SessionError::RankFailed {
                rank,
                payload,
                injected,
            } => {
                assert_eq!(rank, 1, "root cause must be the killed rank");
                assert!(injected, "must be recognized as an injected kill");
                assert!(payload.contains("cycle 2"), "payload: {payload}");
            }
            other => panic!("expected RankFailed, got: {other}"),
        }
    }

    /// The root cause is picked by payload type, not text: rank 1 dies in
    /// its first step of a genuine panic whose message happens to say
    /// "disconnected", rank 0 dies of the cascade (`PeerLost`) — and rank 1
    /// is the one reported.
    #[test]
    fn root_cause_is_classified_by_payload_type() {
        let mut session =
            RtSession::new(2, || probe_replica(2, Arc::new(()), Some("vibe-rt-rank-1")));
        let err = session.run(2).expect_err("rank 1 died in its first step");
        match err {
            SessionError::RankFailed {
                rank,
                payload,
                injected,
            } => {
                assert_eq!((rank, injected), (1, false), "payload: {payload}");
                assert!(payload.contains("disconnected"), "payload: {payload}");
            }
            other => panic!("expected RankFailed, got: {other}"),
        }
        // The failure joined every rank; finishing now reports, not panics.
        assert!(matches!(session.finish(), Err(SessionError::Failed(_))));
    }

    /// A replica build that panics fails the session with rank 0 as the
    /// root cause, and the ranks waiting for their parts end through the
    /// fabric. The conductor's wait is bounded here: were the hand-off
    /// wait not tied to the fabric, `run` would never return.
    #[test]
    fn a_failed_build_is_classified_to_rank_0() {
        let (tx, rx) = std::sync::mpsc::channel();
        let conductor = std::thread::spawn(move || {
            let mut session = RtSession::<Advect>::new(3, || panic!("replica build failed"));
            let _ = tx.send(session.run(1).map(|_| ()));
        });
        let got = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the session fails instead of hanging");
        conductor.join().unwrap();
        match got {
            Err(SessionError::RankFailed {
                rank,
                payload,
                injected,
            }) => {
                assert_eq!((rank, injected), (0, false), "payload: {payload}");
                assert!(payload.contains("build failed"), "payload: {payload}");
            }
            other => panic!("expected RankFailed, got: {other:?}"),
        }
    }

    /// The hand-off wait alone: a rank whose part never comes (rank 0 hung
    /// up empty) raises the fabric's typed `PeerLost` once rank 0's
    /// endpoint has left — within a bounded wait, and not with a panic of
    /// its own.
    #[test]
    fn a_rank_whose_part_never_comes_raises_peer_lost() {
        let mut fabric = channel_fabric(2);
        let mut wire = fabric.pop().unwrap();
        let rank0 = fabric.pop().unwrap();
        let (parts_tx, parts_rx) = std::sync::mpsc::channel::<vibe_core::Driver<Advect>>();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                receive_part(parts_rx, &mut wire);
            }));
            let _ = tx.send(out.map_err(|p| p.downcast_ref::<PeerLost>().copied()));
        });
        drop(parts_tx);
        drop(rank0);
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the wait ends instead of hanging");
        assert_eq!(
            got,
            Err(Some(PeerLost {
                rank: 1,
                wait: SESSION_BEGIN
            }))
        );
        waiter.join().unwrap();
    }

    /// The tentpole invariant: killing any rank at any cycle boundary
    /// recovers automatically — restore from the last checkpoint,
    /// re-partition onto the shrunken geometry, replay — to the exact
    /// fault-free fingerprint, history, and clock.
    #[test]
    fn kill_recovers_bitwise_to_fault_free_run() {
        let cycles = 6u64;
        let reference = run_distributed(2, cycles, || replica(2, 1));
        for kill_cycle in [1u64, 3, 5] {
            for victim in [0usize, 1] {
                let plan = kill_plan(victim, kill_cycle);
                let opts = ResilienceOptions {
                    fault_plan: Some(Arc::clone(&plan)),
                };
                let (run, report) = run_resilient(2, cycles, opts, |snap, nranks| match snap {
                    None => replica(nranks, 1),
                    Some(s) => {
                        let params = DriverParams {
                            nranks,
                            cfl: 0.3,
                            ..DriverParams::default()
                        };
                        vibe_core::restore_driver(s, advect(), params).unwrap()
                    }
                })
                .unwrap_or_else(|e| {
                    panic!("kill rank {victim} at cycle {kill_cycle} did not recover: {e}")
                });
                assert_eq!(
                    run.fingerprint, reference.fingerprint,
                    "recovered fingerprint diverged (victim {victim}, cycle {kill_cycle})"
                );
                assert_eq!(run.time.to_bits(), reference.time.to_bits());
                assert_eq!(run.dt.to_bits(), reference.dt.to_bits());
                assert_eq!(run.history.len(), reference.history.len());
                for ((ca, va), (_, vb)) in run.history.iter().zip(&reference.history) {
                    for (a, b) in va.iter().zip(vb) {
                        assert_eq!(a.to_bits(), b.to_bits(), "history row {ca} diverged");
                    }
                }
                assert_eq!(report.failures, 1);
                assert_eq!(report.recoveries, 1);
                assert_eq!(report.fault_stats.killed, 1);
                assert_eq!(report.final_nranks, 1, "geometry shrank by the dead rank");
                assert!(matches!(
                    report.detected[0],
                    SessionError::RankFailed { injected: true, .. }
                ));
            }
        }
    }

    /// Chaos off ⇒ byte-for-byte neutral: a zero-rate fault plan leaves
    /// the fingerprint, the merged event log, and the history untouched
    /// relative to a session without any plan.
    #[test]
    fn zero_rate_fault_plan_is_byte_for_byte_neutral() {
        let bare = {
            let mut s = RtSession::new(2, || replica(2, 1));
            s.run(4).unwrap();
            s.finish().unwrap()
        };
        let plan = Arc::new(FaultPlan::new(FaultPlanSpec::default()));
        let chaotic = {
            let opts = SessionOptions {
                fault_plan: Some(Arc::clone(&plan)),
                ..SessionOptions::default()
            };
            let mut s = RtSession::with_options(2, opts, || replica(2, 1));
            s.run(4).unwrap();
            s.finish().unwrap()
        };
        assert_eq!(chaotic.fingerprint, bare.fingerprint);
        assert_eq!(chaotic.dt.to_bits(), bare.dt.to_bits());
        assert_eq!(chaotic.history, bare.history);
        // Event interleaving is scheduler-dependent even without chaos
        // (tasks race within a cycle); the deterministic artifact is the
        // multiset of events per (rank, cycle).
        let canon = |ev: Vec<vibe_comm::CommEvent>| {
            let mut keys: Vec<String> = ev
                .iter()
                .map(|e| {
                    format!(
                        "{} {} {:?} {:?} {:?} {:?}",
                        e.rank, e.cycle, e.key, e.func, e.task, e.kind
                    )
                })
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(
            canon(chaotic.events),
            canon(bare.events),
            "event multisets must be identical"
        );
        assert!(plan.events().is_empty(), "no fault may be injected");
    }

    /// Message chaos alone (drop/delay/duplicate, no kill) never corrupts
    /// the solution: faults perturb delivery timing, not delivered data,
    /// so the fingerprint stays bitwise identical with zero retries.
    #[test]
    fn message_chaos_preserves_fingerprint_without_recovery() {
        let reference = run_distributed(3, 5, || replica(3, 1));
        let plan = Arc::new(FaultPlan::new(FaultPlanSpec {
            seed: 0xC0FFEE,
            drop_per_mille: 60,
            delay_per_mille: 120,
            duplicate_per_mille: 60,
            delay_ticks: 3,
            ..Default::default()
        }));
        let opts = SessionOptions {
            fault_plan: Some(Arc::clone(&plan)),
            ..SessionOptions::default()
        };
        let mut s = RtSession::with_options(3, opts, || replica(3, 1));
        s.run(5).unwrap();
        let run = s.finish().unwrap();
        assert_eq!(run.fingerprint, reference.fingerprint);
        assert_eq!(run.dt.to_bits(), reference.dt.to_bits());
        let stats = plan.stats();
        assert!(
            stats.dropped + stats.delayed + stats.duplicated > 0,
            "the chaos rates must actually inject something: {stats:?}"
        );
    }
}
