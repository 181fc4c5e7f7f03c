//! Causal task spans: the raw material of cross-rank attribution.
//!
//! Every task the cycle executor runs can emit a [`TaskSpan`] — when it
//! first started, when it completed, how much of that interval was spent
//! inside the task action (split into productive invocations and
//! `Incomplete` polling spins), and which tasks it depended on. Spans from
//! all ranks share one process-global epoch ([`span_epoch`]), so a merged
//! multi-rank collection is directly comparable in time; cross-rank edges
//! ([`CrossEdge`], recovered by `vibe_comm::match_cross_edges` from the
//! send→complete event log) stitch the per-rank span streams into one
//! activity DAG (see [`crate::attribution`]).
//!
//! Span capture is observational only: it never feeds back into the
//! numerics, so the solution fingerprint is bitwise identical with capture
//! on or off (the CI gate checks this).

use std::sync::OnceLock;
use std::time::Instant;

/// The process-global span epoch. Every rank thread measures task spans,
/// flow arrows and wall-clock regions (`WallClock`) against this single
/// `Instant`, which is what makes the streams of concurrently executing
/// shards comparable on one time axis with no re-basing.
pub fn span_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-global span epoch.
pub fn span_now_ns() -> u64 {
    Instant::now()
        .saturating_duration_since(span_epoch())
        .as_nanos() as u64
}

/// What a task does: the cycle executor's overlap accounting, the
/// simulator's replay and the wait-state taxonomy all read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Block-parallel compute work (flux sweeps, updates).
    Compute,
    /// Packs buffers and posts sends (serialization side of comm);
    /// completion puts traffic in flight that a later `CommWait` retires.
    CommSend,
    /// Polls for message arrival and unpacks (deserialization side; its
    /// `Incomplete` spins are the late-sender signal).
    CommWait,
    /// Serial driver-thread work (tree update, regrid).
    Serial,
}

/// One executed task instance on one rank.
///
/// The executor is a busy-spin ready sweep: a task that returns
/// `Incomplete` is re-invoked until it completes, so its lifetime
/// `start_ns..end_ns` decomposes into productive action time (`busy_ns`),
/// polling time (`spin_ns`), and time the rank thread spent running
/// *other* tasks between this task's invocations (overlap — not stored,
/// it is the remainder and belongs to the other tasks' spans).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpan {
    /// Rank that executed the task.
    pub rank: usize,
    /// Simulation cycle the task belongs to.
    pub cycle: u64,
    /// Task index within the per-cycle graph (stable across ranks and
    /// cycles — every cycle sweeps the same static node table).
    pub node: usize,
    /// Task label (e.g. `"Stage0::PackSend"`).
    pub name: &'static str,
    /// Taxonomy kind.
    pub kind: TaskKind,
    /// First invocation start, ns since [`span_epoch`].
    pub start_ns: u64,
    /// Completing invocation end, ns since [`span_epoch`].
    pub end_ns: u64,
    /// Total time inside invocations that made progress (completed the
    /// task, or performed send/pack work before yielding).
    pub busy_ns: u64,
    /// Total time inside invocations that returned `Incomplete` — pure
    /// polling.
    pub spin_ns: u64,
    /// Number of `Incomplete` invocations before completion.
    pub polls: u64,
    /// Graph-node indices (same rank, same cycle) this task depended on.
    pub deps: Vec<usize>,
}

impl TaskSpan {
    /// Full lifetime of the task instance (first start to completion).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A matched cross-rank message edge: a remote `Send` logged by the source
/// rank's task paired (FIFO per boundary key, exactly MPI's
/// same-(source,tag) ordering) with the `Complete` logged by the
/// destination rank's task that consumed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossEdge {
    /// Sequence number of the `Send` event (globally unique — doubles as
    /// the Perfetto flow id).
    pub seq: u64,
    /// Payload size.
    pub bytes: u64,
    /// Sending rank.
    pub src_rank: usize,
    /// Cycle the sender was in.
    pub src_cycle: u64,
    /// Task label on the sending side.
    pub src_task: &'static str,
    /// Receiving rank.
    pub dst_rank: usize,
    /// Cycle the receiver was in.
    pub dst_cycle: u64,
    /// Task label on the receiving side.
    pub dst_task: &'static str,
}

/// Directly measured blocking time that hides *inside* task actions and
/// must be pulled out of the compute bucket: collective rendezvous blocking
/// (the dt/history/tree AllReduce–AllGather arrival spread) and the
/// blocking block-fetch loop of the regrid migration protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitProbes {
    /// Time blocked inside collective data calls waiting for the slowest
    /// rank to arrive at the rendezvous, ns.
    pub collective_block_ns: u64,
    /// Time blocked waiting for migrated block payloads during regrid, ns.
    pub migration_stall_ns: u64,
}

impl WaitProbes {
    /// Accumulates another probe set into this one.
    pub fn absorb(&mut self, other: &WaitProbes) {
        self.collective_block_ns += other.collective_block_ns;
        self.migration_stall_ns += other.migration_stall_ns;
    }
}

/// One Perfetto flow arrow (`ph:"s"` → `ph:"f"`) linking a matched
/// send span to the receive span that consumed its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvent {
    /// Flow id (the send's globally unique sequence number).
    pub id: u64,
    /// Arrow label.
    pub name: &'static str,
    /// Source rank (rendered on pid `src_rank + 1`).
    pub src_rank: usize,
    /// Arrow start, ns since the shared epoch.
    pub src_ts_ns: u64,
    /// Destination rank (rendered on pid `dst_rank + 1`).
    pub dst_rank: usize,
    /// Arrow end, ns since the shared epoch (never before `src_ts_ns`).
    pub dst_ts_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_stable_and_now_is_monotone() {
        let a = span_epoch();
        let t0 = span_now_ns();
        let t1 = span_now_ns();
        assert_eq!(a, span_epoch());
        assert!(t1 >= t0);
    }

    #[test]
    fn span_duration_saturates() {
        let span = TaskSpan {
            rank: 0,
            cycle: 0,
            node: 0,
            name: "t",
            kind: TaskKind::Compute,
            start_ns: 10,
            end_ns: 4,
            busy_ns: 0,
            spin_ns: 0,
            polls: 0,
            deps: vec![],
        };
        assert_eq!(span.dur_ns(), 0);
    }

    #[test]
    fn probes_absorb_sums() {
        let mut a = WaitProbes {
            collective_block_ns: 5,
            migration_stall_ns: 7,
        };
        a.absorb(&WaitProbes {
            collective_block_ns: 1,
            migration_stall_ns: 2,
        });
        assert_eq!(a.collective_block_ns, 6);
        assert_eq!(a.migration_stall_ns, 9);
    }
}
