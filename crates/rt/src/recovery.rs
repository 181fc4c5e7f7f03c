//! Checkpoint-based resumption and automatic rank recovery.
//!
//! [`Resumable`] is the one way a distributed run resumes: it advances the
//! run in slices on one [`RtSession`], checkpoints at every slice boundary,
//! and after a failure — or a caller that released the session — starts a
//! fresh session from the last checkpoint. The service's budget slices and
//! [`run_resilient`] both drive it.
//!
//! [`run_resilient`] is the elastic, fault-tolerant conductor: it advances
//! a run in two-cycle slices, and when a rank dies — injected by a
//! [`FaultPlan`] kill or a real panic — the failure is classified (root
//! cause, not cascade), the dead session is torn down, the surviving
//! geometry shrinks by one rank (never below one), and the slice is
//! replayed from the last checkpoint on a session the caller's factory
//! builds, which re-partitions the dead rank's blocks onto the remaining
//! ranks. The bitwise-reproducibility invariant does the heavy lifting: a
//! replayed slice recomputes exactly the lost state, so the recovered end
//! state is bitwise identical to the fault-free run's.

use std::sync::Arc;

use vibe_core::driver::CycleSummary;
use vibe_core::{Driver, Package, Snapshot};
use vibe_ft::{FaultPlan, FaultStats};

use crate::{RtRun, RtSession, SessionError};

/// A distributed run advanced in checkpointed slices.
///
/// Holds the checkpoint of the last slice boundary and, between slices,
/// the live session that took it. A session starts from the checkpoint
/// (from the initial condition before the first boundary) only when there
/// is no live one: for the first slice, after a failed slice, and after
/// [`release`](Self::release). Its replica carries the checkpoint's cycle,
/// so a fault plan's kill lines up with the run whatever session replays
/// it.
pub struct Resumable<P: Package> {
    checkpoint: Option<Arc<Snapshot>>,
    session: Option<RtSession<P>>,
}

impl<P: Package> Default for Resumable<P> {
    fn default() -> Self {
        Self {
            checkpoint: None,
            session: None,
        }
    }
}

impl<P: Package + Send + 'static> Resumable<P> {
    /// The cycle of the last slice boundary, where the next slice starts
    /// (0 before the first).
    pub fn cycle(&self) -> u64 {
        self.checkpoint.as_ref().map_or(0, |s| s.cycle)
    }

    /// The checkpoint of the last slice boundary.
    pub fn checkpoint(&self) -> Option<&Arc<Snapshot>> {
        self.checkpoint.as_ref()
    }

    /// Whether a live session is kept between slices.
    pub fn is_live(&self) -> bool {
        self.session.is_some()
    }

    /// Hands over the live session, if there is one; the next slice starts
    /// a session from the checkpoint. Dropping it joins its rank threads.
    pub fn release(&mut self) -> Option<RtSession<P>> {
        self.session.take()
    }

    /// Runs `n` cycles on the live session, or on the one `build` starts
    /// from the checkpoint, then finishes the run (`last`) or checkpoints
    /// it and keeps the session. Returns rank 0's summaries of the slice
    /// and, on the last slice, the finished run (whose `cycles` and
    /// `summaries` cover its session's share of the run only).
    ///
    /// # Errors
    ///
    /// The session's [`SessionError`]. The session is dropped (its rank
    /// threads joined) and the checkpoint kept, so the next call replays
    /// the slice.
    pub fn slice<B>(
        &mut self,
        n: u64,
        last: bool,
        build: B,
    ) -> Result<(Vec<CycleSummary>, Option<RtRun>), SessionError>
    where
        B: FnOnce(Option<Arc<Snapshot>>) -> RtSession<P>,
    {
        let mut session = match self.session.take() {
            Some(live) => live,
            None => build(self.checkpoint.clone()),
        };
        let summaries = session.run(n)?;
        if last {
            return Ok((summaries, Some(session.finish()?)));
        }
        self.checkpoint = Some(Arc::new(session.checkpoint()?));
        self.session = Some(session);
        Ok((summaries, None))
    }
}

/// Checkpoint cadence of [`run_resilient`], in cycles.
const CHECKPOINT_EVERY: u64 = 2;

/// Failures [`run_resilient`] recovers from before it returns the last one.
const MAX_RETRIES: u32 = 3;

/// Configuration for [`run_resilient`].
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Deterministic fault schedule shared with every session attempt —
    /// the kill latch in the plan is what stops recovery replays from
    /// dying again.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

/// What the resilient conductor did to finish the run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Rank failures detected (injected kills and genuine panics alike).
    pub failures: u32,
    /// Successful restore-and-replay recoveries (equals `failures` when
    /// the run finished inside the retry budget).
    pub recoveries: u32,
    /// Ranks the final (successful) session ran with.
    pub final_nranks: usize,
    /// Message-fault and kill counters from the fault plan (zeros when
    /// no plan was supplied).
    pub fault_stats: FaultStats,
    /// The classified failures, in detection order.
    pub detected: Vec<SessionError>,
}

/// Runs `cycles` timesteps with automatic checkpoint-based recovery.
///
/// `factory(snapshot, nranks)` builds the whole replica once per session
/// attempt, on rank 0's thread: from the initial condition when `snapshot`
/// is `None`, else from the checkpoint (use
/// [`restore_driver`](vibe_core::restore_driver)) — with the driver's own
/// partitioner mapping the blocks onto `nranks` ranks, which is how a dead
/// rank's blocks land on the survivors.
///
/// On success returns the merged [`RtRun`] (its `cycles`/`summaries`
/// cover the final session's segment; `history` and the fingerprint span
/// the whole run) plus the [`RecoveryReport`]. The end state is bitwise
/// identical to a fault-free run of the same problem — message faults
/// never corrupt delivered data and replays recompute exactly the lost
/// cycles.
///
/// # Errors
///
/// The last classified [`SessionError`] when the retry budget (three
/// recoveries) runs out.
pub fn run_resilient<P, F>(
    nranks: usize,
    cycles: u64,
    opts: ResilienceOptions,
    factory: F,
) -> Result<(RtRun, RecoveryReport), SessionError>
where
    P: Package + Send + 'static,
    F: Fn(Option<&Snapshot>, usize) -> Driver<P> + Send + Sync + 'static,
{
    assert!(nranks > 0, "at least one rank");
    let factory = Arc::new(factory);
    let mut report = RecoveryReport::default();
    let mut cur_nranks = nranks;
    let mut run = Resumable::default();
    loop {
        let n = CHECKPOINT_EVERY.min(cycles - run.cycle());
        let ranks = cur_nranks;
        let build = |checkpoint: Option<Arc<Snapshot>>| {
            let factory = Arc::clone(&factory);
            RtSession::with_faults(ranks, opts.fault_plan.clone(), move || {
                factory(checkpoint.as_deref(), ranks)
            })
        };
        match run.slice(n, run.cycle() + n == cycles, build) {
            Ok((_, Some(done))) => {
                if let Some(plan) = &opts.fault_plan {
                    report.fault_stats = plan.stats();
                }
                report.final_nranks = ranks;
                return Ok((done, report));
            }
            Ok((_, None)) => {}
            // The dead session is gone and the checkpoint kept: spend one
            // retry and replay the slice on one rank fewer.
            Err(e) => {
                report.failures += 1;
                report.detected.push(e.clone());
                if report.failures > MAX_RETRIES {
                    return Err(e);
                }
                report.recoveries += 1;
                cur_nranks = (cur_nranks - 1).max(1);
            }
        }
    }
}
