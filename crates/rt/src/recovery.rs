//! Checkpoint-based automatic rank recovery: the elastic, fault-tolerant
//! conductor loop on top of [`RtSession`].
//!
//! [`run_resilient`] advances a distributed run in two-cycle slices,
//! checkpointing between them. When a rank
//! dies — injected by a [`FaultPlan`] kill or a real panic — the failure is
//! classified (root cause, not cascade), the dead session is torn down,
//! the surviving geometry shrinks by one rank (never below one), and a
//! fresh session is rebuilt from the last checkpoint via the caller's
//! factory, which re-partitions the dead rank's blocks onto the remaining
//! ranks. The bitwise-reproducibility
//! invariant does the heavy lifting: a replayed slice recomputes exactly
//! the lost state, so the recovered end state is bitwise identical to
//! the fault-free run's.

use std::sync::Arc;

use vibe_core::{Driver, Package, Snapshot};
use vibe_ft::{FaultPlan, FaultStats};

use crate::{RtRun, RtSession, SessionError, SessionOptions};

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
    let mut report = RecoveryReport {
        final_nranks: nranks,
        ..Default::default()
    };
    let mut cur_nranks = nranks;
    let mut snapshot: Option<Arc<Snapshot>> = None;
    let mut done: u64 = 0;
    'attempt: loop {
        // Bookkeeping shared by every failure site in the slice loop:
        // count the failure, spend one retry, roll back to the last
        // checkpoint, shrink the surviving geometry, and start a fresh
        // attempt. (The dead session drops — joining its threads — when
        // control leaves the loop body.)
        macro_rules! recover {
            ($e:expr) => {{
                let e = $e;
                report.failures += 1;
                report.detected.push(e.clone());
                if report.failures > MAX_RETRIES {
                    return Err(e);
                }
                done = snapshot.as_ref().map(|s| s.cycle).unwrap_or(0);
                cur_nranks = (cur_nranks - 1).max(1);
                report.recoveries += 1;
                continue 'attempt;
            }};
        }

        let session_opts = SessionOptions {
            fault_plan: opts.fault_plan.clone(),
            start_cycle: done,
        };
        let make = {
            let factory = Arc::clone(&factory);
            let snap = snapshot.clone();
            let n = cur_nranks;
            move || factory(snap.as_deref(), n)
        };
        let mut session = RtSession::with_options(cur_nranks, session_opts, make);
        loop {
            if done >= cycles {
                match session.finish() {
                    Ok(run) => {
                        if let Some(plan) = &opts.fault_plan {
                            report.fault_stats = plan.stats();
                        }
                        report.final_nranks = cur_nranks;
                        return Ok((run, report));
                    }
                    Err(e) => recover!(e),
                }
            }
            let slice = CHECKPOINT_EVERY.min(cycles - done);
            if let Err(e) = session.run(slice) {
                recover!(e);
            }
            done += slice;
            if done < cycles {
                match session.checkpoint() {
                    Ok(s) => snapshot = Some(Arc::new(s)),
                    Err(e) => recover!(e),
                }
            }
        }
    }
}
