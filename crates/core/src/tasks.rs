//! The cycle executor, mirroring Parthenon's task lists.
//!
//! Parthenon structures each stage of the timestep as a list of tasks with
//! explicit dependencies (§II-C: "a hierarchical task-based execution
//! model, enabling fine-grained parallelism with controlled task
//! granularity"). Here the list is one static table of [`TaskNode`] rows
//! whose dependencies point at earlier rows (the driver's, exported by
//! [`cycle_task_graph`](crate::cycle_task_graph)). Communication tasks can
//! return [`TaskStatus::Incomplete`] to be retried (e.g. `ReceiveBoundBufs`
//! polling for message arrival), while compute tasks complete immediately.
//!
//! `execute` sweeps the table in row order until every node completed,
//! running each node whose dependencies are done — in the same sweep as its
//! last dependency when it comes later in the table — and re-polling
//! incomplete ones. The sweep is strictly deterministic: nodes run on the
//! calling thread (their *inner* block loops fan out onto the persistent
//! worker pool), so results are bitwise identical at any `host_threads`.
//!
//! ```
//! use vibe_core::{cycle_task_graph, TaskKind};
//!
//! let graph = cycle_task_graph();
//! // Every dependency points backwards: table order is an execution order.
//! assert!(graph.iter().enumerate().all(|(i, n)| n.deps.iter().all(|&d| d < i)));
//! assert_eq!((graph[1].name, graph[1].kind), ("Stage0::PackSend", TaskKind::CommSend));
//! ```

use std::borrow::Borrow;
use std::error::Error;
use std::fmt;

pub use vibe_prof::TaskKind;
use vibe_prof::{span_now_ns, StepFunction, TaskSpan};

use crate::driver::CycleTiming;

/// Result of one task invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// The task finished; dependents may run.
    Complete,
    /// The task made no final progress (e.g. a message has not arrived) and
    /// must be polled again.
    Incomplete,
}

/// One row of a task table: a node's name, role, attributed step
/// functions and dependencies. The timeline simulator reads the same rows
/// the executor sweeps to turn the driver's cycle into ordered events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskNode {
    /// Task name; labels the worker-pool dispatches, spans and comm events
    /// the task issues.
    pub name: &'static str,
    /// What the task does (compute, comm send/wait, serial host work).
    pub kind: TaskKind,
    /// [`StepFunction`]s whose recorded work this task performs, in
    /// execution order. Used by the simulator to order a cycle's recorded
    /// quantities the way the driver actually ran them.
    pub funcs: &'static [StepFunction],
    /// Indices of the earlier rows this one depends on.
    pub deps: &'static [usize],
}

/// Errors from executing a task table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// Incomplete tasks exhausted the poll budget without progress.
    Stalled {
        /// Names of the tasks that never completed.
        remaining: Vec<&'static str>,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TaskError::Stalled { remaining } = self;
        write!(f, "task list stalled with {} tasks: ", remaining.len())?;
        write!(f, "{}", remaining.join(", "))
    }
}

impl Error for TaskError {}

/// A node's span accumulators: first invocation start, then productive and
/// polling time and the number of polls.
#[derive(Clone, Copy, Default)]
struct SpanAcc {
    start_ns: Option<u64>,
    busy_ns: u64,
    spin_ns: u64,
    polls: u64,
}

/// Runs every row of `rows` (anything holding a [`TaskNode`], dependencies
/// pointing backwards) to completion by invoking `run(i)` for row `i`, in
/// insertion-order sweeps; incomplete nodes are re-polled in later sweeps,
/// interleaved with other ready nodes — how Parthenon overlaps
/// communication with computation. Each invocation labels its worker-pool
/// dispatches with the node's name.
///
/// Overlap is measured against the progress engine's state: a completed
/// [`TaskKind::CommSend`] raises the outstanding-traffic count, a completed
/// [`TaskKind::CommWait`] lowers it, and [`TaskKind::Compute`] wall time
/// spent while traffic is outstanding is overlapped compute. With `timed`
/// each invocation is wall-clocked into the returned [`CycleTiming`];
/// without it that is all zeros. With `spans` every node appends one
/// [`TaskSpan`] on completion (first start and completion on the
/// process-global span epoch, action time split into productive `busy_ns`
/// and `Incomplete` polling `spin_ns`, its dependencies; the caller stamps
/// `rank`/`cycle`). Neither changes which nodes run or in what order.
///
/// # Errors
///
/// [`TaskError::Stalled`] when a sweep makes no progress after `max_polls`
/// incomplete invocations (`None`: no budget).
pub(crate) fn execute<R: Borrow<TaskNode>>(
    rows: &[R],
    max_polls: Option<usize>,
    timed: bool,
    mut spans: Option<&mut Vec<TaskSpan>>,
    mut run: impl FnMut(usize) -> TaskStatus,
) -> Result<CycleTiming, TaskError> {
    let clocked = timed || spans.is_some();
    let mut done = vec![false; rows.len()];
    let mut acc = vec![SpanAcc::default(); if spans.is_some() { rows.len() } else { 0 }];
    let mut timing = CycleTiming::default();
    let (mut outstanding, mut completed, mut polls) = (0u64, 0, 0);
    while completed < rows.len() {
        let mut progressed = false;
        for (i, row) in rows.iter().enumerate() {
            let node = row.borrow();
            if done[i] || !node.deps.iter().all(|&d| done[d]) {
                continue;
            }
            vibe_exec::set_dispatch_label(Some(node.name));
            let start = if clocked { span_now_ns() } else { 0 };
            let status = run(i);
            let end = if clocked { span_now_ns() } else { 0 };
            vibe_exec::set_dispatch_label(None);
            let dur = end.saturating_sub(start);
            if timed && node.kind == TaskKind::Compute {
                timing.compute_task_ns += dur;
                if outstanding > 0 {
                    timing.overlapped_compute_ns += dur;
                }
            }
            if let Some(a) = acc.get_mut(i) {
                a.start_ns.get_or_insert(start);
                match status {
                    TaskStatus::Complete => a.busy_ns += dur,
                    TaskStatus::Incomplete => {
                        a.spin_ns += dur;
                        a.polls += 1;
                    }
                }
            }
            if status == TaskStatus::Incomplete {
                polls += 1;
                continue;
            }
            done[i] = true;
            completed += 1;
            progressed = true;
            match node.kind {
                TaskKind::CommSend => outstanding += 1,
                TaskKind::CommWait => outstanding = outstanding.saturating_sub(1),
                TaskKind::Compute | TaskKind::Serial => {}
            }
            if let Some(sink) = spans.as_deref_mut() {
                let a = acc[i];
                sink.push(TaskSpan {
                    rank: 0,
                    cycle: 0,
                    node: i,
                    name: node.name,
                    kind: node.kind,
                    start_ns: a.start_ns.unwrap_or(start),
                    end_ns: end,
                    busy_ns: a.busy_ns,
                    spin_ns: a.spin_ns,
                    polls: a.polls,
                    deps: node.deps.to_vec(),
                });
            }
        }
        if !progressed && max_polls.is_some_and(|max| polls >= max) {
            let pending = rows.iter().zip(&done).filter(|(_, &d)| !d);
            let remaining = pending.map(|(r, _)| r.borrow().name).collect();
            return Err(TaskError::Stalled { remaining });
        }
    }
    Ok(timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    const fn row(name: &'static str, kind: TaskKind, deps: &'static [usize]) -> TaskNode {
        TaskNode {
            name,
            kind,
            funcs: &[],
            deps,
        }
    }

    fn spin_50us() {
        let t = Instant::now();
        while t.elapsed().as_micros() < 50 {
            std::hint::spin_loop();
        }
    }

    /// Runs `rows` untimed with no budget, logging each invocation's row.
    fn invocation_log(
        rows: &[TaskNode],
        mut status: impl FnMut(usize) -> TaskStatus,
    ) -> Vec<usize> {
        let mut log = Vec::new();
        execute(rows, None, false, None, |i| {
            log.push(i);
            status(i)
        })
        .unwrap();
        log
    }

    #[test]
    fn sweeps_run_in_insertion_order() {
        use TaskKind::Compute;
        // A diamond: the join comes later in the table than both of its
        // dependencies, so one sweep runs all four in row order.
        static DIAMOND: [TaskNode; 4] = [
            row("start", Compute, &[]),
            row("left", Compute, &[0]),
            row("right", Compute, &[0]),
            row("join", Compute, &[1, 2]),
        ];
        assert_eq!(
            invocation_log(&DIAMOND, |_| TaskStatus::Complete),
            [0, 1, 2, 3]
        );
        // `after` becomes ready mid-sweep, when `recv` completes on its
        // second invocation, and runs in that same sweep; `free` runs in
        // the first sweep while `recv` is still polling.
        static POLLED: [TaskNode; 3] = [
            row("recv", TaskKind::CommWait, &[]),
            row("free", Compute, &[]),
            row("after", Compute, &[0]),
        ];
        let mut calls = 0;
        let log = invocation_log(&POLLED, |i| {
            calls += usize::from(i == 0);
            match (i, calls) {
                (0, 1) => TaskStatus::Incomplete,
                _ => TaskStatus::Complete,
            }
        });
        assert_eq!(log, [0, 1, 0, 2]);
    }

    #[test]
    fn incomplete_tasks_are_polled_until_ready() {
        // Models ReceiveBoundBufs: completes on the third poll, while an
        // independent compute node runs in the first sweep.
        static ROWS: [TaskNode; 3] = [
            row("recv", TaskKind::CommWait, &[]),
            row("compute", TaskKind::Compute, &[]),
            row("set_bounds", TaskKind::Compute, &[0]),
        ];
        let mut polls = 0;
        let log = invocation_log(&ROWS, |i| {
            if i > 0 {
                return TaskStatus::Complete;
            }
            polls += 1;
            match polls {
                3 => TaskStatus::Complete,
                _ => TaskStatus::Incomplete,
            }
        });
        assert_eq!(log, [0, 1, 0, 0, 2]);
    }

    #[test]
    fn timed_execution_measures_comm_compute_overlap() {
        // send completes -> traffic outstanding; compute runs while the
        // wait task polls; wait retires the traffic; a final compute runs
        // with nothing outstanding.
        static ROWS: [TaskNode; 4] = [
            row("send", TaskKind::CommSend, &[]),
            row("overlapped", TaskKind::Compute, &[0]),
            row("wait", TaskKind::CommWait, &[0]),
            row("tail", TaskKind::Compute, &[1, 2]),
        ];
        let run = |polls: &mut u32, i: usize| match ROWS[i].name {
            "wait" => {
                *polls += 1;
                match *polls {
                    1 => TaskStatus::Incomplete,
                    _ => TaskStatus::Complete,
                }
            }
            "overlapped" | "tail" => {
                spin_50us();
                TaskStatus::Complete
            }
            _ => TaskStatus::Complete,
        };
        let mut polls = 0;
        let t = execute(&ROWS, None, true, None, |i| run(&mut polls, i)).unwrap();
        assert!(
            t.overlapped_compute_ns > 0,
            "compute between send and wait counts as overlapped"
        );
        assert!(
            t.overlapped_compute_ns < t.compute_task_ns,
            "the tail compute ran with no traffic outstanding"
        );
        let mut polls = 0;
        let t = execute(&ROWS, None, false, None, |i| run(&mut polls, i)).unwrap();
        assert_eq!(t, CycleTiming::default(), "an untimed sweep reads no clock");
        // Spans read the clock but do not time the cycle.
        let mut polls = 0;
        let t = execute(&ROWS, None, false, Some(&mut Vec::new()), |i| {
            run(&mut polls, i)
        })
        .unwrap();
        assert_eq!(t, CycleTiming::default());
    }

    #[test]
    fn spanned_execution_captures_task_spans() {
        static ROWS: [TaskNode; 3] = [
            row("send", TaskKind::CommSend, &[]),
            row("wait", TaskKind::CommWait, &[0]),
            row("update", TaskKind::Compute, &[1]),
        ];
        // Two empty polls, then completion.
        let mut calls = 0;
        let mut spans = Vec::new();
        execute(&ROWS, None, false, Some(&mut spans), |i| {
            if i != 1 {
                return TaskStatus::Complete;
            }
            calls += 1;
            spin_50us();
            match calls {
                1 | 2 => TaskStatus::Incomplete,
                _ => TaskStatus::Complete,
            }
        })
        .unwrap();
        let names: Vec<_> = spans.iter().map(|s| (s.node, s.name, s.kind)).collect();
        assert_eq!(
            names,
            [
                (0, "send", TaskKind::CommSend),
                (1, "wait", TaskKind::CommWait),
                (2, "update", TaskKind::Compute),
            ]
        );
        let wait = &spans[1];
        assert_eq!((wait.polls, wait.deps.as_slice()), (2, &[0][..]));
        assert!(
            wait.spin_ns > 0 && wait.busy_ns > 0,
            "two spinning polls, one productive call"
        );
        assert!(wait.busy_ns + wait.spin_ns <= wait.end_ns - wait.start_ns);
        assert_eq!((spans[0].polls, spans[0].spin_ns), (0, 0));
        assert!(
            spans[2].start_ns >= wait.end_ns,
            "dependent task starts after its dependency completes"
        );
    }

    #[test]
    fn poll_budget_reports_the_stuck_node() {
        static ROWS: [TaskNode; 3] = [
            row("fill", TaskKind::Compute, &[]),
            row("never", TaskKind::CommWait, &[0]),
            row("flux", TaskKind::Compute, &[1]),
        ];
        let mut calls = 0;
        let err = execute(&ROWS, Some(5), false, None, |i| {
            calls += 1;
            match i {
                1 => TaskStatus::Incomplete,
                _ => TaskStatus::Complete,
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            TaskError::Stalled {
                remaining: vec!["never", "flux"]
            }
        );
        assert_eq!(calls, 1 + 5, "the fill, then five polls");
        assert_eq!(
            err.to_string(),
            "task list stalled with 2 tasks: never, flux"
        );
    }
}
