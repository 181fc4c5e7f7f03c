//! Hierarchical task-based execution, mirroring Parthenon's task lists.
//!
//! Parthenon structures each stage of the timestep as a list of tasks with
//! explicit dependencies (§II-C: "a hierarchical task-based execution
//! model, enabling fine-grained parallelism with controlled task
//! granularity"). Communication tasks can return
//! [`TaskStatus::Incomplete`] to be retried (e.g. `ReceiveBoundBufs`
//! polling for message arrival), while compute tasks complete immediately.
//!
//! [`TaskList`] executes tasks respecting dependencies, re-polling
//! incomplete tasks until everything finishes or no progress is possible.
//! The ready sweep is strictly deterministic — tasks are visited in
//! insertion order and run on the driver thread (their *inner* block loops
//! fan out onto the persistent worker pool), so results are bitwise
//! identical at any `host_threads`.
//!
//! ```
//! use vibe_core::tasks::{TaskList, TaskStatus};
//!
//! let mut log = Vec::new();
//! let mut list = TaskList::new();
//! let a = list.add_task("fill", [], |log: &mut Vec<&str>| {
//!     log.push("fill");
//!     TaskStatus::Complete
//! });
//! list.add_task("flux", [a], |log: &mut Vec<&str>| {
//!     log.push("flux");
//!     TaskStatus::Complete
//! });
//! list.execute(&mut log).expect("completes");
//! assert_eq!(log, ["fill", "flux"]);
//! ```

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use vibe_prof::StepFunction;

/// Result of one task invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// The task finished; dependents may run.
    Complete,
    /// The task made no final progress (e.g. a message has not arrived) and
    /// must be polled again.
    Incomplete,
}

/// What a task does, for overlap accounting and simulator replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TaskKind {
    /// Block-parallel device/host compute (flux sweeps, updates).
    #[default]
    Compute,
    /// Posts receives and/or sends messages; completion puts traffic in
    /// flight that later `CommWait` tasks retire.
    CommSend,
    /// Polls the progress engine for in-flight traffic; typically returns
    /// [`TaskStatus::Incomplete`] until everything arrived.
    CommWait,
    /// Serial host work on the driver thread (tree ops, regridding).
    Serial,
}

/// Maps the executor's task kind onto the profiler's span taxonomy
/// (`vibe-prof` sits below this crate, so the mapping lives here).
pub fn span_kind(kind: TaskKind) -> vibe_prof::SpanKind {
    match kind {
        TaskKind::Compute => vibe_prof::SpanKind::Compute,
        TaskKind::CommSend => vibe_prof::SpanKind::CommSend,
        TaskKind::CommWait => vibe_prof::SpanKind::CommWait,
        TaskKind::Serial => vibe_prof::SpanKind::Serial,
    }
}

/// Opaque task identifier within one [`TaskList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// Errors from task-list execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// A dependency id does not belong to this list.
    UnknownDependency(TaskId),
    /// Dependencies form a cycle, or incomplete tasks stopped progressing.
    Stalled {
        /// Names of the tasks that never completed.
        remaining: Vec<String>,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::UnknownDependency(id) => write!(f, "unknown dependency {id:?}"),
            TaskError::Stalled { remaining } => {
                write!(f, "task list stalled with {} tasks: ", remaining.len())?;
                write!(f, "{}", remaining.join(", "))
            }
        }
    }
}

impl Error for TaskError {}

/// Errors from structural analysis of a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The dependency edges contain at least one cycle.
    Cycle {
        /// Names of the nodes involved in (or downstream of) the cycle.
        remaining: Vec<String>,
    },
    /// A dependency index points outside the graph.
    DanglingDependency {
        /// Name of the node holding the bad edge.
        node: String,
        /// The out-of-range dependency index.
        dep: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle { remaining } => {
                write!(
                    f,
                    "task graph has a cycle through: {}",
                    remaining.join(", ")
                )
            }
            GraphError::DanglingDependency { node, dep } => {
                write!(f, "task {node:?} depends on out-of-range index {dep}")
            }
        }
    }
}

impl Error for GraphError {}

struct Task<Ctx> {
    name: String,
    /// Static name for pool dispatch labeling, when known at compile time.
    label: Option<&'static str>,
    kind: TaskKind,
    funcs: Vec<StepFunction>,
    deps: Vec<TaskId>,
    action: Box<dyn FnMut(&mut Ctx) -> TaskStatus>,
    done: bool,
}

/// Action-free snapshot of one task: its name, role, attributed step
/// functions, and dependency indices. [`TaskList::graph`] exports these so
/// consumers that cannot hold the closures — the timeline simulator turning
/// the driver's cycle into scheduled events — can still see the dependency
/// structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskNode {
    /// Task name as given to [`TaskList::add_task`].
    pub name: String,
    /// What the task does (compute, comm send/wait, serial host work).
    pub kind: TaskKind,
    /// [`StepFunction`]s whose recorded work this task performs, in
    /// execution order. Used by the simulator to order a cycle's recorded
    /// quantities the way the driver actually ran them.
    pub funcs: Vec<StepFunction>,
    /// Indices (into the graph vector) of the tasks this one depends on.
    pub deps: Vec<usize>,
}

impl TaskNode {
    /// A compute node with no function attribution (test/doc convenience).
    pub fn new(name: impl Into<String>, deps: Vec<usize>) -> Self {
        Self {
            name: name.into(),
            kind: TaskKind::Compute,
            funcs: Vec::new(),
            deps,
        }
    }
}

/// Topologically sorts a task graph (Kahn's algorithm, stable: ties break
/// by insertion order). Returns the node indices in a dependency-respecting
/// execution order; the empty graph yields an empty order.
///
/// # Errors
///
/// [`GraphError::DanglingDependency`] when an edge points outside the
/// graph; [`GraphError::Cycle`] when the edges are not acyclic.
pub fn topo_order(graph: &[TaskNode]) -> Result<Vec<usize>, GraphError> {
    let n = graph.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in graph.iter().enumerate() {
        indegree[i] = node.deps.len();
        for &d in &node.deps {
            if d >= n {
                return Err(GraphError::DanglingDependency {
                    node: node.name.clone(),
                    dep: d,
                });
            }
            dependents[d].push(i);
        }
    }
    let mut ready: std::collections::VecDeque<usize> =
        (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop_front() {
        order.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push_back(j);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let in_order: HashSet<usize> = order.iter().copied().collect();
        Err(GraphError::Cycle {
            remaining: graph
                .iter()
                .enumerate()
                .filter(|(i, _)| !in_order.contains(i))
                .map(|(_, t)| t.name.clone())
                .collect(),
        })
    }
}

/// Execution accounting from one [`TaskList::execute_timed`] pass.
///
/// Comm/compute overlap is measured against the progress engine's state:
/// a completed [`TaskKind::CommSend`] task raises the outstanding-traffic
/// count, a completed [`TaskKind::CommWait`] task lowers it, and any
/// [`TaskKind::Compute`] wall time spent while traffic is outstanding is
/// overlapped compute — work the host did instead of blocking on the
/// exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Wall nanoseconds inside [`TaskKind::Compute`] task actions.
    pub compute_ns: u64,
    /// Subset of `compute_ns` spent while comm traffic was outstanding.
    pub overlapped_compute_ns: u64,
    /// Wall nanoseconds inside comm task actions (sends, polls, unpacks).
    pub comm_ns: u64,
    /// Times any task returned [`TaskStatus::Incomplete`].
    pub polls: u64,
}

impl ExecStats {
    /// Fraction of compute wall time that overlapped outstanding
    /// communication, in `[0, 1]`.
    pub fn overlap_fraction(&self) -> f64 {
        if self.compute_ns == 0 {
            0.0
        } else {
            self.overlapped_compute_ns as f64 / self.compute_ns as f64
        }
    }

    /// Accumulates another pass's counters into this one.
    pub fn accumulate(&mut self, other: &ExecStats) {
        self.compute_ns += other.compute_ns;
        self.overlapped_compute_ns += other.overlapped_compute_ns;
        self.comm_ns += other.comm_ns;
        self.polls += other.polls;
    }
}

/// An ordered collection of interdependent tasks executed against a shared
/// mutable context `Ctx` (typically the driver state for one cycle).
pub struct TaskList<Ctx> {
    tasks: Vec<Task<Ctx>>,
    /// Retry budget for incomplete tasks per execute() call.
    max_polls: usize,
}

impl<Ctx> Default for TaskList<Ctx> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Ctx> fmt::Debug for TaskList<Ctx> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskList")
            .field(
                "tasks",
                &self.tasks.iter().map(|t| &t.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<Ctx> TaskList<Ctx> {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            max_polls: 10_000,
        }
    }

    /// Limits how many times incomplete tasks are re-polled before the list
    /// reports a stall.
    pub fn set_max_polls(&mut self, max_polls: usize) {
        self.max_polls = max_polls;
    }

    /// Adds a compute task depending on `deps`; returns its id.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        deps: impl IntoIterator<Item = TaskId>,
        action: impl FnMut(&mut Ctx) -> TaskStatus + 'static,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            name: name.into(),
            label: None,
            kind: TaskKind::Compute,
            funcs: Vec::new(),
            deps: deps.into_iter().collect(),
            action: Box::new(action),
            done: false,
        });
        id
    }

    /// Adds a task with full metadata: its kind (for overlap accounting),
    /// the [`StepFunction`]s whose recorded work it performs (for simulator
    /// replay), and a static name that labels the worker-pool dispatches it
    /// issues.
    pub fn add_task_meta(
        &mut self,
        name: &'static str,
        kind: TaskKind,
        funcs: impl IntoIterator<Item = StepFunction>,
        deps: impl IntoIterator<Item = TaskId>,
        action: impl FnMut(&mut Ctx) -> TaskStatus + 'static,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            name: name.to_string(),
            label: Some(name),
            kind,
            funcs: funcs.into_iter().collect(),
            deps: deps.into_iter().collect(),
            action: Box::new(action),
            done: false,
        });
        id
    }

    /// Action-free snapshot of the dependency graph: one [`TaskNode`] per
    /// task, in insertion order, with dependencies as indices into the
    /// returned vector. This is what the timeline simulator consumes to
    /// turn the driver's cycle into ordered scheduler events.
    pub fn graph(&self) -> Vec<TaskNode> {
        self.tasks
            .iter()
            .map(|t| TaskNode {
                name: t.name.clone(),
                kind: t.kind,
                funcs: t.funcs.clone(),
                deps: t.deps.iter().map(|d| d.0).collect(),
            })
            .collect()
    }

    /// Number of tasks in the list.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the list holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Executes the list to completion without timing instrumentation.
    ///
    /// # Errors
    ///
    /// [`TaskError::UnknownDependency`] for out-of-range dependency ids;
    /// [`TaskError::Stalled`] if a dependency cycle exists or incomplete
    /// tasks exceed the poll budget.
    pub fn execute(&mut self, ctx: &mut Ctx) -> Result<ExecStats, TaskError> {
        self.execute_timed(ctx, false)
    }

    /// Executes the list to completion: tasks run as soon as their
    /// dependencies complete; incomplete tasks are re-polled in subsequent
    /// sweeps (interleaved with other ready tasks, exactly how Parthenon
    /// overlaps communication with computation). The sweep visits tasks in
    /// insertion order on the calling thread, so execution order — and any
    /// floating-point result — is independent of worker-pool width.
    ///
    /// With `timed`, each action is wall-clocked and the returned
    /// [`ExecStats`] carries the comm/compute overlap accounting; without
    /// it no clock is read and only the poll counter is tracked.
    ///
    /// # Errors
    ///
    /// [`TaskError::UnknownDependency`] for out-of-range dependency ids;
    /// [`TaskError::Stalled`] if a dependency cycle exists or incomplete
    /// tasks exceed the poll budget.
    pub fn execute_timed(&mut self, ctx: &mut Ctx, timed: bool) -> Result<ExecStats, TaskError> {
        self.execute_spanned(ctx, timed, None)
    }

    /// [`TaskList::execute_timed`] plus causal span capture: when `spans`
    /// is given, every *labeled* task (see [`TaskList::add_task_meta`])
    /// appends one [`vibe_prof::TaskSpan`] on completion, carrying its
    /// first-start/completion timestamps on the process-global span epoch,
    /// its action time split into productive (`busy_ns`) and `Incomplete`
    /// polling (`spin_ns`) portions, and its dependency edges. The caller
    /// stamps `rank`/`cycle` afterwards (the executor knows neither).
    ///
    /// Capture implies per-invocation timing regardless of `timed`; the
    /// action sequence — and therefore every floating-point result — is
    /// identical with capture on or off.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TaskList::execute_timed`].
    pub fn execute_spanned(
        &mut self,
        ctx: &mut Ctx,
        timed: bool,
        mut spans: Option<&mut Vec<vibe_prof::TaskSpan>>,
    ) -> Result<ExecStats, TaskError> {
        let n = self.tasks.len();
        for t in &self.tasks {
            for d in &t.deps {
                if d.0 >= n {
                    return Err(TaskError::UnknownDependency(*d));
                }
            }
        }
        for t in &mut self.tasks {
            t.done = false;
        }
        let capturing = spans.is_some();
        let clocked = timed || capturing;
        // Per-task span accumulators (only paid when capturing).
        let mut first_start = if capturing {
            vec![u64::MAX; n]
        } else {
            Vec::new()
        };
        let mut busy = if capturing { vec![0u64; n] } else { Vec::new() };
        let mut spin = if capturing { vec![0u64; n] } else { Vec::new() };
        let mut task_polls = if capturing { vec![0u64; n] } else { Vec::new() };
        let mut stats = ExecStats::default();
        let mut outstanding: u64 = 0;
        let mut completed = 0usize;
        let mut polls = 0usize;
        while completed < n {
            let mut progressed = false;
            for i in 0..n {
                if self.tasks[i].done {
                    continue;
                }
                let ready = {
                    let task = &self.tasks[i];
                    task.deps.iter().all(|d| self.tasks[d.0].done)
                };
                if !ready {
                    continue;
                }
                let label = self.tasks[i].label;
                if label.is_some() {
                    vibe_exec::set_dispatch_label(label);
                }
                let start_ns = clocked.then(vibe_prof::span_now_ns);
                let status = (self.tasks[i].action)(ctx);
                let invocation = start_ns.map(|s| (s, vibe_prof::span_now_ns()));
                if timed {
                    if let Some((s, e)) = invocation {
                        let dur = e.saturating_sub(s);
                        match self.tasks[i].kind {
                            TaskKind::Compute => {
                                stats.compute_ns += dur;
                                if outstanding > 0 {
                                    stats.overlapped_compute_ns += dur;
                                }
                            }
                            TaskKind::CommSend | TaskKind::CommWait => stats.comm_ns += dur,
                            TaskKind::Serial => {}
                        }
                    }
                }
                if label.is_some() {
                    vibe_exec::set_dispatch_label(None);
                }
                if capturing {
                    if let Some((s, e)) = invocation {
                        if first_start[i] == u64::MAX {
                            first_start[i] = s;
                        }
                        let dur = e.saturating_sub(s);
                        match status {
                            TaskStatus::Complete => busy[i] += dur,
                            TaskStatus::Incomplete => {
                                spin[i] += dur;
                                task_polls[i] += 1;
                            }
                        }
                    }
                }
                match status {
                    TaskStatus::Complete => {
                        self.tasks[i].done = true;
                        completed += 1;
                        progressed = true;
                        match self.tasks[i].kind {
                            TaskKind::CommSend => outstanding += 1,
                            TaskKind::CommWait => outstanding = outstanding.saturating_sub(1),
                            TaskKind::Compute | TaskKind::Serial => {}
                        }
                        if let (Some(sink), Some(name), Some((_, end))) =
                            (spans.as_deref_mut(), label, invocation)
                        {
                            sink.push(vibe_prof::TaskSpan {
                                rank: 0,
                                cycle: 0,
                                node: i,
                                name,
                                kind: span_kind(self.tasks[i].kind),
                                start_ns: first_start[i],
                                end_ns: end,
                                busy_ns: busy[i],
                                spin_ns: spin[i],
                                polls: task_polls[i],
                                deps: self.tasks[i].deps.iter().map(|d| d.0).collect(),
                            });
                        }
                    }
                    TaskStatus::Incomplete => {
                        polls += 1;
                        stats.polls += 1;
                    }
                }
            }
            if !progressed && (polls >= self.max_polls || !self.any_pollable()) {
                let remaining = self
                    .tasks
                    .iter()
                    .filter(|t| !t.done)
                    .map(|t| t.name.clone())
                    .collect();
                return Err(TaskError::Stalled { remaining });
            }
        }
        Ok(stats)
    }

    /// `true` if some unfinished task has all dependencies met (i.e. it can
    /// still be polled).
    fn any_pollable(&self) -> bool {
        let done: HashSet<usize> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.done)
            .map(|(i, _)| i)
            .collect();
        self.tasks
            .iter()
            .any(|t| !t.done && t.deps.iter().all(|d| done.contains(&d.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn linear_chain_runs_in_order() {
        let mut list: TaskList<Vec<u32>> = TaskList::new();
        let a = list.add_task("a", [], |log: &mut Vec<u32>| {
            log.push(1);
            TaskStatus::Complete
        });
        let b = list.add_task("b", [a], |log| {
            log.push(2);
            TaskStatus::Complete
        });
        list.add_task("c", [b], |log| {
            log.push(3);
            TaskStatus::Complete
        });
        let mut log = Vec::new();
        list.execute(&mut log).unwrap();
        assert_eq!(log, [1, 2, 3]);
    }

    #[test]
    fn diamond_dependencies_respected() {
        let mut list: TaskList<Vec<&str>> = TaskList::new();
        let start = list.add_task("start", [], |log: &mut Vec<&str>| {
            log.push("start");
            TaskStatus::Complete
        });
        let left = list.add_task("left", [start], |log| {
            log.push("left");
            TaskStatus::Complete
        });
        let right = list.add_task("right", [start], |log| {
            log.push("right");
            TaskStatus::Complete
        });
        list.add_task("join", [left, right], |log| {
            log.push("join");
            TaskStatus::Complete
        });
        let mut log = Vec::new();
        list.execute(&mut log).unwrap();
        assert_eq!(log.first(), Some(&"start"));
        assert_eq!(log.last(), Some(&"join"));
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn incomplete_tasks_are_polled_until_ready() {
        // Models ReceiveBoundBufs: completes on the third poll.
        let mut list: TaskList<(u32, Vec<&str>)> = TaskList::new();
        let recv = list.add_task("recv", [], |ctx: &mut (u32, Vec<&str>)| {
            ctx.0 += 1;
            if ctx.0 >= 3 {
                ctx.1.push("recv");
                TaskStatus::Complete
            } else {
                TaskStatus::Incomplete
            }
        });
        list.add_task("set_bounds", [recv], |ctx| {
            ctx.1.push("set_bounds");
            TaskStatus::Complete
        });
        let mut ctx = (0, Vec::new());
        let stats = list.execute(&mut ctx).unwrap();
        assert_eq!(ctx.0, 3, "polled three times");
        assert_eq!(ctx.1, ["recv", "set_bounds"]);
        assert_eq!(stats.polls, 2, "two incomplete returns before completion");
        assert_eq!(
            (stats.compute_ns, stats.overlapped_compute_ns, stats.comm_ns),
            (0, 0, 0),
            "untimed pass reads no clock"
        );
    }

    #[test]
    fn independent_tasks_interleave_with_polling() {
        // While recv polls, compute tasks proceed (comm/compute overlap).
        let mut list: TaskList<(u32, Vec<&'static str>)> = TaskList::new();
        list.add_task("recv", [], |ctx: &mut (u32, Vec<&'static str>)| {
            ctx.0 += 1;
            if ctx.0 >= 2 {
                ctx.1.push("recv");
                TaskStatus::Complete
            } else {
                TaskStatus::Incomplete
            }
        });
        list.add_task("compute", [], |ctx| {
            ctx.1.push("compute");
            TaskStatus::Complete
        });
        let mut ctx = (0, Vec::new());
        list.execute(&mut ctx).unwrap();
        assert_eq!(ctx.1, ["compute", "recv"], "compute ran during polling");
    }

    #[test]
    fn cycle_is_reported_as_stall() {
        let mut list: TaskList<()> = TaskList::new();
        // Forward-reference b from a by building ids manually: a depends on
        // the (future) second task.
        let fake_b = TaskId(1);
        list.add_task("a", [fake_b], |_| TaskStatus::Complete);
        list.add_task("b", [TaskId(0)], |_| TaskStatus::Complete);
        let err = list.execute(&mut ()).unwrap_err();
        match err {
            TaskError::Stalled { remaining } => {
                assert_eq!(remaining, vec!["a".to_string(), "b".to_string()]);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut list: TaskList<()> = TaskList::new();
        list.add_task("a", [TaskId(7)], |_| TaskStatus::Complete);
        assert_eq!(
            list.execute(&mut ()),
            Err(TaskError::UnknownDependency(TaskId(7)))
        );
    }

    #[test]
    fn poll_budget_limits_livelock() {
        let mut list: TaskList<()> = TaskList::new();
        list.add_task("never", [], |_| TaskStatus::Incomplete);
        list.set_max_polls(5);
        let err = list.execute(&mut ()).unwrap_err();
        assert!(matches!(err, TaskError::Stalled { .. }));
    }

    #[test]
    fn graph_snapshot_and_topo_order() {
        let mut list: TaskList<()> = TaskList::new();
        let start = list.add_task("start", [], |_| TaskStatus::Complete);
        let left = list.add_task("left", [start], |_| TaskStatus::Complete);
        let right = list.add_task("right", [start], |_| TaskStatus::Complete);
        list.add_task("join", [left, right], |_| TaskStatus::Complete);
        let graph = list.graph();
        assert_eq!(
            graph,
            vec![
                TaskNode::new("start", vec![]),
                TaskNode::new("left", vec![0]),
                TaskNode::new("right", vec![0]),
                TaskNode::new("join", vec![1, 2]),
            ]
        );
        let order = topo_order(&graph).unwrap();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn task_metadata_survives_graph_export() {
        let mut list: TaskList<()> = TaskList::new();
        let send = list.add_task_meta(
            "PackAndSend",
            TaskKind::CommSend,
            [StepFunction::SendBoundBufs],
            [],
            |_| TaskStatus::Complete,
        );
        list.add_task_meta(
            "WaitAndUnpack",
            TaskKind::CommWait,
            [StepFunction::ReceiveBoundBufs, StepFunction::SetBounds],
            [send],
            |_| TaskStatus::Complete,
        );
        let graph = list.graph();
        assert_eq!(graph[0].kind, TaskKind::CommSend);
        assert_eq!(graph[0].funcs, vec![StepFunction::SendBoundBufs]);
        assert_eq!(graph[1].kind, TaskKind::CommWait);
        assert_eq!(graph[1].deps, vec![0]);
        list.execute(&mut ()).unwrap();
    }

    #[test]
    fn topo_order_rejects_cycles() {
        let cyclic = vec![
            TaskNode::new("a", vec![1]),
            TaskNode::new("b", vec![0]),
            TaskNode::new("c", vec![]),
        ];
        match topo_order(&cyclic) {
            Err(GraphError::Cycle { remaining }) => {
                assert_eq!(remaining, vec!["a".to_string(), "b".to_string()]);
            }
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn topo_order_rejects_dangling_dependency() {
        let dangling = vec![TaskNode::new("a", vec![9])];
        assert_eq!(
            topo_order(&dangling),
            Err(GraphError::DanglingDependency {
                node: "a".to_string(),
                dep: 9,
            })
        );
    }

    #[test]
    fn topo_order_of_empty_graph_is_empty() {
        assert_eq!(topo_order(&[]), Ok(vec![]));
    }

    #[test]
    fn timed_execution_measures_comm_compute_overlap() {
        // send completes -> traffic outstanding; compute runs while the
        // wait task polls; wait retires the traffic; a final compute runs
        // with nothing outstanding.
        fn spin() {
            let t = Instant::now();
            while t.elapsed().as_micros() < 50 {
                std::hint::spin_loop();
            }
        }
        let mut list: TaskList<u32> = TaskList::new();
        let send = list.add_task_meta("send", TaskKind::CommSend, [], [], |_: &mut u32| {
            TaskStatus::Complete
        });
        let overlapped = list.add_task_meta("overlapped", TaskKind::Compute, [], [send], |_| {
            spin();
            TaskStatus::Complete
        });
        let wait = list.add_task_meta("wait", TaskKind::CommWait, [], [send], |polls: &mut u32| {
            *polls += 1;
            if *polls >= 2 {
                TaskStatus::Complete
            } else {
                TaskStatus::Incomplete
            }
        });
        list.add_task_meta("tail", TaskKind::Compute, [], [overlapped, wait], |_| {
            spin();
            TaskStatus::Complete
        });
        let mut polls = 0;
        let stats = list.execute_timed(&mut polls, true).unwrap();
        assert!(stats.compute_ns > 0);
        assert!(
            stats.overlapped_compute_ns > 0,
            "compute between send and wait counts as overlapped"
        );
        assert!(
            stats.overlapped_compute_ns < stats.compute_ns,
            "the tail compute ran with no traffic outstanding"
        );
        assert!(stats.overlap_fraction() > 0.0 && stats.overlap_fraction() < 1.0);
        assert_eq!(stats.polls, 1);
        assert!(stats.comm_ns > 0);
    }

    #[test]
    fn spanned_execution_captures_task_spans() {
        let mut list: TaskList<u32> = TaskList::new();
        let send = list.add_task_meta("send", TaskKind::CommSend, [], [], |_: &mut u32| {
            TaskStatus::Complete
        });
        // Two empty polls, then completion.
        let wait = list.add_task_meta("wait", TaskKind::CommWait, [], [send], |calls: &mut u32| {
            *calls += 1;
            match *calls {
                1 | 2 => TaskStatus::Incomplete,
                _ => TaskStatus::Complete,
            }
        });
        list.add_task_meta("update", TaskKind::Compute, [], [wait], |_| {
            TaskStatus::Complete
        });
        // Unlabeled tasks never emit spans.
        list.add_task("anon", [], |_| TaskStatus::Complete);
        let mut polls = 0;
        let mut spans = Vec::new();
        list.execute_spanned(&mut polls, true, Some(&mut spans))
            .unwrap();
        assert_eq!(spans.len(), 3, "one span per labeled task");
        let wait_span = spans.iter().find(|s| s.name == "wait").unwrap();
        assert_eq!(wait_span.polls, 2);
        assert_eq!(wait_span.kind, vibe_prof::SpanKind::CommWait);
        assert_eq!(wait_span.deps, vec![0]);
        assert!(wait_span.start_ns <= wait_span.end_ns);
        let update = spans.iter().find(|s| s.name == "update").unwrap();
        assert_eq!(update.kind, vibe_prof::SpanKind::Compute);
        assert!(
            update.start_ns >= wait_span.end_ns,
            "dependent task starts after its dependency completes"
        );
        for s in &spans {
            assert!(s.busy_ns + s.spin_ns <= s.end_ns - s.start_ns + 1_000);
        }
        // Same list without a sink: no timing requirement, same behavior.
        let mut polls = 0;
        list.execute(&mut polls).unwrap();
        assert_eq!(polls, 3);
    }

    #[test]
    fn list_is_reusable_across_cycles() {
        let mut list: TaskList<u32> = TaskList::new();
        list.add_task("inc", [], |ctx: &mut u32| {
            *ctx += 1;
            TaskStatus::Complete
        });
        let mut ctx = 0;
        list.execute(&mut ctx).unwrap();
        list.execute(&mut ctx).unwrap();
        assert_eq!(ctx, 2);
    }
}
