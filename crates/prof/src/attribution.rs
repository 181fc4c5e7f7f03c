//! Cross-rank attribution: the merged activity DAG, critical-path
//! extraction, and wait-state classification.
//!
//! Input: per-rank [`TaskSpan`] streams on the shared epoch, matched
//! [`CrossEdge`]s from the communication log, directly measured
//! [`WaitProbes`], and the independently measured per-rank wall times.
//! Output: one [`Attribution`] — per-rank [`WaitBuckets`] whose named
//! buckets sum to the measured wall time (the conductor and CI enforce a
//! 5% tolerance), plus the [`CriticalPath`] through the merged DAG with
//! per-rank segments and a hand-off count.
//!
//! ## Bucket taxonomy
//!
//! The executor is a busy-spin ready sweep, so every nanosecond of a rank
//! thread is either inside a task action or in the sweep itself. That
//! yields an exact decomposition:
//!
//! | bucket | source |
//! |---|---|
//! | `compute` | productive action time of `Compute`/`Serial` tasks, minus the probe time below |
//! | `pack_serialization` | productive action time of `CommSend` tasks plus the unpack portion of `CommWait` tasks |
//! | `late_sender` | `Incomplete` polling spins of `CommWait` tasks — the receiver ran and found nothing to consume |
//! | `collective_imbalance` | measured blocking inside collective data calls (rendezvous arrival spread) |
//! | `migration_stall` | measured blocking in the regrid block-fetch loop |
//! | `idle` | wall minus all of the above: sweep overhead, barriers, cycle bookkeeping |
//!
//! The probe buckets are *subtracted* from `compute` because they are
//! measured inside task actions that the span layer already counts as
//! busy — without the subtraction they would be double-counted and the
//! sum identity would fail.

use std::collections::BTreeMap;

use crate::spans::{CrossEdge, TaskKind, TaskSpan, WaitProbes};

/// The merged multi-rank activity DAG: spans in deterministic order plus,
/// per span, the indices of its predecessor spans (dependency edges within
/// a rank's cycle, matched cross-rank message edges, and the implicit
/// serial-resource edge to the rank's previous span).
#[derive(Debug, Clone)]
pub struct SpanGraph {
    /// All spans, sorted by `(rank, cycle, start_ns, node)`.
    pub spans: Vec<TaskSpan>,
    /// Predecessor span indices per span (deduplicated, ascending).
    pub preds: Vec<Vec<usize>>,
    /// Number of cross-rank edges that found both endpoint spans.
    pub matched_cross_edges: usize,
}

/// Builds the merged DAG. Span input order is irrelevant (the builder
/// sorts), so the same run always yields the same graph. Cross edges whose
/// endpoint spans are missing (e.g. initialization traffic outside any
/// task) are skipped, not errors.
pub fn build_span_graph(mut spans: Vec<TaskSpan>, edges: &[CrossEdge]) -> SpanGraph {
    spans.sort_by(|a, b| {
        (a.rank, a.cycle, a.start_ns, a.node).cmp(&(b.rank, b.cycle, b.start_ns, b.node))
    });
    // (rank, cycle, node) and (rank, cycle, name) lookups.
    let mut by_node: BTreeMap<(usize, u64, usize), usize> = BTreeMap::new();
    let mut by_name: BTreeMap<(usize, u64, &'static str), usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_node.insert((s.rank, s.cycle, s.node), i);
        by_name.insert((s.rank, s.cycle, s.name), i);
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    // Same-rank serial chain (covers cross-cycle program order too): the
    // sort above orders each rank's spans by execution sequence.
    for w in 0..spans.len().saturating_sub(1) {
        if spans[w].rank == spans[w + 1].rank {
            preds[w + 1].push(w);
        }
    }
    // Intra-cycle dependency edges.
    for (i, s) in spans.iter().enumerate() {
        for &dep in &s.deps {
            if let Some(&p) = by_node.get(&(s.rank, s.cycle, dep)) {
                preds[i].push(p);
            }
        }
    }
    // Cross-rank message edges.
    let mut matched = 0usize;
    for e in edges {
        let src = by_name.get(&(e.src_rank, e.src_cycle, e.src_task));
        let dst = by_name.get(&(e.dst_rank, e.dst_cycle, e.dst_task));
        if let (Some(&src), Some(&dst)) = (src, dst) {
            preds[dst].push(src);
            matched += 1;
        }
    }
    for p in &mut preds {
        p.sort_unstable();
        p.dedup();
    }
    SpanGraph {
        spans,
        preds,
        matched_cross_edges: matched,
    }
}

/// A maximal run of consecutive critical-path spans on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Rank holding the critical path.
    pub rank: usize,
    /// Number of consecutive path spans on that rank.
    pub spans: usize,
    /// Summed span lifetimes of the segment, ns.
    pub span_ns: u64,
}

/// The critical path through the merged DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Span indices into [`SpanGraph::spans`], in execution order.
    pub path: Vec<usize>,
    /// Per-rank segments in execution order.
    pub segments: Vec<PathSegment>,
    /// Number of rank hand-offs along the path (`segments.len() - 1`).
    pub switches: usize,
    /// End of the last path span minus start of the first, ns.
    pub makespan_ns: u64,
}

/// Extracts the critical path: starting from the latest-finishing span,
/// repeatedly steps to the predecessor that finished last (the one that
/// gated progress), until a span with no predecessors is reached. All
/// tie-breaks are by ascending `(rank, cycle, node)`, so the extraction is
/// deterministic for a fixed span set.
pub fn critical_path(g: &SpanGraph) -> CriticalPath {
    let key = |i: usize| {
        let s = &g.spans[i];
        (s.rank, s.cycle, s.node)
    };
    let Some(mut cur) = (0..g.spans.len()).max_by(|&a, &b| {
        (g.spans[a].end_ns, std::cmp::Reverse(key(a)))
            .cmp(&(g.spans[b].end_ns, std::cmp::Reverse(key(b))))
    }) else {
        return CriticalPath {
            path: Vec::new(),
            segments: Vec::new(),
            switches: 0,
            makespan_ns: 0,
        };
    };
    let mut rev = vec![cur];
    let mut visited = vec![false; g.spans.len()];
    visited[cur] = true;
    while let Some(&next) = g.preds[cur]
        .iter()
        .filter(|&&p| !visited[p])
        .max_by(|&&a, &&b| {
            (g.spans[a].end_ns, std::cmp::Reverse(key(a)))
                .cmp(&(g.spans[b].end_ns, std::cmp::Reverse(key(b))))
        })
    {
        visited[next] = true;
        rev.push(next);
        cur = next;
    }
    rev.reverse();
    let path = rev;
    let mut segments: Vec<PathSegment> = Vec::new();
    for &i in &path {
        let s = &g.spans[i];
        match segments.last_mut() {
            Some(seg) if seg.rank == s.rank => {
                seg.spans += 1;
                seg.span_ns += s.dur_ns();
            }
            _ => segments.push(PathSegment {
                rank: s.rank,
                spans: 1,
                span_ns: s.dur_ns(),
            }),
        }
    }
    let makespan_ns = match (path.first(), path.last()) {
        (Some(&f), Some(&l)) => g.spans[l].end_ns.saturating_sub(g.spans[f].start_ns),
        _ => 0,
    };
    CriticalPath {
        switches: segments.len().saturating_sub(1),
        path,
        segments,
        makespan_ns,
    }
}

/// Names of the attribution buckets, in reporting order.
pub const BUCKET_NAMES: [&str; 7] = [
    "compute",
    "pack_serialization",
    "late_sender",
    "collective_imbalance",
    "migration_stall",
    "recovery_stall",
    "idle",
];

/// One rank's wall time classified into named buckets (module docs have
/// the taxonomy). Invariant: the buckets sum to `wall_ns` exactly whenever
/// measured activity fits inside the measured wall (always, up to clock
/// jitter — `idle` absorbs the remainder and saturates at zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitBuckets {
    /// Independently measured wall time of the rank's cycle loop, ns.
    pub wall_ns: u64,
    /// Productive compute/serial task time (probes subtracted), ns.
    pub compute_ns: u64,
    /// Pack + send + unpack buffer work, ns.
    pub pack_serialization_ns: u64,
    /// CommWait polling spins — waiting on a sender, ns.
    pub late_sender_ns: u64,
    /// Collective rendezvous blocking (arrival spread), ns.
    pub collective_imbalance_ns: u64,
    /// Regrid migration fetch blocking, ns.
    pub migration_stall_ns: u64,
    /// Fault-recovery overhead: detecting a dead rank, tearing down the
    /// session, and rebuilding from the last checkpoint, ns. Zero on
    /// fault-free runs; filled in by the resilient conductor, not by
    /// per-rank span attribution.
    pub recovery_stall_ns: u64,
    /// Everything else: sweep overhead, barriers, bookkeeping, ns.
    pub idle_ns: u64,
}

impl WaitBuckets {
    /// Bucket values in [`BUCKET_NAMES`] order.
    pub fn as_array(&self) -> [(&'static str, u64); 7] {
        [
            ("compute", self.compute_ns),
            ("pack_serialization", self.pack_serialization_ns),
            ("late_sender", self.late_sender_ns),
            ("collective_imbalance", self.collective_imbalance_ns),
            ("migration_stall", self.migration_stall_ns),
            ("recovery_stall", self.recovery_stall_ns),
            ("idle", self.idle_ns),
        ]
    }

    /// Sum of every named bucket, ns.
    pub fn named_sum_ns(&self) -> u64 {
        self.as_array().iter().map(|(_, ns)| ns).sum()
    }

    /// Relative disagreement between the bucket sum and the measured wall
    /// time (0 when they agree exactly; the CI gate requires ≤ 0.05).
    pub fn sum_error_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.named_sum_ns() as f64 - self.wall_ns as f64).abs() / self.wall_ns as f64
    }

    /// The largest non-compute bucket — where this rank's time went that
    /// wasn't solving the problem.
    pub fn dominant_loss(&self) -> (&'static str, u64) {
        self.as_array()
            .into_iter()
            .skip(1) // compute is not a loss
            .max_by_key(|&(_, ns)| ns)
            .unwrap_or(("idle", 0))
    }

    /// Element-wise accumulation (for run totals).
    pub fn accumulate(&mut self, other: &WaitBuckets) {
        self.wall_ns += other.wall_ns;
        self.compute_ns += other.compute_ns;
        self.pack_serialization_ns += other.pack_serialization_ns;
        self.late_sender_ns += other.late_sender_ns;
        self.collective_imbalance_ns += other.collective_imbalance_ns;
        self.migration_stall_ns += other.migration_stall_ns;
        self.recovery_stall_ns += other.recovery_stall_ns;
        self.idle_ns += other.idle_ns;
    }
}

/// Classifies one rank's spans + probes against its measured wall time.
pub fn attribute_rank<'a>(
    spans: impl IntoIterator<Item = &'a TaskSpan>,
    probes: WaitProbes,
    wall_ns: u64,
) -> WaitBuckets {
    let mut busy_compute = 0u64;
    let mut pack = 0u64;
    let mut late = 0u64;
    let mut stray_spin = 0u64;
    for s in spans {
        match s.kind {
            TaskKind::Compute | TaskKind::Serial => {
                busy_compute += s.busy_ns;
                stray_spin += s.spin_ns;
            }
            TaskKind::CommSend => {
                pack += s.busy_ns;
                stray_spin += s.spin_ns;
            }
            TaskKind::CommWait => {
                // Productive part = unpack/copy; spins = waiting on the
                // message, i.e. the sender.
                pack += s.busy_ns;
                late += s.spin_ns;
            }
        }
    }
    let probe_ns = probes.collective_block_ns + probes.migration_stall_ns;
    let compute = busy_compute.saturating_sub(probe_ns);
    let accounted =
        compute + pack + late + probes.collective_block_ns + probes.migration_stall_ns + stray_spin;
    WaitBuckets {
        wall_ns,
        compute_ns: compute,
        pack_serialization_ns: pack,
        late_sender_ns: late,
        collective_imbalance_ns: probes.collective_block_ns,
        migration_stall_ns: probes.migration_stall_ns,
        // Per-rank spans never see recovery: the conductor charges
        // checkpoint-restore overhead into this bucket after the fact.
        recovery_stall_ns: 0,
        // Stray spins (non-CommWait Incomplete polls — rare) count as
        // idle along with the unaccounted remainder.
        idle_ns: wall_ns.saturating_sub(accounted) + stray_spin,
    }
}

/// The complete attribution of one multi-rank run.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Wait-state buckets per rank (index = rank).
    pub per_rank: Vec<WaitBuckets>,
    /// Critical path through the merged DAG.
    pub critical_path: CriticalPath,
    /// Cross-rank edges that found both endpoint spans.
    pub matched_cross_edges: usize,
}

impl Attribution {
    /// All ranks' buckets summed.
    pub fn total(&self) -> WaitBuckets {
        let mut t = WaitBuckets::default();
        for b in &self.per_rank {
            t.accumulate(b);
        }
        t
    }

    /// The dominant loss bucket of the whole run.
    pub fn dominant_loss(&self) -> (&'static str, u64) {
        self.total().dominant_loss()
    }

    /// Worst per-rank disagreement between bucket sum and measured wall.
    pub fn max_sum_error_frac(&self) -> f64 {
        self.per_rank
            .iter()
            .map(WaitBuckets::sum_error_frac)
            .fold(0.0, f64::max)
    }

    /// Smallest per-rank fraction of wall time landing in named buckets
    /// (the ≥ 0.90 acceptance gate; `idle` is a named bucket, so this only
    /// drops below 1 when measured activity overruns the measured wall).
    pub fn min_coverage_frac(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|b| {
                if b.wall_ns == 0 {
                    1.0
                } else {
                    (b.named_sum_ns().min(b.wall_ns)) as f64 / b.wall_ns as f64
                }
            })
            .fold(1.0, f64::min)
    }
}

/// Attributes a full run: per-rank buckets from the graph's spans plus
/// per-rank probes/walls, and the critical path over the merged DAG.
/// `probes` and `rank_wall_ns` are indexed by rank and must have equal
/// length.
pub fn attribute_run(g: &SpanGraph, probes: &[WaitProbes], rank_wall_ns: &[u64]) -> Attribution {
    assert_eq!(probes.len(), rank_wall_ns.len(), "one probe set per rank");
    let per_rank = (0..rank_wall_ns.len())
        .map(|rank| {
            attribute_rank(
                g.spans.iter().filter(|s| s.rank == rank),
                probes[rank],
                rank_wall_ns[rank],
            )
        })
        .collect();
    Attribution {
        per_rank,
        critical_path: critical_path(g),
        matched_cross_edges: g.matched_cross_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn span(
        rank: usize,
        cycle: u64,
        node: usize,
        name: &'static str,
        kind: TaskKind,
        start: u64,
        end: u64,
        deps: Vec<usize>,
    ) -> TaskSpan {
        TaskSpan {
            rank,
            cycle,
            node,
            name,
            kind,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            spin_ns: 0,
            polls: 0,
            deps,
        }
    }

    /// Synthetic two-rank DAG with a known longest path: rank 1's compute
    /// gates rank 0's receive, so the path must start on rank 1, hand off
    /// through the cross edge, and finish on rank 0 — one switch.
    #[test]
    fn critical_path_follows_late_sender_across_ranks() {
        let spans = vec![
            // Rank 0: quick send, long wait (receiver side), update.
            span(0, 0, 0, "Pack", TaskKind::CommSend, 0, 10, vec![]),
            span(0, 0, 1, "Wait", TaskKind::CommWait, 10, 100, vec![0]),
            span(0, 0, 2, "Update", TaskKind::Compute, 100, 130, vec![1]),
            // Rank 1: slow compute before its send — the true gate.
            span(1, 0, 0, "Flux", TaskKind::Compute, 0, 80, vec![]),
            span(1, 0, 1, "Pack", TaskKind::CommSend, 80, 95, vec![0]),
        ];
        let edges = [CrossEdge {
            seq: 7,
            bytes: 64,
            src_rank: 1,
            src_cycle: 0,
            src_task: "Pack",
            dst_rank: 0,
            dst_cycle: 0,
            dst_task: "Wait",
        }];
        let g = build_span_graph(spans, &edges);
        assert_eq!(g.matched_cross_edges, 1);
        let cp = critical_path(&g);
        let names: Vec<_> = cp.path.iter().map(|&i| g.spans[i].name).collect();
        let ranks: Vec<_> = cp.path.iter().map(|&i| g.spans[i].rank).collect();
        assert_eq!(names, ["Flux", "Pack", "Wait", "Update"]);
        assert_eq!(ranks, [1, 1, 0, 0]);
        assert_eq!(cp.switches, 1);
        assert_eq!(cp.segments.len(), 2);
        assert_eq!(cp.segments[0].rank, 1);
        assert_eq!(cp.segments[1].rank, 0);
        assert_eq!(cp.makespan_ns, 130);
    }

    /// Late sender vs early receiver: the receiver's spin time lands in
    /// `late_sender`, the sender's pack time in `pack_serialization`, and
    /// both ranks' buckets sum exactly to their walls.
    #[test]
    fn late_sender_vs_early_receiver_classification() {
        let mut wait = span(0, 0, 1, "Wait", TaskKind::CommWait, 10, 100, vec![]);
        wait.busy_ns = 5; // unpack portion
        wait.spin_ns = 85; // polled while the sender computed
        wait.polls = 40;
        let receiver = [
            span(0, 0, 0, "Pack", TaskKind::CommSend, 0, 10, vec![]),
            wait,
        ];
        let b = attribute_rank(receiver.iter(), WaitProbes::default(), 120);
        assert_eq!(b.late_sender_ns, 85);
        assert_eq!(b.pack_serialization_ns, 10 + 5);
        assert_eq!(b.compute_ns, 0);
        assert_eq!(b.named_sum_ns(), 120);
        assert_eq!(b.dominant_loss().0, "late_sender");

        let sender = [
            span(1, 0, 0, "Flux", TaskKind::Compute, 0, 80, vec![]),
            span(1, 0, 1, "Pack", TaskKind::CommSend, 80, 95, vec![0]),
        ];
        let b = attribute_rank(sender.iter(), WaitProbes::default(), 100);
        assert_eq!(b.compute_ns, 80);
        assert_eq!(b.pack_serialization_ns, 15);
        assert_eq!(b.late_sender_ns, 0);
        assert_eq!(b.named_sum_ns(), 100);
    }

    /// Probes are carved out of compute, not double-counted.
    #[test]
    fn probes_subtract_from_compute() {
        let spans = [span(0, 0, 0, "Dt", TaskKind::Compute, 0, 100, vec![])];
        let probes = WaitProbes {
            collective_block_ns: 30,
            migration_stall_ns: 10,
        };
        let b = attribute_rank(spans.iter(), probes, 100);
        assert_eq!(b.compute_ns, 60);
        assert_eq!(b.collective_imbalance_ns, 30);
        assert_eq!(b.migration_stall_ns, 10);
        assert_eq!(b.named_sum_ns(), 100);
        assert_eq!(b.sum_error_frac(), 0.0);
    }

    /// Property: for randomized span sets whose activity fits inside the
    /// wall, the named buckets sum to the wall *exactly* (idle absorbs the
    /// remainder).
    #[test]
    fn buckets_sum_to_wall_over_random_span_sets() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545f4914f6cdd1d);
            state
        };
        for trial in 0..200 {
            let n = 1 + (next() % 12) as usize;
            let mut t = 0u64;
            let mut spans = Vec::new();
            for node in 0..n {
                let busy = next() % 1000;
                let spin = next() % 500;
                let gap = next() % 200;
                let kind = match next() % 4 {
                    0 => TaskKind::Compute,
                    1 => TaskKind::CommSend,
                    2 => TaskKind::CommWait,
                    _ => TaskKind::Serial,
                };
                let start = t + gap;
                let end = start + busy + spin;
                let mut s = span(0, 0, node, "t", kind, start, end, vec![]);
                s.busy_ns = busy;
                s.spin_ns = spin;
                spans.push(s);
                t = end;
            }
            let busy_total: u64 = spans.iter().map(|s| s.busy_ns + s.spin_ns).sum();
            let wall = t + next() % 1000;
            let max_probe: u64 = spans
                .iter()
                .filter(|s| matches!(s.kind, TaskKind::Compute | TaskKind::Serial))
                .map(|s| s.busy_ns)
                .sum();
            let probes = WaitProbes {
                collective_block_ns: if max_probe > 0 { next() % max_probe } else { 0 },
                migration_stall_ns: 0,
            };
            assert!(probes.collective_block_ns + probes.migration_stall_ns <= max_probe);
            let b = attribute_rank(spans.iter(), probes, wall);
            assert!(busy_total <= wall);
            assert_eq!(
                b.named_sum_ns(),
                wall,
                "trial {trial}: buckets must sum to wall exactly"
            );
            assert_eq!(b.sum_error_frac(), 0.0);
        }
    }

    /// Same spans in any input order produce the identical graph, critical
    /// path, and buckets.
    #[test]
    fn attribution_is_deterministic_under_input_order() {
        let spans = vec![
            span(0, 0, 0, "Pack", TaskKind::CommSend, 0, 10, vec![]),
            span(0, 0, 1, "Wait", TaskKind::CommWait, 10, 100, vec![0]),
            span(0, 1, 0, "Pack", TaskKind::CommSend, 100, 110, vec![]),
            span(1, 0, 0, "Flux", TaskKind::Compute, 0, 80, vec![]),
            span(1, 0, 1, "Pack", TaskKind::CommSend, 80, 95, vec![0]),
            span(1, 1, 0, "Flux", TaskKind::Compute, 95, 160, vec![]),
        ];
        let edges = [CrossEdge {
            seq: 3,
            bytes: 8,
            src_rank: 1,
            src_cycle: 0,
            src_task: "Pack",
            dst_rank: 0,
            dst_cycle: 0,
            dst_task: "Wait",
        }];
        let probes = [WaitProbes::default(), WaitProbes::default()];
        let walls = [120u64, 170u64];
        let forward = build_span_graph(spans.clone(), &edges);
        let mut shuffled = spans;
        shuffled.reverse();
        shuffled.swap(0, 3);
        let backward = build_span_graph(shuffled, &edges);
        assert_eq!(forward.spans, backward.spans);
        assert_eq!(forward.preds, backward.preds);
        let a = attribute_run(&forward, &probes, &walls);
        let b = attribute_run(&backward, &probes, &walls);
        assert_eq!(a.per_rank, b.per_rank);
        assert_eq!(a.critical_path, b.critical_path);
    }

    /// Zero ranks / zero spans degrade gracefully.
    #[test]
    fn empty_graph_is_legal() {
        let g = build_span_graph(Vec::new(), &[]);
        let cp = critical_path(&g);
        assert!(cp.path.is_empty());
        assert_eq!(cp.switches, 0);
        let a = attribute_run(&g, &[], &[]);
        assert!(a.per_rank.is_empty());
        assert_eq!(a.min_coverage_frac(), 1.0);
    }
}
