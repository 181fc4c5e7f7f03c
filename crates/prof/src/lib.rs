//! # vibe-prof
//!
//! Kokkos-Tools-style instrumentation for the AMR framework: every kernel
//! launch, serial work loop, communication event, and memory allocation is
//! recorded against the Parthenon timestep-loop function it belongs to.
//!
//! The recorder collects *workload quantities* (cells, FLOPs, bytes, loop
//! trip counts, message sizes): the `vibe-hwmodel` crate converts these
//! counters into modeled execution times for a concrete CPU/GPU platform,
//! mirroring how the paper derives its timing breakdowns (Figs. 7, 9, 11,
//! 12), microarchitectural table (Table III), communication growth ratios
//! (§IV), and memory footprints (Fig. 10) from profiler output.
//!
//! Alongside the modeled-time path, the [`wallclock`] / [`regions`] /
//! [`pool_stats`] / [`trace_export`] modules form the *measured-time*
//! observability layer (the characterization methodology itself):
//! hierarchical RAII region timers over the same [`StepFunction`] taxonomy,
//! worker-pool utilization metrics, and Chrome/Perfetto + JSONL + text
//! exporters. The [`WallClock`] handle rides inside the [`Recorder`], so
//! framework code opens nested regions through the recorder it already
//! holds. [`json`] is the workspace's one JSON value, writer and parser.

//!
//! The [`spans`] / [`attribution`] modules grow the measured-time layer
//! into a *causal, cross-rank* attribution engine: executed tasks emit
//! [`TaskSpan`]s on one process-global epoch, matched send→complete pairs
//! become [`CrossEdge`]s, and the merged activity DAG yields the critical
//! path plus per-rank wait-state buckets that sum to measured wall time.

pub mod attribution;
pub mod functions;
pub mod json;
pub mod pool_stats;
pub mod recorder;
pub mod regions;
pub mod spans;
pub mod timeline;
pub mod trace_export;
pub mod wallclock;

pub use attribution::{
    attribute_rank, attribute_run, build_span_graph, critical_path, Attribution, CriticalPath,
    PathSegment, SpanGraph, WaitBuckets,
};
pub use functions::StepFunction;
pub use pool_stats::{PoolRunSample, PoolStats, PoolWorkerSample};
pub use recorder::{
    CollectiveOp, CommTotals, CycleStats, KernelTotals, MemSpace, Recorder, SerialWork,
};
pub use regions::{FlatRegion, RegionKey, RegionStats, RegionTree};
pub use spans::{span_epoch, span_now_ns, CrossEdge, FlowEvent, TaskKind, TaskSpan, WaitProbes};
pub use timeline::{evolution_line, sparkline};
pub use trace_export::{
    job_metrics_jsonl, metrics_jsonl, perfetto_trace_json, summary_table, validate_trace,
    JobCycleMetric, TraceStats, TraceWriter,
};
pub use wallclock::{ProfLevel, RegionGuard, TraceEvent, WallClock, WallCycleStats};
