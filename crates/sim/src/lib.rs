//! # vibe-sim
//!
//! A discrete-event simulator of the paper's heterogeneous execution
//! timeline. Where `vibe-hwmodel` answers "how many seconds does this
//! workload cost in aggregate", this crate answers "*when* does each piece
//! run, and what sits idle meanwhile": it replays a recorded AMR workload
//! (kernel launches, serial sections, individual messages) onto modeled
//! resources —
//!
//! * a host thread per rank paying serial-section and launch-latency
//!   costs,
//! * GPU stream queues fed by those launches (per-kernel durations from
//!   the `vibe-hwmodel` roofline/occupancy primitives),
//! * a NIC/DMA channel per rank carrying remote payloads,
//! * an MPI progress engine that delivers a remote message only when the
//!   transfer has finished *and* the receiver polls —
//!
//! and produces per-cycle, per-rank timelines with explicit idle/overlap
//! accounting, exportable to Perfetto through `vibe-prof`'s one trace
//! writer ([`SimTimeline::trace_json`]: one lane per rank/stream/NIC).
//!
//! What-if knobs ([`SimConfig`]): streams per rank, batched (graph-style)
//! launches, per-block launches, block size. The hardware and its costs
//! are the one `vibe-hwmodel` calibration the analytic model reads, and
//! every message is replayed from the run's event log. The zero-overlap
//! single-stream configuration is the calibration anchor: it must
//! reproduce the analytic `vibe_hwmodel::evaluate` totals within 1% (see
//! DESIGN.md §Timeline simulation and the golden test in `vibe-bench`).

pub mod config;
pub mod engine;
pub mod timeline;
pub mod workload;

pub use config::SimConfig;
pub use engine::simulate;
pub use timeline::{KernelLaunchStats, RankStats, SimCycle, SimReport, SimTimeline, Span};
pub use workload::{CycleOps, Op, SimWorkload};

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_comm::{BoundaryKey, CommEvent, CommEventKind};
    use vibe_hwmodel::{CommCosts, GpuSpec};
    use vibe_prof::{CollectiveOp, Recorder, SerialWork, StepFunction};

    /// A small steady workload: one kernel, serial management, local and
    /// remote traffic, one collective per cycle.
    fn sample_recorder(cycles: u64, ranks: usize) -> Recorder {
        let mut rec = Recorder::new();
        for c in 0..cycles {
            rec.begin_cycle(c);
            rec.record_kernel(
                StepFunction::CalculateFluxes,
                "CalculateFluxes",
                4 * ranks as u64,
                1 << 16,
                (1 << 16) * 1548,
                (1 << 16) * 360 * 8,
            );
            rec.record_serial(StepFunction::SendBoundBufs, SerialWork::BoundaryLoop(2000));
            for _ in 0..8 {
                rec.record_p2p(StepFunction::SendBoundBufs, 1 << 16, 512, ranks == 1);
            }
            rec.record_collective(StepFunction::EstimateTimeStep, CollectiveOp::AllReduce, 8);
            rec.end_cycle(64, 0, 0, 64 * 4096);
        }
        rec
    }

    /// The message events of [`sample_recorder`]: per cycle, eight sends
    /// round-robin from rank `i % ranks` to its successor (same-rank copies
    /// on one rank) and the AllReduce.
    fn sample_events(cycles: u64, ranks: usize) -> Vec<CommEvent> {
        let mut events = Vec::new();
        for cycle in 0..cycles {
            let sends = (0..8).map(|i| {
                let src = i % ranks;
                let send = CommEventKind::Send {
                    src,
                    dst: (src + 1) % ranks,
                    bytes: 1 << 16,
                    local: ranks == 1,
                };
                (StepFunction::SendBoundBufs, send)
            });
            let allreduce = CommEventKind::Collective {
                op: CollectiveOp::AllReduce,
                bytes: 8,
            };
            for (func, kind) in sends.chain([(StepFunction::EstimateTimeStep, allreduce)]) {
                events.push(CommEvent {
                    seq: events.len() as u64,
                    rank: 0,
                    cycle,
                    key: BoundaryKey::new(0, 0, 0),
                    func,
                    task: None,
                    kind,
                });
            }
        }
        events
    }

    /// [`sample_recorder`] replayed with its events under `cfg`.
    fn sample_workload(cycles: u64, cfg: &SimConfig) -> SimWorkload {
        let rec = sample_recorder(cycles, cfg.ranks);
        SimWorkload::from_recorded(&rec, &sample_events(cycles, cfg.ranks), cfg)
    }

    /// One cycle of one `CalculateFluxes` kernel over `cells` cells in four
    /// launches, nothing else.
    fn kernel_only(cells: u64) -> Recorder {
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        rec.record_kernel(
            StepFunction::CalculateFluxes,
            "CalculateFluxes",
            4,
            cells,
            cells * 1548,
            cells * 360 * 8,
        );
        rec.end_cycle(64, 0, 0, cells);
        rec
    }

    #[test]
    fn zero_overlap_single_rank_matches_op_sum() {
        let cfg = SimConfig::zero_overlap(1, 16);
        let w = sample_workload(2, &cfg);
        let (report, tl) = simulate(&w, &cfg).unwrap();
        report.validate().unwrap();
        tl.validate().unwrap();
        // Hand-sum the expected wall time: serial + launches×(exec+lat) +
        // local copies; collectives are free at one rank.
        let mut expect = 0.0;
        let mut copies = 0;
        for cyc in &w.cycles {
            for op in &cyc.per_rank[0] {
                expect += match *op {
                    Op::Serial { secs, .. } => secs,
                    Op::KernelBatch {
                        launches,
                        exec_each,
                        ..
                    } => launches as f64 * (exec_each + GpuSpec::H100.launch_latency),
                    Op::LocalCopy { bytes, .. } => {
                        copies += 1;
                        CommCosts::CALIBRATED.message_seconds(bytes, true, false)
                    }
                    _ => 0.0,
                };
            }
        }
        assert_eq!(copies, 16, "every recorded same-rank send is replayed");
        assert!(
            (report.wall_s - expect).abs() / expect < 1e-12,
            "sim {} vs op-sum {expect}",
            report.wall_s
        );
        assert_eq!(report.per_rank.len(), 1);
        assert!(report.per_rank[0].idle_fraction() <= 1.0);
    }

    #[test]
    fn overlap_and_streams_never_slower() {
        let sync_cfg = SimConfig::zero_overlap(1, 16);
        let w = sample_workload(2, &sync_cfg);
        let (sync_rep, _) = simulate(&w, &sync_cfg).unwrap();
        let streamed = SimConfig::streamed(1, 16, 4);
        let (async_rep, _) = simulate(&w, &streamed).unwrap();
        assert!(
            async_rep.wall_s <= sync_rep.wall_s * (1.0 + 1e-9),
            "overlap {} vs sync {}",
            async_rep.wall_s,
            sync_rep.wall_s
        );
    }

    #[test]
    fn launch_batching_amortizes_latency() {
        let mut cfg = SimConfig::zero_overlap(1, 16);
        let w = sample_workload(2, &cfg);
        let (one, _) = simulate(&w, &cfg).unwrap();
        cfg.launch_batch = 4;
        let (batched, _) = simulate(&w, &cfg).unwrap();
        assert!(
            batched.wall_s < one.wall_s,
            "batched {} vs unbatched {}",
            batched.wall_s,
            one.wall_s
        );
    }

    #[test]
    fn multi_rank_replay_runs_and_accounts_idle() {
        let cfg = SimConfig::zero_overlap(4, 16);
        let w = sample_workload(3, &cfg);
        let (report, tl) = simulate(&w, &cfg).unwrap();
        report.validate().unwrap();
        tl.validate().unwrap();
        assert_eq!(report.per_rank.len(), 4);
        // Remote traffic and barriers must produce some idle/poll time.
        let idle: f64 = report.per_rank.iter().map(|r| r.idle_s).sum();
        assert!(idle > 0.0, "expected barrier/poll idle at 4 ranks");
        // NIC lanes carry the remote payloads: one transfer per send.
        let nic = tl.spans.iter().filter(|s| s.cat == "nic").count();
        assert_eq!(nic, 3 * 8);
    }

    #[test]
    #[should_panic(expected = "cycle 0 recorded communication but no message events")]
    fn a_cycle_with_communication_but_no_events_panics() {
        let cfg = SimConfig::zero_overlap(2, 16);
        SimWorkload::from_recorded(&sample_recorder(1, 2), &[], &cfg);
    }

    #[test]
    fn launch_bound_detection_flips_with_kernel_size() {
        let cfg = SimConfig::zero_overlap(1, 16);
        let run = |cells| {
            let w = SimWorkload::from_recorded(&kernel_only(cells), &[], &cfg);
            simulate(&w, &cfg).unwrap().0
        };
        // 16 cells a launch execute in far less than the launch latency;
        // 2^20 cells a launch take far longer.
        assert!(run(64).per_kernel[0].launch_bound());
        assert!(!run(1 << 22).per_kernel[0].launch_bound());
    }

    #[test]
    fn per_block_launches_expand_and_hit_the_latency_wall() {
        // A light streaming kernel: per-block slices are far below the
        // 6 µs launch latency even after the grid-fill penalty.
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        rec.record_kernel(
            StepFunction::WeightedSumData,
            "WeightedSumData",
            4,
            1 << 16,
            (1 << 16) * 4,
            (1 << 16) * 32,
        );
        rec.end_cycle(64, 0, 0, 64 * 4096);
        let packed = SimConfig::zero_overlap(1, 16);
        let unpacked = SimConfig {
            per_block_launches: true,
            ..packed
        };
        let wp = SimWorkload::from_recorded(&rec, &[], &packed);
        let wu = SimWorkload::from_recorded(&rec, &[], &unpacked);
        let (p, _) = simulate(&wp, &packed).unwrap();
        let (u, _) = simulate(&wu, &unpacked).unwrap();
        // 4 recorded pack launches × 64 blocks = 256 per-block launches.
        assert_eq!(p.per_kernel[0].launches, 4);
        assert_eq!(u.per_kernel[0].launches, 256);
        // Splitting the same work across 64× the launches makes each one
        // launch-latency-bound and the whole run slower.
        assert!(u.per_kernel[0].launch_bound());
        assert!(u.wall_s > p.wall_s);
    }

    #[test]
    fn trace_export_validates() {
        let cfg = SimConfig::streamed(2, 16, 2);
        let w = sample_workload(1, &cfg);
        let (_, tl) = simulate(&w, &cfg).unwrap();
        tl.validate().unwrap();
        let json = tl.trace_json("vibe-sim");
        let stats = vibe_prof::validate_trace(&json).unwrap();
        assert_eq!(stats.spans, tl.spans.len());
        assert_eq!(json.matches("\"thread_name\"").count(), tl.tracks.len());
    }

    /// A track is one serially occupied resource: two spans that overlap
    /// on it are refused, while abutting ones and overlap across tracks
    /// are fine.
    #[test]
    fn overlapping_spans_on_one_track_are_refused() {
        let span = |track, start_s, dur_s| Span {
            name: format!("k{track}@{start_s}"),
            cat: "kernel",
            track,
            start_s,
            dur_s,
        };
        let mut tl = SimTimeline {
            spans: vec![span(0, 0.0, 2.0), span(1, 1.0, 2.0), span(0, 2.0, 0.5)],
            tracks: vec![(0, "a".into()), (1, "b".into())],
        };
        tl.validate().unwrap();
        tl.spans.push(span(1, 2.5, 1.0));
        let err = tl.validate().unwrap_err();
        assert!(err.contains("inside") && err.contains("track 1"), "{err}");
    }

    #[test]
    fn driver_graph_orders_cycle() {
        // The simulator ingests the driver's own cycle graph in table
        // order, which must be an execution order, and its function
        // attributions must cover the hot timestep-loop functions so
        // recorded work replays in stage order rather than falling back to
        // the canonical tail.
        let g = vibe_core::cycle_task_graph();
        for (i, n) in g.iter().enumerate() {
            assert!(n.deps.iter().all(|&d| d < i), "{} depends forwards", n.name);
        }
        let attributed: Vec<StepFunction> = g.iter().flat_map(|n| n.funcs).copied().collect();
        for f in [
            StepFunction::CalculateFluxes,
            StepFunction::SendBoundBufs,
            StepFunction::SetBounds,
            StepFunction::FluxCorrection,
            StepFunction::FluxDivergence,
            StepFunction::FillDerived,
            StepFunction::EstimateTimeStep,
        ] {
            assert!(attributed.contains(&f), "graph attributes {f:?}");
        }
    }
}
