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
//! accounting, exportable to Perfetto via `vibe-prof`'s async trace
//! format (one lane per rank/stream/NIC).
//!
//! What-if knobs ([`SimConfig`]): streams per rank, batched (graph-style)
//! launches, launch latency, block size. The zero-overlap single-stream
//! configuration is the calibration anchor: it must reproduce the
//! analytic `vibe_hwmodel::evaluate` totals within 1% (see DESIGN.md
//! §Timeline simulation and the golden test in `vibe-bench`).

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
    use vibe_prof::{Recorder, SerialWork, StepFunction};

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
            rec.record_collective(
                StepFunction::EstimateTimeStep,
                vibe_prof::CollectiveOp::AllReduce,
                8,
            );
            rec.end_cycle(64, 0, 0, 64 * 4096);
        }
        rec
    }

    #[test]
    fn zero_overlap_single_rank_matches_op_sum() {
        let rec = sample_recorder(2, 1);
        let cfg = SimConfig::zero_overlap(1, 16);
        let w = SimWorkload::from_recorded(&rec, &[], &cfg);
        let (report, tl) = simulate(&w, &cfg).unwrap();
        report.validate().unwrap();
        tl.validate().unwrap();
        // Hand-sum the expected wall time: serial + launches×(exec+lat) +
        // local copies; collectives are free at one rank.
        let mut expect = 0.0;
        for cyc in &w.cycles {
            for op in &cyc.per_rank[0] {
                expect += match *op {
                    Op::Serial { secs, .. } => secs,
                    Op::KernelBatch {
                        launches,
                        exec_each,
                        ..
                    } => launches as f64 * (exec_each + cfg.launch_latency()),
                    Op::LocalCopy { bytes, .. } => {
                        cfg.comm_costs.message_seconds(bytes, true, false)
                    }
                    _ => 0.0,
                };
            }
        }
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
        let rec = sample_recorder(2, 1);
        let sync_cfg = SimConfig::zero_overlap(1, 16);
        let w = SimWorkload::from_recorded(&rec, &[], &sync_cfg);
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
        let rec = sample_recorder(2, 1);
        let mut cfg = SimConfig::zero_overlap(1, 16);
        let w = SimWorkload::from_recorded(&rec, &[], &cfg);
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
    fn multi_rank_synth_comm_runs_and_accounts_idle() {
        let rec = sample_recorder(3, 4);
        let cfg = SimConfig::zero_overlap(4, 16);
        let w = SimWorkload::from_recorded(&rec, &[], &cfg);
        let (report, tl) = simulate(&w, &cfg).unwrap();
        report.validate().unwrap();
        tl.validate().unwrap();
        assert_eq!(report.per_rank.len(), 4);
        // Remote traffic and barriers must produce some idle/poll time.
        let idle: f64 = report.per_rank.iter().map(|r| r.idle_s).sum();
        assert!(idle > 0.0, "expected barrier/poll idle at 4 ranks");
        // NIC lanes carry the remote payloads.
        assert!(tl.spans.iter().any(|s| s.cat == "nic"));
    }

    #[test]
    fn launch_bound_detection_flips_with_latency() {
        let rec = sample_recorder(1, 1);
        let mut cfg = SimConfig::zero_overlap(1, 16);
        cfg.launch_latency_override = Some(1.0); // absurdly slow launches
        let w = SimWorkload::from_recorded(&rec, &[], &cfg);
        let (slow, _) = simulate(&w, &cfg).unwrap();
        assert!(slow.per_kernel[0].launch_bound());
        cfg.launch_latency_override = Some(0.0);
        let (fast, _) = simulate(&w, &cfg).unwrap();
        assert!(!fast.per_kernel[0].launch_bound());
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
    fn async_trace_export_validates() {
        let rec = sample_recorder(1, 2);
        let cfg = SimConfig::streamed(2, 16, 2);
        let w = SimWorkload::from_recorded(&rec, &[], &cfg);
        let (_, tl) = simulate(&w, &cfg).unwrap();
        let spans = tl.to_async_spans();
        let json = vibe_prof::perfetto_async_trace_json(&spans, "vibe-sim", &tl.tracks);
        let stats = vibe_prof::validate_async_trace(&json).unwrap();
        assert_eq!(stats.pairs, spans.len());
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
