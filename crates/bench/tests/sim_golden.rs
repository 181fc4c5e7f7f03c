//! Golden calibration tests: the discrete-event simulator with overlap
//! disabled and a single stream must reproduce the analytic hwmodel
//! totals within 1% on the calibration anchors (DESIGN.md §Calibration).
//!
//! At one rank every boundary transfer is a same-rank copy and collectives
//! are free, so the simulated wall clock decomposes into exactly the
//! analytic terms: serial seconds + launches × (exec + launch latency) +
//! local bytes / local bandwidth.

use vibe_bench::{paper_workload, run_workload, WorkloadResult};
use vibe_core::DriverParams;
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_serve::JobConfig;
use vibe_sim::{simulate, SimConfig, SimWorkload};

/// Two recorded cycles with the message events the simulator replays.
fn record(mesh: usize, block: usize, levels: usize, nranks: usize) -> WorkloadResult {
    let job = JobConfig {
        mesh_cells: mesh,
        block_cells: block,
        levels,
        nranks,
        cycles: 2,
        ..paper_workload()
    };
    let params = DriverParams {
        capture_comm_events: true,
        ..job.driver_params()
    };
    run_workload(&job, params)
}

fn golden_check(mesh: usize, block: usize, levels: usize) {
    let run = record(mesh, block, levels, 1);
    let analytic = evaluate(&run.recorder, &PlatformConfig::gpu(1, 1, block));
    let cfg = SimConfig::zero_overlap(1, block);
    let w = SimWorkload::from_recorded(&run.recorder, &run.comm_events, &cfg);
    let (sim, tl) = simulate(&w, &cfg).expect("consistent workload");
    sim.validate().expect("valid report");
    tl.validate().expect("valid timeline");
    let rel = (sim.wall_s - analytic.total_s).abs() / analytic.total_s;
    assert!(
        rel < 0.01,
        "Mesh {mesh}/B{block}/L{levels}: sim {} vs analytic {} (rel err {:.4}%)",
        sim.wall_s,
        analytic.total_s,
        rel * 100.0
    );
}

#[test]
fn zero_overlap_single_stream_matches_analytic_anchor_b8() {
    golden_check(32, 8, 3);
}

#[test]
fn zero_overlap_single_stream_matches_analytic_anchor_b16() {
    golden_check(32, 16, 2);
}

#[test]
fn event_log_round_trips_through_validator() {
    let run = record(32, 8, 2, 4);
    let edges = vibe_comm::validate_event_order(&run.comm_events, 1)
        .expect("driver event log satisfies ordering invariants");
    assert!(edges > 0, "ghost exchanges produce send→complete edges");
}
