//! `gate sim` — discrete-event timeline simulation of the AMR timestep
//! (vibe-sim).
//!
//! Runs the scenario (default Burgers Mesh 64 / B16 / L2, 2 cycles — any
//! registered physics, whose roofline regime the replay then follows),
//! replays the recorded workload and per-message comm events through the
//! heterogeneous timeline simulator, and reports:
//!
//! 1. the calibration check — zero-overlap single-stream simulation vs
//!    the analytic platform model (must agree within 1%);
//! 2. launch-latency analysis per block size (host gap vs kernel
//!    duration: small blocks are launch-bound, §VIII-C);
//! 3. parallel efficiency of 1→8 simulated ranks sharing one GPU;
//! 4. what-if knobs: streams per rank and graph-style launch batching;
//! 5. a Perfetto trace (`trace.json` in the out-dir) with one labelled
//!    lane per rank host thread, NIC channel, and GPU stream.
//!
//! The sections override the scenario's rank count and, in section 2, its
//! block size. Fails if any report has NaN/negative times or idle fractions
//! outside [0, 1], if the trace fails offline validation, if no kernel is
//! launch-bound at the smallest block size, or if the calibration check
//! misses by more than 1%.

use vibe_bench::{format_table, paper_workload, run_workload, sci, WorkloadResult};
use vibe_core::DriverParams;
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_prof::validate_trace;
use vibe_serve::JobConfig;
use vibe_sim::{simulate, SimConfig, SimReport, SimTimeline, SimWorkload};

use crate::Gate;

pub fn default_job() -> JobConfig {
    JobConfig {
        mesh_cells: 64,
        block_cells: 16,
        levels: 2,
        cycles: 2,
        ..paper_workload()
    }
}

/// Records `job` with its message events archived: the simulator's input.
fn record(job: &JobConfig) -> WorkloadResult {
    let params = DriverParams {
        capture_comm_events: true,
        ..job.driver_params()
    };
    run_workload(job, params)
}

/// Replays `run` under `cfg`; the report must be valid.
fn replay(
    gate: &mut Gate,
    what: &str,
    run: &WorkloadResult,
    cfg: &SimConfig,
) -> (SimReport, SimTimeline) {
    let w = SimWorkload::from_recorded(&run.recorder, &run.comm_events, cfg);
    let (report, timeline) = simulate(&w, cfg).expect("consistent workload");
    gate.ok(report.validate(), what);
    (report, timeline)
}

pub fn run(scenario: &JobConfig, gate: &mut Gate) {
    let (mesh, block) = (scenario.mesh_cells, scenario.block_cells);
    println!(
        "== vibe-sim: heterogeneous timeline simulation (Mesh {mesh}/B{block}/L{}, physics {}) ==\n",
        scenario.levels, scenario.physics
    );
    let spec = |ranks: usize, block_cells: usize| JobConfig {
        block_cells,
        nranks: ranks,
        ..scenario.clone()
    };

    // --- 1. Calibration: zero-overlap sim vs analytic model ------------
    let run1 = record(&spec(1, block));
    let analytic = evaluate(&run1.recorder, &PlatformConfig::gpu(1, 1, block));
    let (cal, _) = replay(
        gate,
        "calibration report",
        &run1,
        &SimConfig::zero_overlap(1, block),
    );
    let rel = (cal.wall_s - analytic.total_s).abs() / analytic.total_s;
    println!(
        "calibration: sim {:.6} s vs analytic {:.6} s  (rel err {:.4}%)",
        cal.wall_s,
        analytic.total_s,
        rel * 100.0
    );
    gate.check(rel <= 0.01, || {
        format!("zero-overlap calibration off by {:.3}% (> 1%)", rel * 100.0)
    });

    // --- 2. Launch-latency analysis per block size ---------------------
    // Per-block launch granularity (one launch per mesh block, no pack
    // fusion) — the configuration where §VIII-C's launch-latency wall
    // shows up at small block sizes.
    println!("\n-- launch latency vs kernel duration (1 rank, sync, per-block launches) --");
    let blocks = [8usize, 16, 32]
        .into_iter()
        .filter(|&b| mesh.is_multiple_of(b) && b <= mesh);
    for (i, b) in blocks.enumerate() {
        let cfg = SimConfig {
            per_block_launches: true,
            ..SimConfig::zero_overlap(1, b)
        };
        let (rep, _) = replay(
            gate,
            &format!("block {b} report"),
            &record(&spec(1, b)),
            &cfg,
        );
        // At the smallest block size the host gap must dominate at least
        // one kernel (the launch-latency wall of §VIII-C).
        if i == 0 {
            gate.check(rep.per_kernel.iter().any(|k| k.launch_bound()), || {
                format!("no launch-bound kernel at smallest block size B{b}")
            });
        }
        let rows: Vec<Vec<String>> = rep
            .per_kernel
            .iter()
            .take(5)
            .map(|k| {
                vec![
                    k.name.to_string(),
                    k.launches.to_string(),
                    sci(k.mean_exec_s),
                    sci(k.host_gap_s),
                    if k.launch_bound() {
                        "LAUNCH-BOUND".to_string()
                    } else {
                        "compute".to_string()
                    },
                ]
            })
            .collect();
        println!("\nB{b}:");
        println!(
            "{}",
            format_table(
                &["Kernel", "Launches", "Exec/launch", "Host gap", "Regime"],
                &rows
            )
        );
    }

    // --- 3. Parallel efficiency, 1 → 8 simulated ranks -----------------
    println!("-- rank scaling (shared GPU, event-log message replay) --");
    let mut eff_rows = Vec::new();
    let mut effs = Vec::new();
    for r in [1usize, 2, 4, 8] {
        let rep = if r == 1 {
            cal.clone()
        } else {
            let cfg = SimConfig::zero_overlap(r, block);
            replay(
                gate,
                &format!("rank {r} report"),
                &record(&spec(r, block)),
                &cfg,
            )
            .0
        };
        let eff = rep.fom / (r as f64 * cal.fom);
        effs.push(eff);
        let idle = rep
            .per_rank
            .iter()
            .map(|x| x.idle_fraction())
            .fold(0.0, f64::max);
        eff_rows.push(vec![
            r.to_string(),
            sci(rep.fom),
            format!("{:.1}%", eff * 100.0),
            format!("{:.1}%", idle * 100.0),
        ]);
    }
    println!(
        "{}",
        format_table(&["Ranks", "Sim FOM", "Efficiency", "Max idle"], &eff_rows)
    );
    gate.check(effs[3] < effs[0], || {
        "parallel efficiency did not decrease from 1 to 8 ranks".to_string()
    });

    // --- 4. What-if knobs ----------------------------------------------
    println!("-- what-if: overlap, streams, launch batching (4 ranks) --");
    let run4 = record(&spec(4, block));
    let mut what_rows = Vec::new();
    for (label, cfg) in [
        ("sync, 1 stream", SimConfig::zero_overlap(4, block)),
        (
            "sync, per-block launches",
            SimConfig {
                per_block_launches: true,
                ..SimConfig::zero_overlap(4, block)
            },
        ),
        ("async, 2 streams", SimConfig::streamed(4, block, 2)),
        ("async, 4 streams", SimConfig::streamed(4, block, 4)),
        (
            "async, 4 streams, batch 8",
            SimConfig {
                launch_batch: 8,
                ..SimConfig::streamed(4, block, 4)
            },
        ),
    ] {
        let (rep, _) = replay(gate, &format!("what-if '{label}' report"), &run4, &cfg);
        what_rows.push(vec![
            label.to_string(),
            format!("{:.6}", rep.wall_s),
            sci(rep.fom),
            format!("{:.2}", rep.device_utilization()),
        ]);
    }
    println!(
        "{}",
        format_table(&["Config", "Wall (s)", "FOM", "GPU busy frac"], &what_rows)
    );

    // --- 5. Perfetto trace ---------------------------------------------
    let cfg2 = SimConfig::streamed(2, block, 2);
    let (_, tl2) = replay(gate, "trace-run report", &record(&spec(2, block)), &cfg2);
    gate.ok(tl2.validate(), "trace-run timeline");
    let json = tl2.trace_json("vibe-sim");
    if let Some(stats) = gate.ok(validate_trace(&json), "trace") {
        gate.check(stats.spans == tl2.spans.len(), || {
            format!(
                "{} spans written, {} simulated",
                stats.spans,
                tl2.spans.len()
            )
        });
        println!(
            "trace: {} spans across {} tracks validate",
            stats.spans,
            tl2.tracks.len()
        );
    }
    gate.write("trace.json", &json);
}
