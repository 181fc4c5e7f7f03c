//! Discrete-event timeline simulation of the AMR timestep (vibe-sim).
//!
//! Runs the functional benchmark, replays the recorded workload and
//! per-message comm events through the heterogeneous timeline simulator,
//! and reports:
//!
//! 1. the calibration check — zero-overlap single-stream simulation vs
//!    the analytic platform model (must agree within 1%);
//! 2. launch-latency analysis per block size (host gap vs kernel
//!    duration: small blocks are launch-bound, §VIII-C);
//! 3. parallel efficiency of 1→8 simulated ranks sharing one GPU;
//! 4. what-if knobs: streams per rank and graph-style launch batching;
//! 5. a Perfetto async trace (`target/sim-timeline/trace.json`) with one
//!    lane per rank host thread, NIC channel, and GPU stream.
//!
//! Usage: `sim_timeline [job-config-json]`: the replayed problem (default
//! Burgers Mesh 64 / B16 / L2, 2 cycles) is one `JobConfig` JSON object —
//! any registered physics, whose roofline regime the replay then follows;
//! the sections below override its rank count and, in section 2, its block
//! size. The trace goes to `VIBE_SIM_TRACE_DIR`.
//!
//! Exits nonzero if any report has NaN/negative times or idle fractions
//! outside [0, 1], if the trace fails offline validation, or if the
//! calibration check misses by more than 1%.

use std::process::ExitCode;

use vibe_bench::{
    env_or, format_table, paper_workload, run_workload, scenario_args, sci, WorkloadResult,
};
use vibe_core::DriverParams;
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_prof::{perfetto_async_trace_json, validate_async_trace};
use vibe_serve::JobConfig;
use vibe_sim::{simulate, SimConfig, SimReport, SimTimeline, SimWorkload};

/// Records `job` with its message events archived: the simulator's input.
fn record(job: &JobConfig) -> WorkloadResult {
    let params = DriverParams {
        capture_comm_events: true,
        ..job.driver_params()
    };
    run_workload(job, params)
}

fn run_sim(job: &JobConfig, cfg: &SimConfig) -> (SimReport, SimTimeline) {
    let run = record(job);
    let w = SimWorkload::from_recorded(&run.recorder, &run.comm_events, cfg);
    let (report, tl) = simulate(&w, cfg).expect("consistent workload");
    (report, tl)
}

fn main() -> ExitCode {
    let (scenario, _) = scenario_args(JobConfig {
        mesh_cells: 64,
        block_cells: 16,
        levels: 2,
        cycles: 2,
        ..paper_workload()
    });
    let (mesh, block, levels) = (scenario.mesh_cells, scenario.block_cells, scenario.levels);
    let mut failures: Vec<String> = Vec::new();
    println!(
        "== vibe-sim: heterogeneous timeline simulation (Mesh {mesh}/B{block}/L{levels}, physics {}) ==\n",
        scenario.physics
    );

    let spec = |ranks: usize, block_cells: usize| JobConfig {
        block_cells,
        nranks: ranks,
        ..scenario.clone()
    };

    // --- 1. Calibration: zero-overlap sim vs analytic model ------------
    let run1 = record(&spec(1, block));
    let analytic = evaluate(&run1.recorder, &PlatformConfig::gpu(1, 1, block));
    let cal_cfg = SimConfig::zero_overlap(1, block);
    let w1 = SimWorkload::from_recorded(&run1.recorder, &run1.comm_events, &cal_cfg);
    let (cal, _) = simulate(&w1, &cal_cfg).expect("consistent workload");
    if let Err(e) = cal.validate() {
        failures.push(format!("calibration report invalid: {e}"));
    }
    let rel = (cal.wall_s - analytic.total_s).abs() / analytic.total_s;
    println!(
        "calibration: sim {:.6} s vs analytic {:.6} s  (rel err {:.4}%)",
        cal.wall_s,
        analytic.total_s,
        rel * 100.0
    );
    if rel > 0.01 {
        failures.push(format!(
            "zero-overlap calibration off by {:.3}% (> 1%)",
            rel * 100.0
        ));
    }

    // --- 2. Launch-latency analysis per block size ---------------------
    // Per-block launch granularity (one launch per mesh block, no pack
    // fusion) — the configuration where §VIII-C's launch-latency wall
    // shows up at small block sizes.
    println!("\n-- launch latency vs kernel duration (1 rank, sync, per-block launches) --");
    let per_block = |b: usize| SimConfig {
        per_block_launches: true,
        ..SimConfig::zero_overlap(1, b)
    };
    let blocks: Vec<usize> = [8usize, 16, 32]
        .into_iter()
        .filter(|&b| mesh.is_multiple_of(b) && b <= mesh)
        .collect();
    let mut smallest_block_bound = false;
    for &b in &blocks {
        let (rep, _) = run_sim(&spec(1, b), &per_block(b));
        if let Err(e) = rep.validate() {
            failures.push(format!("block {b} report invalid: {e}"));
        }
        if Some(&b) == blocks.first() {
            smallest_block_bound = rep.per_kernel.iter().any(|k| k.launch_bound());
        }
        let mut rows = Vec::new();
        for k in rep.per_kernel.iter().take(5) {
            rows.push(vec![
                k.name.to_string(),
                k.launches.to_string(),
                sci(k.mean_exec_s),
                sci(k.host_gap_s),
                if k.launch_bound() {
                    "LAUNCH-BOUND".to_string()
                } else {
                    "compute".to_string()
                },
            ]);
        }
        println!("\nB{b}:");
        println!(
            "{}",
            format_table(
                &["Kernel", "Launches", "Exec/launch", "Host gap", "Regime"],
                &rows
            )
        );
    }
    // At the smallest block size the host gap must dominate at least one
    // kernel (the launch-latency wall of §VIII-C).
    if let Some(&smallest) = blocks.first() {
        if !smallest_block_bound {
            failures.push(format!(
                "no launch-bound kernel at smallest block size B{smallest}"
            ));
        }
    }

    // --- 3. Parallel efficiency, 1 → 8 simulated ranks -----------------
    println!("-- rank scaling (shared GPU, event-log message replay) --");
    let mut eff_rows = Vec::new();
    let mut fom1 = 0.0;
    let mut effs = Vec::new();
    for r in [1usize, 2, 4, 8] {
        let (rep, _) = if r == 1 {
            (cal.clone(), None)
        } else {
            let (rr, t) = run_sim(&spec(r, block), &SimConfig::zero_overlap(r, block));
            (rr, Some(t))
        };
        if let Err(e) = rep.validate() {
            failures.push(format!("rank {r} report invalid: {e}"));
        }
        if r == 1 {
            fom1 = rep.fom;
        }
        let eff = rep.fom / (r as f64 * fom1);
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
    if effs.last().copied().unwrap_or(0.0) >= effs.first().copied().unwrap_or(0.0) {
        failures.push("parallel efficiency did not decrease from 1 to 8 ranks".to_string());
    }

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
        let w = SimWorkload::from_recorded(&run4.recorder, &run4.comm_events, &cfg);
        let (rep, _) = simulate(&w, &cfg).expect("consistent workload");
        if let Err(e) = rep.validate() {
            failures.push(format!("what-if '{label}' report invalid: {e}"));
        }
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

    // --- 5. Perfetto async trace ---------------------------------------
    let trace_dir = env_or("VIBE_SIM_TRACE_DIR", "target/sim-timeline".to_string());
    let cfg2 = SimConfig::streamed(2, block, 2);
    let run2 = record(&spec(2, block));
    let w2 = SimWorkload::from_recorded(&run2.recorder, &run2.comm_events, &cfg2);
    let (rep2, tl2) = simulate(&w2, &cfg2).expect("consistent workload");
    if let Err(e) = rep2.validate() {
        failures.push(format!("trace-run report invalid: {e}"));
    }
    if let Err(e) = tl2.validate() {
        failures.push(format!("trace-run timeline invalid: {e}"));
    }
    let spans = tl2.to_async_spans();
    let json = perfetto_async_trace_json(&spans, "vibe-sim", &tl2.tracks);
    match validate_async_trace(&json) {
        Ok(stats) => println!(
            "trace: {} spans across {} tracks validate ({} b/e pairs)",
            spans.len(),
            stats.tracks,
            stats.pairs
        ),
        Err(e) => failures.push(format!("async trace failed offline validation: {e}")),
    }
    if let Err(e) = std::fs::create_dir_all(&trace_dir)
        .and_then(|()| std::fs::write(format!("{trace_dir}/trace.json"), &json))
    {
        failures.push(format!("could not write trace: {e}"));
    } else {
        println!("wrote {trace_dir}/trace.json  (open in ui.perfetto.dev)");
    }

    if failures.is_empty() {
        println!("\nsim_timeline: all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("sim_timeline FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
