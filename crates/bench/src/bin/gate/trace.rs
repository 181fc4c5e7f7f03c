//! `gate trace` — instrumented observability probe: runs the scenario
//! (default Burgers Mesh 64 / B16 / L2, 3 cycles on 8 threads) with full
//! wall-clock profiling, writes a Chrome/Perfetto `trace.json` and a
//! per-cycle `metrics.jsonl` into the out-dir, prints the
//! TinyProfiler-style region summary, and checks that profiling does not
//! perturb the simulation (bitwise-identical state fingerprint against an
//! uninstrumented run) and that both exports are well-formed.
//!
//! Open the trace at `ui.perfetto.dev` (or `chrome://tracing`): tid 0 is
//! the driver thread's region hierarchy, tids 1.. are pool load-rank slots.

use vibe_bench::{paper_workload, run_workload};
use vibe_core::DriverParams;
use vibe_prof::json::{parse_lines, Json};
use vibe_prof::{metrics_jsonl, perfetto_trace_json, summary_table, validate_trace, ProfLevel};
use vibe_serve::JobConfig;

use crate::Gate;

pub fn default_job() -> JobConfig {
    JobConfig {
        mesh_cells: 64,
        block_cells: 16,
        levels: 2,
        threads: 8,
        ..paper_workload()
    }
}

pub fn run(job: &JobConfig, gate: &mut Gate) {
    eprintln!(
        "gate trace: Mesh {}/B{}/L{}, {} cycles, threads={} ...",
        job.mesh_cells, job.block_cells, job.levels, job.cycles, job.threads
    );
    // Reference run without instrumentation, then the instrumented run:
    // profiling must never change the simulation state.
    let baseline = run_workload(job, job.driver_params());
    let profiled = run_workload(
        job,
        DriverParams {
            prof_level: ProfLevel::Full,
            ..job.driver_params()
        },
    );
    let (off, full) = (baseline.state_fingerprint, profiled.state_fingerprint);
    gate.check(off == full, || {
        format!("profiling changed the state: {off:016x} (off) vs {full:016x} (full)")
    });
    gate.fact("fingerprint", Json::Str(format!("{full:016x}")));

    let wall = profiled.recorder.wall();
    let (events, dropped) = wall.trace_events();
    let trace = perfetto_trace_json(&events, "vibe-amr gate trace");
    let jsonl = wall
        .with_cycles(metrics_jsonl)
        .expect("profiling was enabled");
    // Validate before writing, so a malformed export fails here rather
    // than in a viewer.
    if let Some(stats) = gate.ok(validate_trace(&trace), "trace.json") {
        gate.check(stats.spans == events.len(), || {
            format!("{} spans written, {} events", stats.spans, events.len())
        });
    }
    let lines = gate
        .ok(parse_lines(&jsonl), "metrics.jsonl")
        .map_or(0, |l| l.len());
    gate.check(lines as u64 == job.cycles, || {
        format!("{lines} metrics lines for {} cycles", job.cycles)
    });

    let pool = wall.pool_totals();
    let table = wall
        .with_totals(|t| summary_table(t, &pool))
        .expect("profiling was enabled");
    println!("{table}");
    println!("state fingerprint {full:016x} (profiling on and off)");
    println!(
        "{} trace events ({dropped} dropped), {lines} metrics lines",
        events.len()
    );
    gate.write("trace.json", &trace);
    gate.write("metrics.jsonl", &jsonl);
}
