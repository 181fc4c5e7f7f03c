//! Instrumented observability probe: runs the fixed Mesh 64 / B16 / L2
//! workload with full wall-clock profiling, writes a Chrome/Perfetto
//! `trace.json` and a per-cycle `metrics.jsonl` into the output directory,
//! prints the TinyProfiler-style region summary, and verifies that
//! profiling does not perturb the simulation (bitwise-identical state
//! fingerprint against an uninstrumented run).
//!
//! Usage: `trace_probe [job-config-json] [output-dir]`: the run (default
//! Burgers Mesh 64 / B16 / L2, 3 cycles on 8 threads) is one `JobConfig`
//! JSON object; the directory defaults to `target/trace-probe`.
//!
//! Open the trace at `ui.perfetto.dev` (or `chrome://tracing`): tid 0 is
//! the driver thread's region hierarchy, tids 1.. are pool load-rank slots.

use std::path::Path;

use vibe_bench::{paper_workload, run_workload, scenario_args};
use vibe_core::DriverParams;
use vibe_prof::json::{parse, parse_lines};
use vibe_prof::{metrics_jsonl, perfetto_trace_json, summary_table, ProfLevel};
use vibe_serve::JobConfig;

fn main() {
    let (job, args) = scenario_args(JobConfig {
        mesh_cells: 64,
        block_cells: 16,
        levels: 2,
        threads: 8,
        ..paper_workload()
    });
    let out_dir = args.first().map_or("target/trace-probe", String::as_str);
    let cycles = job.cycles;

    eprintln!(
        "trace_probe: Mesh {}/B{}/L{}, {} cycles, threads={} ...",
        job.mesh_cells, job.block_cells, job.levels, cycles, job.threads
    );

    // Reference run without instrumentation, then the instrumented run:
    // profiling must never change the simulation state.
    let baseline = run_workload(&job, job.driver_params());
    let profiled = run_workload(
        &job,
        DriverParams {
            prof_level: ProfLevel::Full,
            ..job.driver_params()
        },
    );
    if baseline.state_fingerprint != profiled.state_fingerprint {
        eprintln!(
            "ERROR: profiling changed the state: {:016x} (off) vs {:016x} (full)",
            baseline.state_fingerprint, profiled.state_fingerprint
        );
        std::process::exit(1);
    }

    let wall = profiled.recorder.wall();
    let (events, dropped) = wall.trace_events();
    let trace = perfetto_trace_json(&events, "vibe-amr trace_probe");
    let jsonl = wall
        .with_cycles(metrics_jsonl)
        .expect("profiling was enabled");
    // Self-validate before writing, so a malformed export fails loudly
    // here rather than in a viewer.
    parse(&trace).expect("trace.json is well-formed JSON");
    let lines = parse_lines(&jsonl)
        .expect("metrics.jsonl lines are well-formed")
        .len();
    assert_eq!(lines as u64, cycles, "one metrics line per cycle");

    std::fs::create_dir_all(out_dir).expect("create output dir");
    let trace_path = Path::new(out_dir).join("trace.json");
    let metrics_path = Path::new(out_dir).join("metrics.jsonl");
    std::fs::write(&trace_path, &trace).expect("write trace.json");
    std::fs::write(&metrics_path, &jsonl).expect("write metrics.jsonl");

    let pool = wall.pool_totals();
    let table = wall
        .with_totals(|t| summary_table(t, &pool))
        .expect("profiling was enabled");
    println!("{table}");
    println!(
        "state fingerprint {:016x} (identical with profiling off)",
        profiled.state_fingerprint
    );
    println!(
        "{} trace events ({} dropped) -> {}",
        events.len(),
        dropped,
        trace_path.display()
    );
    println!("{} metrics lines -> {}", lines, metrics_path.display());
    println!("open {} at https://ui.perfetto.dev", trace_path.display());
}
