//! End-to-end tests of the rank-parallel runtime against the rest of the
//! toolchain: the merged multi-rank event log feeds the discrete-event
//! timeline simulator, and the per-rank wall-clock streams export as one
//! rank-tagged Perfetto trace.

use vibe_bench::{paper_workload, run_workload, run_workload_distributed};
use vibe_core::DriverParams;
use vibe_prof::json::{parse, Json};
use vibe_prof::ProfLevel;
use vibe_serve::JobConfig;

fn spec(nranks: usize) -> JobConfig {
    JobConfig {
        mesh_cells: 16,
        levels: 2,
        cycles: 2,
        num_scalars: 1,
        nranks,
        ..paper_workload()
    }
}

/// The simulator ingests the *merged* multi-rank log: real per-rank send
/// and completion events (not the single-driver accounting stream)
/// schedule onto NIC channels and produce a finite timeline.
#[test]
fn sim_replays_merged_multirank_log() {
    let nranks = 4;
    let job = spec(nranks);
    let run = run_workload_distributed(
        &job,
        DriverParams {
            capture_comm_events: true,
            ..job.driver_params()
        },
    );
    assert!(run.events.iter().any(|e| e.rank != 0));
    let cfg = vibe_sim::SimConfig::zero_overlap(nranks, 8);
    let w = vibe_sim::SimWorkload::from_recorded(&run.recorder, &run.events, &cfg);
    let (report, timeline) = vibe_sim::simulate(&w, &cfg).expect("merged log simulates");
    assert!(report.wall_s > 0.0);
    assert_eq!(report.per_rank.len(), nranks);
    assert_eq!(report.per_cycle.len(), run.cycles as usize);
    assert!(report.zone_cycles > 0);
    // The timeline renders to a valid Perfetto trace.
    let json = timeline.trace_json("vibe-rt-sim");
    vibe_prof::validate_trace(&json).expect("valid simulated trace");
}

/// With wall-clock profiling on in every shard, the merged run exports a
/// rank-tagged Perfetto trace: one process track per rank, all parseable.
#[test]
fn multirank_trace_export_is_rank_tagged() {
    let nranks = 2;
    let job = spec(nranks);
    let run = run_workload_distributed(
        &job,
        DriverParams {
            prof_level: ProfLevel::Full,
            ..job.driver_params()
        },
    );
    assert_eq!(run.rank_traces.len(), nranks);
    for (rank, trace) in &run.rank_traces {
        assert!(
            !trace.is_empty(),
            "rank {rank} produced no wall-clock events"
        );
    }
    let json = run.perfetto_trace_json();
    vibe_prof::validate_trace(&json).expect("valid multi-rank trace");
    let doc = parse(&json).expect("well-formed multi-rank trace");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    for rank in 0..nranks {
        let label = format!("rank {rank}");
        let names_track = |ev: &&Json| {
            ev.get("name").and_then(Json::as_str) == Some("process_name")
                && ev.get("args").and_then(|a| a.get("name")?.as_str()) == Some(&label)
        };
        let track = events.iter().find(names_track);
        let track = track.unwrap_or_else(|| panic!("missing process track for rank {rank}"));
        assert_eq!(
            track.get("pid").and_then(Json::as_u64),
            Some(rank as u64 + 1)
        );
    }
    // Profiling must stay result-neutral in the distributed runtime too.
    let unprofiled = run_workload(&job, job.driver_params());
    assert_eq!(run.fingerprint, unprofiled.state_fingerprint);
}
