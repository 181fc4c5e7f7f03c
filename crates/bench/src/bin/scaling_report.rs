//! Distributed wait-state attribution report: runs the rank-parallel
//! runtime at several rank counts with causal span capture and measured
//! per-block costs on, classifies every rank's wall time into named
//! wait-state buckets, extracts the cross-rank critical path, exports a
//! flow-linked Perfetto trace, and persists an `attribution` section into
//! `BENCH_fom.json`.
//!
//! The binary is its own gate (nonzero exit on violation):
//! * every run's merged solution fingerprint — attribution on or off, at
//!   every probed `(ranks, host_threads)` — must equal the single-process
//!   uninstrumented reference (profiling neutrality);
//! * every rank's buckets must sum to its measured wall time within 5%;
//! * at least 90% of every rank's wall time must land in named buckets;
//! * the exported flow events must pass the offline Perfetto validator,
//!   and multi-rank runs must match at least one cross-rank edge.
//!
//! Usage: `scaling_report [bench-json-path]` (default `BENCH_fom.json`;
//! the document's `attribution` key is set, its other keys are kept).
//! Overrides: `VIBE_SCALE_MESH`, `VIBE_SCALE_BLOCK`, `VIBE_SCALE_LEVELS`,
//! `VIBE_SCALE_CYCLES`, `VIBE_SCALE_TRACE_DIR`.

use std::fmt::Write as _;

use vibe_bench::{env_or, run_workload, run_workload_distributed, WorkloadSpec};
use vibe_prof::json::{obj, Json};
use vibe_prof::{validate_flow_events, Attribution, ProfLevel};
use vibe_rt::RtRun;

const RANKS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 2] = [1, 8];

struct RankReport {
    ranks: usize,
    wall_s: f64,
    attr: Attribution,
    flows: usize,
    run: RtRun,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn bucket_table(attr: &Attribution) -> String {
    let rows: Vec<Vec<String>> = attr
        .per_rank
        .iter()
        .enumerate()
        .map(|(rank, b)| {
            let mut row = vec![rank.to_string(), format!("{:.1}", ms(b.wall_ns))];
            for (_, ns) in b.as_array() {
                row.push(format!(
                    "{:.1} ({:.0}%)",
                    ms(ns),
                    ns as f64 / (b.wall_ns as f64).max(1.0) * 100.0
                ));
            }
            row.push(format!("{:.1}%", b.sum_error_frac() * 100.0));
            row
        })
        .collect();
    vibe_bench::format_table(
        &[
            "rank",
            "wall(ms)",
            "compute",
            "pack/serial",
            "late_sender",
            "collective",
            "migration",
            "recovery",
            "idle",
            "err",
        ],
        &rows,
    )
}

fn critical_path_line(attr: &Attribution) -> String {
    let mut out = String::new();
    let cp = &attr.critical_path;
    let _ = write!(
        out,
        "critical path: {:.1} ms over {} spans, {} rank switch(es):",
        ms(cp.makespan_ns),
        cp.path.len(),
        cp.switches
    );
    for seg in &cp.segments {
        let _ = write!(
            out,
            " r{}×{} ({:.1}ms)",
            seg.rank,
            seg.spans,
            ms(seg.span_ns)
        );
    }
    out
}

fn main() {
    let bench_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fom.json".to_string());
    let mesh_cells: usize = env_or("VIBE_SCALE_MESH", 64);
    let block_cells: usize = env_or("VIBE_SCALE_BLOCK", 16);
    let levels: u32 = env_or("VIBE_SCALE_LEVELS", 2);
    let cycles: u64 = env_or("VIBE_SCALE_CYCLES", 3);
    let trace_dir = env_or("VIBE_SCALE_TRACE_DIR", "target/scaling".to_string());

    let base = WorkloadSpec {
        mesh_cells,
        block_cells,
        levels,
        cycles,
        num_scalars: 4,
        dim: 3,
        refine_tol: 0.1,
        ..WorkloadSpec::default()
    };

    eprintln!(
        "reference: single-process serial run, Mesh {mesh_cells}/B{block_cells}/L{levels}, {cycles} cycles ..."
    );
    let reference = run_workload(&base).state_fingerprint;
    let mut failures = Vec::new();
    let mut reports: Vec<RankReport> = Vec::new();

    for n in RANKS {
        // Attribution OFF: the plain distributed run this PR's trajectory
        // already records.
        eprintln!("probe: ranks={n}, attribution off ...");
        let off = run_workload_distributed(&WorkloadSpec { nranks: n, ..base });
        if off.fingerprint != reference {
            failures.push(format!(
                "fingerprint diverged with attribution OFF at ranks={n}: {:016x} != {reference:016x}",
                off.fingerprint
            ));
        }
        // Attribution ON at every probed host-thread count; the threads=1
        // run (serial inside each shard) provides the reported buckets.
        for t in THREADS {
            eprintln!("probe: ranks={n}, threads={t}, attribution on ...");
            let run = run_workload_distributed(&WorkloadSpec {
                nranks: n,
                host_threads: t,
                capture_spans: true,
                measured_costs: true,
                prof_level: if t == 1 {
                    ProfLevel::Coarse
                } else {
                    ProfLevel::Off
                },
                ..base
            });
            if run.fingerprint != reference {
                failures.push(format!(
                    "fingerprint diverged with attribution ON at ranks={n} threads={t}: {:016x} != {reference:016x}",
                    run.fingerprint
                ));
            }
            if t != 1 {
                continue;
            }
            let attr = run.attribution.clone().expect("spans were captured");
            if attr.max_sum_error_frac() > 0.05 {
                failures.push(format!(
                    "ranks={n}: buckets sum to wall with {:.1}% error (> 5%)",
                    attr.max_sum_error_frac() * 100.0
                ));
            }
            if attr.min_coverage_frac() < 0.90 {
                failures.push(format!(
                    "ranks={n}: only {:.1}% of wall classified into named buckets (< 90%)",
                    attr.min_coverage_frac() * 100.0
                ));
            }
            if n >= 2 && attr.matched_cross_edges == 0 {
                failures.push(format!("ranks={n}: no cross-rank edges matched"));
            }
            reports.push(RankReport {
                ranks: n,
                wall_s: run.elapsed_ns() as f64 / 1e9,
                flows: run.flows.len(),
                attr,
                run,
            });
        }
    }

    let base_wall = reports.first().map(|r| r.wall_s).unwrap_or(0.0);
    for r in &reports {
        println!(
            "== wait-state attribution, ranks={} (threads=1, speedup {:.2}x) ==",
            r.ranks,
            base_wall / r.wall_s
        );
        println!("{}", bucket_table(&r.attr));
        println!("{}", critical_path_line(&r.attr));
        let (loss, ns) = r.attr.dominant_loss();
        println!(
            "matched cross edges: {}, flow arrows: {}, dominant loss bucket: {loss} ({:.1} ms summed over ranks)",
            r.attr.matched_cross_edges,
            r.flows,
            ms(ns)
        );
        println!();
    }
    if let Some(r) = reports.iter().find(|r| r.ranks == 4) {
        let (loss, _) = r.attr.dominant_loss();
        println!(
            "the 4-rank scaling regression ({:.2}x vs 1 rank) is dominated by: {loss}",
            base_wall / r.wall_s
        );
        println!();
    }

    // Flow-linked Perfetto trace from the widest instrumented run.
    if let Some(r) = reports.iter().max_by_key(|r| r.ranks) {
        let json = r.run.perfetto_trace_with_flows_json();
        match validate_flow_events(&json) {
            Ok(stats) => {
                if stats.flows != r.flows {
                    failures.push(format!(
                        "flow validator counted {} arrows, run produced {}",
                        stats.flows, r.flows
                    ));
                }
            }
            Err(e) => failures.push(format!("flow trace failed validation: {e}")),
        }
        std::fs::create_dir_all(&trace_dir).expect("create trace dir");
        let path = format!("{trace_dir}/trace_flows.json");
        std::fs::write(&path, &json).expect("write flow trace");
        eprintln!(
            "flow-linked Perfetto trace ({} ranks, {} arrows): {path}",
            r.ranks, r.flows
        );
    }

    // Persist the attribution section; bench_fom's own sections survive.
    let seconds = |ns: u64| Json::Num(ns as f64 / 1e9);
    let runs = reports.iter().map(|r| {
        let per_rank = r.attr.per_rank.iter().enumerate().map(|(rank, b)| {
            let mut row = vec![
                ("rank".to_string(), Json::Num(rank as f64)),
                ("wall_s".to_string(), seconds(b.wall_ns)),
            ];
            let buckets = b.as_array().into_iter();
            row.extend(buckets.map(|(name, ns)| (format!("{name}_s"), seconds(ns))));
            Json::Obj(row.into_iter().collect())
        });
        obj(vec![
            ("ranks", Json::Num(r.ranks as f64)),
            ("wall_s", Json::Num(r.wall_s)),
            ("speedup_vs_1rank", Json::Num(base_wall / r.wall_s)),
            (
                "matched_cross_edges",
                Json::Num(r.attr.matched_cross_edges as f64),
            ),
            ("flow_arrows", Json::Num(r.flows as f64)),
            (
                "critical_path_switches",
                Json::Num(r.attr.critical_path.switches as f64),
            ),
            ("max_sum_error_frac", Json::Num(r.attr.max_sum_error_frac())),
            ("min_coverage_frac", Json::Num(r.attr.min_coverage_frac())),
            (
                "dominant_loss",
                Json::Str(r.attr.dominant_loss().0.to_string()),
            ),
            ("per_rank", Json::Arr(per_rank.collect())),
        ])
    });
    let mut section = vec![
        ("mesh_cells", Json::Num(mesh_cells as f64)),
        ("block_cells", Json::Num(block_cells as f64)),
        ("levels", Json::Num(f64::from(levels))),
        ("cycles", Json::Num(cycles as f64)),
        ("runs", Json::Arr(runs.collect())),
    ];
    if let Some(r) = reports.iter().find(|r| r.ranks == 4) {
        let loss = r.attr.dominant_loss().0.to_string();
        section.push(("dominant_loss_4rank", Json::Str(loss)));
    }
    vibe_bench::update_bench_json(&bench_path, vec![("attribution", obj(section))])
        .expect("write bench JSON");
    eprintln!("attribution section written to {bench_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ERROR: {f}");
        }
        std::process::exit(1);
    }
    println!("scaling_report: all attribution gates passed");
}
