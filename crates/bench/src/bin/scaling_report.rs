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
//! Usage: `scaling_report [job-config-json] [bench-json-path]`: the
//! problem (default Burgers Mesh 64 / B16 / L2, 3 cycles) is one
//! `JobConfig` JSON object, whose geometry fields the probe matrix
//! overrides; the document (default `BENCH_fom.json`) gets its
//! `attribution` key set and keeps its other keys. The flow trace goes to
//! `VIBE_SCALE_TRACE_DIR` (default `target/scaling`).

use std::fmt::Write as _;

use vibe_bench::{env_or, paper_workload, run_workload, run_workload_distributed, scenario_args};
use vibe_core::DriverParams;
use vibe_prof::json::{obj, Json};
use vibe_prof::{validate_flow_events, Attribution, ProfLevel};
use vibe_rt::RtRun;
use vibe_serve::JobConfig;

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
    let (scenario, args) = scenario_args(JobConfig {
        mesh_cells: 64,
        block_cells: 16,
        levels: 2,
        ..paper_workload()
    });
    let bench_path = args.first().map_or("BENCH_fom.json", String::as_str);
    let trace_dir = env_or("VIBE_SCALE_TRACE_DIR", "target/scaling".to_string());
    // The probe matrix below sets the geometry.
    let base = JobConfig {
        nranks: 1,
        threads: 1,
        ..scenario
    };

    eprintln!(
        "reference: single-process serial run, Mesh {}/B{}/L{}, {} cycles ...",
        base.mesh_cells, base.block_cells, base.levels, base.cycles
    );
    let reference = run_workload(&base, base.driver_params()).state_fingerprint;
    let mut failures = Vec::new();
    let mut reports: Vec<RankReport> = Vec::new();

    for n in RANKS {
        // Attribution OFF: the plain distributed run this PR's trajectory
        // already records.
        eprintln!("probe: ranks={n}, attribution off ...");
        let cfg = JobConfig {
            nranks: n,
            ..base.clone()
        };
        let off = run_workload_distributed(&cfg, cfg.driver_params());
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
            let cfg = JobConfig {
                threads: t,
                ..cfg.clone()
            };
            // Spans and the message events whose send→complete pairs are
            // the cross-rank edges between them.
            let params = DriverParams {
                capture_spans: true,
                capture_comm_events: true,
                measured_costs: true,
                prof_level: if t == 1 {
                    ProfLevel::Coarse
                } else {
                    ProfLevel::Off
                },
                ..cfg.driver_params()
            };
            let run = run_workload_distributed(&cfg, params);
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
        ("mesh_cells", Json::Num(base.mesh_cells as f64)),
        ("block_cells", Json::Num(base.block_cells as f64)),
        ("levels", Json::Num(base.levels as f64)),
        ("cycles", Json::Num(base.cycles as f64)),
        ("runs", Json::Arr(runs.collect())),
    ];
    if let Some(r) = reports.iter().find(|r| r.ranks == 4) {
        let loss = r.attr.dominant_loss().0.to_string();
        section.push(("dominant_loss_4rank", Json::Str(loss)));
    }
    vibe_bench::update_bench_json(bench_path, vec![("attribution", obj(section))])
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
