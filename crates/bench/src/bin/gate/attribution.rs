//! `gate attribution` — distributed wait-state attribution: runs the
//! rank-parallel runtime at ranks {1,2,4,8} with causal span capture and
//! measured per-block costs on, classifies every rank's wall time into
//! named wait-state buckets, extracts the cross-rank critical path and
//! exports a flow-linked Perfetto trace (`trace_flows.json` in the
//! out-dir). The scenario (default Burgers Mesh 64 / B16 / L2, 3 cycles)
//! gives the problem; the probe matrix overrides its geometry fields.
//!
//! Fails unless:
//! * every run's merged solution fingerprint — attribution on or off, at
//!   every probed `(ranks, host_threads)` — equals the single-process
//!   uninstrumented reference (profiling neutrality);
//! * every rank's buckets sum to its measured wall time within 5%;
//! * at least 90% of every rank's wall time lands in named buckets;
//! * the exported flow events pass the offline Perfetto validator, and
//!   multi-rank runs match at least one cross-rank edge.

use std::fmt::Write as _;

use vibe_bench::{format_table, paper_workload, run_workload, run_workload_distributed};
use vibe_core::DriverParams;
use vibe_prof::json::Json;
use vibe_prof::{validate_trace, Attribution, ProfLevel};
use vibe_rt::RtRun;
use vibe_serve::JobConfig;

use crate::Gate;

const RANKS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 2] = [1, 8];

pub fn default_job() -> JobConfig {
    JobConfig {
        mesh_cells: 64,
        block_cells: 16,
        levels: 2,
        ..paper_workload()
    }
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
    format_table(
        &[
            "rank",
            "wall(ms)",
            "compute",
            "pack/serial",
            "late_sender",
            "collective",
            "migration",
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

pub fn run(scenario: &JobConfig, gate: &mut Gate) {
    let base = JobConfig {
        nranks: 1,
        threads: 1,
        ..scenario.clone()
    };
    eprintln!(
        "reference: single-process serial run, Mesh {}/B{}/L{}, {} cycles ...",
        base.mesh_cells, base.block_cells, base.levels, base.cycles
    );
    let reference = run_workload(&base, base.driver_params()).state_fingerprint;
    let same_state = |gate: &mut Gate, run: &RtRun, what: String| {
        gate.check(run.fingerprint == reference, || {
            format!(
                "fingerprint diverged with {what}: {:016x} != {reference:016x}",
                run.fingerprint
            )
        });
    };
    // The threads=1 run (serial inside each shard) of every rank count.
    let mut reports: Vec<(usize, Attribution, RtRun)> = Vec::new();
    for n in RANKS {
        eprintln!("probe: ranks={n}, attribution off ...");
        let cfg = JobConfig {
            nranks: n,
            ..base.clone()
        };
        let off = run_workload_distributed(&cfg, cfg.driver_params());
        same_state(gate, &off, format!("attribution OFF at ranks={n}"));
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
            same_state(
                gate,
                &run,
                format!("attribution ON at ranks={n} threads={t}"),
            );
            if t != 1 {
                continue;
            }
            let attr = run.attribution.clone().expect("spans were captured");
            gate.check(attr.max_sum_error_frac() <= 0.05, || {
                format!(
                    "ranks={n}: buckets sum to wall with {:.1}% error (> 5%)",
                    attr.max_sum_error_frac() * 100.0
                )
            });
            gate.check(attr.min_coverage_frac() >= 0.90, || {
                format!(
                    "ranks={n}: only {:.1}% of wall classified into named buckets (< 90%)",
                    attr.min_coverage_frac() * 100.0
                )
            });
            gate.check(n < 2 || attr.matched_cross_edges > 0, || {
                format!("ranks={n}: no cross-rank edges matched")
            });
            reports.push((n, attr, run));
        }
    }

    let base_wall = reports[0].2.elapsed_ns() as f64;
    for (ranks, attr, run) in &reports {
        println!(
            "== wait-state attribution, ranks={ranks} (threads=1, speedup {:.2}x) ==",
            base_wall / run.elapsed_ns() as f64
        );
        println!("{}", bucket_table(attr));
        println!("{}", critical_path_line(attr));
        let (loss, ns) = attr.dominant_loss();
        println!(
            "matched cross edges: {}, flow arrows: {}, dominant loss bucket: {loss} ({:.1} ms summed over ranks)\n",
            attr.matched_cross_edges,
            run.flows.len(),
            ms(ns)
        );
        if *ranks == 4 {
            gate.fact("dominant_loss_4rank", Json::Str(loss.to_string()));
        }
    }

    // Flow-linked Perfetto trace from the widest instrumented run.
    let (_, _, widest) = reports.last().expect("RANKS is not empty");
    let json = widest.perfetto_trace_json();
    if let Some(stats) = gate.ok(validate_trace(&json), "flow trace") {
        gate.check(stats.flows == widest.flows.len(), || {
            format!(
                "flow validator counted {} arrows, run produced {}",
                stats.flows,
                widest.flows.len()
            )
        });
    }
    gate.fact("flow_arrows", Json::Num(widest.flows.len() as f64));
    gate.write("trace_flows.json", &json);
}
