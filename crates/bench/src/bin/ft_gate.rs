//! CI gate for the fault-tolerant elastic runtime: for every `(ranks,
//! threads)` combination in the probe matrix it
//!
//! 1. runs the gate workload fault-free for the reference fingerprint,
//! 2. re-runs it under a *zero-rate* fault plan and requires byte-for-byte
//!    neutrality (identical fingerprint, zero injected faults), and
//! 3. re-runs it under seeded message chaos (drop/delay/duplicate) plus a
//!    rank kill at a mid-run cycle boundary, and requires the resilient
//!    conductor to recover — restore from the last periodic checkpoint,
//!    re-partition onto the surviving ranks, replay — to the *exact*
//!    fault-free fingerprint within a bounded retry count.
//!
//! Usage: `ft_gate [BENCH.json]` — when a path is given, the document's
//! `"resilience"` key (faults injected, recoveries, recovery overhead) is
//! set and its other keys are kept.

use std::sync::Arc;

use vibe_bench::{format_table, paper_workload, run_workload_distributed};
use vibe_core::DriverParams;
use vibe_ft::{FaultPlan, FaultPlanSpec, FaultStats, KillSpec};
use vibe_prof::json::{obj, Json};
use vibe_rt::{run_resilient, ResilienceOptions, RtSession, SessionOptions};
use vibe_serve::JobConfig;

const RANKS: [usize; 3] = [2, 4, 8];
const THREADS: [usize; 2] = [1, 8];

fn main() {
    let bench_path = std::env::args().nth(1);
    let cycles = 6u64;
    let base = JobConfig {
        mesh_cells: 16,
        levels: 2,
        cycles,
        num_scalars: 1,
        ..paper_workload()
    };

    let mut rows = Vec::new();
    let mut failures = 0usize;
    let mut totals = FaultStats::default();
    let mut total_recoveries = 0u32;
    let mut total_checkpoints = 0u32;
    let mut total_stall_ns = 0u64;
    let mut reference_fp = 0u64;
    for nranks in RANKS {
        for threads in THREADS {
            let cfg = JobConfig {
                nranks,
                threads,
                ..base.clone()
            };
            // 1. The fault-free reference.
            let reference = run_workload_distributed(&cfg, cfg.driver_params());
            reference_fp = reference.fingerprint;

            // 2. Chaos off must be byte-for-byte neutral.
            let zero = Arc::new(FaultPlan::new(FaultPlanSpec::default()));
            let mut session = RtSession::with_options(
                nranks,
                SessionOptions {
                    fault_plan: Some(Arc::clone(&zero)),
                    ..SessionOptions::default()
                },
                {
                    let cfg = cfg.clone();
                    move || cfg.replica(cfg.driver_params(), None)
                },
            );
            session.run(cycles).expect("zero-rate session");
            let neutral = session.finish().expect("zero-rate finish");
            let neutral_ok = neutral.fingerprint == reference.fingerprint
                && zero.stats() == FaultStats::default();

            // 3. Seeded message chaos + a mid-run rank kill must recover
            //    to the exact reference.
            let victim = nranks - 1;
            let plan = Arc::new(FaultPlan::new(FaultPlanSpec {
                seed: 0x9E37 ^ ((nranks as u64) << 16) ^ threads as u64,
                drop_per_mille: 40,
                delay_per_mille: 80,
                duplicate_per_mille: 40,
                delay_ticks: 2,
                kill: Some(KillSpec {
                    rank: victim,
                    cycle: 3,
                }),
            }));
            let opts = ResilienceOptions {
                checkpoint_every: 2,
                max_retries: 3,
                fault_plan: Some(Arc::clone(&plan)),
                ..ResilienceOptions::default()
            };
            // Fresh or restored from a recovery checkpoint, each replica is
            // partitioned for the `n` ranks still alive: how a dead rank's
            // blocks are re-homed onto the survivors.
            let outcome = run_resilient(nranks, cycles, opts, move |snap, n| {
                let params = DriverParams {
                    nranks: n,
                    ..cfg.driver_params()
                };
                cfg.replica(params, snap)
            });
            let (fp, stats, recov) = match &outcome {
                Ok((run, report)) => (
                    run.fingerprint,
                    report.fault_stats,
                    (report.failures, report.recoveries, report.checkpoints),
                ),
                Err(_) => (0, FaultStats::default(), (0, 0, 0)),
            };
            let recovered_ok = outcome.is_ok()
                && fp == reference.fingerprint
                && stats.killed == 1
                && recov.0 == 1
                && recov.1 == 1;
            if let Ok((_, report)) = &outcome {
                totals.dropped += stats.dropped;
                totals.delayed += stats.delayed;
                totals.duplicated += stats.duplicated;
                totals.killed += stats.killed;
                total_recoveries += report.recoveries;
                total_checkpoints += report.checkpoints;
                total_stall_ns += report.recovery_stall_ns;
            }
            let ok = neutral_ok && recovered_ok;
            failures += usize::from(!ok);
            rows.push(vec![
                nranks.to_string(),
                threads.to_string(),
                format!("kill r{victim}@c3"),
                format!(
                    "{}d/{}l/{}u",
                    stats.dropped, stats.delayed, stats.duplicated
                ),
                recov.1.to_string(),
                format!("{:016x}", fp),
                if ok { "ok" } else { "MISMATCH" }.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "ranks",
                "threads",
                "fault",
                "msg faults",
                "recoveries",
                "fingerprint",
                "gate"
            ],
            &rows
        )
    );
    if failures > 0 {
        eprintln!("ERROR: {failures} faulted run(s) failed to recover to the reference");
        std::process::exit(1);
    }
    println!(
        "fault-tolerance gate passed for ranks {RANKS:?} x threads {THREADS:?}: \
         {} message faults, {} kills, {} recoveries, all bitwise",
        totals.dropped + totals.delayed + totals.duplicated,
        totals.killed,
        total_recoveries,
    );
    if let Some(path) = bench_path {
        let count = |n: u64| Json::Num(n as f64);
        let list = |a: &[usize]| Json::Arr(a.iter().map(|&n| Json::Num(n as f64)).collect());
        let section = obj(vec![
            ("ranks", list(&RANKS)),
            ("threads", list(&THREADS)),
            ("cycles", count(cycles)),
            ("faults_dropped", count(totals.dropped)),
            ("faults_delayed", count(totals.delayed)),
            ("faults_duplicated", count(totals.duplicated)),
            ("kills", count(totals.killed)),
            ("recoveries", count(total_recoveries.into())),
            ("checkpoints", count(total_checkpoints.into())),
            (
                "recovery_stall_ms_total",
                Json::Num(total_stall_ns as f64 / 1e6),
            ),
            ("fingerprint", Json::Str(format!("{reference_fp:016x}"))),
            ("gate", Json::Str("pass".to_string())),
        ]);
        vibe_bench::update_bench_json(&path, vec![("resilience", section)])
            .expect("write bench JSON");
        println!("resilience section written to {path}");
    }
}
