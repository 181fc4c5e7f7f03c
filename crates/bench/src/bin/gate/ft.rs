//! `gate ft` — the fault-tolerant elastic runtime. For every `(ranks,
//! threads)` of the matrix it
//!
//! 1. runs the scenario (default Burgers Mesh 16 / B8 / L2, 6 cycles)
//!    fault-free for the reference fingerprint,
//! 2. re-runs it under a *zero-rate* fault plan and requires byte-for-byte
//!    neutrality (identical fingerprint, zero injected faults), and
//! 3. re-runs it under seeded message chaos (drop/delay/duplicate) plus a
//!    kill of the last rank at cycle 3, and requires the resilient
//!    conductor to recover — restore from the last periodic checkpoint,
//!    re-partition onto the surviving ranks, replay — to the *exact*
//!    fault-free fingerprint within a bounded retry count.
//!
//! Expected-panic backtraces from the killed rank's cascade are routine on
//! stderr.

use std::sync::Arc;

use vibe_bench::{format_table, paper_workload, run_workload_distributed};
use vibe_core::DriverParams;
use vibe_ft::{FaultPlan, FaultPlanSpec, FaultStats, KillSpec};
use vibe_prof::json::Json;
use vibe_rt::{run_resilient, ResilienceOptions, RtSession, SessionOptions};
use vibe_serve::JobConfig;

use crate::Gate;

const RANKS: [usize; 3] = [2, 4, 8];
const THREADS: [usize; 2] = [1, 8];

pub fn default_job() -> JobConfig {
    JobConfig {
        mesh_cells: 16,
        levels: 2,
        cycles: 6,
        num_scalars: 1,
        ..paper_workload()
    }
}

pub fn run(job: &JobConfig, gate: &mut Gate) {
    let cycles = job.cycles;
    let mut rows = Vec::new();
    let (mut message_faults, mut kills, mut recoveries) = (0u64, 0u64, 0u32);
    let mut reference_fp = 0u64;
    for nranks in RANKS {
        for threads in THREADS {
            let cfg = JobConfig {
                nranks,
                threads,
                ..job.clone()
            };
            // 1. The fault-free reference.
            reference_fp = run_workload_distributed(&cfg, cfg.driver_params()).fingerprint;

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
            let neutral = session.run(cycles).and_then(|_| session.finish());
            let neutral_fp = gate.ok(neutral, "zero-rate session").map(|r| r.fingerprint);
            gate.check(
                neutral_fp == Some(reference_fp) && zero.stats() == FaultStats::default(),
                || {
                    format!(
                        "ranks={nranks} threads={threads}: a zero-rate fault plan is not neutral"
                    )
                },
            );

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
                fault_plan: Some(Arc::clone(&plan)),
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
            let Some((run, report)) = gate.ok(outcome, "resilient run") else {
                continue;
            };
            let stats = report.fault_stats;
            let ok = gate.check(
                run.fingerprint == reference_fp
                    && stats.killed == 1
                    && report.failures == 1
                    && report.recoveries == 1,
                || {
                    format!(
                        "ranks={nranks} threads={threads}: {} kill(s) and {} recoveries (want 1 and \
                         1), fingerprint {:016x} vs fault-free {reference_fp:016x}",
                        stats.killed, report.recoveries, run.fingerprint
                    )
                },
            );
            message_faults += stats.dropped + stats.delayed + stats.duplicated;
            kills += stats.killed;
            recoveries += report.recoveries;
            rows.push(vec![
                nranks.to_string(),
                threads.to_string(),
                format!("kill r{victim}@c3"),
                format!(
                    "{}d/{}l/{}u",
                    stats.dropped, stats.delayed, stats.duplicated
                ),
                report.recoveries.to_string(),
                format!("{:016x}", run.fingerprint),
                if ok { "ok" } else { "MISMATCH" }.to_string(),
            ]);
        }
    }
    let headers = [
        "ranks",
        "threads",
        "fault",
        "msg faults",
        "recoveries",
        "fingerprint",
        "gate",
    ];
    println!("{}", format_table(&headers, &rows));
    println!(
        "ranks {RANKS:?} x threads {THREADS:?}: {message_faults} message faults, \
         {kills} kills, {recoveries} recoveries"
    );
    gate.fact("message_faults", Json::Num(message_faults as f64));
    gate.fact("kills", Json::Num(kills as f64));
    gate.fact("recoveries", Json::Num(f64::from(recoveries)));
    gate.fact("fingerprint", Json::Str(format!("{reference_fp:016x}")));
}
