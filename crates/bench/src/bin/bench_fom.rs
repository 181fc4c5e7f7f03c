//! Machine-readable performance probe: runs the fixed Mesh 64 / B16 / L2
//! configuration at several host thread counts, measures *real* wall time
//! of the cycling loop, and writes `BENCH_fom.json` so successive PRs have
//! a comparable figure-of-merit trajectory.
//!
//! FOM = zone-cycles per second of real host wall time (not the modeled
//! platform time). A state fingerprint per run verifies that parallel
//! execution is bitwise identical to serial execution.
//!
//! After the timing runs, one instrumented run (full wall-clock profiling
//! at the highest probed thread count) prints the TinyProfiler-style
//! region summary and a measured-vs-modeled per-function comparison, and
//! contributes the measured per-stage breakdown to the JSON output. Its
//! fingerprint must match the uninstrumented run at the same thread count.
//!
//! Usage: `bench_fom [output-path]` (default `BENCH_fom.json`; the keys
//! this binary owns are set, any others in the file are kept); the thread
//! counts probed default to `[1, 8]` and can be overridden with
//! `VIBE_BENCH_THREADS=1,4,8`.

use std::fmt::Write as _;
use std::time::Instant;

use vibe_bench::paper_workload;
use vibe_burgers::take_face_counts;
use vibe_core::DriverParams;
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::{measured_vector_share, vector_efficiency, PlatformConfig};
use vibe_prof::json::{obj, Json};
use vibe_prof::{summary_table, ProfLevel, Recorder, StepFunction};
use vibe_serve::JobConfig;

const MESH_CELLS: usize = 64;
const BLOCK_CELLS: usize = 16;
const LEVELS: usize = 2;
const CYCLES: u64 = 3;
const NUM_SCALARS: usize = 4;

/// The probe problem at `block_cells` on the given execution geometry.
fn probe(block_cells: usize, nranks: usize, threads: usize) -> JobConfig {
    JobConfig {
        mesh_cells: MESH_CELLS,
        block_cells,
        levels: LEVELS,
        cycles: CYCLES,
        num_scalars: NUM_SCALARS,
        nranks,
        threads,
        ..paper_workload()
    }
}

struct RunResult {
    threads: usize,
    wall_s: f64,
    zone_cycles: u64,
    fom: f64,
    fingerprint: u64,
    final_blocks: usize,
    /// Wall time inside compute tasks, summed over cycles (0 when
    /// profiling is off).
    compute_task_ns: u64,
    /// Subset of `compute_task_ns` spent while comm traffic was in
    /// flight — the task executor's measured comm/compute overlap.
    overlapped_compute_ns: u64,
    /// Flux faces evaluated in full SIMD lane bundles during the timed
    /// cycles.
    lane_faces: u64,
    /// Flux faces evaluated through the scalar-tail fallback.
    tail_faces: u64,
}

impl RunResult {
    /// Measured comm/compute overlap fraction of the run (0 when
    /// profiling was off or no compute time was recorded).
    fn overlap_fraction(&self) -> f64 {
        if self.compute_task_ns == 0 {
            0.0
        } else {
            self.overlapped_compute_ns as f64 / self.compute_task_ns as f64
        }
    }
}

struct RankRun {
    ranks: usize,
    wall_s: f64,
    fom: f64,
    fingerprint: u64,
    rank_blocks: Vec<usize>,
    /// Per-rank (wall_s, busy_s, wait_s): busy = productive compute +
    /// pack/serialization work, wait = everything else (late sender,
    /// collective imbalance, migration stalls, idle). From the causal span
    /// capture, which is observational — the fingerprint check below
    /// doubles as the neutrality gate.
    per_rank: Vec<(f64, f64, f64)>,
}

/// Runs the probe configuration with `nranks` real concurrent rank shards
/// (one OS thread each, serial inside the shard) through `vibe-rt`.
fn run_ranks(nranks: usize) -> RankRun {
    let cfg = probe(BLOCK_CELLS, nranks, 1);
    // Spans for the per-rank busy/wait split; message events for the
    // cross-rank edges the attribution matches them over.
    let params = DriverParams {
        capture_spans: true,
        capture_comm_events: true,
        ..cfg.driver_params()
    };
    let run = vibe_bench::run_workload_distributed(&cfg, params);
    let wall_s = run.elapsed_ns() as f64 / 1e9;
    let zone_cycles = run.recorder.totals().cell_updates;
    let per_rank = run
        .attribution
        .as_ref()
        .map(|attr| {
            attr.per_rank
                .iter()
                .map(|b| {
                    let busy = b.compute_ns + b.pack_serialization_ns;
                    let wait = b.named_sum_ns() - busy;
                    (b.wall_ns as f64 / 1e9, busy as f64 / 1e9, wait as f64 / 1e9)
                })
                .collect()
        })
        .unwrap_or_default();
    RankRun {
        ranks: nranks,
        wall_s,
        fom: zone_cycles as f64 / wall_s,
        fingerprint: run.fingerprint,
        rank_blocks: run.rank_blocks,
        per_rank,
    }
}

fn run_with(threads: usize, prof_level: ProfLevel, block_cells: usize) -> (RunResult, Recorder) {
    let cfg = probe(block_cells, 1, threads);
    let mut driver = cfg.replica(
        DriverParams {
            prof_level,
            ..cfg.driver_params()
        },
        None,
    );
    take_face_counts(); // discard initialization's face evaluations
    let t0 = Instant::now();
    let summaries = driver.run_cycles(CYCLES);
    let wall_s = t0.elapsed().as_secs_f64();
    let (lane_faces, tail_faces) = take_face_counts();
    let zone_cycles = driver.recorder().totals().cell_updates;
    let result = RunResult {
        threads,
        wall_s,
        zone_cycles,
        fom: zone_cycles as f64 / wall_s,
        fingerprint: vibe_bench::state_fingerprint(&driver),
        final_blocks: driver.mesh().num_blocks(),
        compute_task_ns: summaries.iter().map(|s| s.timing.compute_task_ns).sum(),
        overlapped_compute_ns: summaries
            .iter()
            .map(|s| s.timing.overlapped_compute_ns)
            .sum(),
        lane_faces,
        tail_faces,
    };
    (result, driver.into_recorder())
}

/// Renders the measured (wall-clock) vs modeled (hwmodel) per-function
/// breakdown side by side, as shares of their respective totals.
fn measured_vs_modeled(rec: &Recorder) -> String {
    let measured = rec
        .wall()
        .with_totals(vibe_prof::measured_by_function)
        .unwrap_or_default();
    let measured_total: u64 = measured.values().map(|(ns, _)| ns).sum();
    let rep = evaluate(rec, &PlatformConfig::cpu_only(1, 8));
    let mut rows = Vec::new();
    for func in StepFunction::all() {
        let modeled_s = rep
            .per_function
            .iter()
            .find(|f| f.func == *func)
            .map(|f| f.total())
            .unwrap_or(0.0);
        let (meas_ns, calls) = measured.get(func).copied().unwrap_or((0, 0));
        if modeled_s <= 0.0 && meas_ns == 0 {
            continue;
        }
        let meas_share = if measured_total > 0 {
            meas_ns as f64 / measured_total as f64 * 100.0
        } else {
            0.0
        };
        let model_share = if rep.total_s > 0.0 {
            modeled_s / rep.total_s * 100.0
        } else {
            0.0
        };
        rows.push(vec![
            func.name().to_string(),
            calls.to_string(),
            format!("{:.3}", meas_ns as f64 / 1e6),
            format!("{meas_share:.1}%"),
            format!("{:.3}", modeled_s * 1e3),
            format!("{model_share:.1}%"),
        ]);
    }
    let mut out = vibe_bench::format_table(
        &[
            "Function",
            "calls",
            "measured(ms)",
            "meas%",
            "modeled(ms)",
            "model%",
        ],
        &rows,
    );
    let _ = writeln!(
        out,
        "measured: this host, {CYCLES} cycles; modeled: paper CPU-1R platform (shares comparable, absolutes not)"
    );
    out
}

/// The registry roster the scenario matrix probes; `main` asserts it
/// matches [`vibe_physics::standard_registry`] so a newly shipped package
/// cannot silently miss its FOM entry.
const SCENARIO_PACKAGES: &[&str] = &["advect", "burgers", "diffusion", "euler"];

struct ScenarioRun {
    physics: &'static str,
    wall_s: f64,
    zone_cycles: u64,
    fom: f64,
    threads_fom: f64,
    final_blocks: usize,
    fingerprint: u64,
    /// Serial and threaded fingerprints agree.
    thread_identical: bool,
}

/// Per-package FOM on a common small scenario (Mesh 16 / B8 / L2, 3
/// cycles): one serial timing run and one at `threads`, whose
/// fingerprints must be bitwise identical per package.
fn scenario_matrix(threads: usize) -> Vec<ScenarioRun> {
    SCENARIO_PACKAGES
        .iter()
        .map(|&physics| {
            let time_run = |threads: usize| {
                let cfg = JobConfig {
                    physics: physics.to_string(),
                    mesh_cells: 16,
                    levels: 2,
                    cycles: CYCLES,
                    num_scalars: 1,
                    threads,
                    ..paper_workload()
                };
                let mut d = cfg.replica(cfg.driver_params(), None);
                let t0 = Instant::now();
                d.run_cycles(cfg.cycles);
                let wall_s = t0.elapsed().as_secs_f64();
                let zc = d.recorder().totals().cell_updates;
                (
                    wall_s,
                    zc,
                    vibe_bench::state_fingerprint(&d),
                    d.mesh().num_blocks(),
                )
            };
            eprintln!("probe: scenario matrix, physics={physics} (serial + {threads}t) ...");
            let (wall_s, zone_cycles, fingerprint, final_blocks) = time_run(1);
            let (wall_t, _, fp_t, _) = time_run(threads);
            ScenarioRun {
                physics,
                wall_s,
                zone_cycles,
                fom: zone_cycles as f64 / wall_s,
                threads_fom: zone_cycles as f64 / wall_t,
                final_blocks,
                fingerprint,
                thread_identical: fingerprint == fp_t,
            }
        })
        .collect()
}

struct ServiceProbe {
    jobs: usize,
    wall_s: f64,
    jobs_per_min: f64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
    all_resubmissions_cached: bool,
}

/// Drives the multi-tenant simulation service: 8 concurrent jobs from 3
/// tenants (distinct problems) through the WRR scheduler with budget
/// slicing, then resubmits every problem on a different geometry — all
/// of which must be served from the fingerprint-keyed result cache.
fn service_probe() -> ServiceProbe {
    use vibe_serve::{Service, ServiceConfig};
    const JOBS: usize = 8;
    let svc = Service::start(ServiceConfig {
        runners: 2,
        budget_cycles: 3,
        tenant_weights: Vec::new(),
        ..ServiceConfig::default()
    });
    let tenants = ["alpha", "beta", "gamma"];
    let cfg = |i: usize, nranks: usize| JobConfig {
        cycles: 6,
        refine_tol: 0.2 + i as f64 * 0.005,
        nranks,
        ..JobConfig::default()
    };
    let t0 = Instant::now();
    let ids: Vec<u64> = (0..JOBS)
        .map(|i| {
            svc.submit(tenants[i % tenants.len()], cfg(i, 1))
                .expect("submit probe job")
                .0
        })
        .collect();
    for &id in &ids {
        svc.wait_done(id, std::time::Duration::from_secs(600))
            .expect("probe job completes");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Identical problems, different geometry: every one a cache hit.
    let all_resubmissions_cached = (0..JOBS).all(|i| {
        svc.submit(tenants[i % tenants.len()], cfg(i, 2))
            .expect("resubmit probe job")
            .2
    });
    let stats = svc.stats();
    svc.shutdown();
    let lookups = stats.cache_hits + stats.cache_misses;
    ServiceProbe {
        jobs: JOBS,
        wall_s,
        jobs_per_min: JOBS as f64 / (wall_s / 60.0),
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        hit_rate: if lookups == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / lookups as f64
        },
        all_resubmissions_cached,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fom.json".to_string());
    let counts = |name: &str, default: &str| -> Vec<usize> {
        let list = vibe_bench::env_or(name, default.to_string());
        let entry = |t: &str| {
            t.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad {name}={list:?}"))
        };
        list.split(',').map(entry).collect()
    };
    let threads = counts("VIBE_BENCH_THREADS", "1,8");

    let mut results = Vec::new();
    for &t in &threads {
        eprintln!(
            "probe: Mesh {MESH_CELLS}/B{BLOCK_CELLS}/L{LEVELS}, {CYCLES} cycles, threads={t} ..."
        );
        let (r, _) = run_with(t, ProfLevel::Off, BLOCK_CELLS);
        eprintln!(
            "  wall {:.3}s, {} zone-cycles, FOM {:.3e} zc/s, blocks {}, fp {:016x}",
            r.wall_s, r.zone_cycles, r.fom, r.final_blocks, r.fingerprint
        );
        results.push(r);
    }

    // Instrumented run at the widest probed thread count: the measured
    // per-stage breakdown, and proof that profiling is result-neutral.
    let prof_threads = threads.iter().copied().max().unwrap_or(1);
    eprintln!("probe: instrumented rerun (prof=full), threads={prof_threads} ...");
    let (prof_run, prof_rec) = run_with(prof_threads, ProfLevel::Full, BLOCK_CELLS);
    let prof_neutral = results
        .iter()
        .find(|r| r.threads == prof_threads)
        .map(|r| r.fingerprint == prof_run.fingerprint)
        .unwrap_or(true);
    let pool = prof_rec.wall().pool_totals();
    println!("== measured region summary (threads={prof_threads}, prof=full) ==");
    let table = prof_rec
        .wall()
        .with_totals(|t| summary_table(t, &pool))
        .expect("profiling enabled");
    println!("{table}");
    println!("== measured vs modeled per-function breakdown ==");
    println!("{}", measured_vs_modeled(&prof_rec));

    // Comm/compute overlap, measured vs modeled. Measured: the task
    // executor's attribution of compute wall time spent while mailbox
    // traffic was outstanding. Modeled: the discrete-event simulator's
    // speedup of the streamed configuration over the zero-overlap one on
    // the same recorded workload.
    let measured_overlap = prof_run.overlap_fraction();
    let modeled_overlap = {
        let sync_cfg = vibe_sim::SimConfig::zero_overlap(1, BLOCK_CELLS);
        let stream_cfg = vibe_sim::SimConfig::streamed(1, BLOCK_CELLS, 2);
        let w = vibe_sim::SimWorkload::from_recorded(&prof_rec, &[], &sync_cfg);
        let (sync_rep, _) = vibe_sim::simulate(&w, &sync_cfg).expect("zero-overlap sim");
        let (stream_rep, _) = vibe_sim::simulate(&w, &stream_cfg).expect("streamed sim");
        if sync_rep.wall_s > 0.0 {
            (1.0 - stream_rep.wall_s / sync_rep.wall_s).max(0.0)
        } else {
            0.0
        }
    };
    println!("== comm/compute overlap (threads={prof_threads}) ==");
    println!(
        "measured {:.1}% of compute task time ran while comm was in flight ({:.3} ms of {:.3} ms)",
        measured_overlap * 100.0,
        prof_run.overlapped_compute_ns as f64 / 1e6,
        prof_run.compute_task_ns as f64 / 1e6,
    );
    println!(
        "modeled  {:.1}% wall reduction from streamed vs zero-overlap replay of the same workload",
        modeled_overlap * 100.0
    );
    println!();

    // Rank-parallel strong scaling: the same problem executed by N real
    // concurrent rank shards over the channel transport (`vibe-rt`), one
    // OS thread per rank. The fingerprint of every merged run must equal
    // the single-process runs'.
    let ranks = counts("VIBE_BENCH_RANKS", "1,2,4,8");
    let mut rank_runs = Vec::new();
    for &n in &ranks {
        eprintln!("probe: rank-parallel run, ranks={n} (1 thread per shard) ...");
        let r = run_ranks(n);
        eprintln!(
            "  wall {:.3}s, FOM {:.3e} zc/s, blocks/rank {:?}, fp {:016x}",
            r.wall_s, r.fom, r.rank_blocks, r.fingerprint
        );
        rank_runs.push(r);
    }
    let rank_identical = rank_runs
        .iter()
        .all(|r| Some(r.fingerprint) == results.first().map(|b| b.fingerprint));
    let rank_base_wall = rank_runs.first().map(|r| r.wall_s).unwrap_or(0.0);
    println!("== rank-parallel strong scaling (vibe-rt, 1 host thread per shard) ==");
    let rows: Vec<Vec<String>> = rank_runs
        .iter()
        .map(|r| {
            let max_wait = r.per_rank.iter().map(|&(_, _, w)| w).fold(0.0f64, f64::max);
            vec![
                r.ranks.to_string(),
                format!("{:.3}", r.wall_s),
                vibe_bench::sci(r.fom),
                format!("{:.2}x", rank_base_wall / r.wall_s),
                format!("{max_wait:.3}"),
                format!("{:?}", r.rank_blocks),
            ]
        })
        .collect();
    println!(
        "{}",
        vibe_bench::format_table(
            &[
                "ranks",
                "wall(s)",
                "FOM(zc/s)",
                "speedup",
                "max-wait(s)",
                "blocks/rank"
            ],
            &rows
        )
    );

    // SIMD vector share, measured vs modeled, across block sizes: the lane
    // sweep's face counters give the real fraction of flux faces evaluated
    // in full lane bundles, compared against the opcode model's fitted
    // vector efficiency (the Fig. 13 B16-vs-B32 remainder cliff). B16 is
    // taken from the serial timing run above; other sizes are serial
    // reruns of the same mesh.
    struct SweepEntry {
        block_cells: usize,
        wall_s: f64,
        fom: f64,
        lane_faces: u64,
        tail_faces: u64,
        fingerprint: u64,
    }
    let mut sweep = Vec::new();
    if let Some(r) = results.iter().find(|r| r.threads == 1) {
        sweep.push(SweepEntry {
            block_cells: BLOCK_CELLS,
            wall_s: r.wall_s,
            fom: r.fom,
            lane_faces: r.lane_faces,
            tail_faces: r.tail_faces,
            fingerprint: r.fingerprint,
        });
    }
    {
        let block = 32usize;
        eprintln!("probe: block-size sweep, B{block}, serial ...");
        let (r, _) = run_with(1, ProfLevel::Off, block);
        eprintln!(
            "  wall {:.3}s, FOM {:.3e} zc/s, fp {:016x}",
            r.wall_s, r.fom, r.fingerprint
        );
        sweep.push(SweepEntry {
            block_cells: block,
            wall_s: r.wall_s,
            fom: r.fom,
            lane_faces: r.lane_faces,
            tail_faces: r.tail_faces,
            fingerprint: r.fingerprint,
        });
    }
    println!("== SIMD vector share: measured (lane face counters) vs modeled (opcode fit) ==");
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|e| {
            vec![
                format!("B{}", e.block_cells),
                format!("{:.3}", e.wall_s),
                vibe_bench::sci(e.fom),
                format!(
                    "{:.1}%",
                    measured_vector_share(e.lane_faces, e.tail_faces) * 100.0
                ),
                format!("{:.1}%", vector_efficiency(e.block_cells) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        vibe_bench::format_table(
            &["block", "wall(s)", "FOM(zc/s)", "measured", "modeled"],
            &rows
        )
    );
    println!("measured: serial cycling loop; larger blocks leave fewer sub-bundle exterior bands, raising the lane share");
    println!();

    // Scenario matrix: every registered physics package on a common small
    // scenario, serial + threaded, each bitwise thread-invariant.
    let registered = vibe_physics::standard_registry().names();
    assert_eq!(
        registered, SCENARIO_PACKAGES,
        "scenario matrix roster out of date with the registry"
    );
    let scenarios = scenario_matrix(prof_threads);
    println!("== physics scenario matrix (Mesh 16 / B8 / L2, {CYCLES} cycles) ==");
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.physics.to_string(),
                format!("{:.3}", s.wall_s),
                vibe_bench::sci(s.fom),
                vibe_bench::sci(s.threads_fom),
                s.final_blocks.to_string(),
                format!("{:016x}", s.fingerprint),
                s.thread_identical.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        vibe_bench::format_table(
            &[
                "physics",
                "wall(s)",
                "FOM-1t(zc/s)",
                &format!("FOM-{prof_threads}t(zc/s)"),
                "blocks",
                "fingerprint",
                "thread-identical"
            ],
            &rows
        )
    );
    println!();

    // Multi-tenant simulation service: throughput of 8 concurrent jobs
    // from 3 tenants through the vibe-serve scheduler, then identical
    // resubmissions to measure the fingerprint-keyed result cache.
    eprintln!("probe: simulation service (8 jobs, 3 tenants, then cached resubmissions) ...");
    let service = service_probe();
    println!("== simulation service (vibe-serve) ==");
    println!(
        "8 concurrent jobs in {:.3}s = {:.1} jobs/min; resubmission hit rate {:.0}% ({} hits / {} lookups)",
        service.wall_s,
        service.jobs_per_min,
        service.hit_rate * 100.0,
        service.cache_hits,
        service.cache_hits + service.cache_misses,
    );
    println!();

    let identical = results
        .windows(2)
        .all(|w| w[0].fingerprint == w[1].fingerprint && w[0].zone_cycles == w[1].zone_cycles);
    let best = results.iter().map(|r| r.fom).fold(0.0, f64::max);
    let serial_fom = results
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.fom)
        .unwrap_or(best);

    let num = Json::Num;
    let int = |n: u64| Json::Num(n as f64);
    let size = |n: usize| Json::Num(n as f64);
    let hex = |fp: u64| Json::Str(format!("{fp:016x}"));
    let list = Json::Arr;
    let config = obj(vec![
        ("mesh_cells", size(MESH_CELLS)),
        ("block_cells", size(BLOCK_CELLS)),
        ("levels", size(LEVELS)),
        ("cycles", int(CYCLES)),
        ("num_scalars", size(NUM_SCALARS)),
    ]);
    let runs = results.iter().map(|r| {
        obj(vec![
            ("threads", size(r.threads)),
            ("wall_s", num(r.wall_s)),
            ("zone_cycles", int(r.zone_cycles)),
            ("fom_zone_cycles_per_s", num(r.fom)),
            ("final_blocks", size(r.final_blocks)),
            ("state_fingerprint", hex(r.fingerprint)),
        ])
    });
    let measured = prof_rec
        .wall()
        .with_totals(vibe_prof::measured_by_function)
        .unwrap_or_default();
    let stages = measured.iter().map(|(func, &(ns, calls))| {
        let stage = obj(vec![("wall_ns", int(ns)), ("calls", int(calls))]);
        (func.name().to_string(), stage)
    });
    let measured_breakdown = obj(vec![
        ("threads", size(prof_threads)),
        ("prof_level", Json::Str("full".to_string())),
        ("profiling_result_neutral", Json::Bool(prof_neutral)),
        ("pool_utilization", num(pool.utilization())),
        ("pool_load_imbalance", num(pool.load_imbalance())),
        ("stages", Json::Obj(stages.collect())),
    ]);
    let overlap = obj(vec![
        ("threads", size(prof_threads)),
        ("measured_fraction", num(measured_overlap)),
        ("modeled_fraction", num(modeled_overlap)),
        ("overlapped_compute_ns", int(prof_run.overlapped_compute_ns)),
        ("compute_task_ns", int(prof_run.compute_task_ns)),
    ]);
    let rank_scaling = rank_runs.iter().map(|r| {
        let per_rank = r.per_rank.iter().enumerate();
        let per_rank = per_rank.map(|(rank, &(wall, busy, wait))| {
            obj(vec![
                ("rank", size(rank)),
                ("wall_s", num(wall)),
                ("busy_s", num(busy)),
                ("wait_s", num(wait)),
            ])
        });
        obj(vec![
            ("ranks", size(r.ranks)),
            ("wall_s", num(r.wall_s)),
            ("fom_zone_cycles_per_s", num(r.fom)),
            ("speedup_vs_1rank", num(rank_base_wall / r.wall_s)),
            ("state_fingerprint", hex(r.fingerprint)),
            ("per_rank", list(per_rank.collect())),
        ])
    });
    let block_size_sweep = sweep.iter().map(|e| {
        let share = measured_vector_share(e.lane_faces, e.tail_faces);
        obj(vec![
            ("block_cells", size(e.block_cells)),
            ("wall_s", num(e.wall_s)),
            ("fom_zone_cycles_per_s", num(e.fom)),
            ("lane_faces", int(e.lane_faces)),
            ("tail_faces", int(e.tail_faces)),
            ("measured_vector_share", num(share)),
            (
                "modeled_vector_efficiency",
                num(vector_efficiency(e.block_cells)),
            ),
            ("state_fingerprint", hex(e.fingerprint)),
        ])
    });
    let scenario_matrix = scenarios.iter().map(|s| {
        obj(vec![
            ("physics", Json::Str(s.physics.to_string())),
            ("mesh_cells", size(16)),
            ("block_cells", size(8)),
            ("levels", size(2)),
            ("cycles", int(CYCLES)),
            ("wall_s", num(s.wall_s)),
            ("zone_cycles", int(s.zone_cycles)),
            ("fom_zone_cycles_per_s", num(s.fom)),
            ("fom_threads_zone_cycles_per_s", num(s.threads_fom)),
            ("final_blocks", size(s.final_blocks)),
            ("state_fingerprint", hex(s.fingerprint)),
            ("thread_identical", Json::Bool(s.thread_identical)),
        ])
    });
    let service_section = obj(vec![
        ("concurrent_jobs", size(service.jobs)),
        ("tenants", size(3)),
        ("wall_s", num(service.wall_s)),
        ("jobs_per_min", num(service.jobs_per_min)),
        ("cache_hits", int(service.cache_hits)),
        ("cache_misses", int(service.cache_misses)),
        ("cache_hit_rate", num(service.hit_rate)),
        (
            "all_resubmissions_cached",
            Json::Bool(service.all_resubmissions_cached),
        ),
    ]);
    let sections = vec![
        ("config", config),
        ("runs", list(runs.collect())),
        ("measured_breakdown", measured_breakdown),
        ("overlap", overlap),
        ("rank_scaling", list(rank_scaling.collect())),
        ("block_size_sweep", list(block_size_sweep.collect())),
        ("scenario_matrix", list(scenario_matrix.collect())),
        ("service", service_section),
        ("bit_identical_across_ranks", Json::Bool(rank_identical)),
        ("bit_identical_across_threads", Json::Bool(identical)),
        ("serial_fom_zone_cycles_per_s", num(serial_fom)),
        ("best_fom_zone_cycles_per_s", num(best)),
    ];
    println!("{}", obj(sections.clone()).render());
    vibe_bench::update_bench_json(&out_path, sections).expect("write BENCH_fom.json");
    if !identical {
        eprintln!("ERROR: state fingerprints differ across thread counts");
        std::process::exit(1);
    }
    if !prof_neutral {
        eprintln!("ERROR: instrumented run changed the state fingerprint");
        std::process::exit(1);
    }
    if !rank_identical {
        eprintln!("ERROR: rank-parallel fingerprints differ from the single-process run");
        std::process::exit(1);
    }
    if !service.all_resubmissions_cached {
        eprintln!("ERROR: a resubmitted identical job missed the service result cache");
        std::process::exit(1);
    }
    if let Some(s) = scenarios.iter().find(|s| !s.thread_identical) {
        eprintln!(
            "ERROR: scenario-matrix package '{}' is not thread-invariant",
            s.physics
        );
        std::process::exit(1);
    }
}
