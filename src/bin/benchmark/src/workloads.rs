//! The four workloads. Each is a closed loop: the next cycle starts when
//! the previous one finishes, and `serve-mix` holds a fixed number of jobs
//! in flight. A run measures for `--seconds` seconds and at least a fixed
//! minimum of work; `wall_s` and `peak_rss_mib` are read at that fixed
//! mark, so they do not depend on how many extra operations a faster
//! build fits into the same seconds.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use vibe_amr::burgers::{face_counts, take_face_counts};
use vibe_amr::core::{fingerprint_slots, CycleSummary, Driver, DynPackage};
use vibe_amr::prof::{perfetto_trace_json, CycleStats, Recorder};
use vibe_amr::rt::{RtRun, RtSession};
use vibe_amr::serve::json::parse as parse_json;
use vibe_amr::serve::{JobConfig, JobState, Service, ServiceConfig};

use crate::problem::{Geometry, Problem};
use crate::trace::Tracer;
use crate::util::{mean, median, peak_rss_mib, percentile, time_s, Rng};

/// How much a run does. The defaults are the benchmark; `--check` runs a
/// miniature of every workload through the same code.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Untimed operations before measuring (cycles; ignored by serve-mix,
    /// whose warm-up jobs are part of set-up).
    pub warm: usize,
    /// Timed operations that make up the fixed work `wall_s` covers.
    pub min_ops: usize,
    /// Measuring continues until this many seconds have passed as well.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Miniature meshes and job mixes (`--check`).
    pub mini: bool,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    pub fom_zc_per_s: f64,
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub op_ms_p50: f64,
    pub op_ms_p90: f64,
    pub ops_per_s: f64,
}

/// Operations attempted and failed, with a message per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    fn cycle(&mut self, s: &CycleSummary) {
        self.op(s.dt.is_finite() && s.dt > 0.0, || {
            format!("cycle {} produced dt = {}", s.cycle, s.dt)
        });
    }
}

/// Exact per-cycle counts, taken from the cycle at the fixed-work mark so
/// they repeat from run to run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleCounts {
    pub blocks: f64,
    pub ghost_cells: f64,
    pub msgs: f64,
    pub bytes: f64,
}

impl CycleCounts {
    fn of(stats: &CycleStats) -> Self {
        let (mut msgs, mut bytes) = (0u64, 0u64);
        for c in stats.comm.values() {
            msgs += c.p2p_local_messages + c.p2p_remote_messages;
            bytes += c.p2p_local_bytes + c.p2p_remote_bytes;
        }
        Self {
            blocks: stats.nblocks as f64,
            ghost_cells: stats.cells_communicated() as f64,
            msgs: msgs as f64,
            bytes: bytes as f64,
        }
    }
}

/// Program-reported numbers of a span-capturing session.
#[derive(Clone, Debug, Default)]
pub struct RtFacts {
    pub rank_wall_skew_frac: f64,
    /// compute, pack_serialization, late_sender, collective_imbalance,
    /// migration_stall, idle — mean over ranks of bucket / rank wall.
    pub attr: Vec<(&'static str, f64)>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ServeFacts {
    pub cache_hit_rate: f64,
    pub slices_per_job: f64,
    pub fairness_ratio: f64,
}

/// What the main run tells the per-layer report.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub fom: f64,
    pub initialize_ms: f64,
    pub first_cycle_ms: f64,
    pub cycle_ms_p50: f64,
    pub cycle_ms_max: f64,
    pub counts: CycleCounts,
    pub faces_per_cycle: f64,
    pub vector_share: f64,
    /// Program-reported inclusive ns per profiler region name, and the
    /// zone-cycles the profiler was on for.
    pub regions: Vec<(&'static str, u64)>,
    pub profiled_zone_cycles: f64,
    pub overlap_frac: f64,
    pub pool_utilization: f64,
    pub load_imbalance: f64,
    pub export_ms: f64,
    pub trace_mib: f64,
    pub rt: Option<RtFacts>,
    pub serve: Option<ServeFacts>,
}

pub struct MainRun {
    pub e2e: EndToEnd,
    pub checks: Checks,
    pub facts: Facts,
    /// Fingerprint after the warm-up cycles (0 where the workload has
    /// none to offer).
    pub fingerprint: u64,
}

/// Timed cycles of one AMR run plus what was read at the fixed-work mark.
#[derive(Default)]
struct CycleLog {
    first_s: f64,
    op_s: Vec<f64>,
    op_zc: Vec<u64>,
    summaries: Vec<CycleSummary>,
    fixed_wall_s: f64,
    rss_mib: f64,
    faces_at_mark: (u64, u64),
}

impl CycleLog {
    /// Records one timed cycle; returns `true` when measuring is over.
    fn timed(&mut self, wall_s: f64, s: CycleSummary, zc: u64, scale: &Scale, t0: Instant) -> bool {
        self.op_s.push(wall_s);
        self.op_zc.push(zc);
        self.summaries.push(s);
        if self.op_s.len() == scale.min_ops {
            self.fixed_wall_s = self.op_s.iter().sum();
            self.rss_mib = peak_rss_mib();
            self.faces_at_mark = face_counts();
        }
        self.op_s.len() >= scale.min_ops && t0.elapsed().as_secs_f64() >= scale.seconds
    }

    fn fom(&self) -> f64 {
        let per_cycle: Vec<f64> = self
            .op_s
            .iter()
            .zip(&self.op_zc)
            .map(|(s, zc)| *zc as f64 / s)
            .collect();
        median(&per_cycle)
    }

    fn end_to_end(&self, setup_s: &[f64]) -> EndToEnd {
        EndToEnd {
            fom_zc_per_s: self.fom(),
            wall_s: self.fixed_wall_s,
            setup_s: median(setup_s),
            peak_rss_mib: self.rss_mib,
            op_ms_p50: median(&self.op_s) * 1e3,
            op_ms_p90: percentile(&self.op_s, 0.9) * 1e3,
            ops_per_s: self.op_s.len() as f64 / self.op_s.iter().sum::<f64>(),
        }
    }

    fn facts(&self, scale: &Scale, initialize_s: f64) -> Facts {
        let (lane, tail) = self.faces_at_mark;
        let faces = (lane + tail) as f64;
        let (mut overlapped, mut compute) = (0u64, 0u64);
        for s in &self.summaries {
            overlapped += s.timing.overlapped_compute_ns;
            compute += s.timing.compute_task_ns;
        }
        Facts {
            fom: self.fom(),
            initialize_ms: initialize_s * 1e3,
            first_cycle_ms: self.first_s * 1e3,
            cycle_ms_p50: median(&self.op_s) * 1e3,
            cycle_ms_max: self.op_s.iter().copied().fold(0.0, f64::max) * 1e3,
            faces_per_cycle: faces / scale.min_ops as f64,
            vector_share: if faces > 0.0 {
                lane as f64 / faces
            } else {
                0.0
            },
            overlap_frac: if compute > 0 {
                overlapped as f64 / compute as f64
            } else {
                0.0
            },
            ..Facts::default()
        }
    }
}

/// Program-reported region totals of a driver's wall-clock profiler.
fn driver_regions(rec: &Recorder) -> Vec<(&'static str, u64)> {
    rec.wall()
        .with_totals(|t| {
            t.by_key()
                .into_iter()
                .map(|(k, s)| (k.name(), s.total_ns))
                .collect()
        })
        .unwrap_or_default()
}

/// A single-process AMR run (`b16-serial`, `b8-deep-t2`, and the short
/// reference runs of the traced report): set-up, warm-up, then timed
/// cycles. The driver is handed back for the probes to work on.
pub fn run_driver(
    p: &Problem,
    threads: usize,
    scale: &Scale,
    traced: bool,
    tr: &mut Tracer,
) -> (MainRun, Driver<DynPackage>) {
    let geo = Geometry::plain(1, threads).profiled(traced);
    let mut checks = Checks::default();
    let s = tr.begin("setup");
    let mut d = p.build(geo, tr);
    let setup_s = tr.end(s);
    let initialize_s = tr.last("core.initialize");

    let mut log = CycleLog::default();
    for i in 0..scale.warm {
        let s = tr.begin("core.step");
        let sum = d.step();
        let w = tr.end(s);
        if i == 0 {
            log.first_s = w;
        }
        checks.cycle(&sum);
    }
    let s = tr.begin("core.fingerprint");
    let fingerprint = fingerprint_slots(d.slots());
    tr.end(s);

    take_face_counts();
    let cells = p.cells_per_block();
    let t0 = Instant::now();
    loop {
        let s = tr.begin("core.step");
        let sum = d.step();
        let w = tr.end(s);
        checks.cycle(&sum);
        if log.timed(w, sum, sum.nblocks as u64 * cells, scale, t0) {
            break;
        }
    }

    let mut facts = log.facts(scale, initialize_s);
    let mark = scale.warm + scale.min_ops - 1;
    facts.counts = CycleCounts::of(&d.recorder().cycles()[mark]);
    if traced {
        facts.regions = driver_regions(d.recorder());
        facts.profiled_zone_cycles = d.recorder().totals().cell_updates as f64;
        let pool = d.recorder().wall().pool_totals();
        facts.pool_utilization = pool.utilization();
        facts.load_imbalance = if pool.is_empty() {
            0.0
        } else {
            pool.load_imbalance()
        };
        let s = tr.begin("prof.export");
        let (events, _dropped) = d.recorder().wall().trace_events();
        let json = perfetto_trace_json(&events, "benchmark");
        facts.export_ms = tr.end(s) * 1e3;
        facts.trace_mib = json.len() as f64 / (1 << 20) as f64;
    }
    let run = MainRun {
        e2e: log.end_to_end(&[setup_s]),
        checks,
        facts,
        fingerprint,
    };
    (run, d)
}

/// Starts a 2-rank session on the channel transport and waits until every
/// rank has built its replica and passed the start barrier (`run(0)`
/// returns only then; `RtSession::new` alone returns as soon as the rank
/// threads are spawned).
pub fn start_session(
    p: &Problem,
    geo: Geometry,
    checks: &mut Checks,
    tr: &mut Tracer,
) -> (RtSession<DynPackage>, f64) {
    let s = tr.begin("rt.session_start");
    let replica = p.clone();
    let mut session = RtSession::new(geo.nranks, move || replica.build_untraced(geo));
    let ready = session.run(0);
    let seconds = tr.end(s);
    checks.op(ready.is_ok(), || format!("session start failed: {ready:?}"));
    (session, seconds)
}

/// One more set-up sample: a session started and dropped (the preempt
/// path joins its rank threads).
pub fn session_setup_s(p: &Problem, checks: &mut Checks, tr: &mut Tracer) -> f64 {
    let (session, seconds) = start_session(p, Geometry::plain(2, 1), checks, tr);
    drop(session);
    seconds
}

/// One `session.run(1)`, timed; `None` (and a failed operation) when the
/// session reports an error.
fn session_cycle(
    session: &mut RtSession<DynPackage>,
    checks: &mut Checks,
    tr: &mut Tracer,
) -> Option<(f64, CycleSummary)> {
    let s = tr.begin("rt.run");
    let out = session.run(1);
    let w = tr.end(s);
    match out {
        Ok(v) if v.len() == 1 => {
            checks.cycle(&v[0]);
            Some((w, v[0]))
        }
        other => {
            checks.op(false, || format!("session.run(1) failed: {other:?}"));
            None
        }
    }
}

fn rt_facts(run: &RtRun) -> RtFacts {
    let walls: Vec<f64> = run.rank_wall_ns.iter().map(|w| *w as f64).collect();
    let (lo, hi) = walls
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), w| (lo.min(*w), hi.max(*w)));
    let mut attr: Vec<(&'static str, f64)> = Vec::new();
    if let Some(a) = &run.attribution {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for rank in &a.per_rank {
            for (name, ns) in rank.as_array() {
                *sums.entry(name).or_default() +=
                    ns as f64 / rank.wall_ns.max(1) as f64 / a.per_rank.len() as f64;
            }
        }
        attr = sums.into_iter().collect();
    }
    RtFacts {
        rank_wall_skew_frac: if hi > 0.0 { (hi - lo) / hi } else { 0.0 },
        attr,
    }
}

/// `b16-r2`: the same problem on 2 real rank shards over the channel
/// transport, one `session.run(1)` per timed cycle.
pub fn run_session(p: &Problem, scale: &Scale, traced: bool, tr: &mut Tracer) -> MainRun {
    let geo = Geometry {
        spans: traced,
        ..Geometry::plain(2, 1).profiled(traced)
    };
    let mut checks = Checks::default();
    let (mut session, setup_s) = start_session(p, geo, &mut checks, tr);
    let mut log = CycleLog::default();
    let cells = p.cells_per_block();
    let mut alive = true;
    for i in 0..scale.warm {
        match session_cycle(&mut session, &mut checks, tr) {
            Some((w, _)) if i == 0 => log.first_s = w,
            Some(_) => {}
            None => {
                alive = false;
                break;
            }
        }
    }
    take_face_counts();
    let t0 = Instant::now();
    while alive {
        match session_cycle(&mut session, &mut checks, tr) {
            Some((w, sum)) => {
                if log.timed(w, sum, sum.nblocks as u64 * cells, scale, t0) {
                    break;
                }
            }
            None => alive = false,
        }
    }
    let s = tr.begin("rt.finish");
    let finished = session.finish();
    tr.end(s);

    let mut facts = log.facts(scale, 0.0);
    match finished {
        Ok(run) => {
            let mark = (scale.warm + scale.min_ops - 1) as u64;
            if let Some(stats) = run.recorder.cycles().iter().find(|c| c.cycle == mark) {
                facts.counts = CycleCounts::of(stats);
            }
            if traced {
                let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
                for (_, events) in &run.rank_traces {
                    for e in events.iter().filter(|e| e.cat == "region") {
                        *by_name.entry(e.name).or_default() += e.dur_ns;
                    }
                }
                facts.regions = by_name.into_iter().collect();
                facts.profiled_zone_cycles = run.recorder.totals().cell_updates as f64;
                let s = tr.begin("prof.export");
                let json = run.perfetto_trace_json();
                facts.export_ms = tr.end(s) * 1e3;
                facts.trace_mib = json.len() as f64 / (1 << 20) as f64;
            }
            facts.rt = Some(rt_facts(&run));
        }
        Err(e) => checks.op(false, || format!("session.finish failed: {e}")),
    }
    if log.op_s.len() < scale.min_ops {
        // The session died early: there is no fixed-work mark to report.
        log.fixed_wall_s = log.op_s.iter().sum();
        log.rss_mib = peak_rss_mib();
    }
    MainRun {
        e2e: log.end_to_end(&[setup_s]),
        checks,
        facts,
        fingerprint: 0,
    }
}

/// Fingerprint of the problem after `cycles` cycles on a 2-rank session.
pub fn session_fingerprint(p: &Problem, cycles: u64, checks: &mut Checks, tr: &mut Tracer) -> u64 {
    let (mut session, _) = start_session(p, Geometry::plain(2, 1), checks, tr);
    let ran = session.run(cycles);
    checks.op(ran.is_ok(), || {
        format!("verification session failed: {ran:?}")
    });
    match session.finish() {
        Ok(run) => run.fingerprint,
        Err(e) => {
            checks.op(false, || format!("verification session.finish failed: {e}"));
            0
        }
    }
}

/// Fingerprint of the problem after `cycles` cycles on a plain driver.
pub fn driver_fingerprint(p: &Problem, threads: usize, cycles: u64, tr: &mut Tracer) -> u64 {
    let s = tr.begin("verify.driver");
    let mut d = p.build(Geometry::plain(1, threads), tr);
    d.run_cycles(cycles);
    let fp = fingerprint_slots(d.slots());
    tr.end(s);
    fp
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

const PHYSICS: [&str; 4] = ["advect", "burgers", "diffusion", "euler"];
const TENANTS: [&str; 3] = ["a", "b", "c"];
/// Jobs held in flight by the generator.
const WINDOW: usize = 4;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The one job shape of `serve-mix`; `refine_tol` is jittered per job so
/// every fresh job is a distinct cache key.
pub fn job_config(physics: &str, tol: f64) -> JobConfig {
    JobConfig {
        physics: physics.to_string(),
        dim: 3,
        mesh_cells: 16,
        block_cells: 8,
        levels: 2,
        cycles: 8,
        num_scalars: 2,
        refine_tol: tol,
        ..JobConfig::default()
    }
}

pub const JOB_TOL: f64 = 0.1;

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        runners: 2,
        budget_cycles: 4,
        tenant_weights: vec![("a".into(), 2), ("b".into(), 1), ("c".into(), 1)],
        ..ServiceConfig::default()
    }
}

struct Planned {
    tenant: &'static str,
    config: JobConfig,
    /// A resubmission of a job that has certainly finished: must be served
    /// from the cache with the original's fingerprint.
    expect_hit: bool,
}

/// Seeded job stream in blocks of `fresh + resub` jobs: every block holds
/// the same number of fresh jobs per package and the same number of exact
/// resubmissions, in seeded order — so the work per block, and with it
/// `wall_s`, does not swing with the seed the way independent draws would.
/// A block resubmits fresh jobs of the block *before the previous one* (the
/// set-up warm-up jobs in blocks 0 and 1): at least a whole block lies
/// between a job and its resubmission, far more than the window, so a
/// resubmission never races its original.
struct JobStream {
    rng: Rng,
    fresh: usize,
    resub: usize,
    block_no: usize,
    queue: Vec<Planned>,
    /// Fresh jobs of the two most recent blocks, oldest first.
    history: VecDeque<Vec<JobConfig>>,
}

impl JobStream {
    fn new(seed: u64, mini: bool) -> Self {
        let (fresh, resub) = if mini { (4, 2) } else { (12, 4) };
        let warmup: Vec<JobConfig> = PHYSICS.iter().map(|p| job_config(p, JOB_TOL)).collect();
        Self {
            rng: Rng::new(seed ^ 0x5E21_7E3D),
            fresh,
            resub,
            block_no: 0,
            queue: Vec::new(),
            history: VecDeque::from([warmup.clone(), warmup]),
        }
    }

    fn next(&mut self) -> Planned {
        if self.queue.is_empty() {
            let mut block = Vec::new();
            let mut fresh = Vec::new();
            for k in 0..self.fresh {
                let tol = JOB_TOL * (1.0 + 0.1 * self.rng.signed());
                let config = job_config(PHYSICS[(k + self.block_no) % PHYSICS.len()], tol);
                fresh.push(config.clone());
                block.push(Planned {
                    tenant: TENANTS[self.rng.below(TENANTS.len())],
                    config,
                    expect_hit: false,
                });
            }
            let mut pool = self.history.pop_front().expect("two blocks of history");
            self.history.push_back(fresh);
            self.rng.shuffle(&mut pool);
            for config in pool.into_iter().take(self.resub) {
                block.push(Planned {
                    tenant: TENANTS[self.rng.below(TENANTS.len())],
                    config,
                    expect_hit: true,
                });
            }
            self.rng.shuffle(&mut block);
            self.block_no += 1;
            self.queue = block;
        }
        self.queue.pop().expect("block just filled")
    }
}

/// Reference fingerprints of the four warm-up jobs (the job shape at
/// `JOB_TOL`, in [`PHYSICS`] order). They do not depend on the seed, so
/// every `serve-mix` run checks them.
const GOLDEN_JOBS: [u64; 4] = [
    0xe516_1c09_bee1_6e7f,
    0xd6a4_0b12_c361_25bc,
    0x77fe_9afa_c1f6_f871,
    0x0b4d_19a9_f796_32d5,
];

/// `Service::start` plus one warm-up job per package run to `Done`.
/// Returns the service, the seconds it took, and the warm-up jobs'
/// (cache key, fingerprint) pairs.
fn start_service(checks: &mut Checks, tr: &mut Tracer) -> (Service, f64, Vec<(u64, u64)>) {
    let s = tr.begin("setup");
    let sp = tr.begin("serve.start");
    let service = Service::start(service_config());
    tr.end(sp);
    let submitted: Vec<_> = PHYSICS
        .iter()
        .map(|p| service.submit("a", job_config(p, JOB_TOL)))
        .collect();
    let sp = tr.begin("serve.warmup_wait");
    let mut results = Vec::new();
    for (out, golden) in submitted.into_iter().zip(GOLDEN_JOBS) {
        let done = out.and_then(|(id, key, _)| {
            let view = service.wait_done(id, JOB_TIMEOUT)?;
            Ok((key, view.result.map_or(0, |r| r.fingerprint)))
        });
        checks.op(matches!(done, Ok((_, fp)) if fp == golden), || {
            format!("warm-up job: {done:x?}, reference fingerprint {golden:016x}")
        });
        results.extend(done);
    }
    tr.end(sp);
    (service, tr.end(s), results)
}

/// Executed zone-cycles of a finished job: blocks after each cycle (from
/// the job's own metrics stream) × cells per block.
fn job_zone_cycles(service: &Service, id: u64, cells_per_block: u64) -> u64 {
    let Some(jsonl) = service.metrics_jsonl(id) else {
        return 0;
    };
    jsonl
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .filter_map(|row| row.get("nblocks").and_then(|n| n.as_u64()))
        .map(|nblocks| nblocks * cells_per_block)
        .sum()
}

struct InFlight {
    id: u64,
    submitted: Instant,
    planned: Planned,
}

/// `serve-mix`: one generator thread (this one) keeps [`WINDOW`] jobs in
/// flight on a 2-runner service, polling `Service::job` every millisecond.
pub fn run_serve(seed: u64, scale: &Scale, tr: &mut Tracer) -> MainRun {
    let mut checks = Checks::default();
    let (service, setup_s, warm) = start_service(&mut checks, tr);
    let mut stream = JobStream::new(seed, scale.mini);

    // Fingerprint of every finished problem, keyed by cache key.
    let mut known: BTreeMap<u64, u64> = warm.into_iter().collect();
    let mut miss_s: Vec<f64> = Vec::new();
    let mut miss_by_tenant: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut miss_ids: Vec<(u64, JobConfig)> = Vec::new();
    let (mut submitted, mut completed) = (0usize, 0usize);
    let (mut hits_in_fixed, mut slices) = (0usize, 0u64);
    let (mut fixed_wall_s, mut rss_mib, mut first_s) = (0.0, 0.0, 0.0);
    let mut inflight: Vec<InFlight> = Vec::new();
    let budget = service_config().budget_cycles;

    let t0 = Instant::now();
    let mut makespan_s = 0.0;
    loop {
        while inflight.len() < WINDOW
            && (submitted < scale.min_ops || t0.elapsed().as_secs_f64() < scale.seconds)
        {
            let planned = stream.next();
            let s = tr.begin("serve.submit");
            let now = Instant::now();
            let out = service.submit(planned.tenant, planned.config.clone());
            tr.end(s);
            submitted += 1;
            match out {
                Err(e) => checks.op(false, || format!("submit refused: {e}")),
                Ok((id, key, true)) => {
                    // Served from the cache inside `submit`.
                    let view = service.job(id);
                    let fp = view.as_ref().and_then(|v| v.result).map(|r| r.fingerprint);
                    let ok = planned.expect_hit
                        && view.as_ref().is_some_and(|v| v.cycles_executed == 0)
                        && fp.is_some()
                        && fp == known.get(&key).copied();
                    checks.op(ok, || format!("job {id}: bad cache hit ({fp:?})"));
                    if submitted <= scale.min_ops {
                        hits_in_fixed += 1;
                    }
                    completed += 1;
                }
                // A miss: the job is one operation, judged when it ends.
                Ok((id, _, false)) => inflight.push(InFlight {
                    id,
                    submitted: now,
                    planned,
                }),
            }
        }
        if inflight.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        let s = tr.begin("serve.poll");
        let mut i = 0;
        while i < inflight.len() {
            let job = &inflight[i];
            let view = service.job(job.id);
            let state = view.as_ref().map(|v| v.state);
            let timed_out = job.submitted.elapsed() > JOB_TIMEOUT;
            let terminal = matches!(
                state,
                None | Some(JobState::Done | JobState::Failed | JobState::Degraded)
            );
            if !(terminal || timed_out) {
                i += 1;
                continue;
            }
            let job = inflight.swap_remove(i);
            let turnaround = job.submitted.elapsed().as_secs_f64();
            makespan_s = t0.elapsed().as_secs_f64();
            completed += 1;
            let done = view
                .as_ref()
                .and_then(|v| v.result)
                .filter(|_| state == Some(JobState::Done));
            checks.op(done.is_some() && !job.planned.expect_hit, || {
                if done.is_some() {
                    format!("job {}: a resubmission was recomputed", job.id)
                } else {
                    format!("job {} ended as {state:?}", job.id)
                }
            });
            if let Some(r) = done {
                known.insert(job.planned.config.cache_key(), r.fingerprint);
                if miss_s.is_empty() {
                    first_s = turnaround;
                }
                miss_s.push(turnaround);
                miss_by_tenant
                    .entry(job.planned.tenant)
                    .or_default()
                    .push(turnaround);
                let executed = view.as_ref().map_or(0, |v| v.cycles_executed);
                slices += executed.div_ceil(budget);
                miss_ids.push((job.id, job.planned.config));
            }
        }
        tr.end(s);
        if fixed_wall_s == 0.0 && completed >= scale.min_ops {
            fixed_wall_s = t0.elapsed().as_secs_f64();
            rss_mib = peak_rss_mib();
        }
    }
    if fixed_wall_s == 0.0 {
        fixed_wall_s = t0.elapsed().as_secs_f64();
        rss_mib = peak_rss_mib();
    }

    let cells = Problem::of_job(&job_config("burgers", JOB_TOL)).cells_per_block();
    let s = tr.begin("serve.metrics_jsonl");
    let total_zc: u64 = miss_ids
        .iter()
        .map(|(id, _)| job_zone_cycles(&service, *id, cells))
        .sum();
    tr.end(s);

    // A sample of jobs (the first miss of each package) is recomputed by a
    // direct driver run; the service must have produced the same bits.
    let s = tr.begin("verify.jobs");
    for physics in PHYSICS {
        let Some((id, cfg)) = miss_ids.iter().find(|(_, c)| c.physics == physics) else {
            continue;
        };
        let direct = driver_fingerprint(&Problem::of_job(cfg), 1, cfg.cycles, tr);
        let served = known.get(&cfg.cache_key()).copied();
        checks.op(served == Some(direct), || {
            format!("job {id} ({physics}): service {served:?} != direct {direct:016x}")
        });
    }
    tr.end(s);
    let s = tr.begin("serve.shutdown");
    let stats = service.stats();
    service.shutdown();
    tr.end(s);
    checks.op(stats.failed == 0 && stats.degraded == 0, || {
        format!(
            "service reports {} failed, {} degraded",
            stats.failed, stats.degraded
        )
    });

    // Further set-ups on fresh services, each dropped before the next.
    let mut setups = vec![setup_s];
    for _ in 1..scale.setups {
        let (service, s, _) = start_service(&mut checks, tr);
        service.shutdown();
        setups.push(s);
    }

    let tenant_mean = |t: &str| miss_by_tenant.get(t).map_or(0.0, |v| mean(v));
    let (b, c) = (tenant_mean("b"), tenant_mean("c"));
    let e2e = EndToEnd {
        fom_zc_per_s: total_zc as f64 / makespan_s.max(1e-9),
        wall_s: fixed_wall_s,
        setup_s: median(&setups),
        peak_rss_mib: rss_mib,
        op_ms_p50: median(&miss_s) * 1e3,
        op_ms_p90: percentile(&miss_s, 0.9) * 1e3,
        ops_per_s: completed as f64 / makespan_s.max(1e-9),
    };
    let facts = Facts {
        fom: e2e.fom_zc_per_s,
        first_cycle_ms: first_s * 1e3,
        serve: Some(ServeFacts {
            // Over the first `min_ops` submissions (whole blocks of the
            // stream), so the rate repeats exactly.
            cache_hit_rate: hits_in_fixed as f64 / scale.min_ops as f64,
            slices_per_job: slices as f64 / miss_s.len().max(1) as f64,
            fairness_ratio: if b.min(c) > 0.0 {
                b.max(c) / b.min(c)
            } else {
                0.0
            },
        }),
        ..Facts::default()
    };
    MainRun {
        e2e,
        checks,
        facts,
        fingerprint: 0,
    }
}

/// Wall seconds and zone-cycles of a direct 1-rank run of a job's problem
/// (build excluded) — the physics probes and the service-overhead probe.
pub fn direct_job_run(cfg: &JobConfig, tr: &mut Tracer) -> (f64, u64, u64) {
    let mut d = Problem::of_job(cfg).build(Geometry::plain(1, 1), tr);
    let wall = time_s(|| d.run_cycles(cfg.cycles));
    (
        wall,
        d.recorder().totals().cell_updates,
        fingerprint_slots(d.slots()),
    )
}
