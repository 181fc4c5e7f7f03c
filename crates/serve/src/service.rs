//! The multi-tenant simulation service: job lifecycle, runner pool,
//! budget-sliced execution with checkpoint/preempt/resume, and the
//! result cache.
//!
//! Execution model: a bounded pool of runner threads pulls jobs off the
//! weighted round-robin [`Scheduler`] one *budget slice* at a time. A
//! slice spins up a fresh [`RtSession`] (from the initial condition, or
//! from the job's checkpoint), advances at most `budget_cycles`, then
//! either finishes the job, or checkpoints and re-enqueues it (time
//! slicing), or checkpoints and parks it (explicit preempt). Because the
//! runtime is bitwise reproducible, a resumed slice may use a *different*
//! `(nranks, threads)` geometry and the final solution fingerprint is
//! unchanged — which also makes the config-keyed result cache exact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vibe_core::{Package, Snapshot};
use vibe_ft::FaultPlan;
use vibe_prof::{job_metrics_jsonl, JobCycleMetric};
use vibe_rt::{RtRun, RtSession, SessionOptions};

use crate::cache::{CachedResult, ResultCache};
use crate::config::JobConfig;
use crate::scheduler::Scheduler;

/// Lifecycle state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the scheduler.
    Queued,
    /// A runner is advancing a slice right now.
    Running,
    /// Checkpointed and parked by an explicit preempt; waits for resume.
    Preempted,
    /// Finished (from execution or a cache hit).
    Done,
    /// Aborted with an error.
    Failed,
    /// Rank failures exhausted the retry budget; the job stopped at its
    /// last checkpoint instead of completing.
    Degraded,
}

impl JobState {
    /// Lowercase wire name used in status responses.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Degraded => "degraded",
        }
    }
}

/// Final outcome of a completed job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobResult {
    /// FNV-1a fingerprint of the merged final solution.
    pub fingerprint: u64,
    /// Final simulation time.
    pub time: f64,
    /// Final timestep.
    pub dt: f64,
}

struct Job {
    tenant: String,
    config: JobConfig,
    state: JobState,
    cached: bool,
    /// Cycles of the job already advanced (including pre-checkpoint ones).
    cycles_done: u64,
    /// Cycles this service actually executed for the job — stays 0 on a
    /// cache hit, which is how "zero recompute" is proven.
    cycles_executed: u64,
    preempt_requested: bool,
    /// Deterministic fault schedule for chaos-configured jobs; the kill
    /// latch inside persists across slices and retries, so an injected
    /// kill fires exactly once per job.
    plan: Option<Arc<FaultPlan>>,
    /// Rank failures recovered by replaying from the last checkpoint.
    recoveries: u32,
    snapshot: Option<Arc<Snapshot>>,
    metrics: Vec<JobCycleMetric>,
    result: Option<JobResult>,
    trace_json: Option<String>,
    error: Option<String>,
    submitted: Instant,
    finished: Option<Instant>,
}

/// A read-only copy of a job's public state.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Service-assigned id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Submitted configuration (geometry may change across resumes).
    pub config: JobConfig,
    /// Lifecycle state.
    pub state: JobState,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Cycles of the problem advanced so far.
    pub cycles_done: u64,
    /// Cycles this service executed (0 for a cache hit).
    pub cycles_executed: u64,
    /// Rank failures recovered via checkpoint replay.
    pub recoveries: u32,
    /// Final result once `state` is `Done`.
    pub result: Option<JobResult>,
    /// Failure message once `state` is `Failed`.
    pub error: Option<String>,
    /// Submission-to-completion wall time, once finished.
    pub turnaround: Option<Duration>,
}

struct State {
    jobs: Vec<Job>,
    sched: Scheduler,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    cache: ResultCache,
    shutdown: AtomicBool,
    budget_cycles: u64,
    max_retries: u32,
    retry_backoff: Duration,
}

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Runner threads in the pool (min 1).
    pub runners: usize,
    /// Cycles per scheduling slice (min 1): the preemption granularity —
    /// and the recovery checkpoint cadence, since every slice boundary
    /// checkpoints.
    pub budget_cycles: u64,
    /// Initial tenant weights; unknown tenants default to weight 1.
    pub tenant_weights: Vec<(String, u64)>,
    /// Rank failures tolerated per job before it is marked `Degraded`.
    pub max_retries: u32,
    /// Pause before re-enqueueing a failed job (scaled by its retry
    /// count), so a crash-looping job cannot monopolize the pool.
    pub retry_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            runners: 2,
            budget_cycles: 4,
            tenant_weights: Vec::new(),
            max_retries: 2,
            retry_backoff: Duration::from_millis(25),
        }
    }
}

/// Aggregate service counters for `GET /stats`.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs in the `Done` state.
    pub done: u64,
    /// Jobs in the `Failed` state.
    pub failed: u64,
    /// Jobs in the `Degraded` state (retry budget exhausted).
    pub degraded: u64,
    /// Rank failures detected across all jobs (recovered or not).
    pub failures_detected: u64,
    /// Checkpoint-replay recoveries across all jobs.
    pub recoveries: u64,
    /// Jobs currently queued or running or parked.
    pub active: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Distinct cached results.
    pub cache_entries: usize,
    /// Per-tenant (completed jobs, max turnaround s, min turnaround s).
    pub tenants: Vec<(String, u64, f64, f64)>,
}

/// The running service: runner pool plus shared job table.
pub struct Service {
    shared: Arc<Shared>,
    runners: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Boots the runner pool.
    pub fn start(cfg: ServiceConfig) -> Self {
        let mut sched = Scheduler::new();
        for (tenant, w) in &cfg.tenant_weights {
            sched.set_weight(tenant, *w);
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: Vec::new(),
                sched,
            }),
            work: Condvar::new(),
            cache: ResultCache::new(),
            shutdown: AtomicBool::new(false),
            budget_cycles: cfg.budget_cycles.max(1),
            max_retries: cfg.max_retries,
            retry_backoff: cfg.retry_backoff,
        });
        let runners = (0..cfg.runners.max(1))
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || runner_loop(&sh))
            })
            .collect();
        Self { shared, runners }
    }

    /// Submits a job. A result-cache hit completes the job immediately
    /// with zero recompute; a miss enqueues it for the runner pool.
    /// Returns `(job id, cache key, served from cache)`.
    pub fn submit(&self, tenant: &str, config: JobConfig) -> Result<(u64, u64, bool), String> {
        config.validate().map_err(|e| e.to_string())?;
        // Fail fast on an unresolvable package or unconstructible mesh so
        // the error surfaces at submission instead of panicking a runner.
        let pkg = config.package()?;
        config
            .mesh(pkg.nghost())
            .map_err(|e| format!("invalid mesh: {e}"))?;
        let key = config.cache_key();
        let hit = self.shared.cache.lookup(key);
        let mut st = self.shared.state.lock().unwrap();
        let id = st.jobs.len() as u64;
        let now = Instant::now();
        let plan = config.fault_plan();
        let mut job = Job {
            tenant: tenant.to_string(),
            config,
            state: JobState::Queued,
            cached: false,
            cycles_done: 0,
            cycles_executed: 0,
            preempt_requested: false,
            plan,
            recoveries: 0,
            snapshot: None,
            metrics: Vec::new(),
            result: None,
            trace_json: None,
            error: None,
            submitted: now,
            finished: None,
        };
        let cached = if let Some(c) = hit {
            job.state = JobState::Done;
            job.cached = true;
            job.cycles_done = c.cycles;
            job.result = Some(JobResult {
                fingerprint: c.fingerprint,
                time: c.time,
                dt: c.dt,
            });
            job.trace_json = Some(c.trace_json);
            // Re-serve the producer's rows under this job's id so the
            // JSONL stream stays job-scoped.
            job.metrics = c.metrics;
            job.metrics.iter_mut().for_each(|m| m.job = id);
            job.finished = Some(now);
            true
        } else {
            st.sched.enqueue(tenant, id);
            false
        };
        st.jobs.push(job);
        drop(st);
        if !cached {
            self.shared.work.notify_all();
        }
        Ok((id, key, cached))
    }

    /// Sets a tenant's scheduling weight.
    pub fn set_tenant_weight(&self, tenant: &str, weight: u64) {
        self.shared
            .state
            .lock()
            .unwrap()
            .sched
            .set_weight(tenant, weight);
    }

    /// Requests preemption: a queued job parks immediately; a running job
    /// checkpoints and parks at the end of its current budget slice.
    pub fn preempt(&self, id: u64) -> Result<(), String> {
        let mut st = self.shared.state.lock().unwrap();
        let job = st
            .jobs
            .get(id as usize)
            .ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Queued => {
                st.sched.remove(id);
                st.jobs[id as usize].state = JobState::Preempted;
                Ok(())
            }
            JobState::Running => {
                st.jobs[id as usize].preempt_requested = true;
                Ok(())
            }
            s => Err(format!("cannot preempt a {} job", s.name())),
        }
    }

    /// Resumes a parked job, optionally on a different `(nranks,
    /// threads)` execution geometry — the solution is bitwise independent
    /// of that choice.
    pub fn resume(&self, id: u64, geometry: Option<(usize, usize)>) -> Result<(), String> {
        let mut st = self.shared.state.lock().unwrap();
        let job = st
            .jobs
            .get_mut(id as usize)
            .ok_or_else(|| format!("no job {id}"))?;
        if job.state != JobState::Preempted {
            return Err(format!("cannot resume a {} job", job.state.name()));
        }
        if let Some((nranks, threads)) = geometry {
            job.config.nranks = nranks;
            job.config.threads = threads;
            job.config.validate().map_err(|e| e.to_string())?;
        }
        job.state = JobState::Queued;
        let tenant = job.tenant.clone();
        st.sched.enqueue(&tenant, id);
        drop(st);
        self.shared.work.notify_all();
        Ok(())
    }

    /// A read-only copy of the job's public state.
    pub fn job(&self, id: u64) -> Option<JobView> {
        let st = self.shared.state.lock().unwrap();
        st.jobs.get(id as usize).map(|j| view(id, j))
    }

    /// The job's per-cycle metrics as JSON Lines.
    pub fn metrics_jsonl(&self, id: u64) -> Option<String> {
        let st = self.shared.state.lock().unwrap();
        st.jobs
            .get(id as usize)
            .map(|j| job_metrics_jsonl(&j.metrics))
    }

    /// The job's Perfetto trace (available once `Done`).
    pub fn trace_json(&self, id: u64) -> Option<String> {
        let st = self.shared.state.lock().unwrap();
        st.jobs.get(id as usize).and_then(|j| j.trace_json.clone())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        let (cache_hits, cache_misses, cache_entries) = self.shared.cache.stats();
        let st = self.shared.state.lock().unwrap();
        let mut stats = ServiceStats {
            submitted: st.jobs.len() as u64,
            cache_hits,
            cache_misses,
            cache_entries,
            ..ServiceStats::default()
        };
        let mut tenants: std::collections::BTreeMap<String, (u64, f64, f64)> = Default::default();
        for j in &st.jobs {
            match j.state {
                JobState::Done => stats.done += 1,
                JobState::Failed => stats.failed += 1,
                JobState::Degraded => stats.degraded += 1,
                _ => stats.active += 1,
            }
            stats.recoveries += u64::from(j.recoveries);
            // Every recovery was a detected failure; a degraded job had
            // one more — the failure that exhausted its budget.
            stats.failures_detected +=
                u64::from(j.recoveries) + u64::from(j.state == JobState::Degraded);
            if let Some(fin) = j.finished {
                let t = fin.duration_since(j.submitted).as_secs_f64();
                let e = tenants
                    .entry(j.tenant.clone())
                    .or_insert((0, 0.0, f64::INFINITY));
                e.0 += 1;
                e.1 = e.1.max(t);
                e.2 = e.2.min(t);
            }
        }
        stats.tenants = tenants
            .into_iter()
            .map(|(name, (n, max, min))| (name, n, max, min))
            .collect();
        stats
    }

    /// Blocks until `pred` holds for the job (checked on every state
    /// change) or the timeout expires.
    pub fn wait_for<F: Fn(&JobView) -> bool>(
        &self,
        id: u64,
        timeout: Duration,
        pred: F,
    ) -> Result<JobView, String> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            match st.jobs.get(id as usize) {
                None => return Err(format!("no job {id}")),
                Some(j) => {
                    let v = view(id, j);
                    if pred(&v) {
                        return Ok(v);
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("timed out waiting on job {id}"));
            }
            let (guard, _) = self
                .shared
                .work
                .wait_timeout(st, deadline - now)
                .map_err(|_| "service state poisoned".to_string())?;
            st = guard;
        }
    }

    /// Convenience: waits for `Done`, failing fast on `Failed` or
    /// `Degraded`.
    pub fn wait_done(&self, id: u64, timeout: Duration) -> Result<JobView, String> {
        let v = self.wait_for(id, timeout, |v| {
            matches!(
                v.state,
                JobState::Done | JobState::Failed | JobState::Degraded
            )
        })?;
        if v.state != JobState::Done {
            return Err(v.error.unwrap_or_else(|| "job failed".into()));
        }
        Ok(v)
    }

    /// Stops the runner pool: in-flight slices finish (checkpointing and
    /// re-enqueueing their jobs), then every runner thread is joined.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
    }
}

fn view(id: u64, j: &Job) -> JobView {
    JobView {
        id,
        tenant: j.tenant.clone(),
        config: j.config.clone(),
        state: j.state,
        cached: j.cached,
        cycles_done: j.cycles_done,
        cycles_executed: j.cycles_executed,
        recoveries: j.recoveries,
        result: j.result,
        error: j.error.clone(),
        turnaround: j.finished.map(|f| f.duration_since(j.submitted)),
    }
}

// ---------------------------------------------------------------------------
// Runner pool
// ---------------------------------------------------------------------------

fn runner_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = st.sched.dispatch() {
                    break id;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        run_slice(shared, id);
        shared.work.notify_all();
    }
}

/// Advances one budget slice of `id`: spin a session up from the job's
/// checkpoint (or the initial condition), run at most `budget_cycles`,
/// then finish / park / re-enqueue.
fn run_slice(shared: &Arc<Shared>, id: u64) {
    let (config, snapshot, cycles_done, plan) = {
        let mut st = shared.state.lock().unwrap();
        let job = &mut st.jobs[id as usize];
        job.state = JobState::Running;
        (
            job.config.clone(),
            job.snapshot.clone(),
            job.cycles_done,
            job.plan.clone(),
        )
    };
    let remaining = config.cycles.saturating_sub(cycles_done);
    let slice = remaining.min(shared.budget_cycles);
    let outcome = execute_slice(
        &config,
        snapshot,
        slice,
        remaining == slice,
        id,
        plan,
        cycles_done,
    );

    let mut st = shared.state.lock().unwrap();
    let job = &mut st.jobs[id as usize];
    match outcome {
        Err(e) => {
            if job.recoveries < shared.max_retries {
                // Recover: the job's snapshot still holds the last slice
                // boundary (nothing advanced on the failed slice), so
                // re-enqueueing replays it — bitwise — after a backoff
                // proportional to how often this job has crashed.
                job.recoveries += 1;
                job.error = Some(e);
                job.state = JobState::Queued;
                let tenant = job.tenant.clone();
                let pause = shared.retry_backoff * job.recoveries;
                drop(st);
                std::thread::sleep(pause);
                let mut st = shared.state.lock().unwrap();
                st.sched.enqueue(&tenant, id);
                return;
            }
            job.state = JobState::Degraded;
            job.error = Some(e);
            job.finished = Some(Instant::now());
        }
        Ok(SliceOutcome {
            metrics,
            completion,
        }) => {
            job.cycles_done += slice;
            job.cycles_executed += slice;
            // A successful slice clears the note left by a recovered
            // failure; the recovery count keeps the evidence.
            job.error = None;
            job.metrics.extend(metrics);
            match completion {
                Completion::Finished(run) => {
                    job.state = JobState::Done;
                    job.finished = Some(Instant::now());
                    job.result = Some(JobResult {
                        fingerprint: run.fingerprint,
                        time: run.time,
                        dt: run.dt,
                    });
                    let trace = run.perfetto_trace_json();
                    job.trace_json = Some(trace.clone());
                    let cached = CachedResult {
                        fingerprint: run.fingerprint,
                        time: run.time,
                        dt: run.dt,
                        cycles: job.cycles_done,
                        metrics: job.metrics.clone(),
                        trace_json: trace,
                    };
                    let key = job.config.cache_key();
                    shared.cache.insert(key, cached);
                }
                Completion::Checkpointed(snap) => {
                    job.snapshot = Some(Arc::new(snap));
                    if job.preempt_requested {
                        job.preempt_requested = false;
                        job.state = JobState::Preempted;
                    } else {
                        job.state = JobState::Queued;
                        let tenant = job.tenant.clone();
                        st.sched.enqueue(&tenant, id);
                    }
                }
            }
        }
    }
}

enum Completion {
    Finished(Box<RtRun>),
    Checkpointed(Snapshot),
}

struct SliceOutcome {
    metrics: Vec<JobCycleMetric>,
    completion: Completion,
}

fn execute_slice(
    config: &JobConfig,
    snapshot: Option<Arc<Snapshot>>,
    slice: u64,
    is_last: bool,
    id: u64,
    plan: Option<Arc<FaultPlan>>,
    start_cycle: u64,
) -> Result<SliceOutcome, String> {
    let cfg = config.clone();
    let opts = SessionOptions {
        fault_plan: plan,
        // The plan's kill cycle is absolute; the session must know where
        // this slice starts so the boundary check lines up across
        // checkpoints and retries.
        start_cycle,
        ..SessionOptions::default()
    };
    let mut session = RtSession::with_options(config.nranks, opts, move || {
        cfg.replica(cfg.driver_params(), snapshot.as_deref())
    });
    let t0 = Instant::now();
    let summaries = session.run(slice).map_err(|e| e.to_string())?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let per_cycle_ns = wall_ns / slice.max(1);
    let metrics = summaries
        .iter()
        .map(|s| JobCycleMetric {
            job: id,
            cycle: s.cycle,
            time: s.time,
            dt: s.dt,
            nblocks: s.nblocks,
            refined: s.refined,
            derefined: s.derefined,
            wall_ns: per_cycle_ns,
        })
        .collect();
    let completion = if is_last {
        Completion::Finished(Box::new(session.finish().map_err(|e| e.to_string())?))
    } else {
        let snap = session.checkpoint().map_err(|e| e.to_string())?;
        // Dropping the session joins every rank thread (the preempt
        // teardown path) before the slice result is published.
        drop(session);
        Completion::Checkpointed(snap)
    };
    Ok(SliceOutcome {
        metrics,
        completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, parse_lines, Json};
    use vibe_core::DriverParams;

    fn small_cfg(cycles: u64, nranks: usize, threads: usize) -> JobConfig {
        JobConfig {
            cycles,
            nranks,
            threads,
            ..JobConfig::default()
        }
    }

    /// Reference fingerprint from an uninterrupted direct run.
    fn direct_fingerprint(cfg: &JobConfig) -> (u64, f64, f64) {
        let c = cfg.clone();
        // With the event archive on, which served slices leave off: the
        // fingerprints below pin that the archive never touches the answer.
        let params = DriverParams {
            capture_comm_events: true,
            ..c.driver_params()
        };
        let run = vibe_rt::run_distributed(cfg.nranks, cfg.cycles, move || c.replica(params, None));
        (run.fingerprint, run.time, run.dt)
    }

    #[test]
    fn job_completes_and_matches_direct_run() {
        let svc = Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 3,
            tenant_weights: Vec::new(),
            ..ServiceConfig::default()
        });
        let cfg = small_cfg(7, 1, 1);
        let (fp, time, dt) = direct_fingerprint(&cfg);
        let (id, _, cached) = svc.submit("acme", cfg).unwrap();
        assert!(!cached);
        let v = svc.wait_done(id, Duration::from_secs(120)).unwrap();
        // 7 cycles at budget 3 ran as slices 3+3+1 through checkpoints;
        // the result is bitwise the uninterrupted run's.
        let r = v.result.unwrap();
        assert_eq!(r.fingerprint, fp);
        assert_eq!(r.time.to_bits(), time.to_bits());
        assert_eq!(r.dt.to_bits(), dt.to_bits());
        assert_eq!(v.cycles_executed, 7);
        let jsonl = svc.metrics_jsonl(id).unwrap();
        assert_eq!(parse_lines(&jsonl).unwrap().len(), 7);
        parse(&svc.trace_json(id).unwrap()).unwrap();
        svc.shutdown();
    }

    #[test]
    fn served_slices_archive_no_comm_events() {
        let cfg = small_cfg(4, 2, 1);
        let (fp, _, _) = direct_fingerprint(&cfg);
        let slice = execute_slice(&cfg, None, cfg.cycles, true, 0, None, 0).unwrap();
        let Completion::Finished(run) = slice.completion else {
            panic!("the last slice finishes the session");
        };
        // No rank archived a message event, so there was no merged log to
        // sort and order-validate — and the answer is the one computed
        // with the archive on.
        assert!(run.events.is_empty());
        assert_eq!(run.dependency_edges, 0);
        assert_eq!(run.fingerprint, fp);
    }

    #[test]
    fn duplicate_submission_is_served_from_cache() {
        let svc = Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 8,
            tenant_weights: Vec::new(),
            ..ServiceConfig::default()
        });
        let cfg = small_cfg(5, 1, 1);
        let (a, key_a, cached_a) = svc.submit("acme", cfg.clone()).unwrap();
        assert!(!cached_a);
        let va = svc.wait_done(a, Duration::from_secs(120)).unwrap();
        // Same problem, different geometry and tenant: cache hit.
        let dup = small_cfg(5, 2, 1);
        let (b, key_b, cached_b) = svc.submit("globex", dup).unwrap();
        assert_eq!(key_a, key_b);
        assert!(cached_b);
        let vb = svc.wait_done(b, Duration::from_secs(5)).unwrap();
        assert_eq!(vb.cycles_executed, 0, "cache hit must not recompute");
        assert_eq!(
            vb.result.unwrap().fingerprint,
            va.result.unwrap().fingerprint
        );
        // The hit's metrics are the producer's stream row for row, except
        // that every row carries job b's id.
        let rows = |id| parse_lines(&svc.metrics_jsonl(id).unwrap()).unwrap();
        let rebadged: Vec<Json> = rows(a)
            .into_iter()
            .map(|row| {
                let Json::Obj(mut row) = row else {
                    panic!("metrics rows are objects");
                };
                assert_eq!(row.len(), 8, "job + the seven solver columns");
                let was = row.insert("job".to_string(), Json::Num(b as f64));
                assert_eq!(was, Some(Json::Num(a as f64)));
                Json::Obj(row)
            })
            .collect();
        assert_eq!(rebadged.len(), 5);
        assert_eq!(rows(b), rebadged);
        let (hits, _, entries) = svc.shared.cache.stats();
        assert_eq!((hits, entries), (1, 1));
        svc.shutdown();
    }

    #[test]
    fn preempt_park_resume_on_new_geometry_is_bitwise() {
        let svc = Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 2,
            tenant_weights: Vec::new(),
            ..ServiceConfig::default()
        });
        let cfg = small_cfg(6, 2, 1);
        let (fp, _, _) = direct_fingerprint(&cfg);
        let (id, _, _) = svc.submit("acme", cfg).unwrap();
        // Preempt as soon as it starts running (or while queued).
        svc.preempt(id).unwrap();
        let parked = svc
            .wait_for(id, Duration::from_secs(120), |v| {
                v.state == JobState::Preempted
            })
            .unwrap();
        assert!(parked.cycles_done < 6);
        // Resume on a different shard/thread decomposition.
        svc.resume(id, Some((3, 2))).unwrap();
        let v = svc.wait_done(id, Duration::from_secs(120)).unwrap();
        assert_eq!(v.result.unwrap().fingerprint, fp);
        assert_eq!(v.config.nranks, 3);
        assert_eq!(v.cycles_done, 6);
        svc.shutdown();
    }

    #[test]
    fn unregistered_physics_is_rejected_with_the_roster() {
        let svc = Service::start(ServiceConfig::default());
        let bad = JobConfig {
            physics: "mhd".into(),
            ..JobConfig::default()
        };
        let err = svc.submit("acme", bad).unwrap_err();
        assert!(err.contains("mhd"), "{err}");
        for name in vibe_physics::standard_registry().names() {
            assert!(err.contains(&name), "roster missing {name}: {err}");
        }
        svc.shutdown();
    }

    #[test]
    fn every_registered_package_completes_a_job() {
        let svc = Service::start(ServiceConfig {
            runners: 2,
            budget_cycles: 4,
            tenant_weights: Vec::new(),
            ..ServiceConfig::default()
        });
        let mut ids = Vec::new();
        for physics in vibe_physics::standard_registry().names() {
            let cfg = JobConfig {
                physics,
                dim: 3,
                mesh_cells: 16,
                block_cells: 8,
                cycles: 3,
                ..JobConfig::default()
            };
            ids.push(svc.submit("acme", cfg).unwrap().0);
        }
        for id in ids {
            let v = svc.wait_done(id, Duration::from_secs(300)).unwrap();
            assert!(v.result.unwrap().fingerprint != 0);
        }
        svc.shutdown();
    }

    #[test]
    fn invalid_submission_is_rejected_up_front() {
        let svc = Service::start(ServiceConfig::default());
        let bad = JobConfig {
            cycles: 0,
            ..JobConfig::default()
        };
        assert!(svc.submit("acme", bad).is_err());
        // Valid bounds but unconstructible mesh (block > mesh) is caught
        // by the mesh pre-check, not a runner panic.
        let unbuildable = JobConfig {
            mesh_cells: 8,
            block_cells: 8,
            levels: 6,
            ..JobConfig::default()
        };
        if let Ok((id, _, _)) = svc.submit("acme", unbuildable) {
            let v = svc.wait_done(id, Duration::from_secs(60));
            // Either rejected or executed; it must not wedge the pool.
            let _ = v;
        }
        svc.shutdown();
    }

    #[test]
    fn killed_rank_recovers_to_the_clean_fingerprint() {
        let svc = Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 2,
            retry_backoff: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        let clean = small_cfg(6, 2, 1);
        let (fp, time, dt) = direct_fingerprint(&clean);
        // Same problem, but rank 1 is killed entering cycle 3 (inside the
        // second budget slice) and message chaos runs throughout.
        let chaotic = JobConfig {
            fault_seed: 0xFEED,
            kill_rank: Some(1),
            kill_cycle: 3,
            ..clean
        };
        let (id, _, cached) = svc.submit("acme", chaotic).unwrap();
        assert!(!cached, "the chaos job must execute, not hit the cache");
        let v = svc.wait_done(id, Duration::from_secs(120)).unwrap();
        assert_eq!(v.state, JobState::Done);
        assert_eq!(v.recoveries, 1, "exactly one kill, one recovery");
        let r = v.result.unwrap();
        assert_eq!(r.fingerprint, fp, "recovered result must be bitwise");
        assert_eq!(r.time.to_bits(), time.to_bits());
        assert_eq!(r.dt.to_bits(), dt.to_bits());
        assert!(v.error.is_none(), "a recovered job carries no error");
        let s = svc.stats();
        assert_eq!((s.failures_detected, s.recoveries, s.degraded), (1, 1, 0));
        svc.shutdown();
    }

    #[test]
    fn exhausted_retry_budget_degrades_the_job() {
        let svc = Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 2,
            max_retries: 0,
            ..ServiceConfig::default()
        });
        let cfg = JobConfig {
            kill_rank: Some(0),
            kill_cycle: 1,
            ..small_cfg(4, 2, 1)
        };
        let (id, _, _) = svc.submit("acme", cfg).unwrap();
        let err = svc.wait_done(id, Duration::from_secs(120)).unwrap_err();
        assert!(err.contains("injected"), "{err}");
        let v = svc.job(id).unwrap();
        assert_eq!(v.state, JobState::Degraded);
        assert_eq!(v.recoveries, 0);
        let s = svc.stats();
        assert_eq!((s.degraded, s.failures_detected), (1, 1));
        svc.shutdown();
    }

    #[test]
    fn shutdown_leaves_no_runner_threads() {
        // The kernel-launch pool is a process-lifetime singleton whose
        // workers never exit; pre-warm it at the widest thread count any
        // test in this binary uses so the baseline includes them.
        vibe_core::exec::pool::global().run(4, 2, &|_| {});
        let before = count_own_threads();
        let svc = Service::start(ServiceConfig {
            runners: 2,
            budget_cycles: 2,
            tenant_weights: Vec::new(),
            ..ServiceConfig::default()
        });
        let (id, _, _) = svc.submit("acme", small_cfg(4, 1, 1)).unwrap();
        svc.wait_done(id, Duration::from_secs(120)).unwrap();
        svc.shutdown();
        // Generous deadline: sibling tests in this binary spawn their own
        // transient rank/runner threads concurrently.
        for _ in 0..3000 {
            if count_own_threads() <= before {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("runner threads leaked: {} > {before}", count_own_threads());
    }

    fn count_own_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
    }
}
