//! The multi-tenant simulation service: job lifecycle, runner pool,
//! budget-sliced execution with checkpoint/preempt/resume, and the
//! result cache.
//!
//! Execution model: a bounded pool of runner threads pulls jobs off the
//! weighted round-robin [`Scheduler`] one *budget slice* at a time. A job
//! keeps its live [`RtSession`] between slices: a slice advances the
//! job's session at most `budget_cycles`, then either finishes the job, or
//! checkpoints it and re-enqueues it (time slicing), or checkpoints it and
//! parks it (explicit preempt). The slice-boundary checkpoint is only the
//! job's recovery point; a session is built from it (or from the initial
//! condition) for a job's first slice, after a rank failure, after a
//! preempt, and after a slice that ended with more than `runners` other
//! jobs queued — the session is released then, so a burst of submissions
//! never holds a session per job. Because the runtime is bitwise
//! reproducible, a resumed slice may use a *different* `(nranks, threads)`
//! geometry and the final solution fingerprint is unchanged — which also
//! makes the config-keyed result cache exact.
//!
//! What a job holds: a queued job its recovery point (from its first slice
//! boundary on) and, while the queue is short, its parked session; a
//! preempted job its recovery point only; a finished, failed or degraded
//! job neither.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use vibe_core::{DynPackage, Package, Snapshot};
use vibe_ft::FaultPlan;
use vibe_prof::{job_metrics_jsonl, JobCycleMetric};
use vibe_rt::{RtRun, RtSession, SessionOptions};

use crate::cache::{CachedResult, ResultCache};
use crate::config::JobConfig;
use crate::scheduler::Scheduler;

/// Lifecycle state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the scheduler, with its recovery point once it has run a
    /// slice, and its live session parked while the queue is short.
    Queued,
    /// A runner is advancing a slice right now.
    Running,
    /// Parked by an explicit preempt: holds its last slice-boundary
    /// checkpoint and no session, and waits for resume (which builds a
    /// session from that checkpoint, on any geometry).
    Preempted,
    /// Finished (from execution or a cache hit).
    Done,
    /// Aborted with an error.
    Failed,
    /// Rank failures exhausted the retry budget; the job stopped after its
    /// last completed slice instead of completing.
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
    /// The recovery point: the checkpoint of the last slice boundary.
    /// Each one replaces the previous; a terminal job holds none.
    snapshot: Option<Arc<Snapshot>>,
    /// The job's live session, parked between two slices.
    session: Option<Session>,
    metrics: Vec<JobCycleMetric>,
    result: Option<JobResult>,
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

/// A served job's distributed run.
type Session = RtSession<DynPackage>;

struct State {
    jobs: Vec<Job>,
    sched: Scheduler,
}

impl State {
    /// Preempts job `id` (see [`Service::preempt`]). Returns the session a
    /// queued job had parked, for the caller to drop once the lock is
    /// released: dropping a session joins its rank threads.
    fn preempt(&mut self, id: u64) -> Result<Option<Session>, String> {
        let job = self
            .jobs
            .get_mut(id as usize)
            .ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Preempted;
                let parked = job.session.take();
                self.sched.remove(id);
                Ok(parked)
            }
            JobState::Running => {
                job.preempt_requested = true;
                Ok(None)
            }
            s => Err(format!("cannot preempt a {} job", s.name())),
        }
    }
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    cache: ResultCache,
    shutdown: AtomicBool,
    runners: usize,
    budget_cycles: u64,
}

/// Rank failures tolerated per job before it is marked `Degraded`.
const MAX_RETRIES: u32 = 2;

/// Pause before re-enqueueing a failed job, scaled by its retry count, so a
/// crash-looping job cannot monopolize the pool.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

impl Shared {
    /// The job table and scheduler. A panic while the lock was held
    /// poisons it; the guard is recovered instead of passing that panic on
    /// to every later call and to the runner pool, which is sound because
    /// every update under the lock is a sequence of field stores and
    /// queue operations, each leaving the table valid.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Runner threads in the pool (min 1).
    pub runners: usize,
    /// Cycles per scheduling slice (min 1): the preemption granularity and
    /// the recovery checkpoint cadence, since every slice boundary
    /// checkpoints. The job's session outlives the boundary unless the
    /// queue is longer than `runners`, so a boundary costs a checkpoint
    /// copy, not a rebuild.
    pub budget_cycles: u64,
    /// Initial tenant weights; unknown tenants default to weight 1.
    pub tenant_weights: Vec<(String, u64)>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            runners: 2,
            budget_cycles: 4,
            tenant_weights: Vec::new(),
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
            runners: cfg.runners.max(1),
            budget_cycles: cfg.budget_cycles.max(1),
        });
        let runners = (0..shared.runners)
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
        let mut st = self.shared.lock();
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
            session: None,
            metrics: Vec::new(),
            result: None,
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
        self.shared.lock().sched.set_weight(tenant, weight);
    }

    /// Requests preemption: a queued job parks immediately, releasing its
    /// parked session (whose rank threads are joined before this returns);
    /// a running job checkpoints and parks at the end of its current
    /// budget slice.
    pub fn preempt(&self, id: u64) -> Result<(), String> {
        let parked = self.shared.lock().preempt(id)?;
        drop(parked);
        Ok(())
    }

    /// Resumes a parked job, optionally on a different `(nranks,
    /// threads)` execution geometry — the solution is bitwise independent
    /// of that choice.
    pub fn resume(&self, id: u64, geometry: Option<(usize, usize)>) -> Result<(), String> {
        let mut st = self.shared.lock();
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
        let st = self.shared.lock();
        st.jobs.get(id as usize).map(|j| view(id, j))
    }

    /// The job's per-cycle metrics as JSON Lines.
    pub fn metrics_jsonl(&self, id: u64) -> Option<String> {
        let st = self.shared.lock();
        st.jobs
            .get(id as usize)
            .map(|j| job_metrics_jsonl(&j.metrics))
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        let (cache_hits, cache_misses, cache_entries) = self.shared.cache.stats();
        let st = self.shared.lock();
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
        let mut st = self.shared.lock();
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
                .unwrap_or_else(PoisonError::into_inner);
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
    /// re-enqueueing their jobs), then every runner thread is joined, and
    /// with the job table every parked session's rank threads — what
    /// dropping the service does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Raised under the state lock: a runner checks the flag and starts
        // waiting under that lock, so it either sees the flag or is already
        // waiting when the notification comes (raised outside it, the
        // notification could fall between the check and the wait).
        {
            let _st = self.shared.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work.notify_all();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
        // The runners held the only other handles on the shared state, so
        // dropping `self.shared` next drops the job table, and each parked
        // session in it joins its rank threads.
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
            let mut st = shared.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = st.sched.dispatch() {
                    break id;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_slice(shared, id);
        shared.work.notify_all();
    }
}

/// Advances one budget slice of `id` on the job's parked session, or on
/// one built from its recovery point (or the initial condition), then
/// finishes, parks or re-enqueues the job.
///
/// A re-enqueued job keeps its session only while at most `runners` other
/// jobs are queued; otherwise the session is dropped and the job's next
/// slice resumes from the checkpoint just taken. Parked sessions belong to
/// queued jobs and every park happens with at most `runners + 1` jobs
/// queued, so no more than `runners + 1` are ever parked.
fn run_slice(shared: &Arc<Shared>, id: u64) {
    let (config, cycles_done, parked, snapshot, plan) = {
        let mut st = shared.lock();
        let job = &mut st.jobs[id as usize];
        job.state = JobState::Running;
        (
            job.config.clone(),
            job.cycles_done,
            job.session.take(),
            job.snapshot.clone(),
            job.plan.clone(),
        )
    };
    let session = parked.unwrap_or_else(|| start_session(&config, snapshot, plan, cycles_done));
    let remaining = config.cycles.saturating_sub(cycles_done);
    let slice = remaining.min(shared.budget_cycles);
    let outcome = execute_slice(session, slice, remaining == slice, id);

    let mut st = shared.lock();
    let park = st.sched.queued() <= shared.runners;
    let job = &mut st.jobs[id as usize];
    // Dropped once the lock is released: dropping a session joins its
    // rank threads.
    let mut released = None;
    match outcome {
        Err(e) => {
            if job.recoveries < MAX_RETRIES {
                // Recover: the job's snapshot still holds the last slice
                // boundary (nothing advanced on the failed slice), so
                // re-enqueueing replays it — bitwise — after a backoff
                // proportional to how often this job has crashed.
                job.recoveries += 1;
                job.error = Some(e);
                job.state = JobState::Queued;
                let tenant = job.tenant.clone();
                let pause = RETRY_BACKOFF * job.recoveries;
                drop(st);
                std::thread::sleep(pause);
                shared.lock().sched.enqueue(&tenant, id);
                return;
            }
            job.state = JobState::Degraded;
            job.error = Some(e);
            job.finished = Some(Instant::now());
            job.snapshot = None;
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
                    job.snapshot = None;
                    job.result = Some(JobResult {
                        fingerprint: run.fingerprint,
                        time: run.time,
                        dt: run.dt,
                    });
                    let cached = CachedResult {
                        fingerprint: run.fingerprint,
                        time: run.time,
                        dt: run.dt,
                        cycles: job.cycles_done,
                        metrics: job.metrics.clone(),
                    };
                    let key = job.config.cache_key();
                    shared.cache.insert(key, cached);
                }
                Completion::Checkpointed { session, snapshot } => {
                    job.snapshot = Some(snapshot);
                    if job.preempt_requested {
                        job.preempt_requested = false;
                        job.state = JobState::Preempted;
                        released = Some(session);
                    } else {
                        job.state = JobState::Queued;
                        if park {
                            job.session = Some(session);
                        } else {
                            released = Some(session);
                        }
                        let tenant = job.tenant.clone();
                        st.sched.enqueue(&tenant, id);
                    }
                }
            }
        }
    }
    drop(st);
    drop(released);
}

enum Completion {
    Finished(Box<RtRun>),
    /// The slice ended at a boundary: the still-live session and the
    /// recovery point it just took.
    Checkpointed {
        session: Session,
        snapshot: Arc<Snapshot>,
    },
}

struct SliceOutcome {
    metrics: Vec<JobCycleMetric>,
    completion: Completion,
}

/// Builds a job's session, from its recovery point or, before its first
/// slice boundary, from the initial condition: the only place the service
/// builds one.
fn start_session(
    config: &JobConfig,
    snapshot: Option<Arc<Snapshot>>,
    plan: Option<Arc<FaultPlan>>,
    start_cycle: u64,
) -> Session {
    let cfg = config.clone();
    let opts = SessionOptions {
        fault_plan: plan,
        // The plan's kill cycle is absolute; the session must know where
        // it starts so the boundary check lines up across checkpoints and
        // retries.
        start_cycle,
    };
    RtSession::with_options(config.nranks, opts, move || {
        cfg.replica(cfg.driver_params(), snapshot.as_deref())
    })
}

/// Runs `slice` cycles on `session`, then finishes it (`is_last`) or takes
/// the boundary checkpoint and hands the session back. A failed slice
/// drops the session, which joins its rank threads.
fn execute_slice(
    mut session: Session,
    slice: u64,
    is_last: bool,
    id: u64,
) -> Result<SliceOutcome, String> {
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
        let snapshot = Arc::new(session.checkpoint().map_err(|e| e.to_string())?);
        Completion::Checkpointed { session, snapshot }
    };
    Ok(SliceOutcome {
        metrics,
        completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_lines, Json};
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
        // A finished job keeps its answer and nothing it ran on.
        {
            let st = svc.shared.lock();
            let job = &st.jobs[id as usize];
            assert!(job.snapshot.is_none(), "a done job holds no snapshot");
            assert!(job.session.is_none(), "a done job holds no session");
        }
        svc.shutdown();
    }

    /// Two slices on one session — the `serve-mix` Burgers job, 4 + 4
    /// cycles — end on the uninterrupted run's answer, and the boundary
    /// checkpoint is a plain driver's snapshot at cycle 4.
    #[test]
    fn one_session_serves_both_slices_of_a_job() {
        let cfg = JobConfig {
            physics: "burgers".into(),
            dim: 3,
            mesh_cells: 16,
            block_cells: 8,
            levels: 2,
            cycles: 8,
            num_scalars: 2,
            refine_tol: 0.1,
            ..JobConfig::default()
        };
        let (fp, time, dt) = direct_fingerprint(&cfg);
        // The benchmark's golden for this job shape.
        assert_eq!(fp, 0xd6a4_0b12_c361_25bc);

        let first = execute_slice(start_session(&cfg, None, None, 0), 4, false, 0).unwrap();
        let Completion::Checkpointed { session, snapshot } = first.completion else {
            panic!("a slice short of the end checkpoints");
        };
        let mut plain = cfg.replica(cfg.driver_params(), None);
        plain.run_cycles(4);
        assert!(*snapshot == plain.to_snapshot());

        let last = execute_slice(session, 4, true, 0).unwrap();
        let Completion::Finished(run) = last.completion else {
            panic!("the last slice finishes the session");
        };
        assert_eq!(run.fingerprint, fp);
        assert_eq!(run.time.to_bits(), time.to_bits());
        assert_eq!(run.dt.to_bits(), dt.to_bits());
        let cycles: Vec<u64> = first
            .metrics
            .iter()
            .chain(&last.metrics)
            .map(|m| m.cycle)
            .collect();
        assert_eq!(cycles, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn served_slices_archive_no_comm_events() {
        let cfg = small_cfg(4, 2, 1);
        let (fp, _, _) = direct_fingerprint(&cfg);
        let session = start_session(&cfg, None, None, 0);
        let slice = execute_slice(session, cfg.cycles, true, 0).unwrap();
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

        // A queued job that holds a parked session: the one runner
        // alternates between it and another tenant's job, so between its
        // slices it waits in the queue with its session parked. Its fault
        // plan (message chaos only, which never changes the answer) is
        // held by each of that session's rank threads until it exits.
        let clean = small_cfg(8, 2, 1);
        let (fp, _, _) = direct_fingerprint(&clean);
        let chaotic = JobConfig {
            fault_seed: 0xC0DE,
            ..clean
        };
        let (id, _, _) = svc.submit("acme", chaotic).unwrap();
        // The other job's slices are the windows in which this one sits
        // parked in the queue: a larger mesh keeps each window well above
        // the 1 ms polling interval below, even on a loaded machine.
        let other = JobConfig {
            mesh_cells: 64,
            ..small_cfg(24, 1, 1)
        };
        svc.submit("globex", other).unwrap();
        let (parked, plan) = loop {
            let mut st = svc.shared.lock();
            let job = &st.jobs[id as usize];
            if job.state == JobState::Queued && job.session.is_some() {
                let plan = job.plan.clone().expect("a chaos job has a plan");
                break (st.preempt(id).unwrap(), plan);
            }
            assert_ne!(job.state, JobState::Done, "never saw the session parked");
            drop(st);
            std::thread::sleep(Duration::from_millis(1));
        };
        let v = svc.job(id).unwrap();
        assert_eq!(v.state, JobState::Preempted);
        assert!(v.cycles_done > 0 && v.cycles_done < 8);
        {
            let st = svc.shared.lock();
            let job = &st.jobs[id as usize];
            assert!(job.session.is_none(), "a preempted job holds no session");
            assert!(
                job.snapshot.is_some(),
                "a preempted job holds its checkpoint"
            );
        }
        // Held by this test, the job and the session and its two ranks.
        assert!(Arc::strong_count(&plan) > 2);
        drop(parked.expect("the queued job had parked its session"));
        assert_eq!(
            Arc::strong_count(&plan),
            2,
            "a rank thread of the preempted job's session is still alive"
        );
        svc.resume(id, Some((3, 2))).unwrap();
        let v = svc.wait_done(id, Duration::from_secs(120)).unwrap();
        assert_eq!(v.result.unwrap().fingerprint, fp);
        assert_eq!(v.cycles_done, 8);
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
        for name in vibe_physics::PACKAGES {
            assert!(err.contains(name), "roster missing {name}: {err}");
        }
        svc.shutdown();
    }

    #[test]
    fn every_registered_package_completes_a_job() {
        let svc = Service::start(ServiceConfig {
            runners: 2,
            budget_cycles: 4,
            tenant_weights: Vec::new(),
        });
        let mut ids = Vec::new();
        for physics in vibe_physics::PACKAGES {
            let cfg = JobConfig {
                physics: physics.into(),
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
        // With one runner and one job the queue is empty at every slice
        // boundary, so the killed second slice ran on the session the
        // first one parked; the recovery rebuilt it from the checkpoint.
        assert_eq!(v.recoveries, 1, "exactly one kill, one recovery");
        assert_eq!(v.cycles_executed, 6, "the failed slice counts nothing");
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
            ..ServiceConfig::default()
        });
        // Killed in the second slice, after the first one checkpointed.
        let cfg = JobConfig {
            kill_rank: Some(0),
            kill_cycle: 3,
            ..small_cfg(4, 2, 1)
        };
        let (id, _, _) = svc.submit("acme", cfg).unwrap();
        // A kill fires once per job, so the job is charged every retry up
        // front: the runner reads the count only when a slice fails, and
        // the kill waits for the second slice.
        {
            let mut st = svc.shared.lock();
            let job = &mut st.jobs[id as usize];
            assert_eq!(job.recoveries, 0, "the kill fired before the charge");
            job.recoveries = MAX_RETRIES;
        }
        let err = svc.wait_done(id, Duration::from_secs(120)).unwrap_err();
        assert!(err.contains("injected"), "{err}");
        let v = svc.job(id).unwrap();
        assert_eq!(v.state, JobState::Degraded);
        assert_eq!(v.recoveries, MAX_RETRIES, "the kill found no retry left");
        assert_eq!(v.cycles_done, 2);
        {
            let st = svc.shared.lock();
            let job = &st.jobs[id as usize];
            assert!(job.snapshot.is_none(), "a degraded job holds no snapshot");
            assert!(job.session.is_none(), "a degraded job holds no session");
        }
        let s = svc.stats();
        assert_eq!(
            (s.degraded, s.failures_detected),
            (1, u64::from(MAX_RETRIES) + 1)
        );
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
        });
        let (id, _, _) = svc.submit("acme", small_cfg(4, 1, 1)).unwrap();
        svc.wait_done(id, Duration::from_secs(120)).unwrap();
        svc.shutdown();
        assert_threads_return_to(before);
    }

    /// Twelve three-slice jobs at once on two runners: while the queue is
    /// long every slice releases its session, so no more than `runners +
    /// 1` jobs ever hold one; every answer is the direct run's; and a
    /// shutdown with jobs still queued joins every thread it started.
    #[test]
    fn a_burst_parks_a_bounded_number_of_sessions() {
        vibe_core::exec::pool::global().run(4, 2, &|_| {});
        let before = count_own_threads();
        let runners = 2;
        let svc = Service::start(ServiceConfig {
            runners,
            budget_cycles: 2,
            ..ServiceConfig::default()
        });
        // Distinct tolerances, so no job is a cache hit of another.
        let burst = |base: f64| -> Vec<JobConfig> {
            (0..12)
                .map(|i| JobConfig {
                    refine_tol: base + 0.005 * i as f64,
                    ..small_cfg(6, 1, 1)
                })
                .collect()
        };
        let configs = burst(0.2);
        let ids: Vec<u64> = configs
            .iter()
            .map(|c| svc.submit("acme", c.clone()).unwrap().0)
            .collect();
        let mut most_parked = 0;
        loop {
            let st = svc.shared.lock();
            let parked = st.jobs.iter().filter(|j| j.session.is_some()).count();
            let finished = st.jobs.iter().all(|j| {
                matches!(
                    j.state,
                    JobState::Done | JobState::Failed | JobState::Degraded
                )
            });
            drop(st);
            most_parked = most_parked.max(parked);
            if finished {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            most_parked <= runners + 1,
            "{most_parked} jobs held a session at once"
        );
        for (id, cfg) in ids.into_iter().zip(&configs) {
            let v = svc.job(id).unwrap();
            assert_eq!(v.result.unwrap().fingerprint, direct_fingerprint(cfg).0);
        }

        // Shut down while a second burst is still queued.
        let second: Vec<u64> = burst(0.3)
            .into_iter()
            .map(|c| svc.submit("acme", c).unwrap().0)
            .collect();
        svc.wait_for(second[0], Duration::from_secs(120), |v| v.cycles_done > 0)
            .unwrap();
        assert!(svc.shared.lock().sched.queued() > 0, "the burst is queued");
        svc.shutdown();
        assert_threads_return_to(before);
    }

    /// A panic while the state lock is held poisons it; the service keeps
    /// serving instead of panicking in every later call.
    #[test]
    fn a_poisoned_state_lock_does_not_cascade() {
        let svc = Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 2,
            ..ServiceConfig::default()
        });
        let shared = Arc::clone(&svc.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.state.lock().unwrap();
            panic!("poisoning the service state on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(svc.shared.state.is_poisoned());

        let (id, _, cached) = svc.submit("acme", small_cfg(3, 1, 1)).unwrap();
        assert!(!cached);
        let v = svc.wait_done(id, Duration::from_secs(120)).unwrap();
        assert_eq!(svc.job(id).unwrap().cycles_executed, v.cycles_executed);
        assert_eq!(svc.stats().done, 1);
        svc.shutdown();
    }

    fn count_own_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
    }

    /// Waits for the process thread count to fall back to `before`.
    fn assert_threads_return_to(before: usize) {
        // Generous deadline: sibling tests in this binary spawn their own
        // transient rank/runner threads concurrently.
        for _ in 0..3000 {
            if count_own_threads() <= before {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("threads leaked: {} > {before}", count_own_threads());
    }
}
