//! A persistent host worker pool with dynamic (atomic-index) scheduling.
//!
//! Mirrors the Kokkos `OpenMP` host backend used by Parthenon: a fixed set
//! of OS threads is spawned once, parked on a condvar, and woken per
//! parallel region. Work items are claimed through an atomic counter in
//! runs of consecutive indices that shrink as the region drains (guided
//! self-scheduling): imbalanced per-block costs (deep AMR hierarchies mix
//! cheap coarse blocks with expensive fine ones) are still load-balanced
//! dynamically, one item at a time at the end, while a participant mostly
//! walks neighbouring items — consecutive mesh blocks are neighbours in
//! Morton order, so the block a worker just swept is in its cache when
//! the next one's ghost fill reads it.
//!
//! The dispatching thread always participates in the region and blocks
//! until every item has completed, which is what makes the scoped-borrow
//! API of [`crate::ExecCtx::for_each_block`] sound: borrows captured by
//! the body cannot dangle while any worker still runs it.
//!
//! Determinism: a region's result never depends on which thread ran which
//! item — items are independent and any cross-item reduction is the
//! caller's responsibility (see the fixed-order reductions in `vibe-core`).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use vibe_prof::{PoolRunSample, PoolWorkerSample};

/// Type-erased pointer to the region body. The pointee lives on the
/// dispatcher's stack; safety rests on the dispatcher not returning until
/// `Counters::pending` reaches zero.
#[derive(Clone, Copy)]
struct WorkPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is Sync (shared calls from many threads are fine) and
// the dispatch protocol guarantees it outlives every dereference.
unsafe impl Send for WorkPtr {}
unsafe impl Sync for WorkPtr {}

/// Per-region bookkeeping, shared by the dispatcher and every worker that
/// observes the region. Allocated fresh per dispatch so a worker waking up
/// late (after the region completed and a new one started) can only
/// operate on its own region's counters, never the new region's.
struct Counters {
    /// Next unclaimed item index; a successful compare-exchange hands out
    /// each run of indices exactly once.
    next: AtomicUsize,
    /// Items not yet finished executing. The dispatcher returns only once
    /// this reaches zero.
    pending: AtomicUsize,
    /// First panic payload caught in the region, re-thrown by the
    /// dispatcher.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    panicked: AtomicBool,
    /// Per-participant busy samples, present only when the dispatching
    /// thread has utilization sampling enabled (see [`stats_begin`]).
    stats: Option<Mutex<Vec<PoolWorkerSample>>>,
}

// --- Pool utilization sampling -------------------------------------------
//
// Sampling is scoped to the *dispatching* thread: a driver that wants
// utilization metrics calls `stats_begin()` before its parallel stages and
// `stats_end()` afterwards. Workers write their busy samples into the
// region's own `Counters`, so concurrent dispatchers (parallel tests
// sharing the global pool) never see each other's samples. When sampling is
// off the only cost is one thread-local read per region — never per item.

thread_local! {
    static TLS_POOL_STATS: RefCell<Option<Vec<PoolRunSample>>> = const { RefCell::new(None) };
    static TLS_DISPATCH_LABEL: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Labels every pool region dispatched from this thread until cleared with
/// `None`. The task executor sets the running task's name here so pool
/// utilization samples (and the Perfetto worker spans built from them)
/// attribute their busy time to the task that issued the dispatch.
pub fn set_dispatch_label(label: Option<&'static str>) {
    TLS_DISPATCH_LABEL.with(|l| l.set(label));
}

/// The current dispatch label on this thread, if any.
pub fn dispatch_label() -> Option<&'static str> {
    TLS_DISPATCH_LABEL.with(|l| l.get())
}

/// Starts (or restarts, discarding pending samples) utilization sampling
/// for regions dispatched from this thread.
pub fn stats_begin() {
    TLS_POOL_STATS.with(|s| *s.borrow_mut() = Some(Vec::new()));
}

/// Stops sampling on this thread and returns the collected samples.
pub fn stats_end() -> Vec<PoolRunSample> {
    TLS_POOL_STATS.with(|s| s.borrow_mut().take().unwrap_or_default())
}

fn stats_enabled() -> bool {
    TLS_POOL_STATS.with(|s| s.borrow().is_some())
}

fn stats_push(sample: PoolRunSample) {
    TLS_POOL_STATS.with(|s| {
        if let Some(v) = s.borrow_mut().as_mut() {
            v.push(sample);
        }
    });
}

/// Records an inline (no-pool) region executed on the calling thread, so
/// serial stages appear in utilization metrics alongside pooled ones.
pub(crate) fn stats_record_inline(n_items: usize, start: Instant) {
    if !stats_enabled() {
        return;
    }
    let busy_ns = start.elapsed().as_nanos() as u64;
    stats_push(PoolRunSample {
        n_items: n_items as u64,
        threads: 1,
        start,
        wall_ns: busy_ns,
        label: dispatch_label(),
        workers: vec![PoolWorkerSample {
            start,
            busy_ns,
            items: n_items as u64,
        }],
    });
}

/// True when the dispatching thread is sampling; callers that want to
/// instrument an inline loop cheaply can branch on this first.
pub(crate) fn stats_sampling() -> bool {
    stats_enabled()
}

#[derive(Clone)]
struct Job {
    n: usize,
    threads: usize,
    work: WorkPtr,
    counters: Arc<Counters>,
}

struct PoolState {
    /// Bumped on every dispatch; workers compare against their last seen
    /// value to detect fresh work.
    epoch: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a new epoch.
    work_cv: Condvar,
    /// The dispatcher parks here waiting for `pending == 0`.
    done_cv: Condvar,
}

/// A persistent pool of parked worker threads executing parallel-for
/// regions with dynamic index scheduling.
///
/// Use [`global`] for the process-wide pool (what
/// [`crate::ExecCtx`] uses); independent instances are
/// mainly for tests.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Number of worker threads spawned so far; grown on demand.
    spawned: Mutex<usize>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned lazily by [`run`].
    ///
    /// [`run`]: WorkerPool::run
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// Ensures at least `want` workers exist.
    fn ensure_workers(&self, want: usize) {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < want {
            let shared = Arc::clone(&self.shared);
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("vibe-pool-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }

    /// Runs `f(0), f(1), …, f(n_items - 1)` using up to `threads` OS
    /// threads including the calling thread, returning once every call has
    /// finished. Indices are claimed dynamically; each is executed exactly
    /// once. With `threads <= 1` the loop runs inline on the caller with
    /// no pool interaction at all.
    ///
    /// # Panics
    ///
    /// Re-raises (on the calling thread) the first panic raised by any
    /// `f(i)`; remaining items still complete first so borrows stay valid.
    pub fn run(&self, n_items: usize, threads: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_items == 0 {
            return;
        }
        let threads = threads.clamp(1, n_items);
        if threads == 1 {
            let start = stats_enabled().then(Instant::now);
            for i in 0..n_items {
                f(i);
            }
            if let Some(start) = start {
                stats_record_inline(n_items, start);
            }
            return;
        }
        self.ensure_workers(threads - 1);

        let run_start = stats_enabled().then(Instant::now);
        let counters = Arc::new(Counters {
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_items),
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
            stats: run_start.map(|_| Mutex::new(Vec::new())),
        });
        // SAFETY: erasing the lifetime of `f` is sound because this
        // function does not return until `pending == 0`, i.e. until no
        // thread can dereference the pointer again.
        let work = WorkPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        let job = Job {
            n: n_items,
            threads,
            work,
            counters: Arc::clone(&counters),
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(job.clone());
            self.shared.work_cv.notify_all();
        }

        // The dispatcher is one of the `threads` participants.
        execute(&self.shared, &job);

        let mut st = self.shared.state.lock().unwrap();
        while job.counters.pending.load(Ordering::Acquire) != 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        drop(st);

        if let (Some(start), Some(stats)) = (run_start, &counters.stats) {
            // Every executed item was accounted before its `pending`
            // decrement, so the drain below observes a complete sample set.
            let workers = std::mem::take(&mut *stats.lock().unwrap());
            stats_push(PoolRunSample {
                n_items: n_items as u64,
                threads: threads as u64,
                start,
                wall_ns: start.elapsed().as_nanos() as u64,
                label: dispatch_label(),
                workers,
            });
        }

        if counters.panicked.load(Ordering::Acquire) {
            let payload = counters.panic.lock().unwrap().take();
            match payload {
                Some(p) => std::panic::resume_unwind(p),
                None => panic!("worker panicked in parallel region"),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.shutdown = true;
        self.shared.work_cv.notify_all();
    }
}

/// Items a participant claims at once when `left` remain for `threads`
/// participants: a quarter of an even share, at least one.
fn claim_len(left: usize, threads: usize) -> usize {
    (left / (4 * threads)).max(1)
}

/// Claims the next run of `job`'s items for the calling participant, if
/// any are left.
fn claim(job: &Job) -> Option<std::ops::Range<usize>> {
    let next = &job.counters.next;
    let mut lo = next.load(Ordering::Relaxed);
    while lo < job.n {
        let hi = lo + claim_len(job.n - lo, job.threads);
        match next.compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(lo..hi),
            Err(now) => lo = now,
        }
    }
    None
}

/// Claims and executes items of `job` until none remain.
fn execute(shared: &Shared, job: &Job) {
    let body = unsafe { &*job.work.0 };
    let start = Instant::now();
    let mut slot: Option<usize> = None;
    let mut claimed = 0..0;
    loop {
        let Some(i) = claimed.next().or_else(|| {
            claimed = claim(job)?;
            claimed.next()
        }) else {
            return;
        };
        let result = catch_unwind(AssertUnwindSafe(|| body(i)));
        if let Err(payload) = result {
            job.counters.panicked.store(true, Ordering::Release);
            let mut slot = job.counters.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        // Account the item *before* releasing `pending`, so the dispatcher
        // never observes `pending == 0` while an executed item is still
        // missing from the sample set.
        if let Some(stats) = &job.counters.stats {
            let mut v = stats.lock().unwrap();
            let idx = *slot.get_or_insert_with(|| {
                v.push(PoolWorkerSample {
                    start,
                    busy_ns: 0,
                    items: 0,
                });
                v.len() - 1
            });
            v[idx].busy_ns = start.elapsed().as_nanos() as u64;
            v[idx].items += 1;
        }
        if job.counters.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last item: wake the dispatcher. The empty lock orders the
            // notify after the dispatcher's predicate check.
            drop(shared.state.lock().unwrap());
            shared.done_cv.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    break st.job.clone();
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        if let Some(job) = job {
            // A late wake-up after the region already drained is harmless:
            // `next >= n`, so the body pointer is never dereferenced.
            execute(shared, &job);
        }
    }
}

/// The process-wide pool used by [`crate::ExecCtx`].
/// Workers are spawned on first use and grown to the largest thread count
/// ever requested; they park on a condvar between regions.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(1000, 8, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    /// Guided claims: long runs at the start of a region, single items at
    /// its end, every index in exactly one of them.
    #[test]
    fn claims_shrink_from_an_eighth_of_the_rest_to_one() {
        let (mut lo, mut claims) = (0, Vec::new());
        while lo < 512 {
            claims.push(claim_len(512 - lo, 2));
            lo += claims.last().unwrap();
        }
        assert_eq!((lo, claims[0], claims[1]), (512, 64, 56));
        assert!(claims.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(claims[claims.len() - 8..], [1; 8]);
    }

    #[test]
    fn serial_path_runs_in_order() {
        let pool = WorkerPool::new();
        let order = Mutex::new(Vec::new());
        pool.run(16, 1, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_regions() {
        let pool = WorkerPool::new();
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(64, 4, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 50 * 64);
    }

    #[test]
    fn uses_multiple_threads() {
        let pool = WorkerPool::new();
        let ids = Mutex::new(HashSet::new());
        let gate = std::sync::Barrier::new(4);
        pool.run(4, 4, &|_| {
            // All four items rendezvous, so four distinct threads must run.
            gate.wait();
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert_eq!(ids.lock().unwrap().len(), 4);
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        let pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, 4, &|i| {
                if i == 7 {
                    panic!("boom at 7");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom at 7");
        // Pool stays usable after a panic.
        let count = AtomicUsize::new(0);
        pool.run(8, 4, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn global_pool_for_each_index() {
        let sum = AtomicUsize::new(0);
        crate::ExecCtx::new(8).for_each_index(100, |i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 99 * 100 / 2);
    }

    #[test]
    fn sampling_accounts_every_item() {
        let pool = WorkerPool::new();
        stats_begin();
        pool.run(500, 6, &|_| std::hint::black_box(()));
        pool.run(32, 1, &|_| std::hint::black_box(()));
        let samples = stats_end();
        assert_eq!(samples.len(), 2);
        let parallel = &samples[0];
        assert_eq!(parallel.n_items, 500);
        assert_eq!(parallel.threads, 6);
        assert_eq!(parallel.workers.iter().map(|w| w.items).sum::<u64>(), 500);
        assert!(!parallel.workers.is_empty() && parallel.workers.len() <= 6);
        assert!(parallel
            .workers
            .iter()
            .all(|w| w.busy_ns <= parallel.wall_ns));
        let serial = &samples[1];
        assert_eq!((serial.n_items, serial.threads), (32, 1));
        assert_eq!(serial.workers.len(), 1);
        assert_eq!(serial.workers[0].items, 32);
    }

    #[test]
    fn sampling_off_records_nothing_and_ends_idempotently() {
        let pool = WorkerPool::new();
        pool.run(64, 4, &|_| std::hint::black_box(()));
        // Never began on this thread: drain yields nothing.
        assert!(stats_end().is_empty());
        // After a begin/end pair, regions are no longer collected.
        stats_begin();
        let _ = stats_end();
        pool.run(64, 4, &|_| std::hint::black_box(()));
        assert!(stats_end().is_empty());
    }

    #[test]
    fn dispatch_label_stamps_samples_until_cleared() {
        let pool = WorkerPool::new();
        stats_begin();
        set_dispatch_label(Some("InteriorFlux"));
        pool.run(64, 4, &|_| std::hint::black_box(()));
        pool.run(8, 1, &|_| std::hint::black_box(()));
        set_dispatch_label(None);
        pool.run(8, 2, &|_| std::hint::black_box(()));
        let samples = stats_end();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].label, Some("InteriorFlux"));
        assert_eq!(samples[1].label, Some("InteriorFlux"), "inline path too");
        assert_eq!(samples[2].label, None);
    }

    #[test]
    fn sampling_is_scoped_to_the_dispatching_thread() {
        stats_begin();
        let from_other = std::thread::spawn(|| {
            let pool = WorkerPool::new();
            pool.run(16, 2, &|_| std::hint::black_box(()));
            stats_end().len()
        })
        .join()
        .unwrap();
        assert_eq!(from_other, 0);
        assert!(stats_end().is_empty());
    }
}
