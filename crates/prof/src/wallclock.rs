//! The measured-time profiler: RAII region guards, per-cycle archives, and
//! a Chrome/Perfetto trace-event buffer.
//!
//! [`WallClock`] is a cheap cloneable handle (an `Arc` around the shared
//! state, or nothing at all when profiling is off). It rides inside the
//! workload [`Recorder`](crate::Recorder), so every piece of framework code
//! that already receives the recorder can open nested regions without any
//! signature change:
//!
//! ```
//! use vibe_prof::{ProfLevel, RegionKey, StepFunction, WallClock};
//!
//! let wall = WallClock::new(ProfLevel::Full);
//! {
//!     let _cycle = wall.region(RegionKey::Named("Cycle"));
//!     let _fluxes = wall.region(RegionKey::Step(StepFunction::CalculateFluxes));
//!     // ... work ...
//! } // guards close innermost-first, crediting child time to the parent
//! wall.end_cycle(0);
//! wall.with_totals(|t| assert_eq!(t.flatten()[0].stats.count, 1));
//! ```
//!
//! Overhead discipline:
//! - `ProfLevel::Off`: the handle holds no allocation; opening a region is
//!   a branch on `None` and returns an inert guard.
//! - `ProfLevel::Coarse`: regions opened through [`WallClock::region_hot`]
//!   (scopes that can be cheaper than ~1µs) only bump a counter — no
//!   `Instant` pair, no trace event. Normal regions are timed.
//! - `ProfLevel::Full`: everything is timed and every region close appends
//!   a trace event (bounded by [`MAX_TRACE_EVENTS`]).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::pool_stats::{PoolRunSample, PoolStats};
use crate::regions::{RegionKey, RegionTree};
use crate::spans::span_epoch;

/// How much measured-time instrumentation to pay for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ProfLevel {
    /// No wall-clock instrumentation at all (the default).
    #[default]
    Off,
    /// Region timers on, but hot (sub-µs) regions aggregate call counts
    /// only and no trace events are buffered.
    Coarse,
    /// Region timers, pool utilization, and Perfetto trace events.
    Full,
}

/// One complete Chrome `trace_events` entry (phase `X`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (region or worker label).
    pub name: &'static str,
    /// Category (`region` or `pool`).
    pub cat: &'static str,
    /// Start, ns since the process-wide [`span_epoch`].
    pub ts_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Virtual thread: 0 is the driver thread, 1.. are pool load-rank
    /// slots.
    pub tid: u32,
}

/// Trace-event buffer cap; beyond it events are counted but dropped.
pub const MAX_TRACE_EVENTS: usize = 4_000_000;

/// Wall-clock data of one archived cycle.
#[derive(Debug, Clone, Default)]
pub struct WallCycleStats {
    /// Cycle index.
    pub cycle: u64,
    /// Region tree of scopes closed during the cycle.
    pub tree: RegionTree,
    /// Pool utilization during the cycle.
    pub pool: PoolStats,
}

#[derive(Debug, Default)]
struct WallState {
    current: RegionTree,
    /// Open-scope stack of node indices into `current`.
    stack: Vec<usize>,
    pool_current: PoolStats,
    cycles: Vec<WallCycleStats>,
    totals: RegionTree,
    pool_totals: PoolStats,
    events: Vec<TraceEvent>,
    events_dropped: u64,
}

#[derive(Debug)]
struct WallInner {
    level: ProfLevel,
    state: Mutex<WallState>,
}

// Debug-mode reentrancy detector: the address of the `WallInner` whose
// accessor closure is currently running on this thread, or 0. The state
// mutex is not reentrant, so calling any `WallClock` method from inside a
// `with_cycles`/`with_totals` closure would self-deadlock; this turns the
// silent deadlock into an immediate panic with an actionable message.
#[cfg(debug_assertions)]
thread_local! {
    static ACCESSOR_OWNER: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl WallInner {
    /// Locks the profiler state, panicking (debug builds) when the calling
    /// thread is already inside one of this profiler's accessor closures.
    fn lock(&self) -> MutexGuard<'_, WallState> {
        #[cfg(debug_assertions)]
        ACCESSOR_OWNER.with(|owner| {
            assert!(
                owner.get() != self as *const _ as usize,
                "WallClock re-entered from inside a with_cycles/with_totals \
                 closure: nested accessors self-deadlock on the profiler \
                 lock. Snapshot values (e.g. pool_totals) before entering \
                 the closure — see the wallclock module docs."
            );
        });
        self.state.lock().unwrap()
    }

    /// Runs `f` with the state locked and the reentrancy flag raised, so
    /// any nested `WallClock` call on this thread panics instead of
    /// deadlocking (debug builds; release builds still deadlock, which is
    /// why the rule also stays documented).
    fn with_locked<R>(&self, f: impl FnOnce(&mut WallState) -> R) -> R {
        let mut st = self.lock();
        #[cfg(debug_assertions)]
        let _reset = {
            struct Reset;
            impl Drop for Reset {
                fn drop(&mut self) {
                    ACCESSOR_OWNER.with(|owner| owner.set(0));
                }
            }
            ACCESSOR_OWNER.with(|owner| owner.set(self as *const _ as usize));
            Reset
        };
        f(&mut st)
    }
}

/// Handle to the measured-time profiler; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct WallClock {
    inner: Option<Arc<WallInner>>,
}

/// RAII guard for one open region; records on drop.
#[must_use = "dropping the guard immediately closes the region"]
pub struct RegionGuard {
    ctx: Option<(Arc<WallInner>, usize, Option<Instant>)>,
}

impl WallClock {
    /// Creates a profiler at `level` (`Off` allocates nothing). Its
    /// timestamps count from the process-wide [`span_epoch`], which this
    /// pins no later than now, so every clock, task span and flow arrow of
    /// the process shares one time axis.
    pub fn new(level: ProfLevel) -> Self {
        if level == ProfLevel::Off {
            return Self { inner: None };
        }
        span_epoch();
        Self {
            inner: Some(Arc::new(WallInner {
                level,
                state: Mutex::new(WallState::default()),
            })),
        }
    }

    /// The active level.
    pub fn level(&self) -> ProfLevel {
        self.inner.as_ref().map_or(ProfLevel::Off, |i| i.level)
    }

    /// True when any instrumentation is active.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a timed region nested under the innermost open region.
    pub fn region(&self, key: RegionKey) -> RegionGuard {
        let Some(inner) = &self.inner else {
            return RegionGuard { ctx: None };
        };
        let node = {
            let mut st = inner.lock();
            let parent = st.stack.last().copied();
            let node = st.current.child_of(parent, key);
            st.stack.push(node);
            node
        };
        RegionGuard {
            ctx: Some((Arc::clone(inner), node, Some(Instant::now()))),
        }
    }

    /// Opens a region that may be cheaper than ~1µs: at
    /// [`ProfLevel::Coarse`] only the call count aggregates (no `Instant`
    /// pair is paid); at [`ProfLevel::Full`] it behaves like
    /// [`WallClock::region`].
    pub fn region_hot(&self, key: RegionKey) -> RegionGuard {
        let Some(inner) = &self.inner else {
            return RegionGuard { ctx: None };
        };
        if inner.level == ProfLevel::Coarse {
            let mut st = inner.lock();
            let parent = st.stack.last().copied();
            let node = st.current.child_of(parent, key);
            st.current.count_only(node);
            return RegionGuard { ctx: None };
        }
        self.region(key)
    }

    /// Credits `ns` of wall time, measured by the caller from `start` on,
    /// to `key` as a child of the innermost open region — for a dispatch
    /// that serves two regions at once and knows its split only afterwards.
    pub fn credit(&self, key: RegionKey, start: Instant, ns: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.lock();
        let parent = st.stack.last().copied();
        let node = st.current.child_of(parent, key);
        record_span(inner, &mut st, node, start, ns);
    }

    /// Folds pool run samples into the current cycle's utilization stats,
    /// emitting per-worker trace spans at [`ProfLevel::Full`].
    pub fn record_pool_samples(&self, samples: &[PoolRunSample]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.lock();
        for sample in samples {
            st.pool_current.record(sample);
            if inner.level == ProfLevel::Full {
                let mut workers: Vec<_> = sample.workers.clone();
                workers.sort_by_key(|w| std::cmp::Reverse(w.busy_ns));
                for (slot, w) in workers.iter().enumerate() {
                    let ts_ns = w.start.saturating_duration_since(span_epoch()).as_nanos() as u64;
                    push_event(
                        &mut st,
                        TraceEvent {
                            name: sample.label.unwrap_or("pool-worker"),
                            cat: "pool",
                            ts_ns,
                            dur_ns: w.busy_ns,
                            tid: slot as u32 + 1,
                        },
                    );
                }
            }
        }
    }

    /// Archives everything recorded since the last archive point as cycle
    /// `cycle`, folding it into the running totals. Open regions must all
    /// be closed (the driver closes every stage guard before ending a
    /// cycle).
    pub fn end_cycle(&self, cycle: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.lock();
        debug_assert!(st.stack.is_empty(), "end_cycle with open regions");
        let tree = std::mem::take(&mut st.current);
        let pool = std::mem::take(&mut st.pool_current);
        st.totals.absorb(&tree);
        st.pool_totals.absorb(&pool);
        st.cycles.push(WallCycleStats { cycle, tree, pool });
    }

    /// Folds everything recorded since the last archive point into the
    /// totals *without* creating a cycle record (initialization work).
    pub fn discard_partial_cycle(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.lock();
        let tree = std::mem::take(&mut st.current);
        let pool = std::mem::take(&mut st.pool_current);
        st.totals.absorb(&tree);
        st.pool_totals.absorb(&pool);
    }

    /// Runs `f` over the archived per-cycle stats.
    ///
    /// `f` runs under the profiler's internal lock: calling any other
    /// `WallClock` method (e.g. [`WallClock::pool_totals`]) from inside it
    /// would self-deadlock — debug builds detect this and panic with an
    /// explanatory message instead. Snapshot such values before entering
    /// the closure.
    pub fn with_cycles<R>(&self, f: impl FnOnce(&[WallCycleStats]) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        Some(inner.with_locked(|st| f(&st.cycles)))
    }

    /// Runs `f` over the accumulated totals tree (cycles + init work).
    ///
    /// `f` runs under the profiler's internal lock — see
    /// [`WallClock::with_cycles`] for the checked no-nesting rule.
    pub fn with_totals<R>(&self, f: impl FnOnce(&RegionTree) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        Some(inner.with_locked(|st| f(&st.totals)))
    }

    /// Accumulated pool utilization (cycles + init work).
    pub fn pool_totals(&self) -> PoolStats {
        self.inner
            .as_ref()
            .map_or_else(PoolStats::new, |i| i.lock().pool_totals.clone())
    }

    /// Snapshot of the buffered trace events (sorted by `(tid, ts)` at
    /// export time, not here) and the count of events dropped at the cap.
    pub fn trace_events(&self) -> (Vec<TraceEvent>, u64) {
        self.inner.as_ref().map_or((Vec::new(), 0), |i| {
            let st = i.lock();
            (st.events.clone(), st.events_dropped)
        })
    }
}

fn push_event(st: &mut WallState, ev: TraceEvent) {
    if st.events.len() >= MAX_TRACE_EVENTS {
        st.events_dropped += 1;
    } else {
        st.events.push(ev);
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let Some((inner, node, start)) = self.ctx.take() else {
            return;
        };
        let now = Instant::now();
        let mut st = inner.lock();
        let popped = st.stack.pop();
        debug_assert_eq!(popped, Some(node), "region guards dropped out of order");
        if let Some(start) = start {
            let dur_ns = now.duration_since(start).as_nanos() as u64;
            record_span(&inner, &mut st, node, start, dur_ns);
        }
    }
}

/// Adds `dur_ns` from `start` on to region `node`, as a trace event too at
/// [`ProfLevel::Full`].
fn record_span(inner: &WallInner, st: &mut WallState, node: usize, start: Instant, dur_ns: u64) {
    st.current.record(node, dur_ns);
    if inner.level == ProfLevel::Full {
        let event = TraceEvent {
            name: st.current.key_of(node).name(),
            cat: "region",
            ts_ns: start.saturating_duration_since(span_epoch()).as_nanos() as u64,
            dur_ns,
            tid: 0,
        };
        push_event(st, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::StepFunction;
    use std::time::Duration;

    /// A credit lands where a region guard of the same key would have: a
    /// child of the innermost open region, with a trace event at `Full`.
    #[test]
    fn credit_records_a_child_of_the_open_region() {
        let wall = WallClock::new(ProfLevel::Full);
        let key = RegionKey::Step(StepFunction::SetBounds);
        {
            let _g = wall.region(RegionKey::Named("Cycle"));
            wall.credit(key, Instant::now(), 1_500);
            wall.credit(key, Instant::now(), 500);
        }
        wall.end_cycle(0);
        let flat = wall.with_totals(|t| t.flatten()).unwrap();
        let credited = flat.iter().find(|r| r.path == "Cycle/SetBounds").unwrap();
        assert_eq!((credited.stats.total_ns, credited.stats.count), (2_000, 2));
        let (events, _) = wall.trace_events();
        let spans = events.iter().filter(|e| e.name == key.name());
        assert_eq!(spans.map(|e| e.dur_ns).collect::<Vec<_>>(), [1_500, 500]);
        WallClock::default().credit(key, Instant::now(), 1);
    }

    /// A wall clock created long after the span epoch stamps its regions
    /// on the epoch's axis, not on one of its own.
    #[test]
    fn regions_share_the_span_epoch() {
        span_epoch();
        std::thread::sleep(Duration::from_millis(5));
        let wall = WallClock::new(ProfLevel::Full);
        let read = crate::spans::span_now_ns();
        {
            let _g = wall.region(RegionKey::Named("after"));
        }
        let (events, _) = wall.trace_events();
        assert!(events[0].ts_ns >= read, "{} < {read}", events[0].ts_ns);
    }

    #[test]
    fn off_level_is_inert() {
        let wall = WallClock::new(ProfLevel::Off);
        assert!(!wall.enabled());
        {
            let _g = wall.region(RegionKey::Named("x"));
            let _h = wall.region_hot(RegionKey::Named("y"));
        }
        wall.end_cycle(0);
        assert!(wall.with_totals(|_| ()).is_none());
        assert_eq!(wall.trace_events().0.len(), 0);
    }

    #[test]
    fn nested_guards_credit_parent_child_time() {
        let wall = WallClock::new(ProfLevel::Full);
        {
            let _outer = wall.region(RegionKey::Named("Cycle"));
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = wall.region(RegionKey::Step(StepFunction::CalculateFluxes));
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        wall.end_cycle(0);
        wall.with_cycles(|cycles| {
            assert_eq!(cycles.len(), 1);
            let flat = cycles[0].tree.flatten();
            assert_eq!(flat.len(), 2);
            let (outer, inner) = (&flat[0].stats, &flat[1].stats);
            assert_eq!(flat[1].path, "Cycle/CalculateFluxes");
            // Child inclusive <= parent inclusive; exclusive consistent.
            assert!(inner.total_ns <= outer.total_ns);
            assert_eq!(outer.child_ns, inner.total_ns);
            assert_eq!(outer.exclusive_ns(), outer.total_ns - inner.total_ns);
            // Both slept ~2ms.
            assert!(inner.total_ns >= 1_000_000);
            assert!(outer.exclusive_ns() >= 1_000_000);
        })
        .unwrap();
    }

    #[test]
    fn coarse_hot_regions_count_without_timing() {
        let wall = WallClock::new(ProfLevel::Coarse);
        for _ in 0..5 {
            let _g = wall.region_hot(RegionKey::Named("hot"));
        }
        {
            let _g = wall.region(RegionKey::Named("normal"));
        }
        wall.end_cycle(0);
        wall.with_totals(|t| {
            let flat = t.flatten();
            let hot = flat.iter().find(|f| f.path == "hot").unwrap();
            assert_eq!(hot.stats.count, 5);
            assert_eq!(hot.stats.total_ns, 0);
            let normal = flat.iter().find(|f| f.path == "normal").unwrap();
            assert_eq!(normal.stats.count, 1);
        })
        .unwrap();
        // Coarse buffers no trace events.
        assert!(wall.trace_events().0.is_empty());
    }

    #[test]
    fn full_level_buffers_region_events() {
        let wall = WallClock::new(ProfLevel::Full);
        {
            let _g = wall.region(RegionKey::Step(StepFunction::SetBounds));
        }
        wall.end_cycle(0);
        let (events, dropped) = wall.trace_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "SetBounds");
        assert_eq!(events[0].cat, "region");
        assert_eq!(events[0].tid, 0);
    }

    #[test]
    fn cycles_archive_and_totals_accumulate() {
        let wall = WallClock::new(ProfLevel::Coarse);
        for cycle in 0..3u64 {
            let _g = wall.region(RegionKey::Named("Cycle"));
            drop(_g);
            wall.end_cycle(cycle);
        }
        wall.with_cycles(|c| {
            assert_eq!(c.len(), 3);
            assert_eq!(c[2].cycle, 2);
            assert_eq!(c[1].tree.flatten()[0].stats.count, 1);
        })
        .unwrap();
        wall.with_totals(|t| assert_eq!(t.flatten()[0].stats.count, 3))
            .unwrap();
    }

    #[test]
    fn pool_samples_fold_into_cycle_and_trace() {
        let wall = WallClock::new(ProfLevel::Full);
        let start = Instant::now();
        let sample = PoolRunSample {
            n_items: 8,
            threads: 2,
            start,
            wall_ns: 1000,
            label: Some("ExteriorFlux"),
            workers: vec![
                crate::pool_stats::PoolWorkerSample {
                    start,
                    busy_ns: 900,
                    items: 6,
                },
                crate::pool_stats::PoolWorkerSample {
                    start,
                    busy_ns: 500,
                    items: 2,
                },
            ],
        };
        wall.record_pool_samples(&[sample]);
        wall.end_cycle(0);
        wall.with_cycles(|c| {
            assert_eq!(c[0].pool.regions, 1);
            assert_eq!(c[0].pool.items, 8);
        })
        .unwrap();
        let pool = wall.pool_totals();
        assert_eq!(pool.busy_ns, 1400);
        let (events, _) = wall.trace_events();
        let tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![1, 2]);
        assert!(
            events.iter().all(|e| e.name == "ExteriorFlux"),
            "labeled dispatches name their worker spans after the task"
        );
    }

    #[test]
    fn discard_partial_cycle_feeds_totals_only() {
        let wall = WallClock::new(ProfLevel::Coarse);
        {
            let _g = wall.region(RegionKey::Named("Init"));
        }
        wall.discard_partial_cycle();
        wall.with_cycles(|c| assert!(c.is_empty())).unwrap();
        wall.with_totals(|t| assert!(!t.is_empty())).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "WallClock re-entered")]
    fn nested_accessor_panics_instead_of_deadlocking() {
        let wall = WallClock::new(ProfLevel::Coarse);
        {
            let _g = wall.region(RegionKey::Named("x"));
        }
        wall.end_cycle(0);
        wall.with_totals(|_| {
            // The documented footgun: any WallClock call inside the
            // closure used to self-deadlock; it must now panic.
            let _ = wall.pool_totals();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn accessor_on_distinct_profiler_is_allowed() {
        // The reentrancy check is per profiler instance: reading another
        // WallClock inside the closure is safe and must not panic.
        let a = WallClock::new(ProfLevel::Coarse);
        let b = WallClock::new(ProfLevel::Coarse);
        a.end_cycle(0);
        b.end_cycle(0);
        a.with_totals(|_| {
            let _ = b.pool_totals();
        })
        .unwrap();
        // And sequential accessors on the same profiler still work.
        a.with_totals(|_| ()).unwrap();
        a.with_cycles(|_| ()).unwrap();
    }
}
