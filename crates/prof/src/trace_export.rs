//! Exporters for the measured-time profiler: the one Chrome/Perfetto
//! `trace_events` writer ([`TraceWriter`]) and its offline validator
//! ([`validate_trace`]), per-cycle JSONL metrics streams and a
//! TinyProfiler-style text summary. All JSON is built as [`Json`] values
//! and written or parsed by [`crate::json`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{obj, parse, Json};
use crate::pool_stats::PoolStats;
use crate::regions::RegionTree;
use crate::spans::FlowEvent;
use crate::wallclock::{TraceEvent, WallCycleStats};

/// Sorts events for export: by tid, then start time, then *descending*
/// duration so an enclosing span precedes the spans it contains.
fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| {
        (a.tid, a.ts_ns)
            .cmp(&(b.tid, b.ts_ns))
            .then(b.dur_ns.cmp(&a.dur_ns))
    });
}

/// Trace timestamps are µs; the profiler's are integer ns.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

/// The one Chrome/Perfetto trace writer. Every trace of the workspace — a
/// serial run, a fabric session, a simulated timeline — is made of three
/// event shapes: complete `X` spans on `(pid, tid)` tracks, `M` process
/// and thread labels, and `s`/`f` flow arrows. Timestamps are integer ns
/// on one time axis, rendered in µs.
///
/// It streams the JSON Object Format, one event per line: each event is
/// built, written and dropped on its own, so an export of N events never
/// holds a whole-trace value. Open the result at `ui.perfetto.dev` or
/// `chrome://tracing`.
pub struct TraceWriter {
    out: String,
    events: usize,
}

impl TraceWriter {
    /// Opens the document, sized for about `events` events.
    pub fn new(events: usize) -> Self {
        let mut out = String::with_capacity(256 + events * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        Self { out, events: 0 }
    }

    /// One event: the four fields every phase carries plus `fields`.
    fn event(&mut self, name: &str, ph: &str, pid: usize, tid: u32, mut fields: Vec<(&str, Json)>) {
        if self.events > 0 {
            self.out.push_str(",\n");
        }
        self.events += 1;
        fields.extend([
            ("name", Json::Str(name.to_string())),
            ("ph", Json::Str(ph.to_string())),
            ("pid", Json::Num(pid as f64)),
            ("tid", Json::Num(f64::from(tid))),
        ]);
        obj(fields).write(&mut self.out);
    }

    /// A `process_name` / `thread_name` metadata event.
    fn label(&mut self, kind: &str, pid: usize, tid: u32, label: &str) {
        let args = obj(vec![("name", Json::Str(label.to_string()))]);
        self.event(kind, "M", pid, tid, vec![("args", args)]);
    }

    /// Names process track `pid`.
    pub fn process(&mut self, pid: usize, label: &str) {
        self.label("process_name", pid, 0, label);
    }

    /// Names thread track `tid` of process `pid`.
    pub fn thread(&mut self, pid: usize, tid: u32, label: &str) {
        self.label("thread_name", pid, tid, label);
    }

    /// One complete `X` span on track `(pid, tid)`.
    pub fn span(&mut self, pid: usize, tid: u32, name: &str, cat: &str, ts_ns: u64, dur_ns: u64) {
        let fields = vec![
            ("cat", Json::Str(cat.to_string())),
            ("ts", us(ts_ns)),
            ("dur", us(dur_ns)),
        ];
        self.event(name, "X", pid, tid, fields);
    }

    /// A wall-clock stream as `X` spans of process `pid`, each on its
    /// event's `tid`, in export order ([`sort_events`]).
    pub fn events(&mut self, pid: usize, events: &[TraceEvent]) {
        let mut sorted = events.to_vec();
        sort_events(&mut sorted);
        for ev in &sorted {
            self.span(pid, ev.tid, ev.name, ev.cat, ev.ts_ns, ev.dur_ns);
        }
    }

    /// One flow arrow (`ph:"s"` / `ph:"f"`) from the sending rank's
    /// process (`pid` = rank + 1) to the receiving one's. The flow id is
    /// the send's globally unique sequence number; the terminating `f`
    /// event carries `bp:"e"` so Perfetto binds the arrowhead to the
    /// enclosing span.
    pub fn flow(&mut self, f: &FlowEvent) {
        let end = |ts_ns: u64| {
            vec![
                ("cat", Json::Str("flow".to_string())),
                ("id", Json::Num(f.id as f64)),
                ("ts", us(ts_ns)),
            ]
        };
        self.event(f.name, "s", f.src_rank + 1, 0, end(f.src_ts_ns));
        let mut fields = end(f.dst_ts_ns);
        fields.push(("bp", Json::Str("e".to_string())));
        self.event(f.name, "f", f.dst_rank + 1, 0, fields);
    }

    /// Closes the document.
    pub fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// The one-process trace of a wall-clock stream: a `process_name` label
/// and `events` as `X` spans.
pub fn perfetto_trace_json(events: &[TraceEvent], process_name: &str) -> String {
    let mut w = TraceWriter::new(events.len());
    w.process(1, process_name);
    w.events(1, events);
    w.finish()
}

/// What a validated trace holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Complete `X` spans.
    pub spans: usize,
    /// Matched `s` → `f` flow arrows.
    pub flows: usize,
}

/// Offline validation of a trace in any layout. Parses the document and
/// accepts only the phases [`TraceWriter`] writes: `X`, `M`, `s` and `f`.
/// Every `X` span needs a string name, `ts >= 0` and `dur >= 0`. Every
/// flow id carries exactly one `s` and one `f` event, in that order, with
/// matching names, non-negative timestamps and an end no earlier than its
/// start.
pub fn validate_trace(json: &str) -> Result<TraceStats, String> {
    let doc = parse(json)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("no traceEvents array".to_string());
    };
    let mut stats = TraceStats { spans: 0, flows: 0 };
    let mut open: BTreeMap<String, (&str, f64)> = BTreeMap::new();
    for (index, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("event {index}: {msg}");
        let field = |key: &str| ev.get(key).and_then(Json::as_f64);
        let ph = ev.get("ph").and_then(Json::as_str);
        if ph == Some("M") {
            continue;
        }
        if !matches!(ph, Some("X" | "s" | "f")) {
            return Err(at(&format!("phase {ph:?} is not one of X, M, s, f")));
        }
        let name = ev.get("name").and_then(Json::as_str);
        let name = name.ok_or_else(|| at("event without a string name"))?;
        let ts = field("ts").ok_or_else(|| at("event without a numeric ts"))?;
        if ts < 0.0 {
            return Err(at(&format!("negative ts {ts}")));
        }
        if ph == Some("X") {
            let dur = field("dur").ok_or_else(|| at("span without a numeric dur"))?;
            if dur < 0.0 {
                return Err(at(&format!("negative duration {dur} of {name:?}")));
            }
            stats.spans += 1;
            continue;
        }
        let id = ev.get("id").ok_or_else(|| at("flow event without id"))?;
        let id = id.render();
        if ph == Some("s") {
            if open.insert(id.clone(), (name, ts)).is_some() {
                return Err(at(&format!("duplicate flow start on id {id}")));
            }
            continue;
        }
        let (open_name, open_ts) = open
            .remove(&id)
            .ok_or_else(|| at(&format!("'f' event with no open 's' on id {id}")))?;
        if open_name != name {
            return Err(at(&format!(
                "closing name {name:?} does not match opening {open_name:?} on id {id}"
            )));
        }
        if ts < open_ts {
            return Err(at(&format!(
                "flow runs backwards: closes at {ts} before opening at {open_ts} on id {id}"
            )));
        }
        stats.flows += 1;
    }
    if let Some(id) = open.keys().next() {
        return Err(format!("flow start on id {id} never terminated"));
    }
    Ok(stats)
}

fn push_line(v: &Json, out: &mut String) {
    v.write(out);
    out.push('\n');
}

/// Renders one JSON object per cycle (JSON Lines): the flattened region
/// tree (call counts, inclusive/exclusive ns) plus pool utilization.
pub fn metrics_jsonl(cycles: &[WallCycleStats]) -> String {
    let mut out = String::new();
    for c in cycles {
        let regions = c.tree.flatten().into_iter().map(|f| {
            let stats = obj(vec![
                ("calls", Json::Num(f.stats.count as f64)),
                ("incl_ns", Json::Num(f.stats.total_ns as f64)),
                ("excl_ns", Json::Num(f.stats.exclusive_ns() as f64)),
            ]);
            (f.path, stats)
        });
        let pool = obj(vec![
            ("regions", Json::Num(c.pool.regions as f64)),
            ("items", Json::Num(c.pool.items as f64)),
            ("busy_ns", Json::Num(c.pool.busy_ns as f64)),
            ("wall_ns", Json::Num(c.pool.wall_ns as f64)),
            ("thread_time_ns", Json::Num(c.pool.thread_time_ns as f64)),
            ("load_imbalance", Json::Num(c.pool.load_imbalance())),
            ("utilization", Json::Num(c.pool.utilization())),
        ]);
        let row = obj(vec![
            ("cycle", Json::Num(c.cycle as f64)),
            ("regions", Json::Obj(regions.collect())),
            ("pool", pool),
        ]);
        push_line(&row, &mut out);
    }
    out
}

/// One cycle of a job run inside the simulation service: the per-cycle
/// solver state (clock, mesh population, AMR churn) scoped to a job id so
/// several tenants' runs can interleave in one stream.
#[derive(Clone, Debug, PartialEq)]
pub struct JobCycleMetric {
    /// Service-assigned job id the cycle belongs to.
    pub job: u64,
    /// Absolute cycle number (survives preempt/resume, so resumed jobs
    /// continue the sequence rather than restarting at zero).
    pub cycle: u64,
    /// Simulation time at the end of the cycle.
    pub time: f64,
    /// Timestep taken this cycle.
    pub dt: f64,
    /// Leaf-block count after any regrid this cycle.
    pub nblocks: usize,
    /// Blocks refined by the regrid this cycle.
    pub refined: usize,
    /// Blocks derefined by the regrid this cycle.
    pub derefined: usize,
    /// Wall time the runner spent on this cycle.
    pub wall_ns: u64,
}

/// Renders job-scoped per-cycle metrics as JSON Lines, one object per
/// cycle; the `job` field lets a multi-tenant stream be filtered per job.
pub fn job_metrics_jsonl(cycles: &[JobCycleMetric]) -> String {
    let mut out = String::new();
    for c in cycles {
        let row = obj(vec![
            ("job", Json::Num(c.job as f64)),
            ("cycle", Json::Num(c.cycle as f64)),
            ("time", Json::Num(c.time)),
            ("dt", Json::Num(c.dt)),
            ("nblocks", Json::Num(c.nblocks as f64)),
            ("refined", Json::Num(c.refined as f64)),
            ("derefined", Json::Num(c.derefined as f64)),
            ("wall_ns", Json::Num(c.wall_ns as f64)),
        ]);
        push_line(&row, &mut out);
    }
    out
}

/// Renders a TinyProfiler-style summary: every region (full path), sorted
/// by exclusive time descending, with call counts and min/mean/max
/// inclusive times, followed by the pool utilization line.
pub fn summary_table(totals: &RegionTree, pool: &PoolStats) -> String {
    let mut flat = totals.flatten();
    flat.sort_by_key(|f| std::cmp::Reverse(f.stats.exclusive_ns()));
    let total_excl: u64 = flat.iter().map(|f| f.stats.exclusive_ns()).sum();
    let denom = (total_excl as f64).max(1.0);
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>7} {:>10} {:>10} {:>6} {:>9} {:>9} {:>9}",
        "region", "calls", "excl(ms)", "incl(ms)", "excl%", "min(ms)", "mean(ms)", "max(ms)"
    );
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for f in &flat {
        let s = &f.stats;
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>10.3} {:>10.3} {:>5.1}% {:>9.3} {:>9.3} {:>9.3}",
            f.path,
            s.count,
            ms(s.exclusive_ns()),
            ms(s.total_ns),
            s.exclusive_ns() as f64 / denom * 100.0,
            ms(s.min_ns),
            ms(s.mean_ns()),
            ms(s.max_ns),
        );
    }
    if !pool.is_empty() {
        let _ = writeln!(
            out,
            "pool: {} regions, {} items, utilization {:.1}%, load-imbalance {:.3} (max/mean busy)",
            pool.regions,
            pool.items,
            pool.utilization() * 100.0,
            pool.load_imbalance()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_lines;
    use crate::regions::RegionKey;
    use crate::wallclock::WallCycleStats;

    /// The parsed `traceEvents` of an exported trace.
    fn trace_events(json: &str) -> Vec<Json> {
        match parse(json)
            .expect("trace JSON must parse")
            .get("traceEvents")
        {
            Some(Json::Arr(events)) => events.clone(),
            other => panic!("no traceEvents array: {other:?}"),
        }
    }

    /// Index of the first event with this name and phase.
    fn position(events: &[Json], name: &str, ph: &str) -> usize {
        let is =
            |ev: &Json, key: &str, want: &str| ev.get(key).and_then(Json::as_str) == Some(want);
        events
            .iter()
            .position(|ev| is(ev, "name", name) && is(ev, "ph", ph))
            .unwrap_or_else(|| panic!("no {ph:?} event named {name:?}"))
    }

    /// Runs `validate` on `trace` as given, re-rendered onto one line, and
    /// with every event spread over several lines; the verdict (stats, or
    /// that it is an error) must not depend on the layout.
    fn in_any_layout<T: Copy + PartialEq + std::fmt::Debug>(
        validate: fn(&str) -> Result<T, String>,
        trace: &str,
    ) -> Result<T, String> {
        let verdict = validate(trace);
        if let Ok(doc) = parse(trace) {
            let one_line = doc.render();
            assert!(!one_line.contains('\n'));
            let spread = one_line
                .replace(",\"", " ,\n\t\"")
                .replace("\":", "\" :\n ");
            for relaid in [one_line, spread] {
                assert_eq!(
                    validate(&relaid).ok(),
                    verdict.as_ref().ok().copied(),
                    "{relaid}"
                );
            }
        }
        verdict
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "CalculateFluxes",
                cat: "region",
                ts_ns: 2_500,
                dur_ns: 1_000,
                tid: 0,
            },
            TraceEvent {
                name: "Cycle",
                cat: "region",
                ts_ns: 1_000,
                dur_ns: 9_000,
                tid: 0,
            },
            TraceEvent {
                name: "pool-worker",
                cat: "pool",
                ts_ns: 2_600,
                dur_ns: 700,
                tid: 1,
            },
        ]
    }

    #[test]
    fn perfetto_export_is_valid_json_with_sorted_ts() {
        let json = perfetto_trace_json(&sample_events(), "vibe-amr");
        let events = trace_events(&json);
        assert_eq!(events.len(), 4, "one metadata event plus three spans");
        let fluxes = &events[position(&events, "CalculateFluxes", "X")];
        // µs rendering of 2500 ns / 1000 ns.
        assert_eq!(fluxes.get("ts"), Some(&Json::Num(2.5)));
        assert_eq!(fluxes.get("dur"), Some(&Json::Num(1.0)));

        let mut sorted = sample_events();
        sort_events(&mut sorted);
        // Monotonically non-decreasing ts per tid.
        for w in sorted.windows(2) {
            if w[0].tid == w[1].tid {
                assert!(w[0].ts_ns <= w[1].ts_ns);
            }
        }
        assert!(sorted.windows(2).all(|w| w[0].tid <= w[1].tid));
        // The enclosing Cycle span precedes the nested fluxes span.
        assert_eq!(sorted[0].name, "Cycle");
    }

    fn sample_cycles() -> Vec<WallCycleStats> {
        let mut tree = RegionTree::new();
        let root = tree.child_of(None, RegionKey::Named("Cycle"));
        let c = tree.child_of(
            Some(root),
            RegionKey::Step(crate::StepFunction::CalculateFluxes),
        );
        tree.record(c, 700);
        tree.record(root, 1000);
        let mut pool = PoolStats::new();
        pool.record(&crate::pool_stats::PoolRunSample {
            n_items: 4,
            threads: 2,
            start: std::time::Instant::now(),
            wall_ns: 500,
            label: None,
            workers: vec![
                crate::pool_stats::PoolWorkerSample {
                    start: std::time::Instant::now(),
                    busy_ns: 400,
                    items: 3,
                },
                crate::pool_stats::PoolWorkerSample {
                    start: std::time::Instant::now(),
                    busy_ns: 300,
                    items: 1,
                },
            ],
        });
        vec![WallCycleStats {
            cycle: 7,
            tree,
            pool,
        }]
    }

    #[test]
    fn jsonl_lines_parse_and_carry_metrics() {
        let jsonl = metrics_jsonl(&sample_cycles());
        assert_eq!(parse_lines(&jsonl).expect("all lines parse").len(), 1);
        assert!(jsonl.contains("\"cycle\":7"));
        assert!(jsonl.contains("\"Cycle/CalculateFluxes\""));
        assert!(jsonl.contains("\"excl_ns\":300"));
        assert!(jsonl.contains("\"load_imbalance\""));
    }

    #[test]
    fn summary_table_sorted_by_exclusive() {
        let cycles = sample_cycles();
        let table = summary_table(&cycles[0].tree, &cycles[0].pool);
        let lines: Vec<&str> = table.lines().collect();
        // Header, rule, then CalculateFluxes (700 excl) before Cycle (300).
        assert!(lines[2].contains("Cycle/CalculateFluxes"));
        assert!(lines[3].starts_with("Cycle"));
        assert!(table.contains("load-imbalance"));
    }

    /// A trace with every shape the writer has: two rank processes, a
    /// labelled thread, spans that overlap on different tracks and abut
    /// on one, and flow arrows both ways.
    #[test]
    fn writer_round_trips_through_validator() {
        use crate::spans::FlowEvent;
        let mut w = TraceWriter::new(16);
        w.process(1, "rank 0");
        w.events(1, &sample_events());
        w.process(2, "rank 1");
        w.thread(2, 1, "rank1/stream0");
        w.span(2, 0, "Stage0::WaitUnpack", "region", 3_000, 2_000);
        w.span(2, 1, "CalculateFluxes", "kernel", 1_000, 6_000);
        // Begins exactly where the previous span on its track ends.
        w.span(2, 1, "UpdateVars", "kernel", 7_000, 500);
        w.span(2, 1, "empty", "kernel", 7_500, 0);
        w.flow(&FlowEvent {
            id: 42,
            name: "ghost",
            src_rank: 0,
            src_ts_ns: 2_500,
            dst_rank: 1,
            dst_ts_ns: 5_000,
        });
        w.flow(&FlowEvent {
            id: 43,
            name: "ghost",
            src_rank: 1,
            src_ts_ns: 3_000,
            dst_rank: 0,
            dst_ts_ns: 3_500,
        });
        let json = w.finish();
        let events = trace_events(&json);
        let start = &events[position(&events, "ghost", "s")];
        let finish = &events[position(&events, "ghost", "f")];
        assert_eq!(start.get("id"), Some(&Json::Num(42.0)));
        assert_eq!(start.get("bp"), None);
        assert_eq!(finish.get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(finish.get("pid"), Some(&Json::Num(2.0)));
        let label = &events[position(&events, "thread_name", "M")];
        assert_eq!(label.get("tid"), Some(&Json::Num(1.0)));
        assert!(json.contains("rank1/stream0"));
        let stats = in_any_layout(validate_trace, &json).unwrap();
        assert_eq!(stats, TraceStats { spans: 7, flows: 2 });
        // Without flows the validator still accepts the one-process trace.
        let plain = perfetto_trace_json(&sample_events(), "vibe-amr");
        let stats = in_any_layout(validate_trace, &plain).unwrap();
        assert_eq!(stats, TraceStats { spans: 3, flows: 0 });
    }

    /// One event wrapped in a document.
    fn doc(events: &[&str]) -> String {
        format!("{{\"traceEvents\":[\n{}\n]}}", events.join(",\n"))
    }

    #[test]
    fn validator_rejects_malformed_flows() {
        let s = |id: u32, name: &str, ts: f64| {
            format!("{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\"ts\":{ts:?},\"pid\":1,\"tid\":0}}")
        };
        let f = |id: u32, name: &str, ts: f64| {
            format!("{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{ts:?},\"pid\":2,\"tid\":0}}")
        };
        let rejects = |events: &[String], why: &str| {
            let events: Vec<&str> = events.iter().map(String::as_str).collect();
            let err = in_any_layout(validate_trace, &doc(&events)).unwrap_err();
            assert!(err.contains(why), "{err:?} does not say {why:?}");
        };
        rejects(&[f(1, "g", 2.0)], "no open 's'");
        rejects(&[s(1, "g", 2.0)], "never terminated");
        rejects(&[s(1, "g", 1.0), s(1, "g", 2.0)], "duplicate flow start");
        rejects(&[s(1, "g", 5.0), f(1, "g", 2.0)], "backwards");
        rejects(&[s(1, "g", 1.0), f(1, "h", 2.0)], "does not match");
        rejects(&[s(1, "g", -1.0), f(1, "g", 2.0)], "negative");
        let paired = doc(&[&s(1, "g", 1.0), &f(1, "g", 1.0)]);
        let stats = in_any_layout(validate_trace, &paired).unwrap();
        assert_eq!(stats, TraceStats { spans: 0, flows: 1 });
        // Not even valid JSON fails at the syntax layer first.
        assert!(in_any_layout(validate_trace, "{\"traceEvents\":[").is_err());
    }

    /// The async `b`/`e` pairs are no trace shape any more, and a span
    /// must not start before the epoch or end before it starts.
    #[test]
    fn validator_rejects_other_phases_and_negative_spans() {
        let x = |ts: &str, dur: &str| {
            format!("{{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":1}}")
        };
        let rejects = |event: &str, why: &str| {
            let err = in_any_layout(validate_trace, &doc(&[event])).unwrap_err();
            assert!(err.contains(why), "{err:?} does not say {why:?}");
        };
        for ph in ["b", "e", "B", "E", "i"] {
            let ev = format!("{{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"{ph}\",\"id\":\"0x1\",\"ts\":1.0,\"pid\":1,\"tid\":1}}");
            rejects(&ev, "is not one of");
        }
        rejects("{\"name\":\"k\",\"ts\":1.0}", "is not one of");
        rejects(&x("5.0", "-3.0"), "negative duration");
        rejects(&x("-1.0", "1.0"), "negative");
        rejects(&x("1.0", "null"), "numeric dur");
        rejects(&x("1.0", "1.0").replace("\"k\"", "7"), "string name");
        let label = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"p\"}}";
        let ok = in_any_layout(validate_trace, &doc(&[label, &x("0.0", "0.0")])).unwrap();
        assert_eq!(ok, TraceStats { spans: 1, flows: 0 });
    }

    #[test]
    fn job_metrics_jsonl_valid_and_scoped() {
        let rows = vec![
            JobCycleMetric {
                job: 3,
                cycle: 0,
                time: 0.0,
                dt: 1.25e-3,
                nblocks: 8,
                refined: 0,
                derefined: 0,
                wall_ns: 12_000,
            },
            JobCycleMetric {
                job: 3,
                cycle: 1,
                time: 1.25e-3,
                dt: 1.25e-3,
                nblocks: 15,
                refined: 1,
                derefined: 0,
                wall_ns: 9_500,
            },
            JobCycleMetric {
                job: 7,
                cycle: 4,
                time: 0.5,
                dt: f64::NAN,
                nblocks: 8,
                refined: 0,
                derefined: 7,
                wall_ns: 42,
            },
        ];
        let jsonl = job_metrics_jsonl(&rows);
        let parsed = parse_lines(&jsonl).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].get("job").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed[0].get("cycle").and_then(Json::as_u64), Some(0));
        assert_eq!(parsed[0].get("dt"), Some(&Json::Num(1.25e-3)));
        // Counters render as integers, not `15.0`.
        assert!(jsonl.lines().nth(1).unwrap().contains("\"nblocks\":15,"));
        assert_eq!(parsed[1].get("refined").and_then(Json::as_u64), Some(1));
        // Non-finite values degrade to null rather than corrupting the JSON.
        assert_eq!(parsed[2].get("dt"), Some(&Json::Null));
        assert!(job_metrics_jsonl(&[]).is_empty());
    }
}
