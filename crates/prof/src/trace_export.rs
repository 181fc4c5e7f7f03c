//! Exporters for the measured-time profiler: Chrome/Perfetto
//! `trace_events` JSON, per-cycle JSONL metrics streams, a
//! TinyProfiler-style text summary, and offline validators for the
//! pairing rules of async and flow events. All JSON is built as
//! [`Json`] values and written or parsed by [`crate::json`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::functions::StepFunction;
use crate::json::{obj, parse, Json};
use crate::pool_stats::PoolStats;
use crate::regions::RegionTree;
use crate::spans::FlowEvent;
use crate::wallclock::{TraceEvent, WallCycleStats};

/// Sorts events for export: by tid, then start time, then *descending*
/// duration so an enclosing span precedes the spans it contains.
pub fn sort_events(events: &mut [TraceEvent]) {
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

/// Streams a `trace_events` document (the JSON Object Format, one event
/// per line): each event is built, written and dropped on its own, so an
/// export of N events never holds a whole-trace value.
struct TraceWriter {
    out: String,
    events: usize,
}

impl TraceWriter {
    /// Opens the document, sized for about `events` events.
    fn new(events: usize) -> Self {
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

    /// One process track: its name, then `events` as complete `X` spans.
    fn process(&mut self, pid: usize, label: &str, events: &[TraceEvent]) {
        self.label("process_name", pid, 0, label);
        let mut sorted = events.to_vec();
        sort_events(&mut sorted);
        for ev in &sorted {
            let fields = vec![
                ("cat", Json::Str(ev.cat.to_string())),
                ("ts", us(ev.ts_ns)),
                ("dur", us(ev.dur_ns)),
            ];
            self.event(ev.name, "X", pid, ev.tid, fields);
        }
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Renders a Chrome/Perfetto trace (the JSON Object Format with a
/// `traceEvents` array of complete `ph: "X"` events; timestamps in µs).
/// Open the result at `ui.perfetto.dev` or `chrome://tracing`.
pub fn perfetto_trace_json(events: &[TraceEvent], process_name: &str) -> String {
    let mut w = TraceWriter::new(events.len());
    w.process(1, process_name, events);
    w.finish()
}

/// Renders one Chrome/Perfetto trace for a rank-parallel run: each rank's
/// wall-clock stream becomes its own process track (`pid` = rank + 1,
/// named `rank N`), so concurrent shard timelines render side by side with
/// their per-rank worker threads nested under them.
pub fn perfetto_multirank_trace_json(ranks: &[(usize, Vec<TraceEvent>)]) -> String {
    perfetto_multirank_trace_with_flows_json(ranks, &[])
}

/// Renders the multi-rank trace plus Perfetto *flow* arrows (`ph:"s"` /
/// `ph:"f"` pairs, one per matched cross-rank message) linking the sending
/// rank's timeline to the receiving rank's. The flow id is the send's
/// globally unique sequence number; the terminating `f` event carries
/// `bp:"e"` so Perfetto binds the arrowhead to the enclosing span. Flow
/// timestamps must already be on the same epoch as the rank streams.
pub fn perfetto_multirank_trace_with_flows_json(
    ranks: &[(usize, Vec<TraceEvent>)],
    flows: &[FlowEvent],
) -> String {
    let spans: usize = ranks.iter().map(|(_, evs)| evs.len()).sum();
    let mut w = TraceWriter::new(spans + 2 * flows.len());
    for (rank, events) in ranks {
        w.process(rank + 1, &format!("rank {rank}"), events);
    }
    for f in flows {
        let end = |ts_ns: u64| {
            vec![
                ("cat", Json::Str("flow".to_string())),
                ("id", Json::Num(f.id as f64)),
                ("ts", us(ts_ns)),
            ]
        };
        w.event(f.name, "s", f.src_rank + 1, 0, end(f.src_ts_ns));
        let mut fields = end(f.dst_ts_ns);
        fields.push(("bp", Json::Str("e".to_string())));
        w.event(f.name, "f", f.dst_rank + 1, 0, fields);
    }
    w.finish()
}

/// One span on an async (overlap-capable) track: the Chrome `trace_events`
/// `"b"`/`"e"` pair representation used for simulator timelines, where one
/// track per rank/stream/NIC must render *concurrent* spans side by side
/// instead of the `ph: "X"` exporter's nested rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncSpan {
    /// Span label (kernel name, serial section, message, ...).
    pub name: String,
    /// Category string (e.g. `host`, `stream`, `nic`).
    pub cat: &'static str,
    /// Track id: becomes both the async `id` and the `tid`, so each
    /// resource renders as its own lane.
    pub track: u32,
    /// Start, ns since the simulation epoch.
    pub ts_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

impl AsyncSpan {
    /// End timestamp in ns.
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }
}

/// Renders async spans as a Chrome/Perfetto trace of `"b"`/`"e"` event
/// pairs. `tracks` names each track id (rendered as thread-name metadata,
/// e.g. `rank0/stream1`). Spans on one track must not overlap (each track
/// is one serially-occupied resource); spans on *different* tracks may
/// overlap freely — that is the point of the async representation.
pub fn perfetto_async_trace_json(
    spans: &[AsyncSpan],
    process_name: &str,
    tracks: &[(u32, String)],
) -> String {
    // Order events by time; at equal timestamps close before opening so a
    // back-to-back pair on one track stays balanced.
    let mut endpoints: Vec<(u64, u8, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        endpoints.push((s.ts_ns, 1, i));
        endpoints.push((s.end_ns(), 0, i));
    }
    endpoints.sort_by_key(|&(ts, phase, i)| (ts, phase, spans[i].track, i));

    let mut w = TraceWriter::new(endpoints.len());
    w.label("process_name", 1, 0, process_name);
    for (tid, label) in tracks {
        w.label("thread_name", 1, *tid, label);
    }
    for &(ts, phase, i) in &endpoints {
        let s = &spans[i];
        let fields = vec![
            ("cat", Json::Str(s.cat.to_string())),
            ("id", Json::Str(format!("0x{:x}", s.track))),
            ("ts", us(ts)),
        ];
        w.event(
            &s.name,
            if phase == 1 { "b" } else { "e" },
            1,
            s.track,
            fields,
        );
    }
    w.finish()
}

/// Statistics from a validated async trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncTraceStats {
    /// Matched `"b"`/`"e"` pairs.
    pub pairs: usize,
    /// Distinct async ids (tracks) seen.
    pub tracks: usize,
}

/// One event of an open/close pairing (`b`/`e` or `s`/`f`).
struct PairEvent<'a> {
    /// Position in `traceEvents`, for error messages.
    index: usize,
    opens: bool,
    /// The rendered `id` value (a string for async events, a number for
    /// flows).
    id: String,
    name: &'a str,
    ts: f64,
}

impl PairEvent<'_> {
    fn at(&self, msg: &str) -> String {
        format!("event {}: {msg}", self.index)
    }

    /// This closing event against the opening one it pairs with.
    fn check_close(&self, open_name: &str, open_ts: f64, order: &str) -> Result<(), String> {
        let id = &self.id;
        if open_name != self.name {
            let name = self.name;
            return Err(self.at(&format!(
                "closing name {name:?} does not match opening {open_name:?} on id {id}"
            )));
        }
        if self.ts < open_ts {
            let ts = self.ts;
            return Err(self.at(&format!(
                "{order}: closes at {ts} before opening at {open_ts} on id {id}"
            )));
        }
        Ok(())
    }
}

/// Every event of `doc.traceEvents` whose `ph` is `open` or `close`, in
/// document order, with the fields a pairing check needs.
fn pair_events<'a>(doc: &'a Json, open: &str, close: &str) -> Result<Vec<PairEvent<'a>>, String> {
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("no traceEvents array".to_string());
    };
    let mut out = Vec::new();
    for (index, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str);
        if ph != Some(open) && ph != Some(close) {
            continue;
        }
        let at = |msg: &str| format!("event {index}: {msg}");
        let id = ev.get("id").ok_or_else(|| at("paired event without id"))?;
        let name = ev.get("name").and_then(Json::as_str);
        let ts = ev.get("ts").and_then(Json::as_f64);
        let name = name.ok_or_else(|| at("paired event without a string name"))?;
        let ts = ts.ok_or_else(|| at("paired event without a numeric ts"))?;
        if ts < 0.0 {
            return Err(at(&format!("negative ts {ts}")));
        }
        out.push(PairEvent {
            index,
            opens: ph == Some(open),
            id: id.render(),
            name,
            ts,
        });
    }
    Ok(out)
}

/// Offline validation of an async trace produced by
/// [`perfetto_async_trace_json`], in any layout: parses the document, then
/// checks that every `"b"` has a matching `"e"` (same id, same name, in
/// order), that timestamps are non-negative and a pair never ends before
/// it starts, and that no event is left open.
pub fn validate_async_trace(json: &str) -> Result<AsyncTraceStats, String> {
    let doc = parse(json)?;
    let mut open: BTreeMap<String, Vec<(&str, f64)>> = BTreeMap::new();
    let mut pairs = 0usize;
    for ev in pair_events(&doc, "b", "e")? {
        let stack = open.entry(ev.id.clone()).or_default();
        if ev.opens {
            stack.push((ev.name, ev.ts));
            continue;
        }
        let (open_name, open_ts) = stack
            .pop()
            .ok_or_else(|| ev.at(&format!("'e' event with no open 'b' on id {}", ev.id)))?;
        ev.check_close(open_name, open_ts, "negative duration")?;
        pairs += 1;
    }
    if let Some((id, stack)) = open.iter().find(|(_, s)| !s.is_empty()) {
        let name = stack.last().expect("non-empty").0;
        return Err(format!("unclosed async event {name:?} on id {id}"));
    }
    Ok(AsyncTraceStats {
        pairs,
        tracks: open.len(),
    })
}

/// Statistics from a validated set of flow events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Matched `"s"` → `"f"` arrow pairs.
    pub flows: usize,
}

/// Offline validation of the flow events in a trace produced by
/// [`perfetto_multirank_trace_with_flows_json`], in any layout: parses the
/// document, then checks that every flow id carries exactly one `"s"` and
/// one `"f"` event (in that order), that names match within a pair, that
/// the terminating event does not precede the start, and that every
/// timestamp is non-negative. Traces without any flow events validate
/// with `flows == 0`.
pub fn validate_flow_events(json: &str) -> Result<FlowStats, String> {
    let doc = parse(json)?;
    let mut open: BTreeMap<String, (&str, f64)> = BTreeMap::new();
    let mut flows = 0usize;
    for ev in pair_events(&doc, "s", "f")? {
        if ev.opens {
            if open.insert(ev.id.clone(), (ev.name, ev.ts)).is_some() {
                return Err(ev.at(&format!("duplicate flow start on id {}", ev.id)));
            }
            continue;
        }
        let (open_name, open_ts) = open
            .remove(&ev.id)
            .ok_or_else(|| ev.at(&format!("'f' event with no open 's' on id {}", ev.id)))?;
        ev.check_close(open_name, open_ts, "flow runs backwards")?;
        flows += 1;
    }
    if let Some(id) = open.keys().next() {
        return Err(format!("flow start on id {id} never terminated"));
    }
    Ok(FlowStats { flows })
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

/// Measured inclusive wall time (ns) and call count per [`StepFunction`],
/// for side-by-side comparison against the hwmodel's modeled per-function
/// times.
pub fn measured_by_function(totals: &RegionTree) -> BTreeMap<StepFunction, (u64, u64)> {
    totals.by_step_function()
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

    #[test]
    fn measured_by_function_extracts_taxonomy() {
        let cycles = sample_cycles();
        let by = measured_by_function(&cycles[0].tree);
        assert_eq!(by[&crate::StepFunction::CalculateFluxes], (700, 1));
        assert_eq!(by.len(), 1);
    }

    fn sample_async_spans() -> Vec<AsyncSpan> {
        vec![
            AsyncSpan {
                name: "serial:FillDerived".into(),
                cat: "host",
                track: 0,
                ts_ns: 0,
                dur_ns: 4_000,
            },
            // Overlaps the host span above on a different track.
            AsyncSpan {
                name: "CalculateFluxes".into(),
                cat: "stream",
                track: 1,
                ts_ns: 1_000,
                dur_ns: 6_000,
            },
            // Back-to-back on track 1: begins exactly where the previous
            // span ends, exercising e-before-b ordering at equal ts.
            AsyncSpan {
                name: "UpdateVars".into(),
                cat: "stream",
                track: 1,
                ts_ns: 7_000,
                dur_ns: 500,
            },
        ]
    }

    #[test]
    fn async_trace_round_trips_through_validator() {
        let spans = sample_async_spans();
        let tracks = vec![
            (0, "rank0/host".to_string()),
            (1, "rank0/stream0".to_string()),
        ];
        let json = perfetto_async_trace_json(&spans, "vibe-sim", &tracks);
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"id\":\"0x1\""));
        assert!(json.contains("rank0/stream0"));
        let stats = in_any_layout(validate_async_trace, &json).unwrap();
        assert_eq!(stats.pairs, 3);
        assert_eq!(stats.tracks, 2);
        // The 'e' closing UpdateVars's predecessor must precede its 'b'.
        let events = trace_events(&json);
        assert!(position(&events, "CalculateFluxes", "e") < position(&events, "UpdateVars", "b"));
    }

    #[test]
    fn multirank_trace_with_flows_round_trips_through_validator() {
        use crate::spans::FlowEvent;
        let ranks = vec![
            (0usize, sample_events()),
            (
                1usize,
                vec![TraceEvent {
                    name: "Stage0::WaitUnpack",
                    cat: "region",
                    ts_ns: 3_000,
                    dur_ns: 2_000,
                    tid: 0,
                }],
            ),
        ];
        let flows = vec![
            FlowEvent {
                id: 42,
                name: "ghost",
                src_rank: 0,
                src_ts_ns: 2_500,
                dst_rank: 1,
                dst_ts_ns: 5_000,
            },
            FlowEvent {
                id: 43,
                name: "ghost",
                src_rank: 1,
                src_ts_ns: 3_000,
                dst_rank: 0,
                dst_ts_ns: 3_500,
            },
        ];
        let json = perfetto_multirank_trace_with_flows_json(&ranks, &flows);
        let events = trace_events(&json);
        let start = &events[position(&events, "ghost", "s")];
        let finish = &events[position(&events, "ghost", "f")];
        assert_eq!(start.get("id"), Some(&Json::Num(42.0)));
        assert_eq!(start.get("bp"), None);
        assert_eq!(finish.get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(finish.get("pid"), Some(&Json::Num(2.0)));
        let stats = in_any_layout(validate_flow_events, &json).unwrap();
        assert_eq!(stats.flows, 2);
        // Without flows the validator still accepts the plain trace.
        let plain = perfetto_multirank_trace_json(&ranks);
        assert_eq!(
            in_any_layout(validate_flow_events, &plain).unwrap().flows,
            0
        );
    }

    #[test]
    fn flow_validator_rejects_malformed_pairings() {
        let orphan_f = "{\"traceEvents\":[\n{\"name\":\"g\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":2.0,\"pid\":1,\"tid\":0}\n]}";
        assert!(in_any_layout(validate_flow_events, orphan_f)
            .unwrap_err()
            .contains("no open 's'"));

        let dangling_s = "{\"traceEvents\":[\n{\"name\":\"g\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":2.0,\"pid\":1,\"tid\":0}\n]}";
        assert!(in_any_layout(validate_flow_events, dangling_s)
            .unwrap_err()
            .contains("never terminated"));

        let dup_s = "{\"traceEvents\":[\n{\"name\":\"g\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":1.0,\"pid\":1,\"tid\":0},\n{\"name\":\"g\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":2.0,\"pid\":1,\"tid\":0}\n]}";
        assert!(in_any_layout(validate_flow_events, dup_s)
            .unwrap_err()
            .contains("duplicate flow start"));

        let backwards = "{\"traceEvents\":[\n{\"name\":\"g\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":5.0,\"pid\":1,\"tid\":0},\n{\"name\":\"g\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":2.0,\"pid\":2,\"tid\":0}\n]}";
        assert!(in_any_layout(validate_flow_events, backwards)
            .unwrap_err()
            .contains("backwards"));

        let name_mismatch = "{\"traceEvents\":[\n{\"name\":\"g\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":1.0,\"pid\":1,\"tid\":0},\n{\"name\":\"h\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":2.0,\"pid\":2,\"tid\":0}\n]}";
        assert!(in_any_layout(validate_flow_events, name_mismatch)
            .unwrap_err()
            .contains("does not match"));

        assert!(in_any_layout(validate_flow_events, "{\"traceEvents\":[").is_err());
    }

    #[test]
    fn async_validator_rejects_malformed_pairings() {
        let unclosed = "{\"traceEvents\":[\n{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"b\",\"id\":\"0x1\",\"ts\":1.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(in_any_layout(validate_async_trace, unclosed)
            .unwrap_err()
            .contains("unclosed"));

        let orphan_end = "{\"traceEvents\":[\n{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"e\",\"id\":\"0x1\",\"ts\":1.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(in_any_layout(validate_async_trace, orphan_end)
            .unwrap_err()
            .contains("no open 'b'"));

        let name_mismatch = "{\"traceEvents\":[\n{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"b\",\"id\":\"0x1\",\"ts\":1.0,\"pid\":1,\"tid\":1},\n{\"name\":\"j\",\"cat\":\"s\",\"ph\":\"e\",\"id\":\"0x1\",\"ts\":2.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(in_any_layout(validate_async_trace, name_mismatch)
            .unwrap_err()
            .contains("does not match"));

        let negative_dur = "{\"traceEvents\":[\n{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"b\",\"id\":\"0x1\",\"ts\":5.0,\"pid\":1,\"tid\":1},\n{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"e\",\"id\":\"0x1\",\"ts\":2.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(in_any_layout(validate_async_trace, negative_dur)
            .unwrap_err()
            .contains("negative duration"));

        let negative_ts = "{\"traceEvents\":[\n{\"name\":\"k\",\"cat\":\"s\",\"ph\":\"b\",\"id\":\"0x1\",\"ts\":-1.0,\"pid\":1,\"tid\":1}\n]}";
        assert!(in_any_layout(validate_async_trace, negative_ts)
            .unwrap_err()
            .contains("negative"));

        // Not even valid JSON fails at the syntax layer first.
        assert!(in_any_layout(validate_async_trace, "{\"traceEvents\":[").is_err());
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
