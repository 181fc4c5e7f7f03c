//! The benchmark's own span recorder. Every call the harness makes into a
//! layer sits inside a span (name, start, end, parent, workload); spans
//! stay in memory and are written as a Perfetto `trace_events` file when
//! the run ends. Spans *inside* the crates are a later issue.
//!
//! The harness drives every layer from one thread, so the recorder is a
//! plain stack. With tracing off `begin`/`end` still time (two clock reads)
//! but store nothing, so the traced and untraced runs share one code path.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::json_str;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
pub struct Open {
    name: &'static str,
    index: Option<usize>,
    started: Instant,
}

pub struct Tracer {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Duration in seconds of the most recently closed span of each name.
    last: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Self {
        Self {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            last: BTreeMap::new(),
        }
    }

    /// A recorder that stores nothing, for code running off the harness
    /// thread (rank replicas are built inside the runtime's own threads).
    pub fn off() -> Self {
        Self::new(false, "")
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            name,
            index,
            started,
        }
    }

    /// Closes the span and returns its duration in seconds — the number
    /// the metrics are computed from, traced or not.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = now.duration_since(self.epoch).as_nanos() as u64;
            // Spans close in LIFO order; anything opened inside and leaked
            // by an early return is closed with its parent.
            while let Some(top) = self.stack.pop() {
                if top == i {
                    break;
                }
                self.spans[top].end_ns = self.spans[i].end_ns;
            }
        }
        let seconds = now.duration_since(open.started).as_secs_f64();
        self.last.insert(open.name, seconds);
        seconds
    }

    /// Seconds the most recently closed span called `name` took (0 if none
    /// has closed).
    pub fn last(&self, name: &str) -> f64 {
        self.last.get(name).copied().unwrap_or(0.0)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (calls, inclusive ns, self ns). Self time is the
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_cover[i]);
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, inc, slf))| (n, c, inc, slf))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.3));
        rows
    }

    /// One Perfetto complete event (`ph: X`) per span, one per line, without
    /// the enclosing array — `benchmark all` joins the lines of several
    /// runs into one `trace.json`, one process track per workload.
    pub fn perfetto_events(&self, pid: usize) -> Vec<String> {
        let mut lines = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(&format!("benchmark {}", self.workload))
        )];
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            lines.push(format!(
                "{{\"name\":{},\"cat\":\"harness\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":0,\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"workload\":{}}}}}",
                json_str(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                json_str(&self.workload),
            ));
        }
        lines
    }
}

/// Wraps event lines (from one or more runs) into a Perfetto JSON document.
pub fn perfetto_document(event_lines: &[String]) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        event_lines.join(",\n")
    )
}
