//! Simulated timelines: per-resource spans, per-rank idle/overlap
//! accounting, and export through the one Perfetto trace writer.

use vibe_prof::TraceWriter;

/// One occupied interval on a simulated resource track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Label (kernel name, `serial`, `poll`, ...).
    pub name: String,
    /// Category: `serial`, `launch`, `kernel`, `copy`, `post`, `nic`,
    /// `wait`, `idle`, `collective`.
    pub cat: &'static str,
    /// Track id (see [`SimTimeline::tracks`]).
    pub track: u32,
    /// Start, seconds since simulation start.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
}

/// The full simulated timeline: spans over named resource tracks
/// (`rank{r}/host`, `rank{r}/nic`, `gpu/stream{s}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTimeline {
    /// All spans, in emission order.
    pub spans: Vec<Span>,
    /// Track id → human-readable lane name.
    pub tracks: Vec<(u32, String)>,
}

impl SimTimeline {
    /// Renders the timeline through the one trace writer: a process named
    /// `process_name`, a `thread_name` label per track, and every span as
    /// an `X` span on `tid = track`, so each resource is its own lane.
    /// The absolute endpoints are rounded to ns, not the duration, so two
    /// spans that abut in seconds abut in the trace.
    pub fn trace_json(&self, process_name: &str) -> String {
        let mut w = TraceWriter::new(self.tracks.len() + self.spans.len());
        w.process(1, process_name);
        for (tid, label) in &self.tracks {
            w.thread(1, *tid, label);
        }
        for s in &self.spans {
            let ts_ns = (s.start_s * 1e9).round() as u64;
            let end_ns = ((s.start_s + s.dur_s) * 1e9).round() as u64;
            w.span(
                1,
                s.track,
                &s.name,
                s.cat,
                ts_ns,
                end_ns.saturating_sub(ts_ns),
            );
        }
        w.finish()
    }

    /// Checks every span for NaN/negative start or duration, every track
    /// reference for a registered name, and that spans on one track never
    /// overlap: a track is one serially occupied resource.
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            if !s.start_s.is_finite() || s.start_s < 0.0 {
                return Err(format!("span {:?} has bad start {}", s.name, s.start_s));
            }
            if !s.dur_s.is_finite() || s.dur_s < 0.0 {
                return Err(format!("span {:?} has bad duration {}", s.name, s.dur_s));
            }
            if !self.tracks.iter().any(|(id, _)| *id == s.track) {
                return Err(format!(
                    "span {:?} on unregistered track {}",
                    s.name, s.track
                ));
            }
        }
        let mut by_track: Vec<&Span> = self.spans.iter().collect();
        by_track.sort_by(|a, b| {
            (a.track.cmp(&b.track))
                .then(a.start_s.total_cmp(&b.start_s))
                .then(a.dur_s.total_cmp(&b.dur_s))
        });
        for pair in by_track.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.track == b.track && b.start_s < a.start_s + a.dur_s {
                return Err(format!(
                    "span {:?} starts at {} s, inside {:?} ({} s + {} s) on track {}",
                    b.name, b.start_s, a.name, a.start_s, a.dur_s, a.track
                ));
            }
        }
        Ok(())
    }
}

/// Per-rank host-thread accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Seconds doing useful host work (serial sections, launch calls,
    /// local copies, send posting).
    pub busy_s: f64,
    /// Seconds blocked waiting on the device (synchronous launches or
    /// pre-communication synchronization).
    pub wait_s: f64,
    /// Seconds idle-polling the progress engine or stalled at barriers.
    pub idle_s: f64,
    /// Total host-thread seconds (end of last op).
    pub wall_s: f64,
}

impl RankStats {
    /// Fraction of the rank's wall time not doing useful host work.
    pub fn idle_fraction(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            (self.wait_s + self.idle_s) / self.wall_s
        }
    }
}

/// Per-kernel launch-overhead accounting (the launch-latency-bound
/// detector of §VIII-C: at small block sizes the host-side gap per launch
/// meets or exceeds the kernel's own execution time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelLaunchStats {
    /// Kernel name.
    pub name: &'static str,
    /// Total launches simulated.
    pub launches: u64,
    /// Mean device execution seconds per launch.
    pub mean_exec_s: f64,
    /// Host-side seconds per launch (launch latency amortized over
    /// batching).
    pub host_gap_s: f64,
}

impl KernelLaunchStats {
    /// `true` when the host gap per launch is at least the kernel's own
    /// execution time — the kernel is launch-latency-bound.
    pub fn launch_bound(&self) -> bool {
        self.host_gap_s >= self.mean_exec_s
    }
}

/// Wall time of one simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCycle {
    /// Cycle id.
    pub cycle: u64,
    /// Seconds from cycle start (max rank position at entry) to cycle end
    /// (max rank position after all ops and stream drain).
    pub wall_s: f64,
}

/// The simulator's summary report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end wall seconds (host threads, streams, and NICs drained).
    pub wall_s: f64,
    /// Zone-cycles processed.
    pub zone_cycles: u64,
    /// Figure of merit: zone-cycles per second.
    pub fom: f64,
    /// Per-rank host accounting.
    pub per_rank: Vec<RankStats>,
    /// Per-cycle wall times.
    pub per_cycle: Vec<SimCycle>,
    /// Total device-busy seconds across all streams.
    pub device_busy_s: f64,
    /// Per-kernel launch-overhead accounting, by descending launches.
    pub per_kernel: Vec<KernelLaunchStats>,
}

impl SimReport {
    /// Device utilization: busy seconds over wall seconds (can exceed 1
    /// only with multiple concurrent streams, where it counts stream-
    /// seconds).
    pub fn device_utilization(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.device_busy_s / self.wall_s
        }
    }

    /// Checks the report for NaN/negative quantities and idle fractions
    /// outside [0, 1] — the CI gate for `sim_timeline` runs.
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |v: f64, what: &str| {
            if !v.is_finite() || v < 0.0 {
                Err(format!("{what} is {v}"))
            } else {
                Ok(())
            }
        };
        finite_nonneg(self.wall_s, "wall_s")?;
        finite_nonneg(self.fom, "fom")?;
        finite_nonneg(self.device_busy_s, "device_busy_s")?;
        for r in &self.per_rank {
            finite_nonneg(r.busy_s, "rank busy_s")?;
            finite_nonneg(r.wait_s, "rank wait_s")?;
            finite_nonneg(r.idle_s, "rank idle_s")?;
            finite_nonneg(r.wall_s, "rank wall_s")?;
            let f = r.idle_fraction();
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("rank {} idle fraction {f} outside [0,1]", r.rank));
            }
        }
        for c in &self.per_cycle {
            finite_nonneg(c.wall_s, "cycle wall_s")?;
        }
        for k in &self.per_kernel {
            finite_nonneg(k.mean_exec_s, "kernel mean_exec_s")?;
            finite_nonneg(k.host_gap_s, "kernel host_gap_s")?;
        }
        Ok(())
    }
}
