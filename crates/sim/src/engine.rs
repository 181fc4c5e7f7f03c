//! The discrete-event scheduling engine.
//!
//! Resources: one host thread per rank (serial sections, launch calls,
//! copy/post costs), a set of GPU stream queues (device execution slots
//! shared by all ranks — MPS time-slices ranks onto one device, so extra
//! ranks add no device throughput), one NIC/DMA channel per rank (remote
//! payload transfers), and an MPI progress engine that delivers a remote
//! message only when its transfer has completed *and* the receiving rank
//! polls for it.
//!
//! Scheduling is list-driven: each rank executes its cycle op stream in
//! order; the engine repeatedly advances the runnable rank with the
//! smallest host time. Receives become runnable once all expected sends
//! are posted (the receiver then idle-polls until the last arrival);
//! collectives are barriers over every rank.

use std::collections::{BTreeMap, HashMap};

use vibe_hwmodel::{CommCosts, GpuSpec};
use vibe_prof::StepFunction;

use crate::config::SimConfig;
use crate::timeline::{KernelLaunchStats, RankStats, SimCycle, SimReport, SimTimeline, Span};
use crate::workload::{Op, SimWorkload};

struct EngineState {
    host_t: Vec<f64>,
    nic_free: Vec<f64>,
    stream_free: Vec<f64>,
    /// Per-rank completion frontier of its own launched kernels.
    stream_done: Vec<f64>,
    busy: Vec<f64>,
    wait: Vec<f64>,
    idle: Vec<f64>,
    device_busy: f64,
    /// name → (launches, total exec seconds, total host launch seconds).
    kernels: BTreeMap<&'static str, (u64, f64, f64)>,
    timeline: SimTimeline,
}

impl EngineState {
    fn span(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        track: u32,
        start: f64,
        dur: f64,
    ) {
        self.timeline.spans.push(Span {
            name: name.into(),
            cat,
            track,
            start_s: start,
            dur_s: dur,
        });
    }

    /// Advances rank `r`'s host thread to `t`, recording the gap as `cat`
    /// (`wait` = blocked on device, `idle` = polling/barrier).
    fn advance_to(&mut self, r: usize, t: f64, cat: &'static str, label: &str) {
        if t > self.host_t[r] {
            let dur = t - self.host_t[r];
            self.span(label.to_string(), cat, r as u32, self.host_t[r], dur);
            match cat {
                "wait" => self.wait[r] += dur,
                _ => self.idle[r] += dur,
            }
            self.host_t[r] = t;
        }
    }

    /// Busy host work on rank `r` for `secs`.
    fn host_busy(&mut self, r: usize, secs: f64, name: impl Into<String>, cat: &'static str) {
        if secs > 0.0 {
            self.span(name, cat, r as u32, self.host_t[r], secs);
        }
        self.host_t[r] += secs;
        self.busy[r] += secs;
    }

    /// Synchronizes rank `r` with its outstanding kernels (no-op when the
    /// device frontier is behind the host).
    fn sync_device(&mut self, r: usize) {
        let t = self.stream_done[r];
        self.advance_to(r, t, "wait", "sync");
    }
}

/// Runs the workload on the configured resources, producing the summary
/// report and the full span timeline.
///
/// # Errors
///
/// Returns an error if the op streams deadlock (a receive whose matching
/// sends never execute) or if collective ops desynchronize across ranks —
/// both indicate an inconsistent workload, not a user error.
pub fn simulate(w: &SimWorkload, cfg: &SimConfig) -> Result<(SimReport, SimTimeline), String> {
    let ranks = w.ranks.max(1);
    let slots = cfg.device_slots();
    let lat = GpuSpec::H100.launch_latency;
    let batch = cfg.launch_batch.max(1) as u64;

    let mut tracks = Vec::new();
    for r in 0..ranks {
        tracks.push((r as u32, format!("rank{r}/host")));
    }
    for r in 0..ranks {
        tracks.push(((ranks + r) as u32, format!("rank{r}/nic")));
    }
    for s in 0..slots {
        tracks.push(((2 * ranks + s) as u32, format!("gpu/stream{s}")));
    }

    let mut st = EngineState {
        host_t: vec![0.0; ranks],
        nic_free: vec![0.0; ranks],
        stream_free: vec![0.0; slots],
        stream_done: vec![0.0; ranks],
        busy: vec![0.0; ranks],
        wait: vec![0.0; ranks],
        idle: vec![0.0; ranks],
        device_busy: 0.0,
        kernels: BTreeMap::new(),
        timeline: SimTimeline {
            spans: Vec::new(),
            tracks,
        },
    };

    let mut per_cycle = Vec::with_capacity(w.cycles.len());
    for cyc in &w.cycles {
        let cycle_start = st.host_t.iter().cloned().fold(0.0, f64::max);
        let mut idx = vec![0usize; ranks];
        // (dst, func) → arrival times of posted remote messages.
        let mut pending: HashMap<(usize, StepFunction), Vec<f64>> = HashMap::new();
        loop {
            // Pick the runnable rank with the smallest host time.
            let mut best: Option<usize> = None;
            let mut all_done = true;
            for r in 0..ranks {
                let Some(op) = cyc.per_rank[r].get(idx[r]) else {
                    continue;
                };
                all_done = false;
                let runnable = match op {
                    Op::RecvWait { func, expected } => pending
                        .get(&(r, *func))
                        .map_or(*expected == 0, |v| v.len() >= *expected as usize),
                    Op::Collective { .. } => (0..ranks).all(|q| {
                        matches!(cyc.per_rank[q].get(idx[q]), Some(Op::Collective { .. }))
                    }),
                    _ => true,
                };
                if runnable && best.is_none_or(|b| st.host_t[r] < st.host_t[b]) {
                    best = Some(r);
                }
            }
            if all_done {
                break;
            }
            let Some(r) = best else {
                return Err(format!(
                    "simulator deadlock in cycle {}: receives posted without matching sends",
                    cyc.cycle
                ));
            };
            let op = cyc.per_rank[r][idx[r]].clone();
            match op {
                Op::Serial { func, label, secs } => {
                    st.host_busy(r, secs, format!("{label}:{}", func.name()), "serial");
                }
                Op::KernelBatch {
                    name,
                    launches,
                    exec_each,
                    ..
                } => {
                    let entry = st.kernels.entry(name).or_insert((0, 0.0, 0.0));
                    entry.0 += launches;
                    entry.1 += launches as f64 * exec_each;
                    let mut remaining = launches;
                    while remaining > 0 {
                        let k = remaining.min(batch);
                        remaining -= k;
                        st.host_busy(r, lat, format!("launch:{name}"), "launch");
                        st.kernels.get_mut(name).expect("entry present").2 += lat;
                        // Earliest-free device slot.
                        let (s, free) = st
                            .stream_free
                            .iter()
                            .cloned()
                            .enumerate()
                            .min_by(|a, b| a.1.total_cmp(&b.1))
                            .expect("at least one slot");
                        let start = free.max(st.host_t[r]);
                        let dur = k as f64 * exec_each;
                        let track = (2 * ranks + s) as u32;
                        st.span(name, "kernel", track, start, dur);
                        st.stream_free[s] = start + dur;
                        st.device_busy += dur;
                        st.stream_done[r] = st.stream_done[r].max(start + dur);
                        if !cfg.overlap {
                            st.advance_to(r, start + dur, "wait", "sync");
                        }
                    }
                }
                Op::LocalCopy { func, bytes } => {
                    st.sync_device(r);
                    let secs = CommCosts::CALIBRATED.message_seconds(bytes, true, false);
                    st.host_busy(r, secs, format!("copy:{}", func.name()), "copy");
                }
                Op::RemoteSend { func, dst, bytes } => {
                    st.sync_device(r);
                    let post = CommCosts::CALIBRATED.message_host_seconds(false, false);
                    st.host_busy(r, post, format!("post:{}", func.name()), "post");
                    let transfer =
                        CommCosts::CALIBRATED.message_seconds(bytes, false, false) - post;
                    let start = st.nic_free[r].max(st.host_t[r]);
                    st.span(
                        format!("msg→rank{dst}"),
                        "nic",
                        (ranks + r) as u32,
                        start,
                        transfer,
                    );
                    st.nic_free[r] = start + transfer;
                    pending
                        .entry((dst, func))
                        .or_default()
                        .push(start + transfer);
                }
                Op::RecvWait { func, expected } => {
                    st.sync_device(r);
                    let arrivals = pending.remove(&(r, func)).unwrap_or_default();
                    debug_assert_eq!(arrivals.len(), expected as usize);
                    let last = arrivals.iter().cloned().fold(0.0, f64::max);
                    // The progress engine delivers at max(transfer end,
                    // poll time): the receiver idle-polls until then.
                    st.advance_to(r, last, "idle", &format!("poll:{}", func.name()));
                }
                Op::Collective { func, op, bytes } => {
                    // Barrier: every rank participates; verify the streams
                    // stayed aligned.
                    for (q, ops) in cyc.per_rank.iter().enumerate() {
                        match ops.get(idx[q]) {
                            Some(Op::Collective {
                                func: f2,
                                op: o2,
                                bytes: b2,
                            }) if *f2 == func && *o2 == op && *b2 == bytes => {}
                            other => {
                                return Err(format!(
                                    "collective desync in cycle {}: rank {q} at {other:?}",
                                    cyc.cycle
                                ));
                            }
                        }
                        st.sync_device(q);
                    }
                    let start = st.host_t.iter().cloned().fold(0.0, f64::max);
                    let dur = CommCosts::CALIBRATED.collective_seconds_one(ranks, bytes);
                    let label = format!("{op:?}:{}", func.name());
                    for (q, ix) in idx.iter_mut().enumerate() {
                        st.advance_to(q, start, "idle", "barrier");
                        st.host_busy(q, dur, label.clone(), "collective");
                        *ix += 1;
                    }
                    continue; // idx already advanced for all ranks
                }
            }
            idx[r] += 1;
        }
        // End of cycle: results must land before the next cycle begins.
        for r in 0..ranks {
            st.sync_device(r);
        }
        let cycle_end = st.host_t.iter().cloned().fold(0.0, f64::max);
        per_cycle.push(SimCycle {
            cycle: cyc.cycle,
            wall_s: cycle_end - cycle_start,
        });
    }

    let host_end = st.host_t.iter().cloned().fold(0.0, f64::max);
    let nic_end = st.nic_free.iter().cloned().fold(0.0, f64::max);
    let wall_s = host_end.max(nic_end);
    let per_rank = (0..ranks)
        .map(|r| RankStats {
            rank: r,
            busy_s: st.busy[r],
            wait_s: st.wait[r],
            idle_s: st.idle[r],
            wall_s: st.host_t[r],
        })
        .collect();
    let mut per_kernel: Vec<KernelLaunchStats> = st
        .kernels
        .iter()
        .map(|(&name, &(launches, exec, host))| KernelLaunchStats {
            name,
            launches,
            mean_exec_s: exec / launches.max(1) as f64,
            host_gap_s: host / launches.max(1) as f64,
        })
        .collect();
    per_kernel.sort_by_key(|k| std::cmp::Reverse(k.launches));
    let report = SimReport {
        wall_s,
        zone_cycles: w.zone_cycles,
        fom: if wall_s > 0.0 {
            w.zone_cycles as f64 / wall_s
        } else {
            0.0
        },
        per_rank,
        per_cycle,
        device_busy_s: st.device_busy,
        per_kernel,
    };
    Ok((report, st.timeline))
}
