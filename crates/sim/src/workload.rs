//! Converts a recorded functional-simulation workload into per-cycle,
//! per-rank operation streams for the discrete-event engine.
//!
//! Quantities come from the [`vibe_prof::Recorder`]'s per-cycle counters
//! (kernel launches/cells/flops/bytes, typed serial work); every message
//! and collective comes from the [`vibe_comm`] ordered event log of the
//! same run, so individual sends land on the rank that actually issued
//! them. Costs come from the `vibe-hwmodel` calibration the analytic model
//! reads. Operations are emitted in the function order
//! derived from the driver's own cycle task graph
//! ([`vibe_core::cycle_task_graph`]), so the simulator replays a cycle in
//! the same stage order the driver executes it.

use std::collections::BTreeMap;

use vibe_comm::{CommEvent, CommEventKind};
use vibe_hwmodel::gpu::descriptor_for;
use vibe_hwmodel::platform::gpu_sharing_seconds;
use vibe_hwmodel::{launch_exec_seconds, GpuSpec, SerialCosts};
use vibe_prof::{CollectiveOp, Recorder, StepFunction};

use crate::config::SimConfig;

/// One schedulable operation on a rank's host thread.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Serial host work (management loops, sorts, allocations).
    Serial {
        /// Function attribution.
        func: StepFunction,
        /// Span label in the timeline.
        label: &'static str,
        /// Host seconds.
        secs: f64,
    },
    /// A batch of identical kernel launches for one kernel.
    KernelBatch {
        /// Function attribution.
        func: StepFunction,
        /// Kernel name (descriptor catalog key).
        name: &'static str,
        /// Number of launches.
        launches: u64,
        /// Device execution seconds of each launch (no launch latency).
        exec_each: f64,
    },
    /// Same-rank boundary copy: host bandwidth, no NIC involvement.
    LocalCopy {
        /// Function attribution.
        func: StepFunction,
        /// Payload size.
        bytes: u64,
    },
    /// Remote send: host pays posting latency, the payload occupies the
    /// rank's NIC/DMA channel, and the message arrives at the receiver no
    /// earlier than the transfer completes *and* the receiver polls.
    RemoteSend {
        /// Function attribution.
        func: StepFunction,
        /// Destination rank.
        dst: usize,
        /// Payload size.
        bytes: u64,
    },
    /// Wait until `expected` remote messages for `func` have been
    /// delivered to this rank (the MPI progress engine: delivery happens
    /// at max(transfer completion, poll time)).
    RecvWait {
        /// Function attribution.
        func: StepFunction,
        /// Remote messages that must arrive.
        expected: u32,
    },
    /// A collective over all ranks (barrier semantics).
    Collective {
        /// Function attribution.
        func: StepFunction,
        /// Which collective.
        op: CollectiveOp,
        /// Total payload moved.
        bytes: u64,
    },
}

/// One simulated cycle: an ordered op stream per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleOps {
    /// Cycle id (matches the recorder's cycle numbering).
    pub cycle: u64,
    /// `per_rank[r]` is rank `r`'s ordered op stream.
    pub per_rank: Vec<Vec<Op>>,
}

/// The full workload handed to the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimWorkload {
    /// Simulated ranks.
    pub ranks: usize,
    /// Cycles in execution order.
    pub cycles: Vec<CycleOps>,
    /// Zone-cycles processed (for the figure of merit).
    pub zone_cycles: u64,
}

/// The per-cycle function replay order: the [`StepFunction`]s the nodes of
/// the driver's cycle graph ([`vibe_core::cycle_task_graph`]) attribute,
/// walked in table order (every dependency points at an earlier row) and
/// first-occurrence-deduped, then any functions the graph does not mention
/// in [`StepFunction::all`] order (so recorded work with no task
/// attribution — e.g. `Other` — is still replayed).
fn func_order() -> Vec<StepFunction> {
    let graph = vibe_core::cycle_task_graph();
    let attributed = graph.iter().flat_map(|n| n.funcs);
    let mut seen = Vec::new();
    for &f in attributed.chain(StepFunction::all()) {
        if !seen.contains(&f) {
            seen.push(f);
        }
    }
    seen
}

impl SimWorkload {
    /// Builds the workload from a recorder and the ordered comm event log
    /// of the same run, each cycle's functions in the order of the driver's
    /// own cycle graph. Events carrying the initialization sentinel cycle
    /// (`u64::MAX`) or ranks outside `cfg.ranks` are dropped.
    ///
    /// # Panics
    ///
    /// If a recorded cycle has communication but `events` has none for it:
    /// the run was recorded without `DriverParams::capture_comm_events`.
    pub fn from_recorded(rec: &Recorder, events: &[CommEvent], cfg: &SimConfig) -> Self {
        let ranks = cfg.ranks.max(1);
        let order = func_order();

        // Group comm events by cycle, dropping initialization work.
        let mut by_cycle: BTreeMap<u64, Vec<&CommEvent>> = BTreeMap::new();
        for ev in events {
            if ev.cycle != u64::MAX {
                by_cycle.entry(ev.cycle).or_default().push(ev);
            }
        }

        let mut cycles = Vec::with_capacity(rec.cycles().len());
        for stats in rec.cycles() {
            let mut per_rank: Vec<Vec<Op>> = vec![Vec::new(); ranks];
            // GPU-sharing host overhead, charged once per rank per cycle.
            let secs = gpu_sharing_seconds(ranks);
            if secs > 0.0 {
                for ops in &mut per_rank {
                    ops.push(Op::Serial {
                        func: StepFunction::ReceiveBoundBufs,
                        label: "gpu-sharing-overhead",
                        secs,
                    });
                }
            }
            let cycle_events = by_cycle.get(&stats.cycle).map_or(&[][..], Vec::as_slice);
            assert!(
                !cycle_events.is_empty() || stats.comm.is_empty(),
                "cycle {} recorded communication but no message events: \
                 record the run with DriverParams::capture_comm_events",
                stats.cycle
            );
            for &func in &order {
                // Serial host work: each rank executes its Amdahl share.
                if let Some(s) = stats.serial.get(&func) {
                    let secs = SerialCosts::CALIBRATED.wall_seconds(s, ranks);
                    if secs > 0.0 {
                        for ops in &mut per_rank {
                            ops.push(Op::Serial {
                                func,
                                label: "serial",
                                secs,
                            });
                        }
                    }
                }
                // Kernel launches: split across ranks, identical per-launch
                // execution time derived from the cycle's aggregate counts.
                // With `per_block_launches` each recorded pack-level launch
                // fans out into one launch per mesh block.
                for ((f, name), k) in &stats.kernels {
                    if *f != func || k.launches == 0 {
                        continue;
                    }
                    let total = if cfg.per_block_launches {
                        k.launches * stats.nblocks.max(1)
                    } else {
                        k.launches
                    };
                    let n = total as f64;
                    let exec_each = launch_exec_seconds(
                        descriptor_for(name),
                        &GpuSpec::H100,
                        cfg.block_cells,
                        k.cells as f64 / n,
                        k.flops as f64 / n,
                        k.bytes as f64 / n,
                    );
                    let base = total / ranks as u64;
                    let rem = (total % ranks as u64) as usize;
                    for (r, ops) in per_rank.iter_mut().enumerate() {
                        let launches = base + u64::from(r < rem);
                        if launches > 0 {
                            ops.push(Op::KernelBatch {
                                func,
                                name,
                                launches,
                                exec_each,
                            });
                        }
                    }
                }
                // Communication: replay the event log.
                let mut expected = vec![0u32; ranks];
                for ev in cycle_events.iter().filter(|ev| ev.func == func) {
                    match ev.kind {
                        CommEventKind::Send {
                            src,
                            dst,
                            bytes,
                            local,
                            ..
                        } => {
                            if src >= ranks || dst >= ranks {
                                continue;
                            }
                            if local {
                                per_rank[src].push(Op::LocalCopy { func, bytes });
                            } else {
                                per_rank[src].push(Op::RemoteSend { func, dst, bytes });
                                expected[dst] += 1;
                            }
                        }
                        CommEventKind::Collective { op, bytes } => {
                            for ops in &mut per_rank {
                                ops.push(Op::Collective { func, op, bytes });
                            }
                        }
                        CommEventKind::Complete => {}
                    }
                }
                for (r, &n) in expected.iter().enumerate() {
                    if n > 0 {
                        per_rank[r].push(Op::RecvWait { func, expected: n });
                    }
                }
            }
            cycles.push(CycleOps {
                cycle: stats.cycle,
                per_rank,
            });
        }
        Self {
            ranks,
            cycles,
            zone_cycles: rec.totals().cell_updates,
        }
    }
}
