//! The per-layer report of a traced run: the main run's program-reported
//! numbers and exact counts, the probes of `probes.rs` on the workload's
//! end state, and short untraced reference runs of the same problem for
//! the efficiency and overhead ratios.
//!
//! Where a workload bypasses a layer, that layer's *program-reported*
//! entries are 0; its probes still run, on the workload's problem, so a
//! layer's cost per operation is known on every workload.

use vibe_amr::core::{Driver, DynPackage};
use vibe_amr::prof::StepFunction;

use crate::probes;
use crate::problem::{Geometry, Problem};
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::util::median;
use crate::workloads::{
    self, job_config, start_session, Checks, Facts, MainRun, RtFacts, Scale, JOB_TOL,
};

/// The step functions reported by name; the rest of the cycle is `other`.
const STEPS: [(&str, StepFunction); 8] = [
    ("CalculateFluxes", StepFunction::CalculateFluxes),
    ("FluxDivergence", StepFunction::FluxDivergence),
    ("FluxCorrection", StepFunction::FluxCorrection),
    ("SendBoundBufs", StepFunction::SendBoundBufs),
    ("SetBounds", StepFunction::SetBounds),
    ("ReceiveBoundBufs", StepFunction::ReceiveBoundBufs),
    ("UpdateMeshBlockTree", StepFunction::UpdateMeshBlockTree),
    ("RefinementTag", StepFunction::RefinementTag),
];

/// 3 warm-up + 6 timed cycles: long enough for a median, short enough to
/// run three of them beside the main run.
const SHORT: Scale = Scale {
    warm: 3,
    min_ops: 6,
    seconds: 0.0,
    setups: 1,
    mini: false,
};

fn region_ns(facts: &Facts, name: &str) -> f64 {
    facts
        .regions
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, ns)| *ns as f64)
}

/// An untraced 2-rank session of `p`: start, warm-up, timed cycles, one
/// checkpoint, finish. Returns (fom, start ms, checkpoint ms, finish ms).
fn session_reference(p: &Problem, checks: &mut Checks, tr: &mut Tracer) -> (f64, f64, f64, f64) {
    let span = tr.begin("probe.rt.session");
    let (mut session, start_s) = start_session(p, Geometry::plain(2, 1), checks, tr);
    let cells = p.cells_per_block() as f64;
    let mut foms = Vec::new();
    for i in 0..SHORT.warm + SHORT.min_ops {
        let s = tr.begin("rt.run");
        let out = session.run(1);
        let w = tr.end(s);
        match out {
            Ok(v) if v.len() == 1 && i >= SHORT.warm => foms.push(v[0].nblocks as f64 * cells / w),
            Ok(_) => {}
            Err(e) => {
                checks.op(false, || format!("reference session failed: {e}"));
                break;
            }
        }
    }
    let s = tr.begin("rt.checkpoint");
    let snap = session.checkpoint();
    let checkpoint_s = tr.end(s);
    checks.op(snap.is_ok(), || {
        "reference session checkpoint failed".into()
    });
    drop(snap);
    let s = tr.begin("rt.finish");
    let finished = session.finish();
    let finish_s = tr.end(s);
    checks.op(finished.is_ok(), || {
        "reference session finish failed".into()
    });
    tr.end(span);
    (
        median(&foms),
        start_s * 1e3,
        checkpoint_s * 1e3,
        finish_s * 1e3,
    )
}

/// Fills every per-layer metric. `driver` is the main run's end state on
/// the single-driver workloads; the others get a short profiled serial run
/// of their problem to probe.
pub fn report(
    m: &mut Metrics,
    workload: &str,
    amr: &Problem,
    main: &mut MainRun,
    driver: Option<Driver<DynPackage>>,
    tr: &mut Tracer,
) {
    let serve = workload == "serve-mix";
    // W: the problem the probes work on.
    let p = if serve {
        Problem::of_job(&job_config("burgers", JOB_TOL))
    } else {
        amr.clone()
    };
    let checks = &mut main.checks;

    // The probe driver and the facts the `core`/count entries come from.
    let (d, mut facts): (Driver<DynPackage>, Facts) = match driver {
        Some(d) => (d, main.facts.clone()),
        None => {
            let span = tr.begin("probe.core.serial_profiled");
            let (aux, d) = workloads::run_driver(&p, 1, &SHORT, true, tr);
            tr.end(span);
            checks.attempted += aux.checks.attempted;
            checks.failed += aux.checks.failed;
            checks.notes.extend(aux.checks.notes);
            // serve-mix never steps a driver itself: its `core` numbers
            // are those of its job shape run directly. b16-r2 reports its
            // own session's numbers and only borrows the end state.
            let facts = if serve {
                Facts {
                    serve: main.facts.serve,
                    ..aux.facts
                }
            } else {
                main.facts.clone()
            };
            (d, facts)
        }
    };

    // -- untraced references on the same problem -------------------------
    let span = tr.begin("probe.reference_runs");
    let (t1, _) = workloads::run_driver(&p, 1, &SHORT, false, tr);
    let (t2, _) = workloads::run_driver(&p, 2, &SHORT, false, tr);
    tr.end(span);
    let (fom_t1, fom_t2) = (t1.facts.fom, t2.facts.fom);
    let (fom_r2, start_ms, checkpoint_ms, finish_ms) = session_reference(&p, checks, tr);
    let rt: RtFacts = match facts.rt.take() {
        Some(rt) => rt,
        None => {
            // Attribution needs span capture: one more short session.
            let span = tr.begin("probe.rt.attribution");
            let run = workloads::run_session(&p, &SHORT, true, tr);
            tr.end(span);
            run.facts.rt.unwrap_or_default()
        }
    };
    let untraced_fom = match workload {
        "b8-deep-t2" => fom_t2,
        "b16-r2" => fom_r2,
        _ => fom_t1,
    };
    // serve-mix has no program profiler of its own to switch on (the
    // service builds its drivers); its overhead is that of its job shape
    // stepped directly with the profiler at Full.
    let traced_fom = facts.fom;
    m.set("prof.traced_overhead_frac", 1.0 - traced_fom / untraced_fom);
    m.set("prof.export_ms", facts.export_ms);
    m.set("prof.trace_mib", facts.trace_mib);
    m.set("exec.thread_eff_t2", fom_t2 / (2.0 * fom_t1));
    m.set("rt.scaling_eff_r2", fom_r2 / (2.0 * fom_t1));
    m.set("rt.session_start_ms", start_ms);
    m.set("rt.checkpoint_ms", checkpoint_ms);
    m.set("rt.finish_ms", finish_ms);
    m.set("rt.rank_wall_skew_frac", rt.rank_wall_skew_frac);
    for bucket in [
        "compute",
        "pack_serialization",
        "late_sender",
        "collective_imbalance",
        "migration_stall",
        "idle",
    ] {
        let share = rt
            .attr
            .iter()
            .find(|(n, _)| *n == bucket)
            .map_or(0.0, |x| x.1);
        m.set(&format!("rt.attr.{bucket}_frac"), share);
    }

    // -- program-reported shares and exact counts of the main run --------
    // "Cycle" is the driver's own name for its whole-cycle region.
    let cycle_ns = region_ns(&facts, "Cycle").max(1.0);
    let flux_ns = region_ns(&facts, StepFunction::CalculateFluxes.name());
    let mut listed = 0.0;
    for (label, step) in STEPS {
        let share = region_ns(&facts, step.name()) / cycle_ns;
        listed += share;
        m.set(&format!("core.step.{label}_frac"), share);
    }
    m.set("core.step.other_frac", (1.0 - listed).max(0.0));
    m.set("core.overlap_frac", facts.overlap_frac);
    m.set("core.initialize_ms", facts.initialize_ms);
    m.set("core.first_cycle_ms", facts.first_cycle_ms);
    m.set("core.cycle_ms_p50", facts.cycle_ms_p50);
    m.set("core.cycle_ms_max", facts.cycle_ms_max);
    m.set("exec.pool_utilization", facts.pool_utilization);
    m.set("exec.load_imbalance", facts.load_imbalance);
    m.set("mesh.blocks", facts.counts.blocks);
    m.set("field.ghost_cells_per_cycle", facts.counts.ghost_cells);
    m.set("comm.msgs_per_cycle", facts.counts.msgs);
    m.set("comm.bytes_per_cycle", facts.counts.bytes);
    m.set("burgers.faces_per_cycle", facts.faces_per_cycle);
    m.set("burgers.vector_share", facts.vector_share);
    m.set(
        "burgers.flux_ns_per_zone",
        flux_ns / facts.profiled_zone_cycles.max(1.0),
    );
    let s = facts.serve.unwrap_or_default();
    m.set("serve.cache_hit_rate", s.cache_hit_rate);
    m.set("serve.slices_per_job", s.slices_per_job);
    m.set("serve.fairness_ratio", s.fairness_ratio);

    // -- probes ------------------------------------------------------------
    probes::mesh(m, &p, d.mesh(), tr);
    let (sizes, buffers) = probes::field(m, &d, tr);
    probes::comm(m, &sizes, buffers, d.mesh().num_blocks(), tr);
    probes::exec(m, d.mesh().num_blocks(), tr);
    probes::burgers(m, tr);
    probes::snapshot(m, &p, &d, tr);
    probes::hwmodel(m, &p, d.recorder(), flux_ns / cycle_ns, tr);
    drop(d);
    let (direct_s, direct_fp) = probes::physics(m, tr);
    probes::serve(m, direct_s, checks, tr);
    probes::ft(m, direct_fp, checks, tr);
    probes::sim(m, tr);
}
