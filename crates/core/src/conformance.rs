//! Trait-conformance harness: runs any [`Package`] through the framework
//! invariants every package must uphold — registration shape, positive
//! stable timestep, phase-split exactness (interior+exterior cover each
//! face exactly once and the interior phase reads no ghost cells),
//! tagging arity, history/label agreement, and thread-count determinism.
//!
//! The harness is a library function (not a `#[test]`) so the physics
//! crate's tests and the root integration tests can run every registered
//! package through it.

use vibe_exec::ExecCtx;
use vibe_field::{Metadata, VarId};
use vibe_mesh::index::IndexDomain;
use vibe_prof::Recorder;

use crate::block::fingerprint_slots;
use crate::block::BlockSlot;
use crate::driver::Driver;
use crate::package::{FluxPhase, Package};

/// What [`check_package`] measured while the checks ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// The package's registered name.
    pub package: String,
    /// Variables registered per block.
    pub num_vars: usize,
    /// Flux-bearing variables among them.
    pub flux_vars: usize,
    /// State fingerprint after two cycles at one thread (equal at eight).
    pub fingerprint: u64,
}

/// Runs the package built by `make(host_threads)` through every
/// conformance invariant. `make` must return a driver initialized by
/// [`Driver::initialize_package`] — what every replica factory hands out —
/// over the same problem for any thread count.
///
/// Returns a report on success and a description of the first violated
/// invariant otherwise.
pub fn check_package<P, F>(make: F) -> Result<ConformanceReport, String>
where
    P: Package,
    F: Fn(usize) -> Driver<P>,
{
    let mut d = make(1);

    // --- Registration: at least one independent, flux-bearing variable.
    let slots = d.slots();
    let first = slots
        .first()
        .ok_or_else(|| "driver owns no blocks".to_string())?;
    let num_vars = first.data.vars().len();
    if num_vars == 0 {
        return Err("register() added no variables".to_string());
    }
    let flux_vars = first
        .data
        .vars()
        .iter()
        .filter(|v| v.metadata().contains(Metadata::WITH_FLUXES))
        .count();
    if flux_vars == 0 {
        return Err("register() added no flux-bearing variable".to_string());
    }
    let name = d.package().name().to_string();

    // --- Problem setup hooks.
    let nghost = d.package().nghost();
    if nghost == 0 {
        return Err("nghost() must be at least 1".to_string());
    }
    let mesh_nghost = first.data.shape().nghost();
    if mesh_nghost < nghost {
        return Err(format!(
            "mesh built with {mesh_nghost} ghosts but the package requires {nghost}"
        ));
    }
    let cfl = d.package().default_cfl();
    if !(cfl > 0.0 && cfl <= 1.0) {
        return Err(format!("default_cfl() = {cfl} outside (0, 1]"));
    }

    // --- Timestep: initialize must produce a positive, finite dt.
    if !(d.dt() > 0.0 && d.dt().is_finite()) {
        return Err(format!("estimate_dt produced dt = {}", d.dt()));
    }

    // --- Phase-split exactness on the freshly initialized state (ghosts
    // are synced at the end of initialize). Sentinel-fill the flux arrays,
    // run a full sweep on one copy and Interior+Exterior on another, and
    // require bitwise-identical flux arrays: every face covered by
    // exactly one phase, none diverging from the full sweep.
    let sentinel = f64::from_bits(0x7ff8_dead_beef_0001); // quiet NaN payload
    let exec = ExecCtx::new(1);
    let mut rec = Recorder::new();

    let mut full: Vec<BlockSlot> = slots.to_vec();
    let mut split: Vec<BlockSlot> = slots.to_vec();
    for slot in full.iter_mut().chain(split.iter_mut()) {
        let dim = slot.data.shape().dim();
        for idx in 0..slot.data.num_vars() {
            let var = slot.data.var_mut(VarId(idx));
            for dir in 0..dim {
                if let Some(fl) = var.flux_mut(dir) {
                    fl.fill(sentinel);
                }
            }
        }
    }
    {
        let mut pack: Vec<&mut BlockSlot> = full.iter_mut().collect();
        d.package().calculate_fluxes(&mut pack, exec, &mut rec);
    }
    {
        let mut pack: Vec<&mut BlockSlot> = split.iter_mut().collect();
        d.package()
            .calculate_fluxes_phase(&mut pack, FluxPhase::Interior, exec, &mut rec);
        d.package()
            .calculate_fluxes_phase(&mut pack, FluxPhase::Exterior, exec, &mut rec);
    }
    for (gid, (a, b)) in full.iter().zip(split.iter()).enumerate() {
        let dim = a.data.shape().dim();
        for (va, vb) in a.data.vars().iter().zip(b.data.vars()) {
            for dir in 0..dim {
                let (Some(fa), Some(fb)) = (va.flux(dir), vb.flux(dir)) else {
                    continue;
                };
                for (idx, (x, y)) in fa.as_slice().iter().zip(fb.as_slice()).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        return Err(format!(
                            "phase-split flux mismatch: block {gid} var {} dir {dir} \
                             entry {idx}: full={x:e} vs interior+exterior={y:e} \
                             (a face covered zero or two times, or phases diverge)",
                            va.name()
                        ));
                    }
                }
            }
        }
    }

    // --- Interior phase must read no ghost cells: poison every ghost
    // cell of ghost-filled variables with NaN, run Interior alone, and
    // require the fluxes it wrote to be NaN-free (NaN propagates through
    // any stencil arithmetic that touches a poisoned cell).
    let mut poisoned: Vec<BlockSlot> = slots.to_vec();
    for slot in poisoned.iter_mut() {
        let shape = *slot.data.shape();
        let dim = shape.dim();
        let interior: Vec<_> = (0..3)
            .map(|dd| shape.range(dd, IndexDomain::Interior))
            .collect();
        let entire: Vec<_> = (0..3)
            .map(|dd| shape.range(dd, IndexDomain::Entire))
            .collect();
        for idx in 0..slot.data.num_vars() {
            let var = slot.data.var_mut(VarId(idx));
            if !var.metadata().contains(Metadata::FILL_GHOST) {
                continue;
            }
            let ncomp = var.ncomp();
            let data = var.data_mut();
            for c in 0..ncomp {
                for k in entire[2].iter() {
                    for j in entire[1].iter() {
                        for i in entire[0].iter() {
                            let inside = interior[0].contains(i)
                                && interior[1].contains(j)
                                && interior[2].contains(k);
                            if !inside {
                                data.set(c, k as usize, j as usize, i as usize, f64::NAN);
                            }
                        }
                    }
                }
            }
            for dir in 0..dim {
                if let Some(fl) = var.flux_mut(dir) {
                    fl.fill(0.0);
                }
            }
        }
    }
    {
        let mut pack: Vec<&mut BlockSlot> = poisoned.iter_mut().collect();
        d.package()
            .calculate_fluxes_phase(&mut pack, FluxPhase::Interior, exec, &mut rec);
    }
    for (gid, slot) in poisoned.iter().enumerate() {
        let dim = slot.data.shape().dim();
        for var in slot.data.vars() {
            for dir in 0..dim {
                let Some(fl) = var.flux(dir) else { continue };
                if fl.as_slice().iter().any(|v| v.is_nan()) {
                    return Err(format!(
                        "interior flux phase read ghost cells: block {gid} var {} dir {dir} \
                         produced NaN from poisoned ghosts",
                        var.name()
                    ));
                }
            }
        }
    }

    // --- Tagging arity: one flag per block, in pack order.
    {
        let mut tagged: Vec<BlockSlot> = slots.to_vec();
        let n = tagged.len();
        let mut pack: Vec<&mut BlockSlot> = tagged.iter_mut().collect();
        let flags = d.package().tag_refinement(&mut pack, exec, &mut rec);
        if flags.len() != n {
            return Err(format!(
                "tag_refinement returned {} flags for {n} blocks",
                flags.len()
            ));
        }
    }

    // --- History/label agreement.
    {
        let mut hist: Vec<BlockSlot> = slots.to_vec();
        let mut pack: Vec<&mut BlockSlot> = hist.iter_mut().collect();
        let values = d.package().history(&mut pack, exec, &mut rec);
        let labels = d.package().history_labels();
        if values.len() != labels.len() {
            return Err(format!(
                "history() returned {} values but history_labels() has {} entries",
                values.len(),
                labels.len()
            ));
        }
    }

    // --- Thread-count determinism: two cycles at 1 vs 8 host threads
    // must produce bitwise-identical state (pack-order reductions).
    d.run_cycles(2);
    let fp1 = fingerprint_slots(d.slots());
    let mut d8 = make(8);
    d8.run_cycles(2);
    let fp8 = fingerprint_slots(d8.slots());
    if fp1 != fp8 {
        return Err(format!(
            "thread-count nondeterminism: fingerprint {fp1:016x} at 1 thread \
             vs {fp8:016x} at 8 threads"
        ));
    }

    Ok(ConformanceReport {
        package: name,
        num_vars,
        flux_vars,
        fingerprint: fp1,
    })
}
