//! A minimal linear-advection package used as a test fixture: one
//! conserved scalar advected at constant velocity (1, 0, 0) with
//! first-order upwind fluxes.
//!
//! This is deliberately the smallest possible [`Package`] — core's own
//! driver/shard/snapshot tests need *some* physics to exercise the
//! framework, but core ships none (the trait lives here, packages live in
//! `vibe-physics` and `vibe-burgers`). The module is compiled only under
//! `cfg(test)` and never exported.

use vibe_exec::{catalog, ExecCtx, Launcher};
use vibe_field::{BlockData, F64Lanes, Metadata, VarId};
use vibe_mesh::AmrFlag;
use vibe_prof::Recorder;

use crate::block::{BlockInfo, BlockSlot};
use crate::package::{Package, RefinementPolicy};
use crate::sweep::{fill_lines, DonorCell, FaceFlux, FluxTile};

/// Upwind advection of one scalar `q` at unit velocity along +x.
#[derive(Debug, Clone)]
pub struct Advect {
    /// Refinement threshold on the max gradient.
    pub refine_above: f64,
    /// Derefinement threshold.
    pub deref_below: f64,
}

impl Default for Advect {
    fn default() -> Self {
        Self {
            refine_above: 0.5,
            deref_below: 0.05,
        }
    }
}

impl Advect {
    pub fn qid(data: &mut BlockData) -> VarId {
        data.id_of("q").expect("q registered")
    }
}

/// Upwind in +x: a face takes the cell below it, component by component;
/// no transverse flow.
impl FaceFlux for Advect {
    #[inline(always)]
    fn flux<const W: usize>(
        &self,
        d: usize,
        _inv_dx: f64,
        left: &[F64Lanes<W>],
        _right: &[F64Lanes<W>],
        out: &mut [F64Lanes<W>],
    ) {
        for (out, left) in out.iter_mut().zip(left) {
            *out = if d == 0 { *left } else { F64Lanes::splat(0.0) };
        }
    }
}

impl Package for Advect {
    fn name(&self) -> &str {
        "advect"
    }

    fn register(&self, data: &mut BlockData) {
        data.add_variable(
            "q",
            1,
            Metadata::INDEPENDENT
                | Metadata::FILL_GHOST
                | Metadata::WITH_FLUXES
                | Metadata::TWO_STAGE,
        );
    }

    fn nghost(&self) -> usize {
        2
    }

    fn history_labels(&self) -> Vec<&'static str> {
        vec!["q_mass"]
    }

    fn refinement_policy(&self) -> RefinementPolicy {
        RefinementPolicy {
            refine_tol: self.refine_above,
            deref_tol: self.deref_below,
        }
    }

    fn stencil_radius(&self) -> usize {
        1
    }

    fn fill_fluxes(&self, info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>) {
        fill_lines::<DonorCell, _>(self, info, data, tile);
    }

    fn fill_derived(&self, pack: &mut [&mut BlockSlot], _exec: ExecCtx, rec: &mut Recorder) {
        let Some(first) = pack.first() else { return };
        let cells = pack.len() as u64 * first.data.shape().interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::CALCULATE_DERIVED, cells, 1.0);
    }

    fn estimate_dt(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) -> f64 {
        let Some(first) = pack.first() else {
            return f64::INFINITY;
        };
        let cells = pack.len() as u64 * first.data.shape().interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::ESTIMATE_TIMESTEP_MESH, cells, 1.0);
        // Per-block partials folded in pack order: deterministic at any
        // thread count.
        exec.map_blocks(pack, |_, s| s.info.geom.dx()[0])
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    fn tag_refinement(
        &self,
        pack: &mut [&mut BlockSlot],
        exec: ExecCtx,
        rec: &mut Recorder,
    ) -> Vec<AmrFlag> {
        let Some(first) = pack.first() else {
            return Vec::new();
        };
        let shape = *first.data.shape();
        let cells = pack.len() as u64 * shape.interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::FIRST_DERIVATIVE, cells, 1.0);
        exec.map_blocks(pack, |_, slot| {
            let qid = Advect::qid(&mut slot.data);
            let var = slot.data.var(qid);
            let mut max_jump: f64 = 0.0;
            let ix = shape.range(0, vibe_mesh::index::IndexDomain::Interior);
            let iy = shape.range(1, vibe_mesh::index::IndexDomain::Interior);
            let iz = shape.range(2, vibe_mesh::index::IndexDomain::Interior);
            for k in iz.iter() {
                for j in iy.iter() {
                    for i in ix.iter() {
                        let a = var.data().get(0, k as usize, j as usize, i as usize);
                        let b = var.data().get(0, k as usize, j as usize, (i - 1) as usize);
                        max_jump = max_jump.max((a - b).abs());
                    }
                }
            }
            if max_jump > self.refine_above {
                AmrFlag::Refine
            } else if max_jump < self.deref_below {
                AmrFlag::Derefine
            } else {
                AmrFlag::Same
            }
        })
    }

    fn history_contributions(
        &self,
        pack: &mut [&mut BlockSlot],
        exec: ExecCtx,
        rec: &mut Recorder,
    ) -> Vec<Vec<f64>> {
        let Some(first) = pack.first() else {
            return Vec::new();
        };
        let shape = *first.data.shape();
        let cells = pack.len() as u64 * shape.interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::MASS_HISTORY, cells, 1.0);
        // One sum per block; the caller folds rows in global gid order.
        let partials = exec.map_blocks(pack, |_, slot| {
            let qid = Advect::qid(&mut slot.data);
            let var = slot.data.var(qid);
            let vol = slot.info.geom.cell_volume();
            let ix = shape.range(0, vibe_mesh::index::IndexDomain::Interior);
            let iy = shape.range(1, vibe_mesh::index::IndexDomain::Interior);
            let iz = shape.range(2, vibe_mesh::index::IndexDomain::Interior);
            let mut block_total = 0.0;
            for k in iz.iter() {
                for j in iy.iter() {
                    for i in ix.iter() {
                        block_total += var.data().get(0, k as usize, j as usize, i as usize) * vol;
                    }
                }
            }
            block_total
        });
        partials.into_iter().map(|p| vec![p]).collect()
    }
}
