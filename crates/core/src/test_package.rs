//! A minimal linear-advection package used as a test fixture: one
//! conserved scalar advected at constant velocity (1, 0, 0) with
//! first-order upwind fluxes.
//!
//! This is deliberately the smallest possible [`Package`] — core's own
//! driver/shard/snapshot tests need *some* physics to exercise the
//! framework, but core ships none (the trait lives here, packages live in
//! `vibe-physics` and `vibe-burgers`). The module is compiled only under
//! `cfg(test)` and never exported.

use vibe_field::{BlockData, F64Lanes, Metadata, VarId};
use vibe_mesh::index::IndexDomain;

use crate::block::BlockInfo;
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

    fn estimate_dt(&self, info: &BlockInfo, _data: &mut BlockData) -> f64 {
        info.geom.dx()[0]
    }

    fn refinement_indicator(&self, _info: &BlockInfo, data: &mut BlockData) -> f64 {
        let shape = *data.shape();
        let qid = Advect::qid(data);
        let q = data.var(qid).data();
        let [ix, iy, iz] = [0, 1, 2].map(|d| shape.range(d, IndexDomain::Interior));
        let mut max_jump: f64 = 0.0;
        for k in iz.iter() {
            for j in iy.iter() {
                for i in ix.iter() {
                    let a = q.get(0, k as usize, j as usize, i as usize);
                    let b = q.get(0, k as usize, j as usize, (i - 1) as usize);
                    max_jump = max_jump.max((a - b).abs());
                }
            }
        }
        max_jump
    }

    fn history_contributions(&self, info: &BlockInfo, data: &mut BlockData, row: &mut [f64]) {
        let shape = *data.shape();
        let qid = Advect::qid(data);
        let q = data.var(qid).data();
        let vol = info.geom.cell_volume();
        let [ix, iy, iz] = [0, 1, 2].map(|d| shape.range(d, IndexDomain::Interior));
        for k in iz.iter() {
            for j in iy.iter() {
                for i in ix.iter() {
                    row[0] += q.get(0, k as usize, j as usize, i as usize) * vol;
                }
            }
        }
    }
}
