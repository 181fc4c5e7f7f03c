//! Explicit scalar diffusion: `∂q/∂t = D ∇²q`, cast in conservative flux
//! form (`F_d = −D ∂q/∂x_d` at faces) so it rides the framework's flux
//! divergence, flux correction, and RK2 machinery unchanged.
//!
//! One two-point stencil read and a subtract-multiply per face: the
//! lowest arithmetic intensity in the scenario matrix, squarely in the
//! memory-bound roofline corner — the opposite extreme from the
//! WENO5-heavy Burgers package. Its AMR signature is also inverted:
//! diffusion *smooths*, so the tagger mostly derefines as the initial
//! features spread out.

use vibe_core::sweep::{self, DonorCell, FaceFlux};
use vibe_core::{BlockInfo, FluxTile, Package, RefinementPolicy};
use vibe_field::{BlockData, F64Lanes, Metadata, VarId};

/// Explicit scalar diffusion of a scalar bundle `q`.
#[derive(Debug, Clone)]
pub struct DiffusionPackage {
    /// Diffusivity `D`.
    pub diffusivity: f64,
    /// Number of diffused scalars (components of `q`).
    pub num_scalars: usize,
    /// Refinement threshold on the max adjacent-cell jump.
    pub refine_tol: f64,
    /// Derefinement threshold.
    pub deref_tol: f64,
}

impl Default for DiffusionPackage {
    fn default() -> Self {
        Self {
            diffusivity: 0.1,
            num_scalars: 1,
            refine_tol: 0.1,
            deref_tol: 0.025,
        }
    }
}

impl DiffusionPackage {
    pub fn qid(data: &mut BlockData) -> VarId {
        data.id_of("q").expect("q registered")
    }
}

/// `F = −D ∂q/∂x` across each face: flux divergence then yields `+D ∇²q`.
impl FaceFlux for DiffusionPackage {
    #[inline(always)]
    fn flux<const W: usize>(
        &self,
        _d: usize,
        inv_dx: f64,
        left: &[F64Lanes<W>],
        right: &[F64Lanes<W>],
        out: &mut [F64Lanes<W>],
    ) {
        for (f, (&l, &r)) in out.iter_mut().zip(left.iter().zip(right)) {
            *f = (r - l) * -self.diffusivity * inv_dx;
        }
    }
}

impl Package for DiffusionPackage {
    fn name(&self) -> &str {
        "diffusion"
    }

    fn register(&self, data: &mut BlockData) {
        data.add_variable(
            "q",
            self.num_scalars.max(1),
            Metadata::INDEPENDENT
                | Metadata::FILL_GHOST
                | Metadata::WITH_FLUXES
                | Metadata::TWO_STAGE,
        );
    }

    fn nghost(&self) -> usize {
        // The two-point flux stencil needs one ghost; two keeps the
        // fine-coarse prolongation slopes inside the halo.
        2
    }

    fn initial_condition(&self, info: &BlockInfo, data: &mut BlockData) {
        // Three sharp hot spots at deterministic low-discrepancy centers;
        // they relax toward uniformity, walking the tagger from refine to
        // derefine as gradients decay.
        let shape = *data.shape();
        let qid = Self::qid(data);
        let qdata = data.var_mut(qid).data_mut();
        let ncomp = qdata.ncomp();
        let centers: Vec<[f64; 3]> = (0..3)
            .map(|i| {
                let t = i as f64 + 1.0;
                [
                    (t * 0.381_966_011).fract(),
                    (t * 0.618_033_988).fract(),
                    (t * 0.267_949_192).fract(),
                ]
            })
            .collect();
        for k in 0..shape.entire_d(2) {
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let pos = info.geom.cell_center(
                        i as i64 - shape.nghost_d(0) as i64,
                        j as i64 - shape.nghost_d(1) as i64,
                        k as i64 - shape.nghost_d(2) as i64,
                    );
                    let mut spot = 0.0;
                    for c in &centers {
                        let r2: f64 = (0..3)
                            .map(|d| {
                                let mut dxx = (pos[d] - c[d]).abs();
                                if dxx > 0.5 {
                                    dxx = 1.0 - dxx;
                                }
                                dxx * dxx
                            })
                            .sum();
                        if r2 < 9.0 * 0.002 {
                            spot += (-r2 / 0.002).exp();
                        }
                    }
                    for c in 0..ncomp {
                        qdata.set(c, k, j, i, 1.0 + 2.0 * spot / (c + 1) as f64);
                    }
                }
            }
        }
    }

    fn history_labels(&self) -> Vec<&'static str> {
        vec!["q_mass"]
    }

    fn refinement_policy(&self) -> RefinementPolicy {
        RefinementPolicy {
            refine_tol: self.refine_tol,
            deref_tol: self.deref_tol,
        }
    }

    fn stencil_radius(&self) -> usize {
        1
    }

    fn fill_fluxes(&self, info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>) {
        sweep::fill_lines::<DonorCell, _>(self, info, data, tile);
    }

    /// Explicit diffusion stability: `dt ≤ dx² / (2·dim·D)` at the
    /// block's finest local spacing.
    fn estimate_dt(&self, info: &BlockInfo, data: &mut BlockData) -> f64 {
        let dim = data.shape().dim();
        let dx = info.geom.dx();
        let min_dx = dx.iter().take(dim).copied().fold(f64::INFINITY, f64::min);
        min_dx * min_dx / (2.0 * dim as f64 * self.diffusivity)
    }

    fn refinement_indicator(&self, _info: &BlockInfo, data: &mut BlockData) -> f64 {
        let qid = Self::qid(data);
        crate::max_lower_jump(data, qid)
    }

    /// The conservative flux form keeps the total constant to round-off.
    fn history_contributions(&self, info: &BlockInfo, data: &mut BlockData, row: &mut [f64]) {
        let qid = Self::qid(data);
        row[0] = crate::scalar_mass(info, data, qid);
    }
}
