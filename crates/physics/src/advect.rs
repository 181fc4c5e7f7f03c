//! Linear advection: `∂q/∂t + v·∇q = 0` at a constant, fully 3-D
//! velocity, with upwind fluxes built from first-order or WENO5
//! reconstruction.
//!
//! This is the promoted descendant of the old `core::package::advect` toy
//! (which advected along +x only, first-order): the velocity is now a
//! vector with a component per axis and the reconstruction is selectable,
//! so the package exercises every flux direction and the same stencil
//! machinery as the nonlinear packages while keeping trivially linear
//! physics. Its arithmetic intensity is low and its ghost traffic is the
//! same as any stencil code's — the comm-bound probe of the scenario
//! matrix.

use vibe_core::sweep::{self, DonorCell, FaceFlux};
use vibe_core::{BlockInfo, FluxTile, Package, RefinementPolicy};
use vibe_field::{BlockData, F64Lanes, Metadata, VarId};

use vibe_burgers::Weno5Kernel;

/// Reconstruction scheme for the upwind states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvectRecon {
    /// First-order: the face state is the adjacent cell average.
    Upwind1,
    /// Fifth-order WENO, as in the Burgers package.
    Weno5,
}

/// Constant-velocity linear advection of a scalar bundle `q`.
#[derive(Debug, Clone)]
pub struct Advect {
    /// Advection velocity (one component per axis; components beyond the
    /// mesh dimensionality are ignored).
    pub velocity: [f64; 3],
    /// Face-state reconstruction.
    pub recon: AdvectRecon,
    /// Number of advected scalars (components of `q`).
    pub num_scalars: usize,
    /// Refinement threshold on the max adjacent-cell jump.
    pub refine_above: f64,
    /// Derefinement threshold.
    pub deref_below: f64,
}

impl Default for Advect {
    fn default() -> Self {
        Self {
            // All three axes active, incommensurate speeds: every flux
            // direction carries signal and features cross block faces in
            // all directions.
            velocity: [1.0, 0.5, 0.25],
            recon: AdvectRecon::Weno5,
            num_scalars: 1,
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

/// Upwind: `F_d = v_d · q_upwind`, the upwind state picked from the
/// reconstructed left/right pair by the sign of `v_d`.
impl FaceFlux for Advect {
    #[inline(always)]
    fn flux<const W: usize>(
        &self,
        d: usize,
        _inv_dx: f64,
        left: &[F64Lanes<W>],
        right: &[F64Lanes<W>],
        out: &mut [F64Lanes<W>],
    ) {
        let v = self.velocity[d];
        let upwind = if v >= 0.0 { left } else { right };
        for (f, &q) in out.iter_mut().zip(upwind) {
            *f = q * v;
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
            self.num_scalars.max(1),
            Metadata::INDEPENDENT
                | Metadata::FILL_GHOST
                | Metadata::WITH_FLUXES
                | Metadata::TWO_STAGE,
        );
    }

    fn nghost(&self) -> usize {
        match self.recon {
            AdvectRecon::Upwind1 => 2,
            AdvectRecon::Weno5 => 4,
        }
    }

    fn initial_condition(&self, info: &BlockInfo, data: &mut BlockData) {
        // A sharp off-center Gaussian pulse on a unit background; its
        // periodic transit exercises every flux direction and keeps a
        // steep gradient alive for the refinement tagger.
        let shape = *data.shape();
        let qid = Advect::qid(data);
        let qdata = data.var_mut(qid).data_mut();
        let ncomp = qdata.ncomp();
        let center = [0.3, 0.4, 0.6];
        for k in 0..shape.entire_d(2) {
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let pos = info.geom.cell_center(
                        i as i64 - shape.nghost_d(0) as i64,
                        j as i64 - shape.nghost_d(1) as i64,
                        k as i64 - shape.nghost_d(2) as i64,
                    );
                    // Periodic distance to the pulse center.
                    let r2: f64 = (0..3)
                        .map(|d| {
                            let mut dxx = (pos[d] - center[d]).abs();
                            if dxx > 0.5 {
                                dxx = 1.0 - dxx;
                            }
                            dxx * dxx
                        })
                        .sum();
                    let pulse = 2.0 * (-r2 / 0.005).exp();
                    for c in 0..ncomp {
                        qdata.set(c, k, j, i, 1.0 + pulse / (c + 1) as f64);
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
            refine_tol: self.refine_above,
            deref_tol: self.deref_below,
        }
    }

    fn stencil_radius(&self) -> usize {
        match self.recon {
            AdvectRecon::Upwind1 => 1,
            AdvectRecon::Weno5 => 3,
        }
    }

    fn fill_fluxes(&self, info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>) {
        match self.recon {
            AdvectRecon::Upwind1 => sweep::fill_lines::<DonorCell, _>(self, info, data, tile),
            AdvectRecon::Weno5 => sweep::fill_lines::<Weno5Kernel, _>(self, info, data, tile),
        };
    }

    fn estimate_dt(&self, info: &BlockInfo, data: &mut BlockData) -> f64 {
        let dx = info.geom.dx();
        let mut block_min = f64::INFINITY;
        for (&dx_d, vel) in dx.iter().zip(self.velocity).take(data.shape().dim()) {
            let speed = vel.abs();
            if speed > 1e-12 {
                block_min = block_min.min(dx_d / speed);
            }
        }
        block_min
    }

    fn refinement_indicator(&self, _info: &BlockInfo, data: &mut BlockData) -> f64 {
        let qid = Advect::qid(data);
        crate::max_lower_jump(data, qid)
    }

    fn history_contributions(&self, info: &BlockInfo, data: &mut BlockData, row: &mut [f64]) {
        let qid = Advect::qid(data);
        row[0] = crate::scalar_mass(info, data, qid);
    }
}
