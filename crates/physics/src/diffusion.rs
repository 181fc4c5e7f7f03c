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
use vibe_core::{BlockInfo, BlockSlot, FluxTile, Package, RefinementPolicy};
use vibe_exec::{catalog, ExecCtx, Launcher};
use vibe_field::{BlockData, F64Lanes, Metadata, VarId};
use vibe_mesh::index::IndexDomain;
use vibe_mesh::AmrFlag;
use vibe_prof::Recorder;

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

    fn default_cfl(&self) -> f64 {
        // estimate_dt already returns the explicit stability bound
        // dx²/(2·dim·D); 0.4 leaves margin under RK2.
        0.4
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

    fn fill_derived(&self, pack: &mut [&mut BlockSlot], _exec: ExecCtx, rec: &mut Recorder) {
        let Some(first) = pack.first() else { return };
        let cells = pack.len() as u64 * first.data.shape().interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::CALCULATE_DERIVED, cells, 1.0);
    }

    fn estimate_dt(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) -> f64 {
        let Some(first) = pack.first() else {
            return f64::INFINITY;
        };
        let dim = first.data.shape().dim();
        let cells = pack.len() as u64 * first.data.shape().interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::ESTIMATE_TIMESTEP_MESH, cells, 1.0);
        // Explicit diffusion stability: dt ≤ dx² / (2·dim·D), evaluated at
        // each block's finest local spacing, folded in pack order.
        exec.map_blocks(pack, |_, s| {
            let dx = s.info.geom.dx();
            let min_dx = dx.iter().take(dim).copied().fold(f64::INFINITY, f64::min);
            min_dx * min_dx / (2.0 * dim as f64 * self.diffusivity)
        })
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
        let dim = shape.dim();
        let cells = pack.len() as u64 * shape.interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::FIRST_DERIVATIVE, cells, 1.0);
        let ranges = [
            shape.range(0, IndexDomain::Interior),
            shape.range(1, IndexDomain::Interior),
            shape.range(2, IndexDomain::Interior),
        ];
        exec.map_blocks(pack, |_, slot| {
            let qid = Self::qid(&mut slot.data);
            let q = slot.data.var(qid).data();
            let mut max_jump: f64 = 0.0;
            for k in ranges[2].iter() {
                for j in ranges[1].iter() {
                    for i in ranges[0].iter() {
                        let here = q.get(0, k as usize, j as usize, i as usize);
                        let mut consider = |other: f64| {
                            max_jump = max_jump.max((here - other).abs());
                        };
                        consider(q.get(0, k as usize, j as usize, (i - 1) as usize));
                        if dim >= 2 {
                            consider(q.get(0, k as usize, (j - 1) as usize, i as usize));
                        }
                        if dim >= 3 {
                            consider(q.get(0, (k - 1) as usize, j as usize, i as usize));
                        }
                    }
                }
            }
            if max_jump > self.refine_tol {
                AmrFlag::Refine
            } else if max_jump < self.deref_tol {
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
        let ranges = [
            shape.range(0, IndexDomain::Interior),
            shape.range(1, IndexDomain::Interior),
            shape.range(2, IndexDomain::Interior),
        ];
        // One sum per block (folded by the caller in global gid order);
        // the conservative flux form keeps the total constant to
        // round-off.
        let partials = exec.map_blocks(pack, |_, slot| {
            let qid = Self::qid(&mut slot.data);
            let q = slot.data.var(qid).data();
            let vol = slot.info.geom.cell_volume();
            let mut block_total = 0.0;
            for k in ranges[2].iter() {
                for j in ranges[1].iter() {
                    for i in ranges[0].iter() {
                        block_total += q.get(0, k as usize, j as usize, i as usize) * vol;
                    }
                }
            }
            block_total
        });
        partials.into_iter().map(|p| vec![p]).collect()
    }
}
