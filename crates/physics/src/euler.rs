//! Compressible Euler equations: five conserved components
//! `[ρ, ρu, ρv, ρw, E]` with an ideal-gas closure, minmod-limited linear
//! reconstruction, an HLL Riemann solver (Davis wavespeed estimates), and
//! shock-based refinement tagging on the relative pressure jump.
//!
//! Where Burgers refines on smooth gradient magnitude, Euler's tagger
//! fires on genuine shocks: an expanding blast wave sweeps refinement
//! fronts across the domain and triggers markedly more AMR churn — the
//! regrid-heavy corner of the scenario matrix.

use vibe_core::{BlockInfo, BlockSlot, FluxTile, Package, RefinementPolicy};
use vibe_exec::{catalog, ExecCtx, Launcher};
use vibe_field::{BlockData, Metadata, VarId};
use vibe_mesh::index::IndexDomain;
use vibe_mesh::AmrFlag;
use vibe_prof::Recorder;

use vibe_burgers::reconstruct_linear;

/// Number of conserved components.
const NCONS: usize = 5;

/// Compressible Euler with HLL fluxes and shock tagging.
#[derive(Debug, Clone)]
pub struct EulerPackage {
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Relative pressure jump above which a block refines.
    pub refine_tol: f64,
    /// Relative pressure jump below which a block derefines.
    pub deref_tol: f64,
}

impl Default for EulerPackage {
    fn default() -> Self {
        Self {
            gamma: 1.4,
            refine_tol: 0.1,
            deref_tol: 0.025,
        }
    }
}

impl EulerPackage {
    fn ids(data: &mut BlockData) -> (VarId, VarId) {
        (
            data.id_of("cons").expect("cons registered"),
            data.id_of("pres").expect("pres registered"),
        )
    }

    /// Primitive state `(ρ, [u, v, w], p)` from a conserved vector, with
    /// positivity floors so reconstruction overshoots cannot produce
    /// negative signal speeds.
    fn prim(&self, u: &[f64; NCONS]) -> (f64, [f64; 3], f64) {
        let rho = u[0].max(1e-12);
        let vel = [u[1] / rho, u[2] / rho, u[3] / rho];
        let ke = 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let p = ((self.gamma - 1.0) * (u[4] - ke)).max(1e-12);
        (rho, vel, p)
    }

    /// Physical flux of the conserved vector along dimension `d`.
    fn phys_flux(&self, u: &[f64; NCONS], d: usize) -> [f64; NCONS] {
        let (_, vel, p) = self.prim(u);
        let un = vel[d];
        let mut f = [u[0] * un, u[1] * un, u[2] * un, u[3] * un, (u[4] + p) * un];
        f[1 + d] += p;
        f
    }

    /// HLL flux from reconstructed left/right conserved states.
    fn hll(&self, ul: &[f64; NCONS], ur: &[f64; NCONS], d: usize) -> [f64; NCONS] {
        let (rho_l, vel_l, p_l) = self.prim(ul);
        let (rho_r, vel_r, p_r) = self.prim(ur);
        let c_l = (self.gamma * p_l / rho_l).sqrt();
        let c_r = (self.gamma * p_r / rho_r).sqrt();
        // Davis estimates: the widest of the left/right acoustic fans.
        let sl = (vel_l[d] - c_l).min(vel_r[d] - c_r);
        let sr = (vel_l[d] + c_l).max(vel_r[d] + c_r);
        let fl = self.phys_flux(ul, d);
        let fr = self.phys_flux(ur, d);
        if sl >= 0.0 {
            fl
        } else if sr <= 0.0 {
            fr
        } else {
            let mut f = [0.0; NCONS];
            let inv = 1.0 / (sr - sl);
            for c in 0..NCONS {
                f[c] = (sr * fl[c] - sl * fr[c] + sl * sr * (ur[c] - ul[c])) * inv;
            }
            f
        }
    }
}

impl Package for EulerPackage {
    fn name(&self) -> &str {
        "euler"
    }

    fn register(&self, data: &mut BlockData) {
        data.add_variable(
            "cons",
            NCONS,
            Metadata::INDEPENDENT
                | Metadata::FILL_GHOST
                | Metadata::WITH_FLUXES
                | Metadata::TWO_STAGE,
        );
        data.add_variable("pres", 1, Metadata::DERIVED);
    }

    fn nghost(&self) -> usize {
        // Minmod-limited linear reconstruction reaches two cells past a
        // face.
        2
    }

    fn default_cfl(&self) -> f64 {
        0.3
    }

    fn initial_condition(&self, info: &BlockInfo, data: &mut BlockData) {
        // A quiescent ideal gas with a strong central pressure pulse: the
        // pulse collapses into an expanding blast shell whose shock front
        // drives the tagger as it crosses block boundaries.
        let shape = *data.shape();
        let (cid, pid) = Self::ids(data);
        let gamma = self.gamma;
        {
            let cons = data.var_mut(cid).data_mut();
            for k in 0..shape.entire_d(2) {
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        let pos = info.geom.cell_center(
                            i as i64 - shape.nghost_d(0) as i64,
                            j as i64 - shape.nghost_d(1) as i64,
                            k as i64 - shape.nghost_d(2) as i64,
                        );
                        let r2: f64 = (0..3)
                            .map(|d| {
                                let mut dxx = (pos[d] - 0.5).abs();
                                if dxx > 0.5 {
                                    dxx = 1.0 - dxx;
                                }
                                dxx * dxx
                            })
                            .sum();
                        let p = 0.1 + 3.0 * (-r2 / 0.01).exp();
                        cons.set(0, k, j, i, 1.0);
                        cons.set(1, k, j, i, 0.0);
                        cons.set(2, k, j, i, 0.0);
                        cons.set(3, k, j, i, 0.0);
                        cons.set(4, k, j, i, p / (gamma - 1.0));
                    }
                }
            }
        }
        // Derived pressure consistent with the conserved state.
        let (cons_var, pres_var) = data.pair_mut(cid, pid);
        let cons = cons_var.data();
        let pres = pres_var.data_mut();
        for k in 0..shape.entire_d(2) {
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let e = cons.get(4, k, j, i);
                    pres.set(0, k, j, i, (gamma - 1.0) * e);
                }
            }
        }
    }

    fn history_labels(&self) -> Vec<&'static str> {
        vec!["mass", "energy"]
    }

    fn refinement_policy(&self) -> RefinementPolicy {
        RefinementPolicy {
            refine_tol: self.refine_tol,
            deref_tol: self.deref_tol,
        }
    }

    fn stencil_radius(&self) -> usize {
        2
    }

    /// Per-component minmod-limited linear reconstruction, then HLL.
    fn fill_fluxes(&self, _info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>) {
        let g: [usize; 3] = std::array::from_fn(|d| data.shape().nghost_d(d));
        // `cons` is registered first.
        let cons = data.vars()[0].data();
        for d in 0..tile.dim() {
            for (face, cell) in tile.faces_to_fill(d) {
                let at = |c: usize, off: i64| -> f64 {
                    let mut p: [usize; 3] = std::array::from_fn(|a| cell[a] + g[a]);
                    p[d] = (p[d] as i64 + off) as usize;
                    cons.get(c, p[2], p[1], p[0])
                };
                let mut ul = [0.0; NCONS];
                let mut ur = [0.0; NCONS];
                for c in 0..NCONS {
                    let stencil = [at(c, -2), at(c, -1), at(c, 0), at(c, 1)];
                    (ul[c], ur[c]) = reconstruct_linear(&stencil);
                }
                for (c, &fc) in self.hll(&ul, &ur, d).iter().enumerate() {
                    tile.set(d, c, face, fc);
                }
            }
        }
    }

    fn fill_derived(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) {
        let Some(first) = pack.first() else { return };
        let shape = *first.data.shape();
        let cells = pack.len() as u64 * shape.interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::CALCULATE_DERIVED, cells, 1.0);
        exec.for_each_block(pack, |_, slot| {
            let (cid, pid) = Self::ids(&mut slot.data);
            let (cons_var, pres_var) = slot.data.pair_mut(cid, pid);
            let cons = cons_var.data();
            let pres = pres_var.data_mut();
            for k in 0..shape.entire_d(2) {
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        let u = [
                            cons.get(0, k, j, i),
                            cons.get(1, k, j, i),
                            cons.get(2, k, j, i),
                            cons.get(3, k, j, i),
                            cons.get(4, k, j, i),
                        ];
                        let (_, _, p) = self.prim(&u);
                        pres.set(0, k, j, i, p);
                    }
                }
            }
        });
    }

    fn estimate_dt(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) -> f64 {
        let Some(first) = pack.first() else {
            return f64::INFINITY;
        };
        let shape = *first.data.shape();
        let dim = shape.dim();
        let cells = pack.len() as u64 * shape.interior_count() as u64;
        Launcher::new(rec).record_only(&catalog::ESTIMATE_TIMESTEP_MESH, cells, 1.0);
        let ranges = [
            shape.range(0, IndexDomain::Interior),
            shape.range(1, IndexDomain::Interior),
            shape.range(2, IndexDomain::Interior),
        ];
        // Per-block partials folded in pack order.
        exec.map_blocks(pack, |_, slot| {
            let (cid, _) = Self::ids(&mut slot.data);
            let cons = slot.data.var(cid).data();
            let dx = slot.info.geom.dx();
            let mut block_min = f64::INFINITY;
            for k in ranges[2].iter() {
                for j in ranges[1].iter() {
                    for i in ranges[0].iter() {
                        let u = [
                            cons.get(0, k as usize, j as usize, i as usize),
                            cons.get(1, k as usize, j as usize, i as usize),
                            cons.get(2, k as usize, j as usize, i as usize),
                            cons.get(3, k as usize, j as usize, i as usize),
                            cons.get(4, k as usize, j as usize, i as usize),
                        ];
                        let (rho, vel, p) = self.prim(&u);
                        let c = (self.gamma * p / rho).sqrt();
                        for d in 0..dim {
                            block_min = block_min.min(dx[d] / (vel[d].abs() + c));
                        }
                    }
                }
            }
            block_min
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
        // Shock sensor: relative pressure jump between adjacent cells,
        // computed from the conserved state directly (no dependence on the
        // derived fill, so initial regridding sees it too).
        exec.map_blocks(pack, |_, slot| {
            let (cid, _) = Self::ids(&mut slot.data);
            let cons = slot.data.var(cid).data();
            let p_at = |k: i64, j: i64, i: i64| -> f64 {
                let u = [
                    cons.get(0, k as usize, j as usize, i as usize),
                    cons.get(1, k as usize, j as usize, i as usize),
                    cons.get(2, k as usize, j as usize, i as usize),
                    cons.get(3, k as usize, j as usize, i as usize),
                    cons.get(4, k as usize, j as usize, i as usize),
                ];
                self.prim(&u).2
            };
            let mut max_jump: f64 = 0.0;
            for k in ranges[2].iter() {
                for j in ranges[1].iter() {
                    for i in ranges[0].iter() {
                        let here = p_at(k, j, i);
                        let mut consider = |other: f64| {
                            let jump = (here - other).abs() / (here + other);
                            max_jump = max_jump.max(jump);
                        };
                        consider(p_at(k, j, i - 1));
                        if dim >= 2 {
                            consider(p_at(k, j - 1, i));
                        }
                        if dim >= 3 {
                            consider(p_at(k - 1, j, i));
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
        // One (mass, energy) row per block; folded by the caller in
        // global gid order.
        let partials = exec.map_blocks(pack, |_, slot| {
            let (cid, _) = Self::ids(&mut slot.data);
            let cons = slot.data.var(cid).data();
            let vol = slot.info.geom.cell_volume();
            let (mut mass, mut energy) = (0.0, 0.0);
            for k in ranges[2].iter() {
                for j in ranges[1].iter() {
                    for i in ranges[0].iter() {
                        mass += cons.get(0, k as usize, j as usize, i as usize) * vol;
                        energy += cons.get(4, k as usize, j as usize, i as usize) * vol;
                    }
                }
            }
            (mass, energy)
        });
        partials.into_iter().map(|(m, e)| vec![m, e]).collect()
    }
}
