//! Compressible Euler equations: five conserved components
//! `[ρ, ρu, ρv, ρw, E]` with an ideal-gas closure, minmod-limited linear
//! reconstruction, an HLL Riemann solver (Davis wavespeed estimates), and
//! shock-based refinement tagging on the relative pressure jump.
//!
//! Where Burgers refines on smooth gradient magnitude, Euler's tagger
//! fires on genuine shocks: an expanding blast wave sweeps refinement
//! fronts across the domain and triggers markedly more AMR churn — the
//! regrid-heavy corner of the scenario matrix.

use vibe_core::sweep::{self, FaceFlux};
use vibe_core::{BlockInfo, FluxTile, Package, RefinementPolicy};
use vibe_field::{BlockData, F64Lanes, Metadata, VarId};
use vibe_mesh::index::IndexDomain;
use vibe_mesh::IndexShape;

use vibe_burgers::LinearKernel;

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
    #[inline(always)]
    fn prim<const W: usize>(
        &self,
        u: &[F64Lanes<W>],
    ) -> (F64Lanes<W>, [F64Lanes<W>; 3], F64Lanes<W>) {
        let rho = u[0].max(F64Lanes::splat(1e-12));
        let vel = [u[1] / rho, u[2] / rho, u[3] / rho];
        let ke = rho * 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let p = ((u[4] - ke) * (self.gamma - 1.0)).max(F64Lanes::splat(1e-12));
        (rho, vel, p)
    }

    /// [`EulerPackage::prim`] of one cell.
    fn prim_cell(&self, u: [f64; NCONS]) -> (f64, [f64; 3], f64) {
        let (rho, vel, p) = self.prim(&u.map(|v| F64Lanes([v])));
        (rho.lane(0), vel.map(|v| v.lane(0)), p.lane(0))
    }
}

/// HLL with Davis wavespeed estimates; the solver's three-way branch on
/// the signal speeds is a per-lane select over the same three candidates.
impl FaceFlux for EulerPackage {
    #[inline(always)]
    fn flux<const W: usize>(
        &self,
        d: usize,
        _inv_dx: f64,
        ul: &[F64Lanes<W>],
        ur: &[F64Lanes<W>],
        out: &mut [F64Lanes<W>],
    ) {
        let (rho_l, vel_l, p_l) = self.prim(ul);
        let (rho_r, vel_r, p_r) = self.prim(ur);
        let c_l = (p_l * self.gamma / rho_l).sqrt();
        let c_r = (p_r * self.gamma / rho_r).sqrt();
        // Davis estimates: the widest of the left/right acoustic fans.
        let sl = (vel_l[d] - c_l).min(vel_r[d] - c_r);
        let sr = (vel_l[d] + c_l).max(vel_r[d] + c_r);
        let zero = F64Lanes::splat(0.0);
        let (take_l, take_r) = (sl.ge(zero), sr.le(zero));
        let inv = F64Lanes::splat(1.0) / (sr - sl);
        let slsr = sl * sr;
        for c in 0..NCONS {
            // Physical flux of the conserved vector along `d`.
            let phys = |u: &[F64Lanes<W>], un: F64Lanes<W>, p: F64Lanes<W>| {
                let f = if c == 4 { (u[4] + p) * un } else { u[c] * un };
                if c == 1 + d {
                    f + p
                } else {
                    f
                }
            };
            let (fl, fr) = (phys(ul, vel_l[d], p_l), phys(ur, vel_r[d], p_r));
            let blend = (sr * fl - sl * fr + slsr * (ur[c] - ul[c])) * inv;
            out[c] = take_l.select(fl, take_r.select(fr, blend));
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
    fn fill_fluxes(&self, info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>) {
        sweep::fill_lines::<LinearKernel, _>(self, info, data, tile);
    }

    fn fill_derived(&self, _info: &BlockInfo, data: &mut BlockData) {
        let (cid, pid) = Self::ids(data);
        let (cons_var, pres_var) = data.pair_mut(cid, pid);
        // Every cell, ghosts included: the arrays end to end.
        let pres = pres_var.data_mut().as_mut_slice();
        let u = components(cons_var.data().as_slice(), 0, pres.len());
        for (t, p) in pres.iter_mut().enumerate() {
            *p = self.prim_cell(u.map(|c| c[t])).2;
        }
    }

    fn estimate_dt(&self, info: &BlockInfo, data: &mut BlockData) -> f64 {
        let dim = data.shape().dim();
        let (rows, n) = interior_rows(data.shape());
        let (cid, _) = Self::ids(data);
        let cons = data.var(cid).data().as_slice();
        let dx = info.geom.dx();
        let mut block_min = f64::INFINITY;
        for &row in &rows {
            let u = components(cons, row, n);
            for t in 0..n {
                let (rho, vel, p) = self.prim_cell(u.map(|c| c[t]));
                let c = (self.gamma * p / rho).sqrt();
                for d in 0..dim {
                    block_min = block_min.min(dx[d] / (vel[d].abs() + c));
                }
            }
        }
        block_min
    }

    /// Shock sensor: the largest relative pressure jump between adjacent
    /// cells, computed from the conserved state directly (no dependence on
    /// the derived fill, so initial regridding sees it too).
    fn refinement_indicator(&self, _info: &BlockInfo, data: &mut BlockData) -> f64 {
        let shape = *data.shape();
        let dim = shape.dim();
        let (rows, n) = interior_rows(&shape);
        let (ex, plane) = (shape.entire_d(0), shape.entire_d(0) * shape.entire_d(1));
        let ny = shape.ncells()[1];
        let (cid, _) = Self::ids(data);
        let cons = data.var(cid).data().as_slice();
        let pressures = |out: &mut Vec<f64>, start: usize, len: usize| {
            let u = components(cons, start, len);
            out.clear();
            out.extend((0..len).map(|t| self.prim_cell(u.map(|c| c[t])).2));
        };
        // This row and the one below it in j from the cell below in i on;
        // the row below in k.
        let (mut here, mut south, mut down) = (Vec::new(), Vec::new(), Vec::new());
        let mut max_jump: f64 = 0.0;
        for (at, &row) in rows.iter().enumerate() {
            // The row below in j was `here` a moment ago, unless it is a
            // ghost row.
            if dim >= 2 && at % ny == 0 {
                pressures(&mut south, row - ex - 1, n + 1);
            } else if dim >= 2 {
                std::mem::swap(&mut here, &mut south);
            }
            pressures(&mut here, row - 1, n + 1);
            if dim >= 3 {
                pressures(&mut down, row - plane, n);
            }
            for t in 0..n {
                let mut consider = |other: f64| {
                    let jump = (here[t + 1] - other).abs() / (here[t + 1] + other);
                    max_jump = max_jump.max(jump);
                };
                consider(here[t]);
                if dim >= 2 {
                    consider(south[t + 1]);
                }
                if dim >= 3 {
                    consider(down[t]);
                }
            }
        }
        max_jump
    }

    /// The block's (mass, energy).
    fn history_contributions(&self, info: &BlockInfo, data: &mut BlockData, row: &mut [f64]) {
        let (rows, n) = interior_rows(data.shape());
        let (cid, _) = Self::ids(data);
        let cons = data.var(cid).data().as_slice();
        let vol = info.geom.cell_volume();
        let (mut mass, mut energy) = (0.0, 0.0);
        for &at in &rows {
            let u = components(cons, at, n);
            for (rho, e) in u[0].iter().zip(u[4]) {
                mass += rho * vol;
                energy += e * vol;
            }
        }
        row.copy_from_slice(&[mass, energy]);
    }
}

/// Where the interior rows of a block of `shape` start in one component of
/// a cell array, in `(k, j)` order, and how long they are.
fn interior_rows(shape: &IndexShape) -> (Vec<usize>, usize) {
    let [ix, iy, iz] = [0, 1, 2].map(|d| shape.range(d, IndexDomain::Interior));
    let (ex, ey) = (shape.entire_d(0), shape.entire_d(1));
    let row = move |k: i64, j: i64| (k as usize * ey + j as usize) * ex + ix.s as usize;
    let rows = iz.iter().flat_map(|k| iy.iter().map(move |j| row(k, j)));
    (rows.collect(), ix.len())
}

/// The `len` cells from `start` on of each conserved component of `cons`.
fn components(cons: &[f64], start: usize, len: usize) -> [&[f64]; NCONS] {
    let comp = cons.len() / NCONS;
    std::array::from_fn(|c| &cons[c * comp + start..c * comp + start + len])
}
