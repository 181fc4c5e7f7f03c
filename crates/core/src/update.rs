//! Conserved-state updates: Runge-Kutta stage averaging over the flux
//! divergence the sweep left behind (`WeightedSumData` + `FluxDivergence`),
//! after re-reducing the layers under flux-corrected faces.

use vibe_exec::{catalog, ExecCtx};
use vibe_field::VarId;
use vibe_prof::{Recorder, RegionKey, StepFunction};

use crate::block::BlockSlot;
use crate::sweep::reduce_layers;

/// Applies one Runge-Kutta stage update to every flux-bearing independent
/// variable `ids` in `pack`:
///
/// ```text
/// u ← a0·u⁰ + b·u − c·dt·∇·F
/// ```
///
/// where `u⁰` is the cycle-start copy saved by the driver and `∇·F` the
/// divergence the stage's sweep wrote ([`crate::sweep`]). RK2 uses
/// `(a0, b, c) = (0, 1, 1)` for the predictor and `(0.5, 0.5, 0.5)` for the
/// corrector. A block with flux-corrected faces — bit `2 * d + side` of
/// `corrected[gid]`, the faces whose layers the stage's sweep kept — first
/// has the divergence of the one-cell layers under them re-reduced from
/// the kept fluxes and the corrected planes ([`reduce_layers`]); no face
/// flux is evaluated again. Records
/// the `WeightedSumData` and `FluxDivergence` kernels (one launch each per
/// pack); blocks are updated independently, in parallel under `exec`.
pub fn flux_divergence_update(
    pack: &mut [&mut BlockSlot],
    exec: ExecCtx,
    (a0, b, c): (f64, f64, f64),
    dt: f64,
    ids: &[VarId],
    corrected: &[u8],
    rec: &mut Recorder,
) {
    // The weighted sum and flux divergence run fused per block, so one
    // region covers both kernels (their split shows up in the modeled
    // breakdown, not the measured one).
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::FluxDivergence));
    let Some(first) = pack.first() else { return };
    let shape = *first.data.shape();
    let ncomp: usize = ids.iter().map(|&id| first.data.var(id).ncomp()).sum();
    let comp_cells = (pack.len() * shape.interior_count() * ncomp) as u64;
    catalog::WEIGHTED_SUM_DATA.record(rec, comp_cells, 1.0);
    catalog::FLUX_DIVERGENCE.record(rec, comp_cells, 1.0);
    exec.for_each_block(pack, |_, slot| {
        let faces = corrected.get(slot.info.gid).copied().unwrap_or(0);
        if faces != 0 {
            reduce_layers(slot, ids, faces);
        }
        stage_update(slot, ids, a0, b, c * dt);
    });
}

/// `u = a0·u⁰ + b·u − cdt·div` over the interior of every variable `ids`.
fn stage_update(slot: &mut BlockSlot, ids: &[VarId], a0: f64, b: f64, cdt: f64) {
    let shape = *slot.data.shape();
    let [nx, ny, nz] = shape.ncells();
    let g: [usize; 3] = std::array::from_fn(|d| shape.nghost_d(d));
    let BlockSlot { data, stage0, .. } = slot;
    for &id in ids {
        let u0 = stage0.get(id.0).map_or(&[][..], Vec::as_slice);
        let (u, div) = data.var_mut(id).data_mut_and_div();
        let [ncomp, ez, ey, ex] = u.shape();
        assert_eq!(u0.len(), div.len(), "stage-0 copy saved before use");
        let (u, div) = (u.as_mut_slice(), div.as_slice());
        for c in 0..ncomp {
            for k in 0..nz {
                for j in 0..ny {
                    let row = ((c * ez + k + g[2]) * ey + j + g[1]) * ex + g[0];
                    let compact = ((c * nz + k) * ny + j) * nx;
                    let urow = &mut u[row..row + nx];
                    let u0row = &u0[compact..compact + nx];
                    let divrow = &div[compact..compact + nx];
                    for q in 0..nx {
                        urow[q] = a0 * u0row[q] + b * urow[q] - cdt * divrow[q];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockInfo, BlockSlot};
    use crate::package::Package;
    use crate::sweep::{sweep_block, with_scratch, CellBox, TILE_BUDGET_BYTES};
    use crate::test_package::Advect;
    use vibe_field::BlockData;
    use vibe_mesh::{Mesh, MeshParams};

    /// One 8-cell 1-D block of the upwind test package (`F_i = q_{i-1}`),
    /// `q` filled by storage index.
    fn setup(q: impl Fn(usize) -> f64) -> (BlockSlot, VarId) {
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(1)
                .mesh_cells(8)
                .block_cells(8)
                .max_levels(1)
                .nghost(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut data = BlockData::new(mesh.index_shape());
        Advect::default().register(&mut data);
        let qid = data.id_of("q").unwrap();
        let dat = data.var_mut(qid).data_mut();
        for i in 0..dat.shape()[3] {
            dat.set(0, 0, 0, i, q(i));
        }
        let mut slot = BlockSlot::new(BlockInfo::from_mesh(&mesh, 0), data);
        slot.save_stage0(&[qid]);
        (slot, qid)
    }

    /// Sweeps `q` on every block of `pack` once in the production tiling,
    /// keeping the layers under the faces `keep`.
    fn sweep_pack(
        pkg: &Advect,
        pack: &mut [&mut BlockSlot],
        qid: VarId,
        (exec, keep): (ExecCtx, u8),
    ) {
        let shape = *pack[0].data.shape();
        let tiles = CellBox::interior(&shape).tiles(shape.dim(), 1, TILE_BUDGET_BYTES / 8);
        exec.for_each_block(pack, |_, slot| {
            let mut out = [slot.data.var_mut(qid).take_flux_out()];
            with_scratch(|s| sweep_block(pkg, &slot.info, &slot.data, &mut out, &tiles, keep, s));
            let [out] = out;
            slot.data.var_mut(qid).put_flux_out(out);
        });
    }

    /// Sweeps and updates `slot` with stage coefficients `coef`.
    fn stage(slot: &mut BlockSlot, qid: VarId, exec: ExecCtx, coef: (f64, f64, f64), dt: f64) {
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        let (pkg, mut pack) = (Advect::default(), vec![slot]);
        sweep_pack(&pkg, &mut pack, qid, (exec, 0));
        flux_divergence_update(&mut pack, exec, coef, dt, &[qid], &[], &mut rec);
        rec.end_cycle(1, 0, 0, 0);
    }

    #[test]
    fn zero_flux_gradient_means_no_change() {
        let (mut slot, qid) = setup(|_| 2.0);
        stage(&mut slot, qid, ExecCtx::serial(), (0.0, 1.0, 1.0), 0.1);
        assert_eq!(slot.data.var(qid).data().get(0, 0, 0, 4), 2.0);
    }

    #[test]
    fn constant_flux_gradient_advances_state() {
        // Fx = i − 1  =>  dF/dx = 1/dx * 1 per cell; dx = 1/8.
        let (mut slot, qid) = setup(|i| i as f64);
        stage(&mut slot, qid, ExecCtx::serial(), (0.0, 1.0, 1.0), 0.01);
        let dx = 1.0 / 8.0;
        let want = 4.0 - 0.01 * (1.0 / dx);
        let got = slot.data.var(qid).data().get(0, 0, 0, 4);
        assert!((got - want).abs() < 1e-14, "{got} vs {want}");
    }

    #[test]
    fn rk2_corrector_averages_states() {
        let (mut slot, qid) = setup(|_| 4.0); // u0 = 4
        slot.data.var_mut(qid).data_mut().fill(8.0); // u = 8 (predictor out)
                                                     // Zero flux gradient: u <- 0.5*4 + 0.5*8 = 6.
        stage(&mut slot, qid, ExecCtx::serial(), (0.5, 0.5, 0.5), 0.1);
        assert_eq!(slot.data.var(qid).data().get(0, 0, 0, 5), 6.0);
    }

    #[test]
    fn parallel_update_matches_serial_bitwise() {
        let build = |exec: ExecCtx| {
            let (mut slot, qid) = setup(|i| (i as f64 * 0.37).sin());
            stage(&mut slot, qid, exec, (0.5, 0.5, 0.5), 0.013);
            slot.data.var(qid).data().clone()
        };
        assert!(build(ExecCtx::serial()) == build(ExecCtx::new(4)));
    }

    /// A corrected face makes the update re-reduce the layer under it with
    /// the plane's value in place of the block's own flux.
    #[test]
    fn corrected_plane_reaches_the_layer_under_it() {
        let run = |corrected: &[u8]| {
            let (mut slot, qid) = setup(|i| i as f64);
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            let (pkg, exec, mut pack) = (Advect::default(), ExecCtx::serial(), vec![&mut slot]);
            sweep_pack(&pkg, &mut pack, qid, (exec, corrected[0]));
            // The low-x face flux (own value: q_1 = 1) as flux correction
            // would overwrite it.
            pack[0].data.var_mut(qid).planes_mut()[0].fill(3.0);
            let coef = (0.0, 1.0, 1.0);
            flux_divergence_update(&mut pack, exec, coef, 0.01, &[qid], corrected, &mut rec);
            rec.end_cycle(1, 0, 0, 0);
            slot.data.var(qid).data().clone()
        };
        let (plain, fixed) = (run(&[0]), run(&[1]));
        // First interior cell (storage 2): F_right = q_2 = 2, F_left 1 -> 3.
        assert!((plain.get(0, 0, 0, 2) - (2.0 - 0.01 * 8.0 * (2.0 - 1.0))).abs() < 1e-14);
        assert!((fixed.get(0, 0, 0, 2) - (2.0 - 0.01 * 8.0 * (2.0 - 3.0))).abs() < 1e-14);
        for i in 3..10 {
            assert_eq!(plain.get(0, 0, 0, i), fixed.get(0, 0, 0, i));
        }
    }

    #[test]
    fn kernels_recorded_once_per_pack() {
        let (mut slot, qid) = setup(|_| 0.0);
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        let mut pack = vec![&mut slot];
        flux_divergence_update(
            &mut pack,
            ExecCtx::serial(),
            (0.0, 1.0, 1.0),
            0.1,
            &[qid],
            &[],
            &mut rec,
        );
        rec.end_cycle(1, 0, 0, 0);
        let t = rec.totals();
        assert_eq!(
            t.kernels[&(vibe_prof::StepFunction::WeightedSumData, "WeightedSumData")].launches,
            1
        );
        assert_eq!(
            t.kernels[&(vibe_prof::StepFunction::FluxDivergence, "FluxDivergence")].launches,
            1
        );
    }
}
