//! Lane-batched SIMD execution of the reconstruction → Riemann → flux-store
//! pipeline.
//!
//! The scalar sweep in `package.rs` evaluates one face at a time. This
//! module processes `W` *independent* faces per iteration through the lane
//! kernels in [`crate::recon`] and [`crate::riemann`], which execute the
//! same f64 operation sequence per lane as the scalar kernels — so the lane
//! sweep is bitwise identical to the scalar oracle, face for face.
//!
//! Memory layout drives the batching strategy:
//!
//! - **x-faces** (`d == 0`): consecutive faces along a row are unit-stride,
//!   so lanes load directly from the row. Each stencil position is one
//!   contiguous `W`-wide load at a shifted offset.
//! - **y/z-faces** (`d > 0`): consecutive faces along the sweep direction
//!   are strided, but the *i*-direction is still unit-stride. The sweep is
//!   restructured to batch `W` faces at consecutive `i` for a fixed face
//!   plane — every stencil position again becomes one contiguous load,
//!   with no gather or transpose.
//!
//! Row remainders are handled with one *overlapped* final bundle: the lane
//! kernels are elementwise, so re-evaluating the last few already-computed
//! faces of a line produces (and re-stores) the exact same bits, and the
//! remainder never drops to per-face scalar cost. Only lines shorter than a
//! whole bundle (the short exterior bands of the phased sweep at small
//! blocks) fall back to the scalar kernels — identical results, counted
//! separately so the measured lane coverage (and the B16-vs-B32 remainder
//! penalty the paper's Fig. 13 shows as a vector-share cliff) is
//! observable. Counters accumulate globally across blocks and threads; see
//! [`take_face_counts`].

use std::sync::atomic::{AtomicU64, Ordering};

use vibe_core::{BlockSlot, FluxPhase};
use vibe_field::F64Lanes;
use vibe_mesh::index::IndexDomain;

use crate::package::face_bands_for;
use crate::recon::{
    reconstruct_linear, reconstruct_linear_lanes, reconstruct_weno5, reconstruct_weno5_lanes,
};
use crate::riemann::{hll_flux, hll_flux_lanes, MAX_COMPONENTS};

/// Faces evaluated through the lane kernels (per-face count: one lane
/// bundle of width `W` adds `W`).
static LANE_FACES: AtomicU64 = AtomicU64::new(0);
/// Faces evaluated through the scalar-tail fallback.
static TAIL_FACES: AtomicU64 = AtomicU64::new(0);

/// Current `(lane, scalar-tail)` face-evaluation counters.
pub fn face_counts() -> (u64, u64) {
    (
        LANE_FACES.load(Ordering::Relaxed),
        TAIL_FACES.load(Ordering::Relaxed),
    )
}

/// Reads and resets the `(lane, scalar-tail)` face-evaluation counters.
/// The repository benchmark brackets a run with this to report the
/// measured vector share of the flux pipeline (`burgers.vector_share`).
pub fn take_face_counts() -> (u64, u64) {
    (
        LANE_FACES.swap(0, Ordering::Relaxed),
        TAIL_FACES.swap(0, Ordering::Relaxed),
    )
}

/// One reconstruction scheme, usable at any lane width plus scalar.
pub(crate) trait ReconKernel {
    /// Cells the stencil reaches to either side of the face.
    const RADIUS: usize;

    /// Lane reconstruction of `W` faces; `stencil` holds `2 * RADIUS`
    /// bundles ordered upwind to downwind.
    fn lanes<const W: usize>(stencil: &[F64Lanes<W>]) -> (F64Lanes<W>, F64Lanes<W>);

    /// Scalar reconstruction of one face from `2 * RADIUS` cell averages.
    fn scalar(stencil: &[f64]) -> (f64, f64);
}

/// Fifth-order WENO (Jiang–Shu).
pub(crate) struct Weno5Kernel;

impl ReconKernel for Weno5Kernel {
    const RADIUS: usize = 3;

    #[inline(always)]
    fn lanes<const W: usize>(stencil: &[F64Lanes<W>]) -> (F64Lanes<W>, F64Lanes<W>) {
        let q: &[F64Lanes<W>; 6] = stencil.try_into().expect("six stencil bundles");
        reconstruct_weno5_lanes(q)
    }

    #[inline(always)]
    fn scalar(stencil: &[f64]) -> (f64, f64) {
        let q: &[f64; 6] = stencil.try_into().expect("six stencil cells");
        reconstruct_weno5(q)
    }
}

/// Slope-limited (minmod) linear reconstruction.
pub(crate) struct LinearKernel;

impl ReconKernel for LinearKernel {
    const RADIUS: usize = 2;

    #[inline(always)]
    fn lanes<const W: usize>(stencil: &[F64Lanes<W>]) -> (F64Lanes<W>, F64Lanes<W>) {
        let q: &[F64Lanes<W>; 4] = stencil.try_into().expect("four stencil bundles");
        reconstruct_linear_lanes(q)
    }

    #[inline(always)]
    fn scalar(stencil: &[f64]) -> (f64, f64) {
        let q: &[f64; 4] = stencil.try_into().expect("four stencil cells");
        reconstruct_linear(q)
    }
}

/// Widest stencil any [`ReconKernel`] uses.
const MAX_STENCIL: usize = 6;

/// SoA lane scratch reused across every bundle of a block sweep: one
/// left/right state bundle and one flux bundle per component, plus the
/// stencil gather buffer. Allocated (and zeroed) once per block, not per
/// bundle — only the first `3 + ns` components (resp. `2·RADIUS` stencil
/// slots) are ever written and read.
struct LaneScratch<const W: usize> {
    state_l: [F64Lanes<W>; MAX_COMPONENTS],
    state_r: [F64Lanes<W>; MAX_COMPONENTS],
    flux: [F64Lanes<W>; MAX_COMPONENTS],
    stencil: [F64Lanes<W>; MAX_STENCIL],
}

impl<const W: usize> LaneScratch<W> {
    fn new() -> Self {
        Self {
            state_l: [F64Lanes::splat(0.0); MAX_COMPONENTS],
            state_r: [F64Lanes::splat(0.0); MAX_COMPONENTS],
            flux: [F64Lanes::splat(0.0); MAX_COMPONENTS],
            stencil: [F64Lanes::splat(0.0); MAX_STENCIL],
        }
    }
}

/// Evaluates one `W`-wide bundle of faces starting at line offset `k`:
/// stencil gather, reconstruction, HLL solve, flux store.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn flux_bundle<R: ReconKernel, const W: usize>(
    u_slice: &[f64],
    q_slice: Option<&[f64]>,
    uf: &mut [f64],
    qf: Option<&mut [f64]>,
    scratch: &mut LaneScratch<W>,
    dbase: usize,
    fbase: usize,
    soff: usize,
    k: usize,
    data_comp: usize,
    flux_comp: usize,
    ns: usize,
    d: usize,
) {
    let m = R::RADIUS;
    let sten = 2 * m;
    let ncomp = 3 + ns;
    let back = m * soff;
    for c in 0..3 {
        let base = c * data_comp + dbase + k - back;
        for (j, s) in scratch.stencil[..sten].iter_mut().enumerate() {
            // SAFETY: see the invariant block in `flux_line`.
            *s = unsafe { F64Lanes::load_at(u_slice, base + j * soff) };
        }
        let (l, r) = R::lanes(&scratch.stencil[..sten]);
        scratch.state_l[c] = l;
        scratch.state_r[c] = r;
    }
    if let Some(qs) = q_slice {
        for s in 0..ns {
            let base = s * data_comp + dbase + k - back;
            for (j, st) in scratch.stencil[..sten].iter_mut().enumerate() {
                // SAFETY: see the invariant block in `flux_line`.
                *st = unsafe { F64Lanes::load_at(qs, base + j * soff) };
            }
            let (l, r) = R::lanes(&scratch.stencil[..sten]);
            scratch.state_l[3 + s] = l;
            scratch.state_r[3 + s] = r;
        }
    }
    let u_l = [scratch.state_l[0], scratch.state_l[1], scratch.state_l[2]];
    let u_r = [scratch.state_r[0], scratch.state_r[1], scratch.state_r[2]];
    hll_flux_lanes(
        &u_l,
        &scratch.state_l[3..ncomp],
        &u_r,
        &scratch.state_r[3..ncomp],
        d,
        &mut scratch.flux,
    );
    for (comp, fl) in scratch.flux.iter().enumerate().take(3) {
        // SAFETY: see the invariant block in `flux_line`.
        unsafe { fl.store_at(uf, comp * flux_comp + fbase + k) };
    }
    if let Some(qs) = qf {
        for s in 0..ns {
            // SAFETY: see the invariant block in `flux_line`.
            unsafe { scratch.flux[3 + s].store_at(qs, s * flux_comp + fbase + k) };
        }
    }
}

/// Computes reconstruction + HLL flux for one line of `len` faces whose
/// data indices advance by 1 per face (unit stride), with the stencil
/// stepping by `soff` per cell. `dbase`/`fbase` index the face-0 cell in
/// the data/flux slices (component 0); components are `data_comp` /
/// `flux_comp` apart.
///
/// Lines of at least `W` faces run entirely through the lane kernels: full
/// bundles first, then — if faces remain — one final bundle shifted back to
/// end exactly at the line's last face. The shifted bundle re-evaluates a
/// few already-stored faces, but the lane kernels are elementwise (a face's
/// value does not depend on its lane position), so the overlap re-stores
/// identical bits. Shorter lines run the scalar kernels per face — also
/// bitwise identical. The counters tally each face once: overlap faces are
/// not double-counted, so `lane + tail` equals the number of distinct faces
/// evaluated.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn flux_line<R: ReconKernel, const W: usize>(
    u_slice: &[f64],
    q_slice: Option<&[f64]>,
    uf: &mut [f64],
    mut qf: Option<&mut [f64]>,
    scratch: &mut LaneScratch<W>,
    dbase: usize,
    fbase: usize,
    soff: usize,
    len: usize,
    data_comp: usize,
    flux_comp: usize,
    ns: usize,
    d: usize,
    lane_faces: &mut u64,
    tail_faces: &mut u64,
) {
    let m = R::RADIUS;
    let sten = 2 * m;
    let ncomp = 3 + ns;
    let back = m * soff;
    debug_assert!(dbase >= back, "stencil would underflow the data slice");

    // SAFETY invariants for the unchecked lane loads/stores in
    // `flux_bundle`, shared with the scalar sweep's `get_unchecked` stencil
    // reads: every face in the line lies in the interior face range, so its
    // stencil base `c·data_comp + dbase + k - m·soff + j·soff` (j < 2m)
    // stays inside the ghost-inclusive extent because nghost ≥ m
    // (guaranteed by mesh construction: ≥ 3 for WENO5, ≥ 2 for linear), and
    // its flux index `c·flux_comp + fbase + k` lies inside the flux extent
    // by the band bounds. All are checked by `debug_assert` in debug
    // builds.
    let mut k = 0usize;
    if len >= W {
        while k + W <= len {
            flux_bundle::<R, W>(
                u_slice,
                q_slice,
                uf,
                qf.as_deref_mut(),
                scratch,
                dbase,
                fbase,
                soff,
                k,
                data_comp,
                flux_comp,
                ns,
                d,
            );
            *lane_faces += W as u64;
            k += W;
        }
        if k < len {
            // Overlapped final bundle covering faces [len - W, len).
            flux_bundle::<R, W>(
                u_slice,
                q_slice,
                uf,
                qf.as_deref_mut(),
                scratch,
                dbase,
                fbase,
                soff,
                len - W,
                data_comp,
                flux_comp,
                ns,
                d,
            );
            *lane_faces += (len - k) as u64;
        }
        return;
    }

    // Whole line is narrower than a bundle: scalar kernels, one face at a
    // time.
    while k < len {
        let mut state_l = [0.0f64; MAX_COMPONENTS];
        let mut state_r = [0.0f64; MAX_COMPONENTS];
        for comp in 0..ncomp {
            let (slice, c) = if comp < 3 {
                (u_slice, comp)
            } else {
                (q_slice.expect("scalars present"), comp - 3)
            };
            let base = c * data_comp + dbase + k - back;
            let mut stencil = [0.0f64; MAX_STENCIL];
            for (j, s) in stencil[..sten].iter_mut().enumerate() {
                *s = slice[base + j * soff];
            }
            let (l, r) = R::scalar(&stencil[..sten]);
            state_l[comp] = l;
            state_r[comp] = r;
        }
        let u_l = [state_l[0], state_l[1], state_l[2]];
        let u_r = [state_r[0], state_r[1], state_r[2]];
        let mut flux = [0.0f64; MAX_COMPONENTS];
        hll_flux(
            &u_l,
            &state_l[3..ncomp],
            &u_r,
            &state_r[3..ncomp],
            d,
            &mut flux,
        );
        for (comp, &fv) in flux.iter().enumerate().take(3) {
            uf[comp * flux_comp + fbase + k] = fv;
        }
        if let Some(qs) = qf.as_deref_mut() {
            for s in 0..ns {
                qs[s * flux_comp + fbase + k] = flux[3 + s];
            }
        }
        *tail_faces += 1;
        k += 1;
    }
}

/// Lane-batched equivalent of the scalar `block_fluxes_banded` sweep:
/// computes the face fluxes of one block, restricted to one [`FluxPhase`]
/// band (`None` sweeps every face), processing `W` faces per lane bundle.
pub(crate) fn block_fluxes_lanes<R: ReconKernel, const W: usize>(
    slot: &mut BlockSlot,
    num_scalars: usize,
    phase: Option<FluxPhase>,
) {
    let shape = *slot.data.shape();
    let dim = shape.dim();
    let ns = num_scalars;
    let uid = slot.data.id_of("u").expect("u registered");
    let qid = slot.data.id_of("q").expect("q registered");

    let (ex, ey, ez) = (shape.entire_d(0), shape.entire_d(1), shape.entire_d(2));
    let data_strides = [1usize, ex, ex * ey];
    let data_comp = ex * ey * ez;

    let ix = shape.range(0, IndexDomain::Interior);
    let iy = shape.range(1, IndexDomain::Interior);
    let iz = shape.range(2, IndexDomain::Interior);
    let ranges = [ix, iy, iz];

    let mut lane_faces = 0u64;
    let mut tail_faces = 0u64;
    let mut scratch = LaneScratch::<W>::new();

    for d in 0..dim {
        let (uvar, qvar) = slot.data.pair_mut(uid, qid);
        let (udata, uflux) = uvar.data_and_flux_mut(d);
        let (qdata, qflux) = if ns > 0 {
            let (qd, qfl) = qvar.data_and_flux_mut(d);
            (Some(qd), Some(qfl))
        } else {
            (None, None)
        };

        let (fx, fy, fz) = (
            ex + usize::from(d == 0),
            ey + usize::from(d == 1),
            ez + usize::from(d == 2),
        );
        let flux_strides = [1usize, fx, fx * fy];
        let flux_comp = fx * fy * fz;

        let u_slice = udata.as_slice();
        let q_slice = qdata.map(|q| q.as_slice());
        let uf = uflux.as_mut_slice();
        let mut qf = qflux.map(|q| q.as_mut_slice());
        let stride = data_strides[d];
        let fstride = flux_strides[d];

        let n_d = ranges[d].len();
        let faces = n_d + 1;
        let (lo_end, hi_start) = face_bands_for(R::RADIUS, n_d);
        let (band_a, band_b) = match phase {
            None => (0..faces, faces..faces),
            Some(FluxPhase::Interior) => (lo_end..hi_start, hi_start..hi_start),
            Some(FluxPhase::Exterior) => (0..lo_end, hi_start..faces),
        };
        let f0 = ranges[d].s as usize;

        if d == 0 {
            // Faces advance along the unit-stride dimension: lane-batch the
            // face bands of each (j, k) row directly.
            let (iy_r, iz_r) = (ranges[1], ranges[2]);
            for o2 in iz_r.s as usize..=iz_r.e as usize {
                for o1 in iy_r.s as usize..=iy_r.e as usize {
                    let dbase0 = f0 + o1 * data_strides[1] + o2 * data_strides[2];
                    let fbase0 = f0 + o1 * flux_strides[1] + o2 * flux_strides[2];
                    for band in [band_a.clone(), band_b.clone()] {
                        if band.is_empty() {
                            continue;
                        }
                        flux_line::<R, W>(
                            u_slice,
                            q_slice,
                            uf,
                            qf.as_deref_mut(),
                            &mut scratch,
                            dbase0 + band.start,
                            fbase0 + band.start,
                            1,
                            band.len(),
                            data_comp,
                            flux_comp,
                            ns,
                            d,
                            &mut lane_faces,
                            &mut tail_faces,
                        );
                    }
                }
            }
        } else {
            // Faces advance along a strided dimension; lane-batch along the
            // unit-stride i-direction instead: one line per (face plane,
            // outer index), `W` consecutive i-positions per bundle.
            let ob = if d == 1 { 2 } else { 1 };
            let (i_r, ob_r) = (ranges[0], ranges[ob]);
            let (i0, n_i) = (i_r.s as usize, i_r.len());
            for o2 in ob_r.s as usize..=ob_r.e as usize {
                for f in band_a.clone().chain(band_b.clone()) {
                    let dbase = i0 + (f0 + f) * stride + o2 * data_strides[ob];
                    let fbase = i0 + (f0 + f) * fstride + o2 * flux_strides[ob];
                    flux_line::<R, W>(
                        u_slice,
                        q_slice,
                        uf,
                        qf.as_deref_mut(),
                        &mut scratch,
                        dbase,
                        fbase,
                        stride,
                        n_i,
                        data_comp,
                        flux_comp,
                        ns,
                        d,
                        &mut lane_faces,
                        &mut tail_faces,
                    );
                }
            }
        }
    }

    LANE_FACES.fetch_add(lane_faces, Ordering::Relaxed);
    TAIL_FACES.fetch_add(tail_faces, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* over randomized cell data.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// Runs `flux_line` on one synthetic line and checks every stored flux
    /// bitwise against a face-at-a-time scalar evaluation of the same
    /// stencils. Exercises the full-bundle loop, the overlapped remainder
    /// bundle (any `len % W`), and the sub-bundle scalar fallback.
    fn line_matches_scalar<R: ReconKernel, const W: usize>(len: usize, soff: usize, d: usize) {
        let m = R::RADIUS;
        let sten = 2 * m;
        let ns = 2usize;
        let ncomp = 3 + ns;
        let data_comp = (len + 2 * m) * soff + W;
        let flux_comp = len;
        let dbase = m * soff;
        let mut rng = Rng(0x0123_4567_89ab_cdef ^ ((len * 31 + soff * 7 + d) as u64));
        let u: Vec<f64> = (0..3 * data_comp).map(|_| rng.next()).collect();
        let q: Vec<f64> = (0..ns * data_comp).map(|_| 1.0 + rng.next()).collect();
        let mut uf = vec![0.0f64; 3 * flux_comp];
        let mut qf = vec![0.0f64; ns * flux_comp];
        let mut scratch = LaneScratch::<W>::new();
        let (mut lane, mut tail) = (0u64, 0u64);
        flux_line::<R, W>(
            &u,
            Some(&q),
            &mut uf,
            Some(&mut qf),
            &mut scratch,
            dbase,
            0,
            soff,
            len,
            data_comp,
            flux_comp,
            ns,
            d,
            &mut lane,
            &mut tail,
        );
        assert_eq!(lane + tail, len as u64, "face accounting (len {len})");
        if len >= W {
            assert_eq!(tail, 0, "full lines never take the scalar fallback");
        } else {
            assert_eq!(lane, 0, "sub-bundle lines are all scalar");
        }
        for k in 0..len {
            let mut state_l = [0.0f64; MAX_COMPONENTS];
            let mut state_r = [0.0f64; MAX_COMPONENTS];
            for comp in 0..ncomp {
                let (slice, c) = if comp < 3 { (&u, comp) } else { (&q, comp - 3) };
                let base = c * data_comp + dbase + k - m * soff;
                let mut stencil = [0.0f64; MAX_STENCIL];
                for (j, s) in stencil[..sten].iter_mut().enumerate() {
                    *s = slice[base + j * soff];
                }
                let (l, r) = R::scalar(&stencil[..sten]);
                state_l[comp] = l;
                state_r[comp] = r;
            }
            let u_l = [state_l[0], state_l[1], state_l[2]];
            let u_r = [state_r[0], state_r[1], state_r[2]];
            let mut flux = [0.0f64; MAX_COMPONENTS];
            hll_flux(
                &u_l,
                &state_l[3..ncomp],
                &u_r,
                &state_r[3..ncomp],
                d,
                &mut flux,
            );
            for comp in 0..3 {
                assert_eq!(
                    uf[comp * flux_comp + k].to_bits(),
                    flux[comp].to_bits(),
                    "u flux comp {comp} face {k} (len {len}, soff {soff}, d {d}, W {W})"
                );
            }
            for s in 0..ns {
                assert_eq!(
                    qf[s * flux_comp + k].to_bits(),
                    flux[3 + s].to_bits(),
                    "q flux scalar {s} face {k} (len {len}, soff {soff}, d {d}, W {W})"
                );
            }
        }
    }

    fn all_lengths<R: ReconKernel, const W: usize>() {
        // Every remainder class 0..W plus sub-bundle lengths, unit-stride
        // (x-sweep) and strided (y/z-sweep) stencils, all flux directions.
        for len in 1..=(3 * W + 1) {
            for (soff, d) in [(1usize, 0usize), (5, 1), (29, 2)] {
                line_matches_scalar::<R, W>(len, soff, d);
            }
        }
    }

    #[test]
    fn flux_line_matches_scalar_weno5_w4() {
        all_lengths::<Weno5Kernel, 4>();
    }

    #[test]
    fn flux_line_matches_scalar_weno5_w8() {
        all_lengths::<Weno5Kernel, 8>();
    }

    #[test]
    fn flux_line_matches_scalar_linear_w4() {
        all_lengths::<LinearKernel, 4>();
    }

    #[test]
    fn flux_line_matches_scalar_linear_w8() {
        all_lengths::<LinearKernel, 8>();
    }
}
