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
//! remainder never drops to per-face scalar cost. The framework's tiles
//! keep rows at full block length; where a box is narrower than a bundle
//! in `i` (the one-cell x-layers re-swept under a corrected face), bundles
//! run *across* rows instead — `W` faces at consecutive `j`, gathered and
//! scattered lane by lane. Only lines shorter than a whole bundle either
//! way (degenerate blocks) fall back to the scalar kernels — identical
//! results, counted separately so the measured lane coverage is
//! observable.
//! Counters accumulate globally across blocks and threads; see
//! [`take_face_counts`].

use std::sync::atomic::{AtomicU64, Ordering};

use vibe_core::FluxTile;
use vibe_field::{BlockData, F64Lanes};

use crate::package::{Q, U};
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

/// SoA lane scratch reused across every bundle of a tile: one
/// left/right state bundle and one flux bundle per component, plus the
/// stencil gather buffer. Allocated (and zeroed) once per tile, not per
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

/// What the lines of one direction of a tile share: the state, how far
/// apart its stencil cells and components lie, and the tile array's
/// component stride.
struct Lines<'a> {
    u: &'a [f64],
    q: &'a [f64],
    soff: usize,
    data_comp: usize,
    flux_comp: usize,
    ns: usize,
    ncomp: usize,
    d: usize,
}

impl Lines<'_> {
    /// The state slice and first-cell offset of flux component `comp`.
    #[inline(always)]
    fn component(&self, comp: usize) -> (&[f64], usize) {
        match comp < 3 {
            true => (self.u, comp * self.data_comp),
            false => (self.q, (comp - 3) * self.data_comp),
        }
    }
}

/// Evaluates one `W`-wide bundle of faces starting at line offset `k`:
/// stencil gather, reconstruction, HLL solve, flux store of the tile's
/// `ncomp` components.
///
/// # Safety
///
/// [`flux_line`]'s contract for the faces `k..k + W`.
#[inline(always)]
unsafe fn flux_bundle<R: ReconKernel, const W: usize, const ACROSS: bool>(
    lines: &Lines<'_>,
    out: &mut [f64],
    scratch: &mut LaneScratch<W>,
    (dbase, fbase): (usize, usize),
    (step, fstep): (usize, usize),
    k: usize,
) {
    let (sten, soff, ns) = (2 * R::RADIUS, lines.soff, lines.ns);
    for comp in 0..3 + ns {
        let (slice, first) = lines.component(comp);
        let base = first + dbase + k * step - R::RADIUS * soff;
        for (j, s) in scratch.stencil[..sten].iter_mut().enumerate() {
            *s = match ACROSS {
                // In bounds by the caller's contract.
                false => F64Lanes::load_at(slice, base + j * soff),
                true => F64Lanes::from_fn(|l| slice[base + j * soff + l * step]),
            };
        }
        let (l, r) = R::lanes(&scratch.stencil[..sten]);
        scratch.state_l[comp] = l;
        scratch.state_r[comp] = r;
    }
    let u_l = [scratch.state_l[0], scratch.state_l[1], scratch.state_l[2]];
    let u_r = [scratch.state_r[0], scratch.state_r[1], scratch.state_r[2]];
    hll_flux_lanes(
        &u_l,
        &scratch.state_l[3..3 + ns],
        &u_r,
        &scratch.state_r[3..3 + ns],
        lines.d,
        &mut scratch.flux,
    );
    for (comp, fl) in scratch.flux.iter().enumerate().take(lines.ncomp) {
        let at = comp * lines.flux_comp + fbase + k * fstep;
        match ACROSS {
            // In bounds by the caller's contract.
            false => fl.store_at(out, at),
            true => (0..W).for_each(|l| out[at + l * fstep] = fl.lane(l)),
        }
    }
}

/// Computes reconstruction + HLL flux for one line of `len` faces whose
/// data/flux indices advance by `steps` per face — both 1 along a row,
/// where lanes load and store contiguously; `ACROSS` rows they gather and
/// scatter. `bases` index the face-0 cell in the data/flux slices
/// (component 0).
///
/// Lines of at least `W` faces run entirely through the lane kernels: full
/// bundles first, then — if faces remain — one final bundle shifted back to
/// end exactly at the line's last face. The shifted bundle re-evaluates a
/// few already-stored faces, but the lane kernels are elementwise (a face's
/// value does not depend on its lane position), so the overlap re-stores
/// identical bits. Shorter lines run the scalar kernels per face — also
/// bitwise identical. `faces` tallies each face once as `(lane, scalar)`:
/// overlap faces are not double-counted.
///
/// # Safety
///
/// For every face `k < len`, component `c < 3 + ns` and stencil slot
/// `j < 2·RADIUS`, `c·data_comp + dbase + k·step − RADIUS·soff + j·soff`
/// must index the state slices, and for every `c < ncomp`,
/// `c·flux_comp + fbase + k·fstep` must index `out`: the lane path along
/// a row reads and writes unchecked.
#[inline(always)]
unsafe fn flux_line<R: ReconKernel, const W: usize, const ACROSS: bool>(
    lines: &Lines<'_>,
    out: &mut [f64],
    scratch: &mut LaneScratch<W>,
    bases: (usize, usize),
    steps: (usize, usize),
    len: usize,
    faces: &mut (u64, u64),
) {
    // Along a row the steps are compile-time ones in the hot loops.
    let steps = if ACROSS { steps } else { (1, 1) };
    if len >= W {
        // The bundles cover faces of this line only, so the caller's
        // contract is `flux_bundle`'s.
        let mut bundle = |k| flux_bundle::<R, W, ACROSS>(lines, out, scratch, bases, steps, k);
        (0..=len - W).step_by(W).for_each(&mut bundle);
        if !len.is_multiple_of(W) {
            // Overlapped final bundle covering faces [len - W, len).
            bundle(len - W);
        }
        faces.0 += len as u64;
        return;
    }

    // Whole line is narrower than a bundle: scalar kernels, one face at a
    // time.
    let (sten, ns) = (2 * R::RADIUS, lines.ns);
    for k in 0..len {
        let mut state_l = [0.0f64; MAX_COMPONENTS];
        let mut state_r = [0.0f64; MAX_COMPONENTS];
        for comp in 0..3 + ns {
            let (slice, first) = lines.component(comp);
            let base = first + bases.0 + k * steps.0 - R::RADIUS * lines.soff;
            let mut stencil = [0.0f64; MAX_STENCIL];
            for (j, s) in stencil[..sten].iter_mut().enumerate() {
                *s = slice[base + j * lines.soff];
            }
            (state_l[comp], state_r[comp]) = R::scalar(&stencil[..sten]);
        }
        let u_l = [state_l[0], state_l[1], state_l[2]];
        let u_r = [state_r[0], state_r[1], state_r[2]];
        let mut flux = [0.0f64; MAX_COMPONENTS];
        let (q_l, q_r) = (&state_l[3..3 + ns], &state_r[3..3 + ns]);
        hll_flux(&u_l, q_l, &u_r, q_r, lines.d, &mut flux);
        for (comp, &fv) in flux.iter().enumerate().take(lines.ncomp) {
            out[comp * lines.flux_comp + bases.1 + k * steps.1] = fv;
        }
    }
    faces.1 += len as u64;
}

/// The Burgers flux primitive: fills every face of `tile` the framework
/// asks for from the state in `data`, `W` faces per lane bundle along the
/// unit-stride direction — x-faces along their row, y- and z-faces across
/// `W` consecutive `i` of one face plane — or, for boxes narrower than a
/// bundle in `i`, along `j`.
pub(crate) fn fill_tile<R: ReconKernel, const W: usize>(
    data: &BlockData,
    ns: usize,
    tile: &mut FluxTile<'_>,
) {
    let shape = *data.shape();
    let (cells, ncomp) = (tile.cells(), tile.ncomp());
    let g: [usize; 3] = std::array::from_fn(|d| shape.nghost_d(d));
    let (ex, ey, ez) = (shape.entire_d(0), shape.entire_d(1), shape.entire_d(2));
    let data_strides = [1usize, ex, ex * ey];
    let data_comp = ex * ey * ez;
    let (u, q) = (data.var(U).data().as_slice(), data.var(Q).data().as_slice());
    // What the unchecked lane accesses rest on (see `flux_line`).
    assert!(
        (0..3).all(|d| cells.lo[d] + cells.n[d] <= shape.ncells()[d])
            && (0..tile.dim()).all(|d| g[d] >= R::RADIUS)
            && ncomp == 3 + ns.max(1)
            && u.len() == 3 * data_comp
            && q.len() == ns.max(1) * data_comp,
        "tile {cells:?} of {ncomp} components does not fit the block's interior and ghost shell"
    );
    // First interior cell of the box in the state arrays.
    let origin: usize = (0..3).map(|d| (g[d] + cells.lo[d]) * data_strides[d]).sum();

    let mut faces = (0u64, 0u64);
    let mut scratch = LaneScratch::<W>::new();
    for (d, &soff) in data_strides.iter().enumerate().take(tile.dim()) {
        let [ni, nj, nk] = tile.extent(d);
        let [_, sj, sk, flux_comp] = tile.steps(d);
        let first: [usize; 3] = std::array::from_fn(|a| usize::from(a == d) * tile.first_face(d));
        let lines = Lines {
            u,
            q,
            soff,
            data_comp,
            flux_comp,
            ns,
            ncomp,
            d,
        };
        let out = tile.faces_mut(d);
        // Lines run along i; across rows (along j) where only those reach
        // a bundle.
        let across = ni - first[0] < W && nj - first[1] >= W;
        let (a, len) = if across {
            (0, nj - first[1])
        } else {
            (1, ni - first[0])
        };
        for k in first[2]..nk {
            for line in first[a]..[ni, nj][a] {
                let (i, j) = if across {
                    (line, first[1])
                } else {
                    (first[0], line)
                };
                let bases = (origin + i + j * ex + k * ex * ey, i + j * sj + k * sk);
                // SAFETY: the box lies in the interior and the ghost shell
                // is at least RADIUS wide along `d` (asserted above), so the
                // stencils of the line's faces stay inside the state arrays;
                // `out` is direction `d`'s array of the tile, which holds
                // `ncomp` components `flux_comp` apart over `ni` faces per
                // row.
                unsafe {
                    if across {
                        let steps = (ex, sj);
                        flux_line::<R, W, true>(
                            &lines,
                            out,
                            &mut scratch,
                            bases,
                            steps,
                            len,
                            &mut faces,
                        );
                    } else {
                        let steps = (1, 1);
                        flux_line::<R, W, false>(
                            &lines,
                            out,
                            &mut scratch,
                            bases,
                            steps,
                            len,
                            &mut faces,
                        );
                    }
                }
            }
        }
    }
    LANE_FACES.fetch_add(faces.0, Ordering::Relaxed);
    TAIL_FACES.fetch_add(faces.1, Ordering::Relaxed);
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
        let mut out = vec![0.0f64; ncomp * flux_comp];
        let mut scratch = LaneScratch::<W>::new();
        let mut faces = (0u64, 0u64);
        let lines = Lines {
            u: &u,
            q: &q,
            soff,
            data_comp,
            flux_comp,
            ns,
            ncomp,
            d,
        };
        // SAFETY: `data_comp` leaves RADIUS cells of stencil either side of
        // the line plus a bundle of slack, `out` holds `ncomp` lines.
        unsafe {
            let bases = (dbase, 0);
            flux_line::<R, W, false>(
                &lines,
                &mut out,
                &mut scratch,
                bases,
                (1, 1),
                len,
                &mut faces,
            );
        }
        let (lane, tail) = faces;
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
            for comp in 0..ncomp {
                assert_eq!(
                    out[comp * flux_comp + k].to_bits(),
                    flux[comp].to_bits(),
                    "flux comp {comp} face {k} (len {len}, soff {soff}, d {d}, W {W})"
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
