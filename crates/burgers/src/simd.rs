//! What Burgers hands the framework's line walker
//! ([`vibe_core::sweep::fill_lines`]): its two reconstruction kernels, its
//! HLL face flux, and the counters of the faces the walker evaluated for
//! it — in lane bundles, or at `W = 1` where fewer rows than a bundle
//! are left (degenerate blocks), so the measured lane coverage is
//! observable.
//! Counters accumulate globally across blocks and threads; see
//! [`take_face_counts`].

use std::sync::atomic::{AtomicU64, Ordering};

use vibe_core::sweep::{FaceFlux, ReconKernel};
use vibe_field::F64Lanes;

use crate::package::BurgersPackage;
use crate::recon::{reconstruct_linear_lanes, reconstruct_weno5_lanes};
use crate::riemann::hll_flux_lanes;

/// Burgers faces evaluated in lane bundles (per-face count: one bundle of
/// width `W` adds `W`).
static LANE_FACES: AtomicU64 = AtomicU64::new(0);
/// Burgers faces evaluated at `W = 1`.
static TAIL_FACES: AtomicU64 = AtomicU64::new(0);

/// Current `(lane, W = 1 tail)` face-evaluation counters.
pub fn face_counts() -> (u64, u64) {
    (
        LANE_FACES.load(Ordering::Relaxed),
        TAIL_FACES.load(Ordering::Relaxed),
    )
}

/// Reads and resets the `(lane, W = 1 tail)` face-evaluation counters.
/// The repository benchmark brackets a run with this to report the
/// measured vector share of the flux pipeline (`burgers.vector_share`).
pub fn take_face_counts() -> (u64, u64) {
    (
        LANE_FACES.swap(0, Ordering::Relaxed),
        TAIL_FACES.swap(0, Ordering::Relaxed),
    )
}

/// Adds what one [`vibe_core::sweep::fill_lines`] call returned.
pub(crate) fn count_faces((lane, tail): (u64, u64)) {
    LANE_FACES.fetch_add(lane, Ordering::Relaxed);
    TAIL_FACES.fetch_add(tail, Ordering::Relaxed);
}

/// Fifth-order WENO (Jiang–Shu).
#[derive(Debug, Clone, Copy)]
pub struct Weno5Kernel;

impl ReconKernel for Weno5Kernel {
    const RADIUS: usize = 3;

    #[inline(always)]
    fn lanes<const W: usize>(stencil: &[F64Lanes<W>]) -> (F64Lanes<W>, F64Lanes<W>) {
        let q: &[F64Lanes<W>; 6] = stencil.try_into().expect("six stencil bundles");
        reconstruct_weno5_lanes(q)
    }
}

/// Slope-limited (minmod) linear reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct LinearKernel;

impl ReconKernel for LinearKernel {
    const RADIUS: usize = 2;

    #[inline(always)]
    fn lanes<const W: usize>(stencil: &[F64Lanes<W>]) -> (F64Lanes<W>, F64Lanes<W>) {
        let q: &[F64Lanes<W>; 4] = stencil.try_into().expect("four stencil bundles");
        reconstruct_linear_lanes(q)
    }
}

/// HLL over the velocity and the passive scalars; a scalar-free problem's
/// one inert scalar carries no flux.
impl FaceFlux for BurgersPackage {
    #[inline(always)]
    fn flux<const W: usize>(
        &self,
        d: usize,
        _inv_dx: f64,
        left: &[F64Lanes<W>],
        right: &[F64Lanes<W>],
        out: &mut [F64Lanes<W>],
    ) {
        let ns = self.params().num_scalars;
        let u_l = [left[0], left[1], left[2]];
        let u_r = [right[0], right[1], right[2]];
        hll_flux_lanes(&u_l, &left[3..3 + ns], &u_r, &right[3..3 + ns], d, out);
        out[3 + ns..].fill(F64Lanes::splat(0.0));
    }
}
