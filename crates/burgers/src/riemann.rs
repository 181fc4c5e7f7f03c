//! The HLL approximate Riemann solver for the vector Burgers system, in
//! scalar (one face) and lane-batched (`W` independent faces) forms.

use vibe_field::F64Lanes;

/// Maximum supported component count (3 velocity + 29 scalars), allowing
/// the solver to use stack scratch space on the per-face hot path.
pub const MAX_COMPONENTS: usize = 32;

/// Physical flux of the Burgers system along direction `d` for state
/// `(u, q)`: velocity components carry `½·u_d·u_i`, scalars carry `qⁱ·u_d`.
#[inline(always)]
pub fn physical_flux(u: &[f64; 3], q: &[f64], d: usize, out: &mut [f64]) {
    let ud = u[d];
    for i in 0..3 {
        out[i] = 0.5 * ud * u[i];
    }
    for (i, &qi) in q.iter().enumerate() {
        out[3 + i] = qi * ud;
    }
}

/// HLL flux across one face with left/right states `(u_l, q_l)` /
/// `(u_r, q_r)` along direction `d`, written into `out`
/// (`3 + q.len()` components).
///
/// Signal speeds are the Burgers characteristic speeds `u_d` of the two
/// states (with Einfeldt-style min/max bounding).
///
/// # Panics
///
/// Panics if `out` is shorter than `3 + q_l.len()` or the scalar slices
/// disagree in length.
#[inline]
pub fn hll_flux(
    u_l: &[f64; 3],
    q_l: &[f64],
    u_r: &[f64; 3],
    q_r: &[f64],
    d: usize,
    out: &mut [f64],
) {
    assert_eq!(q_l.len(), q_r.len(), "scalar count mismatch");
    let n = 3 + q_l.len();
    assert!(out.len() >= n, "output buffer too short");
    assert!(
        n <= MAX_COMPONENTS,
        "at most {} components",
        MAX_COMPONENTS - 3
    );
    let sl = u_l[d].min(u_r[d]).min(0.0);
    let sr = u_l[d].max(u_r[d]).max(0.0);

    let mut f_l = [0.0; MAX_COMPONENTS];
    let mut f_r = [0.0; MAX_COMPONENTS];
    physical_flux(u_l, q_l, d, &mut f_l);
    physical_flux(u_r, q_r, d, &mut f_r);

    if sl >= 0.0 {
        out[..n].copy_from_slice(&f_l[..n]);
        return;
    }
    if sr <= 0.0 {
        out[..n].copy_from_slice(&f_r[..n]);
        return;
    }
    let inv = 1.0 / (sr - sl);
    for i in 0..n {
        let (ul_i, ur_i) = if i < 3 {
            (u_l[i], u_r[i])
        } else {
            (q_l[i - 3], q_r[i - 3])
        };
        out[i] = (sr * f_l[i] - sl * f_r[i] + sl * sr * (ur_i - ul_i)) * inv;
    }
}

/// Lane-batched [`hll_flux`]: `W` independent faces solved at once,
/// branch-free. The scalar solver's three-way branch on the signal speeds
/// becomes a per-lane select over the same three candidate values, so lane
/// `t` of every output component is bitwise identical to the scalar solver
/// on that face. The blended candidate may divide by zero on lanes where
/// both signal speeds vanish; those lanes select the upwind flux and the
/// garbage is discarded.
///
/// # Panics
///
/// Panics if `out` is shorter than `3 + q_l.len()` or the scalar slices
/// disagree in length.
#[inline]
pub fn hll_flux_lanes<const W: usize>(
    u_l: &[F64Lanes<W>; 3],
    q_l: &[F64Lanes<W>],
    u_r: &[F64Lanes<W>; 3],
    q_r: &[F64Lanes<W>],
    d: usize,
    out: &mut [F64Lanes<W>],
) {
    assert_eq!(q_l.len(), q_r.len(), "scalar count mismatch");
    let n = 3 + q_l.len();
    assert!(out.len() >= n, "output buffer too short");
    assert!(
        n <= MAX_COMPONENTS,
        "at most {} components",
        MAX_COMPONENTS - 3
    );
    let zero = F64Lanes::splat(0.0);
    let sl = u_l[d].min(u_r[d]).min(zero);
    let sr = u_l[d].max(u_r[d]).max(zero);

    let take_l = sl.ge(zero);
    let take_r = sr.le(zero);
    let inv = F64Lanes::splat(1.0) / (sr - sl);
    let slsr = sl * sr;
    // Physical fluxes are formed per component on the fly (no scratch
    // arrays on this per-bundle path), with the scalar kernel's operation
    // order: `0.5 * ud` then `· u[i]` for velocities, `q[i] * ud` for
    // scalars — multiplication commutativity keeps each bitwise identical
    // to [`physical_flux`].
    let half_l = u_l[d] * 0.5;
    let half_r = u_r[d] * 0.5;
    let ud_l = u_l[d];
    let ud_r = u_r[d];
    for i in 0..n {
        let (ul_i, ur_i, fl_i, fr_i) = if i < 3 {
            (u_l[i], u_r[i], half_l * u_l[i], half_r * u_r[i])
        } else {
            let (ql_i, qr_i) = (q_l[i - 3], q_r[i - 3]);
            (ql_i, qr_i, ql_i * ud_l, qr_i * ud_r)
        };
        let blend = (sr * fl_i - sl * fr_i + slsr * (ur_i - ul_i)) * inv;
        out[i] = take_l.select(fl_i, take_r.select(fr_i, blend));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_flux_components() {
        let u = [2.0, 1.0, -1.0];
        let q = [3.0, 0.5];
        let mut f = [0.0; 5];
        physical_flux(&u, &q, 0, &mut f);
        assert_eq!(f[0], 0.5 * 2.0 * 2.0);
        assert_eq!(f[1], 0.5 * 2.0 * 1.0);
        assert_eq!(f[2], -(0.5 * 2.0));
        assert_eq!(f[3], 3.0 * 2.0);
        assert_eq!(f[4], 0.5 * 2.0);
    }

    #[test]
    fn hll_consistent_with_equal_states() {
        // F(U, U) = F(U): consistency of the approximate solver.
        let u = [1.5, 0.2, -0.3];
        let q = [2.0];
        let mut hll = [0.0; 4];
        let mut exact = [0.0; 4];
        hll_flux(&u, &q, &u, &q, 0, &mut hll);
        physical_flux(&u, &q, 0, &mut exact);
        for i in 0..4 {
            assert!((hll[i] - exact[i]).abs() < 1e-14, "comp {i}");
        }
    }

    #[test]
    fn supersonic_right_moving_takes_left_flux() {
        let u_l = [2.0, 0.0, 0.0];
        let u_r = [1.0, 0.0, 0.0];
        let mut f = [0.0; 3];
        hll_flux(&u_l, &[], &u_r, &[], 0, &mut f);
        assert!((f[0] - 0.5 * 4.0).abs() < 1e-14, "pure upwind from left");
    }

    #[test]
    fn supersonic_left_moving_takes_right_flux() {
        let u_l = [-1.0, 0.0, 0.0];
        let u_r = [-2.0, 0.0, 0.0];
        let mut f = [0.0; 3];
        hll_flux(&u_l, &[], &u_r, &[], 0, &mut f);
        assert!((f[0] - 0.5 * 4.0).abs() < 1e-14, "pure upwind from right");
    }

    #[test]
    fn subsonic_fan_blends_and_dissipates() {
        // Expansion around zero: SL < 0 < SR, flux is a blend.
        let u_l = [-1.0, 0.0, 0.0];
        let u_r = [1.0, 0.0, 0.0];
        let mut f = [0.0; 3];
        hll_flux(&u_l, &[], &u_r, &[], 0, &mut f);
        // F_L = F_R = 0.5; blended flux adds dissipation: f = (sr*Fl - sl*Fr
        // + sl*sr*(ur-ul))/(sr-sl) = (0.5 + 0.5 - 2)/2 = -0.5... compute:
        let (sl, sr) = (-1.0, 1.0);
        let expect = (sr * 0.5 - sl * 0.5 + sl * sr * (u_r[0] - u_l[0])) / (sr - sl);
        assert!((f[0] - expect).abs() < 1e-14);
    }

    #[test]
    fn scalars_upwind_with_velocity() {
        let u = [1.0, 0.0, 0.0];
        let mut f = [0.0; 4];
        hll_flux(&u, &[5.0], &u, &[1.0], 0, &mut f);
        // Positive velocity: scalar flux comes from the left state.
        assert!((f[3] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn direction_selects_velocity_component() {
        let u = [0.0, 3.0, 0.0];
        let mut f = [0.0; 3];
        hll_flux(&u, &[], &u, &[], 1, &mut f);
        assert!((f[1] - 0.5 * 9.0).abs() < 1e-14);
        assert_eq!(f[0], 0.0);
    }

    /// Gathers lane `t` of per-face states into the scalar solver and
    /// compares every component bitwise against the lane solver.
    fn assert_lanes_match_scalar<const W: usize>(
        ul: [[f64; 3]; W],
        ur: [[f64; 3]; W],
        ql: [[f64; 2]; W],
        qr: [[f64; 2]; W],
        d: usize,
    ) {
        let lul: [F64Lanes<W>; 3] =
            std::array::from_fn(|c| F64Lanes(std::array::from_fn(|t| ul[t][c])));
        let lur: [F64Lanes<W>; 3] =
            std::array::from_fn(|c| F64Lanes(std::array::from_fn(|t| ur[t][c])));
        let lql: [F64Lanes<W>; 2] =
            std::array::from_fn(|c| F64Lanes(std::array::from_fn(|t| ql[t][c])));
        let lqr: [F64Lanes<W>; 2] =
            std::array::from_fn(|c| F64Lanes(std::array::from_fn(|t| qr[t][c])));
        let mut lout = [F64Lanes::splat(0.0); 5];
        hll_flux_lanes(&lul, &lql, &lur, &lqr, d, &mut lout);
        for t in 0..W {
            let mut sout = [0.0f64; 5];
            hll_flux(&ul[t], &ql[t], &ur[t], &qr[t], d, &mut sout);
            for c in 0..5 {
                assert_eq!(
                    lout[c].0[t].to_bits(),
                    sout[c].to_bits(),
                    "lane {t} comp {c}"
                );
            }
        }
    }

    #[test]
    fn lane_hll_bitwise_matches_scalar_across_regimes() {
        // One lane per flux regime: supersonic right, supersonic left,
        // subsonic fan, and a fully stagnant face (sl == sr == 0, where the
        // lane solver's blended candidate divides by zero and is masked).
        let ul = [
            [2.0, 0.3, -0.1],
            [-1.0, 0.5, 0.2],
            [-1.0, 0.1, 0.9],
            [0.0, 0.0, 0.0],
        ];
        let ur = [
            [1.0, -0.2, 0.4],
            [-2.0, 0.0, 0.0],
            [1.0, -0.6, 0.3],
            [0.0, 0.0, 0.0],
        ];
        let ql = [[1.0, 2.0], [0.5, -0.5], [3.0, 0.0], [1.5, 2.5]];
        let qr = [[2.0, 1.0], [1.5, 0.5], [0.0, 3.0], [2.5, 1.5]];
        for d in 0..3 {
            assert_lanes_match_scalar::<4>(ul, ur, ql, qr, d);
        }
    }
}
