//! Randomized tests of the numerical kernels: reconstruction, the Riemann
//! solver, every package's face flux at both lane widths and the line
//! walker over every line length (seeded, deterministic — see
//! `tests/util/mod.rs`).

mod util;

use util::Rng;

use vibe_amr::burgers::riemann::physical_flux;
use vibe_amr::burgers::{
    hll_flux, reconstruct_linear, reconstruct_weno5, BurgersPackage, BurgersParams, LinearKernel,
    Weno5Kernel,
};
use vibe_amr::core::sweep::{
    fill_faces_reference, fill_lines, reduce_layers, sweep_slot, FaceFlux, ReconKernel, LANES,
};
use vibe_amr::core::{synthetic_block, CellBox, FluxTile, Package};
use vibe_amr::field::{minmod, F64Lanes, Metadata, VarId};
use vibe_amr::physics::{Advect, DiffusionPackage, EulerPackage};

const CASES: usize = 256;

/// WENO5 output is a convex-ish combination of three quadratic
/// candidates, each bounded by ~3.4x the stencil magnitude — arbitrary
/// data never produces runaway values.
#[test]
fn weno5_magnitude_bounded() {
    let mut rng = Rng::new(0x57E0_0001);
    for _case in 0..CASES {
        let mut stencil = [0.0f64; 6];
        for v in &mut stencil {
            *v = rng.f64_in(-10.0, 10.0);
        }
        let (l, r) = reconstruct_weno5(&stencil);
        let mag = stencil.iter().cloned().fold(0.0f64, |m, v| m.max(v.abs()));
        let bound = 3.4 * mag + 1e-12;
        assert!(l.abs() <= bound, "left {l} vs bound {bound}");
        assert!(r.abs() <= bound, "right {r} vs bound {bound}");
    }
}

/// On *monotone* data (where ENO behavior applies) WENO5 stays within
/// the stencil range up to a small overshoot.
#[test]
fn weno5_essentially_monotone_on_sorted_data() {
    let mut rng = Rng::new(0x57E0_0002);
    for _case in 0..CASES {
        let mut stencil = [0.0f64; 6];
        for v in &mut stencil {
            *v = rng.f64_in(-10.0, 10.0);
        }
        stencil.sort_by(f64::total_cmp);
        let (l, r) = reconstruct_weno5(&stencil);
        let min = stencil[0];
        let max = stencil[5];
        let span = (max - min).max(1e-12);
        assert!(
            l >= min - 0.1 * span && l <= max + 0.1 * span,
            "left {l} vs [{min}, {max}]"
        );
        assert!(
            r >= min - 0.1 * span && r <= max + 0.1 * span,
            "right {r} vs [{min}, {max}]"
        );
    }
}

/// Linear (minmod) reconstruction is strictly bounded by its stencil.
#[test]
fn linear_reconstruction_monotone() {
    let mut rng = Rng::new(0x57E0_0003);
    for _case in 0..CASES {
        let mut stencil = [0.0f64; 4];
        for v in &mut stencil {
            *v = rng.f64_in(-10.0, 10.0);
        }
        let (l, r) = reconstruct_linear(&stencil);
        let min = stencil.iter().cloned().fold(f64::MAX, f64::min);
        let max = stencil.iter().cloned().fold(f64::MIN, f64::max);
        assert!(l >= min - 1e-12 && l <= max + 1e-12);
        assert!(r >= min - 1e-12 && r <= max + 1e-12);
    }
}

/// Both schemes reproduce constants exactly.
#[test]
fn reconstructions_exact_for_constants() {
    let mut rng = Rng::new(0x57E0_0004);
    for _case in 0..CASES {
        let c = rng.f64_in(-100.0, 100.0);
        let (l6, r6) = reconstruct_weno5(&[c; 6]);
        let (l4, r4) = reconstruct_linear(&[c; 4]);
        assert!((l6 - c).abs() < 1e-12 * c.abs().max(1.0));
        assert!((r6 - c).abs() < 1e-12 * c.abs().max(1.0));
        assert!((l4 - c).abs() < 1e-14 * c.abs().max(1.0));
        assert!((r4 - c).abs() < 1e-14 * c.abs().max(1.0));
    }
}

/// HLL consistency: F(U, U) equals the physical flux of U.
#[test]
fn hll_consistency() {
    let mut rng = Rng::new(0x57E0_0005);
    for _case in 0..CASES {
        let u = [
            rng.f64_in(-3.0, 3.0),
            rng.f64_in(-3.0, 3.0),
            rng.f64_in(-3.0, 3.0),
        ];
        let q = rng.vec_f64(3, -2.0, 2.0);
        let d = rng.usize_in(0, 3);
        let mut got = [0.0f64; 6];
        let mut want = [0.0f64; 6];
        hll_flux(&u, &q, &u, &q, d, &mut got);
        physical_flux(&u, &q, d, &mut want);
        for i in 0..6 {
            assert!((got[i] - want[i]).abs() < 1e-12, "comp {i}");
        }
    }
}

/// HLL upwinding: with supersonic right-moving data the flux is exactly
/// the left physical flux, and vice versa.
#[test]
fn hll_upwind_limits() {
    let mut rng = Rng::new(0x57E0_0006);
    for _case in 0..CASES {
        let speed = rng.f64_in(0.5, 4.0);
        let other = rng.f64_in(-1.0, 1.0);
        let u_l = [speed, other, -other];
        let u_r = [speed * 0.7, other, other];
        let q_l = [1.5];
        let q_r = [0.5];
        let mut f = [0.0f64; 4];
        let mut f_l = [0.0f64; 4];
        hll_flux(&u_l, &q_l, &u_r, &q_r, 0, &mut f);
        physical_flux(&u_l, &q_l, 0, &mut f_l);
        for i in 0..4 {
            assert!((f[i] - f_l[i]).abs() < 1e-12, "upwind-left comp {i}");
        }
        // Mirror: both speeds negative -> right flux.
        let v_l = [-speed * 0.7, other, other];
        let v_r = [-speed, other, -other];
        let mut g = [0.0f64; 4];
        let mut f_r = [0.0f64; 4];
        hll_flux(&v_l, &q_l, &v_r, &q_r, 0, &mut g);
        physical_flux(&v_r, &q_r, 0, &mut f_r);
        for i in 0..4 {
            assert!((g[i] - f_r[i]).abs() < 1e-12, "upwind-right comp {i}");
        }
    }
}

/// The HLL flux is a continuous blend: it lies within the interval
/// spanned by the left/right physical fluxes widened by the dissipation
/// term (checked via a crude Lipschitz-style bound).
#[test]
fn hll_bounded_blend() {
    let mut rng = Rng::new(0x57E0_0007);
    for _case in 0..CASES {
        let ul = rng.f64_in(-2.0, 2.0);
        let ur = rng.f64_in(-2.0, 2.0);
        let ql = rng.f64_in(0.1, 3.0);
        let qr = rng.f64_in(0.1, 3.0);
        let u_l = [ul, 0.0, 0.0];
        let u_r = [ur, 0.0, 0.0];
        let mut f = [0.0f64; 4];
        hll_flux(&u_l, &[ql], &u_r, &[qr], 0, &mut f);
        let bound = 0.5 * (ul * ul + ur * ur)
            + 2.0 * (ql.max(qr)) * (ul.abs().max(ur.abs()))
            + 2.0 * (ul - ur).abs() * (1.0 + ql + qr);
        for (i, &v) in f.iter().enumerate() {
            assert!(v.abs() <= bound + 1e-9, "comp {i}: {v} vs bound {bound}");
        }
    }
}

/// minmod: result has the magnitude of the smaller argument and agrees
/// in sign with both, or is zero.
#[test]
fn minmod_properties() {
    let mut rng = Rng::new(0x57E0_0008);
    for _case in 0..CASES {
        let a = rng.f64_in(-5.0, 5.0);
        let b = rng.f64_in(-5.0, 5.0);
        let m = minmod(a, b);
        if a * b <= 0.0 {
            assert_eq!(m, 0.0);
        } else {
            assert!(m.abs() <= a.abs() + 1e-15);
            assert!(m.abs() <= b.abs() + 1e-15);
            assert!(m * a > 0.0);
        }
    }
}

/// Holds one `W = LANES` call of `flux` to `LANES` calls at `W = 1`, bit for
/// bit: `states[side][component][lane]`.
fn assert_width_invariant<F: FaceFlux>(flux: &F, d: usize, states: [&[[f64; LANES]]; 2]) {
    let n = states[0].len();
    let [left, right] = states.map(|s| s.iter().map(|&c| F64Lanes(c)).collect::<Vec<_>>());
    let mut wide = vec![F64Lanes::<LANES>::splat(f64::NAN); n];
    flux.flux(d, 16.0, &left, &right, &mut wide);
    for lane in 0..LANES {
        let one_lane = |side: &[F64Lanes<LANES>]| -> Vec<F64Lanes<1>> {
            side.iter().map(|c| F64Lanes([c.lane(lane)])).collect()
        };
        let (l, r) = (one_lane(&left), one_lane(&right));
        let mut one = vec![F64Lanes::<1>::splat(f64::NAN); n];
        flux.flux(d, 16.0, &l, &r, &mut one);
        for c in 0..n {
            assert_eq!(
                wide[c].lane(lane).to_bits(),
                one[c].lane(0).to_bits(),
                "direction {d}, component {c}, lane {lane}: {:e} at W = {LANES}, {:e} at W = 1",
                wide[c].lane(lane),
                one[c].lane(0),
            );
        }
    }
}

/// `ncomp` components of `LANES` lanes, each `cell(component, lane)`.
fn lanes_of(ncomp: usize, mut cell: impl FnMut(usize, usize) -> f64) -> Vec<[f64; LANES]> {
    (0..ncomp)
        .map(|c| std::array::from_fn(|lane| cell(c, lane)))
        .collect()
}

/// Euler's HLL in every regime of its three-way branch, with density and
/// pressure driven onto their floors: lanes and scalar agree bit for bit,
/// and the states do reach each regime.
#[test]
fn euler_face_flux_is_width_invariant_in_every_regime() {
    let pkg = EulerPackage::default();
    let mut rng = Rng::new(0x57E0_0009);
    // Ranges of (ρ, speed, p) per regime: supersonic to the right and to the
    // left, subsonic, so dense that the sound speed drops below an ulp of
    // the flow speed (sl == sr), density below its floor, pressure below its.
    const REGIMES: [[(f64, f64); 3]; 6] = [
        [(0.5, 2.0), (4.0, 8.0), (0.5, 2.0)],
        [(0.5, 2.0), (-8.0, -4.0), (0.5, 2.0)],
        [(0.5, 2.0), (-0.3, 0.3), (0.5, 2.0)],
        [(1e300, 1e300), (1.0, 1.0), (0.0, 0.0)],
        [(-1.0, 1e-12), (-1.0, 1.0), (0.5, 2.0)],
        [(0.5, 2.0), (-1.0, 1.0), (-2.0, 1e-13)],
    ];
    // One conserved state of `regime`.
    let state = |rng: &mut Rng, regime: usize| -> [f64; 5] {
        let [rho, speed, p] = REGIMES[regime].map(|(lo, hi)| rng.f64_in(lo, hi));
        let vel = match regime {
            3 => [speed * [1.0, -1.0][rng.usize_in(0, 2)]; 3],
            _ => [speed, rng.f64_in(-0.5, 0.5), rng.f64_in(-0.5, 0.5)],
        };
        let ke = 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        [rho, rho * vel[0], rho * vel[1], rho * vel[2], p / 0.4 + ke]
    };
    // The solver's signal speeds, recomputed here only to classify.
    let speeds = |ul: &[f64; 5], ur: &[f64; 5]| {
        let fan = |u: &[f64; 5]| {
            let rho = u[0].max(1e-12);
            let vel = [u[1] / rho, u[2] / rho, u[3] / rho];
            let p =
                0.4 * (u[4] - 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]));
            let c = (1.4 * p.max(1e-12) / rho).sqrt();
            (vel[0] - c, vel[0] + c, u[0] < 1e-12, p < 1e-12)
        };
        let ((ll, lr, rho_floor, p_floor), (rl, rr, ..)) = (fan(ul), fan(ur));
        (ll.min(rl), lr.max(rr), rho_floor, p_floor)
    };
    // Reached: take-left, take-right, blend, sl == sr, ρ floor, p floor.
    let mut reached = [0usize; 6];
    for case in 0..500 {
        let sides: [[[f64; 5]; LANES]; 2] =
            std::array::from_fn(|_| std::array::from_fn(|_| state(&mut rng, case % 6)));
        for (ul, ur) in sides[0].iter().zip(&sides[1]) {
            let (sl, sr, rho_floor, p_floor) = speeds(ul, ur);
            let upwind = [sl >= 0.0, sl < 0.0 && sr <= 0.0, sl < 0.0 && sr > 0.0];
            let hit = [
                upwind[0],
                upwind[1],
                upwind[2],
                sl == sr,
                rho_floor,
                p_floor,
            ];
            (0..6).for_each(|r| reached[r] += usize::from(hit[r]));
        }
        let [left, right] = sides.map(|side| lanes_of(5, |c, lane| side[lane][c]));
        assert_width_invariant(&pkg, 0, [&left, &right]);
        assert_width_invariant(&pkg, 1 + case % 2, [&left, &right]);
    }
    assert!(
        reached.iter().all(|&n| n >= 20),
        "regimes reached: {reached:?}"
    );
}

/// Advect (both signs of every velocity component, ±0.0 states),
/// diffusion and Burgers: lanes and scalar agree bit for bit.
#[test]
fn linear_and_burgers_face_fluxes_are_width_invariant() {
    let mut rng = Rng::new(0x57E0_000A);
    let burgers = BurgersPackage::new(BurgersParams {
        num_scalars: 2,
        ..BurgersParams::default()
    });
    for case in 0..500 {
        let mut cell = |_: usize, _: usize| match rng.usize_in(0, 6) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-14 * rng.f64_in(-1.0, 1.0),
            _ => rng.f64_in(-3.0, 3.0),
        };
        let states = [lanes_of(5, &mut cell), lanes_of(5, &mut cell)];
        let states = [&states[0][..], &states[1][..]];
        let sign = [1.0, -1.0][case % 2];
        let advect = Advect {
            velocity: [sign, -0.5 * sign, 0.0 * sign],
            ..Advect::default()
        };
        for d in 0..3 {
            assert_width_invariant(&advect, d, states);
            assert_width_invariant(&DiffusionPackage::default(), d, states);
            assert_width_invariant(&burgers, d, states);
        }
    }
}

/// Every line length from one face to two bundles and a remainder — full
/// bundles along a row, the rows' remainder faces bundled across rows, the
/// `W = 1` faces where fewer rows than a bundle are left — in a box of two
/// rows and in a one-cell column: the walker fills what its per-face
/// reference fills, and counts each face once.
#[test]
fn walker_matches_its_reference_at_every_line_length() {
    fn check<R: ReconKernel, P: Package + FaceFlux>(pkg: &P, ncomp: usize) {
        let slot = synthetic_block(pkg, 2, 2 * LANES + 2, 0x57E0_000B);
        for len in 1..=2 * LANES + 1 {
            // Rows of `len` y-faces and `len + 1` x-faces; then a one-cell
            // column, whose lines run across rows where they reach a bundle.
            for n in [[len, 2, 1], [1, len, 1]] {
                let cells = CellBox { lo: [0, 1, 0], n };
                let mut bufs = [(); 2].map(|_| vec![f64::NAN; cells.tile_len(2, ncomp)]);
                let [walked, reference] = &mut bufs;
                let mut tile = FluxTile::new(cells, 2, ncomp, walked);
                let (lane, tail) = fill_lines::<R, P>(pkg, &slot.info, &slot.data, &mut tile);
                let faces: usize = (0..2)
                    .map(|d| tile.extent(d).iter().product::<usize>())
                    .sum();
                assert_eq!((lane + tail) as usize, faces, "{cells:?}: faces counted");
                // Each row's full bundles, then its remainder faces in
                // bundles across full groups of rows.
                let bundled = |d: usize| {
                    let [ni, nj, _] = tile.extent(d);
                    let (full, across) = (ni - ni % LANES, nj - nj % LANES);
                    full * nj + (ni - full) * across
                };
                assert_eq!(
                    lane as usize,
                    bundled(0) + bundled(1),
                    "{cells:?}: lane faces"
                );
                let mut tile = FluxTile::new(cells, 2, ncomp, reference);
                fill_faces_reference::<R, P>(pkg, &slot.info, &slot.data, &mut tile);
                for (at, (w, r)) in walked.iter().zip(reference.iter()).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        r.to_bits(),
                        "{cells:?}: entry {at}: {w:e} vs {r:e}"
                    );
                }
            }
        }
    }
    check::<LinearKernel, _>(&EulerPackage::default(), 5);
    let burgers = BurgersPackage::new(BurgersParams {
        num_scalars: 2,
        ..BurgersParams::default()
    });
    check::<Weno5Kernel, _>(&burgers, 5);
}

/// Random 1–3-D blocks of 3 to 17 cells a side, in every tiling
/// `CellBox::tiles` produces: the walker fills each tile as its per-face
/// reference does, bit for bit; and after a sweep in that tiling that
/// keeps the layers under every outer face, re-reducing those layers with
/// random planes — flux correction's worst case — gives every cell the
/// divergence of the reference fluxes with those planes in place of the
/// block's surface fluxes, in the sweep's add order.
#[test]
fn every_tiling_sweeps_and_re_reduces_like_the_reference() {
    fn check<R: ReconKernel, P: Package + FaceFlux>(pkg: &P, rng: &mut Rng) {
        let (dim, n) = (rng.usize_in(1, 4), rng.usize_in(3, 18));
        let slot = synthetic_block(pkg, dim, n, rng.next_u64());
        let shape = *slot.data.shape();
        let ids: Vec<VarId> = (0..slot.data.vars().len())
            .map(VarId)
            .filter(|&id| slot.data.var(id).metadata().contains(Metadata::WITH_FLUXES))
            .collect();
        let ncomp: usize = ids.iter().map(|&id| slot.data.var(id).ncomp()).sum();
        let whole = CellBox::interior(&shape);
        let mut reference = vec![0.0; whole.tile_len(dim, ncomp)];
        let mut tile = FluxTile::new(whole, dim, ncomp, &mut reference);
        fill_faces_reference::<R, P>(pkg, &slot.info, &slot.data, &mut tile);
        let reference = tile;

        // Every tiling, from single rows up to the whole block.
        let row = CellBox {
            lo: [0; 3],
            n: [n, 1, 1],
        };
        let mut tilings: Vec<Vec<CellBox>> = Vec::new();
        for budget in row.tile_len(dim, ncomp)..=whole.tile_len(dim, ncomp) {
            let tiling = whole.tiles(dim, ncomp, budget);
            if tilings.last() != Some(&tiling) {
                tilings.push(tiling);
            }
        }
        let mut scratch = vec![0.0; whole.tile_len(dim, ncomp)];
        for tiling in &tilings {
            for &cells in tiling {
                let mut walked = vec![f64::NAN; cells.tile_len(dim, ncomp)];
                let mut tile = FluxTile::new(cells, dim, ncomp, &mut walked);
                fill_lines::<R, P>(pkg, &slot.info, &slot.data, &mut tile);
                for d in 0..dim {
                    for (face, _) in tile.faces_to_fill(d) {
                        let at = std::array::from_fn(|a| cells.lo[a] + face[a]);
                        for c in 0..ncomp {
                            let (w, r) = (tile.get(d, c, face), reference.get(d, c, at));
                            assert_eq!(w.to_bits(), r.to_bits(), "{cells:?} d{d} c{c} {at:?}");
                        }
                    }
                }
            }

            let all = (1u8 << (2 * dim)) - 1;
            let mut swept = slot.clone();
            sweep_slot(pkg, &mut swept, &ids, tiling, all, &mut scratch);
            for &id in &ids {
                for plane in swept.data.var_mut(id).planes_mut() {
                    plane
                        .as_mut_slice()
                        .iter_mut()
                        .for_each(|v| *v = rng.f64_in(-1.0, 1.0));
                }
            }
            reduce_layers(&mut swept, &ids, all);

            let inv = slot.info.geom.dx().map(|dx| 1.0 / dx);
            let mut c0 = 0;
            for &id in &ids {
                let var = swept.data.var(id);
                let div = var.div().expect("swept");
                for c in 0..var.ncomp() {
                    for at in (0..whole.n.iter().product()).map(|q: usize| {
                        [
                            q % whole.n[0],
                            q / whole.n[0] % whole.n[1],
                            q / whole.n[0] / whole.n[1],
                        ]
                    }) {
                        // The flux through face `face` of direction `d`:
                        // the plane's value on the block's surface.
                        let flux = |d: usize, face: [usize; 3]| {
                            if !face[d].is_multiple_of(n) {
                                return reference.get(d, c0 + c, face);
                            }
                            let plane = &var.planes()[2 * d + face[d] / n];
                            let mut p = face;
                            p[d] = 0;
                            plane.get(c, p[2], p[1], p[0])
                        };
                        let jump = |d: usize| {
                            let mut up = at;
                            up[d] += 1;
                            (flux(d, up) - flux(d, at)) * inv[d]
                        };
                        let want = match dim {
                            1 => jump(0),
                            2 => jump(0) + jump(1),
                            _ => (jump(0) + jump(1)) + jump(2),
                        };
                        let got = div.get(c, at[2], at[1], at[0]);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "dim {dim}, n {n}, {} tiles: component {c} of {} at {at:?}",
                            tiling.len(),
                            var.name()
                        );
                    }
                }
                c0 += var.ncomp();
            }
        }
    }
    let mut rng = Rng::new(0x57E0_000C);
    let burgers = BurgersPackage::new(BurgersParams {
        num_scalars: 1,
        ..BurgersParams::default()
    });
    for _ in 0..6 {
        check::<Weno5Kernel, _>(&burgers, &mut rng);
        check::<LinearKernel, _>(&EulerPackage::default(), &mut rng);
    }
}
