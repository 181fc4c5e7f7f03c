//! Property tests for the SIMD lane kernels: over randomized states, every
//! lane of the W-wide WENO5 / linear-reconstruction / HLL kernels must be
//! *bitwise* equal to the scalar kernel applied to that lane's inputs, and
//! the production flux primitive — Burgers' kernels under the framework's
//! line walker — must equal the scalar oracle, tile by tile and in the
//! divergence the framework takes of it.
//!
//! Randomness comes from a hand-rolled xorshift64* generator (the offline
//! build has no property-testing crate); failures print the seed so a case
//! can be replayed by pinning it.

use vibe_burgers::{
    hll_flux, hll_flux_lanes, ic, reconstruct_linear, reconstruct_linear_lanes, reconstruct_weno5,
    reconstruct_weno5_lanes, weno5_left, weno5_left_lanes, BurgersPackage, BurgersParams,
    LinearKernel, Reconstruction, Weno5Kernel,
};
use vibe_core::sweep::{fill_lines, sweep_slot, LANES};
use vibe_core::{check_partition_invariance, BlockInfo, BlockSlot, CellBox, FluxTile, Package};
use vibe_field::{BlockData, F64Lanes, VarId};
use vibe_mesh::{Mesh, MeshParams};

/// xorshift64* — deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [-1, 1).
    fn signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// A cell value from one of several regimes: smooth around a base,
    /// a jump, an exact plateau, or near-zero (stagnant-wave territory).
    fn cell(&mut self, base: f64) -> f64 {
        match self.next_u64() % 4 {
            0 => base + 0.1 * self.signed(),
            1 => base + 2.0 * self.signed(),
            2 => base,
            _ => 1e-14 * self.signed(),
        }
    }
}

fn assert_bits(lane: f64, scalar: f64, what: &str, seed: u64) {
    assert_eq!(
        lane.to_bits(),
        scalar.to_bits(),
        "{what} diverged (seed {seed}): lane {lane:e} vs scalar {scalar:e}"
    );
}

/// Gathers lane `l` of each bundle into a scalar stencil.
fn lane_stencil<const W: usize, const N: usize>(q: &[F64Lanes<W>; N], l: usize) -> [f64; N] {
    std::array::from_fn(|j| q[j].lane(l))
}

fn recon_parity<const W: usize>(seed: u64) {
    let mut rng = Rng::new(seed);
    for _ in 0..500 {
        let base = 1.0 + rng.signed();
        let q6: [F64Lanes<W>; 6] = std::array::from_fn(|_| F64Lanes::from_fn(|_| rng.cell(base)));
        let (l6, r6) = reconstruct_weno5_lanes(&q6);
        let q5: [F64Lanes<W>; 5] = std::array::from_fn(|j| q6[j]);
        let left5 = weno5_left_lanes(&q5);
        let q4: [F64Lanes<W>; 4] = std::array::from_fn(|j| q6[j]);
        let (l4, r4) = reconstruct_linear_lanes(&q4);
        for lane in 0..W {
            let s6 = lane_stencil(&q6, lane);
            let (sl, sr) = reconstruct_weno5(&s6);
            assert_bits(l6.lane(lane), sl, "weno5 left state", seed);
            assert_bits(r6.lane(lane), sr, "weno5 right state", seed);
            let s5 = lane_stencil(&q5, lane);
            assert_bits(left5.lane(lane), weno5_left(&s5), "weno5_left", seed);
            let s4 = lane_stencil(&q4, lane);
            let (sl, sr) = reconstruct_linear(&s4);
            assert_bits(l4.lane(lane), sl, "linear left state", seed);
            assert_bits(r4.lane(lane), sr, "linear right state", seed);
        }
    }
}

#[test]
fn reconstruction_lane_scalar_parity_w4() {
    recon_parity::<4>(0x9e3779b97f4a7c15);
}

#[test]
fn reconstruction_lane_scalar_parity_w8() {
    recon_parity::<8>(0xd1b54a32d192ed03);
}

fn hll_parity<const W: usize>(seed: u64) {
    const NS: usize = 3;
    let mut rng = Rng::new(seed);
    for case in 0..500 {
        // Force distinct wave regimes: supersonic right/left, transonic,
        // and (per rng.cell) stagnant lanes with near-zero speeds.
        let shift = match case % 3 {
            0 => 2.0,
            1 => -2.0,
            _ => 0.0,
        };
        let gen = |rng: &mut Rng, base: f64| -> F64Lanes<W> {
            F64Lanes::from_fn(|_| rng.cell(base) + shift)
        };
        let u_l: [F64Lanes<W>; 3] = std::array::from_fn(|_| gen(&mut rng, 0.5));
        let u_r: [F64Lanes<W>; 3] = std::array::from_fn(|_| gen(&mut rng, -0.5));
        let q_l: [F64Lanes<W>; NS] = std::array::from_fn(|_| gen(&mut rng, 1.0));
        let q_r: [F64Lanes<W>; NS] = std::array::from_fn(|_| gen(&mut rng, 1.5));
        for d in 0..3 {
            let mut lanes_out = [F64Lanes::<W>::splat(0.0); 3 + NS];
            hll_flux_lanes(&u_l, &q_l, &u_r, &q_r, d, &mut lanes_out);
            for lane in 0..W {
                let sul: [f64; 3] = std::array::from_fn(|c| u_l[c].lane(lane));
                let sur: [f64; 3] = std::array::from_fn(|c| u_r[c].lane(lane));
                let sql: [f64; NS] = std::array::from_fn(|s| q_l[s].lane(lane));
                let sqr: [f64; NS] = std::array::from_fn(|s| q_r[s].lane(lane));
                let mut scalar_out = [0.0f64; 3 + NS];
                hll_flux(&sul, &sql, &sur, &sqr, d, &mut scalar_out);
                for (c, &sv) in scalar_out.iter().enumerate() {
                    assert_bits(lanes_out[c].lane(lane), sv, "hll flux component", seed);
                }
            }
        }
    }
}

#[test]
fn hll_lane_scalar_parity_w4() {
    hll_parity::<4>(0x853c49e6748fea9b);
}

#[test]
fn hll_lane_scalar_parity_w8() {
    hll_parity::<8>(0xda3e39cb94b95bdb);
}

/// Scalar reference of the Burgers flux primitive: the same faces of the
/// same tile, one face at a time through the scalar kernels `hll_flux` and
/// `reconstruct_*` — code the line walker shares nothing with.
fn block_fluxes_oracle(pkg: &BurgersPackage, data: &BlockData, tile: &mut FluxTile<'_>) {
    let shape = *data.shape();
    let g: [usize; 3] = std::array::from_fn(|d| shape.nghost_d(d));
    let ns = pkg.params().num_scalars;
    let (u, q) = (data.var(VarId(0)).data(), data.var(VarId(1)).data());
    for d in 0..tile.dim() {
        for (face, cell) in tile.faces_to_fill(d) {
            let mut state_l = [0.0f64; 32];
            let mut state_r = [0.0f64; 32];
            for comp in 0..3 + ns {
                let at = |off: i64| -> f64 {
                    let mut p: [usize; 3] = std::array::from_fn(|a| cell[a] + g[a]);
                    p[d] = (p[d] as i64 + off) as usize;
                    match comp < 3 {
                        true => u.get(comp, p[2], p[1], p[0]),
                        false => q.get(comp - 3, p[2], p[1], p[0]),
                    }
                };
                (state_l[comp], state_r[comp]) = match pkg.params().recon {
                    Reconstruction::Weno5 => {
                        reconstruct_weno5(&[at(-3), at(-2), at(-1), at(0), at(1), at(2)])
                    }
                    Reconstruction::Linear => reconstruct_linear(&[at(-2), at(-1), at(0), at(1)]),
                };
            }
            let u_l = [state_l[0], state_l[1], state_l[2]];
            let u_r = [state_r[0], state_r[1], state_r[2]];
            let (q_l, q_r) = (&state_l[3..3 + ns], &state_r[3..3 + ns]);
            // A scalar-free problem still registers one (inert) scalar.
            let mut flux = [0.0f64; 32];
            hll_flux(&u_l, q_l, &u_r, q_r, d, &mut flux);
            for (comp, &value) in flux.iter().enumerate().take(tile.ncomp()) {
                tile.set(d, comp, face, value);
            }
        }
    }
}

/// Block-level differential test of the production flux primitive against
/// the scalar oracle: on IC-filled blocks (ghosts included) every face of a
/// sentinel-filled tile must come back written with the oracle's bits — for
/// the whole block, a slab stacked mid-block and the one-cell layers under
/// the outer faces (one cell wide, so bundled across rows) — and the
/// divergence the framework takes of any tiling must be the divergence of
/// the oracle's fluxes. Interior size 3 has faces at `W = 1` in every box,
/// 4 rows are one exact bundle, 5 leave one row of remainder faces at
/// `W = 1`, and at 8 and 16 the boxes of full rows and planes — the
/// production tiles — bundle every face, the x-rows' last faces across
/// rows; the walker's face counts say so.
#[test]
fn production_sweep_matches_scalar_oracle_blockwise() {
    let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
    for n in [3usize, 4, 5, 8, 16] {
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(3)
                .mesh_cells(n)
                .block_cells(n)
                .max_levels(1)
                .nghost(4)
                .build()
                .expect("valid one-block mesh"),
        )
        .expect("constructible mesh");
        for recon in [Reconstruction::Weno5, Reconstruction::Linear] {
            let pkg = BurgersPackage::new(BurgersParams {
                num_scalars: 2,
                recon,
                ..BurgersParams::default()
            });
            let mut data = BlockData::new(mesh.index_shape());
            pkg.register(&mut data);
            let info = BlockInfo::from_mesh(&mesh, 0);
            ic::multi_blob(0.9, 0.05, 3)(&info, &mut data);
            let slot = BlockSlot::new(info, data);
            let whole = CellBox::interior(slot.data.shape());
            let len = whole.tile_len(3, 5);
            let (mut lanes, mut scalar) = (vec![0.0; len], vec![0.0; len]);
            let slab = CellBox {
                lo: [0, 0, 1],
                n: [n, n, 2],
            };
            for cells in (0..6).map(|face| whole.layer(face)).chain([slab, whole]) {
                lanes.fill(sentinel);
                scalar.fill(sentinel);
                let mut swept = FluxTile::new(cells, 3, 5, &mut lanes);
                let (lane, tail) = match recon {
                    Reconstruction::Weno5 => {
                        fill_lines::<Weno5Kernel, _>(&pkg, &slot.info, &slot.data, &mut swept)
                    }
                    Reconstruction::Linear => {
                        fill_lines::<LinearKernel, _>(&pkg, &slot.info, &slot.data, &mut swept)
                    }
                };
                let faces: usize = (0..3)
                    .map(|d| swept.extent(d).iter().product::<usize>())
                    .sum();
                assert_eq!((lane + tail) as usize, faces, "n={n} {cells:?}: face count");
                if n < LANES {
                    assert!(tail > 0, "n={n} {cells:?}: no W = 1 faces");
                }
                if n.is_multiple_of(LANES) && cells.n[..2] == [n, n] {
                    assert_eq!(tail, 0, "n={n} {cells:?}: W = 1 faces");
                }
                let mut oracle = FluxTile::new(cells, 3, 5, &mut scalar);
                block_fluxes_oracle(&pkg, &slot.data, &mut oracle);
                for dir in 0..3 {
                    let pairs = oracle.faces(dir).iter().zip(swept.faces(dir));
                    for (i, (x, y)) in pairs.enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits() && x.to_bits() != sentinel.to_bits(),
                            "n={n} {recon:?} {cells:?}: flux dir {dir} entry {i}: \
                             oracle {x:e} vs sweep {y:e}"
                        );
                    }
                }
            }

            // The whole-block oracle tile is still in `scalar`: its
            // divergence, in the framework's add order.
            check_partition_invariance(&pkg, &slot, n as u64)
                .unwrap_or_else(|e| panic!("n={n} {recon:?}: {e}"));
            let ids = [VarId(0), VarId(1)];
            let mut swept = slot.clone();
            sweep_slot(&pkg, &mut swept, &ids, &[whole], 0, &mut lanes);
            let oracle = FluxTile::new(whole, 3, 5, &mut scalar);
            let inv = slot.info.geom.dx().map(|dx| 1.0 / dx);
            for comp in 0..5 {
                let (var, c) = if comp < 3 { (0, comp) } else { (1, comp - 3) };
                let div = swept.data.var(ids[var]).div().expect("swept");
                for (k, j, i) in (0..n * n * n).map(|at| (at / (n * n), at / n % n, at % n)) {
                    let faces = |d: usize| {
                        let mut upper = [i, j, k];
                        upper[d] += 1;
                        oracle.get(d, comp, upper) - oracle.get(d, comp, [i, j, k])
                    };
                    let want = (faces(0) * inv[0] + faces(1) * inv[1]) + faces(2) * inv[2];
                    assert_eq!(
                        div.get(c, k, j, i).to_bits(),
                        want.to_bits(),
                        "n={n} {recon:?}: div of component {comp} at ({i}, {j}, {k})"
                    );
                }
            }
        }
    }
}
