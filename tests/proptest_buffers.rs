//! Randomized tests of the ghost-buffer machinery over randomized 3D
//! geometry: every neighbor direction, every transfer mode (seeded,
//! deterministic — see `tests/util/mod.rs`).

mod util;

use util::Rng;

use vibe_amr::field::buffer::{compute_buffer_spec_with, SKIPPED};
use vibe_amr::field::{
    minmod, pack, restrict_average, unpack, Array4, BufferMode, BufferSpec, RowProgram,
    TransferProgram,
};
use vibe_amr::mesh::{AmrFlag, IndexShape, LogicalLocation, Mesh, MeshParams, NeighborOffset};

/// Fills a block array with a linear function of unwrapped global cell
/// index at the block's own level.
fn fill_linear(shape: &IndexShape, origin: [i64; 3], coef: [f64; 3]) -> Array4 {
    let mut a = Array4::zeros([1, shape.entire_d(2), shape.entire_d(1), shape.entire_d(0)]);
    for k in 0..shape.entire_d(2) {
        for j in 0..shape.entire_d(1) {
            for i in 0..shape.entire_d(0) {
                let g = [
                    origin[0] + i as i64 - shape.nghost_d(0) as i64,
                    origin[1] + j as i64 - shape.nghost_d(1) as i64,
                    origin[2] + k as i64 - shape.nghost_d(2) as i64,
                ];
                a.set(
                    0,
                    k,
                    j,
                    i,
                    coef[0] * g[0] as f64 + coef[1] * g[1] as f64 + coef[2] * g[2] as f64,
                );
            }
        }
    }
    a
}

fn rand_coef(rng: &mut Rng) -> [f64; 3] {
    [
        rng.f64_in(-2.0, 2.0),
        rng.f64_in(-2.0, 2.0),
        rng.f64_in(-2.0, 2.0),
    ]
}

fn rand_offset(rng: &mut Rng) -> (i64, i64, i64) {
    loop {
        let o = (rng.i64_in(-1, 2), rng.i64_in(-1, 2), rng.i64_in(-1, 2));
        if o != (0, 0, 0) {
            return o;
        }
    }
}

const CASES: usize = 48;

/// Same-level transfers reproduce a linear field exactly in every
/// direction (faces, edges, corners).
#[test]
fn same_level_exact_all_directions() {
    let mut rng = Rng::new(0xBF00_0001);
    for _case in 0..CASES {
        let (ox, oy, oz) = rand_offset(&mut rng);
        let coef = rand_coef(&mut rng);
        let shape = IndexShape::new([8, 8, 8], 2, 3);
        let r = LogicalLocation::new(1, 3, 3, 3);
        let off = NeighborOffset::new(ox, oy, oz);
        let s = LogicalLocation::new(1, 3 + ox, 3 + oy, 3 + oz);
        let spec = compute_buffer_spec_with(&shape, &r, &s, &off, true);
        assert_eq!(spec.mode(), BufferMode::Copy);

        let sender = fill_linear(&shape, [(3 + ox) * 8, (3 + oy) * 8, (3 + oz) * 8], coef);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        assert_eq!(buf.len(), spec.buffer_len(1));
        let mut recv = Array4::zeros([1, 12, 12, 12]);
        unpack(&spec, &buf, &mut recv);
        for (i, j, k) in spec.recv_region().iter() {
            let g = [3 * 8 + i - 2, 3 * 8 + j - 2, 3 * 8 + k - 2];
            let want = coef[0] * g[0] as f64 + coef[1] * g[1] as f64 + coef[2] * g[2] as f64;
            let got = recv.get(0, k as usize, j as usize, i as usize);
            assert!((got - want).abs() < 1e-10, "({i},{j},{k}): {got} vs {want}");
        }
    }
}

/// Restrict-on-send reproduces linear fields exactly (averaging a
/// linear function over 8 fine cells gives the coarse cell value).
#[test]
fn restriction_exact_for_linear_fields() {
    let mut rng = Rng::new(0xBF00_0002);
    for _case in 0..CASES {
        let bits = rng.usize_in(0, 8);
        let coef = rand_coef(&mut rng);
        let shape = IndexShape::new([8, 8, 8], 2, 3);
        let r = LogicalLocation::new(0, 0, 0, 0);
        // Fine neighbor across +x: child of (0,1,0,0) facing us has x-bit 0.
        let by = (bits >> 1) & 1;
        let bz = (bits >> 2) & 1;
        let s = LogicalLocation::new(1, 2, by as i64, bz as i64);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = compute_buffer_spec_with(&shape, &r, &s, &off, true);
        assert_eq!(spec.mode(), BufferMode::RestrictFromFine);

        // Sender data linear in *fine* global coordinates; the receiver's
        // coarse ghost value must equal the linear function at the coarse
        // cell center, i.e. the average of its 8 fine cells.
        let origin = [16, by as i64 * 8, bz as i64 * 8];
        let sender = fill_linear(&shape, origin, coef);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let mut recv = Array4::zeros([1, 12, 12, 12]);
        unpack(&spec, &buf, &mut recv);
        for (i, j, k) in spec.recv_region().iter() {
            // Coarse global index of this ghost cell.
            let gc = [i - 2, j - 2, k - 2];
            // Fine center average = 2*gc + 0.5 per dim.
            let want: f64 = (0..3).map(|d| coef[d] * (2.0 * gc[d] as f64 + 0.5)).sum();
            let got = recv.get(0, k as usize, j as usize, i as usize);
            assert!((got - want).abs() < 1e-10, "({i},{j},{k}): {got} vs {want}");
        }
    }
}

/// The unrestricted fine→coarse mode moves exactly 2^dim times the
/// restricted volume and produces identical receiver values for linear
/// data.
#[test]
fn unrestricted_mode_equivalent_but_bulkier() {
    let mut rng = Rng::new(0xBF00_0003);
    for _case in 0..CASES {
        let coef = rand_coef(&mut rng);
        let shape = IndexShape::new([8, 8, 8], 2, 3);
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(1, 2, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec_r = compute_buffer_spec_with(&shape, &r, &s, &off, true);
        let spec_u = compute_buffer_spec_with(&shape, &r, &s, &off, false);
        assert_eq!(
            spec_u.cells_per_component(),
            8 * spec_r.cells_per_component()
        );

        let sender = fill_linear(&shape, [16, 0, 0], coef);
        let mut buf_r = Vec::new();
        let mut buf_u = Vec::new();
        pack(&spec_r, &sender, &mut buf_r);
        pack(&spec_u, &sender, &mut buf_u);
        let mut recv_r = Array4::zeros([1, 12, 12, 12]);
        let mut recv_u = Array4::zeros([1, 12, 12, 12]);
        unpack(&spec_r, &buf_r, &mut recv_r);
        unpack(&spec_u, &buf_u, &mut recv_u);
        for (i, j, k) in spec_r.recv_region().iter() {
            let a = recv_r.get(0, k as usize, j as usize, i as usize);
            let b = recv_u.get(0, k as usize, j as usize, i as usize);
            assert!(
                (a - b).abs() < 1e-10,
                "sender- vs receiver-side restriction"
            );
        }
    }
}

/// Coarse→fine prolongation is exact for linear fields at every face.
#[test]
fn prolongation_exact_for_linear_fields() {
    let mut rng = Rng::new(0xBF00_0004);
    for _case in 0..CASES {
        let axis = rng.usize_in(0, 3);
        let positive = rng.bool();
        let coef = rand_coef(&mut rng);
        let shape = IndexShape::new([8, 8, 8], 2, 3);
        // Fine receiver: a level-1 block in the middle of a 2^3 base grid.
        let rloc = [2i64, 2, 2];
        let r = LogicalLocation::new(1, rloc[0], rloc[1], rloc[2]);
        let mut off = [0i64; 3];
        off[axis] = if positive { 1 } else { -1 };
        // Coarse sender: parent-level neighbor.
        let cand = [rloc[0] + off[0], rloc[1] + off[1], rloc[2] + off[2]];
        let s = LogicalLocation::new(
            0,
            cand[0].div_euclid(2),
            cand[1].div_euclid(2),
            cand[2].div_euclid(2),
        );
        let offset = NeighborOffset::new(off[0], off[1], off[2]);
        let spec = compute_buffer_spec_with(&shape, &r, &s, &offset, true);
        assert_eq!(spec.mode(), BufferMode::CoarseToFine);

        // Coarse sender holds the linear function of *coarse* global index;
        // the exact fine-sample value is c·(g/2 ± 1/4) = linear in fine
        // coords with quarter offsets.
        let sorigin = [
            cand[0].div_euclid(2) * 8,
            cand[1].div_euclid(2) * 8,
            cand[2].div_euclid(2) * 8,
        ];
        let sender = fill_linear(&shape, sorigin, coef);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let mut recv = Array4::zeros([1, 12, 12, 12]);
        unpack(&spec, &buf, &mut recv);
        for (i, j, k) in spec.recv_region().iter() {
            let gf = [
                rloc[0] * 8 + i - 2,
                rloc[1] * 8 + j - 2,
                rloc[2] * 8 + k - 2,
            ];
            let want: f64 = (0..3)
                .map(|d| {
                    let c = gf[d].div_euclid(2) as f64;
                    let sign = if gf[d].rem_euclid(2) == 0 {
                        -0.25
                    } else {
                        0.25
                    };
                    coef[d] * (c + sign)
                })
                .sum();
            let got = recv.get(0, k as usize, j as usize, i as usize);
            assert!((got - want).abs() < 1e-9, "({i},{j},{k}): {got} vs {want}");
        }
    }
}

/// Values whose sums expose any change in the order of additions: signed
/// zeros, subnormals, and magnitudes that cancel or overflow.
const AWKWARD: [f64; 12] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    3.0e-320,
    2.2250738585072014e-308,
    1e-300,
    1e308,
    -1e308,
    1.7976931348623157e308,
    1.0,
    -1.0,
];

/// A block array of `ncomp` components filled with a mix of ordinary and
/// [`AWKWARD`] values.
fn rand_array(rng: &mut Rng, shape: &IndexShape, ncomp: usize) -> Array4 {
    let mut a = Array4::zeros([
        ncomp,
        shape.entire_d(2),
        shape.entire_d(1),
        shape.entire_d(0),
    ]);
    for v in a.as_mut_slice() {
        *v = if rng.usize_in(0, 4) == 0 {
            AWKWARD[rng.usize_in(0, AWKWARD.len())]
        } else {
            rng.f64_in(-3.0, 3.0)
        };
    }
    a
}

fn bits(a: &Array4) -> Vec<u64> {
    a.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One random boundary: dimension 1–3, 2–4 ghost cells, block edge 4–16,
/// any offset, any level relation (with either restriction setting), the
/// receiver anywhere on a periodic level — including at its edge, where
/// the sender is the wrapped neighbor.
fn rand_boundary(rng: &mut Rng) -> (IndexShape, BufferSpec) {
    let dim = rng.usize_in(1, 4);
    let nghost = rng.usize_in(2, 5);
    // Even (a block refines into halves) and at least 2*nghost (a fine
    // sender restricts 2*nghost of its cells into the ghost band).
    let edge = 2 * rng.usize_in(nghost.max(2), 9);
    let ncells: [usize; 3] = std::array::from_fn(|d| if d < dim { edge } else { 1 });
    let shape = IndexShape::new(ncells, nghost, dim);
    let off: [i64; 3] = loop {
        let o = std::array::from_fn(|d| if d < dim { rng.i64_in(-1, 2) } else { 0 });
        if o != [0, 0, 0] {
            break o;
        }
    };
    // Blocks per dimension on the receiver's level (periodic).
    let extent = 4i64;
    let relation = rng.i64_in(-1, 2);
    let mut r_lx = [0i64; 3];
    let mut s_lx = [0i64; 3];
    for d in 0..dim {
        r_lx[d] = rng.i64_in(0, extent);
        if relation == -1 {
            // A coarser neighbor lies outside the receiver's parent.
            match off[d] {
                1 => r_lx[d] |= 1,
                -1 => r_lx[d] &= !1,
                _ => {}
            }
        }
        let candidate = r_lx[d] + off[d];
        s_lx[d] = match relation {
            0 => candidate.rem_euclid(extent),
            1 => {
                // The child of the candidate that touches the receiver.
                let bit = match off[d] {
                    1 => 0,
                    -1 => 1,
                    _ => rng.i64_in(0, 2),
                };
                (2 * candidate + bit).rem_euclid(2 * extent)
            }
            _ => candidate.div_euclid(2).rem_euclid(extent / 2),
        };
    }
    let r = LogicalLocation::new(2, r_lx[0], r_lx[1], r_lx[2]);
    let s = LogicalLocation::new(2 + relation as i32, s_lx[0], s_lx[1], s_lx[2]);
    let offset = NeighborOffset::new(off[0], off[1], off[2]);
    let spec = compute_buffer_spec_with(&shape, &r, &s, &offset, rng.bool());
    (shape, spec)
}

/// The direct fill of the ghost exchange leaves the receiver bit for bit
/// as `unpack(pack(..))` does — the cells it fills and the cells it must
/// not touch — for every mode, geometry and component count.
#[test]
fn direct_fill_equals_pack_then_unpack_bitwise() {
    let mut rng = Rng::new(0xBF00_0005);
    let mut seen = std::collections::HashSet::new();
    let mut scratch = Vec::new();
    for _case in 0..40 * CASES {
        let (shape, spec) = rand_boundary(&mut rng);
        seen.insert(spec.mode());
        let ncomp = rng.usize_in(1, 8);
        let sender = rand_array(&mut rng, &shape, ncomp);
        let mut wired = rand_array(&mut rng, &shape, ncomp);
        let mut filled = wired.clone();

        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        assert_eq!(buf.len(), spec.buffer_len(ncomp));
        unpack(&spec, &buf, &mut wired);

        let prog = RowProgram::compile(&spec);
        assert_eq!(prog.wire_len(ncomp), spec.buffer_len(ncomp));
        prog.fill(
            ncomp,
            sender.as_slice(),
            filled.as_mut_slice(),
            &mut scratch,
        );
        assert!(
            bits(&wired) == bits(&filled),
            "direct fill differs from pack/unpack for {spec:?}, ncomp {ncomp}"
        );
    }
    assert_eq!(seen.len(), 4, "every transfer mode was drawn");
}

/// Restriction on the sender — four receiver cells per step, one per lane
/// — equals `restrict_average` over the gathered fine cells bit for bit,
/// on signed zeros, subnormals and cancelling magnitudes too.
#[test]
fn lane_restriction_equals_restrict_average_bitwise() {
    let mut rng = Rng::new(0xBF00_0006);
    for _case in 0..8 * CASES {
        let dim = rng.usize_in(1, 4);
        let nghost = rng.usize_in(2, 5);
        let edge = 2 * rng.usize_in(nghost.max(2), 9);
        let n = edge as i64;
        let g = nghost as i64;
        let ncells: [usize; 3] = std::array::from_fn(|d| if d < dim { edge } else { 1 });
        let shape = IndexShape::new(ncells, nghost, dim);
        let off: [i64; 3] = loop {
            let o = std::array::from_fn(|d| if d < dim { rng.i64_in(-1, 2) } else { 0 });
            if o != [0, 0, 0] {
                break o;
            }
        };
        // Receiver in the middle of its level, so nothing wraps and the
        // sender's origin is its location times the block edge.
        let r_lx: [i64; 3] = std::array::from_fn(|d| if d < dim { 3 } else { 0 });
        let s_lx: [i64; 3] = std::array::from_fn(|d| {
            if d >= dim {
                return 0;
            }
            let bit = match off[d] {
                1 => 0,
                -1 => 1,
                _ => rng.i64_in(0, 2),
            };
            2 * (r_lx[d] + off[d]) + bit
        });
        let r = LogicalLocation::new(1, r_lx[0], r_lx[1], r_lx[2]);
        let s = LogicalLocation::new(2, s_lx[0], s_lx[1], s_lx[2]);
        let offset = NeighborOffset::new(off[0], off[1], off[2]);
        let spec = compute_buffer_spec_with(&shape, &r, &s, &offset, true);
        assert_eq!(spec.mode(), BufferMode::RestrictFromFine);

        let sender = rand_array(&mut rng, &shape, 1);
        let mut buf = Vec::new();
        pack(&spec, &sender, &mut buf);
        let two = |d: usize| if d < dim { 2i64 } else { 1 };
        for (cell, (i, j, k)) in spec.recv_region().iter().enumerate() {
            // Fine cells under receiver cell (i, j, k), x fastest.
            let coarse = [i, j, k];
            let mut fine = Vec::new();
            for tz in 0..two(2) {
                for ty in 0..two(1) {
                    for tx in 0..two(0) {
                        let t = [tx, ty, tz];
                        let at: [usize; 3] = std::array::from_fn(|d| {
                            let gd = if d < dim { g } else { 0 };
                            let global = (r_lx[d] * n + coarse[d] - gd) * two(d) + t[d];
                            (global - s_lx[d] * n + gd) as usize
                        });
                        fine.push(sender.get(0, at[2], at[1], at[0]));
                    }
                }
            }
            let want = restrict_average(&fine);
            assert_eq!(
                buf[cell].to_bits(),
                want.to_bits(),
                "cell ({i},{j},{k}) of {spec:?}: {} vs {want} from {fine:?}",
                buf[cell]
            );
        }
    }
}

/// The halo programs of a block ([`RowProgram::fill_halo`]) write exactly
/// its stencil halo — the ghost cells with one coordinate outside the
/// interior, at most `radius` deep — and skip the outer shell (writing
/// [`SKIPPED`] there in debug builds, nothing in release builds), while its
/// full programs still write every ghost cell some program covers: on
/// random 1–3-D meshes of 1–3 levels, for every radius up to the ghost
/// width, in every transfer mode, the tangential halves of fine→coarse
/// faces included.
#[test]
fn halo_programs_write_exactly_the_stencil_halo() {
    const UNTOUCHED: f64 = -7.0;
    let mut rng = Rng::new(0xBF00_0007);
    let mut face_modes = std::collections::HashSet::new();
    let mut scratch = Vec::new();
    for _case in 0..CASES {
        let dim = rng.usize_in(1, 4);
        let nghost = rng.usize_in(1, 5);
        let levels = rng.usize_in(1, 4) as u32;
        let block = 2 * rng.usize_in(nghost.max(2), nghost.max(2) + 3);
        let params = MeshParams::builder()
            .dim(dim)
            .mesh_cells(2 * block)
            .block_cells(block)
            .max_levels(levels)
            .nghost(nghost)
            .build()
            .unwrap();
        let mut mesh = Mesh::new(params).unwrap();
        for _ in 1..levels {
            let flags: Vec<AmrFlag> = (0..mesh.num_blocks())
                .map(|_| match rng.usize_in(0, 3) {
                    0 => AmrFlag::Refine,
                    _ => AmrFlag::Same,
                })
                .collect();
            mesh.regrid(&mesh.proper_nesting(&flags)).unwrap();
        }
        let shape = mesh.index_shape();
        let radius = rng.usize_in(1, nghost + 1);
        let restrict_on_send = rng.bool();
        let entire = [shape.entire_d(2), shape.entire_d(1), shape.entire_d(0)];
        // Sender values in [1, 2): whatever a program writes from them is
        // finite and never UNTOUCHED.
        let sender = {
            let mut a = Array4::zeros([1, entire[0], entire[1], entire[2]]);
            a.as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = rng.f64_in(1.0, 2.0));
            a
        };
        for recv in 0..mesh.num_blocks() {
            let r_loc = mesh.block(recv).loc();
            let mut halo = Array4::zeros([1, entire[0], entire[1], entire[2]]);
            halo.fill(UNTOUCHED);
            let mut full = halo.clone();
            let coarser = mesh.neighbors(recv).iter().any(|nb| nb.level_diff < 0);
            for nb in mesh.neighbors(recv) {
                let spec =
                    compute_buffer_spec_with(&shape, &r_loc, &nb.loc, &nb.offset, restrict_on_send);
                let prog = RowProgram::compile(&spec);
                if prog.halo(radius).is_some() {
                    face_modes.insert(spec.mode());
                }
                let src = sender.as_slice();
                prog.fill_halo(radius, 1, src, halo.as_mut_slice(), &mut scratch);
                prog.fill(1, src, full.as_mut_slice(), &mut scratch);
            }
            for k in 0..entire[0] {
                for j in 0..entire[1] {
                    for i in 0..entire[2] {
                        // How far outside the interior, per axis it is outside on.
                        let cell = [i, j, k];
                        let outside: Vec<usize> = (0..3)
                            .map(|d| {
                                let (g, n) = (shape.nghost_d(d), shape.ncells()[d]);
                                (g.saturating_sub(cell[d])).max((cell[d] + 1).saturating_sub(g + n))
                            })
                            .filter(|&o| o > 0)
                            .collect();
                        let (h, f) = (halo.get(0, k, j, i), full.get(0, k, j, i));
                        let at = format!(
                            "block {recv} cell ({i},{j},{k}), {dim}-D, g {nghost}, r {radius}"
                        );
                        match outside[..] {
                            [] => {
                                assert_eq!(h, UNTOUCHED, "halo fill wrote the interior at {at}");
                                assert_eq!(f, UNTOUCHED, "full fill wrote the interior at {at}");
                            }
                            [o] if o <= radius => {
                                assert!(
                                    h.is_finite() && h != UNTOUCHED,
                                    "halo cell skipped at {at}"
                                );
                                assert_eq!(h.to_bits(), f.to_bits(), "halo cell differs at {at}");
                            }
                            _ => {
                                // A coarser neighbour reached through a face
                                // and an adjoining edge or corner is listed
                                // once (`find_neighbors`), so no program
                                // writes those edge and corner cells.
                                let written = f != UNTOUCHED;
                                assert!(written || coarser, "full fill skipped {at}");
                                assert!(!written || f.is_finite(), "full fill wrote NaN at {at}");
                                let skipped = match cfg!(debug_assertions) && written {
                                    true => SKIPPED,
                                    false => UNTOUCHED,
                                };
                                assert_eq!(h.to_bits(), skipped.to_bits(), "shell cell at {at}");
                            }
                        }
                    }
                }
            }
        }
    }
    for mode in [
        BufferMode::Copy,
        BufferMode::RestrictFromFine,
        BufferMode::FineUnrestricted,
        BufferMode::CoarseToFine,
    ] {
        assert!(face_modes.contains(&mode), "no {mode:?} face was drawn");
    }
}

/// The regrid's programs ([`RowProgram::refine`], [`RowProgram::coarsen`])
/// equal, bit for bit, the per-cell operators below — their spec — and
/// write nothing outside the child's interior or the parent's octant: for
/// every dimension 1–3, block edge 4, 6, 8 and 16, ghost width with
/// `2·nghost <= n`, and child index, on data with ghosts, signed zeros and
/// repeated values (minmod ties) in it.
#[test]
fn regrid_programs_equal_the_per_cell_operators_bitwise() {
    /// The prolongation of one fine cell of child `bit` from the parent's
    /// storage: the coarse value plus, per dimension, a quarter of the
    /// minmod slope of its two axis neighbours toward the fine cell's side.
    fn prolong_cell(
        parent: &Array4,
        shape: &IndexShape,
        c: usize,
        bit: [usize; 3],
        fine: [usize; 3],
    ) -> f64 {
        let (dim, n) = (shape.dim(), shape.ncells());
        let p: [usize; 3] = std::array::from_fn(|d| {
            if d < dim {
                shape.nghost_d(d) + bit[d] * n[d] / 2 + fine[d] / 2
            } else {
                0
            }
        });
        let at = |q: [usize; 3]| parent.get(c, q[2], q[1], q[0]);
        let center = at(p);
        let mut value = center;
        for d in 0..dim {
            let (mut lo, mut hi) = (p, p);
            lo[d] -= 1;
            hi[d] += 1;
            let sign = if fine[d].is_multiple_of(2) { -1.0 } else { 1.0 };
            value += 0.25 * sign * minmod(at(hi) - center, center - at(lo));
        }
        value
    }

    /// The restriction of one parent cell of child `bit`'s octant: the
    /// `2^dim` fine values covering it summed in `(z, y, x)` order, the
    /// first one starting the sum, over their count.
    fn restrict_cell(
        child: &Array4,
        shape: &IndexShape,
        c: usize,
        bit: [usize; 3],
        coarse: [usize; 3],
    ) -> f64 {
        let (dim, n) = (shape.dim(), shape.ncells());
        let t = |d: usize| if d < dim { 2 } else { 1 };
        let mut values = Vec::new();
        for tz in 0..t(2) {
            for ty in 0..t(1) {
                for tx in 0..t(0) {
                    let s: [usize; 3] = std::array::from_fn(|d| {
                        let off = [tx, ty, tz][d];
                        let g = shape.nghost_d(d);
                        if d < dim {
                            g + 2 * (coarse[d] - g - bit[d] * n[d] / 2) + off
                        } else {
                            0
                        }
                    });
                    values.push(child.get(c, s[2], s[1], s[0]));
                }
            }
        }
        values[1..].iter().fold(values[0], |sum, v| sum + v) / values.len() as f64
    }

    const PALETTE: [f64; 7] = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324];
    let mut rng = Rng::new(0xBF00_0008);
    let mut fill = |a: &mut Array4| {
        for v in a.as_mut_slice() {
            *v = if rng.bool() {
                PALETTE[rng.usize_in(0, PALETTE.len())]
            } else {
                rng.f64_in(-3.0, 3.0)
            };
        }
    };
    let mut scratch = Vec::new();
    let mut cases = 0;
    for dim in 1..=3 {
        for edge in [4, 6, 8, 16] {
            for nghost in (1..=4).filter(|g| 2 * g <= edge) {
                let ncells: [usize; 3] = std::array::from_fn(|d| if d < dim { edge } else { 1 });
                let shape = IndexShape::new(ncells, nghost, dim);
                let entire = [2, shape.entire_d(2), shape.entire_d(1), shape.entire_d(0)];
                let interior = |d: usize| shape.nghost_d(d)..shape.nghost_d(d) + ncells[d];
                let mut parent = Array4::zeros(entire);
                fill(&mut parent);
                let mut restricted = parent.clone();
                let mut want_restricted = parent.clone();
                for child_index in 0..1usize << dim {
                    let bit: [usize; 3] = std::array::from_fn(|d| (child_index >> d) & 1);
                    let at = format!("{dim}-D, n {edge}, g {nghost}, child {child_index}");

                    let mut child = Array4::zeros(entire);
                    fill(&mut child);
                    let mut want = child.clone();
                    for c in 0..2 {
                        for k in interior(2) {
                            for j in interior(1) {
                                for i in interior(0) {
                                    let fine: [usize; 3] =
                                        std::array::from_fn(|d| [i, j, k][d] - shape.nghost_d(d));
                                    want.set(
                                        c,
                                        k,
                                        j,
                                        i,
                                        prolong_cell(&parent, &shape, c, bit, fine),
                                    );
                                }
                            }
                        }
                    }
                    RowProgram::refine(&shape, child_index).fill(
                        2,
                        parent.as_slice(),
                        child.as_mut_slice(),
                        &mut scratch,
                    );
                    assert_eq!(bits(&child), bits(&want), "refine, {at}");

                    // Coarsening reads fresh data, ghosts and all.
                    fill(&mut child);
                    for c in 0..2 {
                        for k in interior(2) {
                            for j in interior(1) {
                                for i in interior(0) {
                                    let coarse = [i, j, k];
                                    let inside = (0..dim).all(|d| {
                                        let lo = shape.nghost_d(d) + bit[d] * edge / 2;
                                        (lo..lo + edge / 2).contains(&coarse[d])
                                    });
                                    if inside {
                                        let v = restrict_cell(&child, &shape, c, bit, coarse);
                                        want_restricted.set(c, k, j, i, v);
                                    }
                                }
                            }
                        }
                    }
                    RowProgram::coarsen(&shape, child_index).fill(
                        2,
                        child.as_slice(),
                        restricted.as_mut_slice(),
                        &mut scratch,
                    );
                    assert_eq!(bits(&restricted), bits(&want_restricted), "coarsen, {at}");
                    cases += 1;
                }

                // A group of negative zeros restricts to a negative zero,
                // the IEEE sum of the group.
                let zeros = Array4::filled(entire, -0.0);
                let mut parent = Array4::zeros(entire);
                for child_index in 0..1usize << dim {
                    RowProgram::coarsen(&shape, child_index).fill(
                        2,
                        zeros.as_slice(),
                        parent.as_mut_slice(),
                        &mut scratch,
                    );
                }
                for c in 0..2 {
                    for k in interior(2) {
                        for j in interior(1) {
                            for i in interior(0) {
                                let v = parent.get(c, k, j, i);
                                assert_eq!(v.to_bits(), (-0.0f64).to_bits(), "{dim}-D, n {edge}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 182, "every dimension, edge, ghost width and child");
}
