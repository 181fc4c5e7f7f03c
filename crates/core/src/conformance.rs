//! Trait-conformance harness: runs any [`Package`] through the framework
//! invariants every package must uphold — registration shape, positive
//! stable timestep, partition and width invariance of the flux primitive
//! (any tiling of a block yields the same divergence and face planes, every
//! face of a tile is written and with the same bits at any lane width, a
//! layer re-reduce fed uncorrected planes changes nothing and fed others
//! equals the per-face reference with those planes), and
//! thread-count determinism. What the types enforce is not checked here:
//! the driver tags each block once from its one indicator, and hands each
//! block a history row exactly as long as the labels.
//!
//! The harness is a library function (not a `#[test]`) so the physics
//! crate's tests and the root integration tests can run every registered
//! package through it.

use vibe_field::{BlockData, Metadata, VarId};
use vibe_mesh::{Mesh, MeshParams};

use crate::block::fingerprint_slots;
use crate::block::{BlockInfo, BlockSlot};
use crate::driver::Driver;
use crate::package::Package;
use crate::sweep::{
    copy_surface, reduce, reduce_layers, sweep_slot, CellBox, FluxTile, Walk, TILE_BUDGET_BYTES,
};

/// What [`check_package`] measured while the checks ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// The package's registered name.
    pub package: String,
    /// Variables registered per block.
    pub num_vars: usize,
    /// Flux-bearing variables among them.
    pub flux_vars: usize,
    /// State fingerprint after two cycles at one thread (equal at eight).
    pub fingerprint: u64,
}

/// Runs the package built by `make(host_threads)` through every
/// conformance invariant. `make` must return a driver initialized by
/// [`Driver::initialize_package`] — what every replica factory hands out —
/// over the same problem for any thread count.
///
/// Returns a report on success and a description of the first violated
/// invariant otherwise.
pub fn check_package<P, F>(make: F) -> Result<ConformanceReport, String>
where
    P: Package,
    F: Fn(usize) -> Driver<P>,
{
    let mut d = make(1);

    // --- Registration: at least one independent, flux-bearing variable.
    let slots = d.slots();
    let first = slots
        .first()
        .ok_or_else(|| "driver owns no blocks".to_string())?;
    let num_vars = first.data.vars().len();
    if num_vars == 0 {
        return Err("register() added no variables".to_string());
    }
    let flux_vars = first
        .data
        .vars()
        .iter()
        .filter(|v| v.metadata().contains(Metadata::WITH_FLUXES))
        .count();
    if flux_vars == 0 {
        return Err("register() added no flux-bearing variable".to_string());
    }
    let name = d.package().name().to_string();

    // --- Problem setup hooks.
    let nghost = d.package().nghost();
    if nghost == 0 {
        return Err("nghost() must be at least 1".to_string());
    }
    let mesh_nghost = first.data.shape().nghost();
    if mesh_nghost < nghost {
        return Err(format!(
            "mesh built with {mesh_nghost} ghosts but the package requires {nghost}"
        ));
    }

    // --- Timestep: initialize must produce a positive, finite dt.
    if !(d.dt() > 0.0 && d.dt().is_finite()) {
        return Err(format!("estimate_dt produced dt = {}", d.dt()));
    }

    // --- Stencil reach and partition invariance of the flux primitive, on
    // the freshly initialized state (ghosts are synced at the end of
    // initialize).
    if d.package().stencil_radius() > nghost {
        return Err(format!(
            "stencil_radius() = {} exceeds nghost() = {nghost}",
            d.package().stencil_radius()
        ));
    }
    for (seed, slot) in [first, &slots[slots.len() / 2]].into_iter().enumerate() {
        check_partition_invariance(d.package(), slot, seed as u64)
            .map_err(|e| format!("block {}: {e}", slot.info.gid))?;
    }

    // --- Thread-count determinism: two cycles at 1 vs 8 host threads
    // must produce bitwise-identical state (pack-order reductions).
    d.run_cycles(2);
    let fp1 = fingerprint_slots(d.slots());
    let mut d8 = make(8);
    d8.run_cycles(2);
    let fp8 = fingerprint_slots(d8.slots());
    if fp1 != fp8 {
        return Err(format!(
            "thread-count nondeterminism: fingerprint {fp1:016x} at 1 thread \
             vs {fp8:016x} at 8 threads"
        ));
    }

    Ok(ConformanceReport {
        package: name,
        num_vars,
        flux_vars,
        fingerprint: fp1,
    })
}

/// xorshift64: the harness's seeded source of cuts and perturbations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[-0.5, 0.5)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// A single block of `n` cells per active dimension carrying `pkg`'s
/// initial condition, every cell (ghosts included) perturbed by a seeded
/// few percent — a state with no symmetry for the flux primitive to hide
/// behind.
pub fn synthetic_block<P: Package>(pkg: &P, dim: usize, n: usize, seed: u64) -> BlockSlot {
    let params = MeshParams::builder()
        .dim(dim)
        .mesh_cells(n)
        .block_cells(n)
        .max_levels(1)
        .nghost(pkg.nghost())
        .build()
        .expect("one-block mesh");
    let mesh = Mesh::new(params).expect("one-block mesh");
    let info = BlockInfo::from_mesh(&mesh, 0);
    let mut data = BlockData::new(mesh.index_shape());
    pkg.register(&mut data);
    pkg.initial_condition(&info, &mut data);
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for var in data.vars_mut() {
        for v in var.data_mut().as_mut_slice() {
            *v = *v * (1.0 + 0.1 * rng.unit()) + 0.01 * rng.unit();
        }
    }
    BlockSlot::new(info, data)
}

/// Cuts `cells` into a seeded random partition of boxes, along every
/// active axis.
fn random_partition(cells: CellBox, dim: usize, rng: &mut Rng, out: &mut Vec<CellBox>) {
    let axis = (rng.next() % dim as u64) as usize;
    if cells.n[axis] < 2 || rng.next().is_multiple_of(4) {
        return out.push(cells);
    }
    let cut = 1 + (rng.next() % (cells.n[axis] as u64 - 1)) as usize;
    let (mut low, mut high) = (cells, cells);
    low.n[axis] = cut;
    high.lo[axis] += cut;
    high.n[axis] -= cut;
    random_partition(low, dim, rng, out);
    random_partition(high, dim, rng, out);
}

/// Bit patterns of what a sweep leaves on `slot`: every flux-bearing
/// variable's divergence, then its face planes, then its kept layers.
fn swept_bits(slot: &BlockSlot, ids: &[VarId]) -> [Vec<u64>; 3] {
    let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    for &id in ids {
        let var = slot.data.var(id);
        out[0].extend(bits(var.div().expect("div").as_slice()));
        out[1].extend(var.planes().iter().flat_map(|p| bits(p.as_slice())));
        out[2].extend(var.layers().iter().flat_map(|l| bits(l)));
    }
    out
}

/// Checks that `pkg`'s flux primitive is a pure function of the block's
/// state that the framework may tile at will, on the state `slot` carries:
///
/// * one whole-block tile, the production tiling, a thin tiling (slabs
///   that carry their shared plane, or y-strips) and a seeded random box
///   partition leave bitwise the same divergence, face planes and kept
///   layer fluxes;
/// * a tile pre-filled with a NaN sentinel comes back with every face
///   written — and with the same bits by the line walker
///   ([`crate::sweep::fill_lines`]), by the walker held to `W = 1` and by
///   its per-face reference through the same kernels (trivially so for a
///   package that fills its tile by other means);
/// * the fluxes a sweep keeps of the layers under all outer faces are the
///   same bits in every tiling; re-reducing those layers
///   ([`crate::sweep::reduce_layers`]) with the uncorrected planes
///   reproduces the divergence bit for bit, and with perturbed planes
///   gives the divergence of the per-face reference's fluxes with those
///   planes in place of the block's own surface fluxes.
pub fn check_partition_invariance<P: Package>(
    pkg: &P,
    slot: &BlockSlot,
    seed: u64,
) -> Result<(), String> {
    let shape = *slot.data.shape();
    let dim = shape.dim();
    let flux_vars = slot.data.vars().iter().enumerate();
    let ids: Vec<VarId> = flux_vars
        .filter(|(_, v)| v.metadata().contains(Metadata::WITH_FLUXES))
        .map(|(i, _)| VarId(i))
        .collect();
    let ncomp: usize = ids.iter().map(|&id| slot.data.var(id).ncomp()).sum();
    let whole = CellBox::interior(&shape);
    let mut scratch = vec![0.0; whole.tile_len(dim, ncomp)];
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);

    // --- Every face of a tile is written, and with the same bits whatever
    // the lane width.
    let sentinel = f64::from_bits(0x7ff8_dead_beef_0001); // quiet NaN payload
    let mut random = Vec::new();
    random_partition(whole, dim, &mut rng, &mut random);
    for &cells in random.iter().chain([&whole]) {
        let [lanes, single, per_face] = [Walk::Lanes, Walk::Single, Walk::PerFace].map(|walk| {
            scratch.fill(sentinel);
            let mut tile = FluxTile::new(cells, dim, ncomp, &mut scratch);
            tile.walk = walk;
            pkg.fill_fluxes(&slot.info, &slot.data, &mut tile);
            let filled = (0..dim).flat_map(|dir| tile.faces(dir));
            filled.map(|v| v.to_bits()).collect::<Vec<u64>>()
        });
        if let Some(at) = lanes.iter().position(|&v| v == sentinel.to_bits()) {
            return Err(format!(
                "fill_fluxes left entry {at} unwritten over {cells:?}"
            ));
        }
        for (what, other) in [("at W = 1", single), ("face by face", per_face)] {
            if let Some(at) = (0..lanes.len()).find(|&at| lanes[at] != other[at]) {
                return Err(format!(
                    "entry {at} over {cells:?} differs between the lane walker and the same \
                     kernel {what}"
                ));
            }
        }
    }

    // --- Any tiling, same bits, the kept layers under every outer face
    // included.
    let all = (1u8 << (2 * dim)) - 1;
    let one_row = CellBox {
        lo: [0; 3],
        n: [whole.n[0], 1, 1],
    };
    let thin = (scratch.len() / 3).max(one_row.tile_len(dim, ncomp));
    let tilings = [
        (
            "the production tiling",
            whole.tiles(dim, ncomp, TILE_BUDGET_BYTES / 8),
        ),
        ("a thin tiling", whole.tiles(dim, ncomp, thin)),
        ("a random partition", random),
    ];
    let mut reference = slot.clone();
    sweep_slot(pkg, &mut reference, &ids, &[whole], all, &mut scratch);
    let want = swept_bits(&reference, &ids);
    for (what, boxes) in &tilings {
        let mut tiled = slot.clone();
        sweep_slot(pkg, &mut tiled, &ids, boxes, all, &mut scratch);
        let got = swept_bits(&tiled, &ids);
        for (part, name) in ["div", "face planes", "kept layer fluxes"]
            .iter()
            .enumerate()
        {
            if got[part] != want[part] {
                return Err(format!(
                    "{name} differ between one whole-block tile and {what}"
                ));
            }
        }
    }

    // --- A layer re-reduce fed the uncorrected planes is a no-op.
    reduce_layers(&mut reference, &ids, all);
    if swept_bits(&reference, &ids) != want {
        return Err(
            "re-reducing the surface layers with uncorrected planes moved bits".to_string(),
        );
    }

    // --- Fed other planes, it equals the per-face reference taken with
    // those planes in place of the block's surface fluxes.
    for &id in &ids {
        for plane in reference.data.var_mut(id).planes_mut() {
            plane
                .as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = rng.unit());
        }
    }
    let mut expect = reference.clone();
    reduce_layers(&mut reference, &ids, all);
    let mut tile = FluxTile::new(whole, dim, ncomp, &mut scratch);
    tile.walk = Walk::PerFace;
    pkg.fill_fluxes(&slot.info, &slot.data, &mut tile);
    let inv = slot.info.geom.dx().map(|dx| 1.0 / dx);
    let mut c0 = 0;
    for &id in &ids {
        let var = expect.data.var_mut(id);
        let mut out = var.take_flux_out();
        copy_surface(&mut tile, c0, &mut out.planes, shape.ncells(), false);
        reduce(&tile, c0, inv, &mut out.div);
        c0 += out.div.shape()[0];
        var.put_flux_out(out);
    }
    if swept_bits(&reference, &ids)[0] != swept_bits(&expect, &ids)[0] {
        return Err(
            "re-reducing the surface layers with perturbed planes differs from the per-face \
             reference with those planes"
                .to_string(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_package::Advect;

    #[test]
    fn test_package_flux_primitive_is_partition_invariant() {
        for dim in 1..=3 {
            for n in [4, 5, 8, 16] {
                let slot = synthetic_block(&Advect::default(), dim, n, 7);
                check_partition_invariance(&Advect::default(), &slot, n as u64)
                    .unwrap_or_else(|e| panic!("dim {dim}, {n} cells: {e}"));
            }
        }
    }
}
