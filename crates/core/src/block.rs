//! Per-block state: mesh metadata plus field containers.

use vibe_field::{BlockData, VarId};
use vibe_mesh::{BlockGeometry, LogicalLocation, Mesh};

/// Immutable per-block metadata snapshot (stable for one regrid epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// Global id (Morton rank in the current mesh).
    pub gid: usize,
    /// Logical location.
    pub loc: LogicalLocation,
    /// Refinement level.
    pub level: i32,
    /// Owning rank.
    pub rank: usize,
    /// Physical geometry.
    pub geom: BlockGeometry,
}

impl BlockInfo {
    /// Builds the info for block `gid` of `mesh`.
    pub fn from_mesh(mesh: &Mesh, gid: usize) -> Self {
        let b = mesh.block(gid);
        Self {
            gid,
            loc: b.loc(),
            level: b.level(),
            rank: b.rank(),
            geom: *b.geometry(),
        }
    }
}

/// One mesh block's full state: metadata, live field data, and the saved
/// stage-0 copies used by multi-stage time integration.
#[derive(Debug, Clone)]
pub struct BlockSlot {
    /// Block metadata.
    pub info: BlockInfo,
    /// Field container with all registered variables.
    pub data: BlockData,
    /// Cycle-start copies of two-stage variables (`u0` in RK2), indexed by
    /// variable id: the interior cells only, `(comp, k, j, i)` dense — the
    /// stage update reads nothing else. Empty for a variable never saved.
    pub stage0: Vec<Vec<f64>>,
}

impl BlockSlot {
    /// Creates a slot with the given metadata and container.
    pub fn new(info: BlockInfo, data: BlockData) -> Self {
        Self {
            info,
            data,
            stage0: Vec::new(),
        }
    }

    /// Saves stage-0 copies of the listed variables' interiors
    /// ([`save_stage0`]).
    pub fn save_stage0(&mut self, vars: &[VarId]) {
        save_stage0(&self.data, vars, &mut self.stage0);
    }

    /// The stage-0 copy of `id`'s interior.
    ///
    /// # Panics
    ///
    /// Panics if `save_stage0` was not called for `id` this cycle.
    pub fn stage0(&self, id: VarId) -> &[f64] {
        let copy = self.stage0.get(id.0).map_or(&[][..], Vec::as_slice);
        assert!(!copy.is_empty(), "stage-0 copy saved before use");
        copy
    }

    /// Field bytes in Parthenon's layout (data + fluxes + ghost-inclusive
    /// stage copies) — the Kokkos-attributed device allocation for this
    /// block, a model input like [`vibe_field::CellVariable::nbytes`].
    pub fn nbytes(&self) -> usize {
        let saved = self.stage0.iter().zip(self.data.vars());
        self.data.nbytes()
            + saved
                .filter(|(copy, _)| !copy.is_empty())
                .map(|(_, var)| var.data().nbytes())
                .sum::<usize>()
    }

    /// Field bytes this process actually holds for the block.
    pub fn resident_bytes(&self) -> usize {
        self.data.resident_bytes() + self.stage0.iter().map(|c| 8 * c.len()).sum::<usize>()
    }
}

/// Saves copies of the interiors of `vars` of `data` into `stage0` (a
/// [`BlockSlot::stage0`]), reusing the copies' allocations across cycles.
pub fn save_stage0(data: &BlockData, vars: &[VarId], stage0: &mut Vec<Vec<f64>>) {
    let shape = *data.shape();
    let [nx, ny, nz] = shape.ncells();
    let g: [usize; 3] = std::array::from_fn(|d| shape.nghost_d(d));
    stage0.resize(data.num_vars(), Vec::new());
    for &id in vars {
        let src = data.var(id).data();
        let [ncomp, ez, ey, ex] = src.shape();
        let copy = &mut stage0[id.0];
        copy.clear();
        for c in 0..ncomp {
            for k in 0..nz {
                for j in 0..ny {
                    let row = ((c * ez + k + g[2]) * ey + j + g[1]) * ex + g[0];
                    copy.extend_from_slice(&src.as_slice()[row..row + nx]);
                }
            }
        }
    }
}

/// FNV-1a fingerprint over the bit patterns of every variable of every
/// slot, in slot then registration order — the canonical solution
/// fingerprint shared by the bench gates and the rank-parallel runtime's
/// headline invariant (the blocks of all ranks, merged in gid order, must
/// hash identically to the single-process driver's).
pub fn fingerprint_slots(slots: &[BlockSlot]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (bits >> shift) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for slot in slots {
        for var in slot.data.vars() {
            for &v in var.data().as_slice() {
                eat(v.to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_field::Metadata;
    use vibe_mesh::MeshParams;

    fn mesh() -> Mesh {
        Mesh::new(
            MeshParams::builder()
                .dim(2)
                .mesh_cells(32)
                .block_cells(8)
                .max_levels(2)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn info_mirrors_mesh_block() {
        let m = mesh();
        let info = BlockInfo::from_mesh(&m, 3);
        assert_eq!(info.gid, 3);
        assert_eq!(info.loc, m.block(3).loc());
        assert_eq!(info.level, 0);
    }

    #[test]
    fn stage0_roundtrip() {
        let m = mesh();
        let mut data = BlockData::new(m.index_shape());
        let id = data.add_variable("u", 2, Metadata::INDEPENDENT | Metadata::TWO_STAGE);
        data.var_mut(id).data_mut().fill(3.0);
        let mut slot = BlockSlot::new(BlockInfo::from_mesh(&m, 0), data);
        slot.save_stage0(&[id]);
        slot.data.var_mut(id).data_mut().fill(9.0);
        assert_eq!(slot.stage0(id), vec![3.0; 2 * 8 * 8]);
        assert_eq!(slot.data.var(id).data().get(0, 0, 0, 0), 9.0);
    }

    #[test]
    fn nbytes_includes_stage_copies() {
        let m = mesh();
        let mut data = BlockData::new(m.index_shape());
        let id = data.add_variable("u", 1, Metadata::INDEPENDENT);
        let mut slot = BlockSlot::new(BlockInfo::from_mesh(&m, 0), data);
        let before = slot.nbytes();
        slot.save_stage0(&[id]);
        // The model counts a ghost-inclusive copy; the process holds the
        // interior.
        assert_eq!(slot.nbytes(), 2 * before);
        assert_eq!(slot.resident_bytes(), before + 8 * 8 * 8);
    }

    /// The memory floor: a block registered like Burgers' (`u`, four
    /// scalars, one derived field; WENO5's four ghosts) holds at most half
    /// of what the Parthenon layout the model counts would, stage copy
    /// included.
    #[test]
    fn burgers_blocks_hold_at_most_half_their_modeled_bytes() {
        for n in [16, 8] {
            let mut data = BlockData::new(vibe_mesh::IndexShape::new([n, n, n], 4, 3));
            let evolved = Metadata::INDEPENDENT
                | Metadata::FILL_GHOST
                | Metadata::WITH_FLUXES
                | Metadata::TWO_STAGE;
            let ids = [
                data.add_variable("u", 3, evolved),
                data.add_variable("q", 4, evolved),
            ];
            data.add_variable("d", 1, Metadata::DERIVED);
            let mut slot = BlockSlot::new(BlockInfo::from_mesh(&mesh(), 0), data);
            assert!(2 * slot.resident_bytes() <= slot.nbytes());
            slot.save_stage0(&ids);
            assert!(2 * slot.resident_bytes() <= slot.nbytes(), "B{n}");
        }
    }

    #[test]
    #[should_panic(expected = "stage-0 copy")]
    fn missing_stage0_panics() {
        let m = mesh();
        let mut data = BlockData::new(m.index_shape());
        let id = data.add_variable("u", 1, Metadata::INDEPENDENT);
        let slot = BlockSlot::new(BlockInfo::from_mesh(&m, 0), data);
        slot.stage0(id);
    }
}
