//! Per-block state: mesh metadata plus field containers.

use std::collections::HashMap;

use vibe_field::{Array4, BlockData, VarId};
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
    /// Cycle-start copies of two-stage variables (`u0` in RK2), keyed by
    /// variable id.
    pub stage0: HashMap<VarId, Array4>,
}

impl BlockSlot {
    /// Creates a slot with the given metadata and container.
    pub fn new(info: BlockInfo, data: BlockData) -> Self {
        Self {
            info,
            data,
            stage0: HashMap::new(),
        }
    }

    /// Saves stage-0 copies of the listed variables, reusing the copies'
    /// allocations across cycles.
    pub fn save_stage0(&mut self, vars: &[VarId]) {
        for &id in vars {
            let src = self.data.var(id).data();
            match self.stage0.entry(id) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().copy_from(src),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(src.clone());
                }
            }
        }
    }

    /// The stage-0 copy of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `save_stage0` was not called for `id` this cycle.
    pub fn stage0(&self, id: VarId) -> &Array4 {
        self.stage0.get(&id).expect("stage-0 copy saved before use")
    }

    /// Total live field bytes (data + fluxes + stage copies) — the
    /// Kokkos-attributed device allocation for this block.
    pub fn nbytes(&self) -> usize {
        self.data.nbytes() + self.stage0.values().map(Array4::nbytes).sum::<usize>()
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
        assert_eq!(slot.stage0(id).get(0, 0, 0, 0), 3.0);
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
        assert!(slot.nbytes() > before);
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
