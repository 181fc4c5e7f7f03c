//! The [`Mesh`]: block list, tree, neighbor cache, and regridding.

use std::collections::HashMap;

use crate::domain::BlockGeometry;
use crate::error::MeshError;
use crate::index::IndexShape;
use crate::loadbalance::{partition_by_cost, RankAssignment};
use crate::logical::LogicalLocation;
use crate::morton::MAX_KEY_LEVEL;
use crate::neighbor::{find_neighbors, NeighborBlock};
use crate::refinement::{AmrFlag, NestingTable, RegridDecision};
use crate::tree::BlockTree;

/// Configuration of a [`Mesh`].
///
/// Use [`MeshParams::builder`] to construct. `mesh_size` is in cells,
/// `block_size` is cells per block, and `max_levels` counts AMR levels
/// *including* the base grid (`max_levels = 1` means no refinement), matching
/// the paper's "#AMR Levels" parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshParams {
    dim: usize,
    mesh_size: [usize; 3],
    block_size: [usize; 3],
    max_levels: u32,
    nghost: usize,
    deref_gap: u64,
}

impl MeshParams {
    /// Starts building mesh parameters (3-D by default). The domain is
    /// always the periodic unit cube; the parameters divide it into cells
    /// and blocks.
    pub fn builder() -> MeshParamsBuilder {
        MeshParamsBuilder::default()
    }

    /// Number of active spatial dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Cells per dimension of the base-resolution mesh.
    pub fn mesh_size(&self) -> [usize; 3] {
        self.mesh_size
    }

    /// Cells per dimension of one block.
    pub fn block_size(&self) -> [usize; 3] {
        self.block_size
    }

    /// Total AMR level count (1 = uniform base grid only).
    pub fn max_levels(&self) -> u32 {
        self.max_levels
    }

    /// Ghost layers per block side (4 for WENO5).
    pub fn nghost(&self) -> usize {
        self.nghost
    }

    /// Minimum cycle gap between derefinements of the same region.
    pub fn deref_gap(&self) -> u64 {
        self.deref_gap
    }

    /// Blocks per dimension in the base grid.
    pub fn base_blocks(&self) -> [i64; 3] {
        let mut b = [1i64; 3];
        for (d, bd) in b.iter_mut().enumerate().take(self.dim) {
            *bd = (self.mesh_size[d] / self.block_size[d]) as i64;
        }
        b
    }

    /// Ghost-inclusive index shape of every block.
    pub fn index_shape(&self) -> IndexShape {
        IndexShape::new(self.block_size, self.nghost, self.dim)
    }
}

/// Builder for [`MeshParams`].
#[derive(Debug, Clone)]
pub struct MeshParamsBuilder {
    dim: usize,
    mesh_size: [usize; 3],
    block_size: [usize; 3],
    max_levels: u32,
    nghost: usize,
    deref_gap: u64,
}

impl Default for MeshParamsBuilder {
    fn default() -> Self {
        Self {
            dim: 3,
            mesh_size: [128, 128, 128],
            block_size: [16, 16, 16],
            max_levels: 3,
            nghost: 4,
            deref_gap: 10,
        }
    }
}

impl MeshParamsBuilder {
    /// Sets the number of active dimensions (1–3).
    pub fn dim(&mut self, dim: usize) -> &mut Self {
        self.dim = dim;
        self
    }

    /// Sets the base mesh size in cells per dimension.
    pub fn mesh_size(&mut self, mesh_size: [usize; 3]) -> &mut Self {
        self.mesh_size = mesh_size;
        self
    }

    /// Sets the block size in cells per dimension.
    pub fn block_size(&mut self, block_size: [usize; 3]) -> &mut Self {
        self.block_size = block_size;
        self
    }

    /// Convenience: cubic mesh of `n` cells per active dimension.
    pub fn mesh_cells(&mut self, n: usize) -> &mut Self {
        for d in 0..self.dim {
            self.mesh_size[d] = n;
        }
        for d in self.dim..3 {
            self.mesh_size[d] = 1;
        }
        self
    }

    /// Convenience: cubic blocks of `n` cells per active dimension.
    pub fn block_cells(&mut self, n: usize) -> &mut Self {
        for d in 0..self.dim {
            self.block_size[d] = n;
        }
        for d in self.dim..3 {
            self.block_size[d] = 1;
        }
        self
    }

    /// Sets the total number of AMR levels (≥ 1, and few enough that the
    /// finest lattice fits [`crate::morton::MAX_KEY_LEVEL`]).
    pub fn max_levels(&mut self, levels: u32) -> &mut Self {
        self.max_levels = levels;
        self
    }

    /// Sets ghost layers per side (WENO5 needs 4).
    pub fn nghost(&mut self, nghost: usize) -> &mut Self {
        self.nghost = nghost;
        self
    }

    /// Sets the minimum cycle gap between derefinements.
    pub fn deref_gap(&mut self, gap: u64) -> &mut Self {
        self.deref_gap = gap;
        self
    }

    /// Validates and produces the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::InvalidParameter`] for out-of-range fields and
    /// [`MeshError::IndivisibleMesh`] when the mesh does not divide evenly
    /// into blocks (the paper's exact-multiple rule).
    pub fn build(&self) -> Result<MeshParams, MeshError> {
        if !(1..=3).contains(&self.dim) {
            return Err(MeshError::InvalidParameter {
                name: "dim",
                reason: format!("must be 1, 2, or 3, got {}", self.dim),
            });
        }
        if self.max_levels == 0 {
            return Err(MeshError::InvalidParameter {
                name: "max_levels",
                reason: "must be at least 1".to_string(),
            });
        }
        let mut mesh_size = self.mesh_size;
        let mut block_size = self.block_size;
        for d in self.dim..3 {
            mesh_size[d] = 1;
            block_size[d] = 1;
        }
        for d in 0..self.dim {
            if block_size[d] == 0 || mesh_size[d] == 0 {
                return Err(MeshError::InvalidParameter {
                    name: "mesh_size/block_size",
                    reason: format!("dimension {d} has zero cells"),
                });
            }
            if !mesh_size[d].is_multiple_of(block_size[d]) {
                return Err(MeshError::IndivisibleMesh {
                    mesh_size,
                    block_size,
                });
            }
        }
        // The Morton key orders lattices of at most 2^MAX_KEY_LEVEL blocks
        // per dimension; the finest level's lattice has to fit.
        let base: [usize; 3] = std::array::from_fn(|d| mesh_size[d] / block_size[d]);
        let finest = self.max_levels - 1;
        let fits = |&b: &usize| (b as u128) << finest <= 1 << MAX_KEY_LEVEL;
        if finest > MAX_KEY_LEVEL as u32 || !base.iter().all(fits) {
            return Err(MeshError::InvalidParameter {
                name: "max_levels",
                reason: format!(
                    "{} levels over base grid {base:?} exceed 2^{MAX_KEY_LEVEL} blocks a side",
                    self.max_levels
                ),
            });
        }
        Ok(MeshParams {
            dim: self.dim,
            mesh_size,
            block_size,
            max_levels: self.max_levels,
            nghost: self.nghost,
            deref_gap: self.deref_gap,
        })
    }
}

/// One mesh block: a regular sub-volume of the domain, the fundamental
/// granularity of refinement, data storage, and load balancing.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshBlock {
    gid: usize,
    loc: LogicalLocation,
    geom: BlockGeometry,
    cost: f64,
    rank: usize,
}

impl MeshBlock {
    /// Global id (Morton rank within the current mesh snapshot).
    pub fn gid(&self) -> usize {
        self.gid
    }

    /// Logical location of the block in the tree.
    pub fn loc(&self) -> LogicalLocation {
        self.loc
    }

    /// Refinement level.
    pub fn level(&self) -> i32 {
        self.loc.level()
    }

    /// Physical geometry.
    pub fn geometry(&self) -> &BlockGeometry {
        &self.geom
    }

    /// Workload cost used for load balancing.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// MPI rank the block is assigned to.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

/// Where a post-regrid block's data comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegridSource {
    /// Same region existed before; data is copied from the old block.
    Unchanged {
        /// Old global id.
        old_gid: usize,
    },
    /// Block is a new child of a refined block; data is prolongated.
    Refined {
        /// Old global id of the parent.
        parent_old_gid: usize,
        /// Which child of the parent this block is (0..2^dim).
        child_index: usize,
    },
    /// Block is a merged parent; data is restricted from the old children.
    Derefined {
        /// Old global ids of the children, in child-index order.
        child_old_gids: Vec<usize>,
    },
}

/// Summary of one regrid application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegridOutcome {
    /// Per-new-block data provenance, indexed by new gid.
    pub sources: Vec<RegridSource>,
    /// Number of blocks that were split.
    pub num_refined: usize,
    /// Number of parent regions that were merged.
    pub num_derefined: usize,
    /// Block count before the regrid.
    pub old_num_blocks: usize,
}

/// A block-structured AMR mesh: the tree, the Morton-ordered block list,
/// cached neighbor relations, and the rank assignment.
#[derive(Debug, Clone)]
pub struct Mesh {
    params: MeshParams,
    tree: BlockTree,
    blocks: Vec<MeshBlock>,
    by_loc: HashMap<LogicalLocation, usize>,
    neighbors: Vec<Vec<NeighborBlock>>,
    /// `neighbors` by gid instead of location, with what else the nesting
    /// rule reads — rebuilt with it, once per generation.
    nesting: NestingTable,
    nranks: usize,
}

impl Mesh {
    /// Builds the uniform base-grid mesh described by `params`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn new(params: MeshParams) -> Result<Self, MeshError> {
        let tree = BlockTree::new(
            params.dim(),
            params.base_blocks(),
            params.max_levels() as i32 - 1,
        );
        let mut mesh = Self {
            params,
            tree,
            blocks: Vec::new(),
            by_loc: HashMap::new(),
            neighbors: Vec::new(),
            nesting: NestingTable::default(),
            nranks: 1,
        };
        mesh.rebuild_block_list();
        Ok(mesh)
    }

    /// Rebuilds a mesh whose leaves are exactly `leaves` (e.g. from a
    /// checkpoint): refinements are replayed from the base grid down to
    /// each target leaf.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NoSuchLeaf`] if `leaves` is not a consistent
    /// leaf set reachable by refinement (levels beyond `max_levels` also
    /// error).
    pub fn from_leaf_set(
        params: MeshParams,
        leaves: &[LogicalLocation],
    ) -> Result<Self, MeshError> {
        let mut mesh = Self::new(params)?;
        for target in leaves {
            // Walk down from the covering leaf, refining until the target
            // exists.
            loop {
                if mesh.tree.contains_leaf(target) {
                    break;
                }
                let covering = mesh
                    .tree
                    .find_covering_leaf(target)
                    .ok_or(MeshError::NoSuchLeaf(*target))?;
                mesh.tree.refine(&covering)?;
            }
        }
        // Verify exact reconstruction: every provided leaf exists and the
        // counts agree (no extra refinement was implied).
        if mesh.tree.num_leaves() != leaves.len() {
            return Err(MeshError::InvalidParameter {
                name: "leaves",
                reason: format!(
                    "leaf set of {} entries reconstructs to {} leaves",
                    leaves.len(),
                    mesh.tree.num_leaves()
                ),
            });
        }
        mesh.rebuild_block_list();
        Ok(mesh)
    }

    /// Mesh configuration.
    pub fn params(&self) -> &MeshParams {
        &self.params
    }

    /// The underlying refinement tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// Number of blocks (leaves).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks in Morton order.
    pub fn blocks(&self) -> &[MeshBlock] {
        &self.blocks
    }

    /// Block by global id.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn block(&self, gid: usize) -> &MeshBlock {
        &self.blocks[gid]
    }

    /// Global id of the block at `loc`, if it is a leaf.
    pub fn gid_at(&self, loc: &LogicalLocation) -> Option<usize> {
        self.by_loc.get(loc).copied()
    }

    /// Cached neighbor list of block `gid`.
    pub fn neighbors(&self, gid: usize) -> &[NeighborBlock] {
        &self.neighbors[gid]
    }

    /// Global ids of block `gid`'s neighbors, parallel to
    /// [`Mesh::neighbors`].
    pub fn neighbor_gids(&self, gid: usize) -> &[u32] {
        self.nesting.neighbors(gid)
    }

    /// Boundaries of the whole mesh (every block's neighbor count).
    pub fn num_boundaries(&self) -> usize {
        self.nesting.num_neighbors()
    }

    /// Reconciles one refinement flag per block (indexed by gid) into a
    /// regrid decision that keeps the mesh properly nested — the cached-table
    /// form of [`crate::refinement::enforce_proper_nesting`].
    ///
    /// # Panics
    ///
    /// Panics unless `flags` holds one flag per block.
    pub fn proper_nesting(&self, flags: &[AmrFlag]) -> RegridDecision {
        self.nesting
            .enforce(self.params.dim(), self.tree.max_level(), flags)
    }

    /// Number of ranks in the current decomposition.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Ghost-inclusive index shape shared by all blocks.
    pub fn index_shape(&self) -> IndexShape {
        self.params.index_shape()
    }

    /// Total interior cells over all blocks (the paper's "processed cells").
    pub fn total_interior_cells(&self) -> u64 {
        self.num_blocks() as u64 * self.params.index_shape().interior_count() as u64
    }

    /// Leaf counts per level.
    pub fn level_census(&self) -> Vec<usize> {
        self.tree.level_census()
    }

    /// Applies a nesting-enforced regrid decision, rebuilding the block list
    /// and neighbor cache, and reporting data provenance for every new block.
    ///
    /// The decision must already satisfy proper nesting (use
    /// [`crate::refinement::enforce_proper_nesting`]); structural errors from
    /// the tree are propagated.
    ///
    /// # Errors
    ///
    /// Returns the first tree error encountered (the mesh is left in a valid
    /// but possibly partially regridded state only on error; callers should
    /// treat errors as fatal).
    pub fn regrid(&mut self, decision: &RegridDecision) -> Result<RegridOutcome, MeshError> {
        let old_num_blocks = self.blocks.len();
        let old_gids: HashMap<LogicalLocation, usize> = self.by_loc.clone();

        let mut provenance: HashMap<LogicalLocation, RegridSource> = HashMap::new();
        for loc in &decision.refine {
            let parent_old_gid = old_gids[loc];
            for child in self.tree.refine(loc)? {
                provenance.insert(
                    child,
                    RegridSource::Refined {
                        parent_old_gid,
                        child_index: child.child_index(self.params.dim()),
                    },
                );
            }
        }
        for parent in &decision.derefine_parents {
            let child_old_gids: Vec<usize> = parent
                .children(self.params.dim())
                .iter()
                .map(|c| old_gids[c])
                .collect();
            self.tree.derefine(parent)?;
            provenance.insert(*parent, RegridSource::Derefined { child_old_gids });
        }

        self.rebuild_block_list();

        let sources = self
            .blocks
            .iter()
            .map(|b| {
                provenance
                    .get(&b.loc)
                    .cloned()
                    .unwrap_or_else(|| RegridSource::Unchanged {
                        old_gid: old_gids[&b.loc],
                    })
            })
            .collect();

        Ok(RegridOutcome {
            sources,
            num_refined: decision.refine.len(),
            num_derefined: decision.derefine_parents.len(),
            old_num_blocks,
        })
    }

    /// Recomputes the rank assignment over `nranks` ranks using current block
    /// costs, and stores it on the blocks.
    pub fn load_balance(&mut self, nranks: usize) -> RankAssignment {
        let costs: Vec<f64> = self.blocks.iter().map(|b| b.cost).collect();
        let assignment = partition_by_cost(&costs, nranks);
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.rank = assignment.rank_of(i);
        }
        self.nranks = nranks;
        assignment
    }

    /// Overrides the workload cost of block `gid` (defaults to 1.0).
    pub fn set_block_cost(&mut self, gid: usize, cost: f64) {
        self.blocks[gid].cost = cost;
    }

    fn rebuild_block_list(&mut self) {
        let params = &self.params;
        let base = params.base_blocks();
        let block_cells = params.block_size();
        self.blocks = self
            .tree
            .leaves()
            .enumerate()
            .map(|(gid, loc)| MeshBlock {
                gid,
                loc,
                geom: BlockGeometry::from_location(&loc, base, block_cells),
                cost: 1.0,
                rank: 0,
            })
            .collect();
        self.by_loc = self.blocks.iter().map(|b| (b.loc, b.gid)).collect();
        self.neighbors = self
            .blocks
            .iter()
            .map(|b| find_neighbors(&self.tree, &b.loc))
            .collect();
        let locs: Vec<LogicalLocation> = self.blocks.iter().map(|b| b.loc).collect();
        self.nesting = NestingTable::build(&locs, self.neighbors.iter(), |loc| self.by_loc[loc]);
        // Preserve the previous decomposition width until re-balanced.
        let nranks = self.nranks;
        let costs: Vec<f64> = self.blocks.iter().map(|b| b.cost).collect();
        let assignment = partition_by_cost(&costs, nranks);
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.rank = assignment.rank_of(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refinement::{enforce_proper_nesting, AmrFlag};

    fn mesh_2d() -> Mesh {
        let params = MeshParams::builder()
            .dim(2)
            .mesh_cells(64)
            .block_cells(16)
            .max_levels(3)
            .build()
            .unwrap();
        Mesh::new(params).unwrap()
    }

    #[test]
    fn base_mesh_block_count() {
        let m = mesh_2d();
        assert_eq!(m.num_blocks(), 16);
        assert_eq!(m.total_interior_cells(), 16 * 256);
    }

    #[test]
    fn block_costs_change_the_partition() {
        let mut m = mesh_2d();
        let loc = m.block(0).loc();
        let flags = [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(m.tree(), &flags);
        m.regrid(&d).unwrap();
        let uniform = m.load_balance(4).blocks_per_rank();
        for gid in 0..m.num_blocks() {
            let cost = 4.0f64.powi(m.block(gid).level());
            m.set_block_cost(gid, cost);
        }
        let weighted = m.load_balance(4).blocks_per_rank();
        assert_ne!(uniform, weighted, "costs must influence the split");
        // The rank holding the (expensive) refined blocks gets fewer blocks.
        assert!(weighted.iter().min() < uniform.iter().min());
    }

    #[test]
    fn builder_rejects_indivisible() {
        let err = MeshParams::builder()
            .dim(2)
            .mesh_cells(100)
            .block_cells(16)
            .max_levels(2)
            .build()
            .unwrap_err();
        assert!(matches!(err, MeshError::IndivisibleMesh { .. }));
    }

    #[test]
    fn builder_rejects_zero_levels() {
        let err = MeshParams::builder().max_levels(0).build().unwrap_err();
        assert!(matches!(err, MeshError::InvalidParameter { .. }));
    }

    /// The finest lattice must fit the Morton key: 2^40 blocks per
    /// dimension, reached from one base block at 41 levels.
    #[test]
    fn builder_rejects_levels_beyond_the_morton_key() {
        let levels = |n: u32, mesh_cells: usize| {
            let mut b = MeshParams::builder();
            b.dim(1).mesh_cells(mesh_cells).block_cells(8).max_levels(n);
            b.build().map(|_| ())
        };
        assert_eq!(levels(41, 8), Ok(()));
        for (n, mesh_cells) in [(42, 8), (41, 16), (u32::MAX, 8)] {
            let err = levels(n, mesh_cells).unwrap_err();
            assert!(matches!(
                err,
                MeshError::InvalidParameter {
                    name: "max_levels",
                    ..
                }
            ));
        }
    }

    #[test]
    fn gids_follow_morton_order() {
        let m = mesh_2d();
        for (i, b) in m.blocks().iter().enumerate() {
            assert_eq!(b.gid(), i);
            assert_eq!(m.gid_at(&b.loc()), Some(i));
        }
    }

    #[test]
    fn regrid_refine_tracks_provenance() {
        let mut m = mesh_2d();
        let loc = m.block(5).loc();
        let flags: std::collections::BTreeMap<_, _> =
            [(loc, AmrFlag::Refine)].into_iter().collect();
        let decision = enforce_proper_nesting(m.tree(), &flags);
        let outcome = m.regrid(&decision).unwrap();
        assert_eq!(m.num_blocks(), 19);
        assert_eq!(outcome.old_num_blocks, 16);
        assert_eq!(outcome.num_refined, 1);
        let refined_children = outcome
            .sources
            .iter()
            .filter(|s| matches!(s, RegridSource::Refined { .. }))
            .count();
        assert_eq!(refined_children, 4);
        let unchanged = outcome
            .sources
            .iter()
            .filter(|s| matches!(s, RegridSource::Unchanged { .. }))
            .count();
        assert_eq!(unchanged, 15);
    }

    #[test]
    fn regrid_derefine_tracks_children() {
        let mut m = mesh_2d();
        let loc = m.block(0).loc();
        let flags: std::collections::BTreeMap<_, _> =
            [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(m.tree(), &flags);
        m.regrid(&d).unwrap();

        // Now merge them back.
        let flags: std::collections::BTreeMap<_, _> = loc
            .children(2)
            .into_iter()
            .map(|c| (c, AmrFlag::Derefine))
            .collect();
        let d = enforce_proper_nesting(m.tree(), &flags);
        let outcome = m.regrid(&d).unwrap();
        assert_eq!(m.num_blocks(), 16);
        assert_eq!(outcome.num_derefined, 1);
        let merged: Vec<_> = outcome
            .sources
            .iter()
            .filter_map(|s| match s {
                RegridSource::Derefined { child_old_gids } => Some(child_old_gids.len()),
                _ => None,
            })
            .collect();
        assert_eq!(merged, vec![4]);
    }

    #[test]
    fn neighbor_cache_consistent_after_regrid() {
        let mut m = mesh_2d();
        let loc = m.block(3).loc();
        let flags: std::collections::BTreeMap<_, _> =
            [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(m.tree(), &flags);
        m.regrid(&d).unwrap();
        for b in m.blocks() {
            let fresh = find_neighbors(m.tree(), &b.loc());
            assert_eq!(m.neighbors(b.gid()), fresh.as_slice());
        }
    }

    #[test]
    fn load_balance_sets_ranks() {
        let mut m = mesh_2d();
        let a = m.load_balance(4);
        assert_eq!(a.blocks_per_rank(), vec![4, 4, 4, 4]);
        for b in m.blocks() {
            assert!(b.rank() < 4);
        }
        assert_eq!(m.nranks(), 4);
    }

    #[test]
    fn rank_width_preserved_across_regrid() {
        let mut m = mesh_2d();
        m.load_balance(4);
        let loc = m.block(0).loc();
        let flags: std::collections::BTreeMap<_, _> =
            [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(m.tree(), &flags);
        m.regrid(&d).unwrap();
        assert_eq!(m.nranks(), 4);
        assert!(m.blocks().iter().all(|b| b.rank() < 4));
    }

    #[test]
    fn geometry_matches_location() {
        let m = mesh_2d();
        let b = m.block(0);
        assert!((b.geometry().xmin()[0] - 0.0).abs() < 1e-15);
        assert!((b.geometry().dx()[0] - 1.0 / 64.0).abs() < 1e-15);
    }

    #[test]
    fn levels_ranks_and_level_boundaries_after_a_refine() {
        let mut m = mesh_2d();
        let level_boundaries = |m: &Mesh| -> usize {
            (0..m.num_blocks())
                .map(|g| m.neighbors(g).iter().filter(|n| n.level_diff != 0).count())
                .sum()
        };
        assert_eq!(level_boundaries(&m), 0, "a uniform mesh has none");
        let loc = m.block(5).loc();
        let flags: std::collections::BTreeMap<_, _> =
            [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(m.tree(), &flags);
        m.regrid(&d).unwrap();
        m.load_balance(4);
        assert_eq!(m.level_census(), vec![15, 4, 0]);
        // Each rank owns one contiguous run of the Morton-ordered blocks.
        let mut runs: Vec<usize> = m.blocks().iter().map(|b| b.rank()).collect();
        runs.dedup();
        assert_eq!(runs, [0, 1, 2, 3]);
        assert!(level_boundaries(&m) > 0, "fine-coarse connections exist");
    }

    #[test]
    fn from_leaf_set_roundtrip() {
        let mut m = mesh_2d();
        let loc = m.block(7).loc();
        let flags: std::collections::BTreeMap<_, _> =
            [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(m.tree(), &flags);
        m.regrid(&d).unwrap();
        let leaves: Vec<_> = m.blocks().iter().map(|b| b.loc()).collect();
        let rebuilt = Mesh::from_leaf_set(m.params().clone(), &leaves).unwrap();
        let rebuilt_leaves: Vec<_> = rebuilt.blocks().iter().map(|b| b.loc()).collect();
        assert_eq!(leaves, rebuilt_leaves);
    }

    #[test]
    fn from_leaf_set_rejects_inconsistent_sets() {
        let m = mesh_2d();
        // A leaf set missing most of the domain.
        let partial = vec![m.block(0).loc()];
        assert!(Mesh::from_leaf_set(m.params().clone(), &partial).is_err());
    }

    #[test]
    fn three_d_defaults_build() {
        // The paper's headline configuration: 128^3 mesh, 16^3 blocks, 3 levels.
        let params = MeshParams::builder().build().unwrap();
        let m = Mesh::new(params).unwrap();
        assert_eq!(m.num_blocks(), 512);
        assert_eq!(m.index_shape().nghost(), 4);
    }
}
