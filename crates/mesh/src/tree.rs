//! The block refinement tree: a binary tree (1D), quadtree (2D), or octree
//! (3D) whose leaves tile the computational domain without overlap.
//!
//! Parthenon represents the mesh hierarchy as an explicit tree that is
//! rebuilt whenever refinement or derefinement occurs; any spatial location
//! is covered by exactly one leaf `MeshBlock`. This implementation stores the
//! leaf set directly (a "hashed octree"), keyed by Morton order so leaves are
//! always iterated along the load-balancing space-filling curve.

use std::collections::{BTreeMap, HashMap};

use crate::error::MeshError;
use crate::logical::LogicalLocation;
use crate::morton::MortonKey;

/// The leaf set of the refinement tree.
///
/// Invariants (checked by [`BlockTree::validate`] and maintained by
/// `refine`/`derefine`):
///
/// 1. **Tiling** — leaves cover the domain exactly once (no gaps, no overlap).
/// 2. **Level bounds** — all leaves are at levels `0..=max_level`.
///
/// The 2:1 proper-nesting rule is enforced separately by
/// [`crate::refinement::enforce_proper_nesting`] at regrid time.
///
/// ```
/// use vibe_mesh::BlockTree;
///
/// let mut tree = BlockTree::new(2, [2, 2, 1], 2);
/// assert_eq!(tree.num_leaves(), 4);
/// let first = tree.leaves().next().unwrap();
/// tree.refine(&first).unwrap();
/// assert_eq!(tree.num_leaves(), 7); // -1 leaf +4 children
/// ```
#[derive(Debug, Clone)]
pub struct BlockTree {
    dim: usize,
    base_blocks: [i64; 3],
    max_level: i32,
    leaves: BTreeMap<MortonKey, LogicalLocation>,
    by_loc: HashMap<LogicalLocation, MortonKey>,
}

impl BlockTree {
    /// Builds a tree whose leaves are the uniform level-0 base grid of
    /// `base_blocks` blocks per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not 1–3, an active dimension has no blocks, an
    /// inactive dimension has more than one block, or `max_level < 0`.
    pub fn new(dim: usize, base_blocks: [i64; 3], max_level: i32) -> Self {
        assert!((1..=3).contains(&dim), "dim must be 1, 2, or 3");
        assert!(max_level >= 0, "max_level must be non-negative");
        for (d, &bb) in base_blocks.iter().enumerate() {
            if d < dim {
                assert!(bb > 0, "active dimension {d} has no blocks");
            } else {
                assert_eq!(bb, 1, "inactive dimension {d} must have 1 block");
            }
        }
        let mut tree = Self {
            dim,
            base_blocks,
            max_level,
            leaves: BTreeMap::new(),
            by_loc: HashMap::new(),
        };
        for lz in 0..base_blocks[2] {
            for ly in 0..base_blocks[1] {
                for lx in 0..base_blocks[0] {
                    tree.insert_leaf(LogicalLocation::new(0, lx, ly, lz));
                }
            }
        }
        tree
    }

    /// Number of active spatial dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Blocks per dimension in the level-0 base grid.
    pub fn base_blocks(&self) -> [i64; 3] {
        self.base_blocks
    }

    /// Maximum allowed refinement level.
    pub fn max_level(&self) -> i32 {
        self.max_level
    }

    /// Number of leaves (mesh blocks).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Leaves in Morton (load-balancing) order.
    pub fn leaves(&self) -> impl Iterator<Item = LogicalLocation> + '_ {
        self.leaves.values().copied()
    }

    /// Lattice extent (blocks per dimension) at `level`.
    pub fn extent_at(&self, level: i32) -> [i64; 3] {
        let mut e = [1i64; 3];
        for (d, ed) in e.iter_mut().enumerate().take(self.dim) {
            *ed = self.base_blocks[d] << level;
        }
        e
    }

    /// `true` if a leaf exists exactly at `loc`.
    pub fn contains_leaf(&self, loc: &LogicalLocation) -> bool {
        self.by_loc.contains_key(loc)
    }

    /// Finds the unique leaf covering `loc`'s region, if the region is
    /// covered by a leaf at `loc`'s level or coarser. Returns `None` when the
    /// region is subdivided into finer leaves or lies outside the domain.
    pub fn find_covering_leaf(&self, loc: &LogicalLocation) -> Option<LogicalLocation> {
        let mut cur = *loc;
        loop {
            if self.by_loc.contains_key(&cur) {
                return Some(cur);
            }
            if cur.level() == 0 {
                return None;
            }
            cur = cur.parent();
        }
    }

    /// Counts leaves at each level, indexed by level.
    pub fn level_census(&self) -> Vec<usize> {
        let mut census = vec![0usize; (self.max_level + 1) as usize];
        for loc in self.leaves.values() {
            census[loc.level() as usize] += 1;
        }
        census
    }

    /// Finest level currently present among the leaves.
    pub fn current_max_level(&self) -> i32 {
        self.leaves
            .values()
            .map(LogicalLocation::level)
            .max()
            .unwrap_or(0)
    }

    /// Splits leaf `loc` into its `2^dim` children.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NoSuchLeaf`] if `loc` is not a leaf and
    /// [`MeshError::MaxLevelExceeded`] if the children would exceed
    /// `max_level`.
    pub fn refine(&mut self, loc: &LogicalLocation) -> Result<Vec<LogicalLocation>, MeshError> {
        if !self.by_loc.contains_key(loc) {
            return Err(MeshError::NoSuchLeaf(*loc));
        }
        if loc.level() + 1 > self.max_level {
            return Err(MeshError::MaxLevelExceeded {
                requested: loc.level() + 1,
                max: self.max_level,
            });
        }
        self.remove_leaf(loc);
        let children = loc.children(self.dim);
        for child in &children {
            self.insert_leaf(*child);
        }
        Ok(children)
    }

    /// Merges the children of `parent` back into a single leaf.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NonLeafChildren`] unless every child of `parent`
    /// is currently a leaf.
    pub fn derefine(&mut self, parent: &LogicalLocation) -> Result<(), MeshError> {
        let children = parent.children(self.dim);
        if !children.iter().all(|c| self.by_loc.contains_key(c)) {
            return Err(MeshError::NonLeafChildren(*parent));
        }
        for child in &children {
            self.remove_leaf(child);
        }
        self.insert_leaf(*parent);
        Ok(())
    }

    /// Checks the tiling and level-bound invariants, returning a description
    /// of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        // Level bounds and coordinate bounds.
        for loc in self.leaves.values() {
            if loc.level() < 0 || loc.level() > self.max_level {
                return Err(format!("leaf {loc} outside level bounds"));
            }
            let ext = self.extent_at(loc.level());
            for d in 0..3 {
                if loc.lx_d(d) < 0 || loc.lx_d(d) >= ext[d] {
                    return Err(format!("leaf {loc} outside lattice extent {ext:?}"));
                }
            }
        }
        // Tiling: total covered volume at the finest level must equal the
        // domain volume, and no leaf may be an ancestor of another.
        let finest = self.current_max_level();
        let mut covered: u128 = 0;
        for loc in self.leaves.values() {
            let shift = (finest - loc.level()) as u32;
            covered += 1u128 << (shift * self.dim as u32);
        }
        let domain: u128 = (0..self.dim)
            .map(|d| (self.base_blocks[d] << finest) as u128)
            .product();
        if covered != domain {
            return Err(format!(
                "covered volume {covered} != domain volume {domain} at level {finest}"
            ));
        }
        for loc in self.leaves.values() {
            let mut cur = *loc;
            while cur.level() > 0 {
                cur = cur.parent();
                if self.by_loc.contains_key(&cur) {
                    return Err(format!("leaf {cur} overlaps descendant leaf {loc}"));
                }
            }
        }
        Ok(())
    }

    fn morton(&self, loc: &LogicalLocation) -> MortonKey {
        MortonKey::new(loc, self.max_level)
    }

    fn insert_leaf(&mut self, loc: LogicalLocation) {
        let key = self.morton(&loc);
        self.leaves.insert(key, loc);
        self.by_loc.insert(loc, key);
    }

    fn remove_leaf(&mut self, loc: &LogicalLocation) {
        if let Some(key) = self.by_loc.remove(loc) {
            self.leaves.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree2d() -> BlockTree {
        BlockTree::new(2, [4, 4, 1], 3)
    }

    #[test]
    fn base_grid_tiles() {
        let t = tree2d();
        assert_eq!(t.num_leaves(), 16);
        assert!(t.validate().is_ok());
        assert_eq!(t.level_census(), vec![16, 0, 0, 0]);
    }

    #[test]
    fn refine_replaces_leaf_with_children() {
        let mut t = tree2d();
        let loc = LogicalLocation::new(0, 1, 1, 0);
        let children = t.refine(&loc).unwrap();
        assert_eq!(children.len(), 4);
        assert_eq!(t.num_leaves(), 19);
        assert!(!t.contains_leaf(&loc));
        assert!(children.iter().all(|c| t.contains_leaf(c)));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn derefine_restores_parent() {
        let mut t = tree2d();
        let loc = LogicalLocation::new(0, 2, 2, 0);
        t.refine(&loc).unwrap();
        t.derefine(&loc).unwrap();
        assert_eq!(t.num_leaves(), 16);
        assert!(t.contains_leaf(&loc));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn refine_nonleaf_errors() {
        let mut t = tree2d();
        let loc = LogicalLocation::new(0, 0, 0, 0);
        t.refine(&loc).unwrap();
        assert_eq!(t.refine(&loc), Err(MeshError::NoSuchLeaf(loc)));
    }

    #[test]
    fn refine_beyond_max_level_errors() {
        let mut t = BlockTree::new(2, [2, 2, 1], 1);
        let loc = LogicalLocation::new(0, 0, 0, 0);
        let children = t.refine(&loc).unwrap();
        let err = t.refine(&children[0]).unwrap_err();
        assert!(matches!(err, MeshError::MaxLevelExceeded { .. }));
    }

    #[test]
    fn derefine_partial_children_errors() {
        let mut t = tree2d();
        let loc = LogicalLocation::new(0, 0, 0, 0);
        let children = t.refine(&loc).unwrap();
        t.refine(&children[0]).unwrap(); // one child now subdivided
        assert_eq!(t.derefine(&loc), Err(MeshError::NonLeafChildren(loc)));
    }

    #[test]
    fn leaves_iterate_in_morton_order() {
        let mut t = tree2d();
        t.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        let keys: Vec<_> = t
            .leaves()
            .map(|l| MortonKey::new(&l, t.max_level()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn find_covering_leaf_walks_up() {
        let mut t = tree2d();
        let fine = LogicalLocation::new(2, 0, 0, 0);
        assert_eq!(
            t.find_covering_leaf(&fine),
            Some(LogicalLocation::new(0, 0, 0, 0))
        );
        t.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        assert_eq!(
            t.find_covering_leaf(&fine),
            Some(LogicalLocation::new(1, 0, 0, 0))
        );
    }

    #[test]
    fn find_covering_leaf_none_when_subdivided() {
        let mut t = tree2d();
        let base = LogicalLocation::new(0, 0, 0, 0);
        t.refine(&base).unwrap();
        assert_eq!(t.find_covering_leaf(&base), None);
    }

    #[test]
    fn census_tracks_levels() {
        let mut t = tree2d();
        let c = t.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        t.refine(&c[0]).unwrap();
        assert_eq!(t.level_census(), vec![15, 3, 4, 0]);
        assert_eq!(t.current_max_level(), 2);
    }

    #[test]
    fn three_d_octree_refines_to_eight() {
        let mut t = BlockTree::new(3, [2, 2, 2], 2);
        assert_eq!(t.num_leaves(), 8);
        t.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        assert_eq!(t.num_leaves(), 15);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn one_d_binary_tree() {
        let mut t = BlockTree::new(1, [8, 1, 1], 2);
        assert_eq!(t.num_leaves(), 8);
        t.refine(&LogicalLocation::new(0, 3, 0, 0)).unwrap();
        assert_eq!(t.num_leaves(), 9);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn non_square_base_grid_validates() {
        // The paper's Fig. 2 shows a 5x4 base layout.
        let t = BlockTree::new(2, [5, 4, 1], 2);
        assert_eq!(t.num_leaves(), 20);
        assert!(t.validate().is_ok());
    }
}
