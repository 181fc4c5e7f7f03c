//! Neighbor discovery between mesh-block leaves.
//!
//! Neighbor relationships in a tree-based AMR mesh exist only between leaves
//! (there are no spatial parent-child relations), and the 2:1 rule guarantees
//! neighboring leaves differ by at most one level. A block's neighbors are
//! found across its faces, edges, and corners; fine neighbors contribute
//! multiple blocks per face/edge.

use crate::logical::LogicalLocation;
use crate::tree::BlockTree;

/// Direction from a block to one of its (up to 26 in 3D) neighbor regions.
///
/// Each component is −1, 0, or +1; the zero offset is not a valid neighbor
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeighborOffset {
    off: [i64; 3],
}

impl NeighborOffset {
    /// Creates an offset; components must be in `{-1, 0, 1}` and not all zero.
    ///
    /// # Panics
    ///
    /// Panics on invalid components or the all-zero offset.
    pub fn new(ox: i64, oy: i64, oz: i64) -> Self {
        assert!(
            [ox, oy, oz].iter().all(|o| (-1..=1).contains(o)),
            "offset components must be -1, 0, or 1"
        );
        assert!(
            (ox, oy, oz) != (0, 0, 0),
            "the zero offset is not a neighbor direction"
        );
        Self { off: [ox, oy, oz] }
    }

    /// The offset components.
    pub fn components(&self) -> [i64; 3] {
        self.off
    }

    /// Number of non-zero components (1 = face, 2 = edge, 3 = corner).
    pub fn order(&self) -> usize {
        self.off.iter().filter(|&&o| o != 0).count()
    }

    /// Classifies the connection this offset represents.
    pub fn kind(&self) -> NeighborKind {
        match self.order() {
            1 => NeighborKind::Face,
            2 => NeighborKind::Edge,
            _ => NeighborKind::Corner,
        }
    }

    /// All valid offsets for a `dim`-dimensional mesh, faces first.
    pub fn all(dim: usize) -> Vec<Self> {
        let range = |active: bool| if active { -1..=1 } else { 0..=0 };
        let mut out = Vec::new();
        for oz in range(dim >= 3) {
            for oy in range(dim >= 2) {
                for ox in -1..=1 {
                    if (ox, oy, oz) != (0, 0, 0) {
                        out.push(Self { off: [ox, oy, oz] });
                    }
                }
            }
        }
        out.sort_by_key(|o| o.order());
        out
    }
}

/// Topological class of a neighbor connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NeighborKind {
    /// Shares a full face (2D: an edge; 1D: a point).
    Face,
    /// Shares an edge (3D only) or a corner point in 2D.
    Edge,
    /// Shares a corner point (3D).
    Corner,
}

/// One neighboring leaf of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeighborBlock {
    /// The neighbor leaf's location.
    pub loc: LogicalLocation,
    /// Direction from the source block toward the neighbor.
    pub offset: NeighborOffset,
    /// Neighbor level minus source level (−1, 0, or +1 under 2:1 nesting).
    pub level_diff: i32,
}

impl NeighborBlock {
    /// `true` if the neighbor is finer than the source block.
    pub fn is_finer(&self) -> bool {
        self.level_diff > 0
    }
}

/// Finds all leaf neighbors of leaf `loc` in `tree`.
///
/// For each face/edge/corner direction, the neighbor region is resolved to
/// the unique same-level or coarser leaf covering it, or to the set of finer
/// leaves adjacent to the shared boundary. The domain is periodic: a
/// direction across its edge wraps to the far side.
///
/// The result is deterministic: directions are scanned faces-first and fine
/// neighbors are emitted in child order.
///
/// # Panics
///
/// Panics if `loc` is not a leaf of `tree`.
pub fn find_neighbors(tree: &BlockTree, loc: &LogicalLocation) -> Vec<NeighborBlock> {
    assert!(
        tree.contains_leaf(loc),
        "find_neighbors: {loc} is not a leaf"
    );
    let dim = tree.dim();
    let extent = tree.extent_at(loc.level());
    let mut out = Vec::new();

    for offset in NeighborOffset::all(dim) {
        let candidate = loc.offset(offset.components(), extent);
        if tree.contains_leaf(&candidate) {
            out.push(NeighborBlock {
                loc: candidate,
                offset,
                level_diff: 0,
            });
            continue;
        }
        // Coarser neighbor: an ancestor of the candidate is a leaf. Avoid
        // emitting the same coarse leaf once per sub-region by only accepting
        // it here; duplicates are filtered below.
        if let Some(coarse) = tree.find_covering_leaf(&candidate) {
            out.push(NeighborBlock {
                loc: coarse,
                offset,
                level_diff: coarse.level() - loc.level(),
            });
            continue;
        }
        // Finer neighbors: children of the candidate facing the source block.
        if candidate.level() < tree.max_level() {
            for child in candidate.children(dim) {
                if child_faces_source(&child, &offset, dim) && tree.contains_leaf(&child) {
                    out.push(NeighborBlock {
                        loc: child,
                        offset,
                        level_diff: 1,
                    });
                }
            }
        }
    }

    // A coarse neighbor can be reached through several offsets (e.g. a face
    // and an adjoining edge); keep the first (lowest-order) occurrence. Same
    // or finer neighbors stay distinct per offset: in a small periodic
    // domain one block legitimately borders another through several offsets
    // (both ±d with two blocks along a dimension, or itself with one), and
    // each offset fills a different ghost region of the receiver.
    let mut seen = std::collections::HashSet::new();
    out.retain(|n| {
        let key = (n.loc, (n.level_diff >= 0).then_some(n.offset));
        seen.insert(key)
    });
    out
}

/// `true` if `child` (a child of the neighbor candidate) touches the boundary
/// shared with the source block lying in direction `offset` from the source.
fn child_faces_source(child: &LogicalLocation, offset: &NeighborOffset, dim: usize) -> bool {
    let off = offset.components();
    let idx = child.child_index(dim);
    (0..dim).all(|d| {
        let bit = (idx >> d) & 1;
        match off[d] {
            // Neighbor is on our +d side: its facing children are on its low side.
            1 => bit == 0,
            // Neighbor is on our -d side: its facing children are on its high side.
            -1 => bit == 1,
            _ => true,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BlockTree;

    #[test]
    fn offset_enumeration_counts() {
        assert_eq!(NeighborOffset::all(1).len(), 2);
        assert_eq!(NeighborOffset::all(2).len(), 8);
        assert_eq!(NeighborOffset::all(3).len(), 26);
    }

    #[test]
    fn offset_kinds() {
        assert_eq!(NeighborOffset::new(1, 0, 0).kind(), NeighborKind::Face);
        assert_eq!(NeighborOffset::new(1, -1, 0).kind(), NeighborKind::Edge);
        assert_eq!(NeighborOffset::new(1, 1, 1).kind(), NeighborKind::Corner);
    }

    #[test]
    #[should_panic(expected = "zero offset")]
    fn zero_offset_rejected() {
        NeighborOffset::new(0, 0, 0);
    }

    #[test]
    fn uniform_periodic_2d_has_eight_neighbors() {
        let t = BlockTree::new(2, [4, 4, 1], 2);
        let n = find_neighbors(&t, &LogicalLocation::new(0, 0, 0, 0));
        assert_eq!(n.len(), 8);
        assert!(n.iter().all(|nb| nb.level_diff == 0));
    }

    #[test]
    fn uniform_periodic_3d_has_26_neighbors() {
        let t = BlockTree::new(3, [4, 4, 4], 2);
        let n = find_neighbors(&t, &LogicalLocation::new(0, 1, 1, 1));
        assert_eq!(n.len(), 26);
    }

    #[test]
    fn fine_neighbors_across_face_2d() {
        let mut t = BlockTree::new(2, [4, 4, 1], 2);
        t.refine(&LogicalLocation::new(0, 1, 0, 0)).unwrap();
        let n = find_neighbors(&t, &LogicalLocation::new(0, 0, 0, 0));
        // Across the +x face there are now 2 fine neighbors.
        let fine: Vec<_> = n
            .iter()
            .filter(|nb| nb.is_finer() && nb.offset.components() == [1, 0, 0])
            .collect();
        assert_eq!(fine.len(), 2);
        for f in fine {
            assert_eq!(f.loc.lx_d(0), 2, "facing children sit on the low-x side");
        }
    }

    #[test]
    fn coarse_neighbor_seen_from_fine_block() {
        let mut t = BlockTree::new(2, [4, 4, 1], 2);
        t.refine(&LogicalLocation::new(0, 1, 0, 0)).unwrap();
        // Fine block at level 1 bordering the coarse level-0 block at x=0.
        let fine = LogicalLocation::new(1, 2, 1, 0);
        let n = find_neighbors(&t, &fine);
        let coarse: Vec<_> = n.iter().filter(|nb| nb.level_diff < 0).collect();
        assert!(!coarse.is_empty());
        assert!(coarse
            .iter()
            .any(|nb| nb.loc == LogicalLocation::new(0, 0, 0, 0)));
    }

    #[test]
    fn coarse_neighbor_not_duplicated() {
        let mut t = BlockTree::new(2, [4, 4, 1], 2);
        t.refine(&LogicalLocation::new(0, 1, 1, 0)).unwrap();
        let fine = LogicalLocation::new(1, 2, 2, 0);
        let n = find_neighbors(&t, &fine);
        let mut locs: Vec<_> = n.iter().map(|nb| nb.loc).collect();
        let before = locs.len();
        locs.dedup();
        locs.sort();
        locs.dedup();
        assert_eq!(locs.len(), before, "each neighbor leaf appears once");
    }

    #[test]
    fn symmetric_neighbor_relation_same_level() {
        let t = BlockTree::new(2, [4, 4, 1], 2);
        let a = LogicalLocation::new(0, 1, 1, 0);
        let b = LogicalLocation::new(0, 2, 1, 0);
        let a_sees_b = find_neighbors(&t, &a).iter().any(|nb| nb.loc == b);
        let b_sees_a = find_neighbors(&t, &b).iter().any(|nb| nb.loc == a);
        assert!(a_sees_b && b_sees_a);
    }

    #[test]
    fn fine_coarse_relation_is_mutual() {
        let mut t = BlockTree::new(3, [2, 2, 2], 2);
        t.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        let coarse = LogicalLocation::new(0, 1, 0, 0);
        let fine = LogicalLocation::new(1, 1, 0, 0); // high-x child touching coarse
        let coarse_sees_fine = find_neighbors(&t, &coarse).iter().any(|nb| nb.loc == fine);
        let fine_sees_coarse = find_neighbors(&t, &fine).iter().any(|nb| nb.loc == coarse);
        assert!(coarse_sees_fine, "coarse block lists fine neighbor");
        assert!(fine_sees_coarse, "fine block lists coarse neighbor");
    }

    #[test]
    fn one_d_neighbors() {
        let t = BlockTree::new(1, [4, 1, 1], 1);
        let n = find_neighbors(&t, &LogicalLocation::new(0, 1, 0, 0));
        assert_eq!(n.len(), 2);
    }

    /// Two periodic blocks along a dimension: the same block is the
    /// neighbor through BOTH ±d offsets, and both boundaries must survive
    /// — dropping one leaves the corresponding ghost band permanently
    /// stale (it silently broke conservation for wide-stencil packages).
    #[test]
    fn periodic_two_block_wrap_keeps_both_sides() {
        let t = BlockTree::new(1, [2, 1, 1], 1);
        let n = find_neighbors(&t, &LogicalLocation::new(0, 0, 0, 0));
        assert_eq!(n.len(), 2, "both wrap boundaries present");
        let mut offs: Vec<i64> = n.iter().map(|nb| nb.offset.components()[0]).collect();
        offs.sort_unstable();
        assert_eq!(offs, vec![-1, 1]);
        assert!(n
            .iter()
            .all(|nb| nb.loc == LogicalLocation::new(0, 1, 0, 0)));
    }

    /// A single periodic block neighbors itself through both ±d offsets.
    #[test]
    fn periodic_single_block_is_its_own_neighbor_both_sides() {
        let t = BlockTree::new(1, [1, 1, 1], 1);
        let loc = LogicalLocation::new(0, 0, 0, 0);
        let n = find_neighbors(&t, &loc);
        assert_eq!(n.len(), 2, "self-wrap on both sides");
        assert!(n.iter().all(|nb| nb.loc == loc));
    }

    /// A coarse neighbor reachable through a face and an adjoining edge is
    /// still emitted once (the pre-existing dedup contract).
    #[test]
    fn coarse_neighbor_still_deduplicated_across_offsets() {
        let mut t = BlockTree::new(2, [2, 2, 1], 2);
        t.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        // From the top-right fine child, the coarse leaf to its right is
        // reached through both the +x face and the (+x,−y) edge.
        let fine = LogicalLocation::new(1, 1, 1, 0);
        let coarse = LogicalLocation::new(0, 1, 0, 0);
        let hits = find_neighbors(&t, &fine)
            .iter()
            .filter(|nb| nb.loc == coarse)
            .count();
        assert_eq!(hits, 1, "coarse leaf listed once");
    }
}
