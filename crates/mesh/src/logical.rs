//! Logical locations of mesh blocks within the refinement tree.

use std::fmt;

/// Position of a block in the logical refinement hierarchy.
///
/// A block at refinement `level` (0 = base grid) occupies integer coordinates
/// `(lx1, lx2, lx3)` within a level-`level` lattice whose extent per dimension
/// is `base_blocks << level`, where `base_blocks` is the number of blocks in
/// the base grid along that dimension.
///
/// Parent/child arithmetic follows the usual octree convention: the parent of
/// `(level, l)` is `(level - 1, l >> 1)` and the children of `(level, l)` are
/// `(level + 1, 2l + d)` with `d ∈ {0, 1}` per dimension.
///
/// ```
/// use vibe_mesh::LogicalLocation;
///
/// let loc = LogicalLocation::new(1, 2, 3, 0);
/// assert_eq!(loc.parent(), LogicalLocation::new(0, 1, 1, 0));
/// assert!(loc.parent().children(3).contains(&loc));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalLocation {
    level: i32,
    lx: [i64; 3],
}

impl LogicalLocation {
    /// Creates a location at `level` with lattice coordinates `(lx1, lx2, lx3)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is negative or any coordinate is negative.
    pub fn new(level: i32, lx1: i64, lx2: i64, lx3: i64) -> Self {
        assert!(level >= 0, "level must be non-negative, got {level}");
        assert!(
            lx1 >= 0 && lx2 >= 0 && lx3 >= 0,
            "coordinates must be non-negative, got ({lx1}, {lx2}, {lx3})"
        );
        Self {
            level,
            lx: [lx1, lx2, lx3],
        }
    }

    /// Refinement level (0 = base grid).
    pub fn level(&self) -> i32 {
        self.level
    }

    /// Lattice coordinates at this location's level.
    pub fn lx(&self) -> [i64; 3] {
        self.lx
    }

    /// Lattice coordinate along dimension `d` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `d >= 3`.
    pub fn lx_d(&self, d: usize) -> i64 {
        self.lx[d]
    }

    /// The parent location, one level coarser.
    ///
    /// # Panics
    ///
    /// Panics if this location is already at level 0.
    pub fn parent(&self) -> Self {
        assert!(self.level > 0, "level-0 location has no parent");
        Self {
            level: self.level - 1,
            lx: [self.lx[0] >> 1, self.lx[1] >> 1, self.lx[2] >> 1],
        }
    }

    /// All child locations one level finer.
    ///
    /// For `dim`-dimensional meshes this returns `2^dim` children; unused
    /// dimensions keep their coordinate unchanged.
    pub fn children(&self, dim: usize) -> Vec<Self> {
        assert!((1..=3).contains(&dim), "dim must be 1, 2, or 3");
        let n = 1usize << dim;
        let mut out = Vec::with_capacity(n);
        for bits in 0..n {
            let mut lx = [0i64; 3];
            for (d, l) in lx.iter_mut().enumerate() {
                *l = if d < dim {
                    2 * self.lx[d] + ((bits >> d) & 1) as i64
                } else {
                    self.lx[d]
                };
            }
            out.push(Self {
                level: self.level + 1,
                lx,
            });
        }
        out
    }

    /// Index of this location among its parent's children (0..2^dim).
    pub fn child_index(&self, dim: usize) -> usize {
        let mut idx = 0usize;
        for d in 0..dim {
            idx |= ((self.lx[d] & 1) as usize) << d;
        }
        idx
    }

    /// `true` if `other` is a (possibly indirect) descendant of `self`.
    pub fn contains(&self, other: &Self) -> bool {
        if other.level < self.level {
            return false;
        }
        let shift = other.level - self.level;
        (0..3).all(|d| (other.lx[d] >> shift) == self.lx[d])
    }

    /// The location offset by `off` blocks at the same level, wrapped into
    /// the periodic lattice `[0, extent_d)` per dimension.
    ///
    /// `extent` is the number of blocks per dimension at this level.
    pub fn offset(&self, off: [i64; 3], extent: [i64; 3]) -> Self {
        Self {
            level: self.level,
            lx: std::array::from_fn(|d| (self.lx[d] + off[d]).rem_euclid(extent[d])),
        }
    }
}

impl fmt::Display for LogicalLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L{}({}, {}, {})",
            self.level, self.lx[0], self.lx[1], self.lx[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_child_roundtrip_3d() {
        let loc = LogicalLocation::new(2, 5, 6, 7);
        for child in loc.children(3) {
            assert_eq!(child.parent(), loc);
            assert_eq!(child.level(), 3);
        }
        assert_eq!(loc.children(3).len(), 8);
    }

    #[test]
    fn children_count_by_dim() {
        let loc = LogicalLocation::new(0, 0, 0, 0);
        assert_eq!(loc.children(1).len(), 2);
        assert_eq!(loc.children(2).len(), 4);
        assert_eq!(loc.children(3).len(), 8);
    }

    #[test]
    fn children_preserve_unused_dims() {
        let loc = LogicalLocation::new(1, 3, 4, 9);
        for child in loc.children(2) {
            assert_eq!(child.lx_d(2), 9, "z untouched in 2D");
        }
    }

    #[test]
    fn child_index_identifies_each_child() {
        let loc = LogicalLocation::new(0, 1, 2, 3);
        let children = loc.children(3);
        let mut seen = [false; 8];
        for c in &children {
            let idx = c.child_index(3);
            assert!(!seen[idx], "duplicate child index {idx}");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn contains_descendants() {
        let root = LogicalLocation::new(0, 0, 0, 0);
        let deep = LogicalLocation::new(3, 7, 5, 3);
        assert!(root.contains(&deep));
        assert!(!deep.contains(&root));
        assert!(root.contains(&root), "a location contains itself");
    }

    #[test]
    fn contains_rejects_cousins() {
        let a = LogicalLocation::new(1, 0, 0, 0);
        let b = LogicalLocation::new(2, 2, 0, 0); // descendant of (1,1,0,0)
        assert!(!a.contains(&b));
    }

    #[test]
    fn offset_within_bounds() {
        let loc = LogicalLocation::new(1, 1, 1, 0);
        let n = loc.offset([1, 0, 0], [4, 4, 1]);
        assert_eq!(n, LogicalLocation::new(1, 2, 1, 0));
    }

    #[test]
    fn offset_periodic_wraps() {
        let loc = LogicalLocation::new(0, 0, 3, 0);
        let n = loc.offset([-1, 1, 0], [4, 4, 1]);
        assert_eq!(n, LogicalLocation::new(0, 3, 0, 0));
    }

    #[test]
    #[should_panic(expected = "no parent")]
    fn parent_of_root_panics() {
        LogicalLocation::new(0, 0, 0, 0).parent();
    }

    #[test]
    fn display_format() {
        let loc = LogicalLocation::new(2, 1, 2, 3);
        assert_eq!(loc.to_string(), "L2(1, 2, 3)");
    }

    #[test]
    fn ordering_is_total_and_level_major() {
        let a = LogicalLocation::new(0, 9, 9, 9);
        let b = LogicalLocation::new(1, 0, 0, 0);
        assert!(a < b, "coarser levels sort first in derived order");
    }
}
