//! ASCII rendering of the block hierarchy — a textual version of the
//! paper's Fig. 2 quadtree illustration, for diagnostics and examples.

use crate::logical::LogicalLocation;
use crate::tree::BlockTree;

/// Renders a z-slice of the tree's block structure as ASCII art: each
/// character cell corresponds to one finest-level block position, drawn
/// with a per-level glyph (`.` for level 0, then `1`, `2`, …).
///
/// `slice_z` selects the z block-coordinate *at the finest current level*
/// (ignored for 1D/2D trees).
///
/// ```
/// use vibe_mesh::{BlockTree, LogicalLocation};
/// use vibe_mesh::render::render_slice;
///
/// let mut tree = BlockTree::new(2, [2, 2, 1], 2);
/// tree.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
/// let art = render_slice(&tree, 0);
/// assert!(art.contains('1'), "refined region drawn at level 1: \n{art}");
/// ```
pub fn render_slice(tree: &BlockTree, slice_z: i64) -> String {
    let finest = tree.current_max_level();
    let ext = tree.extent_at(finest);
    let (nx, ny) = (ext[0], ext[1]);
    let glyph = |level: i32| -> char {
        match level {
            0 => '.',
            l if l <= 9 => (b'0' + l as u8) as char,
            _ => '#',
        }
    };
    let mut out = String::with_capacity(((nx + 1) * ny) as usize);
    for y in (0..ny).rev() {
        for x in 0..nx {
            let z = if tree.dim() == 3 {
                slice_z.clamp(0, ext[2] - 1)
            } else {
                0
            };
            let probe = LogicalLocation::new(finest, x, y, z);
            let ch = tree
                .find_covering_leaf(&probe)
                .map_or('?', |leaf| glyph(leaf.level()));
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// One-line textual census: `blocks=N levels=[n0, n1, ...]`.
pub fn census_line(tree: &BlockTree) -> String {
    format!(
        "blocks={} levels={:?}",
        tree.num_leaves(),
        tree.level_census()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tree_renders_dots() {
        let tree = BlockTree::new(2, [4, 4, 1], 2);
        let art = render_slice(&tree, 0);
        // Finest level is 0: one row of 4 chars per block row.
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l == &"...."));
    }

    #[test]
    fn refined_corner_renders_level_glyphs() {
        let mut tree = BlockTree::new(2, [2, 2, 1], 2);
        tree.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        let art = render_slice(&tree, 0);
        let lines: Vec<&str> = art.lines().collect();
        // Finest level 1 => 4x4 grid; lower-left quadrant is level 1.
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[3], "11..", "bottom row: refined left half");
        assert_eq!(lines[0], "....", "top row coarse");
    }

    #[test]
    fn deep_refinement_shows_higher_digits() {
        let mut tree = BlockTree::new(2, [2, 2, 1], 3);
        let c = tree.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        tree.refine(&c[0]).unwrap();
        let art = render_slice(&tree, 0);
        assert!(art.contains('2'));
        assert!(art.contains('1'));
        assert!(art.contains('.'));
    }

    #[test]
    fn three_d_slices_differ() {
        let mut tree = BlockTree::new(3, [2, 2, 2], 2);
        // Refine a block in the z=0 layer only.
        tree.refine(&LogicalLocation::new(0, 0, 0, 0)).unwrap();
        let near = render_slice(&tree, 0);
        let far = render_slice(&tree, 3);
        assert!(near.contains('1'));
        assert!(!far.contains('1'));
    }

    #[test]
    fn census_line_format() {
        let tree = BlockTree::new(2, [4, 4, 1], 2);
        let line = census_line(&tree);
        assert!(line.starts_with("blocks=16"));
        assert!(line.contains("[16, 0, 0]"));
    }
}
