//! Block geometry. The domain is the periodic unit cube `[0, 1)^3`.

use crate::logical::LogicalLocation;

/// Physical geometry of one mesh block of the periodic unit cube: bounds,
/// cell widths, cell centers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockGeometry {
    xmin: [f64; 3],
    xmax: [f64; 3],
    dx: [f64; 3],
    ncells: [usize; 3],
}

impl BlockGeometry {
    /// Geometry of the block at `loc` for a mesh whose base grid has
    /// `base_blocks` blocks per dimension, each `block_cells` cells wide,
    /// tiling the unit cube.
    pub fn from_location(
        loc: &LogicalLocation,
        base_blocks: [i64; 3],
        block_cells: [usize; 3],
    ) -> Self {
        let mut xmin = [0.0; 3];
        let mut xmax = [0.0; 3];
        let mut dx = [0.0; 3];
        for d in 0..3 {
            let nblocks = (base_blocks[d] << loc.level()) as f64;
            let width = 1.0 / nblocks;
            xmin[d] = width * loc.lx_d(d) as f64;
            xmax[d] = xmin[d] + width;
            dx[d] = width / block_cells[d] as f64;
        }
        Self {
            xmin,
            xmax,
            dx,
            ncells: block_cells,
        }
    }

    /// Lower physical bounds of the block.
    pub fn xmin(&self) -> [f64; 3] {
        self.xmin
    }

    /// Upper physical bounds of the block.
    pub fn xmax(&self) -> [f64; 3] {
        self.xmax
    }

    /// Cell widths per dimension.
    pub fn dx(&self) -> [f64; 3] {
        self.dx
    }

    /// Interior cell counts per dimension.
    pub fn ncells(&self) -> [usize; 3] {
        self.ncells
    }

    /// Physical center of interior cell `(i, j, k)` (0-based, ghost-exclusive).
    /// Indices may lie outside `0..ncells` to address ghost cells.
    pub fn cell_center(&self, i: i64, j: i64, k: i64) -> [f64; 3] {
        [
            self.xmin[0] + (i as f64 + 0.5) * self.dx[0],
            self.xmin[1] + (j as f64 + 0.5) * self.dx[1],
            self.xmin[2] + (k as f64 + 0.5) * self.dx[2],
        ]
    }

    /// Cell volume (product of widths over all three dimensions).
    pub fn cell_volume(&self) -> f64 {
        self.dx[0] * self.dx[1] * self.dx[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_block_geometry_tiles_domain() {
        // 4 blocks of 16 cells each
        let left = BlockGeometry::from_location(
            &LogicalLocation::new(0, 0, 0, 0),
            [4, 4, 4],
            [16, 16, 16],
        );
        let right = BlockGeometry::from_location(
            &LogicalLocation::new(0, 3, 0, 0),
            [4, 4, 4],
            [16, 16, 16],
        );
        assert!((left.xmin()[0] - 0.0).abs() < 1e-15);
        assert!((left.xmax()[0] - 0.25).abs() < 1e-15);
        assert!((right.xmax()[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn refined_block_is_half_width_same_cells() {
        let coarse = BlockGeometry::from_location(
            &LogicalLocation::new(0, 0, 0, 0),
            [4, 4, 4],
            [16, 16, 16],
        );
        let fine = BlockGeometry::from_location(
            &LogicalLocation::new(1, 0, 0, 0),
            [4, 4, 4],
            [16, 16, 16],
        );
        assert!(
            ((coarse.xmax()[0] - coarse.xmin()[0]) / (fine.xmax()[0] - fine.xmin()[0]) - 2.0).abs()
                < 1e-14
        );
        assert_eq!(fine.ncells(), [16, 16, 16]);
        assert!((coarse.dx()[0] / fine.dx()[0] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn cell_centers_are_offset_half_dx() {
        let g = BlockGeometry::from_location(
            &LogicalLocation::new(0, 0, 0, 0),
            [1, 1, 1],
            [16, 16, 16],
        );
        let c = g.cell_center(0, 0, 0);
        assert!((c[0] - 0.5 / 16.0).abs() < 1e-15);
        let ghost = g.cell_center(-1, 0, 0);
        assert!(ghost[0] < 0.0, "ghost center lies outside the block");
    }

    #[test]
    fn cell_volume_matches_dx_product() {
        let g = BlockGeometry::from_location(
            &LogicalLocation::new(0, 0, 0, 0),
            [2, 1, 1],
            [16, 16, 16],
        );
        let dx = g.dx();
        assert!((g.cell_volume() - dx[0] * dx[1] * dx[2]).abs() < 1e-18);
    }
}
