//! Physical boundary conditions for non-periodic domain edges.
//!
//! Ghost zones at block boundaries interior to the domain are filled by
//! communication; at *physical* (non-periodic) domain edges there is no
//! neighbor, so the framework fills them from boundary conditions after
//! `SetBounds`. Faces are swept dimension by dimension over the full
//! already-filled tangential extent, so edge and corner ghosts pick up the
//! correct composition of conditions.

use vibe_mesh::IndexShape;

use crate::buffer::CellRows;

/// Boundary condition applied at a physical domain face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BcKind {
    /// Zero-gradient: copy the nearest interior cell outward.
    #[default]
    Outflow,
    /// Mirror the interior across the face; vector variables (3 components)
    /// have their face-normal component negated.
    Reflect,
}

/// Which side of a dimension a face is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The low-coordinate face.
    Lower,
    /// The high-coordinate face.
    Upper,
}

/// Fills the ghost band of `data` — the `ncomp`-component storage of one
/// variable over `shape`'s ghost-inclusive extent, dense or as shared rows
/// — at the (`d`, `side`) face per `kind`.
///
/// `is_vector` marks variables whose component `d` is a face-normal vector
/// component (negated under [`BcKind::Reflect`]).
///
/// The fill covers the *entire* extent in the other dimensions, so calling
/// this for every physical face in dimension order also fills edge/corner
/// ghosts consistently. It reads cells of the block's own interior and of
/// ghost layers it or an earlier call filled, and writes ghost cells only.
pub fn apply_face_bc<D: CellRows + ?Sized>(
    data: &mut D,
    ncomp: usize,
    shape: &IndexShape,
    d: usize,
    side: Side,
    kind: BcKind,
    is_vector: bool,
) {
    let g = shape.nghost_d(d);
    if g == 0 {
        return;
    }
    let n = shape.ncells()[d];
    let e = [shape.entire_d(0), shape.entire_d(1), shape.entire_d(2)];
    let strides = [1, e[0], e[0] * e[1]];
    // Sweep the full extent of the other two dimensions.
    let (oa, ob) = [(1, 2), (0, 2), (0, 1)][d];

    for comp in 0..ncomp {
        let negate = kind == BcKind::Reflect && is_vector && comp == d;
        for layer in 0..g {
            // Ghost index and its source interior index along d.
            let (ghost, src) = match (side, kind) {
                (Side::Lower, BcKind::Outflow) => (g - 1 - layer, g),
                (Side::Upper, BcKind::Outflow) => (g + n + layer, g + n - 1),
                (Side::Lower, BcKind::Reflect) => (g - 1 - layer, g + layer),
                (Side::Upper, BcKind::Reflect) => (g + n + layer, g + n - 1 - layer),
            };
            for b in 0..e[ob] {
                for a in 0..e[oa] {
                    let at = comp * e[0] * e[1] * e[2] + a * strides[oa] + b * strides[ob];
                    let v = data.row(at + src * strides[d], 1)[0];
                    data.row_mut(at + ghost * strides[d], 1)[0] = if negate { -v } else { v };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array4;

    fn shape() -> IndexShape {
        IndexShape::new([4, 4, 1], 2, 2)
    }

    fn filled() -> Array4 {
        let mut a = Array4::zeros([1, 1, 8, 8]);
        // Interior: value = 10*ii + jj (interior coords).
        for j in 0..4 {
            for i in 0..4 {
                a.set(0, 0, 2 + j, 2 + i, (10 * i + j) as f64);
            }
        }
        a
    }

    #[test]
    fn outflow_copies_edge_cells() {
        let mut a = filled();
        apply_face_bc(
            a.as_mut_slice(),
            1,
            &shape(),
            0,
            Side::Lower,
            BcKind::Outflow,
            false,
        );
        // Ghosts i=0,1 copy interior i=2 (first interior).
        for j in 2..6 {
            let edge = a.get(0, 0, j, 2);
            assert_eq!(a.get(0, 0, j, 0), edge);
            assert_eq!(a.get(0, 0, j, 1), edge);
        }
    }

    #[test]
    fn reflect_mirrors_layers() {
        let mut a = filled();
        apply_face_bc(
            a.as_mut_slice(),
            1,
            &shape(),
            0,
            Side::Upper,
            BcKind::Reflect,
            false,
        );
        for j in 2..6 {
            // layer 0: ghost i=6 mirrors interior i=5; layer 1: i=7 <- i=4.
            assert_eq!(a.get(0, 0, j, 6), a.get(0, 0, j, 5));
            assert_eq!(a.get(0, 0, j, 7), a.get(0, 0, j, 4));
        }
    }

    #[test]
    fn reflect_negates_normal_vector_component() {
        let mut a = Array4::filled([3, 1, 8, 8], 2.0);
        apply_face_bc(
            a.as_mut_slice(),
            3,
            &shape(),
            0,
            Side::Lower,
            BcKind::Reflect,
            true,
        );
        // Component 0 (x of a vector) negated at the x face; others copied.
        assert_eq!(a.get(0, 0, 3, 1), -2.0);
        assert_eq!(a.get(1, 0, 3, 1), 2.0);
        assert_eq!(a.get(2, 0, 3, 1), 2.0);
    }

    #[test]
    fn corner_ghosts_filled_after_both_dims() {
        let mut a = filled();
        apply_face_bc(
            a.as_mut_slice(),
            1,
            &shape(),
            0,
            Side::Lower,
            BcKind::Outflow,
            false,
        );
        apply_face_bc(
            a.as_mut_slice(),
            1,
            &shape(),
            1,
            Side::Lower,
            BcKind::Outflow,
            false,
        );
        // Corner ghost (0,0) = interior corner value (0,0) -> 0.0 via
        // two-step outflow.
        assert_eq!(a.get(0, 0, 0, 0), a.get(0, 0, 2, 2));
    }

    #[test]
    fn inactive_dimension_is_noop() {
        let mut a = filled();
        let before = a.clone();
        apply_face_bc(
            a.as_mut_slice(),
            1,
            &shape(),
            2,
            Side::Lower,
            BcKind::Outflow,
            false,
        );
        assert_eq!(a, before, "no z ghosts in 2D");
    }
}
