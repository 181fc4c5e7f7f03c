//! AMR data movement: prolongation into refined children, restriction into
//! derefined parents, and the wire form of a block that migrates between
//! processes (used by `RedistributeAndRefineMeshBlocks`).

use vibe_field::{BlockData, RowProgram, TransferProgram, VarId};

/// Prolongates all variables of `parent` into `child` (which occupies
/// octant `child_index` of the parent's volume), using per-dimension
/// slope-limited linear interpolation ([`RowProgram::refine`], the ghost
/// exchange's coarse-to-fine kernel). Fills the child's interior cells;
/// ghosts are left to the next exchange.
///
/// # Panics
///
/// Panics if the containers have different shapes/registrations or active
/// block extents are odd.
pub fn prolongate_to_child(parent: &BlockData, child_index: usize, child: &mut BlockData) {
    let shape = *parent.shape();
    for nd in shape.ncells().iter().take(shape.dim()) {
        assert!(
            nd.is_multiple_of(2),
            "active extent must be even for refinement"
        );
    }
    fill_vars(&RowProgram::refine(&shape, child_index), parent, child);
}

/// Restricts (volume-averages) all variables of `children` (in child-index
/// order, `2^dim` of them) into `parent`'s interior
/// ([`RowProgram::coarsen`], the ghost exchange's restrict-on-send kernel).
///
/// # Panics
///
/// Panics if the child count does not match `2^dim` or the containers have
/// different shapes/registrations.
pub fn restrict_to_parent(children: &[&BlockData], parent: &mut BlockData) {
    let shape = *parent.shape();
    assert_eq!(children.len(), 1 << shape.dim(), "need 2^dim children");
    for (child_index, child) in children.iter().enumerate() {
        fill_vars(&RowProgram::coarsen(&shape, child_index), child, parent);
    }
}

/// Runs `prog` on every variable, from `src`'s data into `dst`'s.
fn fill_vars(prog: &RowProgram, src: &BlockData, dst: &mut BlockData) {
    assert_eq!(src.shape(), dst.shape(), "parent/child shape mismatch");
    assert_eq!(src.num_vars(), dst.num_vars(), "registration mismatch");
    let mut scratch = Vec::new();
    for (from, to) in src.vars().iter().zip(dst.vars_mut()) {
        let (rows, out) = (from.data().as_slice(), to.data_mut().as_mut_slice());
        prog.fill(from.ncomp(), rows, out, &mut scratch);
    }
}

/// Serializes every variable's full data array (ghosts included — the
/// prolongation stencil reads parent neighbor cells that reach into the
/// ghost layers) in registration order. Fluxes and stage-0 copies are dead
/// across the regrid point (SaveStage0 overwrites them next cycle) and are
/// not shipped.
pub fn serialize_block(data: &BlockData) -> Vec<f64> {
    let mut out = Vec::new();
    for var in data.vars() {
        out.extend_from_slice(var.data().as_slice());
    }
    out
}

/// Inverse of [`serialize_block`] into an identically registered container.
///
/// # Panics
///
/// Panics if `payload` does not match the container's registration.
pub fn deserialize_into(data: &mut BlockData, payload: &[f64]) {
    let mut offset = 0usize;
    for i in 0..data.num_vars() {
        let dst = data.var_mut(VarId(i)).data_mut().as_mut_slice();
        dst.copy_from_slice(&payload[offset..offset + dst.len()]);
        offset += dst.len();
    }
    assert_eq!(offset, payload.len(), "payload matches registration");
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_field::Metadata;
    use vibe_mesh::IndexShape;

    fn container(shape: &IndexShape) -> BlockData {
        let mut d = BlockData::new(*shape);
        d.add_variable("q", 1, Metadata::INDEPENDENT);
        d
    }

    fn fill_interior(data: &mut BlockData, f: impl Fn(usize, usize, usize) -> f64) {
        let shape = *data.shape();
        let g = [shape.nghost_d(0), shape.nghost_d(1), shape.nghost_d(2)];
        let n = shape.ncells();
        let var = data.var_mut(vibe_field::VarId(0));
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    var.data_mut()
                        .set(0, g[2] + k, g[1] + j, g[0] + i, f(i, j, k));
                }
            }
        }
    }

    #[test]
    fn prolong_constant_exact() {
        let shape = IndexShape::new([8, 8, 1], 2, 2);
        let mut parent = container(&shape);
        fill_interior(&mut parent, |_, _, _| 4.5);
        for ci in 0..4 {
            let mut child = container(&shape);
            prolongate_to_child(&parent, ci, &mut child);
            let g = 2;
            for j in 0..8 {
                for i in 0..8 {
                    assert_eq!(child.vars()[0].data().get(0, 0, g + j, g + i), 4.5);
                }
            }
        }
    }

    #[test]
    fn prolong_linear_field_exact_in_smooth_region() {
        // Parent interior holds f = i; children away from the clamped edges
        // must reproduce the linear profile exactly.
        let shape = IndexShape::new([8, 8, 1], 2, 2);
        let mut parent = container(&shape);
        fill_interior(&mut parent, |i, _, _| i as f64);
        let mut child = container(&shape);
        prolongate_to_child(&parent, 0, &mut child);
        let g = 2usize;
        // Child interior cell ii maps to parent i = ii/2 with +-0.25 offset.
        for ii in 2..8usize {
            let want = (ii / 2) as f64 + if ii % 2 == 0 { -0.25 } else { 0.25 };
            let got = child.vars()[0].data().get(0, 0, g + 3, g + ii);
            assert!((got - want).abs() < 1e-13, "ii={ii}: {got} vs {want}");
        }
    }

    #[test]
    fn restrict_averages_children() {
        let shape = IndexShape::new([4, 4, 1], 2, 2);
        let mut children = Vec::new();
        for ci in 0..4 {
            let mut c = container(&shape);
            fill_interior(&mut c, |_, _, _| ci as f64);
            children.push(c);
        }
        let refs: Vec<&BlockData> = children.iter().collect();
        let mut parent = container(&shape);
        restrict_to_parent(&refs, &mut parent);
        let g = 2;
        // Parent quadrants mirror child constants.
        assert_eq!(parent.vars()[0].data().get(0, 0, g, g), 0.0);
        assert_eq!(parent.vars()[0].data().get(0, 0, g, g + 3), 1.0);
        assert_eq!(parent.vars()[0].data().get(0, 0, g + 3, g), 2.0);
        assert_eq!(parent.vars()[0].data().get(0, 0, g + 3, g + 3), 3.0);
    }

    #[test]
    fn prolong_then_restrict_is_identity() {
        // Conservative prolongation followed by restriction returns the
        // original coarse values exactly (limited-linear averages out).
        let shape = IndexShape::new([8, 8, 1], 2, 2);
        let mut parent = container(&shape);
        fill_interior(&mut parent, |i, j, _| (i * 13 + j * 7) as f64 * 0.1);
        let mut children = Vec::new();
        for ci in 0..4 {
            let mut c = container(&shape);
            prolongate_to_child(&parent, ci, &mut c);
            children.push(c);
        }
        let refs: Vec<&BlockData> = children.iter().collect();
        let mut roundtrip = container(&shape);
        restrict_to_parent(&refs, &mut roundtrip);
        let g = 2usize;
        for j in 0..8 {
            for i in 0..8 {
                let a = parent.vars()[0].data().get(0, 0, g + j, g + i);
                let b = roundtrip.vars()[0].data().get(0, 0, g + j, g + i);
                assert!((a - b).abs() < 1e-12, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn three_d_restrict_conserves_total() {
        let shape = IndexShape::new([4, 4, 4], 2, 3);
        let mut children = Vec::new();
        for ci in 0..8 {
            let mut c = container(&shape);
            fill_interior(&mut c, |i, j, k| ((i + 2 * j + 3 * k + ci) % 5) as f64);
            children.push(c);
        }
        let fine_total: f64 = children
            .iter()
            .map(|c| {
                let g = 2usize;
                let mut s = 0.0;
                for k in 0..4 {
                    for j in 0..4 {
                        for i in 0..4 {
                            s += c.vars()[0].data().get(0, g + k, g + j, g + i);
                        }
                    }
                }
                s
            })
            .sum();
        let refs: Vec<&BlockData> = children.iter().collect();
        let mut parent = container(&shape);
        restrict_to_parent(&refs, &mut parent);
        let g = 2usize;
        let mut coarse_total = 0.0;
        for k in 0..4 {
            for j in 0..4 {
                for i in 0..4 {
                    coarse_total += parent.vars()[0].data().get(0, g + k, g + j, g + i);
                }
            }
        }
        // Each coarse cell is the average of 8 fine cells: coarse total × 8
        // equals the fine total (equal fine volumes).
        assert!((coarse_total * 8.0 - fine_total).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "2^dim children")]
    fn wrong_child_count_panics() {
        let shape = IndexShape::new([4, 4, 1], 2, 2);
        let c = container(&shape);
        let mut parent = container(&shape);
        restrict_to_parent(&[&c, &c], &mut parent);
    }

    #[test]
    fn block_payload_roundtrip() {
        let shape = IndexShape::new([4, 4, 1], 2, 2);
        let mut src = container(&shape);
        src.add_variable("u", 3, Metadata::INDEPENDENT);
        let mut next = 0.0;
        for var in src.vars_mut() {
            var.data_mut().as_mut_slice().fill_with(|| {
                next += 0.25;
                next
            });
        }
        let mut dst = container(&shape);
        dst.add_variable("u", 3, Metadata::INDEPENDENT);
        deserialize_into(&mut dst, &serialize_block(&src));
        for (a, b) in src.vars().iter().zip(dst.vars()) {
            assert_eq!(a.data().as_slice(), b.data().as_slice());
        }
    }
}
