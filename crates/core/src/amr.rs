//! AMR data movement: prolongation into refined children, restriction into
//! derefined parents, and the wire form of a block that migrates between
//! processes (used by `RedistributeAndRefineMeshBlocks`).

use vibe_field::{minmod, BlockData, VarId};

/// Prolongates all variables of `parent` into `child` (which occupies
/// octant `child_index` of the parent's volume), using per-dimension
/// slope-limited linear interpolation. Fills the child's interior cells;
/// ghosts are left to the next exchange.
///
/// # Panics
///
/// Panics if the containers have different shapes/registrations or active
/// block extents are odd.
pub fn prolongate_to_child(parent: &BlockData, child_index: usize, child: &mut BlockData) {
    let shape = *parent.shape();
    assert_eq!(&shape, child.shape(), "parent/child shape mismatch");
    assert_eq!(parent.num_vars(), child.num_vars(), "registration mismatch");
    let dim = shape.dim();
    let n = shape.ncells();
    for nd in n.iter().take(dim) {
        assert!(
            nd.is_multiple_of(2),
            "active extent must be even for refinement"
        );
    }
    let g = [shape.nghost_d(0), shape.nghost_d(1), shape.nghost_d(2)];
    let bit = |d: usize| (child_index >> d) & 1;

    for v in 0..parent.num_vars() {
        let src = parent.vars()[v].data();
        let dst = child.var_mut(vibe_field::VarId(v)).data_mut();
        for c in 0..src.ncomp() {
            for kk in 0..n[2] {
                for jj in 0..n[1] {
                    for ii in 0..n[0] {
                        let idx = [ii, jj, kk];
                        // Parent storage coordinate covering this fine cell.
                        let mut p = [0usize; 3];
                        let mut sign = [0.0f64; 3];
                        for d in 0..3 {
                            if d < dim {
                                p[d] = g[d] + bit(d) * n[d] / 2 + idx[d] / 2;
                                sign[d] = if idx[d] % 2 == 0 { -1.0 } else { 1.0 };
                            } else {
                                p[d] = 0;
                                sign[d] = 0.0;
                            }
                        }
                        let center = src.get(c, p[2], p[1], p[0]);
                        let mut value = center;
                        for d in 0..dim {
                            let hi = {
                                let mut q = p;
                                q[d] = (q[d] + 1).min(shape.entire_d(d) - 1);
                                src.get(c, q[2], q[1], q[0])
                            };
                            let lo = {
                                let mut q = p;
                                q[d] = q[d].saturating_sub(1);
                                src.get(c, q[2], q[1], q[0])
                            };
                            let slope = minmod(hi - center, center - lo);
                            value += 0.25 * sign[d] * slope;
                        }
                        dst.set(c, g[2] + kk, g[1] + jj, g[0] + ii, value);
                    }
                }
            }
        }
    }
}

/// Restricts (volume-averages) all variables of `children` (in child-index
/// order, `2^dim` of them) into `parent`'s interior.
///
/// # Panics
///
/// Panics if the child count does not match `2^dim` or shapes mismatch.
pub fn restrict_to_parent(children: &[&BlockData], parent: &mut BlockData) {
    let shape = *parent.shape();
    let dim = shape.dim();
    assert_eq!(children.len(), 1 << dim, "need 2^dim children");
    let n = shape.ncells();
    let g = [shape.nghost_d(0), shape.nghost_d(1), shape.nghost_d(2)];
    let two = |d: usize| if d < dim { 2usize } else { 1 };

    for v in 0..parent.num_vars() {
        for c in 0..parent.vars()[v].ncomp() {
            for kk in 0..n[2] {
                for jj in 0..n[1] {
                    for ii in 0..n[0] {
                        let idx = [ii, jj, kk];
                        // Which child covers this parent cell, and where.
                        let mut child_index = 0usize;
                        let mut base = [0usize; 3];
                        for d in 0..dim {
                            let b = usize::from(idx[d] >= n[d] / 2);
                            child_index |= b << d;
                            base[d] = 2 * (idx[d] - b * n[d] / 2);
                        }
                        let child = children[child_index];
                        let src = child.vars()[v].data();
                        let mut sum = 0.0;
                        let mut count = 0.0;
                        for tz in 0..two(2) {
                            for ty in 0..two(1) {
                                for tx in 0..two(0) {
                                    let t = [tx, ty, tz];
                                    let mut s = [0usize; 3];
                                    for d in 0..3 {
                                        s[d] = if d < dim { g[d] + base[d] + t[d] } else { 0 };
                                    }
                                    sum += src.get(c, s[2], s[1], s[0]);
                                    count += 1.0;
                                }
                            }
                        }
                        parent.var_mut(vibe_field::VarId(v)).data_mut().set(
                            c,
                            g[2] + kk,
                            g[1] + jj,
                            g[0] + ii,
                            sum / count,
                        );
                    }
                }
            }
        }
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
