//! Flux correction at fine-coarse block boundaries.
//!
//! When a coarse block and a fine block share a face, the flux the coarse
//! block computed on that face does not exactly equal the aggregate of the
//! fine fluxes, which would create artificial gains or losses of conserved
//! quantities. Parthenon's `FluxCorrection` step ships the *restricted*
//! (area-averaged) fine face fluxes to the coarse neighbor, which overwrites
//! its own face fluxes before taking the flux divergence. The exchange uses
//! the same buffer machinery as ghost zones but runs between the blocks'
//! outer face planes ([`CellVariable::planes`]), the only fluxes a block
//! keeps.

use vibe_mesh::{IndexRange, IndexShape, LogicalLocation, NeighborOffset};

use crate::array::Array4;
use crate::buffer::{CellRows, TransferProgram};
use crate::region::Region;
use crate::variable::CellVariable;

/// Description of one fine→coarse flux-correction transfer across a face.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FluxCorrSpec {
    /// Normal dimension of the shared face (0 = x).
    normal: usize,
    /// Whether the shared face is the coarse receiver's upper one (and so
    /// the fine sender's lower one).
    upper: bool,
    /// Coarse receiver *cell* region in the tangential dimensions (the
    /// `normal` range is a single face).
    recv_region: Region,
    /// Receiver block origin in receiver-level global cells.
    recv_origin: [i64; 3],
    /// Fine sender block origin in sender-level global cells (unwrapped).
    sender_origin: [i64; 3],
    shape: IndexShape,
}

impl FluxCorrSpec {
    /// Coarse faces corrected per component (the communicated cell count).
    pub fn faces_per_component(&self) -> usize {
        self.recv_region.count()
    }

    /// Total buffer length in `f64` for `ncomp` components.
    pub fn buffer_len(&self, ncomp: usize) -> usize {
        ncomp * self.faces_per_component()
    }

    /// The face-normal dimension.
    pub fn normal(&self) -> usize {
        self.normal
    }
}

/// Computes the flux-correction spec for fine sender `s_loc` adjoining
/// coarse receiver `r_loc` across face `offset` (receiver → sender; must be
/// a face offset) with `s_loc.level() == r_loc.level() + 1`.
///
/// # Panics
///
/// Panics if `offset` is not a face offset or the level relation is wrong.
pub fn flux_correction_spec(
    shape: &IndexShape,
    r_loc: &LogicalLocation,
    s_loc: &LogicalLocation,
    offset: &NeighborOffset,
) -> FluxCorrSpec {
    assert_eq!(offset.order(), 1, "flux correction applies to faces only");
    assert_eq!(
        s_loc.level(),
        r_loc.level() + 1,
        "flux correction flows from fine to coarse"
    );
    let dim = shape.dim();
    let off = offset.components();
    let normal = (0..3).find(|&d| off[d] != 0).expect("face offset");
    assert!(normal < dim, "face normal must be an active dimension");

    let mut lo = [0i64; 3];
    let mut hi = [0i64; 3];
    let mut recv_origin = [0i64; 3];
    let mut sender_origin = [0i64; 3];
    for d in 0..3 {
        let g = shape.nghost_d(d) as i64;
        let n = shape.ncells()[d] as i64;
        recv_origin[d] = r_loc.lx_d(d) * n;
        let candidate = r_loc.lx_d(d) + off[d];
        let u = if d < dim {
            2 * candidate + (s_loc.lx_d(d) & 1)
        } else {
            candidate
        };
        sender_origin[d] = u * n;
        if d == normal {
            // Single shared face; the tangential region stores the face
            // index in this dimension for iteration convenience.
            let face = if off[d] > 0 { g + n } else { g };
            lo[d] = face;
            hi[d] = face;
        } else if d < dim {
            let b = s_loc.lx_d(d) & 1;
            lo[d] = g + b * n / 2;
            hi[d] = g + (b + 1) * n / 2 - 1;
        } else {
            lo[d] = 0;
            hi[d] = 0;
        }
    }
    FluxCorrSpec {
        normal,
        upper: off[normal] > 0,
        recv_region: Region::new([
            IndexRange::new(lo[0], hi[0]),
            IndexRange::new(lo[1], hi[1]),
            IndexRange::new(lo[2], hi[2]),
        ]),
        recv_origin,
        sender_origin,
        shape: *shape,
    }
}

/// A [`FluxCorrSpec`] compiled down to offsets into the sender's and the
/// receiver's face planes of the shared face, so running it re-derives
/// nothing. As a [`TransferProgram`], `pack` then `unpack` is the wire path
/// and `fill` restricts straight from the fine block's plane into the
/// coarse block's, with the same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct FluxProgram {
    normal: usize,
    /// Whether the receiver's plane is its upper one.
    upper: bool,
    /// Coarse faces corrected along `(i, j, k)` (1 along the normal).
    n: [usize; 3],
    /// First corrected coarse face and the `(i, j, k, component)` steps of
    /// a face plane (one thick along the normal; both blocks' alike).
    dst0: usize,
    step: [usize; 4],
    /// First fine face read; a coarse step is two fine steps.
    src0: usize,
    /// Offsets of the `2^(dim-1)` fine faces under one coarse face, lowest
    /// tangential dimension fastest — the order their sum is folded in.
    sub: [usize; 4],
    nsub: usize,
}

impl FluxProgram {
    /// Compiles `spec`.
    pub fn compile(spec: &FluxCorrSpec) -> Self {
        let shape = &spec.shape;
        let dim = shape.dim();
        let normal = spec.normal;
        let tangential: Vec<usize> = (0..dim).filter(|&d| d != normal).collect();
        let e: [usize; 3] =
            std::array::from_fn(|d| if d == normal { 1 } else { shape.ncells()[d] });
        let step = [1, e[0], e[0] * e[1], e[0] * e[1] * e[2]];
        let r = spec.recv_region.ranges();
        // Interior-relative first coarse face, and the first fine face
        // under it.
        let (mut dst0, mut src0) = (0usize, 0usize);
        for &d in &tangential {
            let coarse = r[d].s - shape.nghost_d(d) as i64;
            let fine = 2 * (spec.recv_origin[d] + coarse) - spec.sender_origin[d];
            dst0 += coarse as usize * step[d];
            src0 += fine as usize * step[d];
        }
        let mut sub = [0usize; 4];
        let nsub = 1usize << tangential.len();
        for (c, offset) in sub[..nsub].iter_mut().enumerate() {
            *offset = tangential
                .iter()
                .enumerate()
                .map(|(b, &d)| ((c >> b) & 1) * step[d])
                .sum();
        }
        Self {
            normal,
            upper: spec.upper,
            n: std::array::from_fn(|d| r[d].len()),
            dst0,
            step,
            src0,
            sub,
            nsub,
        }
    }

    /// Visits every corrected coarse face as (receiver offset, offset of
    /// its first fine face in the sender), in wire order.
    #[inline(always)]
    fn for_each_face(&self, ncomp: usize, mut f: impl FnMut(usize, usize)) {
        let [si, sj, sk, sv] = self.step;
        for v in 0..ncomp {
            for k in 0..self.n[2] {
                for j in 0..self.n[1] {
                    for i in 0..self.n[0] {
                        let coarse = i * si + j * sj + k * sk;
                        f(self.dst0 + v * sv + coarse, self.src0 + v * sv + 2 * coarse);
                    }
                }
            }
        }
    }

    /// Area average of the fine faces under the coarse face whose first
    /// fine face sits at `first`.
    #[inline(always)]
    fn restricted<S: CellRows + ?Sized>(&self, fine: &S, first: usize) -> f64 {
        let mut sum = 0.0;
        for &sub in &self.sub[..self.nsub] {
            sum += fine.row(first + sub, 1)[0];
        }
        sum / self.nsub as f64
    }
}

impl TransferProgram for FluxProgram {
    const ARRAYS: usize = 6;

    fn arrays(var: &CellVariable) -> &[Array4] {
        var.planes()
    }

    fn arrays_mut(var: &mut CellVariable) -> &mut [Array4] {
        var.planes_mut()
    }

    /// The fine sender's plane: the opposite side of the shared normal.
    fn src_array(&self) -> usize {
        2 * self.normal + usize::from(!self.upper)
    }

    fn dst_array(&self) -> usize {
        2 * self.normal + usize::from(self.upper)
    }

    fn wire_len(&self, ncomp: usize) -> usize {
        ncomp * self.n.iter().product::<usize>()
    }

    fn storage_span(&self, ncomp: usize) -> usize {
        ncomp * self.step[3]
    }

    /// Packs the restricted fine face fluxes into `wire`.
    fn pack<S: CellRows + ?Sized>(&self, ncomp: usize, fine: &S, wire: &mut [f64]) {
        debug_assert_eq!(wire.len(), self.wire_len(ncomp));
        let mut idx = 0usize;
        self.for_each_face(ncomp, |_, first| {
            wire[idx] = self.restricted(fine, first);
            idx += 1;
        });
    }

    /// Overwrites the coarse face fluxes with the restricted values in
    /// `wire`.
    fn unpack<D: CellRows + ?Sized>(&self, ncomp: usize, wire: &[f64], coarse: &mut D) {
        let mut idx = 0usize;
        self.for_each_face(ncomp, |face, _| {
            coarse.row_mut(face, 1)[0] = wire[idx];
            idx += 1;
        });
    }

    /// Restricts the fine face fluxes straight into the coarse block's.
    fn fill<S, D>(&self, ncomp: usize, fine: &S, coarse: &mut D, _scratch: &mut Vec<f64>)
    where
        S: CellRows + ?Sized,
        D: CellRows + ?Sized,
    {
        self.for_each_face(ncomp, |face, first| {
            coarse.row_mut(face, 1)[0] = self.restricted(fine, first);
        });
    }
}

/// Packs the restricted (averaged) fine face fluxes for `spec` from the
/// sender's face plane into `out`.
///
/// # Panics
///
/// Panics if the sender variable has no fluxes.
pub fn pack_flux(spec: &FluxCorrSpec, sender: &CellVariable, out: &mut Vec<f64>) {
    let prog = FluxProgram::compile(spec);
    let plane = &sender.planes()[prog.src_array()];
    let ncomp = sender.ncomp();
    let start = out.len();
    out.resize(start + spec.buffer_len(ncomp), 0.0);
    prog.pack(ncomp, plane.as_slice(), &mut out[start..]);
}

/// Overwrites the coarse receiver's face fluxes with the restricted fine
/// fluxes in `buf`.
///
/// # Panics
///
/// Panics if the receiver variable has no fluxes or `buf` is too short.
pub fn apply_flux(spec: &FluxCorrSpec, buf: &[f64], recv: &mut CellVariable) {
    let ncomp = recv.ncomp();
    assert!(buf.len() >= spec.buffer_len(ncomp), "flux buffer too short");
    let prog = FluxProgram::compile(spec);
    let plane = &mut recv.planes_mut()[prog.dst_array()];
    prog.unpack(ncomp, buf, plane.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::Metadata;

    fn shape2d() -> IndexShape {
        IndexShape::new([8, 8, 1], 2, 2)
    }

    #[test]
    fn spec_covers_half_face() {
        let shape = shape2d();
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(1, 2, 1, 0); // fine, high-y child facing us
        let off = NeighborOffset::new(1, 0, 0);
        let spec = flux_correction_spec(&shape, &r, &s, &off);
        assert_eq!(spec.normal(), 0);
        // Half the 8-cell tangential span: 4 coarse faces.
        assert_eq!(spec.faces_per_component(), 4);
    }

    #[test]
    fn restricted_fluxes_average_fine_values() {
        let shape = shape2d();
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(1, 2, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = flux_correction_spec(&shape, &r, &s, &off);

        let mut fine = CellVariable::new("u", 1, Metadata::WITH_FLUXES, &shape);
        // Fine x-flux on its low face: value = fine global j (origin_y = 0,
        // child bit 0).
        for j in 0..8usize {
            fine.planes_mut()[0].set(0, 0, j, 0, j as f64);
        }
        let mut buf = Vec::new();
        pack_flux(&spec, &fine, &mut buf);
        assert_eq!(buf.len(), 4);
        // Coarse face at tangential coarse cell J covers fine j = 2J, 2J+1:
        // average = 2J + 0.5.
        for (idx, &v) in buf.iter().enumerate() {
            assert!((v - (2.0 * idx as f64 + 0.5)).abs() < 1e-14);
        }

        let mut coarse = CellVariable::new("u", 1, Metadata::WITH_FLUXES, &shape);
        apply_flux(&spec, &buf, &mut coarse);
        // Receiver face: o=+1 => its upper x plane; tangential j = 0..3.
        let fx = &coarse.planes()[1];
        assert!((fx.get(0, 0, 0, 0) - 0.5).abs() < 1e-14);
        assert!((fx.get(0, 0, 3, 0) - 6.5).abs() < 1e-14);
        assert!(coarse.planes()[0].as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn conservation_coarse_face_equals_fine_total() {
        // The defining property: coarse flux * coarse area == sum of fine
        // fluxes * fine areas. With area ratio 2^(dim-1) per coarse face and
        // our arithmetic mean, this holds identically.
        let shape = shape2d();
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(1, 2, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = flux_correction_spec(&shape, &r, &s, &off);
        let mut fine = CellVariable::new("u", 1, Metadata::WITH_FLUXES, &shape);
        for j in 0..8usize {
            fine.planes_mut()[0].set(0, 0, j, 0, (j * j) as f64 * 0.125);
        }
        let mut buf = Vec::new();
        pack_flux(&spec, &fine, &mut buf);
        // Sum over coarse faces * 2 fine-faces-per-coarse == sum over fine.
        let coarse_total: f64 = buf.iter().sum::<f64>() * 2.0;
        let fine_total: f64 = fine.planes()[0].as_slice().iter().sum();
        assert!((coarse_total - fine_total).abs() < 1e-12);
    }

    #[test]
    fn low_side_face_indices() {
        let shape = shape2d();
        let r = LogicalLocation::new(0, 1, 0, 0);
        let s = LogicalLocation::new(1, 1, 0, 0); // fine neighbor on -x side
        let off = NeighborOffset::new(-1, 0, 0);
        let spec = flux_correction_spec(&shape, &r, &s, &off);
        // Receiver low face: storage x = g = 2 (encoded in region).
        assert_eq!(spec.recv_region.range(0), IndexRange::new(2, 2));
        assert_eq!(spec.faces_per_component(), 4);
    }

    #[test]
    #[should_panic(expected = "faces only")]
    fn edge_offsets_rejected() {
        let shape = shape2d();
        flux_correction_spec(
            &shape,
            &LogicalLocation::new(0, 0, 0, 0),
            &LogicalLocation::new(1, 2, 2, 0),
            &NeighborOffset::new(1, 1, 0),
        );
    }

    #[test]
    fn three_d_averages_four_fine_faces() {
        let shape = IndexShape::new([8, 8, 8], 2, 3);
        let r = LogicalLocation::new(0, 0, 0, 0);
        let s = LogicalLocation::new(1, 2, 0, 0);
        let off = NeighborOffset::new(1, 0, 0);
        let spec = flux_correction_spec(&shape, &r, &s, &off);
        assert_eq!(spec.faces_per_component(), 4 * 4);
        let mut fine = CellVariable::new("u", 1, Metadata::WITH_FLUXES, &shape);
        fine.planes_mut()[0].fill(2.0);
        let mut buf = Vec::new();
        pack_flux(&spec, &fine, &mut buf);
        assert!(buf.iter().all(|&v| (v - 2.0).abs() < 1e-15));
    }
}
