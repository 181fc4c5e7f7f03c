//! Cell variables and their metadata flags.

use std::fmt;

use vibe_mesh::IndexShape;

use crate::array::Array4;

/// Bit-set of variable metadata flags, mirroring Parthenon's `Metadata`.
///
/// Packages register variables with flags; framework machinery then selects
/// variables *by flag* — e.g. ghost exchange operates on all
/// [`Metadata::FILL_GHOST`] variables and flux divergence on all
/// [`Metadata::WITH_FLUXES`] ones.
///
/// ```
/// use vibe_field::Metadata;
///
/// let m = Metadata::INDEPENDENT | Metadata::FILL_GHOST;
/// assert!(m.contains(Metadata::FILL_GHOST));
/// assert!(!m.contains(Metadata::DERIVED));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Metadata(u32);

impl Metadata {
    /// No flags.
    pub const NONE: Metadata = Metadata(0);
    /// Evolved directly by the integrator (conserved state).
    pub const INDEPENDENT: Metadata = Metadata(1 << 0);
    /// Computed from independent variables each stage (`FillDerived`).
    pub const DERIVED: Metadata = Metadata(1 << 1);
    /// Ghost zones must be exchanged every timestep.
    pub const FILL_GHOST: Metadata = Metadata(1 << 2);
    /// Has face fluxes (participates in the flux sweep, flux divergence
    /// and fine-coarse flux correction).
    pub const WITH_FLUXES: Metadata = Metadata(1 << 3);
    /// Requires a second copy for multi-stage time integration.
    pub const TWO_STAGE: Metadata = Metadata(1 << 4);
    /// Participates in refinement tagging.
    pub const REFINEMENT: Metadata = Metadata(1 << 5);

    /// `true` if every flag in `other` is set in `self`.
    pub fn contains(&self, other: Metadata) -> bool {
        self.0 & other.0 == other.0
    }

    /// Raw bit representation.
    pub fn bits(&self) -> u32 {
        self.0
    }
}

impl std::ops::BitOr for Metadata {
    type Output = Metadata;
    fn bitor(self, rhs: Metadata) -> Metadata {
        Metadata(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Metadata {
    fn bitor_assign(&mut self, rhs: Metadata) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for Metadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Metadata::INDEPENDENT, "Independent"),
            (Metadata::DERIVED, "Derived"),
            (Metadata::FILL_GHOST, "FillGhost"),
            (Metadata::WITH_FLUXES, "WithFluxes"),
            (Metadata::TWO_STAGE, "TwoStage"),
            (Metadata::REFINEMENT, "Refinement"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "None")?;
        }
        Ok(())
    }
}

/// What a flux sweep writes for one variable, moved out of it for the sweep
/// ([`CellVariable::take_flux_out`]).
#[derive(Debug)]
pub struct FluxOut {
    /// Flux divergence over the interior cells.
    pub div: Array4,
    /// Fluxes on the block's outer faces, `[2 * d + side]`.
    pub planes: Vec<Array4>,
    /// The fluxes the sweep keeps of the one-cell layer under outer face
    /// `[2 * d + side]`, laid out as the sweep's tile over that layer;
    /// empty for a face whose layer is not kept.
    pub layers: Vec<Vec<f64>>,
}

/// One named, multi-component, cell-centered variable on one block. A
/// [`Metadata::WITH_FLUXES`] variable also keeps what the flux sweep leaves
/// behind for the stage update and for flux correction: the divergence of
/// its face fluxes over the interior cells, the fluxes on the block's
/// outer faces and, under flux-corrected faces, the fluxes of the one-cell
/// layer beneath. All other fluxes live in the sweep's per-worker tile
/// scratch only.
#[derive(Debug, Clone, PartialEq)]
pub struct CellVariable {
    name: String,
    ncomp: usize,
    metadata: Metadata,
    data: Array4,
    /// Flux divergence `(comp, k, j, i)` over the interior cells (no ghost
    /// shell); `None` without [`Metadata::WITH_FLUXES`].
    div: Option<Array4>,
    /// Fluxes on the block's outer faces, `planes[2 * d + side]` (side 1 =
    /// upper) for every active dimension `d`: dense `(comp, k, j, i)` slabs
    /// over the interior, one thick along `d`. Empty without
    /// [`Metadata::WITH_FLUXES`].
    planes: Vec<Array4>,
    /// The kept fluxes of the layer under each outer face ([`FluxOut`]);
    /// sized by the sweep for the faces it is asked to keep.
    layers: Vec<Vec<f64>>,
}

impl CellVariable {
    /// Creates a zero-initialized variable over `shape`'s ghost-inclusive
    /// extent with `ncomp` components. The divergence array and the two
    /// face planes per active dimension are allocated when `metadata`
    /// contains [`Metadata::WITH_FLUXES`].
    ///
    /// # Panics
    ///
    /// Panics if `ncomp == 0` or `name` is empty.
    pub fn new(
        name: impl Into<String>,
        ncomp: usize,
        metadata: Metadata,
        shape: &IndexShape,
    ) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "variable name must be non-empty");
        assert!(ncomp > 0, "variable must have at least one component");
        let data = Array4::zeros([
            ncomp,
            shape.entire_d(2),
            shape.entire_d(1),
            shape.entire_d(0),
        ]);
        let [nx, ny, nz] = shape.ncells();
        let with_fluxes = metadata.contains(Metadata::WITH_FLUXES);
        let planes = (0..2 * shape.dim() * usize::from(with_fluxes))
            .map(|face| match face / 2 {
                0 => Array4::zeros([ncomp, nz, ny, 1]),
                1 => Array4::zeros([ncomp, nz, 1, nx]),
                _ => Array4::zeros([ncomp, 1, ny, nx]),
            })
            .collect();
        Self {
            name,
            ncomp,
            metadata,
            data,
            div: with_fluxes.then(|| Array4::zeros([ncomp, nz, ny, nx])),
            planes,
            layers: Vec::new(),
        }
    }

    /// Variable name used for string-based lookup.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Metadata flags.
    pub fn metadata(&self) -> Metadata {
        self.metadata
    }

    /// Cell-centered data `(comp, k, j, i)`.
    pub fn data(&self) -> &Array4 {
        &self.data
    }

    /// Mutable cell-centered data.
    pub fn data_mut(&mut self) -> &mut Array4 {
        &mut self.data
    }

    /// Flux divergence over the interior cells, if the variable has fluxes.
    pub fn div(&self) -> Option<&Array4> {
        self.div.as_ref()
    }

    /// Fluxes on the block's outer faces, `[2 * d + side]`; empty if the
    /// variable has no fluxes.
    pub fn planes(&self) -> &[Array4] {
        &self.planes
    }

    /// The outer face planes, mutably.
    pub fn planes_mut(&mut self) -> &mut [Array4] {
        &mut self.planes
    }

    /// The fluxes the sweep kept of the layer under each outer face,
    /// `[2 * d + side]` ([`FluxOut::layers`]).
    pub fn layers(&self) -> &[Vec<f64>] {
        &self.layers
    }

    /// Moves the divergence array, the face planes and the kept layer
    /// fluxes out of the variable — the borrow split of a sweep that reads
    /// the block's state shared while it writes these;
    /// [`CellVariable::put_flux_out`] moves them back.
    ///
    /// # Panics
    ///
    /// Panics if the variable has no fluxes (or they are already out).
    pub fn take_flux_out(&mut self) -> FluxOut {
        FluxOut {
            div: self.div.take().expect("variable carries fluxes"),
            planes: std::mem::take(&mut self.planes),
            layers: std::mem::take(&mut self.layers),
        }
    }

    /// Moves what [`CellVariable::take_flux_out`] took back in.
    pub fn put_flux_out(&mut self, out: FluxOut) {
        (self.div, self.planes, self.layers) = (Some(out.div), out.planes, out.layers);
    }

    /// Mutable cell data beside the flux divergence — the borrow split the
    /// stage update needs.
    ///
    /// # Panics
    ///
    /// Panics if the variable has no fluxes.
    pub fn data_mut_and_div(&mut self) -> (&mut Array4, &Array4) {
        let div = self.div.as_ref().expect("variable carries fluxes");
        (&mut self.data, div)
    }

    /// Bytes of data plus flux storage in Parthenon's layout — three
    /// ghost-inclusive face arrays per flux-bearing variable, one longer
    /// along the face normal. This is the quantity the memory-footprint
    /// model attributes to Kokkos allocations, a model input; what this
    /// process holds is [`CellVariable::resident_bytes`].
    pub fn nbytes(&self) -> usize {
        let [ncomp, ez, ey, ex] = self.data.shape();
        let faces = (ez * ey * (ex + 1)) + (ez * (ey + 1) * ex) + ((ez + 1) * ey * ex);
        self.data.nbytes() + usize::from(self.div.is_some()) * ncomp * faces * 8
    }

    /// Bytes actually allocated: data, divergence, face planes and kept
    /// layer fluxes.
    pub fn resident_bytes(&self) -> usize {
        self.data.nbytes()
            + self.div.as_ref().map_or(0, Array4::nbytes)
            + self.planes.iter().map(Array4::nbytes).sum::<usize>()
            + self.layers.iter().map(|l| 8 * l.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> IndexShape {
        IndexShape::new([8, 8, 8], 4, 3)
    }

    #[test]
    fn metadata_flag_algebra() {
        let m = Metadata::INDEPENDENT | Metadata::FILL_GHOST | Metadata::WITH_FLUXES;
        assert!(m.contains(Metadata::INDEPENDENT | Metadata::FILL_GHOST));
        assert!(!m.contains(Metadata::DERIVED));
    }

    #[test]
    fn metadata_display() {
        let m = Metadata::INDEPENDENT | Metadata::FILL_GHOST;
        assert_eq!(m.to_string(), "Independent|FillGhost");
        assert_eq!(Metadata::NONE.to_string(), "None");
    }

    #[test]
    fn variable_allocates_ghost_inclusive() {
        let v = CellVariable::new("u", 3, Metadata::INDEPENDENT, &shape());
        assert_eq!(v.data().shape(), [3, 16, 16, 16]);
        assert!(v.div().is_none() && v.planes().is_empty());
    }

    #[test]
    fn with_fluxes_allocates_div_and_face_planes() {
        let v = CellVariable::new(
            "u",
            2,
            Metadata::INDEPENDENT | Metadata::WITH_FLUXES,
            &shape(),
        );
        assert_eq!(v.div().unwrap().shape(), [2, 8, 8, 8]);
        let planes: Vec<_> = v.planes().iter().map(Array4::shape).collect();
        let (x, y, z) = ([2, 8, 8, 1], [2, 8, 1, 8], [2, 1, 8, 8]);
        assert_eq!(planes, [x, x, y, y, z, z]);
    }

    #[test]
    fn nbytes_models_three_face_arrays() {
        let plain = CellVariable::new("a", 1, Metadata::NONE, &shape());
        let fluxed = CellVariable::new("b", 1, Metadata::WITH_FLUXES, &shape());
        assert_eq!(plain.nbytes(), 16 * 16 * 16 * 8);
        assert_eq!(plain.resident_bytes(), plain.nbytes());
        assert_eq!(fluxed.nbytes(), plain.nbytes() + 3 * 16 * 16 * 17 * 8);
        assert_eq!(
            fluxed.resident_bytes(),
            plain.nbytes() + (8 * 8 * 8 + 6 * 8 * 8) * 8
        );
    }

    #[test]
    fn two_d_shape_has_four_planes() {
        let s = IndexShape::new([8, 8, 1], 2, 2);
        let v = CellVariable::new("q", 1, Metadata::WITH_FLUXES, &s);
        assert_eq!(v.data().shape(), [1, 1, 12, 12]);
        assert_eq!(v.planes().len(), 4);
        assert_eq!(v.planes()[3].shape(), [1, 1, 1, 8]);
        // The modeled layout still counts a z-face array, as Parthenon's.
        assert_eq!(v.nbytes(), (144 + 13 * 12 + 12 * 13 + 2 * 144) * 8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_rejected() {
        CellVariable::new("", 1, Metadata::NONE, &shape());
    }
}
