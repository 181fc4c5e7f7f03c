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
    /// Carries face flux arrays (participates in flux divergence and
    /// fine-coarse flux correction).
    pub const WITH_FLUXES: Metadata = Metadata(1 << 3);
    /// Requires a second copy for multi-stage time integration.
    pub const TWO_STAGE: Metadata = Metadata(1 << 4);
    /// Participates in refinement tagging.
    pub const REFINEMENT: Metadata = Metadata(1 << 5);

    /// `true` if every flag in `other` is set in `self`.
    pub fn contains(&self, other: Metadata) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` if any flag in `other` is set in `self`.
    pub fn intersects(&self, other: Metadata) -> bool {
        self.0 & other.0 != 0
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

/// One named, multi-component, cell-centered variable on one block, with
/// optional face flux arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CellVariable {
    name: String,
    ncomp: usize,
    metadata: Metadata,
    data: Array4,
    fluxes: Option<[Array4; 3]>,
}

impl CellVariable {
    /// Creates a zero-initialized variable over `shape`'s ghost-inclusive
    /// extent with `ncomp` components. Face flux arrays (one per active
    /// dimension, extent +1 along the face normal) are allocated when
    /// `metadata` contains [`Metadata::WITH_FLUXES`].
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
        let e = [shape.entire_d(2), shape.entire_d(1), shape.entire_d(0)];
        let data = Array4::zeros([ncomp, e[0], e[1], e[2]]);
        let fluxes = metadata.contains(Metadata::WITH_FLUXES).then(|| {
            [
                Array4::zeros([ncomp, e[0], e[1], e[2] + 1]),
                Array4::zeros([ncomp, e[0], e[1] + 1, e[2]]),
                Array4::zeros([ncomp, e[0] + 1, e[1], e[2]]),
            ]
        });
        Self {
            name,
            ncomp,
            metadata,
            data,
            fluxes,
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

    /// Face flux array along dimension `d` (0 = x), if allocated.
    pub fn flux(&self, d: usize) -> Option<&Array4> {
        self.fluxes.as_ref().map(|f| &f[d])
    }

    /// Mutable face flux array along dimension `d`.
    pub fn flux_mut(&mut self, d: usize) -> Option<&mut Array4> {
        self.fluxes.as_mut().map(|f| &mut f[d])
    }

    /// All three face flux arrays, if allocated.
    pub fn fluxes(&self) -> Option<&[Array4; 3]> {
        self.fluxes.as_ref()
    }

    /// All three face flux arrays, mutably (disjoint borrows of several at
    /// once), if allocated.
    pub fn fluxes_mut(&mut self) -> Option<&mut [Array4; 3]> {
        self.fluxes.as_mut()
    }

    /// Simultaneous immutable cell data and mutable flux array along `d` —
    /// the borrow split flux kernels need (read the state, write the flux).
    ///
    /// # Panics
    ///
    /// Panics if the variable has no flux arrays.
    pub fn data_and_flux_mut(&mut self, d: usize) -> (&Array4, &mut Array4) {
        let flux = self.fluxes.as_mut().expect("variable carries flux arrays");
        (&self.data, &mut flux[d])
    }

    /// Simultaneous mutable cell data and immutable views of all allocated
    /// flux arrays — the borrow split the flux-divergence update needs
    /// (read all face fluxes, write the state).
    pub fn data_mut_and_fluxes(&mut self) -> (&mut Array4, [Option<&Array4>; 3]) {
        let fluxes = match self.fluxes.as_ref() {
            Some(f) => [Some(&f[0]), Some(&f[1]), Some(&f[2])],
            None => [None, None, None],
        };
        (&mut self.data, fluxes)
    }

    /// Total allocated bytes for data plus fluxes — the quantity the
    /// memory-footprint model attributes to Kokkos allocations.
    pub fn nbytes(&self) -> usize {
        self.data.nbytes()
            + self
                .fluxes
                .as_ref()
                .map_or(0, |f| f.iter().map(Array4::nbytes).sum())
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
        assert!(m.intersects(Metadata::DERIVED | Metadata::FILL_GHOST));
        assert!(!Metadata::NONE.intersects(m));
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
        assert!(v.flux(0).is_none());
    }

    #[test]
    fn with_fluxes_allocates_face_arrays() {
        let v = CellVariable::new(
            "u",
            2,
            Metadata::INDEPENDENT | Metadata::WITH_FLUXES,
            &shape(),
        );
        assert_eq!(v.flux(0).unwrap().shape(), [2, 16, 16, 17]);
        assert_eq!(v.flux(1).unwrap().shape(), [2, 16, 17, 16]);
        assert_eq!(v.flux(2).unwrap().shape(), [2, 17, 16, 16]);
    }

    #[test]
    fn nbytes_includes_fluxes() {
        let plain = CellVariable::new("a", 1, Metadata::NONE, &shape());
        let fluxed = CellVariable::new("b", 1, Metadata::WITH_FLUXES, &shape());
        assert!(fluxed.nbytes() > plain.nbytes());
        assert_eq!(plain.nbytes(), 16 * 16 * 16 * 8);
    }

    #[test]
    fn two_d_shape_flux_extents() {
        let s = IndexShape::new([8, 8, 1], 2, 2);
        let v = CellVariable::new("q", 1, Metadata::WITH_FLUXES, &s);
        assert_eq!(v.data().shape(), [1, 1, 12, 12]);
        assert_eq!(v.flux(2).unwrap().shape(), [1, 2, 12, 12]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_rejected() {
        CellVariable::new("", 1, Metadata::NONE, &shape());
    }
}
