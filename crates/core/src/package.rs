//! The package interface: physics plugged into the framework driver.

use vibe_exec::ghost_byte_multiplier;
use vibe_field::BlockData;
use vibe_mesh::{AmrFlag, IndexShape};

use crate::block::BlockInfo;
use crate::sweep::FluxTile;

/// The two flux nodes of a stage in the cycle graph. Both record their
/// share of the `CalculateFluxes` launch — `Interior` the faces whose
/// stencils stay inside the interior, which a device could compute while
/// ghost messages are in flight, `Exterior` the rest — as inputs of the
/// platform model and the timeline simulator. On the host a block is not
/// split by face: each node visits whole blocks, once
/// ([`crate::boundary::ghost_visit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FluxPhase {
    /// Visits the blocks whose every inbound boundary is filled directly
    /// from a resident neighbor, while messages are in flight.
    Interior,
    /// Visits the blocks that needed a delivery, once everything arrived.
    Exterior,
}

/// Refinement thresholds a package reports through
/// [`Package::refinement_policy`]; the driver tags every block with
/// [`RefinementPolicy::flag`] of its [`Package::refinement_indicator`], so
/// the policy tooling reads is the one the mesh adapts by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementPolicy {
    /// A block whose indicator exceeds this is tagged `Refine`.
    pub refine_tol: f64,
    /// A block whose indicator falls below this is tagged `Derefine`.
    pub deref_tol: f64,
}

impl RefinementPolicy {
    /// The flag of a block with refinement indicator `indicator`: `Refine`
    /// above `refine_tol`, else `Derefine` below `deref_tol`, else `Same`
    /// (a NaN indicator compares false both ways, so it keeps the block).
    pub fn flag(&self, indicator: f64) -> AmrFlag {
        if indicator > self.refine_tol {
            AmrFlag::Refine
        } else if indicator < self.deref_tol {
            AmrFlag::Derefine
        } else {
            AmrFlag::Same
        }
    }
}

impl Default for RefinementPolicy {
    fn default() -> Self {
        // Never refine, never derefine: a package that does not override
        // the policy hook reports a static-mesh policy.
        Self {
            refine_tol: f64::INFINITY,
            deref_tol: 0.0,
        }
    }
}

/// A physics package (Parthenon's `StateDescriptor`): registers variables
/// and provides the physics kernels, each for *one block* — Parthenon's
/// `FillDerivedBlock`, `EstimateTimestepBlock` and `CheckRefinementBlock`.
/// The framework owns everything about the pack: it sweeps blocks, tiles
/// and stages for the flux primitive [`Package::fill_fluxes`], and for the
/// other kernels it records one launch per rank's pack (Parthenon's packed
/// launches), maps the per-block hook over the pack on the host pool and
/// folds the results in a fixed order, so they are bitwise identical at
/// every thread count and rank partition. The per-block hooks take the
/// block's data mutably only because [`BlockData::id_of`] counts string
/// lookups (the §VIII-A `PackStrategy` ablation).
///
/// Beyond the kernels, a package owns its *problem setup*: the ghost-layer
/// width its stencils need ([`Package::nghost`]), its canonical initial
/// condition ([`Package::initial_condition`]), its refinement thresholds
/// ([`Package::refinement_policy`]), and labels for its history columns
/// ([`Package::history_labels`]). These hooks let every layer — driver,
/// rank shards, the service, the benchmarks — construct a problem from
/// nothing but a package resolved by name from the closed roster
/// `vibe_physics::PACKAGES`.
pub trait Package: Sync {
    /// Package name: its entry in `vibe_physics::PACKAGES` and the
    /// `physics` field of job configs.
    fn name(&self) -> &str;

    /// Registers this package's variables into a fresh block container.
    /// Called for every block at startup and for new blocks at regrid.
    fn register(&self, data: &mut BlockData);

    /// Ghost-layer width this package's stencils require; problem setup
    /// must build the mesh with at least this many ghost cells. The
    /// default (4) accommodates a WENO5 stencil radius of three plus the
    /// prolongation halo.
    fn nghost(&self) -> usize {
        4
    }

    /// Fills one block's initial condition (Parthenon's problem
    /// generator). [`crate::Driver::initialize_package`] applies it to
    /// every block and re-applies it while the initial hierarchy adapts.
    /// The default leaves registered variables at zero.
    fn initial_condition(&self, _info: &BlockInfo, _data: &mut BlockData) {}

    /// Labels of the history columns, in the order of the row
    /// [`Package::history_contributions`] fills.
    fn history_labels(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// The thresholds the driver tags [`Package::refinement_indicator`]
    /// with ([`RefinementPolicy::flag`]).
    fn refinement_policy(&self) -> RefinementPolicy {
        RefinementPolicy::default()
    }

    /// Cells the flux stencil reaches to either side of a face: a face
    /// between cells `p - 1` and `p` reads cells `p - r ..= p + r - 1`
    /// along its normal. At most [`Package::nghost`].
    fn stencil_radius(&self) -> usize;

    /// Byte multiplier of the recorded `CalculateFluxes` launch: the extra
    /// memory traffic of ghost-inclusive stencil reads over blocks of
    /// `shape` (a model input).
    fn flux_byte_multiplier(&self, shape: &IndexShape) -> f64 {
        ghost_byte_multiplier(shape.ncells()[0], shape.nghost(), shape.dim())
    }

    /// Fills the fluxes of every face bounding the cells of `tile` — for
    /// each direction from [`FluxTile::first_face`] on — into the tile, one
    /// value per component of every flux-bearing variable in registration
    /// order. Must be a pure function of the block's state: the framework
    /// calls it for whatever boxes tile the block, in any order, keeps the
    /// fluxes of the layers under corrected faces from whichever tile
    /// computed them, and relies on a face getting the same bits every
    /// time.
    fn fill_fluxes(&self, info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>);

    /// Recomputes one block's derived quantities from its evolved state.
    /// The default derives nothing.
    fn fill_derived(&self, _info: &BlockInfo, _data: &mut BlockData) {}

    /// The stable timestep of one block; the driver takes the minimum.
    fn estimate_dt(&self, info: &BlockInfo, data: &mut BlockData) -> f64;

    /// One block's refinement indicator (e.g. its largest first-derivative
    /// jump), which the driver compares with [`Package::refinement_policy`].
    fn refinement_indicator(&self, info: &BlockInfo, data: &mut BlockData) -> f64;

    /// Writes one block's contribution to each history column into `row`,
    /// which arrives zeroed with one entry per [`Package::history_labels`]
    /// label. The driver sums rows in *global gid order*, so the reduction
    /// order (and therefore the bitwise result, floating-point addition
    /// being non-associative) is independent of how blocks are partitioned
    /// across ranks. Default: no contribution.
    fn history_contributions(&self, _info: &BlockInfo, _data: &mut BlockData, _row: &mut [f64]) {}
}

/// A type-erased package, usable anywhere a concrete `P: Package` is —
/// `Driver<DynPackage>` on any transport, `RtSession<DynPackage>`.
pub type DynPackage = Box<dyn Package + Send + Sync>;

/// Boxed packages forward every trait method (including the defaulted
/// hooks, so concrete overrides are not lost behind the erasure).
impl Package for DynPackage {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn register(&self, data: &mut BlockData) {
        (**self).register(data)
    }

    fn nghost(&self) -> usize {
        (**self).nghost()
    }

    fn initial_condition(&self, info: &BlockInfo, data: &mut BlockData) {
        (**self).initial_condition(info, data)
    }

    fn history_labels(&self) -> Vec<&'static str> {
        (**self).history_labels()
    }

    fn refinement_policy(&self) -> RefinementPolicy {
        (**self).refinement_policy()
    }

    fn stencil_radius(&self) -> usize {
        (**self).stencil_radius()
    }

    fn flux_byte_multiplier(&self, shape: &IndexShape) -> f64 {
        (**self).flux_byte_multiplier(shape)
    }

    fn fill_fluxes(&self, info: &BlockInfo, data: &BlockData, tile: &mut FluxTile<'_>) {
        (**self).fill_fluxes(info, data, tile)
    }

    fn fill_derived(&self, info: &BlockInfo, data: &mut BlockData) {
        (**self).fill_derived(info, data)
    }

    fn estimate_dt(&self, info: &BlockInfo, data: &mut BlockData) -> f64 {
        (**self).estimate_dt(info, data)
    }

    fn refinement_indicator(&self, info: &BlockInfo, data: &mut BlockData) -> f64 {
        (**self).refinement_indicator(info, data)
    }

    fn history_contributions(&self, info: &BlockInfo, data: &mut BlockData, row: &mut [f64]) {
        (**self).history_contributions(info, data, row)
    }
}

/// Problem-level parameters a package is built with (`vibe_physics::resolve`).
/// Fields a package has no use for are simply ignored, so one spec shape
/// serves every package.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageSpec {
    /// Package name, one of `vibe_physics::PACKAGES`.
    pub name: String,
    /// Number of passively advected scalars (packages with a scalar bundle).
    pub num_scalars: usize,
    /// Refinement threshold override.
    pub refine_tol: f64,
    /// Derefinement threshold override.
    pub deref_tol: f64,
}

impl PackageSpec {
    /// A spec for `name` with the workload defaults the benchmarks use
    /// (one scalar, refine at 0.1, derefine below 0.025).
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            num_scalars: 1,
            refine_tol: 0.1,
            deref_tol: 0.025,
        }
    }

    /// Same spec with a different scalar count.
    pub fn with_num_scalars(mut self, num_scalars: usize) -> Self {
        self.num_scalars = num_scalars;
        self
    }

    /// Same spec with different refinement thresholds.
    pub fn with_tols(mut self, refine_tol: f64, deref_tol: f64) -> Self {
        self.refine_tol = refine_tol;
        self.deref_tol = deref_tol;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_package::Advect;

    #[test]
    fn boxed_package_forwards_hooks() {
        let pkg: DynPackage = Box::<Advect>::default();
        assert_eq!(pkg.nghost(), 2);
        assert_eq!(pkg.history_labels(), vec!["q_mass"]);
    }

    #[test]
    fn policy_flags_above_below_and_between() {
        let policy = RefinementPolicy {
            refine_tol: 0.5,
            deref_tol: 0.1,
        };
        let flags = [0.6, 0.5, 0.3, 0.1, 0.05, f64::NAN].map(|x| policy.flag(x));
        use AmrFlag::*;
        assert_eq!(flags, [Refine, Same, Same, Same, Derefine, Same]);
        let never = RefinementPolicy::default();
        assert_eq!(never.flag(f64::MAX), Same);
        assert_eq!(never.flag(0.0), Same);
    }
}
