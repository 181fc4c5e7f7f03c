//! Name-based package resolution: the framework half of Parthenon's
//! `Packages_t` map. A [`PackageRegistry`] holds factories keyed by
//! package name; every layer that selects physics (the service's
//! `JobConfig.physics`, the benchmark scenario matrix, the CI gates)
//! resolves a boxed [`Package`] from a [`PackageSpec`] instead of
//! hard-coding one concrete type.
//!
//! Core defines the registry but registers nothing: physics crates (e.g.
//! `vibe-physics`) populate a registry with their packages.

use std::collections::BTreeMap;
use std::fmt;

use vibe_exec::ExecCtx;
use vibe_field::BlockData;
use vibe_mesh::{AmrFlag, IndexShape};
use vibe_prof::Recorder;

use crate::block::{BlockInfo, BlockSlot};
use crate::package::{Package, RefinementPolicy};
use crate::sweep::FluxTile;

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

    fn default_cfl(&self) -> f64 {
        (**self).default_cfl()
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

    fn fill_derived(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) {
        (**self).fill_derived(pack, exec, rec)
    }

    fn estimate_dt(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) -> f64 {
        (**self).estimate_dt(pack, exec, rec)
    }

    fn tag_refinement(
        &self,
        pack: &mut [&mut BlockSlot],
        exec: ExecCtx,
        rec: &mut Recorder,
    ) -> Vec<AmrFlag> {
        (**self).tag_refinement(pack, exec, rec)
    }

    fn history_contributions(
        &self,
        pack: &mut [&mut BlockSlot],
        exec: ExecCtx,
        rec: &mut Recorder,
    ) -> Vec<Vec<f64>> {
        (**self).history_contributions(pack, exec, rec)
    }

    fn history(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) -> Vec<f64> {
        (**self).history(pack, exec, rec)
    }
}

/// Problem-level parameters a factory may honor when instantiating its
/// package. Fields a package has no use for are simply ignored, so one
/// spec shape serves every package.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageSpec {
    /// Registry key to resolve.
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

/// Resolution failure: the requested name is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No factory under `requested`; `registered` lists the valid names.
    UnknownPackage {
        requested: String,
        registered: Vec<String>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownPackage {
                requested,
                registered,
            } => write!(
                f,
                "unknown physics package {requested:?} (registered: {})",
                registered.join(", ")
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

type Factory = Box<dyn Fn(&PackageSpec) -> DynPackage + Send + Sync>;

/// Package factories keyed by name. `BTreeMap` keeps [`Self::names`] in a
/// deterministic order for error messages, gate tables, and docs.
#[derive(Default)]
pub struct PackageRegistry {
    factories: BTreeMap<String, Factory>,
}

impl fmt::Debug for PackageRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackageRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl PackageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `factory` under `name`, replacing any previous entry.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&PackageSpec) -> DynPackage + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Box::new(factory));
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// Instantiates the package `spec.name` with `spec`'s parameters.
    pub fn resolve(&self, spec: &PackageSpec) -> Result<DynPackage, RegistryError> {
        match self.factories.get(&spec.name) {
            Some(factory) => Ok(factory(spec)),
            None => Err(RegistryError::UnknownPackage {
                requested: spec.name.clone(),
                registered: self.names(),
            }),
        }
    }

    /// Instantiates `name` with the default [`PackageSpec::named`] spec.
    pub fn resolve_name(&self, name: &str) -> Result<DynPackage, RegistryError> {
        self.resolve(&PackageSpec::named(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_package::Advect;

    fn toy_registry() -> PackageRegistry {
        let mut reg = PackageRegistry::new();
        reg.register("advect", |spec| {
            Box::new(Advect {
                refine_above: spec.refine_tol,
                deref_below: spec.deref_tol,
            })
        });
        reg
    }

    #[test]
    fn resolves_registered_package_with_spec_params() {
        let reg = toy_registry();
        let spec = PackageSpec::named("advect").with_tols(0.7, 0.01);
        let pkg = reg.resolve(&spec).unwrap();
        assert_eq!(pkg.name(), "advect");
        let policy = pkg.refinement_policy();
        assert_eq!(policy.refine_tol, 0.7);
        assert_eq!(policy.deref_tol, 0.01);
    }

    #[test]
    fn unknown_name_lists_registered_packages() {
        let reg = toy_registry();
        let err = match reg.resolve_name("mhd") {
            Ok(_) => panic!("unknown name resolved"),
            Err(e) => e,
        };
        let RegistryError::UnknownPackage {
            requested,
            registered,
        } = err.clone();
        assert_eq!(requested, "mhd");
        assert_eq!(registered, vec!["advect".to_string()]);
        assert!(err.to_string().contains("mhd"));
        assert!(err.to_string().contains("advect"));
    }

    #[test]
    fn boxed_package_forwards_hooks() {
        let reg = toy_registry();
        let pkg = reg.resolve_name("advect").unwrap();
        assert_eq!(pkg.nghost(), 2);
        assert!(pkg.default_cfl() > 0.0);
        assert_eq!(pkg.history_labels(), vec!["q_mass"]);
    }
}
