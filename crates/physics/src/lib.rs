//! # vibe-physics
//!
//! The physics-package library: concrete [`Package`] implementations
//! beyond the Burgers benchmark, and the closed roster of every shipped
//! package — [`PACKAGES`] names them, [`resolve`] builds one by name (as
//! Parthenon's `ProcessPackages` does). Layers that select physics at
//! runtime — through the one run description, `JobConfig.physics` —
//! resolve from here instead of naming concrete types. Adding a package
//! is a struct, one [`PACKAGES`] entry and one [`resolve`] arm.
//!
//! Shipped packages, spanning distinct roofline/AMR regimes:
//!
//! | name        | physics                      | regime                      |
//! |-------------|------------------------------|-----------------------------|
//! | `burgers`   | vector Burgers + scalars     | compute-heavy WENO5 (paper) |
//! | `advect`    | 3-axis linear advection      | comm-bound scaling probe    |
//! | `euler`     | compressible Euler, HLL      | shock-driven AMR churn      |
//! | `diffusion` | explicit scalar diffusion    | memory-bound, low AI        |
//!
//! [`Package`]: vibe_core::Package

use vibe_burgers::{BurgersPackage, BurgersParams};
use vibe_core::{BlockInfo, DynPackage, PackageSpec};
use vibe_field::{BlockData, VarId};
use vibe_mesh::index::IndexDomain;

pub mod advect;
pub mod diffusion;
pub mod euler;

pub use advect::{Advect, AdvectRecon};
pub use diffusion::DiffusionPackage;
pub use euler::EulerPackage;

/// Every package [`resolve`] builds, sorted.
pub const PACKAGES: [&str; 4] = ["advect", "burgers", "diffusion", "euler"];

/// Builds the package `spec.name` with the [`PackageSpec`] fields it uses
/// (scalar counts, refinement thresholds), defaulting the rest; `None` for
/// a name not in [`PACKAGES`].
pub fn resolve(spec: &PackageSpec) -> Option<DynPackage> {
    Some(match spec.name.as_str() {
        "advect" => Box::new(Advect {
            num_scalars: spec.num_scalars,
            refine_above: spec.refine_tol,
            deref_below: spec.deref_tol,
            ..Advect::default()
        }),
        "burgers" => Box::new(BurgersPackage::new(BurgersParams {
            num_scalars: spec.num_scalars,
            refine_tol: spec.refine_tol,
            deref_tol: spec.deref_tol,
            ..BurgersParams::default()
        })),
        "diffusion" => Box::new(DiffusionPackage {
            num_scalars: spec.num_scalars,
            refine_tol: spec.refine_tol,
            deref_tol: spec.deref_tol,
            ..DiffusionPackage::default()
        }),
        "euler" => Box::new(EulerPackage {
            refine_tol: spec.refine_tol,
            deref_tol: spec.deref_tol,
            ..EulerPackage::default()
        }),
        _ => return None,
    })
}

/// The largest jump of the first component of the scalar bundle `qid`
/// between an interior cell and its lower neighbour along each active
/// axis: the refinement indicator of the scalar packages.
fn max_lower_jump(data: &BlockData, qid: VarId) -> f64 {
    let shape = *data.shape();
    let dim = shape.dim();
    let [ix, iy, iz] = [0, 1, 2].map(|d| shape.range(d, IndexDomain::Interior));
    let q = data.var(qid).data();
    let mut max_jump: f64 = 0.0;
    for k in iz.iter() {
        for j in iy.iter() {
            for i in ix.iter() {
                let here = q.get(0, k as usize, j as usize, i as usize);
                let mut consider = |other: f64| {
                    max_jump = max_jump.max((here - other).abs());
                };
                consider(q.get(0, k as usize, j as usize, (i - 1) as usize));
                if dim >= 2 {
                    consider(q.get(0, k as usize, (j - 1) as usize, i as usize));
                }
                if dim >= 3 {
                    consider(q.get(0, (k - 1) as usize, j as usize, i as usize));
                }
            }
        }
    }
    max_jump
}

/// The interior mass of the first component of the scalar bundle `qid`.
fn scalar_mass(info: &BlockInfo, data: &BlockData, qid: VarId) -> f64 {
    let shape = *data.shape();
    let [ix, iy, iz] = [0, 1, 2].map(|d| shape.range(d, IndexDomain::Interior));
    let q = data.var(qid).data();
    let vol = info.geom.cell_volume();
    let mut total = 0.0;
    for k in iz.iter() {
        for j in iy.iter() {
            for i in ix.iter() {
                total += q.get(0, k as usize, j as usize, i as usize) * vol;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_core::{Driver, DriverParams, Package};
    use vibe_mesh::{Mesh, MeshParams};

    fn driver_for(name: &str, threads: usize) -> Driver<DynPackage> {
        let pkg = resolve(&PackageSpec::named(name)).unwrap();
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(3)
                .mesh_cells(16)
                .block_cells(8)
                .max_levels(2)
                .nghost(pkg.nghost())
                .deref_gap(4)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut d = Driver::new(
            mesh,
            pkg,
            DriverParams {
                host_threads: threads,
                cfl: 0.3,
                ..DriverParams::default()
            },
        );
        d.initialize_package();
        d
    }

    #[test]
    fn every_package_resolves_with_its_spec_tolerances() {
        assert!(
            PACKAGES.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        for name in PACKAGES {
            let spec = PackageSpec::named(name).with_tols(0.7, 0.01);
            let pkg = resolve(&spec).unwrap_or_else(|| panic!("{name} does not resolve"));
            assert_eq!(pkg.name(), name);
            let policy = pkg.refinement_policy();
            assert_eq!((policy.refine_tol, policy.deref_tol), (0.7, 0.01), "{name}");
        }
        assert!(resolve(&PackageSpec::named("mhd")).is_none());
    }

    #[test]
    fn every_package_passes_conformance() {
        for name in PACKAGES {
            let report = vibe_core::check_package(|threads| driver_for(name, threads))
                .unwrap_or_else(|e| panic!("package {name} failed conformance: {e}"));
            assert_eq!(report.package, name);
            assert!(report.flux_vars >= 1);
        }
    }

    /// Every shipped flux primitive — both Burgers reconstructions and
    /// both advection ones included — may be tiled at will.
    #[test]
    fn every_flux_primitive_is_partition_invariant() {
        let mut packages: Vec<DynPackage> = PACKAGES
            .iter()
            .map(|name| resolve(&PackageSpec::named(name)).unwrap())
            .collect();
        packages.push(Box::new(BurgersPackage::new(BurgersParams {
            recon: vibe_burgers::Reconstruction::Linear,
            num_scalars: 2,
            ..BurgersParams::default()
        })));
        packages.push(Box::new(Advect {
            recon: AdvectRecon::Upwind1,
            num_scalars: 3,
            ..Advect::default()
        }));
        for pkg in &packages {
            for dim in 1..=3 {
                for n in [4, 5, 8, 16] {
                    let slot = vibe_core::synthetic_block(pkg, dim, n, 11);
                    vibe_core::check_partition_invariance(pkg, &slot, (dim * n) as u64)
                        .unwrap_or_else(|e| panic!("{} dim {dim}, {n} cells: {e}", pkg.name()));
                }
            }
        }
    }

    #[test]
    fn advect_preserves_scalar_mass() {
        // Static single-level mesh: with no regrid interpolation in play,
        // the conservative flux form must hold mass to round-off.
        let pkg = resolve(&PackageSpec::named("advect")).unwrap();
        let mesh = Mesh::new(
            MeshParams::builder()
                .dim(3)
                .mesh_cells(16)
                .block_cells(8)
                .max_levels(1)
                .nghost(pkg.nghost())
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut d = Driver::new(mesh, pkg, DriverParams::default());
        d.initialize_package();
        d.run_cycles(4);
        let hist = d.history();
        assert!(hist.len() >= 2);
        let first = hist.first().unwrap().1[0];
        let last = hist.last().unwrap().1[0];
        assert!(
            ((first - last) / first).abs() < 1e-10,
            "advect mass drifted: {first} -> {last}"
        );
    }

    #[test]
    fn diffusion_preserves_mass_and_decays_gradients() {
        let mut d = driver_for("diffusion", 1);
        let peak_before = d
            .slots()
            .iter()
            .map(|s| s.data.vars()[0].data().max_abs())
            .fold(0.0, f64::max);
        d.run_cycles(6);
        let hist = d.history();
        let first = hist.first().unwrap().1[0];
        let last = hist.last().unwrap().1[0];
        assert!(
            ((first - last) / first).abs() < 1e-10,
            "diffusion mass drifted: {first} -> {last}"
        );
        let peak_after = d
            .slots()
            .iter()
            .map(|s| s.data.vars()[0].data().max_abs())
            .fold(0.0, f64::max);
        assert!(
            peak_after < peak_before,
            "diffusion peak grew: {peak_before} -> {peak_after}"
        );
    }

    #[test]
    fn euler_blast_conserves_mass_and_energy_and_refines() {
        let mut d = driver_for("euler", 1);
        let blocks_before = d.mesh().num_blocks();
        d.run_cycles(6);
        let hist = d.history();
        let (m0, e0) = (hist.first().unwrap().1[0], hist.first().unwrap().1[1]);
        let (m1, e1) = (hist.last().unwrap().1[0], hist.last().unwrap().1[1]);
        assert!(((m0 - m1) / m0).abs() < 1e-10, "mass drifted: {m0} -> {m1}");
        assert!(
            ((e0 - e1) / e0).abs() < 1e-10,
            "energy drifted: {e0} -> {e1}"
        );
        // The blast pulse refines the initial hierarchy.
        assert!(
            d.mesh().num_blocks() >= blocks_before,
            "euler lost blocks without shocks"
        );
    }

    #[test]
    fn upwind1_advect_also_conforms() {
        let make = |threads: usize| {
            let pkg: DynPackage = Box::new(Advect {
                recon: AdvectRecon::Upwind1,
                ..Advect::default()
            });
            let mesh = Mesh::new(
                MeshParams::builder()
                    .dim(2)
                    .mesh_cells(32)
                    .block_cells(8)
                    .max_levels(2)
                    .nghost(pkg.nghost())
                    .deref_gap(4)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let mut d = Driver::new(
                mesh,
                pkg,
                DriverParams {
                    host_threads: threads,
                    cfl: 0.3,
                    ..DriverParams::default()
                },
            );
            d.initialize_package();
            d
        };
        vibe_core::check_package(make).unwrap();
    }
}
