//! Numerical verification: convergence studies against exact solutions.
//!
//! With a uniform velocity field the vector Burgers system reduces to pure
//! advection of the passive scalars (`∂q/∂t + u·∇q = 0`), whose exact
//! solution is translation of the initial profile. Measuring the L1 error
//! against that translation at several resolutions verifies the accuracy
//! order of the full discretization (reconstruction + HLL + RK2).

use vibe_core::{Driver, DriverParams};
use vibe_field::BlockData;
use vibe_mesh::{Mesh, MeshParams};

use crate::package::{BurgersPackage, BurgersParams, Reconstruction};

const ADVECTION_SPEED: f64 = 1.0;

fn smooth_profile(x: f64) -> f64 {
    1.0 + 0.2 * (std::f64::consts::TAU * x).sin()
}

/// Runs 1D advection of a smooth profile at `cells` resolution until
/// `t_end` and returns the L1 error against the exact translated solution.
///
/// The velocity field is uniform (`u = 1`), so Burgers dynamics leave it
/// unchanged and the scalar advects exactly.
///
/// # Panics
///
/// Panics if `cells` is not a multiple of 16 (one block is 16 cells).
pub fn advection_l1_error(cells: usize, recon: Reconstruction, t_end: f64) -> f64 {
    let mesh = Mesh::new(
        MeshParams::builder()
            .dim(1)
            .mesh_cells(cells)
            .block_cells(16)
            .max_levels(1)
            .nghost(4)
            .build()
            .expect("valid 1D mesh"),
    )
    .expect("mesh");
    let pkg = BurgersPackage::new(BurgersParams {
        num_scalars: 1,
        recon,
        refine_tol: f64::INFINITY,
        deref_tol: 0.0,
    });
    let mut driver = Driver::new(
        mesh,
        pkg,
        DriverParams {
            cfl: 0.3,
            ..DriverParams::default()
        },
    );
    driver.initialize(|info, data: &mut BlockData| {
        let shape = *data.shape();
        let uid = data.id_of("u").unwrap();
        let qid = data.id_of("q").unwrap();
        for i in 0..shape.entire_d(0) {
            let x = info
                .geom
                .cell_center(i as i64 - shape.nghost_d(0) as i64, 0, 0)[0];
            data.var_mut(uid)
                .data_mut()
                .set(0, 0, 0, i, ADVECTION_SPEED);
            data.var_mut(uid).data_mut().set(1, 0, 0, i, 0.0);
            data.var_mut(uid).data_mut().set(2, 0, 0, i, 0.0);
            data.var_mut(qid)
                .data_mut()
                .set(0, 0, 0, i, smooth_profile(x));
        }
    });
    while driver.time() < t_end {
        driver.step();
    }
    let t = driver.time();

    // L1 error over all interior cells.
    let mut err = 0.0;
    let mut n = 0usize;
    for slot in driver.slots() {
        let shape = *slot.data.shape();
        let g = shape.nghost_d(0);
        let q = slot.data.vars()[1].data();
        for i in 0..shape.ncells()[0] {
            let x = slot.info.geom.cell_center(i as i64, 0, 0)[0];
            let exact = smooth_profile((x - ADVECTION_SPEED * t).rem_euclid(1.0));
            err += (q.get(0, 0, 0, g + i) - exact).abs();
            n += 1;
        }
    }
    err / n as f64
}

/// Least-squares convergence order from `(resolution, error)` pairs.
///
/// # Panics
///
/// Panics with fewer than two samples or non-positive errors.
pub fn convergence_order(samples: &[(usize, f64)]) -> f64 {
    assert!(samples.len() >= 2, "need at least two resolutions");
    // Fit log(err) = -p log(n) + c.
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .map(|&(n, e)| {
            assert!(e > 0.0, "errors must be positive");
            ((n as f64).ln(), e.ln())
        })
        .collect();
    let m = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
    -slope
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_reconstruction_is_second_order() {
        let samples: Vec<(usize, f64)> = [32usize, 64, 128]
            .iter()
            .map(|&n| (n, advection_l1_error(n, Reconstruction::Linear, 0.2)))
            .collect();
        let order = convergence_order(&samples);
        assert!(
            order > 1.5,
            "limited-linear should be ~2nd order, got {order:.2} from {samples:?}"
        );
    }

    #[test]
    fn weno5_beats_linear_on_smooth_data() {
        let e_lin = advection_l1_error(64, Reconstruction::Linear, 0.2);
        let e_weno = advection_l1_error(64, Reconstruction::Weno5, 0.2);
        assert!(
            e_weno < e_lin,
            "WENO5 {e_weno:.3e} must beat linear {e_lin:.3e}"
        );
    }

    #[test]
    fn weno5_converges_at_least_second_order() {
        // RK2 time integration caps the overall order near 2 even though
        // the spatial reconstruction is 5th order.
        let samples: Vec<(usize, f64)> = [32usize, 64, 128]
            .iter()
            .map(|&n| (n, advection_l1_error(n, Reconstruction::Weno5, 0.2)))
            .collect();
        let order = convergence_order(&samples);
        assert!(order > 1.7, "got {order:.2} from {samples:?}");
    }

    #[test]
    fn errors_are_small_in_absolute_terms() {
        let e = advection_l1_error(128, Reconstruction::Weno5, 0.1);
        assert!(e < 1e-4, "fine-grid WENO5 error {e:.3e}");
    }

    #[test]
    fn convergence_order_fits_exact_power_law() {
        let samples = [
            (32usize, 1.0 / 32.0f64.powi(2)),
            (64, 1.0 / 64.0f64.powi(2)),
            (128, 1.0 / 128.0f64.powi(2)),
        ];
        let order = convergence_order(&samples);
        assert!((order - 2.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "two resolutions")]
    fn order_needs_two_samples() {
        convergence_order(&[(32, 1.0)]);
    }
}
