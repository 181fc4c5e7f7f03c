//! Inter-level resampling primitives: the slope limiter of the
//! prolongation and the restriction average. Both operators run as
//! [`RowProgram`](crate::RowProgram) kernels.

/// The minmod slope limiter: the smaller-magnitude of `a` and `b` when they
/// agree in sign, zero otherwise. Guarantees monotone (non-oscillatory)
/// linear reconstruction at fine-coarse boundaries.
///
/// ```
/// use vibe_field::minmod;
///
/// assert_eq!(minmod(1.0, 2.0), 1.0);
/// assert_eq!(minmod(-3.0, -2.0), -2.0);
/// assert_eq!(minmod(1.0, -1.0), 0.0);
/// ```
#[inline]
pub fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Restriction: volume average of the fine cells covering one coarse cell.
/// In Parthenon this runs on the sender before communication, reducing the
/// data volume of fine-to-coarse ghost exchanges.
///
/// # Panics
///
/// Panics if `fine` is empty.
#[inline]
pub fn restrict_average(fine: &[f64]) -> f64 {
    assert!(
        !fine.is_empty(),
        "restriction needs at least one fine value"
    );
    fine.iter().sum::<f64>() / fine.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmod_basics() {
        assert_eq!(minmod(2.0, 3.0), 2.0);
        assert_eq!(minmod(3.0, 2.0), 2.0);
        assert_eq!(minmod(-1.0, -4.0), -1.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
        assert_eq!(minmod(5.0, 0.0), 0.0);
        assert_eq!(minmod(-2.0, 2.0), 0.0);
    }

    #[test]
    fn restrict_average_is_mean() {
        assert_eq!(restrict_average(&[1.0, 3.0]), 2.0);
        assert_eq!(restrict_average(&[2.0; 8]), 2.0);
    }

    #[test]
    fn restriction_conserves_total() {
        // Sum over fine cells equals coarse value times fine count.
        let fine = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let coarse = restrict_average(&fine);
        let fine_total: f64 = fine.iter().sum();
        assert!((coarse * 8.0 - fine_total).abs() < 1e-14);
    }
}
