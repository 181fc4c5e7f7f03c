//! Fixed-width f64 lane bundles for SIMD execution of face kernels.
//!
//! [`F64Lanes<W>`] wraps `[f64; W]` with elementwise arithmetic whose inner
//! loops are trivially countable and branch-free, the shape LLVM reliably
//! autovectorizes into packed AVX2/AVX-512 instructions when the build
//! targets a CPU that has them (see `.cargo/config.toml`). Each lane carries
//! one *independent* face (or cell) and every lane executes exactly the same
//! f64 operation sequence as the scalar kernel it replaces, so lane results
//! are bitwise identical to scalar results — the property the flux-path
//! fingerprint gates rely on.
//!
//! Conditionals become [`LaneMask`] selects: both sides are evaluated and
//! the mask picks per lane, matching the value (not the control flow) of the
//! scalar branch. Garbage on the unselected side (e.g. a division by zero)
//! is discarded by the select and never affects the result.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// `W` independent f64 values processed in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F64Lanes<const W: usize>(pub [f64; W]);

/// Per-lane boolean mask produced by lane comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct LaneMask<const W: usize>(pub [bool; W]);

impl<const W: usize> LaneMask<W> {
    /// Picks `t` where the mask is set, `f` elsewhere.
    #[inline(always)]
    pub fn select(self, t: F64Lanes<W>, f: F64Lanes<W>) -> F64Lanes<W> {
        F64Lanes(std::array::from_fn(
            |i| if self.0[i] { t.0[i] } else { f.0[i] },
        ))
    }

    /// Lane-wise AND.
    #[inline(always)]
    pub fn and(self, rhs: LaneMask<W>) -> LaneMask<W> {
        LaneMask(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }
}

impl<const W: usize> F64Lanes<W> {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; W])
    }

    /// Lane `i` set to `f(i)`.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Self(std::array::from_fn(f))
    }

    /// Loads `W` consecutive values starting at `src[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `W`.
    #[inline(always)]
    pub fn load(src: &[f64]) -> Self {
        Self(std::array::from_fn(|i| src[i]))
    }

    /// Stores the lanes into `dst[0..W]`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `W`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f64]) {
        dst[..W].copy_from_slice(&self.0);
    }

    /// Loads `W` consecutive values starting at `src[offset]` without
    /// bounds checks (checked in debug builds). For hot loops whose index
    /// ranges are established once per line rather than per load.
    ///
    /// # Safety
    ///
    /// `offset + W <= src.len()` must hold.
    #[inline(always)]
    pub unsafe fn load_at(src: &[f64], offset: usize) -> Self {
        debug_assert!(offset + W <= src.len());
        Self(std::array::from_fn(|i| *src.get_unchecked(offset + i)))
    }

    /// Stores the lanes into `dst[offset..offset + W]` without bounds
    /// checks (checked in debug builds).
    ///
    /// # Safety
    ///
    /// `offset + W <= dst.len()` must hold.
    #[inline(always)]
    pub unsafe fn store_at(self, dst: &mut [f64], offset: usize) {
        debug_assert!(offset + W <= dst.len());
        for (i, v) in self.0.into_iter().enumerate() {
            *dst.get_unchecked_mut(offset + i) = v;
        }
    }

    /// Lane `i`.
    #[inline(always)]
    pub fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    /// Lane-wise `f64::min` (same NaN/zero semantics as the scalar method).
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].min(rhs.0[i])))
    }

    /// Lane-wise `f64::max`.
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].max(rhs.0[i])))
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].abs()))
    }

    /// Lane-wise square root (correctly rounded, like the scalar one).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].sqrt()))
    }

    /// Lane-wise `self >= rhs`.
    #[inline(always)]
    pub fn ge(self, rhs: Self) -> LaneMask<W> {
        LaneMask(std::array::from_fn(|i| self.0[i] >= rhs.0[i]))
    }

    /// Lane-wise `self <= rhs`.
    #[inline(always)]
    pub fn le(self, rhs: Self) -> LaneMask<W> {
        LaneMask(std::array::from_fn(|i| self.0[i] <= rhs.0[i]))
    }

    /// Lane-wise `self > rhs`.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> LaneMask<W> {
        LaneMask(std::array::from_fn(|i| self.0[i] > rhs.0[i]))
    }

    /// Horizontal minimum over the lanes, reduced as a balanced tree.
    ///
    /// `min` over a set of non-NaN values is order-independent (the result
    /// is one specific element of the set), so this equals the sequential
    /// left fold bitwise — the property `estimate_dt` relies on.
    #[inline(always)]
    pub fn reduce_min(self) -> f64 {
        let mut vals = self.0;
        let mut width = W;
        while width > 1 {
            let half = width / 2;
            for i in 0..half {
                vals[i] = vals[i].min(vals[i + width - half]);
            }
            width -= half;
        }
        vals[0]
    }
}

impl<const W: usize> Add for F64Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl<const W: usize> Sub for F64Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] - rhs.0[i]))
    }
}

impl<const W: usize> Mul for F64Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] * rhs.0[i]))
    }
}

impl<const W: usize> Div for F64Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] / rhs.0[i]))
    }
}

impl<const W: usize> Neg for F64Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(std::array::from_fn(|i| -self.0[i]))
    }
}

impl<const W: usize> Mul<f64> for F64Lanes<W> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        Self(std::array::from_fn(|i| self.0[i] * rhs))
    }
}

/// Lane-wise minmod limiter, value-equal to [`crate::minmod`] per lane:
/// the smaller-magnitude argument when signs agree, zero otherwise.
#[inline(always)]
pub fn minmod_lanes<const W: usize>(a: F64Lanes<W>, b: F64Lanes<W>) -> F64Lanes<W> {
    F64Lanes(std::array::from_fn(|i| crate::minmod(a.0[i], b.0[i])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops_match_scalar() {
        let a = F64Lanes::<4>([1.0, -2.0, 3.5, 0.0]);
        let b = F64Lanes::<4>([0.5, 4.0, -1.0, 2.0]);
        assert_eq!((a + b).0, [1.5, 2.0, 2.5, 2.0]);
        assert_eq!((a - b).0, [0.5, -6.0, 4.5, -2.0]);
        assert_eq!((a * b).0, [0.5, -8.0, -3.5, 0.0]);
        for i in 0..4 {
            assert_eq!((a / b).0[i], a.0[i] / b.0[i]);
            assert_eq!(a.min(b).0[i], a.0[i].min(b.0[i]));
            assert_eq!(a.max(b).0[i], a.0[i].max(b.0[i]));
        }
        assert_eq!(a.abs().0, [1.0, 2.0, 3.5, 0.0]);
        assert_eq!((-a).0, [-1.0, 2.0, -3.5, -0.0]);
        assert_eq!((a * 2.0).0, [2.0, -4.0, 7.0, 0.0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let src = [9.0, 8.0, 7.0, 6.0, 5.0];
        let l = F64Lanes::<4>::load(&src);
        assert_eq!(l.0, [9.0, 8.0, 7.0, 6.0]);
        let mut dst = [0.0; 6];
        l.store(&mut dst[1..]);
        assert_eq!(dst, [0.0, 9.0, 8.0, 7.0, 6.0, 0.0]);
    }

    #[test]
    fn select_picks_per_lane() {
        let m = F64Lanes::<4>([1.0, -1.0, 0.0, 2.0]).ge(F64Lanes::<4>::splat(0.0));
        assert_eq!(m.0, [true, false, true, true]);
        let out = m.select(F64Lanes::<4>::splat(10.0), F64Lanes::<4>::splat(20.0));
        assert_eq!(out.0, [10.0, 20.0, 10.0, 10.0]);
    }

    #[test]
    fn masked_garbage_is_discarded() {
        // A select must isolate NaN/inf on the unselected side.
        let bad = F64Lanes::<4>::splat(1.0) / F64Lanes::<4>::splat(0.0);
        let m = F64Lanes::<4>::splat(1.0).gt(F64Lanes::<4>::splat(0.0));
        let out = m.select(F64Lanes::<4>::splat(3.0), bad);
        assert_eq!(out.0, [3.0; 4]);
    }

    #[test]
    fn reduce_min_matches_sequential_fold() {
        let v = F64Lanes::<8>([5.0, 2.0, 8.0, 2.0, 9.0, 1.5, 7.0, 1.5]);
        let seq = v.0.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(v.reduce_min(), seq);
        assert_eq!(v.reduce_min().to_bits(), seq.to_bits());
        let w = F64Lanes::<4>([4.0, 4.0, 4.0, 4.0]);
        assert_eq!(w.reduce_min(), 4.0);
    }

    #[test]
    fn reduce_handles_infinities() {
        let v = F64Lanes::<4>([f64::INFINITY, 3.0, f64::INFINITY, 2.0]);
        assert_eq!(v.reduce_min(), 2.0);
    }

    #[test]
    fn minmod_lanes_matches_scalar() {
        let a = F64Lanes::<4>([1.0, -3.0, 1.0, 0.0]);
        let b = F64Lanes::<4>([2.0, -2.0, -1.0, 5.0]);
        let m = minmod_lanes(a, b);
        for i in 0..4 {
            assert_eq!(m.0[i], crate::minmod(a.0[i], b.0[i]));
        }
    }
}
