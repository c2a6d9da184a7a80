//! Floating-point element types for dtype-generic tensors.
//!
//! [`Dtype`] abstracts the scalar arithmetic the tensor kernels and
//! backward closures need, so every op is written once against it. `f64`
//! is its only implementation: training and tape-free inference both run
//! in it. The element parameter `E` of [`Tensor`](crate::Tensor),
//! [`OwnedTape`](crate::OwnedTape) and [`Params`](crate::Params) stays
//! because downstream code names it: the `perfbench` harness spells
//! `Tensor<f64>`.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A tensor element type (implemented by `f64`).
///
/// The trait is deliberately small — just the scalar surface the kernels
/// in [`crate::tensor`] and the macro-generated ops in [`crate::ops`]
/// use.
pub trait Dtype:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Human-readable dtype name (`"f64"`).
    const NAME: &'static str;

    /// Converts from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64`.
    fn to_f64(self) -> f64;
    /// Converts from a `usize` count (used for means).
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }

    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Elementwise maximum.
    fn max(self, other: Self) -> Self;
    /// `true` when neither NaN nor infinite.
    fn is_finite(self) -> bool;
}

impl Dtype for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f64";

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}
