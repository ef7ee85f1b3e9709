//! The additive-identity trait shared by the generic kernels.
//!
//! `im2col` padding and GEMM panel padding both need "the zero of the element
//! type" without pulling in a numerics crate; this two-line trait is the
//! entire requirement.

/// Types with an additive identity, usable as padding in packed buffers.
pub trait Zero: Copy {
    /// The additive identity (`0` / `0.0`).
    const ZERO: Self;
}

impl Zero for f32 {
    const ZERO: Self = 0.0;
}

impl Zero for f64 {
    const ZERO: Self = 0.0;
}

impl Zero for i8 {
    const ZERO: Self = 0;
}

impl Zero for u8 {
    const ZERO: Self = 0;
}

impl Zero for i32 {
    const ZERO: Self = 0;
}
