//! Symmetric INT8 tensors with power-of-two scales.
//!
//! The Xilinx DPU represents every tensor as `real = int8 * 2^(-fix_pos)`
//! where `fix_pos` is the "fix position" chosen at quantisation time. All
//! rescaling then reduces to arithmetic shifts — this module implements that
//! arithmetic exactly so the functional DPU executor bit-matches what a real
//! compiled xmodel would produce.

use crate::shape::Shape4;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Weight bitwidth of a quantised kernel. Activations stay INT8 throughout
/// (the DPU datapath is 8-bit); `W4` narrows only the weights, i.e. W4A8.
///
/// A `W4` tensor travels as `i8` values — confined to `[-8, 7]` — in a
/// [`QTensor`], and the host runs it on the INT8 kernels, so every code path
/// executes mixed graphs unchanged and bit-exactly. Only the DPU's deployed
/// weights are two per byte (its cost model's weight bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bitwidth {
    /// 8-bit weights (the paper's baseline: W8A8).
    W8,
    /// 4-bit weights, 8-bit activations (W4A8).
    W4,
}

impl Bitwidth {
    /// Bits per weight.
    pub fn bits(self) -> u32 {
        match self {
            Bitwidth::W8 => 8,
            Bitwidth::W4 => 4,
        }
    }

    /// Largest representable quantised value.
    pub fn max_q(self) -> i32 {
        match self {
            Bitwidth::W8 => 127,
            Bitwidth::W4 => 7,
        }
    }

    /// Smallest representable quantised value.
    pub fn min_q(self) -> i32 {
        match self {
            Bitwidth::W8 => -128,
            Bitwidth::W4 => -8,
        }
    }
}

/// A quantised NCHW tensor: `real = data[i] * 2^(-fix_pos)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QTensor {
    shape: Shape4,
    data: Vec<i8>,
    fix_pos: i32,
}

impl QTensor {
    /// Wraps a raw buffer.
    pub fn from_vec(shape: Shape4, data: Vec<i8>, fix_pos: i32) -> Self {
        assert_eq!(data.len(), shape.len(), "buffer/shape mismatch");
        Self { shape, data, fix_pos }
    }

    /// Shape accessor.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Fix position (`real = int * 2^(-fix_pos)`).
    pub fn fix_pos(&self) -> i32 {
        self.fix_pos
    }

    /// Raw INT8 buffer.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn data_mut(&mut self) -> &mut [i8] {
        &mut self.data
    }

    /// Quantises an `f32` tensor at the given fix position
    /// (round-to-nearest-even, saturating to `[-128, 127]`).
    pub fn quantize(t: &Tensor, fix_pos: i32) -> Self {
        Self::quantize_bits(t, fix_pos, Bitwidth::W8)
    }

    /// [`QTensor::quantize`] saturating to the given bitwidth's range
    /// (`[-8, 7]` for `W4`). The result is still stored as `i8`.
    pub fn quantize_bits(t: &Tensor, fix_pos: i32, bits: Bitwidth) -> Self {
        let scale = (fix_pos as f32).exp2();
        let (lo, hi) = (bits.min_q() as f32, bits.max_q() as f32);
        let data = t
            .data()
            .iter()
            .map(|&v| {
                let q = (v * scale).round_ties_even();
                q.clamp(lo, hi) as i8
            })
            .collect();
        Self { shape: t.shape(), data, fix_pos }
    }

    /// Reconstructs the `f32` tensor.
    pub fn dequantize(&self) -> Tensor {
        let scale = (-self.fix_pos as f32).exp2();
        Tensor::from_vec(self.shape, self.data.iter().map(|&v| v as f32 * scale).collect())
    }

    /// Worst-case absolute quantisation error at this fix position (half ULP),
    /// ignoring saturation.
    pub fn quantum(&self) -> f32 {
        (-self.fix_pos as f32).exp2() * 0.5
    }
}

/// A borrowed quantised tensor: shape and fix position over a slice of a
/// larger INT8 buffer (the planned executor's arena). Valid only until
/// the arena runs another frame; copy out with [`QTensorView::to_qtensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QTensorView<'a> {
    shape: Shape4,
    data: &'a [i8],
    fix_pos: i32,
}

impl<'a> QTensorView<'a> {
    /// Wraps a raw slice. Panics if the slice length mismatches the shape.
    pub fn new(shape: Shape4, data: &'a [i8], fix_pos: i32) -> Self {
        assert_eq!(data.len(), shape.len(), "view buffer/shape mismatch");
        Self { shape, data, fix_pos }
    }

    /// Shape accessor.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Fix position (`real = int * 2^(-fix_pos)`).
    pub fn fix_pos(&self) -> i32 {
        self.fix_pos
    }

    /// Raw INT8 buffer.
    pub fn data(&self) -> &'a [i8] {
        self.data
    }

    /// Copies the view into an owning [`QTensor`].
    pub fn to_qtensor(&self) -> QTensor {
        QTensor::from_vec(self.shape, self.data.to_vec(), self.fix_pos)
    }

    /// Reconstructs the `f32` tensor (see [`QTensor::dequantize`]).
    pub fn dequantize(&self) -> Tensor {
        let scale = (-self.fix_pos as f32).exp2();
        Tensor::from_vec(self.shape, self.data.iter().map(|&v| v as f32 * scale).collect())
    }
}

/// Picks the largest fix position such that `abs_max` still fits in INT8,
/// i.e. `abs_max * 2^fp <= 127`. An `abs_max` of zero maps to the maximum
/// useful position for activations (15).
pub fn choose_fix_pos(abs_max: f32) -> i32 {
    choose_fix_pos_bits(abs_max, Bitwidth::W8)
}

/// [`choose_fix_pos`] for an arbitrary weight bitwidth: the largest fix
/// position such that `abs_max * 2^fp <= max_q(bits)` (7 for `W4`).
pub fn choose_fix_pos_bits(abs_max: f32, bits: Bitwidth) -> i32 {
    if abs_max <= 0.0 || !abs_max.is_finite() {
        return 15;
    }
    let fp = (bits.max_q() as f32 / abs_max).log2().floor() as i32;
    fp.clamp(-16, 15)
}

/// Requantises a 32-bit accumulator to INT8 with a right shift of `shift`
/// bits (round-half-away-from-zero, saturating) — the DPU's rescale step.
/// Negative `shift` left-shifts.
///
/// Everything stays in `i32`, so a store loop over it vectorises at the
/// accumulator's lane width, and it is exact on the whole `(acc, shift)`
/// domain: a right shift rounds the magnitude `u = |acc| <= 2^31`, where
/// `u >> (shift - 1)` keeps the half bit as its lowest bit and cannot
/// overflow; a left shift saturates `acc` to the `i8` range first (a
/// non-zero value shifted 8 places saturates either way).
#[inline(always)]
pub fn requantize_i32(acc: i32, shift: i32) -> i8 {
    requantize_wide(acc, shift) as i8
}

/// [`requantize_i32`] left in its `i32` lane (in the `i8` range), for a
/// store that widens the byte again: the quad-map store packs four of them
/// into one `u32` pixel without a narrowing round trip.
#[inline(always)]
pub(crate) fn requantize_wide(acc: i32, shift: i32) -> i32 {
    let v = if shift > 0 {
        let r = acc.unsigned_abs().checked_shr(shift as u32 - 1).unwrap_or(0);
        let q = ((r >> 1) + (r & 1)) as i32;
        if acc < 0 {
            -q
        } else {
            q
        }
    } else {
        acc.clamp(i8::MIN.into(), i8::MAX.into()) << shift.max(-8).unsigned_abs()
    };
    v.clamp(i8::MIN.into(), i8::MAX.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_roundtrip_error_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = Shape4::new(1, 2, 8, 8);
        let t = Tensor::from_vec(s, (0..s.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let fp = choose_fix_pos(t.abs_max());
        let q = QTensor::quantize(&t, fp);
        let d = q.dequantize();
        let quantum = q.quantum();
        for (a, b) in t.data().iter().zip(d.data()) {
            assert!((a - b).abs() <= quantum + 1e-6, "{a} vs {b} (quantum {quantum})");
        }
    }

    #[test]
    fn choose_fix_pos_covers_range() {
        // abs_max 1.0 -> 2^6 * 1.0 = 64 <= 127, 2^7 = 128 > 127 => fp = 6.
        assert_eq!(choose_fix_pos(1.0), 6);
        // Larger values need smaller (possibly negative) positions.
        assert_eq!(choose_fix_pos(127.0), 0);
        assert_eq!(choose_fix_pos(254.0), -1);
        // Tiny values saturate at 15.
        assert_eq!(choose_fix_pos(1e-9), 15);
        assert_eq!(choose_fix_pos(0.0), 15);
    }

    #[test]
    fn choose_fix_pos_never_saturates_abs_max() {
        for &m in &[0.1f32, 0.5, 0.99, 1.0, 3.7, 100.0, 1000.0] {
            let fp = choose_fix_pos(m);
            assert!(m * (fp as f32).exp2() <= 127.0 + 1e-3, "abs_max {m} fp {fp}");
            // And the next position up would overflow (within clamp range).
            if fp < 15 {
                assert!(m * ((fp + 1) as f32).exp2() > 127.0, "fp not maximal for {m}");
            }
        }
    }

    #[test]
    fn requantize_rounds_half_away_from_zero() {
        assert_eq!(requantize_i32(3, 1), 2); // 1.5 -> 2
        assert_eq!(requantize_i32(-3, 1), -2); // -1.5 -> -2
        assert_eq!(requantize_i32(5, 1), 3); // 2.5 -> 3
        assert_eq!(requantize_i32(4, 2), 1);
        assert_eq!(requantize_i32(100, 0), 100);
    }

    #[test]
    fn requantize_saturates() {
        assert_eq!(requantize_i32(1 << 20, 4), 127);
        assert_eq!(requantize_i32(-(1 << 20), 4), -128);
        assert_eq!(requantize_i32(100, -2), 127); // left shift overflow saturates
    }

    /// The scalar definitions the vectorised kernels replace.
    fn requantize_i64_reference(acc: i32, shift: i32) -> i8 {
        let v: i64 = if shift > 0 {
            let acc = acc as i64;
            let half = 1i64 << (shift - 1);
            if acc >= 0 {
                (acc + half) >> shift
            } else {
                -((-acc + half) >> shift)
            }
        } else {
            (acc as i64) << (-shift)
        };
        v.clamp(i8::MIN as i64, i8::MAX as i64) as i8
    }

    /// The `i32` form is the `i64` one on the whole accumulator domain, for
    /// every shift the requantiser sees and past it.
    #[test]
    fn requantize_i32_matches_i64_form() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        for shift in -8..=31 {
            let mut accs = vec![i32::MIN, i32::MIN + 1, i32::MAX, i32::MAX - 1, -1, 0, 1];
            accs.extend([-128, 127, -129, 128]);
            if shift > 0 {
                // The half boundaries: k * 2^s ± 2^(s-1) and one either side.
                let (one, half) = (1i64 << shift, 1i64 << (shift - 1));
                for k in [-200i64, -129, -128, -3, -1, 0, 1, 3, 127, 128, 200] {
                    for d in [-half - 1, -half, -half + 1, half - 1, half, half + 1] {
                        let v = k * one + d;
                        if let Ok(v) = i32::try_from(v) {
                            accs.push(v);
                        }
                    }
                }
            }
            accs.extend((0..2000).map(|_| rng.gen::<i32>()));
            accs.extend((0..2000).map(|_| rng.gen_range(-(1 << 16)..(1 << 16))));
            for acc in accs {
                assert_eq!(
                    requantize_i32(acc, shift),
                    requantize_i64_reference(acc, shift),
                    "acc {acc} shift {shift}"
                );
            }
        }
        // Past the range: everything rounds to zero but `i32::MIN >> 32`.
        for shift in [32, 33, 40] {
            for acc in [i32::MIN, i32::MIN + 1, i32::MAX, -1, 1] {
                assert_eq!(requantize_i32(acc, shift), requantize_i64_reference(acc, shift));
            }
        }
    }

    #[test]
    fn saturation_on_quantize() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![100.0, -100.0, 0.5]);
        let q = QTensor::quantize(&t, 3); // scale 8 -> 800 saturates
        assert_eq!(q.data(), &[127, -128, 4]);
    }

    #[test]
    fn choose_fix_pos_bits_w4_covers_range() {
        // abs_max 1.0 -> 2^2 * 1.0 = 4 <= 7, 2^3 = 8 > 7 => fp = 2.
        assert_eq!(choose_fix_pos_bits(1.0, Bitwidth::W4), 2);
        assert_eq!(choose_fix_pos_bits(7.0, Bitwidth::W4), 0);
        assert_eq!(choose_fix_pos_bits(14.0, Bitwidth::W4), -1);
        assert_eq!(choose_fix_pos_bits(0.0, Bitwidth::W4), 15);
        // W8 must agree with the original helper.
        for &m in &[0.1f32, 1.0, 3.7, 100.0] {
            assert_eq!(choose_fix_pos_bits(m, Bitwidth::W8), choose_fix_pos(m));
        }
    }

    #[test]
    fn quantize_bits_w4_saturates_to_nibble_range() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![100.0, -100.0, 0.5, -0.5]);
        let q = QTensor::quantize_bits(&t, 3, Bitwidth::W4); // scale 8
        assert_eq!(q.data(), &[7, -8, 4, -4]);
        // Every W4 value fits in one signed nibble.
        for &v in q.data() {
            assert!((-8..=7).contains(&(v as i32)));
        }
    }

    #[test]
    fn quantize_is_round_to_nearest_even() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![0.5, 1.5, 2.5, -0.5]);
        let q = QTensor::quantize(&t, 0);
        assert_eq!(q.data(), &[0, 2, 2, 0]);
    }
}
