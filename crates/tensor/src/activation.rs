//! Activation functions: ReLU and channel-wise softmax / argmax.

use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Elementwise ReLU.
pub fn relu(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    for v in y.data_mut() {
        *v = v.max(0.0);
    }
    y
}

/// Elementwise ReLU into a caller-owned output slice ([`relu`] bit for bit).
pub fn relu_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "buffer length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.max(0.0);
    }
}

/// ReLU backward: gradient passes where the forward *input* was positive.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(x.shape(), dy.shape());
    let mut dx = dy.clone();
    for (g, &xv) in dx.data_mut().iter_mut().zip(x.data()) {
        if xv <= 0.0 {
            *g = 0.0;
        }
    }
    dx
}

/// Softmax over the channel dimension, independently at each `(n, h, w)`
/// pixel — the form used by the SENECA output head (6 probability maps).
pub fn softmax_channels(x: &Tensor) -> Tensor {
    let mut y = Tensor::zeros(x.shape());
    softmax_channels_into(x.shape(), x.data(), y.data_mut());
    y
}

/// Channel softmax into a caller-owned output slice ([`softmax_channels`]
/// bit for bit; every output element is written, stale contents are fine).
pub fn softmax_channels_into(s: Shape4, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), s.len(), "input buffer/shape mismatch");
    assert_eq!(out.len(), s.len(), "output buffer size");
    let hw = s.hw();
    for (x_n, y_n) in x.chunks_exact(s.chw()).zip(out.chunks_exact_mut(s.chw())) {
        for pix in 0..hw {
            let mut maxv = f32::NEG_INFINITY;
            for c in 0..s.c {
                maxv = maxv.max(x_n[c * hw + pix]);
            }
            let mut denom = 0.0;
            for c in 0..s.c {
                let e = (x_n[c * hw + pix] - maxv).exp();
                y_n[c * hw + pix] = e;
                denom += e;
            }
            let inv = 1.0 / denom;
            for c in 0..s.c {
                y_n[c * hw + pix] *= inv;
            }
        }
    }
}

/// Backward of [`softmax_channels`]: given the forward output `y` and the
/// upstream gradient `dy`, returns `dx` where
/// `dx_c = y_c * (dy_c - Σ_k y_k dy_k)` per pixel.
pub fn softmax_channels_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    let s = y.shape();
    assert_eq!(s, dy.shape());
    let hw = s.hw();
    let mut dx = Tensor::zeros(s);
    let images = y.data().chunks_exact(s.chw()).zip(dy.data().chunks_exact(s.chw()));
    for ((y_n, dy_n), dx_n) in images.zip(dx.data_mut().chunks_exact_mut(s.chw())) {
        for pix in 0..hw {
            let mut dot = 0.0;
            for c in 0..s.c {
                dot += y_n[c * hw + pix] * dy_n[c * hw + pix];
            }
            for c in 0..s.c {
                dx_n[c * hw + pix] = y_n[c * hw + pix] * (dy_n[c * hw + pix] - dot);
            }
        }
    }
    dx
}

/// Per-pixel argmax over channels; returns `[N, 1, H, W]`-shaped labels as a
/// flat `Vec<u8>` of length `N*H*W`. This is the final SENECA prediction step.
pub fn argmax_channels(x: &Tensor) -> Vec<u8> {
    let s = x.shape();
    assert!(s.c <= u8::MAX as usize + 1);
    let hw = s.hw();
    let mut out = vec![0u8; s.n * hw];
    for (x_n, labels) in x.data().chunks_exact(s.chw()).zip(out.chunks_exact_mut(hw)) {
        for (pix, lbl) in labels.iter_mut().enumerate() {
            let mut best = x_n[pix];
            let mut best_c = 0u8;
            for c in 1..s.c {
                let v = x_n[c * hw + pix];
                if v > best {
                    best = v;
                    best_c = c as u8;
                }
            }
            *lbl = best_c;
        }
    }
    out
}

/// Argmax over channels for an INT8 tensor buffer (used on DPU outputs);
/// ties go to the lowest channel, as in [`argmax_channels`].
///
/// Plane-major: a running `best` row and the label row are updated by
/// compare-and-select one channel plane at a time, so every pass is a
/// contiguous, vectorisable walk.
pub fn argmax_channels_i8(shape: Shape4, data: &[i8]) -> Vec<u8> {
    assert_eq!(data.len(), shape.len());
    assert!(shape.c <= u8::MAX as usize + 1);
    let hw = shape.hw();
    let mut out = vec![0u8; shape.n * hw];
    for (x_n, labels) in data.chunks_exact(shape.chw()).zip(out.chunks_exact_mut(hw)) {
        let mut best = x_n[..hw].to_vec();
        for (c, plane) in x_n.chunks_exact(hw).enumerate().skip(1) {
            for ((b, l), &v) in best.iter_mut().zip(labels.iter_mut()).zip(plane) {
                let gt = v > *b;
                *b = if gt { v } else { *b };
                *l = if gt { c as u8 } else { *l };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![-1.0, 0.0, 2.0, 3.0]);
        let dy = Tensor::full(Shape4::new(1, 1, 1, 4), 1.0);
        assert_eq!(relu_backward(&x, &dy).data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn softmax_sums_to_one_per_pixel() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = Shape4::new(2, 6, 4, 4);
        let x = Tensor::from_vec(s, (0..s.len()).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        let y = softmax_channels(&x);
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    let sum: f32 = (0..s.c).map(|c| y.at(n, c, h, w)).sum();
                    assert!((sum - 1.0).abs() < 1e-5);
                    for c in 0..s.c {
                        assert!(y.at(n, c, h, w) > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = Tensor::from_vec(Shape4::new(1, 3, 1, 1), vec![1000.0, 1001.0, 999.0]);
        let y = softmax_channels(&x);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let x2 = Tensor::from_vec(Shape4::new(1, 3, 1, 1), vec![0.0, 1.0, -1.0]);
        let y2 = softmax_channels(&x2);
        for (a, b) in y.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_matches_numerical() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let s = Shape4::new(1, 4, 2, 2);
        let x = Tensor::from_vec(s, (0..s.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let g = Tensor::from_vec(s, (0..s.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let loss = |x: &Tensor| -> f32 {
            softmax_channels(x).data().iter().zip(g.data()).map(|(a, b)| a * b).sum()
        };
        let y = softmax_channels(&x);
        let dx = softmax_channels_backward(&y, &g);
        let eps = 1e-3;
        for i in 0..s.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    fn argmax_selects_peak_channel() {
        let mut x = Tensor::zeros(Shape4::new(1, 3, 2, 2));
        *x.at_mut(0, 2, 0, 0) = 1.0;
        *x.at_mut(0, 1, 1, 1) = 2.0;
        let labels = argmax_channels(&x);
        assert_eq!(labels, vec![2, 0, 0, 1]);
    }

    /// The per-pixel scalar definition the plane-major kernel replaces.
    fn argmax_channels_i8_reference(shape: Shape4, data: &[i8]) -> Vec<u8> {
        let hw = shape.hw();
        let mut out = vec![0u8; shape.n * hw];
        for (n, labels) in out.chunks_mut(hw).enumerate() {
            let x_n = &data[n * shape.chw()..(n + 1) * shape.chw()];
            for (pix, lbl) in labels.iter_mut().enumerate() {
                let mut best = x_n[pix];
                for c in 1..shape.c {
                    if x_n[c * hw + pix] > best {
                        best = x_n[c * hw + pix];
                        *lbl = c as u8;
                    }
                }
            }
        }
        out
    }

    /// Ties go to the lowest channel: values from a narrow range tie often.
    #[test]
    fn argmax_i8_ties_go_to_the_lowest_channel() {
        use rand::{Rng, SeedableRng};
        let s = Shape4::new(1, 3, 1, 4);
        let data = [5, 1, -128, 7, 5, 1, -128, 7, 0, 1, -128, 7];
        assert_eq!(argmax_channels_i8(s, &data), vec![0, 0, 0, 0]);
        let data = [5, 1, -128, 7, 6, 2, -127, 7, 6, 2, -127, 8];
        assert_eq!(argmax_channels_i8(s, &data), vec![1, 1, 1, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for s in [Shape4::new(2, 6, 5, 7), Shape4::new(2, 1, 3, 3), Shape4::new(1, 17, 9, 1)] {
            let data: Vec<i8> = (0..s.len()).map(|_| rng.gen_range(-2i8..2)).collect();
            assert_eq!(
                argmax_channels_i8(s, &data),
                argmax_channels_i8_reference(s, &data),
                "{s:?}"
            );
        }
    }

    #[test]
    fn argmax_i8_matches_f32() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let s = Shape4::new(2, 6, 3, 3);
        let data_i: Vec<i8> = (0..s.len()).map(|_| rng.gen_range(-100i8..100)).collect();
        let x = Tensor::from_vec(s, data_i.iter().map(|&v| v as f32).collect());
        assert_eq!(argmax_channels(&x), argmax_channels_i8(s, &data_i));
    }
}
