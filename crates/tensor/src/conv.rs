//! 2-D convolution, forward and backward, as implicit GEMMs.
//!
//! No pass materializes the column matrix — the im2col index math runs
//! inside the GEMM panel packs of the one strip-mined driver (see
//! [`crate::igemm`]). The backward pass is two more GEMMs on that driver:
//! `dX` is the forward conv of `dY` with the kernel flipped and `C_in`/`C_out`
//! swapped, and `dW = dY * col^T` gathers the transposed column matrix strip
//! by strip.

use crate::gemm::{GemmEpilogue, PackedA};
use crate::igemm::{sgemm_conv, sgemm_conv_packed, sgemm_conv_wgrad};
use crate::im2col::ConvGeom;
use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Forward 3x3, pad-1, stride-1 ("same") convolution, the only one the
/// U-Net has (Table II): `y = conv(x, w) + b`. The activation panels pack
/// straight from the feature map (implicit GEMM) and the bias rides in the
/// GEMM store.
///
/// * `x`: `[N, C_in, H, W]`
/// * `w`: `[C_out, C_in, 3, 3]`
/// * `b`: length `C_out` (pass an empty slice to skip the bias)
///
/// Returns `[N, C_out, H, W]`.
pub fn conv2d(x: &Tensor, w: &Tensor, b: &[f32]) -> Tensor {
    let (xs, ws) = (x.shape(), w.shape());
    assert_eq!(ws.c, xs.c, "C_in mismatch: weights {} input {}", ws.c, xs.c);
    assert_eq!((ws.h, ws.w), (3, 3), "3x3 kernel");
    assert!(b.is_empty() || b.len() == ws.n, "bias length");

    let geom = ConvGeom::same_3x3(xs);
    let out_shape = Shape4::new(xs.n, ws.n, xs.h, xs.w);
    let mut out = Tensor::zeros(out_shape);
    let epi = if b.is_empty() { GemmEpilogue::None } else { GemmEpilogue::Bias(b) };
    for n in 0..xs.n {
        let x_n = &x.data()[n * xs.chw()..(n + 1) * xs.chw()];
        let y_n = &mut out.data_mut()[n * out_shape.chw()..(n + 1) * out_shape.chw()];
        sgemm_conv(ws.n, w.data(), &geom, x_n, y_n, epi);
    }
    out
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct ConvGrads {
    /// Gradient w.r.t. the input, same shape as `x`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weights, same shape as `w`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, length `C_out`.
    pub db: Vec<f32>,
}

/// Backward of [`conv2d`]. Given the forward input `x`, the weights `w`, and
/// the upstream gradient `dy` (shaped like the forward output), computes
/// gradients for input, weights, and bias. At stride 1, `dX` is the "full"
/// conv of `dY` — padding `k - 1 - pad`, here 1 again — with the weights
/// flipped and transposed to `[C_in, C_out, 3, 3]`, which pack straight into
/// the `A` panels. Allocates only the gradients.
pub fn conv2d_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> ConvGrads {
    let xs = x.shape();
    let ws = w.shape();
    let ys = dy.shape();
    let geom = ConvGeom::same_3x3(xs);
    assert_eq!((ws.h, ws.w), (3, 3), "3x3 kernel");
    assert_eq!(ys, Shape4::new(xs.n, ws.n, xs.h, xs.w), "dy shaped like the forward output");

    let mut dw = Tensor::zeros(ws);
    let mut db = vec![0.0f32; ws.n];
    let mut dx = Tensor::zeros(xs);

    let dy_geom = ConvGeom::same_3x3(ys);
    let taps = 9;
    let w_data = w.data();
    // Row `ci`, column `(co, tap)` = `w[co, ci, k*k - 1 - tap]`.
    let flipped =
        |ci: usize, j: usize| w_data[((j / taps) * xs.c + ci) * taps + taps - 1 - j % taps];
    PackedA::with_scratch(xs.c, ws.n * taps, flipped, |w_t| {
        for (dx_n, dy_n) in
            dx.data_mut().chunks_exact_mut(xs.chw()).zip(dy.data().chunks_exact(ys.chw()))
        {
            sgemm_conv_packed(w_t, &dy_geom, dy_n, dx_n, GemmEpilogue::None);
        }
    });

    for (x_n, dy_n) in x.data().chunks_exact(xs.chw()).zip(dy.data().chunks_exact(ys.chw())) {
        sgemm_conv_wgrad(ws.n, dy_n, &geom, x_n, dw.data_mut());
        for (acc, plane) in db.iter_mut().zip(dy_n.chunks_exact(ys.hw())) {
            *acc += plane.iter().sum::<f32>();
        }
    }

    ConvGrads { dx, dw, db }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(shape: Shape4, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// Direct (quadruple-loop) reference "same" 3x3 convolution.
    fn conv_reference(x: &Tensor, w: &Tensor, b: &[f32]) -> Tensor {
        let xs = x.shape();
        let ws = w.shape();
        let mut out = Tensor::zeros(Shape4::new(xs.n, ws.n, xs.h, xs.w));
        for n in 0..xs.n {
            for co in 0..ws.n {
                for oy in 0..xs.h {
                    for ox in 0..xs.w {
                        let mut acc = if b.is_empty() { 0.0 } else { b[co] };
                        for ci in 0..xs.c {
                            for ky in 0..3 {
                                for kx in 0..3 {
                                    let iy = (oy + ky) as isize - 1;
                                    let ix = (ox + kx) as isize - 1;
                                    if iy >= 0
                                        && iy < xs.h as isize
                                        && ix >= 0
                                        && ix < xs.w as isize
                                    {
                                        acc += x.at(n, ci, iy as usize, ix as usize)
                                            * w.at(co, ci, ky, kx);
                                    }
                                }
                            }
                        }
                        *out.at_mut(n, co, oy, ox) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_direct_reference() {
        let x = rand_tensor(Shape4::new(2, 3, 8, 7), 1);
        let w = rand_tensor(Shape4::new(5, 3, 3, 3), 2);
        let b: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let y = conv2d(&x, &w, &b);
        let y_ref = conv_reference(&x, &w, &b);
        assert_eq!(y.shape(), y_ref.shape());
        for (a, r) in y.data().iter().zip(y_ref.data()) {
            assert!((a - r).abs() < 1e-4, "{a} vs {r}");
        }
    }

    #[test]
    fn forward_unit_kernel_identity() {
        // A 1x1-like identity built from a 3x3 kernel with centre 1.
        let x = rand_tensor(Shape4::new(1, 1, 6, 6), 3);
        let mut w = Tensor::zeros(Shape4::new(1, 1, 3, 3));
        *w.at_mut(0, 0, 1, 1) = 1.0;
        let y = conv2d(&x, &w, &[]);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let x = rand_tensor(Shape4::new(1, 2, 5, 5), 4);
        let w = rand_tensor(Shape4::new(3, 2, 3, 3), 5);
        let b = vec![0.05, -0.1, 0.2];
        // Loss = sum(y * g) for a fixed random g => dy = g.
        let g = rand_tensor(Shape4::new(1, 3, 5, 5), 6);
        let loss = |x: &Tensor, w: &Tensor, b: &[f32]| -> f32 {
            conv2d(x, w, b).data().iter().zip(g.data()).map(|(a, b)| a * b).sum()
        };

        let grads = conv2d_backward(&x, &w, &g);

        let eps = 1e-3;
        // Check a sample of input gradient entries.
        for &i in &[0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            let ana = grads.dx.data()[i];
            assert!((num - ana).abs() < 2e-2, "dx[{i}]: num {num} vs ana {ana}");
        }
        // Check a sample of weight gradients.
        for &i in &[0usize, 10, 31, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            let ana = grads.dw.data()[i];
            assert!((num - ana).abs() < 2e-2, "dw[{i}]: num {num} vs ana {ana}");
        }
        // Bias gradients.
        for co in 0..3 {
            let mut bp = b.clone();
            bp[co] += eps;
            let mut bm = b.clone();
            bm[co] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((num - grads.db[co]).abs() < 2e-2);
        }
    }
}
