//! 2x2 stride-2 transpose convolution (the SENECA decoder up-sampler).
//!
//! With kernel size equal to stride there is no output overlap: each output
//! pixel `(2h+ky, 2w+kx)` receives exactly one contribution per input
//! channel and belongs to exactly one kernel position `(ky, kx)`. That makes
//! the forward pass four independent 1x1 convolutions — lowered here to a
//! single GEMM per image (`[4*C_out, C_in] x [C_in, H*W]`, the input plane
//! already *is* the column matrix) with the stride-2 scatter fused into the
//! GEMM tile store (see [`crate::igemm`]), so no pre-scatter buffer is ever
//! materialized.

use crate::igemm::sgemm_tconv2x2;
use crate::shape::Shape4;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// Per-thread scratch for [`tconv2x2_into`]: the `[4*C_out, C_in]`
    /// repacked weights and the kidx-replicated bias — reused across calls
    /// so steady-state execution stays allocation-free.
    static TCONV_WORK: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Repacks `[C_in, C_out, 2, 2]` transpose-conv weights into the
/// `[4*C_out, C_in]` GEMM operand: row `co*4 + kidx` holds the `(ky, kx)`
/// tap of every input channel. The rows are **co-major** so that an
/// `MC = 32`-row GEMM block spans whole output planes — which is what lets
/// the scatter-fused tile store split the output race-free (see
/// [`crate::igemm`]). Shared by the f32 and INT8 paths (and the `seneca-ir`
/// weight-packing pass, which repacks once at model load). Row order only
/// permutes GEMM output rows, so the scattered result is unchanged.
pub fn repack_tconv_weights<T: Copy>(c_in: usize, c_out: usize, w: &[T], wk: &mut [T]) {
    assert_eq!(w.len(), c_in * c_out * 4, "weight size");
    assert!(wk.len() >= 4 * c_out * c_in, "repack buffer size");
    for co in 0..c_out {
        for kidx in 0..4 {
            let row = &mut wk[(co * 4 + kidx) * c_in..][..c_in];
            for (ci, v) in row.iter_mut().enumerate() {
                *v = w[(ci * c_out + co) * 4 + kidx];
            }
        }
    }
}

/// Stride-2 scatter of a materialized `[4*C_out, H*W]` pre-scatter GEMM
/// output `y` (co-major rows, matching [`repack_tconv_weights`]) into one
/// `[C_out, 2H, 2W]` image plane: position `(2iy+ky, 2ix+kx)` of plane `co`
/// comes from GEMM row `co*4 + kidx`, element `iy*W + ix`. The hot forward
/// paths fuse this store into the GEMM tiles; this standalone version is the
/// materialized reference the fused kernels are tested against. Parallel
/// over output planes; writes are disjoint. Every output element is written
/// exactly once, so `out` may hold stale data.
pub fn scatter_tconv2x2<T: Copy + Send + Sync>(
    c_out: usize,
    h: usize,
    w: usize,
    y: &[T],
    out: &mut [T],
) {
    let hw = h * w;
    let (oh, ow) = (2 * h, 2 * w);
    assert_eq!(y.len(), 4 * c_out * hw, "pre-scatter size");
    assert_eq!(out.len(), c_out * oh * ow, "output plane size");
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(co, y_plane)| {
        for kidx in 0..4 {
            let (ky, kx) = (kidx / 2, kidx % 2);
            let src = &y[(co * 4 + kidx) * hw..][..hw];
            for iy in 0..h {
                let srow = &src[iy * w..(iy + 1) * w];
                let drow = &mut y_plane[(2 * iy + ky) * ow..][..ow];
                for (d, &v) in drow[kx..].iter_mut().step_by(2).zip(srow) {
                    *d = v;
                }
            }
        }
    });
}

/// Forward transpose convolution.
///
/// * `x`: `[N, C_in, H, W]`
/// * `w`: `[C_in, C_out, 2, 2]` (PyTorch `ConvTranspose2d` weight layout)
/// * `b`: length `C_out` (empty slice skips the bias)
///
/// Returns `[N, C_out, 2H, 2W]`.
pub fn tconv2x2(x: &Tensor, w: &Tensor, b: &[f32]) -> Tensor {
    let xs = x.shape();
    let mut out = Tensor::zeros(Shape4::new(xs.n, w.shape().c, xs.h * 2, xs.w * 2));
    tconv2x2_into(xs, x.data(), w, b, out.data_mut());
    out
}

/// Transpose convolution into a caller-owned output slice ([`tconv2x2`]
/// semantics). The output buffer may hold stale data: every element is
/// overwritten by the scatter-fused GEMM store. Returns the output shape.
pub fn tconv2x2_into(xs: Shape4, x: &[f32], w: &Tensor, b: &[f32], out: &mut [f32]) -> Shape4 {
    let ws = w.shape();
    assert_eq!(x.len(), xs.len(), "input buffer/shape mismatch");
    assert_eq!(ws.n, xs.c, "C_in mismatch");
    assert_eq!((ws.h, ws.w), (2, 2), "kernel must be 2x2");
    let c_out = ws.c;
    assert!(b.is_empty() || b.len() == c_out);

    let out_shape = Shape4::new(xs.n, c_out, xs.h * 2, xs.w * 2);
    assert_eq!(out.len(), out_shape.len(), "output buffer size");
    let (h, wd) = (xs.h, xs.w);

    TCONV_WORK.with(|cell| {
        let (wk, bias4) = &mut *cell.borrow_mut();

        let wk_len = 4 * c_out * xs.c;
        if wk.len() < wk_len {
            wk.resize(wk_len, 0.0);
        }
        repack_tconv_weights(xs.c, c_out, w.data(), wk);

        // Bias replicated per kernel position so the fused store can index
        // it by GEMM row; each output pixel gets it exactly once.
        if !b.is_empty() {
            if bias4.len() < 4 * c_out {
                bias4.resize(4 * c_out, 0.0);
            }
            for (i, v) in bias4[..4 * c_out].iter_mut().enumerate() {
                *v = b[i / 4];
            }
        }
        let bias4 = if b.is_empty() { &[][..] } else { &bias4[..4 * c_out] };

        for n in 0..xs.n {
            let x_n = &x[n * xs.chw()..(n + 1) * xs.chw()];
            let out_n = &mut out[n * out_shape.chw()..(n + 1) * out_shape.chw()];
            // The `[C_in, H*W]` input plane is already the column matrix.
            sgemm_tconv2x2(c_out, xs.c, &wk[..wk_len], x_n, h, wd, bias4, out_n);
        }
    });
    out_shape
}

/// Gradients produced by [`tconv2x2_backward`].
#[derive(Debug, Clone)]
pub struct TconvGrads {
    /// Gradient w.r.t. the input.
    pub dx: Tensor,
    /// Gradient w.r.t. the weights.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias.
    pub db: Vec<f32>,
}

/// Backward pass of [`tconv2x2`].
pub fn tconv2x2_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> TconvGrads {
    let xs = x.shape();
    let ws = w.shape();
    let ys = dy.shape();
    let c_out = ws.c;
    assert_eq!(ys.c, c_out);
    assert_eq!((ys.h, ys.w), (xs.h * 2, xs.w * 2));

    let mut dx = Tensor::zeros(xs);
    let mut dw = Tensor::zeros(ws);
    let mut db = vec![0.0f32; c_out];
    let (h, wd) = (xs.h, xs.w);
    let ow = ys.w;

    // db
    for n in 0..ys.n {
        for (co, dbc) in db.iter_mut().enumerate() {
            let plane = &dy.data()[(n * c_out + co) * ys.hw()..(n * c_out + co + 1) * ys.hw()];
            *dbc += plane.iter().sum::<f32>();
        }
    }

    // dx[n,ci,iy,ix] = Σ_co Σ_k dy[n,co,2iy+ky,2ix+kx] * w[ci,co,ky,kx]
    let w_data = w.data();
    let dy_data = dy.data();
    dx.data_mut().par_chunks_mut(h * wd).enumerate().for_each(|(plane_idx, dx_plane)| {
        let n = plane_idx / xs.c;
        let ci = plane_idx % xs.c;
        for co in 0..c_out {
            let dy_plane = &dy_data[(n * c_out + co) * ys.hw()..(n * c_out + co + 1) * ys.hw()];
            let w_base = (ci * c_out + co) * 4;
            let (w00, w01, w10, w11) =
                (w_data[w_base], w_data[w_base + 1], w_data[w_base + 2], w_data[w_base + 3]);
            for iy in 0..h {
                let oy = iy * 2;
                for ix in 0..wd {
                    let ox = ix * 2;
                    dx_plane[iy * wd + ix] += dy_plane[oy * ow + ox] * w00
                        + dy_plane[oy * ow + ox + 1] * w01
                        + dy_plane[(oy + 1) * ow + ox] * w10
                        + dy_plane[(oy + 1) * ow + ox + 1] * w11;
                }
            }
        }
    });

    // dw[ci,co,ky,kx] = Σ_n,iy,ix x[n,ci,iy,ix] * dy[n,co,2iy+ky,2ix+kx]
    let x_data = x.data();
    dw.data_mut().par_chunks_mut(c_out * 4).enumerate().for_each(|(ci, dw_ci)| {
        for n in 0..xs.n {
            let x_plane = &x_data[(n * xs.c + ci) * h * wd..(n * xs.c + ci + 1) * h * wd];
            for co in 0..c_out {
                let dy_plane = &dy_data[(n * c_out + co) * ys.hw()..(n * c_out + co + 1) * ys.hw()];
                let acc = &mut dw_ci[co * 4..(co + 1) * 4];
                for iy in 0..h {
                    let oy = iy * 2;
                    for ix in 0..wd {
                        let ox = ix * 2;
                        let xv = x_plane[iy * wd + ix];
                        acc[0] += xv * dy_plane[oy * ow + ox];
                        acc[1] += xv * dy_plane[oy * ow + ox + 1];
                        acc[2] += xv * dy_plane[(oy + 1) * ow + ox];
                        acc[3] += xv * dy_plane[(oy + 1) * ow + ox + 1];
                    }
                }
            }
        }
    });

    TconvGrads { dx, dw, db }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(shape: Shape4, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn forward_doubles_spatial_dims() {
        let x = rand_tensor(Shape4::new(2, 3, 4, 5), 1);
        let w = rand_tensor(Shape4::new(3, 6, 2, 2), 2);
        let y = tconv2x2(&x, &w, &[]);
        assert_eq!(y.shape(), Shape4::new(2, 6, 8, 10));
    }

    #[test]
    fn forward_single_pixel_broadcasts_kernel() {
        // One input pixel -> the kernel replicated in the output block.
        let mut x = Tensor::zeros(Shape4::new(1, 1, 2, 2));
        *x.at_mut(0, 0, 1, 0) = 2.0;
        let w = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let y = tconv2x2(&x, &w, &[]);
        assert_eq!(y.at(0, 0, 2, 0), 2.0);
        assert_eq!(y.at(0, 0, 2, 1), 4.0);
        assert_eq!(y.at(0, 0, 3, 0), 6.0);
        assert_eq!(y.at(0, 0, 3, 1), 8.0);
        assert_eq!(y.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn bias_is_added_once_per_pixel() {
        let x = Tensor::zeros(Shape4::new(1, 2, 3, 3));
        let w = rand_tensor(Shape4::new(2, 4, 2, 2), 3);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let y = tconv2x2(&x, &w, &b);
        for co in 0..4 {
            for hh in 0..6 {
                for ww in 0..6 {
                    assert_eq!(y.at(0, co, hh, ww), b[co]);
                }
            }
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let x = rand_tensor(Shape4::new(1, 2, 3, 3), 4);
        let w = rand_tensor(Shape4::new(2, 3, 2, 2), 5);
        let g = rand_tensor(Shape4::new(1, 3, 6, 6), 6);
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            tconv2x2(x, w, &[]).data().iter().zip(g.data()).map(|(a, b)| a * b).sum()
        };
        let grads = tconv2x2_backward(&x, &w, &g);
        let eps = 1e-3;
        for &i in &[0usize, 5, 11, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - grads.dx.data()[i]).abs() < 2e-2);
        }
        for &i in &[0usize, 7, 13, 23] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - grads.dw.data()[i]).abs() < 2e-2);
        }
    }

    #[test]
    fn db_sums_upstream_gradient() {
        let x = rand_tensor(Shape4::new(2, 1, 2, 2), 7);
        let w = rand_tensor(Shape4::new(1, 2, 2, 2), 8);
        let dy = Tensor::full(Shape4::new(2, 2, 4, 4), 1.0);
        let grads = tconv2x2_backward(&x, &w, &dy);
        assert_eq!(grads.db, vec![32.0, 32.0]);
    }
}
