//! 2x2 stride-2 max pooling with argmax bookkeeping for the backward pass.

use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Output of [`maxpool2x2`]: the pooled tensor and, for every output pixel,
/// the index (0..4, row-major within the 2x2 window) of the selected input.
#[derive(Debug, Clone)]
pub struct PoolOut {
    /// Pooled tensor `[N, C, H/2, W/2]`.
    pub y: Tensor,
    /// Winning-window positions, one `u8` in `0..4` per output element.
    pub argmax: Vec<u8>,
}

/// 2x2/stride-2 max pool (floor semantics on odd sizes, like TF "valid").
/// Ties pick the first position in row-major window order (strict `>`).
pub fn maxpool2x2(x: &Tensor) -> PoolOut {
    let xs = x.shape();
    let out_shape = xs.pooled2x2();
    let mut y = Tensor::zeros(out_shape);
    let mut argmax = vec![0u8; out_shape.len()];
    let (wo, w) = (out_shape.w, xs.w);
    let planes = x.data().chunks_exact(xs.hw()).zip(y.data_mut().chunks_exact_mut(out_shape.hw()));
    for ((x_plane, y_plane), am_plane) in planes.zip(argmax.chunks_exact_mut(out_shape.hw())) {
        let rows = x_plane.chunks_exact(2 * w).zip(y_plane.chunks_exact_mut(wo));
        for ((pair, y_row), am_row) in rows.zip(am_plane.chunks_exact_mut(wo)) {
            let (r0, r1) = pair.split_at(w);
            for (ox, (y, am)) in y_row.iter_mut().zip(am_row).enumerate() {
                let vals = [r0[2 * ox], r0[2 * ox + 1], r1[2 * ox], r1[2 * ox + 1]];
                let (mut best, mut best_i) = (vals[0], 0u8);
                for (i, &v) in vals.iter().enumerate().skip(1) {
                    if v > best {
                        best = v;
                        best_i = i as u8;
                    }
                }
                *y = best;
                *am = best_i;
            }
        }
    }
    PoolOut { y, argmax }
}

/// 2x2/stride-2 max pool into a caller-owned output slice — the inference
/// form the planned executor runs in both dtypes: the window selection of
/// [`maxpool2x2`] (strict `>`, first max wins) without the argmax
/// bookkeeping. Returns the output shape.
///
/// The max of INT8 values at one fix position is exact — no requantisation
/// — so an `i8` output keeps the input's fix position (the caller's
/// bookkeeping).
pub fn maxpool2x2_into<T: Copy + PartialOrd>(xs: Shape4, x: &[T], out: &mut [T]) -> Shape4 {
    let out_shape = xs.pooled2x2();
    assert_eq!(x.len(), xs.len(), "maxpool input buffer/shape mismatch");
    assert_eq!(out.len(), out_shape.len(), "maxpool output buffer size");
    if out_shape.is_empty() {
        return out_shape; // no plane or row to walk (chunk sizes would be 0)
    }
    let (wo, w) = (out_shape.w, xs.w);
    let first_max = |best: T, v: T| if v > best { v } else { best };
    for (x_plane, o_plane) in x.chunks_exact(xs.hw()).zip(out.chunks_exact_mut(out_shape.hw())) {
        for (pair, o_row) in x_plane.chunks_exact(2 * w).zip(o_plane.chunks_exact_mut(wo)) {
            let (r0, r1) = pair.split_at(w);
            for ((o, a), b) in o_row.iter_mut().zip(r0.chunks_exact(2)).zip(r1.chunks_exact(2)) {
                *o = first_max(first_max(first_max(a[0], a[1]), b[0]), b[1]);
            }
        }
    }
    out_shape
}

/// Backward max pool: routes each upstream gradient to the input position
/// that won the forward max. `x_shape` is the original input shape.
pub fn maxpool2x2_backward(x_shape: Shape4, pool: &PoolOut, dy: &Tensor) -> Tensor {
    let out_shape = pool.y.shape();
    assert_eq!(dy.shape(), out_shape);
    assert_eq!(x_shape.pooled2x2(), out_shape, "pool output does not match the input shape");
    let mut dx = Tensor::zeros(x_shape);
    let (ho, wo) = (out_shape.h, out_shape.w);
    let w = x_shape.w;
    let planes =
        dy.data().chunks_exact(out_shape.hw()).zip(pool.argmax.chunks_exact(out_shape.hw()));
    for ((dy_plane, am_plane), dx_plane) in planes.zip(dx.data_mut().chunks_exact_mut(x_shape.hw()))
    {
        for oy in 0..ho {
            for ox in 0..wo {
                let g = dy_plane[oy * wo + ox];
                let a = am_plane[oy * wo + ox] as usize;
                let iy = 2 * oy + a / 2;
                let ix = 2 * ox + a % 2;
                dx_plane[iy * w + ix] += g;
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_picks_max_in_each_window() {
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 4, 4),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.0, 9.0,
            ],
        );
        let out = maxpool2x2(&x);
        assert_eq!(out.y.data(), &[4.0, 8.0, -1.0, 9.0]);
        assert_eq!(out.argmax, vec![3, 3, 0, 3]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 9.0, 2.0, 3.0]);
        let out = maxpool2x2(&x);
        let dy = Tensor::full(Shape4::new(1, 1, 1, 1), 5.0);
        let dx = maxpool2x2_backward(x.shape(), &out, &dy);
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn odd_sizes_drop_last_row_col() {
        let x = Tensor::full(Shape4::new(1, 2, 5, 5), 1.0);
        let out = maxpool2x2(&x);
        assert_eq!(out.y.shape(), Shape4::new(1, 2, 2, 2));
    }

    #[test]
    fn ties_pick_first_occurrence() {
        let x = Tensor::full(Shape4::new(1, 1, 2, 2), 7.0);
        let out = maxpool2x2(&x);
        assert_eq!(out.argmax, vec![0]);
    }

    /// The per-window scalar definition: first max in row-major window order.
    fn maxpool2x2_reference<T: Copy + PartialOrd>(xs: Shape4, x: &[T]) -> Vec<T> {
        let os = xs.pooled2x2();
        let mut out = Vec::with_capacity(os.len());
        for plane in x.chunks_exact(xs.hw()) {
            for oy in 0..os.h {
                for ox in 0..os.w {
                    let at = |dy: usize, dx: usize| plane[(2 * oy + dy) * xs.w + 2 * ox + dx];
                    let mut best = at(0, 0);
                    for v in [at(0, 1), at(1, 0), at(1, 1)] {
                        if v > best {
                            best = v;
                        }
                    }
                    out.push(best);
                }
            }
        }
        out
    }

    /// Both dtypes the executor pools; odd H and W drop the trailing row and
    /// column (floor semantics), and a shape with no output window is a no-op.
    #[test]
    fn maxpool2x2_into_matches_scalar_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for (n, c, h, w) in
            [(2, 3, 7, 9), (2, 2, 8, 8), (2, 1, 5, 2), (1, 4, 3, 65), (2, 2, 1, 5), (0, 3, 4, 4)]
        {
            let xs = Shape4::new(n, c, h, w);
            let x: Vec<i8> = (0..xs.len()).map(|_| rng.gen_range(-128i32..128) as i8).collect();
            let mut out = vec![0x55i8; xs.pooled2x2().len()];
            assert_eq!(maxpool2x2_into(xs, &x, &mut out), xs.pooled2x2());
            assert_eq!(out, maxpool2x2_reference(xs, &x), "i8 {xs:?}");
            let x: Vec<f32> = x.iter().map(|&v| f32::from(v) / 4.0).collect();
            let mut out = vec![f32::NAN; xs.pooled2x2().len()];
            assert_eq!(maxpool2x2_into(xs, &x, &mut out), xs.pooled2x2());
            assert_eq!(out, maxpool2x2_reference(xs, &x), "f32 {xs:?}");
            if !xs.pooled2x2().is_empty() {
                assert_eq!(out, maxpool2x2(&Tensor::from_vec(xs, x)).y.data(), "{xs:?}");
            }
        }
    }

    /// Strict `>`: of `-0.0` and `0.0` the first in window order is kept,
    /// the same bits the training pool selects.
    #[test]
    fn inference_pool_keeps_the_first_of_equal_maxima() {
        let xs = Shape4::new(1, 2, 2, 2);
        let x = [-0.0f32, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0];
        let mut out = [1.0f32; 2];
        maxpool2x2_into(xs, &x, &mut out);
        let pooled = maxpool2x2(&Tensor::from_vec(xs, x.to_vec()));
        assert_eq!(out.map(f32::to_bits), [(-0.0f32).to_bits(), 0.0f32.to_bits()]);
        assert_eq!(
            pooled.y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out.map(f32::to_bits)
        );
        assert_eq!(pooled.argmax, vec![0, 0]);
    }

    #[test]
    fn gradient_is_partition_of_upstream() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = Tensor::from_vec(
            Shape4::new(2, 3, 6, 6),
            (0..2 * 3 * 36).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let out = maxpool2x2(&x);
        let dy = Tensor::from_vec(
            out.y.shape(),
            (0..out.y.shape().len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let dx = maxpool2x2_backward(x.shape(), &out, &dy);
        // Sum of dx equals sum of dy (each gradient goes to exactly one spot).
        assert!((dx.sum() - dy.sum()).abs() < 1e-4);
        // Count of nonzeros equals number of output pixels.
        let nz = dx.data().iter().filter(|v| **v != 0.0).count();
        assert_eq!(nz, dy.shape().len());
    }
}
