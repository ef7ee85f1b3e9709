//! `im2col`/`col2im` lowering for convolution.
//!
//! For an input plane `[C, H, W]`, a `K x K` kernel with padding `p` and
//! stride `s`, `im2col` builds a matrix of shape `[C*K*K, H_out*W_out]` whose
//! column `o` holds the receptive field of output pixel `o`. Convolution then
//! becomes a GEMM with the `[C_out, C*K*K]` weight matrix.

use crate::zero::Zero;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Square kernel size.
    pub k: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Stride.
    pub stride: usize,
}

impl ConvGeom {
    /// Output height.
    pub fn h_out(&self) -> usize {
        (self.h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn w_out(&self) -> usize {
        (self.w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Rows of the im2col matrix (`C*K*K`).
    pub fn col_rows(&self) -> usize {
        self.c_in * self.k * self.k
    }

    /// Columns of the im2col matrix (`H_out*W_out`).
    pub fn col_cols(&self) -> usize {
        self.h_out() * self.w_out()
    }
}

/// Lowers one `[C, H, W]` input plane into the column matrix `col`
/// (`[C*K*K, H_out*W_out]`, row-major), generic over the element type —
/// padding writes `T::ZERO`. `col` must be pre-sized; it is fully
/// overwritten. [`im2col`] is the `f32` wrapper training backward uses.
pub fn im2col_t<T: Zero>(geom: &ConvGeom, input: &[T], col: &mut [T]) {
    let (h_out, w_out) = (geom.h_out(), geom.w_out());
    let cols = h_out * w_out;
    assert_eq!(input.len(), geom.c_in * geom.h * geom.w, "input size");
    assert_eq!(col.len(), geom.col_rows() * cols, "col size");

    for c in 0..geom.c_in {
        let plane = &input[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
        for ky in 0..geom.k {
            for kx in 0..geom.k {
                let row = (c * geom.k + ky) * geom.k + kx;
                let out_row = &mut col[row * cols..(row + 1) * cols];
                for oy in 0..h_out {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    let dst = &mut out_row[oy * w_out..(oy + 1) * w_out];
                    if iy < 0 || iy >= geom.h as isize {
                        dst.fill(T::ZERO);
                        continue;
                    }
                    let src_row = &plane[iy as usize * geom.w..(iy as usize + 1) * geom.w];
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        *d = if ix < 0 || ix >= geom.w as isize {
                            T::ZERO
                        } else {
                            src_row[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// `f32` [`im2col_t`] (zero padding maps to `0.0`).
pub fn im2col(geom: &ConvGeom, input: &[f32], col: &mut [f32]) {
    im2col_t(geom, input, col);
}

/// Scatters a column matrix back into an input plane, accumulating overlaps.
/// This is the adjoint of [`im2col`] and is used for `dX` in the backward
/// pass. `out` must be pre-sized `[C, H, W]`; it is overwritten.
pub fn col2im(geom: &ConvGeom, col: &[f32], out: &mut [f32]) {
    let (h_out, w_out) = (geom.h_out(), geom.w_out());
    let cols = h_out * w_out;
    assert_eq!(out.len(), geom.c_in * geom.h * geom.w, "out size");
    assert_eq!(col.len(), geom.col_rows() * cols, "col size");
    out.fill(0.0);

    for c in 0..geom.c_in {
        let plane = &mut out[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
        for ky in 0..geom.k {
            for kx in 0..geom.k {
                let row = (c * geom.k + ky) * geom.k + kx;
                let src_row = &col[row * cols..(row + 1) * cols];
                for oy in 0..h_out {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= geom.h as isize {
                        continue;
                    }
                    let dst = &mut plane[iy as usize * geom.w..(iy as usize + 1) * geom.w];
                    let src = &src_row[oy * w_out..(oy + 1) * w_out];
                    for (ox, s) in src.iter().enumerate() {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix >= 0 && ix < geom.w as isize {
                            dst[ix as usize] += s;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_3x3_same(c: usize, h: usize, w: usize) -> ConvGeom {
        ConvGeom { c_in: c, h, w, k: 3, pad: 1, stride: 1 }
    }

    #[test]
    fn output_geometry() {
        let g = geom_3x3_same(4, 16, 16);
        assert_eq!((g.h_out(), g.w_out()), (16, 16));
        let g2 = ConvGeom { c_in: 1, h: 8, w: 8, k: 2, pad: 0, stride: 2 };
        assert_eq!((g2.h_out(), g2.w_out()), (4, 4));
    }

    #[test]
    fn im2col_center_pixel_receptive_field() {
        // 1-channel 3x3 input, identity check at the centre output pixel.
        let g = geom_3x3_same(1, 3, 3);
        let input: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &input, &mut col);
        // Centre output (index 4) must see the whole 3x3 patch in order.
        let centre: Vec<f32> = (0..9).map(|r| col[r * 9 + 4]).collect();
        assert_eq!(centre, input);
        // Top-left output (index 0): padded rows/cols are zero.
        let tl: Vec<f32> = (0..9).map(|r| col[r * 9]).collect();
        assert_eq!(tl, vec![0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
    }

    #[test]
    fn im2col_i8_matches_f32_pattern() {
        let g = geom_3x3_same(2, 5, 4);
        let input_f: Vec<f32> = (0..g.c_in * g.h * g.w).map(|v| (v as f32) - 10.0).collect();
        let input_i: Vec<i8> = input_f.iter().map(|&v| v as i8).collect();
        let mut col_f = vec![0.0; g.col_rows() * g.col_cols()];
        let mut col_i = vec![0i8; g.col_rows() * g.col_cols()];
        im2col(&g, &input_f, &mut col_f);
        im2col_t(&g, &input_i, &mut col_i);
        for (f, i) in col_f.iter().zip(&col_i) {
            assert_eq!(*f as i8, *i);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = geom_3x3_same(3, 7, 6);
        let x: Vec<f32> = (0..g.c_in * g.h * g.w).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f32> =
            (0..g.col_rows() * g.col_cols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut cx = vec![0.0; y.len()];
        im2col(&g, &x, &mut cx);
        let mut ay = vec![0.0; x.len()];
        col2im(&g, &y, &mut ay);
        let lhs: f32 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
