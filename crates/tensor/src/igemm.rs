//! Implicit-GEMM convolution: im2col fused into the strip pack, the
//! transpose-conv scatter fused into the tile store.
//!
//! The classic lowering materializes the `[C*K*K, H_out*W_out]` column
//! matrix (9x the activation footprint for 3x3), then re-reads it to pack
//! the GEMM `B` panels — two full passes of memory traffic per conv per
//! frame that exist only to rearrange data. The entry points here skip the
//! intermediate entirely: they hand the strip-mined driver of
//! [`crate::gemm`] a pack function, [`pack_b_im2col`], that computes the
//! im2col index math *inside* the tile gather and packs one strip of
//! `NR`-wide activation panels directly from the NCHW feature map (zero-fill
//! for padding). A strip is consumed by every row tile while it is still in
//! L2, so neither the column matrix nor its packed form ever exists in full.
//! The panels hold byte-for-byte what `im2col` + `pack_b` would have
//! produced and the micro-kernels are the same — the implicit route is
//! bit-identical to the materialized one by construction.
//!
//! The 2x2 stride-2 transpose convolution gets the dual treatment on the
//! *store* side: its input plane already is the column matrix (no gather
//! needed), but the classic lowering materializes a `[4*C_out, H*W]`
//! pre-scatter buffer and then re-reads it to scatter into the `[C_out,
//! 2H, 2W]` output. With the repacked weights ordered co-major (row
//! `co*4 + kidx`, see `repack_tconv_weights`), an `MR = 8`-row tile covers
//! exactly 2 whole output planes, so the scatter folds into the tile store
//! and the pre-scatter buffer disappears. Column `iy*w + ix` lands in output
//! rows `2iy, 2iy+1`, so the driver's column parts are cut on whole input
//! rows (`quantum = w`): each part owns a band of every output plane.
//!
//! The training backward pass deliberately keeps explicit `im2col`/`col2im`:
//! it needs the column matrix as a *GEMM operand in its own right*
//! (`dW = dY * col^T`), not merely as a staging layout, so there is no
//! redundant pass to remove there.

use crate::gemm::{
    bias_at, packed_b_len, requant, run, run_f32, run_requant, GemmEpilogue, PackedA, PackedA4,
    Panels, Tile, NR,
};
use crate::im2col::ConvGeom;
use crate::zero::Zero;
use std::ops::Range;

/// Packs columns `cols` of the virtual im2col matrix of one `[C, H, W]`
/// input plane straight into `NR`-wide k-major `B` panels — the fusion of
/// `im2col` and `pack_b`.
///
/// Row `kk` of the virtual matrix decomposes as `(c, ky, kx)`; column `j`
/// as `(oy, ox)`; the source pixel is `(oy*stride + ky - pad,
/// ox*stride + kx - pad)`, with out-of-bounds positions contributing
/// `T::ZERO` (the pre-`fill` covers them, plus the zero padding of the tail
/// panel's missing columns). Stride 1 copies contiguous row segments;
/// larger strides gather per element. The panel bytes are identical to
/// `im2col` followed by `pack_b`, so implicit and materialized GEMMs are
/// bit-exact for every dtype.
pub fn pack_b_im2col<T: Zero>(geom: &ConvGeom, input: &[T], cols: Range<usize>, buf: &mut [T]) {
    let k = geom.col_rows();
    assert_eq!(input.len(), geom.c_in * geom.h * geom.w, "input size");
    assert!(cols.end <= geom.col_cols(), "column range");
    let panels = &mut buf[..packed_b_len(k, cols.len())];
    for (jp, panel) in panels.chunks_exact_mut(NR * k).enumerate() {
        let j0 = cols.start + jp * NR;
        pack_im2col_panel(geom, input, j0, NR.min(cols.end - j0), panel);
    }
}

/// Gathers one `NR`-wide k-major panel (columns `j0 .. j0 + cols` of the
/// virtual im2col matrix) straight from the `[C, H, W]` plane. The panel's
/// columns are walked in runs that share an output row, so the index
/// division happens once per run, not once per `(kk, column)`.
fn pack_im2col_panel<T: Zero>(
    geom: &ConvGeom,
    input: &[T],
    j0: usize,
    cols: usize,
    panel: &mut [T],
) {
    let (w_out, hw) = (geom.w_out(), geom.h * geom.w);
    // Zero-fill once: covers padded pixels and the tail panel's missing
    // columns; in-bounds pixels overwrite below.
    panel.fill(T::ZERO);
    let mut jj = 0;
    while jj < cols {
        let (oy, ox0) = ((j0 + jj) / w_out, (j0 + jj) % w_out);
        let seg = (w_out - ox0).min(cols - jj);
        for (cky, krows) in panel.chunks_exact_mut(geom.k * NR).enumerate() {
            let (c, ky) = (cky / geom.k, cky % geom.k);
            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
            if iy < 0 || iy >= geom.h as isize {
                continue;
            }
            let src_row = &input[c * hw + iy as usize * geom.w..][..geom.w];
            for (kx, row) in krows.chunks_exact_mut(NR).enumerate() {
                let dst = &mut row[jj..jj + seg];
                let ix0 = (ox0 * geom.stride + kx) as isize - geom.pad as isize;
                if geom.stride == 1 {
                    // Contiguous segment: clip [lo, hi) to the input row.
                    let lo = (-ix0).max(0) as usize;
                    let hi = (geom.w as isize - ix0).clamp(0, seg as isize) as usize;
                    if lo < hi {
                        let src = &src_row[(ix0 + lo as isize) as usize..][..hi - lo];
                        // A whole panel row (every interior panel when `NR`
                        // divides `w_out`) is one fixed-size vector move, not
                        // a `memcpy` call.
                        match (
                            <&mut [T; NR]>::try_from(&mut dst[lo..hi]),
                            <&[T; NR]>::try_from(src),
                        ) {
                            (Ok(d), Ok(s)) => *d = *s,
                            _ => dst[lo..hi].copy_from_slice(src),
                        }
                    }
                } else {
                    for (t, d) in dst.iter_mut().enumerate() {
                        let ix = ix0 + (t * geom.stride) as isize;
                        if ix >= 0 && ix < geom.w as isize {
                            *d = src_row[ix as usize];
                        }
                    }
                }
            }
        }
        jj += seg;
    }
}

/// Implicit-GEMM f32 convolution of one `[C, H, W]` image: `c = w * im2col(x)`
/// with the column matrix never materialized. `w` is the row-major
/// `[m, C*K*K]` weight matrix; `c` is `[m, H_out*W_out]`.
pub fn sgemm_conv(
    m: usize,
    w: &[f32],
    geom: &ConvGeom,
    x: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    let k = geom.col_rows();
    assert_eq!(w.len(), m * k, "A size");
    PackedA::with_scratch(m, k, |i, kk| w[i * k + kk], |pa| sgemm_conv_packed(pa, geom, x, c, epi));
}

/// [`sgemm_conv`] with a pre-packed weight operand: the per-call pack work
/// is only the implicit activation strips.
pub fn sgemm_conv_packed(
    pa: &PackedA<f32>,
    geom: &ConvGeom,
    x: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    assert_eq!(pa.k(), geom.col_rows(), "packed A k extent vs conv geometry");
    run_f32(pa, geom.col_cols(), c, epi, |cols, buf| pack_b_im2col(geom, x, cols, buf));
}

/// Implicit-GEMM INT8 convolution of one `[C, H, W]` image against a
/// pre-packed weight operand (INT8 weights are immutable, so they are always
/// packed once), with the fused requantise-clamp epilogue. Bit-identical to
/// `im2col_t::<i8>` + `igemm_fused`.
pub fn igemm_conv_packed(
    pa: &PackedA<i8>,
    geom: &ConvGeom,
    x: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    conv_requant(pa, geom, x, (bias, shift, relu), out);
}

/// [`igemm_conv_packed`] for a nibble-packed INT4 weight operand: the weight
/// panels stream at half the bytes.
pub fn igemm4_conv_packed(
    pa: &PackedA4,
    geom: &ConvGeom,
    x: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    conv_requant(pa, geom, x, (bias, shift, relu), out);
}

fn conv_requant<A: Panels<B = i8, Acc = i32>>(
    pa: &A,
    geom: &ConvGeom,
    x: &[i8],
    epi: (&[i32], i32, bool),
    out: &mut [i8],
) {
    assert_eq!(pa.dims().1, geom.col_rows(), "packed A k extent vs conv geometry");
    run_requant(pa, geom.col_cols(), out, epi, |cols, buf| pack_b_im2col(geom, x, cols, buf));
}

/// The scatter-fused transpose-conv GEMM of one `[C_in, H, W]` image against
/// co-major `[4*C_out, C_in]` panels: GEMM row `co*4 + kidx`, column
/// `iy*w + ix` lands at `(2iy+ky, 2ix+kx)` of output plane `co` as
/// `f(acc, bias4[row])`. `out` is `[C_out, 2H, 2W]`; the driver hands each
/// part the band of every plane its (whole) input rows scatter into.
fn run_tconv2x2<A: Panels, C: Send>(
    pa: &A,
    x: &[A::B],
    (h, w): (usize, usize),
    bias4: &[A::Acc],
    out: &mut [C],
    f: impl Fn(A::Acc, A::Acc) -> C + Sync,
) where
    A::Acc: Zero + Sync,
{
    let k = pa.dims().1;
    // The input plane is the im2col matrix of a 1x1 convolution over it: the
    // strip pack is the same row-segment copy as the 3x3 gather's.
    let plane = ConvGeom { c_in: k, h, w, k: 1, pad: 0, stride: 1 };
    let pack = |cols: Range<usize>, buf: &mut [A::B]| pack_b_im2col(&plane, x, cols, buf);
    run(pa, h * w, 4, w, out, pack, |acc, t: Tile, chunks| {
        // GEMM rows come in `(kx = 0, kx = 1)` pairs that interleave into one
        // output row; a tile's columns are walked in runs that share an input
        // row, each run one contiguous piece of that output row.
        for (pi, pair) in acc[..t.rows].chunks_exact(2).enumerate() {
            let row = t.row + 2 * pi;
            let (b0, b1) = (bias_at(bias4, row), bias_at(bias4, row + 1));
            let band = &mut chunks[(row - t.row0) / 4];
            let (mut oy, mut ix) = (2 * (t.col / w - t.col0 / w) + (row % 4) / 2, t.col % w);
            let mut done = 0;
            while done < t.cols {
                let run = (w - ix).min(t.cols - done);
                let dst = &mut band[oy * 2 * w + 2 * ix..][..2 * run];
                let (v0, v1) = (&pair[0][done..done + run], &pair[1][done..done + run]);
                for ((d, &v0), &v1) in dst.chunks_exact_mut(2).zip(v0).zip(v1) {
                    (d[0], d[1]) = (f(v0, b0), f(v1, b1));
                }
                (done, ix, oy) = (done + run, 0, oy + 2);
            }
        }
    });
}

/// Scatter-fused f32 transpose conv of one `[C_in, H, W]` image: one GEMM of
/// the co-major `[4*C_out, C_in]` repacked weights `wk` against the input
/// plane (which already is the column matrix), with the stride-2 scatter
/// applied at tile-store time — no pre-scatter buffer. `bias4` is the
/// `i / 4`-replicated bias (empty to skip). `out` is `[C_out, 2H, 2W]`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_tconv2x2(
    c_out: usize,
    c_in: usize,
    wk: &[f32],
    x: &[f32],
    h: usize,
    w: usize,
    bias4: &[f32],
    out: &mut [f32],
) {
    assert_eq!(wk.len(), 4 * c_out * c_in, "repacked weight size");
    PackedA::with_scratch(
        4 * c_out,
        c_in,
        |i, kk| wk[i * c_in + kk],
        |pa| sgemm_tconv2x2_packed(pa, x, h, w, bias4, out),
    );
}

/// [`sgemm_tconv2x2`] with pre-packed (co-major) weights.
pub fn sgemm_tconv2x2_packed(
    pa: &PackedA<f32>,
    x: &[f32],
    h: usize,
    w: usize,
    bias4: &[f32],
    out: &mut [f32],
) {
    run_tconv2x2(pa, x, (h, w), bias4, out, |v, b| v + b);
}

/// Scatter-fused INT8 transpose conv of one `[C_in, H, W]` image against
/// pre-packed co-major `[4*C_out, C_in]` weights, with the fused
/// requantise-clamp epilogue. `out` is `[C_out, 2H, 2W]`.
#[allow(clippy::too_many_arguments)]
pub fn igemm_tconv2x2_packed(
    pa: &PackedA<i8>,
    x: &[i8],
    h: usize,
    w: usize,
    bias4: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    run_tconv2x2(pa, x, (h, w), bias4, out, |v, b| requant(v, b, shift, relu));
}

/// [`igemm_tconv2x2_packed`] for nibble-packed INT4 weights.
#[allow(clippy::too_many_arguments)]
pub fn igemm4_tconv2x2_packed(
    pa: &PackedA4,
    x: &[i8],
    h: usize,
    w: usize,
    bias4: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    run_tconv2x2(pa, x, (h, w), bias4, out, |v, b| requant(v, b, shift, relu));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{igemm_fused, pack_b, sgemm_fused};
    use crate::im2col::{im2col, im2col_t};
    use rand::{Rng, SeedableRng};

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
    }

    /// The defining property: the implicit pack must produce the same panel
    /// bytes as materialize-then-pack, for every geometry.
    #[test]
    fn implicit_pack_matches_materialized_pack() {
        for &(c, h, w, kk, pad, stride) in &[
            (3usize, 7usize, 5usize, 3usize, 1usize, 1usize),
            (2, 8, 8, 3, 1, 2),
            (1, 4, 9, 2, 0, 2),
            (4, 6, 6, 1, 0, 1),
            (2, 5, 5, 3, 0, 1),
        ] {
            let geom = ConvGeom { c_in: c, h, w, k: kk, pad, stride };
            let x = rand_vec(c * h * w, 7);
            let (k_dim, n) = (geom.col_rows(), geom.col_cols());
            let mut col = vec![0.0f32; k_dim * n];
            im2col(&geom, &x, &mut col);
            // The whole matrix, and a strip that starts and ends mid-row.
            for cols in [0..n, n / 3..n - n / 4] {
                let lb = packed_b_len(k_dim, cols.len());
                let mut pb_ref = vec![0.0f32; lb];
                pack_b(k_dim, cols.clone(), |kk2, j| col[kk2 * n + j], &mut pb_ref);
                let mut pb = vec![1.0f32; lb];
                pack_b_im2col(&geom, &x, cols.clone(), &mut pb);
                assert_eq!(pb, pb_ref, "geom {geom:?} cols {cols:?}");
            }
        }
    }

    #[test]
    fn implicit_i8_conv_matches_materialized() {
        let geom = ConvGeom { c_in: 3, h: 9, w: 7, k: 3, pad: 1, stride: 1 };
        let m = 5;
        let x = rand_i8(geom.c_in * geom.h * geom.w, 8);
        let w = rand_i8(m * geom.col_rows(), 9);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 17 - 30).collect();
        let (k_dim, n) = (geom.col_rows(), geom.col_cols());
        let mut col = vec![0i8; k_dim * n];
        im2col_t(&geom, &x, &mut col);
        let mut expect = vec![0i8; m * n];
        igemm_fused(m, k_dim, n, &w, &col, &bias, 4, true, &mut expect);
        let mut got = vec![0i8; m * n];
        igemm_conv_packed(&PackedA::pack(m, k_dim, &w), &geom, &x, &bias, 4, true, &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn scatter_fused_tconv_matches_gemm_then_scatter() {
        use crate::tconv::scatter_tconv2x2;
        let (c_in, c_out, h, w) = (3usize, 5usize, 4usize, 6usize);
        let hw = h * w;
        let x = rand_vec(c_in * hw, 10);
        let wk = rand_vec(4 * c_out * c_in, 11);
        let bias4 = rand_vec(4 * c_out, 12);
        let mut ytmp = vec![0.0f32; 4 * c_out * hw];
        sgemm_fused(4 * c_out, c_in, hw, &wk, &x, &mut ytmp, GemmEpilogue::Bias(&bias4));
        let mut expect = vec![0.0f32; 4 * c_out * hw];
        scatter_tconv2x2(c_out, h, w, &ytmp, &mut expect);
        let mut got = vec![0.0f32; 4 * c_out * hw];
        sgemm_tconv2x2(c_out, c_in, &wk, &x, h, w, &bias4, &mut got);
        assert_eq!(got, expect);
    }
}
