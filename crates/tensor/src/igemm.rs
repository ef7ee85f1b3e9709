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
//! A 3x3 pad-1 stride-1 FP32 conv on a width `W` that is a multiple of `NR`
//! (every level from 256² down to 32² of the U-Net) goes one step further
//! and packs nothing 9x: a strip is `r` whole output rows, `pack_band`
//! copies the `r + 2` input rows they read into a zero-bordered
//! `[C][r + 2][W + 2]` band, and the f32 micro-kernel reads k-step
//! `kk = (c, ky, kx)` of a panel in place, at `base + off[kk]` with
//! `off[kk] = c(r + 2)(W + 2) + ky(W + 2) + kx` (the layout is drawn in
//! [`crate::gemm`]). Its zero border is the strip pack's zero fill and the
//! FMA order is the same ascending `k`, so the band route is bit-identical
//! to the strip route.
//!
//! The INT8 convs copy nothing at all: their input already is a bordered
//! quad map ([`crate::quad`], the executor's INT8 layout), `[C/4][H + 2][W +
//! 2][4]` bytes `x ^ 0x80` with a `0x80` border, so [`igemm_conv_quads`]
//! reads it where it lies (`Strip::Map`: k-step `(quad, ky, kx)` at `quad ·
//! plane + 4((ky)(W + 2) + kx)` past the strip's first bordered row), the
//! micro-kernel taking each 16-column half of a panel in pieces of `gcd(W,
//! 16)` columns, and its requantising store writes the next map, border
//! included. The 2x2 transpose conv's `B` is the map itself (`k` = quads,
//! one tap at the pixel): [`igemm_tconv2x2_quads`] reads it in place too.
//! An odd width gathers quad panels from the map ([`reads_map`]). The NCHW
//! [`igemm_conv_packed`] (the benchmark's probe) gathers quad panels through
//! `gemm::pack_quads` and `im2col_row`. W8 and W4 layers run alike: a W4
//! weight is an `i8` in `[-8, 7]`.
//!
//! The `*_with` and map entry points run on the caller's
//! [`crate::gemm::Work`]; the others on the calling thread's work memory.
//!
//! The 2x2 stride-2 transpose convolution gets the dual treatment on the
//! *store* side: its input plane already is the column matrix (no gather
//! needed), but the classic lowering materializes a `[4*C_out, H*W]`
//! pre-scatter buffer and then re-reads it to scatter into the `[C_out,
//! 2H, 2W]` output. With the repacked f32 weights ordered co-major (row
//! `co*4 + kidx`, see `repack_tconv_weights`), an `MR = 8`-row tile covers
//! exactly 2 whole output planes, so the scatter folds into the tile store
//! and the pre-scatter buffer disappears; the INT8 rows are ordered so that
//! a tile is one output row of pixel pairs of one quad. Column `iy*w + ix`
//! lands in output rows `2iy, 2iy+1`, so the driver's column parts are cut
//! on whole input rows (`quantum = w`): each part owns a band of every
//! output plane.
//!
//! The training backward pass runs on the same GEMM driver, with no column
//! matrix either. `dX` of a conv is the implicit conv of `dY` ([`sgemm_conv`]
//! with the kernel flipped and transposed); `dX` of the transpose conv is the
//! implicit 2x2 stride-2 conv of `dY` (its im2col is a space-to-depth
//! gather). Both weight gradients reduce over pixels,
//! `dW += A * im2col(x)^T` ([`sgemm_conv_wgrad`]): the `B` strips gather the
//! *transposed* virtual im2col matrix of a band of output rows.

use crate::gemm::{
    band_scratch_len, bias_at, pack_quads, packed_b_len, requant_rows, run, run_f32, run_requant,
    run_with, strip_scratch_len, with_thread_work, Acc, GemmEpilogue, InPlace, KOrder, OutLayout,
    PackedA, Source, Strip, Tile, Work, MR, NR, QUAD,
};
use crate::im2col::ConvGeom;
use crate::quad::{write_border, QuadMap, ZERO};
use crate::quantized::requantize_wide;
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
/// is only the implicit activation strips — or, for a band conv
/// (`reads_bands`), the row bands the micro-kernel reads in place.
pub fn sgemm_conv_packed(
    pa: &PackedA<f32>,
    geom: &ConvGeom,
    x: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    with_thread_work(|work| sgemm_conv_with(pa, geom, x, c, epi, work));
}

/// [`sgemm_conv_packed`] on caller-owned work memory.
pub fn sgemm_conv_with(
    pa: &PackedA<f32>,
    geom: &ConvGeom,
    x: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
    work: &mut Work<f32>,
) {
    assert_eq!(pa.k(), geom.col_rows(), "packed A k extent vs conv geometry");
    assert_eq!(x.len(), geom.c_in * geom.h * geom.w, "input size");
    let n = geom.col_cols();
    if reads_bands(geom) {
        let strip = Strip::Band { c: geom.c_in, w: geom.w };
        run_f32(pa, (n, strip), c, epi, work, |cols, buf| pack_band(geom, x, cols, buf));
    } else {
        let pack = |cols, buf: &mut [f32]| pack_b_im2col(geom, x, cols, buf);
        run_f32(pa, (n, Strip::Panels), c, epi, work, pack);
    }
}

/// Whether an FP32 conv reads its activations in place from row bands
/// instead of packed im2col strips: a 3x3 pad-1 stride-1 conv whose width is
/// a whole number of `NR`-wide panels, so no panel straddles two output rows.
fn reads_bands(geom: &ConvGeom) -> bool {
    (geom.k, geom.pad, geom.stride) == (3, 1, 1)
        && geom.c_in > 0
        && geom.w > 0
        && geom.w.is_multiple_of(NR)
}

/// Copies the input rows that output rows `cols / W` of a 3x3 same conv read
/// into a zero-bordered band: `buf` holds `C` planes of `(r + 2) x (W + 2)`
/// elements, and plane `c`'s row `i`, column `1 + ix` is input pixel `(oy0 -
/// 1 + i, ix)` of channel `c`, zero outside the map (its first and last
/// column, and the rows above the first or below the last input row), as
/// the im2col pack's zero fill. Output pixel `(oy, ox)`'s tap `(ky, kx)` is
/// then row `oy - oy0 + ky`, column `ox + kx` of the plane. Only the strip's
/// own `cols.len() / W + 2` rows are written; `r` is the band's capacity.
fn pack_band(geom: &ConvGeom, input: &[f32], cols: Range<usize>, buf: &mut [f32]) {
    let (h, w) = (geom.h, geom.w);
    let (oy0, rows) = (cols.start / w, cols.len() / w);
    for (src, plane) in input.chunks_exact(h * w).zip(buf.chunks_exact_mut(buf.len() / geom.c_in)) {
        for (i, row) in plane.chunks_exact_mut(w + 2).take(rows + 2).enumerate() {
            match (oy0 + i).checked_sub(1).filter(|&iy| iy < h) {
                Some(iy) => {
                    row[1..=w].copy_from_slice(&src[iy * w..][..w]);
                    (row[0], row[w + 1]) = (0.0, 0.0);
                }
                None => row.fill(0.0),
            }
        }
    }
}

/// Per-call GEMM work memory of [`sgemm_conv_packed`] for an `m`-output-
/// channel conv over `geom`: `(strip elements, offsets)`, the `f32` elements
/// of the parts' packed strips or row bands, and the `u32` k-step offsets a
/// band conv reads them through (0 for a strip conv). The two are separate
/// thread-local buffers, each grown to the largest call's need.
pub fn sgemm_conv_scratch(m: usize, geom: &ConvGeom) -> (usize, usize) {
    if reads_bands(geom) {
        (band_scratch_len(m, geom.c_in, (geom.h, geom.w), size_of::<f32>()), geom.col_rows())
    } else {
        (strip_scratch_len(m, geom.col_rows(), geom.col_cols(), NR, size_of::<f32>()), 0)
    }
}

/// Output pixels per weight-gradient GEMM. The GEMM driver never splits `k`,
/// [`sgemm_conv_wgrad`] cuts its reduction over pixels into bands of whole
/// output rows of about this many pixels: one band's `B` strip (`NR` columns
/// of `f32`) is 512 KiB and stays in L2 while every row tile reads it.
const WGRAD_PIXELS: usize = 4096;

/// Packs columns `cols` of the transposed virtual im2col matrix of one
/// `[C, H, W]` plane, restricted to output rows `rows`, into `NR`-wide
/// k-major `B` panels: `B[p][kk] = im2col(x)[kk][p]` for the pixels `p` of
/// those rows. Column `kk` decomposes as `(c, ky, kx)` and reads one input
/// row segment per output row. A panel is written one output row at a time
/// (`w_out * NR` elements, L1-sized at the U-Net's widths), so the
/// column-by-column strided stores land in cache; padded pixels keep the
/// row's zero pre-fill.
fn pack_b_im2col_t(
    geom: &ConvGeom,
    input: &[f32],
    rows: &Range<usize>,
    cols: Range<usize>,
    buf: &mut [f32],
) {
    let (w_out, hw, taps) = (geom.w_out(), geom.h * geom.w, geom.k * geom.k);
    let k = rows.len() * w_out;
    for (jp, panel) in buf[..packed_b_len(k, cols.len())].chunks_exact_mut(NR * k).enumerate() {
        let j0 = cols.start + jp * NR;
        for (dst_row, oy) in panel.chunks_exact_mut(w_out * NR).zip(rows.clone()) {
            dst_row.fill(0.0);
            for jj in 0..NR.min(cols.end - j0) {
                let (c, tap) = ((j0 + jj) / taps, (j0 + jj) % taps);
                let (ky, kx) = (tap / geom.k, tap % geom.k);
                let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                // Output columns whose source pixel lies inside the row.
                let ox_lo = geom.pad.saturating_sub(kx).div_ceil(geom.stride);
                let ox_hi = (geom.w + geom.pad).saturating_sub(kx).div_ceil(geom.stride).min(w_out);
                if iy < 0 || iy >= geom.h as isize || ox_lo >= ox_hi {
                    continue;
                }
                let src = &input[c * hw + iy as usize * geom.w..][..geom.w];
                let src = &src[ox_lo * geom.stride + kx - geom.pad..];
                let dst = &mut dst_row.as_chunks_mut::<NR>().0[ox_lo..ox_hi];
                if geom.stride == 1 {
                    for (d, &v) in dst.iter_mut().zip(src) {
                        d[jj] = v;
                    }
                } else {
                    for (d, &v) in dst.iter_mut().zip(src.iter().step_by(geom.stride)) {
                        d[jj] = v;
                    }
                }
            }
        }
    }
}

/// Weight-gradient GEMM of one image: `c += a * im2col(x)^T`, with `a`
/// row-major `[m, H_out*W_out]` and `c` row-major `[m, C*K*K]` — a conv's
/// `dW += dY * col^T` (`a = dY`), or a 2x2 transpose conv's
/// `dW += x * s2d(dY)^T` (`a = x`, `geom` the space-to-depth of `dY`). The
/// reduction runs band by band (`WGRAD_PIXELS`): each band is one strip
/// GEMM whose `A` panels pack from `a` and whose `B` strips gather from `x`
/// (`pack_b_im2col_t`), and its tiles are added onto `c` in band order, so
/// the sums do not depend on the thread count.
pub fn sgemm_conv_wgrad(m: usize, a: &[f32], geom: &ConvGeom, x: &[f32], c: &mut [f32]) {
    let (w_out, pixels, n) = (geom.w_out(), geom.col_cols(), geom.col_rows());
    assert_eq!(a.len(), m * pixels, "A size");
    assert_eq!(x.len(), geom.c_in * geom.h * geom.w, "input size");
    assert_eq!(c.len(), m * n, "C size");
    let band = (WGRAD_PIXELS / w_out.max(1)).max(1);
    for r0 in (0..geom.h_out()).step_by(band) {
        let rows = r0..(r0 + band).min(geom.h_out());
        let (p0, k) = (r0 * w_out, rows.len() * w_out);
        PackedA::with_scratch(
            m,
            k,
            |i, kk| a[i * pixels + p0 + kk],
            |pa| {
                let src = Source::Pack(|cols, buf: &mut [f32]| {
                    pack_b_im2col_t(geom, x, &rows, cols, buf)
                });
                run(pa, n, (OutLayout::rows(n), Strip::Panels), c, src, |acc, t, chunks| {
                    for (ii, acc_i) in acc.iter().enumerate().take(t.rows) {
                        let dst = &mut chunks[t.row - t.row0 + ii][t.col - t.col0..][..t.cols];
                        for (d, &v) in dst.iter_mut().zip(acc_i) {
                            *d += v;
                        }
                    }
                });
            },
        );
    }
}

/// Implicit-GEMM INT8 convolution of one NCHW `[C, H, W]` image against a
/// pre-packed weight operand, with the fused requantise-clamp epilogue: the
/// benchmark's kernel probe. Its strips are gathered from the map (the
/// executor's convs read quad maps instead, [`igemm_conv_quads`]).
/// Bit-identical to `im2col_t::<i8>` + `igemm_fused`.
pub fn igemm_conv_packed(
    pa: &PackedA<i8>,
    geom: &ConvGeom,
    x: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    assert_eq!(pa.k(), geom.col_rows(), "packed A k extent vs conv geometry");
    assert_eq!(x.len(), geom.c_in * geom.h * geom.w, "input size");
    let pack = |cols, buf: &mut [i8]| {
        pack_quads(pa, cols, buf, |kk, j0, dst| im2col_row(geom, x, kk, j0, dst))
    };
    run_requant(pa, geom.col_cols(), out, (bias, shift, relu), pack);
}

/// Kept for the benchmark's `tensor` probe until ROADMAP 3(a): a W4 conv is
/// the INT8 conv on `[-8, 7]` weights.
pub use crate::igemm::igemm_conv_packed as igemm4_conv_packed;

/// Writes columns `j0 .. j0 + dst.len()` of row `kk` of the virtual im2col
/// matrix of `geom` over `input` into `dst` (as [`pack_b_im2col`] maps them),
/// leaving the entries of padded pixels as they are.
fn im2col_row(geom: &ConvGeom, input: &[i8], kk: usize, j0: usize, dst: &mut [i8]) {
    let (taps, w_out) = (geom.k * geom.k, geom.w_out());
    let (c, ky, kx) = (kk / taps, kk % taps / geom.k, kk % geom.k);
    let plane = &input[c * geom.h * geom.w..][..geom.h * geom.w];
    let mut jj = 0;
    while jj < dst.len() {
        let (oy, ox0) = ((j0 + jj) / w_out, (j0 + jj) % w_out);
        let seg = (w_out - ox0).min(dst.len() - jj);
        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
        if (0..geom.h as isize).contains(&iy) {
            let src = &plane[iy as usize * geom.w..][..geom.w];
            let dst = &mut dst[jj..jj + seg];
            let ix0 = (ox0 * geom.stride + kx) as isize - geom.pad as isize;
            if geom.stride == 1 {
                // Contiguous segment: clip [lo, hi) to the input row.
                let lo = (-ix0).max(0) as usize;
                let hi = (geom.w as isize - ix0).clamp(0, seg as isize) as usize;
                if lo < hi {
                    dst[lo..hi].copy_from_slice(&src[(ix0 + lo as isize) as usize..][..hi - lo]);
                }
            } else {
                for (t, d) in dst.iter_mut().enumerate() {
                    let ix = ix0 + (t * geom.stride) as isize;
                    if (0..geom.w as isize).contains(&ix) {
                        *d = src[ix as usize];
                    }
                }
            }
        }
        jj += seg;
    }
}

/// Where [`igemm_conv_quads`] stores its output.
#[derive(Debug)]
pub enum QuadOut<'a> {
    /// A quad map of the output channels, border included: every value a
    /// later node reads.
    Quads(&'a mut [i8]),
    /// An NCHW `i8` image: the graph's output.
    Nchw(&'a mut [i8]),
}

/// Whether an INT8 conv or 2x2 transpose conv over a quad map `w` pixels
/// wide reads it in place: on an even width the micro-kernel reads each
/// 16-column half of a panel in pieces of `gcd(w, 16)` columns, one base
/// each, so that no piece straddles two rows; an odd width would leave
/// one-column pieces, so there the strips are gathered from the map.
pub fn reads_map(w: usize) -> bool {
    w > 0 && w.is_multiple_of(2)
}

/// Runs the INT8 driver for a `k x k` conv over the quad map `x` (`k = 3`:
/// the 3x3 same conv; `k = 1`: the transpose conv's one tap) into `c`, cut
/// as `layout` says (its quantum one row of the map): the map read in place
/// ([`reads_map`]), or quad panels gathered from it.
fn run_map<C: Send>(
    pa: &PackedA<i8>,
    (g, k, x): (QuadMap, usize, &[i8]),
    (layout, c): (OutLayout, &mut [C]),
    work: &mut Work<i8>,
    store: impl Fn(&Acc<i32>, Tile, &mut [&mut [C]]) + Sync,
) {
    let n = g.h * g.w;
    if reads_map(g.w) {
        let src: InPlace<'_, i8> = Source::Map(x);
        run_with(pa, n, (layout, Strip::Map { c: g.c, h: g.h, w: g.w, k }), c, work, src, store)
    } else {
        let src = Source::Pack(|cols, buf: &mut [i8]| pack_map(g, k, x, cols, buf));
        run_with(pa, n, (layout, Strip::Panels), c, work, src, store)
    }
}

/// Gathers columns `cols` of the `B` operand of a `k x k` conv over the quad
/// map `x` into `NR`-wide quad panels (`[s][NR][4]`): step `s = (quad, tap)`
/// of column `(oy, ox)` is the pixel the tap reads, `(oy + ky, ox + kx)` of
/// the bordered plane for a 3x3 conv (the border is the padding) and the
/// pixel itself for one tap. A tail panel's missing columns are `0x80`.
fn pack_map(g: QuadMap, k: usize, x: &[i8], cols: Range<usize>, buf: &mut [i8]) {
    let (taps, d, w) = (k * k, 1 - k / 2, g.w);
    let depth = g.quads() * taps * QUAD;
    for (jp, panel) in
        buf[..packed_b_len(depth, cols.len())].chunks_exact_mut(NR * depth.max(1)).enumerate()
    {
        let j0 = cols.start + jp * NR;
        let valid = NR.min(cols.end - j0);
        for (s, step) in panel.chunks_exact_mut(NR * QUAD).enumerate() {
            let (q, tap) = (s / taps, s % taps);
            let at = q * g.plane() + ((tap / k + d) * (w + 2) + tap % k + d) * QUAD;
            let mut jj = 0;
            while jj < valid {
                let (oy, ox) = ((j0 + jj) / w, (j0 + jj) % w);
                let seg = (w - ox).min(valid - jj);
                let src = &x[at + (oy * (w + 2) + ox) * QUAD..][..seg * QUAD];
                step[jj * QUAD..][..seg * QUAD].copy_from_slice(src);
                jj += seg;
            }
            step[valid * QUAD..].fill(ZERO);
        }
    }
}

/// Copies one tile's columns, `B` bytes each, into a part's piece of a quad
/// plane: column `(iy, ix)` (`iy` counted from the part's first row) lands
/// at `first + iy * row_step + ix * B`. A tile's columns are walked in runs
/// that share a row, each one copy, a whole tile's one fixed-size move.
#[inline(always)]
fn store_runs<const B: usize>(
    t: Tile,
    w: usize,
    (first, row_step): (usize, usize),
    src: &[[i8; B]; NR],
    dst: &mut [i8],
) {
    let (mut iy, mut ix, mut done) = (t.col / w - t.col0 / w, t.col % w, 0);
    while done < t.cols {
        let run = (w - ix).min(t.cols - done);
        let to = &mut dst[first + iy * row_step + ix * B..][..run * B];
        match <&mut [[i8; B]; NR]>::try_from(to.as_chunks_mut::<B>().0) {
            Ok(to) => *to = *src,
            Err(_) => to.copy_from_slice(src[done..][..run].as_flattened()),
        }
        (done, ix, iy) = (done + run, 0, iy + 1);
    }
}

/// The requantised bytes `x ^ 0x80 = x + 128` of the 4 accumulator rows
/// from GEMM row `row`, one pixel per column (row `i` in byte `i`): each
/// row requantised in `i32` lanes and or-ed into the pixels, which
/// vectorises (a byte-wise interleave measured 1.5-3x slower).
#[inline(always)]
fn requant_quad(
    acc: &[[i32; NR]],
    row: usize,
    (bias, shift, relu): (&[i32], i32, bool),
) -> [u32; NR] {
    let floor = if relu { 0 } else { i8::MIN.into() };
    let mut px = [0u32; NR];
    for (i, acc_i) in acc[..QUAD].iter().enumerate() {
        let b = bias_at(bias, row + i);
        for (p, &v) in px.iter_mut().zip(acc_i) {
            *p |= ((requantize_wide(v + b, shift).max(floor) + 128) as u32) << (8 * i);
        }
    }
    px
}

/// The bytes of a word of pixel lanes, as the arena holds them.
#[inline(always)]
fn bytes<const B: usize>(word: impl Into<u64>) -> [i8; B] {
    let w = word.into().to_le_bytes();
    std::array::from_fn(|i| w[i] as i8)
}

/// INT8 3x3 same conv of one quad map ([`crate::quad`]) `x` of geometry `g`
/// against weights packed by [`PackedA::pack_conv`] over the map's `g.c`
/// channels (zero rows where a lane is unused), with the fused
/// requantise-clamp epilogue, on caller-owned work memory. The map is read
/// in place on an even width, its border standing in for the padding (panels
/// are gathered from it on an odd one, [`reads_map`]). The output is a quad
/// map of `pa.m()` channels over the same `h x w`, border and unused lanes
/// written (as the value `0`), or an NCHW image.
#[allow(clippy::too_many_arguments)]
pub fn igemm_conv_quads(
    pa: &PackedA<i8>,
    g: QuadMap,
    x: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: QuadOut<'_>,
    work: &mut Work<i8>,
) {
    assert_eq!(pa.order(), KOrder::Conv { taps: 9 }, "weights packed for a conv");
    assert_eq!(pa.k(), 9 * g.c, "packed A k extent vs map channels");
    assert_eq!(x.len(), g.len(), "input map size");
    let (n, epi) = (g.h * g.w, (bias, shift, relu));
    let nchw = OutLayout { quantum: g.w.max(1), quantum_elems: g.w.max(1), ..OutLayout::rows(n) };
    match out {
        QuadOut::Nchw(y) => run_map(pa, (g, 3, x), (nchw, y), work, requant_rows(epi)),
        QuadOut::Quads(y) => {
            let og = QuadMap::new(pa.m(), g.h, g.w);
            write_border(og, y);
            // A chunk is an output quad's plane, 4 GEMM rows; a part's rows
            // start at its first row's first pixel.
            let origin = og.row() + QUAD;
            let layout =
                OutLayout { rows: QUAD, len: og.plane(), quantum_elems: og.row(), origin, ..nchw };
            run_map(pa, (g, 3, x), (layout, y), work, |acc: &Acc<i32>, t, chunks| {
                for (qi, lanes) in acc.chunks_exact(QUAD).take(t.rows.div_ceil(QUAD)).enumerate() {
                    let px = requant_quad(lanes, t.row + QUAD * qi, epi).map(bytes::<QUAD>);
                    let piece = &mut chunks[(t.row - t.row0) / QUAD + qi];
                    store_runs(t, g.w, (0, og.row()), &px, piece);
                }
            });
        }
    }
}

/// Per-call GEMM work memory of [`igemm_conv_quads`] or
/// [`igemm_tconv2x2_quads`] for `pa` over the map `g`: `(strip bytes,
/// offsets)`, the bytes of the parts' gathered strips (none when the map is
/// read in place) and the `u32` k-step offsets the micro-kernel reads
/// through.
pub fn igemm_map_scratch(pa: &PackedA<i8>, g: QuadMap) -> (usize, usize) {
    let (m, depth) = pa.dims();
    let n = g.h * g.w;
    let strips = if reads_map(g.w) { 0 } else { strip_scratch_len(m, depth, n, g.w.max(1), 1) };
    (strips, depth / QUAD)
}

/// The scatter-fused f32 transpose-conv GEMM of one `[C_in, H, W]` image
/// against co-major `[4*C_out, C_in]` panels: GEMM row `co*4 + kidx`, column
/// `iy*w + ix` lands at `(2iy+ky, 2ix+kx)` of output plane `co` as `acc +
/// bias4[row]`. `out` is `[C_out, 2H, 2W]`; the driver hands each part the
/// band of every plane its (whole) input rows scatter into. The input plane
/// already is the GEMM's `B` (`[C_in, H*W]`): `pack` packs its strips.
fn run_tconv2x2(
    pa: &PackedA<f32>,
    (h, w): (usize, usize),
    bias4: &[f32],
    out: &mut [f32],
    work: &mut Work<f32>,
    pack: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    let layout = OutLayout { rows: 4, len: 4 * h * w, quantum: w, quantum_elems: 4 * w, origin: 0 };
    let src = Source::Pack(pack);
    run_with(pa, h * w, (layout, Strip::Panels), out, work, src, |acc, t: Tile, chunks| {
        // GEMM rows come in `(kx = 0, kx = 1)` pairs that interleave into one
        // output row. Each pair is stored in three vectorisable passes over
        // fixed-size arrays: `f` down each row, the interleave, then the
        // copies; a tile's columns are walked in runs that share an input
        // row, each run one contiguous piece of that output row.
        for (pi, pair) in acc[..t.rows].chunks_exact(2).enumerate() {
            let row = t.row + 2 * pi;
            let (b0, b1) = (bias_at(bias4, row), bias_at(bias4, row + 1));
            let (mut q0, mut q1) = ([0.0; NR], [0.0; NR]);
            for ((d0, d1), (&v0, &v1)) in
                q0.iter_mut().zip(&mut q1).zip(pair[0].iter().zip(&pair[1]))
            {
                (*d0, *d1) = (v0 + b0, v1 + b1);
            }
            let mut q = [0.0; 2 * NR];
            for ((d, &v0), &v1) in q.as_chunks_mut::<2>().0.iter_mut().zip(&q0).zip(&q1) {
                *d = [v0, v1];
            }
            let band = &mut chunks[(row - t.row0) / 4];
            let (mut oy, mut ix) = (2 * (t.col / w - t.col0 / w) + (row % 4) / 2, t.col % w);
            let mut done = 0;
            while done < t.cols {
                let run = (w - ix).min(t.cols - done);
                let dst = &mut band[oy * 2 * w + 2 * ix..][..2 * run];
                dst.copy_from_slice(&q[2 * done..][..2 * run]);
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
        |pa| with_thread_work(|work| sgemm_tconv2x2_packed(pa, x, h, w, bias4, out, work)),
    );
}

/// [`sgemm_tconv2x2`] with pre-packed (co-major) weights, on caller-owned
/// work memory.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_tconv2x2_packed(
    pa: &PackedA<f32>,
    x: &[f32],
    h: usize,
    w: usize,
    bias4: &[f32],
    out: &mut [f32],
    work: &mut Work<f32>,
) {
    // The input plane is the im2col matrix of a 1x1 convolution over it: the
    // strip pack is the same row-segment copy as the 3x3 gather's.
    let plane = ConvGeom { c_in: pa.k(), h, w, k: 1, pad: 0, stride: 1 };
    let pack = |cols, buf: &mut [f32]| pack_b_im2col(&plane, x, cols, buf);
    run_tconv2x2(pa, (h, w), bias4, out, work, pack);
}

/// Scatter-fused INT8 2x2 stride-2 transpose conv of one quad map `x` of
/// geometry `g` into the quad map `out` (`pa.m() / 4` channels over `2h x
/// 2w`, border written), with the fused requantise-clamp epilogue, on
/// caller-owned work memory. The weights are those of
/// [`crate::tconv::repack_tconv_quads`], `bias4` in their row order: GEMM
/// row `16q + 8ky + 4kx + l` is tap `(ky, kx)` of output channel `4q + l`.
/// The map is the GEMM's `B` (`k` = its quads, one tap), read in place on an
/// even width. An `MR = 8`-row tile is then one `ky` of one output quad, and
/// its column `(iy, ix)` the 8 bytes of output pixels `(2iy + ky, 2ix)` and
/// `(2iy + ky, 2ix + 1)` side by side: the scatter is the tile store.
#[allow(clippy::too_many_arguments)]
pub fn igemm_tconv2x2_quads(
    pa: &PackedA<i8>,
    g: QuadMap,
    x: &[i8],
    bias4: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
    work: &mut Work<i8>,
) {
    const { assert!(MR == 2 * QUAD, "a tile is one row of pixel pairs") };
    assert_eq!(pa.k(), g.c, "packed A k extent vs map channels");
    assert!(pa.m().is_multiple_of(4 * QUAD), "whole output quads");
    assert_eq!(x.len(), g.len(), "input map size");
    let og = QuadMap::new(pa.m() / 4, 2 * g.h, 2 * g.w);
    write_border(og, out);
    // A chunk is an output quad's plane (16 GEMM rows); an input row owns two
    // output rows, a part's from its first row's first pixel.
    let (origin, w) = (og.row() + QUAD, g.w.max(1));
    let layout = OutLayout {
        rows: 4 * QUAD,
        len: og.plane(),
        quantum: w,
        quantum_elems: 2 * og.row(),
        origin,
    };
    run_map(pa, (g, 1, x), (layout, out), work, |acc: &Acc<i32>, t, chunks| {
        let epi = (bias4, shift, relu);
        let (lo, hi) =
            (requant_quad(&acc[..QUAD], t.row, epi), requant_quad(&acc[QUAD..], t.row + QUAD, epi));
        let px: [[i8; MR]; NR] =
            std::array::from_fn(|j| bytes(u64::from(lo[j]) | u64::from(hi[j]) << 32));
        let piece = &mut chunks[(t.row - t.row0) / (4 * QUAD)];
        store_runs(t, g.w, (t.row / MR % 2 * og.row(), 2 * og.row()), &px, piece);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{igemm_fused, pack_b, sgemm_fused};
    use crate::im2col::im2col_t;
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
            im2col_t(&geom, &x, &mut col);
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

    /// The weight gradient against `a * im2col(x)^T` on the materialized
    /// column matrix, over geometries whose reduction spans several bands
    /// (`65 x 70` output pixels > `WGRAD_PIXELS`), stride 2 and no padding.
    #[test]
    fn wgrad_matches_materialized_transpose() {
        for &(c, h, w, kk, pad, stride) in &[
            (3usize, 70usize, 65usize, 3usize, 1usize, 1usize),
            (2, 9, 7, 3, 1, 1),
            (5, 12, 10, 2, 0, 2),
            (2, 8, 9, 3, 1, 2),
        ] {
            let geom = ConvGeom { c_in: c, h, w, k: kk, pad, stride };
            let (k_dim, n, m) = (geom.col_rows(), geom.col_cols(), 6);
            let x = rand_vec(c * h * w, 13);
            let a = rand_vec(m * n, 14);
            let mut col = vec![0.0f32; k_dim * n];
            im2col_t(&geom, &x, &mut col);
            let mut got = vec![1.0f32; m * k_dim];
            sgemm_conv_wgrad(m, &a, &geom, &x, &mut got);
            for i in 0..m {
                for j in 0..k_dim {
                    let want: f64 =
                        (0..n).map(|p| a[i * n + p] as f64 * col[j * n + p] as f64).sum();
                    let g = got[i * k_dim + j] as f64 - 1.0;
                    assert!((g - want).abs() < 1e-3, "geom {geom:?} [{i},{j}]: {g} vs {want}");
                }
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
