//! Implicit-GEMM convolution: im2col fused into the panel pack.
//!
//! The classic lowering materializes the `[C*K*K, H_out*W_out]` column
//! matrix (9x the activation footprint for 3x3), then re-reads it to pack
//! the GEMM `B` panels — two full passes of memory traffic per conv per
//! frame that exist only to rearrange data. The entry points here skip the
//! intermediate entirely: [`pack_b_im2col`] computes the im2col index math
//! *inside* the tile gather, packing `NR`-wide activation panels directly
//! from the NCHW feature map (zero-fill for padding), so the packed panels
//! hold byte-for-byte what `im2col` + `pack_b` would have produced and every
//! kernel downstream is untouched — the implicit route is bit-identical to
//! the materialized one by construction.
//!
//! The 2x2 stride-2 transpose convolution gets the dual treatment on the
//! *store* side: its input plane already is the column matrix (no gather
//! needed), but the classic lowering materializes a `[4*C_out, H*W]`
//! pre-scatter buffer and then re-reads it to scatter into the `[C_out,
//! 2H, 2W]` output. With the repacked weights ordered co-major (row
//! `co*4 + kidx`, see `repack_tconv_weights`), an `MC = 32`-row GEMM block
//! corresponds to exactly 8 whole output planes, so the scatter folds into
//! the tile store and the pre-scatter buffer disappears.
//!
//! The training backward pass deliberately keeps explicit `im2col`/`col2im`:
//! it needs the column matrix as a *GEMM operand in its own right*
//! (`dW = dY * col^T`), not merely as a staging layout, so there is no
//! redundant pass to remove there.

use crate::gemm::{
    block_driver_f32, i4_block_requant, i8_block_requant, pack_a, pack_b, packed_a_len,
    packed_b_len, run_f32_blocks, GemmEpilogue, PackedA, PackedA4, Tile, MC, MR, NR, PACK_F32,
    PACK_I8,
};
use crate::im2col::ConvGeom;
use crate::quantized::requantize_i32;
use crate::zero::Zero;
use rayon::prelude::*;

/// Packs the virtual im2col matrix of one `[C, H, W]` input plane straight
/// into `NR`-wide k-major `B` panels — the fusion of `im2col` and `pack_b`.
///
/// Row `kk` of the virtual matrix decomposes as `(c, ky, kx)`; column `j`
/// as `(oy, ox)`; the source pixel is `(oy*stride + ky - pad,
/// ox*stride + kx - pad)`, with out-of-bounds positions contributing
/// `T::ZERO` (the pre-`fill` covers them, plus the zero padding of the tail
/// panel's missing columns). Stride 1 copies contiguous row segments;
/// larger strides gather per element. The panel bytes are identical to
/// `im2col` followed by `pack_b`, so implicit and materialized GEMMs are
/// bit-exact for every dtype.
pub fn pack_b_im2col<T: Zero + Send + Sync>(geom: &ConvGeom, input: &[T], buf: &mut [T]) {
    let n = geom.h_out() * geom.w_out();
    let k = geom.col_rows();
    assert_eq!(input.len(), geom.c_in * geom.h * geom.w, "input size");
    assert!(buf.len() >= packed_b_len(k, n), "panel buffer size");
    let n_panels = n.div_ceil(NR);
    let panels = &mut buf[..n_panels * NR * k];
    // Panels are disjoint, so the gather parallelizes trivially. The
    // threshold keeps tiny convs serial; deep-k shapes (where a serial pack
    // would dominate the whole conv, since the materialized route hides the
    // same traffic inside a parallel im2col pass) fan out across panels.
    if n_panels > 1 && n_panels * NR * k >= (1 << 15) {
        panels
            .par_chunks_mut(NR * k)
            .enumerate()
            .for_each(|(jp, panel)| pack_b_im2col_panel(geom, input, n, jp, panel));
    } else {
        for (jp, panel) in panels.chunks_mut(NR * k).enumerate() {
            pack_b_im2col_panel(geom, input, n, jp, panel);
        }
    }
}

/// Gathers one `NR`-wide k-major panel (columns `jp*NR ..` of the virtual
/// im2col matrix) straight from the `[C, H, W]` plane.
fn pack_b_im2col_panel<T: Zero>(
    geom: &ConvGeom,
    input: &[T],
    n: usize,
    jp: usize,
    panel: &mut [T],
) {
    let w_out = geom.w_out();
    let kk_sz = geom.k * geom.k;
    let hw = geom.h * geom.w;
    let j0 = jp * NR;
    let cols = NR.min(n - j0);
    for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
        let c = kk / kk_sz;
        let rem = kk % kk_sz;
        let (ky, kx) = (rem / geom.k, rem % geom.k);
        let plane = &input[c * hw..(c + 1) * hw];
        // Zero-fill once: covers padded pixels and the tail panel's
        // missing columns; in-bounds pixels overwrite below.
        dst.fill(T::ZERO);
        let mut jj = 0;
        while jj < cols {
            let j = j0 + jj;
            let (oy, ox0) = (j / w_out, j % w_out);
            // Columns jj..jj+seg share the output row oy.
            let seg = (w_out - ox0).min(cols - jj);
            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
            if iy >= 0 && iy < geom.h as isize {
                let src_row = &plane[iy as usize * geom.w..][..geom.w];
                let ix0 = (ox0 * geom.stride + kx) as isize - geom.pad as isize;
                if geom.stride == 1 {
                    // Contiguous segment: clip [lo, hi) to the input row.
                    let lo = (-ix0).max(0) as usize;
                    let hi = (geom.w as isize - ix0).clamp(0, seg as isize) as usize;
                    if lo < hi {
                        dst[jj + lo..jj + hi]
                            .copy_from_slice(&src_row[(ix0 + lo as isize) as usize..][..hi - lo]);
                    }
                } else {
                    for (t, d) in dst[jj..jj + seg].iter_mut().enumerate() {
                        let ix = ix0 + (t * geom.stride) as isize;
                        if ix >= 0 && ix < geom.w as isize {
                            *d = src_row[ix as usize];
                        }
                    }
                }
            }
            jj += seg;
        }
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
    let (k, n) = (geom.col_rows(), geom.col_cols());
    assert_eq!(w.len(), m * k, "A size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_F32.with(|cell| {
        let (pa, pb) = &mut *cell.borrow_mut();
        let (la, lb) = (packed_a_len(m, k), packed_b_len(k, n));
        if pa.len() < la {
            pa.resize(la, 0.0);
        }
        if pb.len() < lb {
            pb.resize(lb, 0.0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", ((la + lb) * 4) as u64);
            pack_a(m, k, |i, kk| w[i * k + kk], &mut pa[..la]);
            pack_b_im2col(geom, x, &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n * 4) as u64);
        run_f32_blocks(k, n, &pa[..la], &pb[..lb], c, epi);
    });
}

/// [`sgemm_conv`] with a pre-packed weight operand: the per-call pack work
/// is only the implicit activation panels.
pub fn sgemm_conv_packed(
    pa: &PackedA<f32>,
    geom: &ConvGeom,
    x: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    let (m, k) = (pa.m(), pa.k());
    let n = geom.col_cols();
    assert_eq!(k, geom.col_rows(), "packed A k extent vs conv geometry");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_F32.with(|cell| {
        let (_, pb) = &mut *cell.borrow_mut();
        let lb = packed_b_len(k, n);
        if pb.len() < lb {
            pb.resize(lb, 0.0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", (lb * 4) as u64);
            pack_b_im2col(geom, x, &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n * 4) as u64);
        run_f32_blocks(k, n, &pa.panels, &pb[..lb], c, epi);
    });
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
    let (m, k) = (pa.m(), pa.k());
    let n = geom.col_cols();
    assert_eq!(k, geom.col_rows(), "packed A k extent vs conv geometry");
    assert_eq!(out.len(), m * n, "C size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_I8.with(|cell| {
        let (_, pb) = &mut *cell.borrow_mut();
        let lb = packed_b_len(k, n);
        if pb.len() < lb {
            pb.resize(lb, 0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", lb as u64);
            pack_b_im2col(geom, x, &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n) as u64);
        let pbs = &pb[..lb];
        out.par_chunks_mut(MC * n).enumerate().for_each(|(blk, out_blk)| {
            i8_block_requant(k, n, blk * MC, &pa.panels, pbs, out_blk, bias, shift, relu);
        });
    });
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
    let (m, k) = (pa.m(), pa.k());
    let n = geom.col_cols();
    assert_eq!(k, geom.col_rows(), "packed A k extent vs conv geometry");
    assert_eq!(out.len(), m * n, "C size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_I8.with(|cell| {
        let (_, pb) = &mut *cell.borrow_mut();
        let lb = packed_b_len(k, n);
        if pb.len() < lb {
            pb.resize(lb, 0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", lb as u64);
            pack_b_im2col(geom, x, &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n) as u64);
        let pbs = &pb[..lb];
        out.par_chunks_mut(MC * n).enumerate().for_each(|(blk, out_blk)| {
            i4_block_requant(k, n, blk * MC, &pa.panels, pbs, out_blk, bias, shift, relu);
        });
    });
}

/// The scatter-fused f32 tile store for the 2x2 stride-2 transpose conv:
/// GEMM row `co*4 + kidx`, column `iy*w + ix` lands at `(2iy+ky, 2ix+kx)` of
/// output plane `co`. `c` is the whole `[C_out, 2H, 2W]` output; because the
/// repacked weights are co-major and `MC` is a multiple of 4, every
/// `MC`-row block covers whole output planes and the parallel split stays
/// race-free.
fn run_f32_tconv_blocks(
    k: usize,
    hw: usize,
    w: usize,
    pa: &[f32],
    pb: &[f32],
    bias4: &[f32],
    out: &mut [f32],
) {
    let has_bias = !bias4.is_empty();
    let ow = 2 * w;
    let store = move |acc: &[[f32; NR]; MR], c_blk: &mut [f32], t: Tile| {
        for ii in 0..t.rows {
            let row = t.row + ii;
            let (ky, kx) = ((row % 4) / 2, row % 2);
            let plane = &mut c_blk[((t.ip0 + ii) / 4) * (4 * hw)..][..4 * hw];
            if has_bias {
                let bias = bias4.get(row).copied().unwrap_or(0.0);
                for (tc, &v) in acc[ii][..t.cols].iter().enumerate() {
                    let j = t.j0 + tc;
                    let (iy, ix) = (j / w, j % w);
                    plane[(2 * iy + ky) * ow + 2 * ix + kx] = v + bias;
                }
            } else {
                for (tc, &v) in acc[ii][..t.cols].iter().enumerate() {
                    let j = t.j0 + tc;
                    let (iy, ix) = (j / w, j % w);
                    plane[(2 * iy + ky) * ow + 2 * ix + kx] = v;
                }
            }
        }
    };
    block_driver_f32(k, hw, pa, pb, out, store);
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
    let (m, k, n) = (4 * c_out, c_in, h * w);
    assert_eq!(wk.len(), m * k, "repacked weight size");
    assert_eq!(x.len(), k * n, "input plane size");
    assert_eq!(out.len(), m * n, "output plane size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_F32.with(|cell| {
        let (pa, pb) = &mut *cell.borrow_mut();
        let (la, lb) = (packed_a_len(m, k), packed_b_len(k, n));
        if pa.len() < la {
            pa.resize(la, 0.0);
        }
        if pb.len() < lb {
            pb.resize(lb, 0.0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", ((la + lb) * 4) as u64);
            pack_a(m, k, |i, kk| wk[i * k + kk], &mut pa[..la]);
            pack_b(k, n, |kk, j| x[kk * n + j], &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n * 4) as u64);
        run_f32_tconv_blocks(k, n, w, &pa[..la], &pb[..lb], bias4, out);
    });
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
    let (m, k) = (pa.m(), pa.k());
    let n = h * w;
    assert!(m.is_multiple_of(4), "tconv GEMM rows come in kidx quadruples");
    assert_eq!(x.len(), k * n, "input plane size");
    assert_eq!(out.len(), m * n, "output plane size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_F32.with(|cell| {
        let (_, pb) = &mut *cell.borrow_mut();
        let lb = packed_b_len(k, n);
        if pb.len() < lb {
            pb.resize(lb, 0.0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", (lb * 4) as u64);
            pack_b(k, n, |kk, j| x[kk * n + j], &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n * 4) as u64);
        run_f32_tconv_blocks(k, n, w, &pa.panels, &pb[..lb], bias4, out);
    });
}

/// One `MC`-row block of the INT8 tconv GEMM with the stride-2 scatter and
/// the requantise-clamp epilogue fused into the tile store. The MAC loop
/// mirrors `i8_block_requant` exactly (same ascending-`k` order, so results
/// are bit-identical to GEMM-then-scatter); only the store addresses differ.
/// Standalone `#[inline(never)]` for the same autovectorization reason as
/// the other INT8 blocks (see `block_driver_f32`).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn i8_block_scatter2x2(
    k: usize,
    n: usize,
    w: usize,
    row0: usize,
    pa: &[i8],
    pb: &[i8],
    c_blk: &mut [i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
) {
    let rows_blk = c_blk.len() / n;
    let n_jp = n.div_ceil(NR);
    let ow = 2 * w;
    let mut ip0 = 0;
    while ip0 < rows_blk {
        let tile_rows = MR.min(rows_blk - ip0);
        let apanel = &pa[(row0 + ip0) / MR * (MR * k)..][..MR * k];
        for jp in 0..n_jp {
            let j0 = jp * NR;
            let cols = NR.min(n - j0);
            let bpanel = &pb[jp * (NR * k)..][..NR * k];
            let mut acc = [[0i32; NR]; MR];
            for (a, b) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
                let mut bw = [0i32; NR];
                for (wv, &v) in bw.iter_mut().zip(b) {
                    *wv = v as i32;
                }
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    let ai = a[i] as i32;
                    for (acc_ij, &bv) in acc_i.iter_mut().zip(&bw) {
                        *acc_ij += ai * bv;
                    }
                }
            }
            for ii in 0..tile_rows {
                let row = row0 + ip0 + ii;
                let (ky, kx) = ((row % 4) / 2, row % 2);
                let plane = &mut c_blk[((ip0 + ii) / 4) * (4 * n)..][..4 * n];
                let bi = bias.get(row).copied().unwrap_or(0);
                for (tc, &v) in acc[ii][..cols].iter().enumerate() {
                    let j = j0 + tc;
                    let (iy, ix) = (j / w, j % w);
                    let mut q = requantize_i32(v + bi, shift);
                    if relu && q < 0 {
                        q = 0;
                    }
                    plane[(2 * iy + ky) * ow + 2 * ix + kx] = q;
                }
            }
        }
        ip0 += MR;
    }
}

/// The INT4-weight twin of [`i8_block_scatter2x2`]: nibble-packed `A`
/// panels, identical MAC order and scatter store.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn i4_block_scatter2x2(
    k: usize,
    n: usize,
    w: usize,
    row0: usize,
    pa: &[u8],
    pb: &[i8],
    c_blk: &mut [i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
) {
    const MR2: usize = MR / 2;
    let rows_blk = c_blk.len() / n;
    let n_jp = n.div_ceil(NR);
    let ow = 2 * w;
    let mut ip0 = 0;
    while ip0 < rows_blk {
        let tile_rows = MR.min(rows_blk - ip0);
        let apanel = &pa[(row0 + ip0) / MR * (MR2 * k)..][..MR2 * k];
        for jp in 0..n_jp {
            let j0 = jp * NR;
            let cols = NR.min(n - j0);
            let bpanel = &pb[jp * (NR * k)..][..NR * k];
            let mut acc = [[0i32; NR]; MR];
            for (a, b) in apanel.chunks_exact(MR2).zip(bpanel.chunks_exact(NR)) {
                let mut bw = [0i32; NR];
                for (wv, &v) in bw.iter_mut().zip(b) {
                    *wv = v as i32;
                }
                let mut aw = [0i32; MR];
                for (j, &byte) in a.iter().enumerate() {
                    aw[2 * j] = (((byte as i8) << 4) >> 4) as i32;
                    aw[2 * j + 1] = ((byte as i8) >> 4) as i32;
                }
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    let ai = aw[i];
                    for (acc_ij, &bv) in acc_i.iter_mut().zip(&bw) {
                        *acc_ij += ai * bv;
                    }
                }
            }
            for ii in 0..tile_rows {
                let row = row0 + ip0 + ii;
                let (ky, kx) = ((row % 4) / 2, row % 2);
                let plane = &mut c_blk[((ip0 + ii) / 4) * (4 * n)..][..4 * n];
                let bi = bias.get(row).copied().unwrap_or(0);
                for (tc, &v) in acc[ii][..cols].iter().enumerate() {
                    let j = j0 + tc;
                    let (iy, ix) = (j / w, j % w);
                    let mut q = requantize_i32(v + bi, shift);
                    if relu && q < 0 {
                        q = 0;
                    }
                    plane[(2 * iy + ky) * ow + 2 * ix + kx] = q;
                }
            }
        }
        ip0 += MR;
    }
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
    let (m, k) = (pa.m(), pa.k());
    let n = h * w;
    assert!(m.is_multiple_of(4), "tconv GEMM rows come in kidx quadruples");
    assert_eq!(x.len(), k * n, "input plane size");
    assert_eq!(out.len(), m * n, "output plane size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_I8.with(|cell| {
        let (_, pb) = &mut *cell.borrow_mut();
        let lb = packed_b_len(k, n);
        if pb.len() < lb {
            pb.resize(lb, 0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", lb as u64);
            pack_b(k, n, |kk, j| x[kk * n + j], &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n) as u64);
        let pbs = &pb[..lb];
        out.par_chunks_mut(MC * n).enumerate().for_each(|(blk, out_blk)| {
            i8_block_scatter2x2(k, n, w, blk * MC, &pa.panels, pbs, out_blk, bias4, shift, relu);
        });
    });
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
    let (m, k) = (pa.m(), pa.k());
    let n = h * w;
    assert!(m.is_multiple_of(4), "tconv GEMM rows come in kidx quadruples");
    assert_eq!(x.len(), k * n, "input plane size");
    assert_eq!(out.len(), m * n, "output plane size");
    if m == 0 || n == 0 {
        return;
    }
    PACK_I8.with(|cell| {
        let (_, pb) = &mut *cell.borrow_mut();
        let lb = packed_b_len(k, n);
        if pb.len() < lb {
            pb.resize(lb, 0);
        }
        {
            #[cfg(feature = "trace-gemm")]
            let _sp = seneca_trace::span_bytes("gemm", "pack", lb as u64);
            pack_b(k, n, |kk, j| x[kk * n + j], &mut pb[..lb]);
        }
        #[cfg(feature = "trace-gemm")]
        let _sp = seneca_trace::span_bytes("gemm", "kernel", (m * n) as u64);
        let pbs = &pb[..lb];
        out.par_chunks_mut(MC * n).enumerate().for_each(|(blk, out_blk)| {
            i4_block_scatter2x2(k, n, w, blk * MC, &pa.panels, pbs, out_blk, bias4, shift, relu);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{igemm_fused, sgemm_fused};
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
            let lb = packed_b_len(k_dim, n);
            let mut pb_ref = vec![0.0f32; lb];
            pack_b(k_dim, n, |kk2, j| col[kk2 * n + j], &mut pb_ref);
            let mut pb = vec![0.0f32; lb];
            pack_b_im2col(&geom, &x, &mut pb);
            assert_eq!(pb, pb_ref, "geom {geom:?}");
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
