//! Property tests for the implicit-GEMM convolution route.
//!
//! `pack_b_im2col` gathers activation panels directly from the NCHW feature
//! map with the im2col index math computed inside the tile gather; the
//! scatter-fused transpose-conv stores write the stride-2 output from the
//! GEMM tile. Both must reproduce the materialized route — explicit
//! `im2col` (resp. GEMM-then-scatter) feeding the same packed kernels —
//! exactly: the packs produce byte-identical panels, so even the f32
//! results are BIT-exact, not tolerance-close. Geometries are drawn from
//! primes around the tile sizes with stride 1 and 2 and padding on/off so
//! every draw exercises the padding halo, the output-row segment walk and
//! the NR-wide panel tails.
//!
//! The INT8 conv has two routes onto its one micro-kernel: a 3x3 same conv
//! packed by `PackedA::pack_conv` on a width of whole 16-column halves reads
//! a quad row band in place, every other conv gathers quad panels. Both must
//! equal `im2col_t` + the naive `igemm_reference` bit for bit: over channel
//! counts that leave quads part empty, widths that are and are not whole
//! halves, stride 2 and pad 0, at the driver's seams, and at the `i32`
//! bound. The portable tile body must equal the VNNI one on random panels.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use seneca_tensor::gemm::{
    igemm_fused, igemm_reference, int8_tile, sgemm_fused, sgemm_reference, strip_cols,
    GemmEpilogue, PackElem, PackedA, Work, FORK_MIN_MACS, MR, NR, QUAD, STRIP_BYTES,
};
use seneca_tensor::igemm::{
    igemm_conv_packed, igemm_tconv2x2_packed, sgemm_conv, sgemm_conv_packed, sgemm_tconv2x2,
};
use seneca_tensor::im2col::{im2col_t, ConvGeom};
use seneca_tensor::quantized::requantize_i32;
use seneca_tensor::tconv::{repack_tconv_weights, scatter_tconv2x2};

fn rand_f32(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
}

/// INT4-range values stored as i8 (the W4A8 weight representation).
fn rand_i4(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-8i32..8) as i8).collect()
}

/// Prime spatial extents: never multiples of the NR panel width, so the
/// output-row segment walk always hits a panel-tail seam mid-row.
const DIMS: [usize; 6] = [1, 3, 5, 7, 11, 13];
/// Prime channel counts (odd C_out exercises MR row tails).
const CHANS: [usize; 5] = [1, 2, 3, 5, 7];

/// Materialized-route f32 conv: explicit im2col + fused packed GEMM.
fn conv_f32_materialized(
    m: usize,
    w: &[f32],
    geom: &ConvGeom,
    x: &[f32],
    epi: GemmEpilogue<'_>,
    out: &mut [f32],
) {
    let (k, n) = (geom.col_rows(), geom.col_cols());
    let mut col = vec![0.0f32; k * n];
    im2col_t(geom, x, &mut col);
    sgemm_fused(m, k, n, w, &col, out, epi);
}

/// Widths for the f32 conv: the primes, and whole numbers of `NR`-wide
/// panels, where a 3x3 same conv reads row bands instead of packed strips.
const WIDTHS: [usize; 9] = [1, 3, 5, 7, 11, 13, NR, 2 * NR, 3 * NR];

/// Checks `sgemm_conv` and `sgemm_conv_packed` against the materialized
/// route bit for bit on a batch of two `[C, H, W]` images, under all four
/// epilogues.
fn check_f32_conv(m: usize, geom: &ConvGeom, seed: u64) {
    let (kdim, n) = (geom.col_rows(), geom.col_cols());
    let wt = rand_f32(m * kdim, seed);
    let pa = PackedA::pack(m, kdim, &wt);
    let b = rand_f32(m, seed + 2);
    let bn: Vec<(f32, f32)> = rand_f32(2 * m, seed + 3).chunks(2).map(|p| (p[0], p[1])).collect();
    let epis = [
        GemmEpilogue::None,
        GemmEpilogue::Bias(&b),
        GemmEpilogue::BiasRelu(&b),
        GemmEpilogue::BiasBn { bias: &b, bn: &bn, relu: seed.is_multiple_of(2) },
    ];
    let xs = rand_f32(2 * geom.c_in * geom.h * geom.w, seed + 1);
    let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (img, x) in xs.chunks_exact(geom.c_in * geom.h * geom.w).enumerate() {
        for epi in epis {
            let what = format!("{geom:?} m{m} image {img} {epi:?}");
            let mut y_ref = vec![0.0f32; m * n];
            conv_f32_materialized(m, &wt, geom, x, epi, &mut y_ref);
            let mut y = vec![0.0f32; m * n];
            sgemm_conv(m, &wt, geom, x, &mut y, epi);
            // Byte-identical operands + the same kernel => identical float ops.
            assert_eq!(bits(&y), bits(&y_ref), "sgemm_conv {what}");
            y.fill(f32::NAN);
            sgemm_conv_packed(&pa, geom, x, &mut y, epi);
            assert_eq!(bits(&y), bits(&y_ref), "sgemm_conv_packed {what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// f32 conv: the implicit route (packed strips, or row bands for a 3x3
    /// same conv on a whole number of panels) == materialized im2col, bit for
    /// bit, over random geometry (stride 1/2, pad 0/1, k 1..3, prime H/C,
    /// prime or `NR`-multiple W, `m` off the `MR` grid), every epilogue,
    /// batch 2. Half the draws are 3x3 same convs.
    #[test]
    fn conv_f32_implicit_matches_materialized(
        hi in 0usize..6, wi in 0usize..9, ci in 0usize..6, mi in 0usize..6,
        k in 1usize..4, pad in 0usize..2, stride in 1usize..3,
        same in any::<bool>(), seed in 0u64..1000
    ) {
        let (h, w) = (DIMS[hi], WIDTHS[wi]);
        let c_in = [1, 2, 3, 5, 7, 16][ci];
        let m = [1, 3, 5, 7, 8, 13][mi];
        let (k, pad, stride) = if same { (3, 1, 1) } else { (k, pad, stride) };
        // Keep the kernel within the padded extent (h, w >= 1 so k = 1
        // always fits).
        let k = k.min(h + 2 * pad).min(w + 2 * pad);
        check_f32_conv(m, &ConvGeom { c_in, h, w, k, pad, stride }, seed);
    }

    /// i8 conv: implicit pack == materialized im2col through the fused
    /// requantise epilogue, arbitrary shift/relu.
    #[test]
    fn conv_i8_implicit_matches_materialized(
        hi in 0usize..6, wi in 0usize..6, ci in 0usize..5, mi in 0usize..5,
        k in 1usize..4, pad in 0usize..2, stride in 1usize..3,
        shift in -2i32..10, relu_bit in 0u32..2, seed in 0u64..1000
    ) {
        let (h, w, c_in, m) = (DIMS[hi], DIMS[wi], CHANS[ci], CHANS[mi]);
        // Keep the kernel within the padded extent (h, w >= 1 so k = 1
        // always fits).
        let k = k.min(h + 2 * pad).min(w + 2 * pad);
        let relu = relu_bit == 1;
        let geom = ConvGeom { c_in, h, w, k, pad, stride };
        let (kdim, n) = (geom.col_rows(), geom.col_cols());
        let wt = rand_i8(m * kdim, seed);
        let x = rand_i8(c_in * h * w, seed + 1);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 91 - 777).collect();
        let mut y = vec![0i8; m * n];
        igemm_conv_packed(&PackedA::pack(m, kdim, &wt), &geom, &x, &bias, shift, relu, &mut y);
        let mut col = vec![0i8; kdim * n];
        im2col_t(&geom, &x, &mut col);
        let mut y_ref = vec![0i8; m * n];
        igemm_fused(m, kdim, n, &wt, &col, &bias, shift, relu, &mut y_ref);
        prop_assert_eq!(y, y_ref, "c{}x{}x{} k{} p{} s{}", c_in, h, w, k, pad, stride);
    }

    /// f32 tconv: scatter-fused store == GEMM into a pre-scatter buffer
    /// followed by the explicit stride-2 scatter, bit for bit.
    #[test]
    fn tconv_f32_scatter_fused_matches_materialized(
        hi in 0usize..6, wi in 0usize..6, ci in 0usize..5, coi in 0usize..5,
        bias_bit in 0u32..2, seed in 0u64..1000
    ) {
        let (h, w, c_in, c_out) = (DIMS[hi], DIMS[wi], CHANS[ci], CHANS[coi]);
        let (m, n) = (4 * c_out, h * w);
        let wt = rand_f32(c_in * c_out * 4, seed);
        let mut wk = vec![0.0f32; m * c_in];
        repack_tconv_weights(c_in, c_out, &wt, &mut wk);
        let x = rand_f32(c_in * n, seed + 1);
        let bias4: Vec<f32> = if bias_bit == 1 {
            let b = rand_f32(c_out, seed + 2);
            (0..m).map(|i| b[i / 4]).collect()
        } else {
            Vec::new()
        };
        let mut y = vec![0.0f32; c_out * 4 * n];
        sgemm_tconv2x2(c_out, c_in, &wk, &x, h, w, &bias4, &mut y);
        let epi = if bias4.is_empty() { GemmEpilogue::None } else { GemmEpilogue::Bias(&bias4) };
        let mut ytmp = vec![0.0f32; m * n];
        sgemm_fused(m, c_in, n, &wk, &x, &mut ytmp, epi);
        let mut y_ref = vec![0.0f32; c_out * 4 * n];
        scatter_tconv2x2(c_out, h, w, &ytmp, &mut y_ref);
        prop_assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "cin{} cout{} {}x{}", c_in, c_out, h, w
        );
    }

    /// i8 tconv: scatter-fused requantising store == fused GEMM + explicit
    /// scatter.
    #[test]
    fn tconv_i8_scatter_fused_matches_materialized(
        hi in 0usize..6, wi in 0usize..6, ci in 0usize..5, coi in 0usize..5,
        shift in -2i32..10, relu_bit in 0u32..2, seed in 0u64..1000
    ) {
        let (h, w, c_in, c_out) = (DIMS[hi], DIMS[wi], CHANS[ci], CHANS[coi]);
        let relu = relu_bit == 1;
        let (m, n) = (4 * c_out, h * w);
        let wt = rand_i8(c_in * c_out * 4, seed);
        let mut wk = vec![0i8; m * c_in];
        repack_tconv_weights(c_in, c_out, &wt, &mut wk);
        let x = rand_i8(c_in * n, seed + 1);
        let bias4: Vec<i32> = (0..m as i32).map(|i| (i / 4) * 37 - 111).collect();
        let mut y = vec![0i8; c_out * 4 * n];
        let pa = PackedA::pack(m, c_in, &wk);
        igemm_tconv2x2_packed(&pa, &x, h, w, &bias4, shift, relu, &mut y, &mut Work::default());
        let mut ytmp = vec![0i8; m * n];
        igemm_fused(m, c_in, n, &wk, &x, &bias4, shift, relu, &mut ytmp);
        let mut y_ref = vec![0i8; c_out * 4 * n];
        scatter_tconv2x2(c_out, h, w, &ytmp, &mut y_ref);
        prop_assert_eq!(y, y_ref, "cin{} cout{} {}x{} shift {}", c_in, c_out, h, w, shift);
    }

    /// INT8 conv on weights packed for a conv: the band route (3x3 same conv,
    /// width a whole number of 16-column halves) and the gather route (every
    /// other width, stride 2, pad 0, `k` 1..3) == `im2col_t` + the naive
    /// GEMM, bit for bit. `C_in` leaves the last quad 1–3 channels short or
    /// full, `m` is on and off the `MR` grid, W8 and W4-range weights, ReLU
    /// on and off, positive and negative shifts.
    #[test]
    fn conv_i8_band_and_gather_match_the_reference(
        hi in 0usize..6, wi in 0usize..6, ci in 0usize..6, mi in 0usize..5,
        k in 1usize..4, pad in 0usize..2, stride in 1usize..3, same in any::<bool>(),
        shift in -2i32..16, relu_bit in 0u32..2, w4_bit in 0u32..2, seed in 0u64..1000
    ) {
        let (h, w) = (DIMS[hi], [8, 16, 24, 32, 48, 70][wi]);
        let (c_in, m) = ([1, 2, 3, 5, 8, 13][ci], [1, 3, 7, 8, 13][mi]);
        let (k, pad, stride) = if same { (3, 1, 1) } else { (k, pad, stride) };
        let k = k.min(h + 2 * pad);
        let geom = ConvGeom { c_in, h, w, k, pad, stride };
        let (kdim, n) = (geom.col_rows(), geom.col_cols());
        let wt = if w4_bit == 1 { rand_i4(m * kdim, seed) } else { rand_i8(m * kdim, seed) };
        let x = rand_i8(c_in * h * w, seed + 1);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 91 - 777).collect();
        let want = conv_i8_reference(m, &geom, &wt, &x, &bias, (shift, relu_bit == 1));
        let mut y = vec![0i8; m * n];
        let pa = PackedA::pack_conv(m, c_in, k * k, &wt);
        igemm_conv_packed(&pa, &geom, &x, &bias, shift, relu_bit == 1, &mut y);
        prop_assert_eq!(y, want, "c{}->{} {}x{} k{} p{} s{}", c_in, m, h, w, k, pad, stride);
    }

    /// The portable tile body == the VNNI one (on a build without VNNI, the
    /// same body twice) == the tile by its definition, on random panels,
    /// row starts, activation bytes and step offsets, the two halves read
    /// from unrelated places.
    #[test]
    fn int8_tile_bodies_agree(steps in 0usize..40, seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ap = rand_i8(steps * QUAD * MR, seed + 1);
        let starts: [i32; MR] = std::array::from_fn(|_| rng.gen_range(-1 << 20..1 << 20));
        let b: Vec<u8> = rand_i8(5120, seed + 2).iter().map(|&v| v as u8).collect();
        let offs: Vec<u32> = (0..steps).map(|_| rng.gen_range(0..2048 - 64)).collect();
        let halves = [&b[..2048], &b[2048 + rng.gen_range(0..1024)..][..2048]];
        let portable = int8_tile(&ap, &starts, halves, &offs, true);
        let native = int8_tile(&ap, &starts, halves, &offs, false);
        prop_assert_eq!(portable, native);
        for (i, row) in portable.iter().enumerate() {
            for (j, &got) in row.iter().enumerate() {
                let (half, lane) = (halves[j / (NR / 2)], j % (NR / 2));
                let want: i32 = starts[i]
                    + (0..steps * QUAD)
                        .map(|t| {
                            let (s, q) = (t / QUAD, t % QUAD);
                            let x = half[offs[s] as usize + QUAD * lane + q];
                            i32::from(ap[(s * MR + i) * QUAD + q]) * i32::from(x)
                        })
                        .sum::<i32>();
                prop_assert_eq!(got, want, "row {} column {}", i, j);
            }
        }
    }
}

/// The INT8 conv by its definition: `im2col_t`, the naive GEMM, the
/// requantise-clamp.
fn conv_i8_reference(
    m: usize,
    geom: &ConvGeom,
    wt: &[i8],
    x: &[i8],
    bias: &[i32],
    (shift, relu): (i32, bool),
) -> Vec<i8> {
    let (k, n) = (geom.col_rows(), geom.col_cols());
    let mut col = vec![0i8; k * n];
    im2col_t(geom, x, &mut col);
    let mut acc = vec![0i32; m * n];
    igemm_reference(m, k, n, wt, &col, &mut acc);
    let floor = if relu { 0 } else { i8::MIN };
    acc.iter()
        .enumerate()
        .map(|(i, &v)| requantize_i32(v + bias[i / n], shift).max(floor))
        .collect()
}

// ---------------------------------------------------------------------------
// The seams of the strip-mined driver, at sizes where it really cuts strips
// and forks (the property tests above stay under one strip and run inline),
// against references that share no code with it: `im2col_t` + the naive
// triple loops for conv, the transpose-conv definition for tconv.
// ---------------------------------------------------------------------------

/// Naive conv in both dtypes from one `[-8, 7]` weight draw: returns `(f32
/// out, i8 out)`; the INT8 conv on either packing must equal the `i8`
/// result.
fn conv_reference(
    m: usize,
    geom: &ConvGeom,
    wt: &[i8],
    x: &[i8],
    bias: &[i32],
    shift: i32,
) -> (Vec<f32>, Vec<i8>) {
    let (k, n) = (geom.col_rows(), geom.col_cols());
    let mut col = vec![0i8; k * n];
    im2col_t(geom, x, &mut col);
    let mut acc = vec![0i32; m * n];
    igemm_reference(m, k, n, wt, &col, &mut acc);
    let q = acc.iter().enumerate().map(|(i, &v)| requantize_i32(v + bias[i / n], shift).max(0));
    let (wf, colf): (Vec<f32>, Vec<f32>) =
        (wt.iter().map(|&v| v as f32 / 8.0).collect(), col.iter().map(|&v| v as f32).collect());
    let mut yf = vec![0.0f32; m * n];
    sgemm_reference(m, k, n, &wf, &colf, &mut yf);
    for (i, v) in yf.iter_mut().enumerate() {
        *v = (*v + bias[i / n] as f32).max(0.0);
    }
    (yf, q.collect())
}

#[test]
fn conv_driver_seams_match_the_naive_reference() {
    let fork_rows = |k: usize, n: usize| FORK_MIN_MACS.div_ceil(k * n);
    // (c_in, kernel, h, w, m): `w` is never a multiple of NR, so strips and
    // parts start mid-row.
    let (nc8, nc32) = (strip_cols(576, 1), strip_cols(576, 4));
    let mut cases = vec![
        (1, 1, 5, 7, 3),                                         // k = 1, n < NR, m < MR
        (3, 3, 5, 9, 33),                                        // odd k, n % NR != 0, m % 32 != 0
        (64, 3, 11, 449, 3),                                     // m < MR under a dozen strips
        (3, 3, 70, 150, FORK_MIN_MACS.div_ceil(27 * 10500) | 1), // small odd k, wide strips
    ];
    for nc in [nc8, nc32] {
        // One column short of a strip, exactly one strip, one column over.
        cases.extend([nc - 1, nc, nc + 1].map(|n| (64, 3, 1, n, fork_rows(576, n) + 1)));
    }
    for (c_in, kk, h, w, m) in cases {
        let geom = ConvGeom { c_in, h, w, k: kk, pad: kk / 2, stride: 1 };
        let (k, n) = (geom.col_rows(), geom.col_cols());
        let what = format!("{c_in}x{h}x{w} k{kk} m{m}");
        let (wt, x) = (rand_i4(m * k, 5), rand_i8(c_in * n, 6));
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 91 - 777).collect();
        let shift = 3 + k.ilog2() as i32;
        let (want_f32, want_i8) = conv_reference(m, &geom, &wt, &x, &bias, shift);

        let mut y = vec![0i8; m * n];
        igemm_conv_packed(&PackedA::pack(m, k, &wt), &geom, &x, &bias, shift, true, &mut y);
        assert_eq!(y, want_i8, "INT8 {what}");

        y.fill(0);
        let pa = PackedA::pack_conv(m, c_in, kk * kk, &wt);
        igemm_conv_packed(&pa, &geom, &x, &bias, shift, true, &mut y);
        assert_eq!(y, want_i8, "INT8 packed for a conv {what}");

        let wf: Vec<f32> = wt.iter().map(|&v| v as f32 / 8.0).collect();
        let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = bias.iter().map(|&v| v as f32).collect();
        let mut yf = vec![0.0f32; m * n];
        sgemm_conv(m, &wf, &geom, &xf, &mut yf, GemmEpilogue::BiasRelu(&bf));
        // Same ascending-k FMA chain per element as the naive loop: equal bits.
        assert!(yf.iter().zip(&want_f32).all(|(a, b)| a.to_bits() == b.to_bits()), "f32 {what}");
    }
}

/// The f32 row-band route at the driver's seams, against the materialized
/// route: a channel count whose single padded row is larger than
/// the band budget, [`STRIP_BYTES`] (one-row bands) and a map that forks into column parts
/// whose row counts are not a multiple of the band's. Both fork.
#[test]
fn band_conv_seams_match_materialized() {
    let wide_c = STRIP_BYTES / ((NR + 2) * size_of::<f32>()) + 1;
    for (c_in, h, w, m) in [(wide_c, 3, NR, 13), (64, 70, 2 * NR, 13)] {
        let geom = ConvGeom { c_in, h, w, k: 3, pad: 1, stride: 1 };
        assert!(m * geom.col_rows() * geom.col_cols() >= FORK_MIN_MACS, "{geom:?} forks");
        check_f32_conv(m, &geom, 9);
    }
}

/// The INT8 band route at the driver's seams, against the reference: a
/// channel count whose single padded row is larger than the band budget,
/// [`STRIP_BYTES`] (one-row bands); a map that forks into column parts whose
/// row counts are not a multiple of the band's, on a width of three halves
/// (panels straddle output rows); and a width of one half with an odd row
/// count (a part ends on a half panel). The first two fork.
#[test]
fn int8_band_seams_match_the_reference() {
    let w = 6 * NR / 2;
    let wide_c = STRIP_BYTES / (w + 2) + 1;
    let cases =
        [(wide_c, 3, w, 13, true), (32, 70, 3 * NR / 2, 13, true), (5, 37, NR / 2, 9, false)];
    for (c_in, h, w, m, forks) in cases {
        let geom = ConvGeom { c_in, h, w, k: 3, pad: 1, stride: 1 };
        let (k, n) = (geom.col_rows(), geom.col_cols());
        assert_eq!(m * k * n >= FORK_MIN_MACS, forks, "{geom:?} forks");
        let (wt, x) = (rand_i8(m * k, 11), rand_i8(c_in * h * w, 12));
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 91 - 777).collect();
        let epi = (8 + k.ilog2() as i32, false);
        let mut y = vec![0i8; m * n];
        let pa = PackedA::pack_conv(m, c_in, 9, &wt);
        igemm_conv_packed(&pa, &geom, &x, &bias, epi.0, epi.1, &mut y);
        assert_eq!(y, conv_i8_reference(m, &geom, &wt, &x, &bias, epi), "{geom:?} m{m}");
    }
}

/// The INT8 `i32` bound at the largest Table II `k` (1024 channels, 9216):
/// all `-128` activations against all `127` weights (and the reverse, and
/// both `-128`) on both routes stay exact — in a debug build the portable
/// body would panic on an `i32` overflow.
#[test]
fn int8_is_exact_at_the_largest_table_ii_k() {
    let (m, c_in, h) = (3, 1024, 4);
    let bias = [5, -7, 0];
    for w in [NR / 2, 7] {
        let geom = ConvGeom { c_in, h, w, k: 3, pad: 1, stride: 1 };
        for (wv, xv) in [(127i8, -128i8), (-128, 127), (-128, -128)] {
            let (wt, x) = (vec![wv; m * c_in * 9], vec![xv; c_in * h * w]);
            let epi = (22, false);
            let mut y = vec![0i8; m * h * w];
            let pa = PackedA::pack_conv(m, c_in, 9, &wt);
            igemm_conv_packed(&pa, &geom, &x, &bias, epi.0, epi.1, &mut y);
            assert_eq!(y, conv_i8_reference(m, &geom, &wt, &x, &bias, epi), "w {wv} x {xv}");
            assert!(y.iter().any(|&v| v != 0 && v.abs() < 127), "outputs dead or saturated");
        }
    }
}

/// The bound counts the padding: 3641 channels pad to 3644, `k = 32 796`.
#[test]
#[should_panic(expected = "exceeds the accumulator-safe extent")]
fn int8_conv_panels_refuse_k_past_the_bound() {
    let c_in = <i8 as PackElem>::MAX_K / 9 + 1;
    assert!(c_in * 9 <= <i8 as PackElem>::MAX_K + 9);
    PackedA::pack_conv(1, c_in, 9, &vec![0; c_in * 9]);
}

/// 2x2 stride-2 transpose conv by its definition, from `[C_in, C_out, 2, 2]`
/// weights: `out[co][2iy+ky][2ix+kx] = f(Σ_ci x[ci][iy][ix] · w[ci][co][ky][kx], co)`.
fn tconv_reference<T: Copy, A: Default, O: Default + Clone>(
    (c_in, c_out, h, w): (usize, usize, usize, usize),
    wt: &[T],
    x: &[T],
    mac: impl Fn(A, T, T) -> A,
    finish: impl Fn(A, usize) -> O,
) -> Vec<O> {
    let mut out = vec![O::default(); c_out * 4 * h * w];
    for co in 0..c_out {
        for (iy, ix, kidx) in
            (0..h).flat_map(|iy| (0..w).flat_map(move |ix| (0..4).map(move |q| (iy, ix, q))))
        {
            let acc = (0..c_in).fold(A::default(), |a, ci| {
                mac(a, x[(ci * h + iy) * w + ix], wt[(ci * c_out + co) * 4 + kidx])
            });
            let (oy, ox) = (2 * iy + kidx / 2, 2 * ix + kidx % 2);
            out[(co * 2 * h + oy) * 2 * w + ox] = finish(acc, co);
        }
    }
    out
}

#[test]
fn tconv_driver_seams_match_the_definition() {
    // Non-square, non-power-of-two widths: a column part must cover whole
    // input rows whatever `w` is. (c_in, c_out, h, w): the first splits
    // columns in both dtypes (several strips), the second is one INT8 strip
    // and splits row tiles (m = 36 leaves a half tile), the third is tiny.
    for dims in [(64, 9, 70, 61), (256, 9, 31, 33), (3, 1, 3, 5)] {
        let (c_in, c_out, h, w) = dims;
        let (m, n) = (4 * c_out, h * w);
        let wt = rand_i4(c_in * c_out * 4, 7);
        let mut wk = vec![0i8; m * c_in];
        repack_tconv_weights(c_in, c_out, &wt, &mut wk);
        let x = rand_i8(c_in * n, 8);
        let bias: Vec<i32> = (0..c_out as i32).map(|i| i * 37 - 111).collect();
        let bias4: Vec<i32> = (0..m).map(|i| bias[i / 4]).collect();
        let shift = 2 + c_in.ilog2() as i32;
        let want = tconv_reference(
            dims,
            &wt,
            &x,
            |a: i32, x, w| a + x as i32 * w as i32,
            |a, co| requantize_i32(a + bias[co], shift),
        );
        let mut y = vec![0i8; 4 * c_out * n];
        igemm_tconv2x2_packed(
            &PackedA::pack(m, c_in, &wk),
            &x,
            h,
            w,
            &bias4,
            shift,
            false,
            &mut y,
            &mut Work::default(),
        );
        assert_eq!(y, want, "INT8 {dims:?}");

        let to_f32 = |v: &[i8]| v.iter().map(|&v| v as f32 / 4.0).collect::<Vec<f32>>();
        let (wtf, wkf, xf) = (to_f32(&wt), to_f32(&wk), to_f32(&x));
        let bf4: Vec<f32> = bias4.iter().map(|&v| v as f32).collect();
        let want = tconv_reference(
            dims,
            &wtf,
            &xf,
            |a: f32, x, w| w.mul_add(x, a),
            |a, co| a + bf4[4 * co],
        );
        let mut yf = vec![0.0f32; 4 * c_out * n];
        sgemm_tconv2x2(c_out, c_in, &wkf, &xf, h, w, &bf4, &mut yf);
        assert!(yf.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()), "f32 {dims:?}");
    }
}
