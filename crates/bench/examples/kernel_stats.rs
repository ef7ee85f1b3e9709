//! GEMM and conv micro-kernel checks on the conv shapes of the Table II
//! models at 256x256. Per-shape throughput over time is the benchmark's
//! `tensor.*` ledger (`benchmark/`); this example keeps the CI gate and the
//! INT8-vs-FP32 race.
//!
//! Modes (first CLI argument):
//!
//! * `smoke` — CI gate: igemm bit-exact against the naive kernel on a
//!   fixed seed, and packed-beats-reference on
//!   the largest shape, both dtypes; the INT8 conv as the executor runs it
//!   (reading its input quad map in place, storing the next map) bit-exact
//!   against the naive reference and at least 1.5x the FP32 conv's MAC rate
//!   on the 16M `64 -> 32` conv at 256x256, and bit-exact in place on the
//!   16M's 8x8 `512 -> 512` bottleneck conv; the 1M model's last INT8 tconv
//!   (quad map to quad map) bit-exact against GEMM + scatter and at least
//!   0.6x the MAC rate of the same GEMM with a row store (its scatter store
//!   vectorises). It is also the binary `scripts/check_kernel_asm.sh`
//!   disassembles.
//! * `int8` — the INT8 conv (in place on its quad map, or gathering from it,
//!   as the executor runs it) against the FP32 conv on every 1M / 16M conv
//!   shape at 256x256 and on the 8x8, 4x4 and 2x2 maps of the 1M, 4M and 8M
//!   at 64x64, with its route and the i8 ÷ f32 MAC-rate ratio.

use rand::{Rng, SeedableRng};
use seneca_ir::IrOp;
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_tensor::gemm::{
    igemm, igemm_fused, igemm_reference, sgemm, sgemm_fused, sgemm_reference, GemmEpilogue,
    PackedA, Work,
};
use seneca_tensor::igemm::{
    igemm_conv_packed, igemm_conv_quads, igemm_map_scratch, igemm_tconv2x2_quads, reads_map,
    sgemm_conv, sgemm_conv_packed, QuadOut,
};
use seneca_tensor::im2col::{im2col_t, ConvGeom};
use seneca_tensor::quad::{pack_nchw, unpack_nchw, QuadMap};
use seneca_tensor::quantized::requantize_i32;
use seneca_tensor::tconv::{repack_tconv_quads, scatter_tconv2x2};
use seneca_tensor::Shape4;
use std::time::Instant;

/// Seconds per call: one warmup, then timed iterations until `min_time`
/// elapses (at least `min_iters`).
fn time_per_call(min_time: f64, min_iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < min_iters || start.elapsed().as_secs_f64() < min_time {
        f();
        iters += 1;
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Seconds per call of each arm, timed back to back in alternation so that
/// a change of machine speed hits every arm alike (the reference VM drifts
/// by tens of percent within seconds); the medians over the rounds.
fn race<const N: usize>(min_time: f64, mut arms: [&mut dyn FnMut(); N]) -> [f64; N] {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let start = Instant::now();
    while times[0].len() < 5 || start.elapsed().as_secs_f64() < N as f64 * min_time {
        for (arm, t) in arms.iter_mut().zip(&mut times) {
            let t0 = Instant::now();
            arm();
            t.push(t0.elapsed().as_secs_f64());
        }
    }
    times.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    })
}

#[derive(Clone, Copy)]
struct ConvShape {
    model: &'static str,
    m: usize,
    k: usize,
    n: usize,
    /// Conv geometry behind the GEMM shape (3x3 same conv): `k = c_in * 9`,
    /// `n = h * w`. Used by the conv-level checks and races.
    c_in: usize,
    h: usize,
    w: usize,
}

impl ConvShape {
    fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }

    fn geom(&self) -> ConvGeom {
        ConvGeom { c_in: self.c_in, h: self.h, w: self.w, k: 3, pad: 1, stride: 1 }
    }
}

/// The 3x3 conv shapes of `size` on a `side x side` input, in node order.
fn conv_shapes(size: ModelSize, side: usize) -> Vec<ConvShape> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let g = Graph::from_unet(&UNet::from_size(size, &mut rng), size.label()).to_ir();
    let shapes = g.shapes(Shape4::new(1, 1, side, side));
    let conv = |node: &seneca_ir::IrNode| {
        let IrOp::Conv(a) = &node.op else { return None };
        let (s, model) = (shapes[node.inputs[0]], size.label());
        let (m, c_in) = (a.kernel.c_out(false), a.kernel.c_in(false));
        Some(ConvShape { model, m, k: c_in * 9, n: s.hw(), c_in, h: s.h, w: s.w })
    };
    g.nodes.iter().filter_map(conv).collect()
}

/// Two 3x3-conv GEMM shapes of each Table II model at 256x256: the
/// highest-MAC one (first of the pair) and the highest-MAC *full-resolution*
/// one — the `2c -> c` decoder conv at 256x256, few output rows against 65 536
/// columns, where the activation side of the GEMM dominates. Ties in total
/// MACs resolve to the first conv in node order.
fn table2_conv_shapes() -> Vec<[ConvShape; 2]> {
    let highest = |best: ConvShape, s: ConvShape| if s.macs() > best.macs() { s } else { best };
    ModelSize::ALL
        .iter()
        .map(|&size| {
            let convs = conv_shapes(size, 256);
            let full_res = convs.iter().copied().filter(|s| s.h == 256).reduce(highest);
            [convs.into_iter().reduce(highest), full_res].map(|s| s.expect("a full-res conv"))
        })
        .collect()
}

fn make_f32(shape: ConvShape) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(shape.macs());
    let a = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (a, b, vec![0.0; m * n])
}

fn make_i8(shape: ConvShape) -> (Vec<i8>, Vec<i8>, Vec<i32>) {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(shape.macs() ^ 0xF00D);
    let a = (0..m * k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let b = (0..k * n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    (a, b, vec![0; m * n])
}

/// One NCHW image of `c` channels as a quad map, border included.
fn to_map(x: &[i8], c: usize, h: usize, w: usize) -> (QuadMap, Vec<i8>) {
    let g = QuadMap::new(c, h, w);
    let mut map = vec![0; g.len()];
    pack_nchw(x, &(0..c).collect::<Vec<_>>(), g, &mut map);
    (g, map)
}

/// The `c` channels of a quad map as an NCHW image.
fn from_map(map: &[i8], g: QuadMap, c: usize) -> Vec<i8> {
    let mut y = vec![0; c * g.h * g.w];
    unpack_nchw(map, g, &(0..c).collect::<Vec<_>>(), &mut y);
    y
}

/// igemm bit-exactness gate on a fixed seed, independent of timing noise.
fn check_igemm_bit_exact(largest: ConvShape) {
    let (m, k, n) = (largest.m, largest.k, largest.n.min(4096));
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let mut c = vec![0i32; m * n];
    let mut c_ref = vec![0i32; m * n];
    igemm(m, k, n, &a, &b, &mut c);
    igemm_reference(m, k, n, &a, &b, &mut c_ref);
    assert_eq!(c, c_ref, "igemm packed != naive on fixed seed ({m}x{k}x{n})");
    println!("igemm bit-exactness: packed == naive on {m}x{k}x{n} (seed 99)");
}

/// Implicit-GEMM conv gate on one Table II conv: the implicit route (strips
/// gathered straight from the feature map) must be bit-exact against the
/// materialized im2col route on a fixed seed, in both dtypes. With
/// `race_time` (the 16M `64 -> 32` conv at 256x256, where the activation side
/// dominates) two ratios are gated, each from an interleaved [`race`]:
/// implicit is no slower than materialized in either dtype — it does strictly
/// less memory traffic, so a loss means the pack stopped vectorizing. The
/// INT8 / FP32 MAC-rate ratio of these per-call-packed (gathering) arms is
/// raced and printed, not gated; the executor's conv's is gated by
/// [`check_int8_map_conv`].
fn check_implicit_conv(s: ConvShape, race_time: Option<f64>) {
    let geom = s.geom();
    let (m, k, n) = (s.m, s.k, s.n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);

    // INT8: fused requantising conv, bias + relu on.
    let wt: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let x: Vec<i8> =
        (0..geom.c_in * geom.h * geom.w).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..m as i32).map(|i| i * 91 - 777).collect();
    let (mut y_imp, mut y_mat, mut col) = (vec![0i8; m * n], vec![0i8; m * n], vec![0i8; k * n]);
    // Both arms pack the weight panels per call (`igemm_fused` does so
    // internally), so the race isolates the activation side: implicit gather
    // vs materialize-then-pack.
    let mut implicit =
        || igemm_conv_packed(&PackedA::pack(m, k, &wt), &geom, &x, &bias, 6, true, &mut y_imp);
    let mut materialized = || {
        im2col_t(&geom, &x, &mut col);
        igemm_fused(m, k, n, &wt, &col, &bias, 6, true, &mut y_mat);
    };

    // FP32: the packs produce byte-identical panels, so the FMA sequence is
    // identical and the results must be too.
    let wf: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let xf: Vec<f32> = (0..geom.c_in * geom.h * geom.w).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let bf: Vec<f32> = (0..m).map(|_| rng.gen_range(-0.2..0.2)).collect();
    let (mut yf_imp, mut yf_mat) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    let mut colf = vec![0.0f32; k * n];
    let mut implicit_f32 =
        || sgemm_conv(m, &wf, &geom, &xf, &mut yf_imp, GemmEpilogue::BiasRelu(&bf));
    let mut materialized_f32 = || {
        im2col_t(&geom, &xf, &mut colf);
        sgemm_fused(m, k, n, &wf, &colf, &mut yf_mat, GemmEpilogue::BiasRelu(&bf));
    };
    let times = race_time.map(|t| {
        [
            race(t, [&mut implicit, &mut materialized]),
            race(t, [&mut implicit_f32, &mut materialized_f32]),
            race(t, [&mut implicit, &mut implicit_f32]),
        ]
    });
    implicit();
    materialized();
    implicit_f32();
    materialized_f32();
    assert_eq!(y_imp, y_mat, "implicit i8 conv != materialized im2col route (seed 4242)");
    assert!(
        yf_imp.iter().zip(&yf_mat).all(|(a, b)| a.to_bits() == b.to_bits()),
        "implicit f32 conv != materialized im2col route bit-for-bit (seed 4242)"
    );
    println!("implicit conv {} {m}x{k}x{n}: i8 and f32 bit-exact vs materialized", s.model);

    let Some([t_i8, t_f32, t_mix]) = times else { return };
    let gmac = s.macs() as f64 / 1e9;
    println!(
        "  i8 implicit {:.2} vs materialized {:.2} GMAC/s | f32 implicit {:.2} vs materialized \
         {:.2} GMAC/s | i8 / f32 = {:.2}x",
        gmac / t_i8[0],
        gmac / t_i8[1],
        gmac / t_f32[0],
        gmac / t_f32[1],
        t_mix[1] / t_mix[0]
    );
    assert!(t_i8[0] <= t_i8[1], "implicit i8 conv slower than the materialized route");
    assert!(t_f32[0] <= t_f32[1] * 1.05, "implicit f32 conv slower than the materialized route");
}

/// The INT8 tconv store gate on the 1M model's last tconv (`16 -> 16`,
/// 128x128 -> 256x256), quad map to quad map as the executor runs it: the
/// scatter-fused tconv must be bit-exact against the fused GEMM followed by
/// [`scatter_tconv2x2`], and reach at least 0.6x the MAC rate of a 1x1
/// [`igemm_conv_packed`] with the same `(m, k, n) = (64, 16, 16384)` — the
/// same GEMM with a row store — raced back to back. The GEMM is 16 MACs per
/// output byte, so the store decides the rate: a scalar scatter store ran
/// at ~0.12x, the vectorised one at ~1.05x.
fn check_tconv_store() {
    let (c_in, c_out, h, w) = (16, 16, 128, 128);
    let (m, k, n) = (4 * c_out, c_in, h * w);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7C0);
    let wt: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let x: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..c_out as i32).map(|i| i * 91 - 777).collect();
    let (shift, relu) = (7, true);
    // The co-major GEMM of the reference, and the quad-ordered one the
    // executor runs (row `16q + 8ky + 4kx + l` is channel `4q + l`).
    let mut wk = vec![0i8; m * k];
    seneca_tensor::tconv::repack_tconv_weights(c_in, c_out, &wt, &mut wk);
    let bias4: Vec<i32> = (0..m).map(|i| bias[i / 4]).collect();
    let (g, map) = to_map(&x, c_in, h, w);
    let wq = repack_tconv_quads(c_out, &(0..c_in).collect::<Vec<_>>(), g.c, &wt);
    let bias_q: Vec<i32> = (0..m).map(|r| bias[r / 16 * 4 + r % 4]).collect();
    let (pa, pq) = (PackedA::pack(m, k, &wk), PackedA::pack(m, g.c, &wq));
    let geom = ConvGeom { c_in, h, w, k: 1, pad: 0, stride: 1 };
    let og = QuadMap::new(c_out, 2 * h, 2 * w);
    let (mut y, mut y_rows) = (vec![0i8; og.len()], vec![0i8; m * n]);
    let (strips, offs) = igemm_map_scratch(&pq, g);
    let mut work = Work::new(strips, offs);
    let [t_tconv, t_rows] = race(
        0.5,
        [
            &mut || igemm_tconv2x2_quads(&pq, g, &map, &bias_q, shift, relu, &mut y, &mut work),
            &mut || igemm_conv_packed(&pa, &geom, &x, &bias4, shift, relu, &mut y_rows),
        ],
    );
    let mut y_ref = vec![0i8; m * n];
    igemm_fused(m, k, n, &wk, &x, &bias4, shift, relu, &mut y_rows);
    scatter_tconv2x2(c_out, h, w, &y_rows, &mut y_ref);
    assert_eq!(
        from_map(&y, og, c_out),
        y_ref,
        "scatter-fused tconv != GEMM + scatter (seed 0x7C0)"
    );
    let gmac = (m * k * n) as f64 / 1e9;
    let ratio = t_rows / t_tconv;
    println!(
        "tconv store 1M {c_in}->{c_out} @{h}: bit-exact, {:.2} vs row store {:.2} GMAC/s ({:.2}x)",
        gmac / t_tconv,
        gmac / t_rows,
        ratio
    );
    assert!(ratio >= 0.6, "tconv scatter store at {ratio:.2}x the row store's rate (< 0.6x)");
}

/// The 3x3 convs of the 1M and 16M models at 256x256, then the narrow maps
/// (8x8 and below) of the 1M, 4M and 8M at the fleet's 64x64 ROI: distinct
/// shapes in node order.
fn race_shapes() -> Vec<ConvShape> {
    let mut out: Vec<ConvShape> = Vec::new();
    for (size, side, max_hw) in [
        (ModelSize::M1, 256, 256),
        (ModelSize::M16, 256, 256),
        (ModelSize::M1, 64, 8),
        (ModelSize::M4, 64, 8),
        (ModelSize::M8, 64, 8),
    ] {
        for s in conv_shapes(size, side) {
            if s.w <= max_hw && !out.iter().any(|o| (o.m, o.c_in, o.h) == (s.m, s.c_in, s.h)) {
                out.push(s);
            }
        }
    }
    out
}

/// One shape's race, in GMAC/s.
struct Int8Race {
    /// The INT8 conv as the executor runs it: weights packed for a conv over
    /// its input's quad map, the next map stored.
    i8: f64,
    /// The FP32 conv, weights packed once as inference runs it.
    f32: f64,
    /// Whether the INT8 conv reads its map in place (else it gathers strips
    /// from it).
    in_place: bool,
}

/// The INT8 conv against the FP32 conv on one shape, every weight set packed
/// once as the lowering packs it and the INT8 conv run from quad map to quad
/// map on work memory sized for it, as the executor runs it: asserts the
/// INT8 conv bit-exact against `want` (the same conv by another route), then
/// returns an interleaved race.
fn int8_vs_f32(
    s: ConvShape,
    min_time: f64,
    want: impl Fn(&PackedA<i8>, &[i8], &[i8]) -> Vec<i8>,
) -> Int8Race {
    let geom = s.geom();
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.macs());
    let wt: Vec<i8> = (0..s.m * s.k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let x: Vec<i8> = (0..s.c_in * s.n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..s.m as i32).map(|i| i * 91 - 777).collect();
    let (g, map) = to_map(&x, s.c_in, s.h, s.w);
    let mut wq = vec![0i8; s.m * g.c * 9];
    for (src, dst) in wt.chunks_exact(s.k).zip(wq.chunks_exact_mut(g.c * 9)) {
        dst[..s.k].copy_from_slice(src);
    }
    let pa = PackedA::pack_conv(s.m, g.c, 9, &wq);
    let (strips, offs) = igemm_map_scratch(&pa, g);
    let mut work = Work::new(strips, offs);
    let og = QuadMap::new(s.m, s.h, s.w);
    let wf: Vec<f32> = wt.iter().map(|&v| v as f32 / 128.0).collect();
    let xf: Vec<f32> = x.iter().map(|&v| v as f32 / 128.0).collect();
    let bf: Vec<f32> = bias.iter().map(|&v| v as f32 / 1024.0).collect();
    let paf = PackedA::pack(s.m, s.k, &wf);
    let (mut yq, mut yf) = (vec![0i8; og.len()], vec![0.0; s.m * s.n]);
    let shift = 8 + s.k.ilog2() as i32;
    let [ti, tf] = race(
        min_time,
        [
            &mut || {
                let y = QuadOut::Quads(&mut yq);
                igemm_conv_quads(&pa, g, &map, &bias, shift, true, y, &mut work)
            },
            &mut || sgemm_conv_packed(&paf, &geom, &xf, &mut yf, GemmEpilogue::BiasRelu(&bf)),
        ],
    );
    let what = format!("{} {}->{} @{}", s.model, s.c_in, s.m, s.h);
    let yi = from_map(&yq, og, s.m);
    assert_eq!(yi, want(&PackedA::pack(s.m, s.k, &wt), &x, &wt), "INT8 conv on {what}");
    let gmac = s.macs() as f64 / 1e9;
    Int8Race { i8: gmac / ti, f32: gmac / tf, in_place: reads_map(s.w) }
}

/// [`int8_vs_f32`] on every shape of [`race_shapes`], each INT8 result
/// checked against the gathering route on weights packed in row order.
fn race_int8(min_time: f64) {
    println!(
        "{:>4} {:>5} {:>5} {:>4} | {:>8} | {:>8} {:>8} {:>7}",
        "cfg", "c_in", "c_out", "hw", "route", "i8", "f32", "i8/f32"
    );
    for s in race_shapes() {
        let geom = s.geom();
        let gather = |pa: &PackedA<i8>, x: &[i8], _: &[i8]| {
            let bias: Vec<i32> = (0..s.m as i32).map(|i| i * 91 - 777).collect();
            let mut y = vec![0i8; s.m * s.n];
            igemm_conv_packed(pa, &geom, x, &bias, 8 + s.k.ilog2() as i32, true, &mut y);
            y
        };
        let r = int8_vs_f32(s, min_time, gather);
        println!(
            "{:>4} {:>5} {:>5} {:>4} | {:>8} | {:>8.2} {:>8.2} {:>6.2}x",
            s.model,
            s.c_in,
            s.m,
            s.h,
            if r.in_place { "in place" } else { "gather" },
            r.i8,
            r.f32,
            r.i8 / r.f32
        );
    }
}

/// The INT8 in-place gate: `s` reads its input quad map in place and is
/// bit-exact against the conv by its definition (`im2col_t`, a naive `i32`
/// GEMM, the requantise-clamp) on a fixed seed; with `min_ratio` (the 16M
/// `64 -> 32` conv at 256x256) it also runs at that multiple of the FP32
/// conv's MAC rate, raced back to back.
fn check_int8_map_conv(s: ConvShape, min_ratio: Option<f64>) {
    let naive = |_: &PackedA<i8>, x: &[i8], wt: &[i8]| {
        let (geom, (k, n)) = (s.geom(), (s.k, s.n));
        let mut col = vec![0i8; k * n];
        im2col_t(&geom, x, &mut col);
        let mut acc = vec![0i32; n];
        let mut y = vec![0i8; s.m * n];
        for (i, yi) in y.chunks_exact_mut(n).enumerate() {
            acc.fill(0);
            for (&a, row) in wt[i * k..][..k].iter().zip(col.chunks_exact(n)) {
                for (v, &b) in acc.iter_mut().zip(row) {
                    *v += i32::from(a) * i32::from(b);
                }
            }
            let b = i as i32 * 91 - 777;
            for (o, &v) in yi.iter_mut().zip(&acc) {
                *o = requantize_i32(v + b, 8 + k.ilog2() as i32).max(0);
            }
        }
        y
    };
    let r = int8_vs_f32(s, if min_ratio.is_some() { 0.5 } else { 0.05 }, naive);
    assert!(r.in_place, "the {} {}->{} conv at {} gathers", s.model, s.c_in, s.m, s.h);
    println!(
        "INT8 conv in place {} {}->{} @{}: bit-exact, {:.2} vs FP32 {:.2} GMAC/s ({:.2}x)",
        s.model,
        s.c_in,
        s.m,
        s.h,
        r.i8,
        r.f32,
        r.i8 / r.f32
    );
    if let Some(min) = min_ratio {
        let ratio = r.i8 / r.f32;
        assert!(ratio >= min, "INT8 conv at {ratio:.2}x the FP32 conv's MAC rate (< {min}x)");
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "smoke".to_string());
    match mode.as_str() {
        "smoke" => smoke(),
        "int8" => race_int8(0.3),
        other => panic!("unknown mode {other}; expected smoke | int8"),
    }
}

fn smoke() {
    let (min_time, min_iters) = (0.05, 1);
    let pairs = table2_conv_shapes();
    // The gate shape: the 16M model's full-resolution `64 -> 32` conv.
    let full_res_16m = pairs.last().expect("five models")[1];
    let largest = pairs.iter().map(|p| p[0]).max_by_key(|s| s.macs()).expect("five models");

    check_igemm_bit_exact(largest);
    check_implicit_conv(largest, None);
    check_implicit_conv(full_res_16m, Some(0.5));
    check_int8_map_conv(full_res_16m, Some(1.5));
    // The 16M's 8x8 bottleneck conv: each 16-column half is two output rows.
    let is_bottleneck = |s: &ConvShape| (s.c_in, s.m, s.w) == (512, 512, 8);
    let bottleneck = conv_shapes(ModelSize::M16, 256).into_iter().find(is_bottleneck);
    check_int8_map_conv(bottleneck.expect("the 16M's 8x8 512 -> 512 conv"), None);
    check_tconv_store();
    let (af, bf, mut cf) = make_f32(largest);
    let gflop = 2.0 * largest.macs() as f64 / 1e9;
    let (m, k, n) = (largest.m, largest.k, largest.n);
    let packed_f = gflop / time_per_call(min_time, min_iters, || sgemm(m, k, n, &af, &bf, &mut cf));
    let ref_f =
        gflop / time_per_call(min_time, min_iters, || sgemm_reference(m, k, n, &af, &bf, &mut cf));
    let (ai, bi, mut ci) = make_i8(largest);
    let gmac = largest.macs() as f64 / 1e9;
    let packed_i = gmac / time_per_call(min_time, min_iters, || igemm(m, k, n, &ai, &bi, &mut ci));
    let ref_i =
        gmac / time_per_call(min_time, min_iters, || igemm_reference(m, k, n, &ai, &bi, &mut ci));
    println!(
        "largest {m}x{k}x{n}: sgemm packed {packed_f:.2} ref {ref_f:.2} GFLOP/s | igemm packed \
         {packed_i:.2} ref {ref_i:.2} GMAC/s"
    );
    assert!(
        packed_f > ref_f,
        "packed sgemm ({packed_f:.2}) must beat reference ({ref_f:.2}) GFLOP/s"
    );
    assert!(
        packed_i > ref_i,
        "packed igemm ({packed_i:.2}) must beat reference ({ref_i:.2}) GMAC/s"
    );
    println!("kernel_stats smoke OK");
}
