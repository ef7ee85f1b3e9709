//! GEMM and conv micro-kernel checks on the conv shapes of the Table II
//! models at 256x256. Per-shape throughput over time is the benchmark's
//! `tensor.*` ledger (`benchmark/`); this example keeps the CI gate and the
//! INT8-vs-FP32 race.
//!
//! Modes (first CLI argument):
//!
//! * `smoke` — CI gate: igemm bit-exact against the naive kernel on a
//!   fixed seed, and packed-beats-reference on
//!   the largest shape, both dtypes; the INT8 row-band conv bit-exact
//!   against the naive reference and at least 1.5x the FP32 conv's MAC rate
//!   on the 16M `64 -> 32` conv at 256x256; the 1M model's last INT8 tconv
//!   bit-exact against GEMM + scatter and at least 0.6x the MAC rate of the
//!   same GEMM with a row store (its scatter store vectorises). It is also
//!   the binary `scripts/check_kernel_asm.sh` disassembles.
//! * `int8` — the INT8 conv (row band or gathered strips, as the executor
//!   runs it) against the FP32 conv on every 1M / 16M conv shape at 256x256,
//!   with the i8 ÷ f32 MAC-rate ratio.

use rand::{Rng, SeedableRng};
use seneca_ir::IrOp;
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_tensor::gemm::{
    igemm, igemm_fused, igemm_reference, sgemm, sgemm_fused, sgemm_reference, GemmEpilogue,
    PackedA, Work,
};
use seneca_tensor::igemm::{
    igemm_conv_packed, igemm_tconv2x2_packed, quad_band, sgemm_conv, sgemm_conv_packed,
};
use seneca_tensor::im2col::{im2col_t, ConvGeom};
use seneca_tensor::quantized::requantize_i32;
use seneca_tensor::tconv::scatter_tconv2x2;
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

/// Two 3x3-conv GEMM shapes of each Table II model at 256x256: the
/// highest-MAC one (first of the pair) and the highest-MAC *full-resolution*
/// one — the `2c -> c` decoder conv at 256x256, few output rows against 65 536
/// columns, where the activation side of the GEMM dominates. Ties in total
/// MACs resolve to the first conv in node order.
fn table2_conv_shapes() -> Vec<[ConvShape; 2]> {
    let input = Shape4::new(1, 1, 256, 256);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    ModelSize::ALL
        .iter()
        .map(|&size| {
            let net = UNet::from_size(size, &mut rng);
            let g = Graph::from_unet(&net, size.label()).to_ir();
            let shapes = g.shapes(input);
            let none = ConvShape { model: size.label(), m: 0, k: 0, n: 0, c_in: 0, h: 0, w: 0 };
            let mut best = [none; 2];
            for node in &g.nodes {
                if let IrOp::Conv(a) = &node.op {
                    let s = shapes[node.inputs[0]];
                    let cand = ConvShape {
                        model: size.label(),
                        m: a.kernel.c_out(false),
                        k: a.kernel.c_in(false) * 9,
                        n: s.h * s.w,
                        c_in: a.kernel.c_in(false),
                        h: s.h,
                        w: s.w,
                    };
                    if cand.macs() > best[0].macs() {
                        best[0] = cand;
                    }
                    if s.h == input.h && cand.macs() > best[1].macs() {
                        best[1] = cand;
                    }
                }
            }
            assert!(best[1].macs() > 0, "{}: no conv nodes found", size.label());
            best
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
/// raced and printed, not gated; the row-band conv's is gated by
/// [`check_int8_band_conv`].
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
/// 128x128 -> 256x256): the scatter-fused tconv must be bit-exact against
/// the fused GEMM followed by [`scatter_tconv2x2`], and reach at least 0.6x
/// the MAC rate of a 1x1 [`igemm_conv_packed`] with the same `(m, k, n) =
/// (64, 16, 16384)` — the same GEMM with a row store — raced back to back.
/// The GEMM is 16 MACs per output byte, so the store decides the rate: a
/// scalar scatter store ran at ~0.12x, the vectorised one at ~1.05x.
fn check_tconv_store() {
    let (c_in, c_out, h, w) = (16, 16, 128, 128);
    let (m, k, n) = (4 * c_out, c_in, h * w);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7C0);
    let wk: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let x: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias4: Vec<i32> = (0..m as i32).map(|i| (i / 4) * 91 - 777).collect();
    let (shift, relu) = (7, true);
    let pa = PackedA::pack(m, k, &wk);
    let geom = ConvGeom { c_in, h, w, k: 1, pad: 0, stride: 1 };
    let (mut y, mut y_rows) = (vec![0i8; m * n], vec![0i8; m * n]);
    let mut work = Work::default();
    let [t_tconv, t_rows] = race(
        0.5,
        [
            &mut || igemm_tconv2x2_packed(&pa, &x, h, w, &bias4, shift, relu, &mut y, &mut work),
            &mut || igemm_conv_packed(&pa, &geom, &x, &bias4, shift, relu, &mut y_rows),
        ],
    );
    let mut y_ref = vec![0i8; m * n];
    igemm_fused(m, k, n, &wk, &x, &bias4, shift, relu, &mut y_rows);
    scatter_tconv2x2(c_out, h, w, &y_rows, &mut y_ref);
    assert_eq!(y, y_ref, "scatter-fused tconv != GEMM + scatter (seed 0x7C0)");
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

/// The 3x3 convs of the 1M and 16M models at 256x256, distinct shapes in
/// node order.
fn race_shapes() -> Vec<ConvShape> {
    let input = Shape4::new(1, 1, 256, 256);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut out: Vec<ConvShape> = Vec::new();
    for size in [ModelSize::M1, ModelSize::M16] {
        let g = Graph::from_unet(&UNet::from_size(size, &mut rng), size.label()).to_ir();
        let shapes = g.shapes(input);
        for node in &g.nodes {
            if let IrOp::Conv(a) = &node.op {
                let s = shapes[node.inputs[0]];
                let (m, c_in) = (a.kernel.c_out(false), a.kernel.c_in(false));
                let cand = ConvShape {
                    model: size.label(),
                    m,
                    k: c_in * 9,
                    n: s.hw(),
                    c_in,
                    h: s.h,
                    w: s.w,
                };
                if !out.iter().any(|o| (o.m, o.c_in, o.h) == (m, c_in, s.h)) {
                    out.push(cand);
                }
            }
        }
    }
    out
}

/// One shape's race, in GMAC/s.
struct Int8Race {
    /// The INT8 conv, weights packed for a conv as the lowering packs them.
    i8: f64,
    /// The FP32 conv, weights packed once as inference runs it.
    f32: f64,
    /// Whether the INT8 conv reads a row band (else it gathers strips).
    band: bool,
}

/// The INT8 conv against the FP32 conv on one shape, every weight set packed
/// once as the lowering packs it: asserts the INT8 conv bit-exact against
/// `want` (the same conv by another route), then returns an interleaved
/// race.
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
    let pa = PackedA::pack_conv(s.m, s.c_in, 9, &wt);
    let wf: Vec<f32> = wt.iter().map(|&v| v as f32 / 128.0).collect();
    let xf: Vec<f32> = x.iter().map(|&v| v as f32 / 128.0).collect();
    let bf: Vec<f32> = bias.iter().map(|&v| v as f32 / 1024.0).collect();
    let paf = PackedA::pack(s.m, s.k, &wf);
    let (mut yi, mut yf) = (vec![0i8; s.m * s.n], vec![0.0; s.m * s.n]);
    let shift = 8 + s.k.ilog2() as i32;
    let [ti, tf] = race(
        min_time,
        [&mut || igemm_conv_packed(&pa, &geom, &x, &bias, shift, true, &mut yi), &mut || {
            sgemm_conv_packed(&paf, &geom, &xf, &mut yf, GemmEpilogue::BiasRelu(&bf))
        }],
    );
    let what = format!("{} {}->{} @{}", s.model, s.c_in, s.m, s.h);
    assert_eq!(yi, want(&PackedA::pack(s.m, s.k, &wt), &x, &wt), "INT8 conv on {what}");
    let gmac = s.macs() as f64 / 1e9;
    let band = quad_band(&pa, &geom).is_some();
    Int8Race { i8: gmac / ti, f32: gmac / tf, band }
}

/// [`int8_vs_f32`] on every 1M / 16M conv shape at 256x256, each INT8 result
/// checked against the gathering route on weights packed in row order.
fn race_int8(min_time: f64) {
    println!(
        "{:>4} {:>5} {:>5} {:>4} | {:>6} | {:>8} {:>8} {:>7}",
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
            "{:>4} {:>5} {:>5} {:>4} | {:>6} | {:>8.2} {:>8.2} {:>6.2}x",
            s.model,
            s.c_in,
            s.m,
            s.h,
            if r.band { "band" } else { "gather" },
            r.i8,
            r.f32,
            r.i8 / r.f32
        );
    }
}

/// The INT8 row-band gate on the 16M `64 -> 32` conv at 256x256: bit-exact
/// against the conv by its definition (`im2col_t`, a naive `i32` GEMM, the
/// requantise-clamp) on a fixed seed, and at least 1.5x the MAC rate of the
/// FP32 conv, raced back to back.
fn check_int8_band_conv(s: ConvShape) {
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
    let r = int8_vs_f32(s, 0.5, naive);
    assert!(r.band, "the 16M {}->{} conv at {} reads no row band", s.c_in, s.m, s.h);
    println!(
        "INT8 band conv {} {}->{} @{}: bit-exact, {:.2} vs FP32 {:.2} GMAC/s ({:.2}x)",
        s.model,
        s.c_in,
        s.m,
        s.h,
        r.i8,
        r.f32,
        r.i8 / r.f32
    );
    assert!(
        r.i8 >= 1.5 * r.f32,
        "INT8 band conv at {:.2}x the FP32 conv's MAC rate (< 1.5x)",
        r.i8 / r.f32
    );
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
    check_int8_band_conv(full_res_16m);
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
