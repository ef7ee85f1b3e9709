//! GEMM and conv micro-kernel checks on the conv shapes of the Table II
//! models at 256x256. Per-shape throughput over time is the benchmark's
//! `tensor.*` ledger (`benchmark/`); this example keeps the CI gate and the
//! race the Winograd lowering rule comes from.
//!
//! Modes (first CLI argument):
//!
//! * `smoke` — CI gate: igemm and the W4 nibble kernel bit-exact against
//!   the naive / W8 kernels on a fixed seed, and packed-beats-reference on
//!   the largest shape, both dtypes; the Winograd conv bit-exact and faster
//!   than the direct one on the 16M `64 -> 32` conv at 256x256. It is also
//!   the binary `scripts/check_kernel_asm.sh` disassembles.
//! * `winograd` — the Winograd-vs-direct race on every 1M / 16M conv shape
//!   at 256x256, with the input transform's share and the FP32 conv's rate
//!   beside them (the per-shape i8 ÷ f32 MAC-rate ratio).

use rand::{Rng, SeedableRng};
use seneca_nn::graph::{Graph, Op};
use seneca_nn::unet::{ModelSize, UNet};
use seneca_tensor::gemm::{
    igemm, igemm4_fused_packed, igemm_fused, igemm_fused_packed, igemm_reference, packed_b_len,
    sgemm, sgemm_fused, sgemm_reference, strip_cols, GemmEpilogue, PackedA, PackedA4,
};
use seneca_tensor::igemm::{igemm_conv_packed, sgemm_conv, sgemm_conv_packed};
use seneca_tensor::im2col::{im2col, im2col_t, ConvGeom};
use seneca_tensor::winograd::{igemm_conv_winograd, pack_b_winograd, PackedWinograd};
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
            let g = Graph::from_unet(&net, size.label());
            let shapes = g.shapes(input);
            let none = ConvShape { model: size.label(), m: 0, k: 0, n: 0, c_in: 0, h: 0, w: 0 };
            let mut best = [none; 2];
            for node in &g.nodes {
                if let Op::Conv { w, .. } = &node.op {
                    let s = shapes[node.inputs[0]];
                    let cand = ConvShape {
                        model: size.label(),
                        m: w.shape().n,
                        k: w.shape().c * 9,
                        n: s.h * s.w,
                        c_in: w.shape().c,
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

/// W4 gate on a fixed seed: the same `[-8, 7]` weights through the nibble
/// panels (`igemm4_fused_packed`) and the i8 panels must give the same
/// requantized output.
fn check_w4_bit_exact(largest: ConvShape) {
    let (m, k, n) = (largest.m, largest.k, largest.n.min(4096));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4444);
    let wt: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-8i32..8) as i8).collect();
    let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..m as i32).map(|i| i * 57 - 333).collect();
    let (mut c8, mut c4) = (vec![0i8; m * n], vec![0i8; m * n]);
    igemm_fused_packed(&PackedA::pack(m, k, &wt), n, &b, &bias, 6, true, &mut c8);
    igemm4_fused_packed(&PackedA4::pack(m, k, &wt), n, &b, &bias, 6, true, &mut c4);
    assert_eq!(c8, c4, "W4 nibble kernel != W8 kernel on the same [-8,7] weights");
    println!("W4 bit-exactness: nibble == i8 panels on {m}x{k}x{n} (seed 0x4444)");
}

/// Implicit-GEMM conv gate on one Table II conv: the implicit route (strips
/// gathered straight from the feature map) must be bit-exact against the
/// materialized im2col route on a fixed seed, in both dtypes. With
/// `race_time` (the 16M `64 -> 32` conv at 256x256, where the activation side
/// dominates) two ratios are gated, each from an interleaved [`race`]:
/// implicit is no slower than materialized in either dtype — it does strictly
/// less memory traffic, so a loss means the pack stopped vectorizing. The
/// INT8 / FP32 MAC-rate ratio is raced and printed, not gated: with the FMA
/// f32 tile it sits below 1 on this host (DESIGN.md §16).
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
        im2col(&geom, &xf, &mut colf);
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

/// The 3x3 convs of the 1M and 16M models at 256x256, distinct shapes in
/// node order.
fn winograd_race_shapes() -> Vec<ConvShape> {
    let input = Shape4::new(1, 1, 256, 256);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut out: Vec<ConvShape> = Vec::new();
    for size in [ModelSize::M1, ModelSize::M16] {
        let g = Graph::from_unet(&UNet::from_size(size, &mut rng), size.label());
        let shapes = g.shapes(input);
        for node in &g.nodes {
            if let Op::Conv { w, .. } = &node.op {
                let s = shapes[node.inputs[0]];
                let (m, c_in) = (w.shape().n, w.shape().c);
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

/// One shape's race, in direct-conv GMAC/s.
struct WinogradRace {
    direct: f64,
    winograd: f64,
    /// The FP32 implicit conv, weights packed once as inference runs it.
    f32: f64,
    /// The share of the Winograd call its input transform takes.
    pack_share: f64,
}

/// Winograd F(2x2, 3x3) against the direct implicit INT8 conv and the FP32
/// implicit conv on one shape, every weight set packed once: asserts the
/// two INT8 routes bit-exact, then returns an interleaved three-way race
/// and the input transform's share (the strip pack, timed alone on one
/// thread, over the Winograd call's thread-seconds).
fn winograd_vs_direct(s: ConvShape, min_time: f64) -> WinogradRace {
    let geom = s.geom();
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.macs());
    let wt: Vec<i8> = (0..s.m * s.k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let x: Vec<i8> = (0..s.c_in * s.n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..s.m as i32).map(|i| i * 91 - 777).collect();
    let (pa, pw) = (PackedA::pack(s.m, s.k, &wt), PackedWinograd::pack(s.m, s.c_in, &wt));
    let wf: Vec<f32> = wt.iter().map(|&v| v as f32 / 128.0).collect();
    let xf: Vec<f32> = x.iter().map(|&v| v as f32 / 128.0).collect();
    let bf: Vec<f32> = bias.iter().map(|&v| v as f32 / 1024.0).collect();
    let paf = PackedA::pack(s.m, s.k, &wf);
    let (mut yd, mut yw, mut yf) =
        (vec![0i8; s.m * s.n], vec![0i8; s.m * s.n], vec![0.0; s.m * s.n]);
    let shift = 8 + s.k.ilog2() as i32;
    let mut strips = Vec::new();
    let [td, tw, tf] = race(
        min_time,
        [
            &mut || igemm_conv_packed(&pa, &geom, &x, &bias, shift, true, &mut yd),
            &mut || igemm_conv_winograd(&pw, &geom, &x, &bias, shift, true, &mut yw, &mut strips),
            &mut || sgemm_conv_packed(&paf, &geom, &xf, &mut yf, GemmEpilogue::BiasRelu(&bf)),
        ],
    );
    assert_eq!(yd, yw, "Winograd != direct on {} {}->{} @{}", s.model, s.c_in, s.m, s.h);
    let tiles = s.h.div_ceil(2) * s.w.div_ceil(2);
    let nc = strip_cols(16 * s.c_in, 2);
    let mut strip = vec![0i16; packed_b_len(16 * s.c_in, nc)];
    let t_pack = time_per_call(min_time, 1, || {
        for j0 in (0..tiles).step_by(nc) {
            pack_b_winograd(&geom, &x, j0..(j0 + nc).min(tiles), &mut strip);
        }
    });
    let gmac = s.macs() as f64 / 1e9;
    WinogradRace {
        direct: gmac / td,
        winograd: gmac / tw,
        f32: gmac / tf,
        pack_share: t_pack / (tw * rayon::current_num_threads() as f64),
    }
}

/// [`winograd_vs_direct`] on every 1M / 16M conv shape at 256x256: the race
/// the lowering rule's constants (`seneca_ir::WINOGRAD_MIN_C_IN`,
/// `WINOGRAD_MIN_TILES`) come from, and the per-shape i8 ÷ f32 MAC rate.
fn race_winograd(min_time: f64) {
    println!(
        "{:>4} {:>5} {:>5} {:>4} | {:>8} {:>8} {:>6} | {:>6} | {:>8} {:>7}",
        "cfg", "c_in", "c_out", "hw", "direct", "wino", "x", "pack%", "f32", "i8/f32"
    );
    for s in winograd_race_shapes() {
        let r = winograd_vs_direct(s, min_time);
        println!(
            "{:>4} {:>5} {:>5} {:>4} | {:>8.2} {:>8.2} {:>5.2}x | {:>5.1}% | {:>8.2} {:>6.2}x",
            s.model,
            s.c_in,
            s.m,
            s.h,
            r.direct,
            r.winograd,
            r.winograd / r.direct,
            100.0 * r.pack_share,
            r.f32,
            r.direct / r.f32
        );
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "smoke".to_string());
    match mode.as_str() {
        "smoke" => smoke(),
        "winograd" => race_winograd(0.3),
        other => panic!("unknown mode {other}; expected smoke | winograd"),
    }
}

fn smoke() {
    let (min_time, min_iters) = (0.05, 1);
    let pairs = table2_conv_shapes();
    // The gate shape: the 16M model's full-resolution `64 -> 32` conv.
    let full_res_16m = pairs.last().expect("five models")[1];
    let largest = pairs.iter().map(|p| p[0]).max_by_key(|s| s.macs()).expect("five models");

    check_igemm_bit_exact(largest);
    check_w4_bit_exact(largest);
    check_implicit_conv(largest, None);
    check_implicit_conv(full_res_16m, Some(0.5));
    let r = winograd_vs_direct(full_res_16m, 0.5);
    println!(
        "Winograd conv {} {}->{} @{}: bit-exact, {:.2} vs direct {:.2} GMAC/s ({:.2}x), input \
         transform {:.0} %",
        full_res_16m.model,
        full_res_16m.c_in,
        full_res_16m.m,
        full_res_16m.h,
        r.winograd,
        r.direct,
        r.winograd / r.direct,
        100.0 * r.pack_share
    );
    assert!(r.winograd > r.direct, "Winograd conv no faster than the direct conv");
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
