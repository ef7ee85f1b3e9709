//! GEMM micro-kernel throughput on the conv shapes of the five Table II
//! models at 256x256, packed engine vs the pre-PR baseline and the naive
//! reference. Emits `BENCH_kernels.json` and doubles as a CI smoke gate.
//!
//! Modes (first CLI argument):
//!
//! * `smoke` — CI gate: igemm bit-exactness against the naive kernel on a
//!   fixed seed, and packed-beats-reference on the largest shape, both
//!   dtypes; the Winograd conv bit-exact and faster than the direct one on
//!   the 16M `64 -> 32` conv at 256x256. Fast; no JSON.
//! * `winograd` — the Winograd-vs-direct race on every 1M / 16M conv shape
//!   at 256x256, with the input transform's share. No JSON.
//! * `baseline <out.txt>` — measure ONLY the pre-PR kernels and write their
//!   throughputs to a text file. `scripts/bench_kernels.sh` runs this mode
//!   with `RUSTFLAGS=""` so the pre-PR kernels are compiled exactly as the
//!   pre-PR tree built them (no `.cargo/config.toml` existed, so the default
//!   x86-64 target, not `target-cpu=native`).
//! * `full <baseline.txt>` — measure the packed engine (and, for reference,
//!   the pre-PR kernels under the current flags), merge the pre-PR-build
//!   numbers from `baseline.txt`, assert the PR's >= 2x acceptance bar on
//!   the largest shape, and write `BENCH_kernels.json`.
//!
//! The `baseline_*` kernels below are verbatim copies of the repo's GEMMs
//! before the packed rewrite (blocked ikj loops with the `aik == 0`
//! zero-skip), so the committed JSON records an honest same-machine
//! pre-PR/post-PR comparison rather than numbers imported from an older
//! checkout. Two baseline columns are recorded: `baseline` (pre-PR kernel,
//! pre-PR build flags — what the repo actually shipped) and
//! `baseline_sameflags` (pre-PR kernel under this PR's build flags —
//! isolating the algorithmic gain from the `-C target-cpu=native` gain).

use rand::{Rng, SeedableRng};
use rayon::prelude::*;
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
use serde_json::{json, Value};
use std::time::Instant;

const ROW_BLOCK: usize = 64;
const K_BLOCK: usize = 256;

/// The pre-PR `sgemm` (blocked ikj, zero-skip, no packing).
fn baseline_sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    c.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    c.par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_blk)| {
        let row0 = blk * ROW_BLOCK;
        let rows = c_blk.len() / n;
        for k0 in (0..k).step_by(K_BLOCK) {
            let k1 = (k0 + K_BLOCK).min(k);
            for i in 0..rows {
                let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
                let c_row = &mut c_blk[i * n..(i + 1) * n];
                for kk in k0..k1 {
                    let aik = a_row[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * *bv;
                    }
                }
            }
        }
    });
}

/// The pre-PR `igemm` (row-blocked, zero-skip, no packing).
fn baseline_igemm(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    c.fill(0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    c.par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_blk)| {
        let row0 = blk * ROW_BLOCK;
        let rows = c_blk.len() / n;
        for i in 0..rows {
            let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
            let c_row = &mut c_blk[i * n..(i + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0 {
                    continue;
                }
                let aik = aik as i32;
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aik * bv as i32;
                }
            }
        }
    });
}

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

/// Seconds per call of `f` and of `g`, timed back to back in alternation so
/// that a change of machine speed hits both alike (the reference VM drifts by
/// tens of percent within seconds); the medians over the rounds.
fn race(min_time: f64, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let timed = |h: &mut dyn FnMut()| {
        let t = Instant::now();
        h();
        t.elapsed().as_secs_f64()
    };
    (f(), g());
    let (mut tf, mut tg) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while tf.len() < 5 || start.elapsed().as_secs_f64() < 2.0 * min_time {
        tf.push(timed(&mut f));
        tg.push(timed(&mut g));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(tf), median(tg))
}

#[derive(Clone, Copy)]
struct ConvShape {
    model: &'static str,
    m: usize,
    k: usize,
    n: usize,
    /// Conv geometry behind the GEMM shape (3x3 same conv): `k = c_in * 9`,
    /// `n = h * w`. Used by the conv-level implicit-vs-materialized rows.
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
            race(t, &mut implicit, &mut materialized),
            race(t, &mut implicit_f32, &mut materialized_f32),
            race(t, &mut implicit, &mut implicit_f32),
        ]
    });
    (implicit(), materialized(), implicit_f32(), materialized_f32());
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
        gmac / t_i8.0,
        gmac / t_i8.1,
        gmac / t_f32.0,
        gmac / t_f32.1,
        t_mix.1 / t_mix.0
    );
    assert!(t_i8.0 <= t_i8.1, "implicit i8 conv slower than the materialized route");
    assert!(t_f32.0 <= t_f32.1 * 1.05, "implicit f32 conv slower than the materialized route");
}

/// Conv-level throughputs (not raw GEMM): implicit-GEMM route vs the
/// materialized im2col route, both dtypes, fused bias+relu epilogues.
/// Returns `[f32_implicit, f32_materialized, i8_implicit, i8_materialized]`
/// in GFLOP/s / GMAC/s — weights packed per call in all four, so each pair
/// isolates the activation side — and the INT8 / FP32 MAC-rate ratio of the
/// implicit conv as inference runs it (weights packed once), from an
/// interleaved [`race`].
fn conv_level_row(s: &ConvShape, min_time: f64, min_iters: u32) -> ([f64; 4], f64) {
    let geom = s.geom();
    let (m, k, n) = (s.m, s.k, s.n);
    let gmac = s.macs() as f64 / 1e9;
    let gflop = 2.0 * gmac;
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.macs() ^ 0xC0117);

    let wf: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let xf: Vec<f32> = (0..geom.c_in * geom.h * geom.w).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let bf: Vec<f32> = (0..m).map(|_| rng.gen_range(-0.2..0.2)).collect();
    let mut yf = vec![0.0f32; m * n];
    let mut colf = vec![0.0f32; k * n];
    let f_imp = gflop
        / time_per_call(min_time, min_iters, || {
            sgemm_conv(m, &wf, &geom, &xf, &mut yf, GemmEpilogue::BiasRelu(&bf))
        });
    let f_mat = gflop
        / time_per_call(min_time, min_iters, || {
            im2col(&geom, &xf, &mut colf);
            sgemm_fused(m, k, n, &wf, &colf, &mut yf, GemmEpilogue::BiasRelu(&bf));
        });

    let wt: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let x: Vec<i8> =
        (0..geom.c_in * geom.h * geom.w).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..m as i32).map(|i| i * 91 - 777).collect();
    let mut y = vec![0i8; m * n];
    let mut col = vec![0i8; k * n];
    let i_imp = gmac
        / time_per_call(min_time, min_iters, || {
            igemm_conv_packed(&PackedA::pack(m, k, &wt), &geom, &x, &bias, 6, true, &mut y)
        });
    let i_mat = gmac
        / time_per_call(min_time, min_iters, || {
            im2col_t(&geom, &x, &mut col);
            igemm_fused(m, k, n, &wt, &col, &bias, 6, true, &mut y);
        });
    let (paf, pai) = (PackedA::pack(m, k, &wf), PackedA::pack(m, k, &wt));
    let (t_i8, t_f32) = race(
        min_time,
        || igemm_conv_packed(&pai, &geom, &x, &bias, 6, true, &mut y),
        || sgemm_conv_packed(&paf, &geom, &xf, &mut yf, GemmEpilogue::BiasRelu(&bf)),
    );
    ([f_imp, f_mat, i_imp, i_mat], t_f32 / t_i8)
}

/// W4-vs-W8 host throughput race on the largest Table II shape: the same
/// `[-8, 7]` weights through the i8 panels (`igemm_fused_packed`) and the
/// nibble panels (`igemm4_fused_packed`). Returns (w8, w4) GMAC/s.
fn race_w4(largest: ConvShape, min_time: f64, min_iters: u32) -> (f64, f64) {
    let (m, k, n) = (largest.m, largest.k, largest.n);
    let gmac = largest.macs() as f64 / 1e9;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4444);
    let wt: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-8i32..8) as i8).collect();
    let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..m as i32).map(|i| i * 57 - 333).collect();
    let pa8 = PackedA::pack(m, k, &wt);
    let pa4 = PackedA4::pack(m, k, &wt);
    let mut c8 = vec![0i8; m * n];
    let mut c4 = vec![0i8; m * n];
    igemm_fused_packed(&pa8, n, &b, &bias, 6, true, &mut c8);
    igemm4_fused_packed(&pa4, n, &b, &bias, 6, true, &mut c4);
    assert_eq!(c8, c4, "W4 nibble kernel != W8 kernel on the same [-8,7] weights");
    let t8 = time_per_call(min_time, min_iters, || {
        igemm_fused_packed(&pa8, n, &b, &bias, 6, true, &mut c8)
    });
    let t4 = time_per_call(min_time, min_iters, || {
        igemm4_fused_packed(&pa4, n, &b, &bias, 6, true, &mut c4)
    });
    (gmac / t8, gmac / t4)
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

/// Winograd F(2x2, 3x3) against the direct implicit conv on one shape, both
/// weight sets packed once: asserts bit-exactness, then returns an
/// interleaved race in direct-conv GMAC/s, `(direct, winograd)`, and the
/// share of the Winograd call its input transform takes (the strip pack,
/// timed alone on one thread, over the call's thread-seconds).
fn winograd_vs_direct(s: ConvShape, min_time: f64) -> (f64, f64, f64) {
    let geom = s.geom();
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.macs());
    let wt: Vec<i8> = (0..s.m * s.k).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let x: Vec<i8> = (0..s.c_in * s.n).map(|_| rng.gen_range(-128i32..128) as i8).collect();
    let bias: Vec<i32> = (0..s.m as i32).map(|i| i * 91 - 777).collect();
    let (pa, pw) = (PackedA::pack(s.m, s.k, &wt), PackedWinograd::pack(s.m, s.c_in, &wt));
    let (mut yd, mut yw) = (vec![0i8; s.m * s.n], vec![0i8; s.m * s.n]);
    let shift = 8 + s.k.ilog2() as i32;
    let mut strips = Vec::new();
    let (td, tw) = race(
        min_time,
        || igemm_conv_packed(&pa, &geom, &x, &bias, shift, true, &mut yd),
        || igemm_conv_winograd(&pw, &geom, &x, &bias, shift, true, &mut yw, &mut strips),
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
    (gmac / td, gmac / tw, t_pack / (tw * rayon::current_num_threads() as f64))
}

/// [`winograd_vs_direct`] on every 1M / 16M conv shape at 256x256: the race
/// the lowering rule's constants (`seneca_ir::WINOGRAD_MIN_C_IN`,
/// `WINOGRAD_MIN_TILES`) come from.
fn race_winograd(min_time: f64) {
    println!(
        "{:>4} {:>5} {:>5} {:>4} | {:>8} {:>8} {:>6} | {:>6}",
        "cfg", "c_in", "c_out", "hw", "direct", "wino", "x", "pack%"
    );
    for s in winograd_race_shapes() {
        let (direct, wino, pack) = winograd_vs_direct(s, min_time);
        println!(
            "{:>4} {:>5} {:>5} {:>4} | {:>8.2} {:>8.2} {:>5.2}x | {:>5.1}%",
            s.model,
            s.c_in,
            s.m,
            s.h,
            direct,
            wino,
            wino / direct,
            100.0 * pack
        );
    }
}

/// Pre-PR throughputs loaded from the `baseline` mode's output file, keyed
/// by `(m, k, n)`.
fn load_baseline(path: &str) -> Vec<(usize, usize, usize, f64, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read pre-PR baseline file {path}: {e}\n\
             (run scripts/bench_kernels.sh, which generates it with the \
             pre-PR build flags first)"
        )
    });
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert!(f.len() == 6, "malformed baseline line: {l}");
            (
                f[1].parse().expect("m"),
                f[2].parse().expect("k"),
                f[3].parse().expect("n"),
                f[4].parse().expect("sgemm"),
                f[5].parse().expect("igemm"),
            )
        })
        .collect()
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".to_string());
    let path_arg = std::env::args().nth(2);
    let (min_time, min_iters) = if mode == "smoke" { (0.05, 1) } else { (0.4, 3) };

    let pairs = table2_conv_shapes();
    // The gate shape: the 16M model's full-resolution `64 -> 32` conv.
    let full_res_16m = pairs.last().expect("five models")[1];
    let mut shapes: Vec<ConvShape> = pairs.iter().map(|p| p[0]).collect();
    shapes.sort_by_key(|s| s.macs());
    let largest = *shapes.last().expect("five models");
    // Each model's full-resolution shape rides next to its highest-MAC one.
    let shapes: Vec<ConvShape> = shapes
        .iter()
        .flat_map(|s| {
            let full = pairs.iter().find(|p| p[0].model == s.model).expect("same models")[1];
            [Some(*s), ((full.m, full.k, full.n) != (s.m, s.k, s.n)).then_some(full)]
        })
        .flatten()
        .collect();

    match mode.as_str() {
        "baseline" => {
            // Pre-PR kernels only; meant to be compiled with the pre-PR
            // build flags (RUSTFLAGS="" — see scripts/bench_kernels.sh).
            let path = path_arg.expect("usage: kernel_stats baseline <out.txt>");
            let mut out = String::from("# model m k n sgemm_gflops igemm_gmacs (pre-PR build)\n");
            for s in &shapes {
                let (af, bf, mut cf) = make_f32(*s);
                let gflop = 2.0 * s.macs() as f64 / 1e9;
                let sg = gflop
                    / time_per_call(min_time, min_iters, || {
                        baseline_sgemm(s.m, s.k, s.n, &af, &bf, &mut cf)
                    });
                let (ai, bi, mut ci) = make_i8(*s);
                let gmac = s.macs() as f64 / 1e9;
                let ig = gmac
                    / time_per_call(min_time, min_iters, || {
                        baseline_igemm(s.m, s.k, s.n, &ai, &bi, &mut ci)
                    });
                println!(
                    "{:>4} {:>5}x{:>5}x{:>6}: sgemm {:6.2} GFLOP/s  igemm {:6.2} GMAC/s",
                    s.model, s.m, s.k, s.n, sg, ig
                );
                out.push_str(&format!("{} {} {} {} {:.4} {:.4}\n", s.model, s.m, s.k, s.n, sg, ig));
            }
            std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
            return;
        }
        "smoke" => {
            check_igemm_bit_exact(largest);
            check_implicit_conv(largest, None);
            check_implicit_conv(full_res_16m, Some(0.5));
            let (direct, wino, pack) = winograd_vs_direct(full_res_16m, 0.5);
            println!(
                "Winograd conv {} {}->{} @{}: bit-exact, {wino:.2} vs direct {direct:.2} GMAC/s \
                 ({:.2}x), input transform {:.0} %",
                full_res_16m.model,
                full_res_16m.c_in,
                full_res_16m.m,
                full_res_16m.h,
                wino / direct,
                100.0 * pack
            );
            assert!(wino > direct, "Winograd conv no faster than the direct conv");
            let (af, bf, mut cf) = make_f32(largest);
            let gflop = 2.0 * largest.macs() as f64 / 1e9;
            let (m, k, n) = (largest.m, largest.k, largest.n);
            let packed_f =
                gflop / time_per_call(min_time, min_iters, || sgemm(m, k, n, &af, &bf, &mut cf));
            let ref_f = gflop
                / time_per_call(min_time, min_iters, || {
                    sgemm_reference(m, k, n, &af, &bf, &mut cf)
                });
            let (ai, bi, mut ci) = make_i8(largest);
            let gmac = largest.macs() as f64 / 1e9;
            let packed_i =
                gmac / time_per_call(min_time, min_iters, || igemm(m, k, n, &ai, &bi, &mut ci));
            let ref_i = gmac
                / time_per_call(min_time, min_iters, || {
                    igemm_reference(m, k, n, &ai, &bi, &mut ci)
                });
            println!(
                "largest {m}x{k}x{n}: sgemm packed {packed_f:.2} ref {ref_f:.2} GFLOP/s | \
                 igemm packed {packed_i:.2} ref {ref_i:.2} GMAC/s"
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
            return;
        }
        "winograd" => {
            race_winograd(0.3);
            return;
        }
        "full" => {}
        other => panic!("unknown mode {other}; expected smoke | baseline <out> | full <baseline>"),
    }

    // Full mode: packed + reference + same-flags baseline, merged with the
    // pre-PR-build baseline file.
    let prepr =
        load_baseline(path_arg.as_deref().expect("usage: kernel_stats full <baseline.txt>"));
    check_igemm_bit_exact(largest);
    check_implicit_conv(largest, None);
    check_implicit_conv(full_res_16m, Some(1.0));

    println!(
        "{:>4} {:>22} | {:>8} {:>8} {:>8} {:>8} {:>7} | {:>8} {:>8} {:>8} {:>8} {:>7}",
        "cfg",
        "m x k x n",
        "sgemm",
        "base",
        "basefl",
        "ref",
        "vs base",
        "igemm",
        "base",
        "basefl",
        "ref",
        "vs base"
    );

    let mut json_shapes: Vec<Value> = Vec::new();
    let mut largest_speedups: Option<(f64, f64)> = None;
    for s in &shapes {
        let (m, k, n) = (s.m, s.k, s.n);
        let &(_, _, _, pre_sg, pre_ig) = prepr
            .iter()
            .find(|&&(bm, bk, bn, _, _)| (bm, bk, bn) == (m, k, n))
            .unwrap_or_else(|| panic!("no pre-PR baseline entry for {m}x{k}x{n}"));

        let (af, bf, mut cf) = make_f32(*s);
        let gflop = 2.0 * s.macs() as f64 / 1e9;
        let f_packed =
            gflop / time_per_call(min_time, min_iters, || sgemm(m, k, n, &af, &bf, &mut cf));
        let f_basefl = gflop
            / time_per_call(min_time, min_iters, || baseline_sgemm(m, k, n, &af, &bf, &mut cf));
        let f_ref = gflop
            / time_per_call(min_time, min_iters, || sgemm_reference(m, k, n, &af, &bf, &mut cf));

        let (ai, bi, mut ci) = make_i8(*s);
        let gmac = s.macs() as f64 / 1e9;
        let i_packed =
            gmac / time_per_call(min_time, min_iters, || igemm(m, k, n, &ai, &bi, &mut ci));
        let i_basefl = gmac
            / time_per_call(min_time, min_iters, || baseline_igemm(m, k, n, &ai, &bi, &mut ci));
        let i_ref = gmac
            / time_per_call(min_time, min_iters, || igemm_reference(m, k, n, &ai, &bi, &mut ci));

        println!(
            "{:>4} {:>9}x{:>5}x{:>6} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>6.2}x | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>6.2}x",
            s.model,
            m,
            k,
            n,
            f_packed,
            pre_sg,
            f_basefl,
            f_ref,
            f_packed / pre_sg,
            i_packed,
            pre_ig,
            i_basefl,
            i_ref,
            i_packed / pre_ig,
        );

        // Conv-level (not raw GEMM) rows: implicit-GEMM vs materialized
        // im2col, both dtypes.
        let ([cf_imp, cf_mat, ci_imp, ci_mat], i8_over_f32) =
            conv_level_row(s, min_time, min_iters);
        println!(
            "     conv-level {:>9}x{:>5}x{:>6} | f32 implicit {:>7.2} mat {:>7.2} ({:>4.2}x) | i8 implicit {:>7.2} mat {:>7.2} ({:>4.2}x) | i8/f32 MAC rate {:>4.2}x",
            m, k, n, cf_imp, cf_mat, cf_imp / cf_mat, ci_imp, ci_mat, ci_imp / ci_mat, i8_over_f32,
        );

        json_shapes.push(json!({
            "model": s.model,
            "kind": "conv3x3 im2col GEMM",
            "m": m,
            "k": k,
            "n": n,
            "conv_c_in": s.c_in,
            "conv_hw": [s.h, s.w],
            "gmacs": gmac,
            "conv_f32_gflops": {
                "implicit": cf_imp,
                "materialized": cf_mat,
                "speedup": cf_imp / cf_mat
            },
            "conv_i8_gmacs": {
                "implicit": ci_imp,
                "materialized": ci_mat,
                "speedup": ci_imp / ci_mat
            },
            "conv_i8_over_f32_mac_rate": i8_over_f32,
            "sgemm_gflops": {
                "packed": f_packed,
                "baseline": pre_sg,
                "baseline_sameflags": f_basefl,
                "reference": f_ref,
                "speedup_vs_baseline": f_packed / pre_sg,
                "speedup_vs_baseline_sameflags": f_packed / f_basefl,
                "speedup_vs_reference": f_packed / f_ref
            },
            "igemm_gmacs": {
                "packed": i_packed,
                "baseline": pre_ig,
                "baseline_sameflags": i_basefl,
                "reference": i_ref,
                "speedup_vs_baseline": i_packed / pre_ig,
                "speedup_vs_baseline_sameflags": i_packed / i_basefl,
                "speedup_vs_reference": i_packed / i_ref
            }
        }));

        if s.macs() == largest.macs() && (m, k, n) == (largest.m, largest.k, largest.n) {
            assert!(
                f_packed > f_ref,
                "packed sgemm ({f_packed:.2}) must beat reference ({f_ref:.2}) GFLOP/s"
            );
            assert!(
                i_packed > i_ref,
                "packed igemm ({i_packed:.2}) must beat reference ({i_ref:.2}) GMAC/s"
            );
            largest_speedups = Some((f_packed / pre_sg, i_packed / pre_ig));
        }
    }

    let (sg_speedup, ig_speedup) = largest_speedups.expect("largest shape benchmarked");
    println!(
        "largest shape ({} {}x{}x{}): sgemm {:.2}x vs pre-PR, igemm {:.2}x vs pre-PR",
        largest.model, largest.m, largest.k, largest.n, sg_speedup, ig_speedup,
    );
    // The PR's acceptance bar, enforced whenever the JSON is regenerated.
    assert!(sg_speedup >= 2.0, "sgemm speedup {sg_speedup:.2}x < 2x on largest shape");
    assert!(ig_speedup >= 2.0, "igemm speedup {ig_speedup:.2}x < 2x on largest shape");

    // W4 vs W8 host throughput on the largest shape (same [-8,7] weights,
    // nibble vs i8 panels — half the A-panel bandwidth).
    let (w8_gmacs, w4_gmacs) = race_w4(largest, min_time, min_iters);
    println!(
        "W4 race on largest shape: igemm4_fused_packed {:.2} GMAC/s vs igemm_fused_packed {:.2} GMAC/s ({:.2}x)",
        w4_gmacs,
        w8_gmacs,
        w4_gmacs / w8_gmacs,
    );

    let doc = json!({
        "bench": "kernel_stats",
        "input": "1x1x256x256",
        "note": "highest-MAC conv GEMM shape per Table II model, followed by its highest-MAC full-resolution (256x256) one; conv_i8_over_f32_mac_rate = MAC rate of the implicit i8 conv over the implicit f32 conv with weights packed once, as inference runs them, from an interleaved race; baseline = pre-PR blocked ikj kernels with zero-skip, compiled with the pre-PR build flags (no .cargo/config.toml) and measured on the same machine in the same bench run; baseline_sameflags = the same pre-PR kernels compiled with this PR's target-cpu=native flags",
        "tile": { "mr": seneca_tensor::gemm::MR, "nr": seneca_tensor::gemm::NR },
        "threads": rayon::current_num_threads(),
        "shapes": Value::Array(json_shapes),
        "largest": {
            "model": largest.model,
            "m": largest.m,
            "k": largest.k,
            "n": largest.n,
            "sgemm_speedup_vs_baseline": sg_speedup,
            "igemm_speedup_vs_baseline": ig_speedup,
            "w4_host_gmacs": {
                "igemm_fused_packed_w8": w8_gmacs,
                "igemm4_fused_packed_w4": w4_gmacs,
                "w4_vs_w8": w4_gmacs / w8_gmacs
            }
        }
    });
    std::fs::write("BENCH_kernels.json", serde_json::to_string(&doc).expect("serialize"))
        .unwrap_or_else(|e| panic!("could not write BENCH_kernels.json: {e}"));
    println!("wrote BENCH_kernels.json");
    println!("kernel_stats OK");
}
