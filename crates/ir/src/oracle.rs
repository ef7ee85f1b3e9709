//! The test reference: a deliberately naive evaluator of a [`Module`].
//!
//! Direct loops over the definition of each op — no GEMM, no packing, no
//! plan, one allocation per node, every node output returned — so it shares
//! no kernel with [`crate::exec`] and can vouch for it. INT8 outputs must
//! match the executor bit for bit; FP32 outputs within [`F32_TOLERANCE`]
//! (the executor's GEMM fuses each multiply-add and skips no padding tap,
//! and its BN is the folded `scale * x + shift`). Nothing outside tests may
//! run a graph through this module; it is public only because the
//! equivalence tests of several crates share it.

use crate::exec::{FpScratch, QScratch};
use crate::lower::Lowered;
use crate::module::{ConvKernel, DType, IrOp, Module};
use seneca_tensor::norm::BnState;
use seneca_tensor::quantized::requantize_i32;
use seneca_tensor::{QTensor, QTensorView, Shape4, Tensor};

/// How far an FP32 executor output may sit from the oracle's, relative to
/// `max(1, |oracle|)`.
pub const F32_TOLERANCE: f32 = 1e-4;

/// Panics unless every element of `got` is within [`F32_TOLERANCE`] of
/// `want`.
pub fn assert_close_f32(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= F32_TOLERANCE * w.abs().max(1.0),
            "{what}: element {i} is {g}, oracle says {w}"
        );
    }
}

/// 3x3 stride-1 pad-1 convolution: `acc` folds the `(c_in, ky, kx)` taps of
/// one output element, `finish` turns the accumulator into the element.
fn conv3x3<T: Copy, A: Default>(
    (xs, x): (Shape4, &[T]),
    w: &[T],
    c_out: usize,
    acc: impl Fn(A, T, T) -> A,
    finish: impl Fn(usize, A) -> T,
) -> (Shape4, Vec<T>) {
    assert_eq!(w.len(), c_out * xs.c * 9, "conv weight size");
    let os = xs.with_c(c_out);
    let mut out = Vec::with_capacity(os.len());
    for n in 0..xs.n {
        for co in 0..c_out {
            for oy in 0..xs.h {
                for ox in 0..xs.w {
                    let mut a = A::default();
                    for ci in 0..xs.c {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                // Input pixel (oy + ky - 1, ox + kx - 1); the zero
                                // padding contributes nothing.
                                let (iy, ix) = (oy + ky, ox + kx);
                                if iy == 0 || iy > xs.h || ix == 0 || ix > xs.w {
                                    continue;
                                }
                                let wv = w[((co * xs.c + ci) * 3 + ky) * 3 + kx];
                                a = acc(a, x[xs.idx(n, ci, iy - 1, ix - 1)], wv);
                            }
                        }
                    }
                    out.push(finish(co, a));
                }
            }
        }
    }
    (os, out)
}

/// 2x2 stride-2 transpose convolution (`w` is `[C_in, C_out, 2, 2]`): output
/// pixel `(2*iy + ky, 2*ix + kx)` sums tap `(ky, kx)` over the input channels.
fn tconv2x2<T: Copy, A: Default>(
    (xs, x): (Shape4, &[T]),
    w: &[T],
    c_out: usize,
    acc: impl Fn(A, T, T) -> A,
    finish: impl Fn(usize, A) -> T,
) -> (Shape4, Vec<T>) {
    assert_eq!(w.len(), xs.c * c_out * 4, "tconv weight size");
    let os = Shape4::new(xs.n, c_out, 2 * xs.h, 2 * xs.w);
    let mut out = Vec::with_capacity(os.len());
    for n in 0..xs.n {
        for co in 0..c_out {
            for oy in 0..os.h {
                for ox in 0..os.w {
                    let mut a = A::default();
                    for ci in 0..xs.c {
                        let wv = w[((ci * c_out + co) * 2 + oy % 2) * 2 + ox % 2];
                        a = acc(a, x[xs.idx(n, ci, oy / 2, ox / 2)], wv);
                    }
                    out.push(finish(co, a));
                }
            }
        }
    }
    (os, out)
}

fn maxpool2x2<T: Copy + PartialOrd>((xs, x): (Shape4, &[T])) -> (Shape4, Vec<T>) {
    let os = Shape4::new(xs.n, xs.c, xs.h / 2, xs.w / 2);
    let mut out = Vec::with_capacity(os.len());
    for n in 0..xs.n {
        for c in 0..xs.c {
            for oy in 0..os.h {
                for ox in 0..os.w {
                    let at = |dy: usize, dx: usize| x[xs.idx(n, c, 2 * oy + dy, 2 * ox + dx)];
                    let max = |a: T, b: T| if b > a { b } else { a };
                    out.push(max(max(at(0, 0), at(0, 1)), max(at(1, 0), at(1, 1))));
                }
            }
        }
    }
    (os, out)
}

/// Channel concat of two inputs (in INT8, both at one fix position).
fn concat<T: Copy>((sa, a): (Shape4, &[T]), (sb, b): (Shape4, &[T])) -> (Shape4, Vec<T>) {
    assert_eq!((sa.n, sa.h, sa.w), (sb.n, sb.h, sb.w), "concat geometry");
    let os = sa.with_c(sa.c + sb.c);
    let mut out = Vec::with_capacity(os.len());
    for n in 0..sa.n {
        out.extend_from_slice(&a[n * sa.chw()..(n + 1) * sa.chw()]);
        out.extend_from_slice(&b[n * sb.chw()..(n + 1) * sb.chw()]);
    }
    (os, out)
}

/// Evaluates an FP32 module; returns every node's output, indexed by node id.
pub fn run_f32(m: &Module, input: &Tensor) -> Vec<Tensor> {
    assert_eq!(m.dtype, DType::F32, "run_f32 on a non-FP32 module");
    let mut vals: Vec<Tensor> = Vec::with_capacity(m.nodes.len());
    for node in &m.nodes {
        let arg = |k: usize| -> (Shape4, &[f32]) {
            let t = &vals[node.inputs[k]];
            (t.shape(), t.data())
        };
        let mac = |a: f32, x: f32, w: f32| a + x * w;
        // Inference BatchNorm of channel `c`, by its definition.
        let batchnorm = |bn: &BnState, c: usize, v: f32| {
            (v - bn.running_mean[c]) / (bn.running_var[c] + bn.eps).sqrt() * bn.gamma[c]
                + bn.beta[c]
        };
        let (shape, data) = match &node.op {
            IrOp::Input => (input.shape(), input.data().to_vec()),
            IrOp::Conv(a) | IrOp::TConv(a) => {
                let ConvKernel::F32 { w, b, bn } = &a.kernel else {
                    panic!("INT8 kernel in an FP32 module")
                };
                // conv + bias, then the carried BN, then the fused ReLU.
                let floor = if a.relu { 0.0 } else { f32::NEG_INFINITY };
                let finish = |co: usize, acc: f32| {
                    let x = acc + b.get(co).copied().unwrap_or(0.0);
                    bn.as_ref().map_or(x, |bn| batchnorm(bn, co, x)).max(floor)
                };
                if matches!(node.op, IrOp::Conv(_)) {
                    conv3x3(arg(0), w.data(), w.shape().n, mac, finish)
                } else {
                    tconv2x2(arg(0), w.data(), w.shape().c, mac, finish)
                }
            }
            IrOp::BatchNorm { bn } => {
                let (xs, x) = arg(0);
                let y = x.iter().enumerate().map(|(i, &v)| batchnorm(bn, i / xs.hw() % xs.c, v));
                (xs, y.collect())
            }
            IrOp::Relu => {
                let (xs, x) = arg(0);
                (xs, x.iter().map(|v| v.max(0.0)).collect())
            }
            IrOp::MaxPool2x2 => maxpool2x2(arg(0)),
            IrOp::Concat {} => concat(arg(0), arg(1)),
            IrOp::Dropout { .. } => {
                let (xs, x) = arg(0);
                (xs, x.to_vec())
            }
            IrOp::Softmax => {
                let (xs, x) = arg(0);
                let mut y = vec![0.0f32; xs.len()];
                for n in 0..xs.n {
                    for pix in 0..xs.hw() {
                        let at = |c: usize| n * xs.chw() + c * xs.hw() + pix;
                        let max = (0..xs.c).map(|c| x[at(c)]).fold(f32::NEG_INFINITY, f32::max);
                        let sum: f32 = (0..xs.c).map(|c| (x[at(c)] - max).exp()).sum();
                        for c in 0..xs.c {
                            y[at(c)] = (x[at(c)] - max).exp() / sum;
                        }
                    }
                }
                (xs, y)
            }
        };
        vals.push(Tensor::from_vec(shape, data));
    }
    vals
}

/// Evaluates an INT8 module with the DPU's arithmetic — `i32` accumulation
/// over `(c_in, ky, kx)`, bias add, [`requantize_i32`], ReLU clamp; a W4
/// layer is just `i8` weights in `[-8, 7]`. Returns every node's output,
/// indexed by node id.
pub fn run_i8(m: &Module, input: &QTensor) -> Vec<QTensor> {
    assert_eq!(m.dtype, DType::I8, "run_i8 on a non-INT8 module");
    assert_eq!(input.fix_pos(), m.input_fp, "input fix position");
    let mut vals: Vec<QTensor> = Vec::with_capacity(m.nodes.len());
    for node in &m.nodes {
        let arg = |k: usize| -> (Shape4, &[i8]) {
            let t = &vals[node.inputs[k]];
            (t.shape(), t.data())
        };
        let mac = |a: i32, x: i8, w: i8| a + x as i32 * w as i32;
        let ((shape, data), fp) = match &node.op {
            IrOp::Input => ((input.shape(), input.data().to_vec()), m.input_fp),
            IrOp::Conv(a) | IrOp::TConv(a) => {
                let ConvKernel::I8 { w, bias, in_fp, out_fp, .. } = &a.kernel else {
                    panic!("FP32 kernel in an INT8 module")
                };
                assert_eq!(vals[node.inputs[0]].fix_pos(), *in_fp, "input fix position");
                let shift = in_fp + w.fix_pos() - out_fp;
                let floor = if a.relu { 0 } else { i8::MIN };
                let finish = |co: usize, acc: i32| {
                    requantize_i32(acc + bias.get(co).copied().unwrap_or(0), shift).max(floor)
                };
                let y = if matches!(node.op, IrOp::Conv(_)) {
                    conv3x3(arg(0), w.data(), w.shape().n, mac, finish)
                } else {
                    tconv2x2(arg(0), w.data(), w.shape().c, mac, finish)
                };
                (y, *out_fp)
            }
            IrOp::MaxPool2x2 => (maxpool2x2(arg(0)), vals[node.inputs[0]].fix_pos()),
            IrOp::Concat {} => {
                let fp = vals[node.inputs[0]].fix_pos();
                assert_eq!(vals[node.inputs[1]].fix_pos(), fp, "concat inputs' fix positions");
                (concat(arg(0), arg(1)), fp)
            }
            IrOp::BatchNorm { .. } | IrOp::Relu | IrOp::Dropout { .. } | IrOp::Softmax => {
                panic!("{} unsupported in an INT8 module", node.op.mnemonic(m.dtype))
            }
        };
        vals.push(QTensor::from_vec(shape, data, fp));
    }
    vals
}

/// Steps `lowered` node by node on each image of `input` through `scratch`
/// (reused across calls: stale arena contents must never leak into a frame)
/// and panics unless every node output, read while it is live, is within
/// [`F32_TOLERANCE`] of the oracle's for that image.
pub fn check_f32(lowered: &Lowered, scratch: &mut FpScratch, input: &Tensor) {
    let want = run_f32(lowered.module(), input);
    let image = input.shape().with_n(1);
    for (k, x) in input.data().chunks_exact(image.len()).enumerate() {
        lowered.load_input_f32(&Tensor::from_vec(image, x.to_vec()), scratch);
        for (id, want) in want.iter().enumerate() {
            lowered.execute_node_f32(id, scratch);
            let got = lowered.node_output_f32(id, scratch);
            let (ws, len) = (want.shape().with_n(1), want.shape().chw());
            assert_eq!(got.shape(), ws, "node {id} shape");
            let what = format!("node {id}, image {k}");
            assert_close_f32(got.data(), &want.data()[k * len..][..len], &what);
        }
    }
}

/// The INT8 twin of [`check_f32`]: every node bit for bit, fix position
/// included.
pub fn check_i8(lowered: &Lowered, scratch: &mut QScratch, input: &QTensor) {
    let want = run_i8(lowered.module(), input);
    let image = input.shape().with_n(1);
    for (k, x) in input.data().chunks_exact(image.len()).enumerate() {
        lowered.load_input_i8(&QTensor::from_vec(image, x.to_vec(), input.fix_pos()), scratch);
        for (id, want) in want.iter().enumerate() {
            lowered.execute_node_i8(id, scratch);
            let got = lowered.node_output_i8(id, scratch);
            let len = want.shape().chw();
            let want = QTensorView::new(
                want.shape().with_n(1),
                &want.data()[k * len..][..len],
                want.fix_pos(),
            );
            assert_eq!(got, want, "node {id}, image {k}");
        }
    }
}
