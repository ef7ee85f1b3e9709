//! The one executor: the only code outside [`crate::oracle`] that evaluates
//! a node of an inference graph, in either dtype.
//!
//! A [`crate::lower::Lowered`] program executes out of a per-worker slot
//! arena ([`FpScratch`] / [`QScratch`]): every node writes into its
//! liveness-plan slot, so steady-state inference allocates nothing and the
//! arena holds the peak-live footprint instead of one buffer per node.
//! FP32 and INT8 share the walk; only the kernel dispatch differs. Conv and
//! transpose-conv nodes run their GEMM against the panels packed once at
//! lowering time — per frame only the activation (B) side is packed, a strip
//! of columns at a time, directly from the NCHW feature map (implicit GEMM;
//! the strip buffers are the GEMM driver's, [`ExecPlan::work_bytes`] counts
//! them). The arena therefore holds *only* the plan slots: there is no
//! im2col column buffer and no pre-scatter tconv buffer — the conv packs
//! compute the im2col index math inside the tile gather and the tconv
//! stores scatter from the GEMM tile.
//!
//! Both dtypes also step node by node ([`Lowered::execute_node_f32`] /
//! [`Lowered::execute_node_i8`]): the DPU runtime drives the INT8 step from
//! its instruction stream, and the quantizer's calibration, fast-finetune
//! and tests read each node's output while it is live. What the executor
//! computes is pinned by the naive [`crate::oracle`]: INT8 bit for bit, FP32
//! within [`crate::oracle::F32_TOLERANCE`].

use crate::lower::{Lowered, PackedKernel};
use crate::module::{ConvAttrs, ConvKernel, DType, IrOp, Module};
use crate::plan::ExecPlan;
use seneca_tensor::activation::{relu_into, softmax_channels_into};
use seneca_tensor::gemm::GemmEpilogue;
use seneca_tensor::igemm::{
    igemm4_conv_packed, igemm4_tconv2x2_packed, igemm_conv_packed, igemm_tconv2x2_packed,
    sgemm_conv_packed, sgemm_tconv2x2_packed,
};
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::norm::batchnorm_inference_into;
use seneca_tensor::pool::maxpool2x2_into;
use seneca_tensor::quantized::{concat_requant_i8, maxpool2x2_i8};
use seneca_tensor::tensor::concat_channels_into;
use seneca_tensor::{QTensor, QTensorView, Shape4, Tensor, TensorView};

/// Per-worker execution arena: one buffer per plan slot, reused across
/// frames, so steady-state inference allocates nothing. Built by
/// [`Lowered::make_scratch_f32`] / [`Lowered::make_scratch_i8`].
#[derive(Debug, Clone)]
pub struct Scratch<T> {
    plan: ExecPlan,
    shapes: Vec<Shape4>,
    /// Per-node output fix positions (all zero in an FP32 arena).
    fps: Vec<i32>,
    slots: Vec<Vec<T>>,
}

/// The FP32 arena.
pub type FpScratch = Scratch<f32>;
/// The INT8 arena.
pub type QScratch = Scratch<i8>;

impl<T: Copy + Default> Scratch<T> {
    pub(crate) fn new(plan: ExecPlan, shapes: Vec<Shape4>, fps: Vec<i32>) -> Self {
        let slots = plan.slot_sizes().iter().map(|&e| vec![T::default(); e]).collect();
        Self { plan, shapes, fps, slots }
    }

    /// The execution plan this arena was built from.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// The input geometry this arena was built for.
    pub fn input_shape(&self) -> Shape4 {
        self.shapes[0]
    }

    /// Total elements actually allocated by this arena. With implicit-GEMM
    /// convolution this is exactly the plan's slot footprint — there is no
    /// auxiliary column/repack/pre-scatter storage to hide.
    pub fn arena_elems(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    fn load(&mut self, shape: Shape4, data: &[T]) {
        assert_eq!(shape, self.shapes[0], "scratch input geometry");
        let s0 = self.plan.slot_of(0);
        self.slots[s0][..data.len()].copy_from_slice(data);
    }

    fn output_of(&self, id: usize) -> (Shape4, &[T]) {
        let s = self.shapes[id];
        (s, &self.slots[self.plan.slot_of(id)][..s.len()])
    }
}

impl FpScratch {
    /// Seeds the input node's slot from a frame.
    pub fn load_input(&mut self, input: &Tensor) {
        self.load(input.shape(), input.data());
    }

    /// Borrowed view of one node's output. Valid only while the node's
    /// value is live under the plan (always true for the graph output after
    /// a full walk).
    pub fn node_output(&self, id: usize) -> TensorView<'_> {
        let (shape, data) = self.output_of(id);
        TensorView::new(shape, data)
    }
}

impl QScratch {
    /// Seeds the input node's slot from a quantised frame.
    pub fn load_input(&mut self, input: &QTensor) {
        assert_eq!(input.fix_pos(), self.fps[0], "scratch input fix position");
        self.load(input.shape(), input.data());
    }

    /// Borrowed view of one node's output, valid while it is live (see
    /// [`FpScratch::node_output`]).
    pub fn node_output(&self, id: usize) -> QTensorView<'_> {
        let (shape, data) = self.output_of(id);
        QTensorView::new(shape, data, self.fps[id])
    }
}

impl Lowered {
    /// The pre-packed panels of a conv/tconv node of this program (lowering
    /// gives every one a pack slot).
    fn pack_of(&self, a: &ConvAttrs) -> &PackedKernel {
        &self.packs()[a.pack.expect("lowered conv without a pack slot").slot]
    }

    /// Executes an FP32 program through the liveness plan; the returned view
    /// borrows the scratch and stays valid until the next frame.
    pub fn execute_f32_into<'s>(
        &self,
        input: &Tensor,
        scratch: &'s mut FpScratch,
    ) -> TensorView<'s> {
        self.load_input_f32(input, scratch);
        for id in 1..self.module().nodes.len() {
            self.execute_node_f32(id, scratch);
        }
        scratch.node_output(self.module().output)
    }

    /// Allocating convenience wrapper around [`Lowered::execute_f32_into`].
    pub fn execute_f32(&self, input: &Tensor) -> Tensor {
        let mut scratch = self.make_scratch_for(input.shape());
        self.execute_f32_into(input, &mut scratch).to_tensor()
    }

    /// Seeds the input node's slot from a frame, re-planning the arena first
    /// when the frame has another geometry (pairs with
    /// [`Lowered::execute_node_f32`]; calibration and fast-finetune step a
    /// program node by node and read each output while it is live).
    pub fn load_input_f32(&self, input: &Tensor, scratch: &mut FpScratch) {
        self.fit(scratch, input.shape());
        scratch.load_input(input);
    }

    /// Borrowed view of one node's output, valid while it is live.
    pub fn node_output_f32<'s>(&self, id: usize, scratch: &'s FpScratch) -> TensorView<'s> {
        scratch.node_output(id)
    }

    /// Executes one FP32 node out of the scratch arena; the FP32 twin of
    /// [`Lowered::execute_node_i8`], with the same increasing-id contract.
    pub fn execute_node_f32(&self, i: usize, scratch: &mut FpScratch) {
        let m = self.module();
        assert_eq!(m.dtype, DType::F32, "FP32 execution of a non-FP32 module");
        let node = &m.nodes[i];
        if matches!(node.op, IrOp::Input) {
            return; // seeded by `FpScratch::load_input`
        }
        let _sp = seneca_trace::span_bytes(
            "fp32-op",
            node.op.mnemonic(m.dtype),
            (scratch.plan.elems_of(i) * std::mem::size_of::<f32>()) as u64,
        );
        let Scratch { plan, shapes, slots, .. } = scratch;
        let si = plan.slot_of(i);
        // Take the output buffer out of the arena so input slots stay
        // borrowable; the plan guarantees no live input shares `si`.
        let mut out_buf = std::mem::take(&mut slots[si]);
        let out = &mut out_buf[..plan.elems_of(i)];
        {
            let slots = &*slots;
            let view = |j: usize| -> (Shape4, &[f32]) {
                debug_assert_ne!(plan.slot_of(j), si, "output slot aliases live input {j}");
                (shapes[j], &slots[plan.slot_of(j)][..shapes[j].len()])
            };
            match &node.op {
                IrOp::Input => unreachable!(),
                IrOp::Conv(a) => {
                    let (xs, x) = view(node.inputs[0]);
                    let ConvKernel::F32 { b, .. } = &a.kernel else {
                        panic!("INT8 kernel in an FP32 module")
                    };
                    let PackedKernel::ConvF32(pa) = self.pack_of(a) else {
                        panic!("pack slot holds the wrong kernel kind")
                    };
                    let epi = match (b.is_empty(), a.relu) {
                        (true, false) => GemmEpilogue::None,
                        (false, false) => GemmEpilogue::Bias(b),
                        // BiasRelu with an empty slice is a plain ReLU
                        // (missing bias reads 0).
                        (_, true) => GemmEpilogue::BiasRelu(b),
                    };
                    let geom = same3x3(xs);
                    per_image(xs, x, out, |x_n, y_n| sgemm_conv_packed(pa, &geom, x_n, y_n, epi));
                }
                IrOp::TConv(a) => {
                    let (xs, x) = view(node.inputs[0]);
                    assert!(!a.relu, "fused ReLU on an FP32 tconv is unsupported");
                    let PackedKernel::TConvF32 { pa, bias4 } = self.pack_of(a) else {
                        panic!("pack slot holds the wrong kernel kind")
                    };
                    per_image(xs, x, out, |x_n, y_n| {
                        sgemm_tconv2x2_packed(pa, x_n, xs.h, xs.w, bias4, y_n)
                    });
                }
                IrOp::BatchNorm { bn } => {
                    let (xs, x) = view(node.inputs[0]);
                    batchnorm_inference_into(xs, x, bn, out);
                }
                IrOp::Relu => {
                    let (_, x) = view(node.inputs[0]);
                    relu_into(x, out);
                }
                IrOp::MaxPool2x2 => {
                    let (xs, x) = view(node.inputs[0]);
                    maxpool2x2_into(xs, x, out);
                }
                IrOp::Concat { requant } => {
                    assert!(requant.is_none(), "requantising concat in an FP32 module");
                    let (sa, a) = view(node.inputs[0]);
                    let (sb, b) = view(node.inputs[1]);
                    concat_channels_into(sa, a, sb, b, out);
                }
                IrOp::Dropout { .. } => {
                    let (_, x) = view(node.inputs[0]);
                    out.copy_from_slice(x);
                }
                IrOp::Softmax => {
                    let (xs, x) = view(node.inputs[0]);
                    softmax_channels_into(xs, x, out);
                }
            }
        }
        scratch.slots[si] = out_buf;
    }

    /// Executes an INT8 program through the liveness plan. The returned view
    /// borrows the arena and stays valid until the next frame.
    pub fn execute_i8_into<'s>(
        &self,
        input: &QTensor,
        scratch: &'s mut QScratch,
    ) -> QTensorView<'s> {
        self.load_input_i8(input, scratch);
        for id in 1..self.module().nodes.len() {
            self.execute_node_i8(id, scratch);
        }
        scratch.node_output(self.module().output)
    }

    /// Allocating convenience wrapper around [`Lowered::execute_i8_into`].
    pub fn execute_i8(&self, input: &QTensor) -> QTensor {
        let mut scratch = self.make_scratch_i8_for(input.shape());
        self.execute_i8_into(input, &mut scratch).to_qtensor()
    }

    /// Seeds the input node's slot from a quantised frame, re-planning the
    /// arena first when the frame has another geometry (pairs with
    /// [`Lowered::execute_node_i8`]; the DPU runtime, fixed-geometry by
    /// design, checks the shape before it gets here).
    pub fn load_input_i8(&self, input: &QTensor, scratch: &mut QScratch) {
        self.fit(scratch, input.shape());
        scratch.load_input(input);
    }

    /// Borrowed view of one node's output (DPU runtime entry point).
    pub fn node_output_i8<'s>(&self, id: usize, scratch: &'s QScratch) -> QTensorView<'s> {
        scratch.node_output(id)
    }

    /// Executes one INT8 node out of the scratch arena. Inputs must still
    /// be live under the plan — running ids in increasing order (as both
    /// [`Lowered::execute_i8_into`] and the compiled DPU instruction stream
    /// do) satisfies this, because a slot is only recycled after its
    /// value's last consumer has run.
    pub fn execute_node_i8(&self, id: usize, scratch: &mut QScratch) {
        let m = self.module();
        assert_eq!(m.dtype, DType::I8, "INT8 execution of a non-INT8 module");
        let node = &m.nodes[id];
        if matches!(node.op, IrOp::Input) {
            return; // seeded by `QScratch::load_input`
        }
        let _sp = seneca_trace::span_bytes(
            "int8-op",
            node.op.mnemonic(m.dtype),
            scratch.plan.elems_of(id) as u64,
        );
        let Scratch { plan, shapes, fps, slots } = scratch;
        let si = plan.slot_of(id);
        // Take the output buffer out of the arena so input slots stay
        // borrowable; the plan guarantees no live input shares `si`.
        let mut out_buf = std::mem::take(&mut slots[si]);
        let out = &mut out_buf[..plan.elems_of(id)];
        {
            let slots = &*slots;
            let view = |j: usize| -> (Shape4, &[i8]) {
                debug_assert_ne!(plan.slot_of(j), si, "output slot aliases live input {j}");
                (shapes[j], &slots[plan.slot_of(j)][..shapes[j].len()])
            };
            match &node.op {
                IrOp::Input => unreachable!(),
                IrOp::Conv(a) => {
                    let j = node.inputs[0];
                    let (xs, x) = view(j);
                    let ConvKernel::I8 { bias, in_fp, .. } = &a.kernel else {
                        panic!("FP32 kernel in an INT8 module")
                    };
                    debug_assert_eq!(fps[j], *in_fp, "qconv input fix position");
                    let shift = a.kernel.shift();
                    let (geom, relu) = (same3x3(xs), a.relu);
                    match self.pack_of(a) {
                        PackedKernel::ConvI8(pa) => per_image(xs, x, out, |x_n, y_n| {
                            igemm_conv_packed(pa, &geom, x_n, bias, shift, relu, y_n)
                        }),
                        // Nibble-packed W4 panels: half the weight bytes,
                        // bit-exact vs the i8 path on the `[-8, 7]` weights.
                        PackedKernel::ConvI4(pa) => per_image(xs, x, out, |x_n, y_n| {
                            igemm4_conv_packed(pa, &geom, x_n, bias, shift, relu, y_n)
                        }),
                        _ => panic!("pack slot holds the wrong kernel kind"),
                    }
                }
                IrOp::TConv(a) => {
                    let j = node.inputs[0];
                    let (xs, x) = view(j);
                    let ConvKernel::I8 { in_fp, .. } = &a.kernel else {
                        panic!("FP32 kernel in an INT8 module")
                    };
                    debug_assert_eq!(fps[j], *in_fp, "qtconv input fix position");
                    let shift = a.kernel.shift();
                    let (h, w, relu) = (xs.h, xs.w, a.relu);
                    match self.pack_of(a) {
                        PackedKernel::TConvI8 { pa, bias4 } => per_image(xs, x, out, |x_n, y_n| {
                            igemm_tconv2x2_packed(pa, x_n, h, w, bias4, shift, relu, y_n)
                        }),
                        PackedKernel::TConvI4 { pa, bias4 } => per_image(xs, x, out, |x_n, y_n| {
                            igemm4_tconv2x2_packed(pa, x_n, h, w, bias4, shift, relu, y_n)
                        }),
                        _ => panic!("pack slot holds the wrong kernel kind"),
                    }
                }
                IrOp::MaxPool2x2 => {
                    let (xs, x) = view(node.inputs[0]);
                    maxpool2x2_i8(xs, x, out);
                }
                IrOp::Concat { requant } => {
                    let q = requant.as_ref().expect("INT8 concat without requant attributes");
                    let (sa, a) = view(node.inputs[0]);
                    let (sb, b) = view(node.inputs[1]);
                    concat_requant_i8(sa, a, sb, b, q.shift_a, q.shift_b, out);
                }
                IrOp::BatchNorm { .. } | IrOp::Relu | IrOp::Dropout { .. } | IrOp::Softmax => {
                    panic!("{} unsupported in an INT8 module", node.op.mnemonic(m.dtype))
                }
            }
        }
        scratch.slots[si] = out_buf;
    }
}

/// The 3x3 stride-1 pad-1 geometry of a conv over an `xs` feature map.
fn same3x3(xs: Shape4) -> ConvGeom {
    ConvGeom { c_in: xs.c, h: xs.h, w: xs.w, k: 3, pad: 1, stride: 1 }
}

/// Runs a one-image conv/tconv GEMM kernel over a batch: image `n` of `x`
/// (laid out as `xs`) produces image `n` of `out`. The kernels pack the
/// activation (B) strips straight from the feature map (implicit GEMM) and
/// run against weight panels packed at lowering time; each asserts its own
/// panel and output extents.
fn per_image<T>(xs: Shape4, x: &[T], out: &mut [T], mut kernel: impl FnMut(&[T], &mut [T])) {
    assert_eq!(x.len(), xs.len(), "input buffer/shape mismatch");
    assert_eq!(out.len() % xs.n, 0, "output buffer size");
    let out_chw = out.len() / xs.n;
    for (x_n, y_n) in x.chunks_exact(xs.chw()).zip(out.chunks_exact_mut(out_chw)) {
        kernel(x_n, y_n);
    }
}

/// Lowers `m` with [`crate::lower::LowerOptions::reference`] and executes
/// it on one FP32 frame (test/diagnostic convenience).
pub fn execute_f32(m: &Module, x: &Tensor) -> Tensor {
    let lowered =
        crate::lower::lower(m.clone(), x.shape(), &crate::lower::LowerOptions::reference());
    lowered.execute_f32(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use crate::module::ConcatQ;
    use crate::oracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seneca_tensor::norm::BnState;
    use seneca_tensor::quantized::{choose_fix_pos, choose_fix_pos_bits, Bitwidth};

    fn rand_tensor(shape: Shape4, rng: &mut StdRng) -> Tensor {
        Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    /// Lowers `m` and checks every node against the oracle over `frames`,
    /// through one reused arena; the whole-program entry points must agree
    /// with the stepped walk.
    fn assert_f32_matches_oracle(m: &Module, frames: &[Tensor]) -> Lowered {
        let lowered = lower(m.clone(), frames[0].shape(), &LowerOptions::reference());
        let mut scratch = lowered.make_scratch_f32();
        for x in frames {
            oracle::check_f32(&lowered, &mut scratch, x);
            let whole = lowered.execute_f32(x);
            assert_eq!(whole.data(), scratch.node_output(lowered.module().output).data());
        }
        lowered
    }

    /// The INT8 twin.
    fn assert_i8_matches_oracle(m: &Module, frames: &[QTensor]) -> Lowered {
        let lowered = lower(m.clone(), frames[0].shape(), &LowerOptions::reference());
        let mut scratch = lowered.make_scratch_i8();
        for x in frames {
            oracle::check_i8(&lowered, &mut scratch, x);
            let whole = lowered.execute_i8(x);
            assert_eq!(whole, scratch.node_output(lowered.module().output).to_qtensor());
        }
        lowered
    }

    fn f32_conv(c_in: usize, c_out: usize, relu: bool, rng: &mut StdRng) -> IrOp {
        let w = rand_tensor(Shape4::new(c_out, c_in, 3, 3), rng);
        let b: Vec<f32> = (0..c_out).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
        IrOp::Conv(ConvAttrs { kernel: ConvKernel::F32 { w: w.into(), b }, relu, pack: None })
    }

    /// A small FP32 module covering every op: conv(+relu attr), bn,
    /// standalone relu, pool, tconv, concat, dropout, softmax.
    fn f32_module(rng: &mut StdRng) -> Module {
        let mut m = Module::new("exec-f32", DType::F32);
        let c1 = m.push(f32_conv(2, 4, true, rng), vec![0]);
        let mut bn = BnState::new(4);
        for i in 0..4 {
            bn.gamma[i] = rng.gen_range(0.5f32..1.5);
            bn.beta[i] = rng.gen_range(-0.3f32..0.3);
            bn.running_mean[i] = rng.gen_range(-0.3f32..0.3);
            bn.running_var[i] = rng.gen_range(0.3f32..1.5);
        }
        let b1 = m.push(IrOp::BatchNorm { bn }, vec![c1]);
        let r1 = m.push(IrOp::Relu, vec![b1]);
        let p1 = m.push(IrOp::MaxPool2x2, vec![r1]);
        let c2 = m.push(f32_conv(4, 6, true, rng), vec![p1]);
        let wt = rand_tensor(Shape4::new(6, 4, 2, 2), rng);
        let bt: Vec<f32> = (0..4).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
        let t = m.push(
            IrOp::TConv(ConvAttrs {
                kernel: ConvKernel::F32 { w: wt.into(), b: bt },
                relu: false,
                pack: None,
            }),
            vec![c2],
        );
        let cat = m.push(IrOp::Concat { requant: None }, vec![r1, t]);
        let d = m.push(IrOp::Dropout { rate: 0.5 }, vec![cat]);
        let sm = m.push(IrOp::Softmax, vec![d]);
        m.output = sm;
        m
    }

    /// Every FP32 op, batch of two, three frames through one arena.
    #[test]
    fn every_f32_op_matches_the_oracle_across_frames() {
        let mut rng = StdRng::seed_from_u64(31);
        let m = f32_module(&mut rng);
        let s = Shape4::new(2, 2, 8, 8);
        let frames: Vec<Tensor> = (0..3).map(|_| rand_tensor(s, &mut rng)).collect();
        let lowered = assert_f32_matches_oracle(&m, &frames);
        assert_eq!(lowered.stats().pack_slots, 3);
    }

    /// A quantised conv/tconv kernel from FP32 weights and bias: weights on
    /// the `bits` grid, bias at accumulator scale.
    fn qkernel(w: &Tensor, bias_f: &[f32], in_fp: i32, out_fp: i32, wbits: Bitwidth) -> ConvKernel {
        let w_fp = choose_fix_pos_bits(w.abs_max(), wbits);
        let acc_scale = ((in_fp + w_fp) as f32).exp2();
        ConvKernel::I8 {
            w: QTensor::quantize_bits(w, w_fp, wbits),
            bias: bias_f.iter().map(|&b| (b * acc_scale).round() as i32).collect(),
            in_fp,
            out_fp,
            wbits,
        }
    }

    fn rand_qkernel(
        ws: Shape4,
        n_bias: usize,
        in_fp: i32,
        out_fp: i32,
        wbits: Bitwidth,
        rng: &mut StdRng,
    ) -> ConvKernel {
        let w = rand_tensor(ws, rng);
        let b: Vec<f32> = (0..n_bias).map(|_| rng.gen_range(-0.3f32..0.3)).collect();
        qkernel(&w, &b, in_fp, out_fp, wbits)
    }

    /// An INT8 module: qconv → (qconv) → qmaxpool → qtconv → qconcat with a
    /// skip; `wbits` picks the bitwidth of the first conv and the tconv, the
    /// second conv stays W8.
    fn i8_module(wbits: Bitwidth, rng: &mut StdRng) -> Module {
        let mut m = Module::new("exec-i8", DType::I8);
        m.input_fp = 6;
        let conv = |kernel, relu| IrOp::Conv(ConvAttrs { kernel, relu, pack: None });
        let k1 = rand_qkernel(Shape4::new(4, 2, 3, 3), 4, 6, 5, wbits, rng);
        let c1 = m.push(conv(k1, true), vec![0]);
        let k2 = rand_qkernel(Shape4::new(4, 4, 3, 3), 4, 5, 5, Bitwidth::W8, rng);
        let c2 = m.push(conv(k2, true), vec![c1]);
        let p1 = m.push(IrOp::MaxPool2x2, vec![c2]);
        let kt = rand_qkernel(Shape4::new(4, 3, 2, 2), 3, 5, 4, wbits, rng);
        let t = m.push(IrOp::TConv(ConvAttrs { kernel: kt, relu: false, pack: None }), vec![p1]);
        let cat = m.push(
            IrOp::Concat { requant: Some(ConcatQ { shift_a: 1, shift_b: 0, out_fp: 4 }) },
            vec![c2, t],
        );
        m.output = cat;
        m.output_fp = 4;
        m
    }

    #[test]
    fn every_i8_op_matches_the_oracle_across_frames() {
        let mut rng = StdRng::seed_from_u64(32);
        let m = i8_module(Bitwidth::W8, &mut rng);
        let s = Shape4::new(2, 2, 8, 8);
        let frames: Vec<QTensor> =
            (0..3).map(|_| QTensor::quantize(&rand_tensor(s, &mut rng), 6)).collect();
        let lowered = assert_i8_matches_oracle(&m, &frames);
        assert_eq!(lowered.stats().pack_slots_i4, 0);
        assert_eq!(lowered.execute_i8(&frames[0]).fix_pos(), 4);
    }

    /// Mixed-precision modules: the W4 layers run nibble-packed panels (half
    /// the bytes) and still match the oracle, which sees plain `i8` weights
    /// in `[-8, 7]` — the packing is a pure bandwidth optimisation.
    #[test]
    fn mixed_w4_module_matches_the_oracle() {
        let mut rng = StdRng::seed_from_u64(35);
        let m = i8_module(Bitwidth::W4, &mut rng);
        let s = Shape4::new(1, 2, 8, 8);
        let x = QTensor::quantize(&rand_tensor(s, &mut rng), 6);
        let lowered = assert_i8_matches_oracle(&m, &[x]);
        assert_eq!(lowered.stats().pack_slots, 3);
        assert_eq!(lowered.stats().pack_slots_i4, 2, "W4 conv + W4 tconv slots");
        assert!(lowered.packs().iter().any(|p| matches!(p, PackedKernel::ConvI4(_))));
        assert!(lowered.packs().iter().any(|p| matches!(p, PackedKernel::TConvI4 { .. })));
    }

    /// One-node INT8 module around `op` with the given fix positions.
    fn single_node_i8(op: IrOp, inputs: Vec<usize>, input_fp: i32, output_fp: i32) -> Module {
        let mut m = Module::new("single", DType::I8);
        m.input_fp = input_fp;
        m.push(op, inputs);
        m.output_fp = output_fp;
        m
    }

    /// A quantised conv tracks its FP32 original within a few output quanta
    /// (executor and oracle agreeing with each other is not enough: both
    /// must compute the convolution the weights came from).
    #[test]
    fn qconv_matches_fp32_within_quantum() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs = Shape4::new(1, 3, 8, 8);
        let x = rand_tensor(xs, &mut rng);
        let w = Tensor::he_normal(Shape4::new(4, 3, 3, 3), &mut rng);
        let b = vec![0.05, -0.02, 0.0, 0.11];
        let mut fm = Module::new("fp32", DType::F32);
        let kernel = ConvKernel::F32 { w: w.clone().into(), b: b.clone() };
        fm.push(IrOp::Conv(ConvAttrs { kernel, relu: false, pack: None }), vec![0]);
        let y_ref = execute_f32(&fm, &x);

        let in_fp = choose_fix_pos(1.0);
        let out_fp = choose_fix_pos(y_ref.abs_max());
        let kernel = qkernel(&w, &b, in_fp, out_fp, Bitwidth::W8);
        let op = IrOp::Conv(ConvAttrs { kernel, relu: false, pack: None });
        let m = single_node_i8(op, vec![0], in_fp, out_fp);
        let xq = QTensor::quantize(&x, in_fp);
        let y = assert_i8_matches_oracle(&m, std::slice::from_ref(&xq)).execute_i8(&xq);
        let quantum = (-out_fp as f32).exp2();
        let max_err = y
            .dequantize()
            .data()
            .iter()
            .zip(y_ref.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(max_err < 12.0 * quantum, "max err {max_err} vs quantum {quantum}");
    }

    #[test]
    fn qconv_relu_clamps_negatives() {
        let x = QTensor::from_vec(Shape4::new(1, 1, 2, 2), vec![-50, -50, -50, -50], 6);
        let mut w = Tensor::zeros(Shape4::new(1, 1, 3, 3));
        *w.at_mut(0, 0, 1, 1) = 1.0;
        let kernel = qkernel(&w, &[0.0], 6, 6, Bitwidth::W8);
        let op = IrOp::Conv(ConvAttrs { kernel, relu: true, pack: None });
        let m = single_node_i8(op, vec![0], 6, 6);
        let y = assert_i8_matches_oracle(&m, std::slice::from_ref(&x)).execute_i8(&x);
        assert!(y.data().iter().all(|&v| v == 0));
    }

    #[test]
    fn qtconv_matches_fp32_within_quantum() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs = Shape4::new(1, 2, 4, 4);
        let x = rand_tensor(xs, &mut rng);
        let w = Tensor::he_normal(Shape4::new(2, 3, 2, 2), &mut rng);
        let b = vec![0.01, -0.03, 0.02];
        let mut fm = Module::new("fp32", DType::F32);
        let kernel = ConvKernel::F32 { w: w.clone().into(), b: b.clone() };
        fm.push(IrOp::TConv(ConvAttrs { kernel, relu: false, pack: None }), vec![0]);
        let y_ref = execute_f32(&fm, &x);

        let in_fp = choose_fix_pos(1.0);
        let out_fp = choose_fix_pos(y_ref.abs_max());
        let kernel = qkernel(&w, &b, in_fp, out_fp, Bitwidth::W8);
        let op = IrOp::TConv(ConvAttrs { kernel, relu: false, pack: None });
        let m = single_node_i8(op, vec![0], in_fp, out_fp);
        let xq = QTensor::quantize(&x, in_fp);
        let y = assert_i8_matches_oracle(&m, std::slice::from_ref(&xq)).execute_i8(&xq);
        let quantum = (-out_fp as f32).exp2();
        for (a, bb) in y.dequantize().data().iter().zip(y_ref.data()) {
            assert!((a - bb).abs() < 10.0 * quantum, "{a} vs {bb}");
        }
    }

    #[test]
    fn qmaxpool_preserves_fix_pos_and_picks_max() {
        let x = QTensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1, 9, -4, 5], 3);
        let m = single_node_i8(IrOp::MaxPool2x2, vec![0], 3, 3);
        let y = assert_i8_matches_oracle(&m, std::slice::from_ref(&x)).execute_i8(&x);
        assert_eq!(y.fix_pos(), 3);
        assert_eq!(y.data(), &[9]);
    }

    #[test]
    fn qconcat_aligns_scales() {
        // Input at fp 4 (scale 1/16) concatenated with itself: the first copy
        // shifted right by 2 onto fp 2, the second claimed to sit at fp 2
        // already (shift 0).
        let x = QTensor::from_vec(Shape4::new(1, 1, 1, 2), vec![16, 33], 4);
        let requant = Some(ConcatQ { shift_a: 2, shift_b: 0, out_fp: 2 });
        let m = single_node_i8(IrOp::Concat { requant }, vec![0, 0], 4, 2);
        let y = assert_i8_matches_oracle(&m, std::slice::from_ref(&x)).execute_i8(&x);
        assert_eq!(y.fix_pos(), 2);
        // 16/16 = 1.0 -> at fp2: 4 ; 33>>2 rounds to 8 (8.25).
        assert_eq!(y.data(), &[4, 8, 16, 33]);
    }

    /// Scratch arenas replan for a new geometry; the packed weights are
    /// shape-independent and shared.
    #[test]
    fn scratch_adapts_to_new_input_shape() {
        let mut rng = StdRng::seed_from_u64(33);
        let m = f32_module(&mut rng);
        let lowered = lower(m, Shape4::new(1, 2, 8, 8), &LowerOptions::reference());
        let s2 = Shape4::new(1, 2, 16, 16);
        let x = rand_tensor(s2, &mut rng);
        let mut scratch = lowered.make_scratch_for(s2);
        assert_eq!(scratch.input_shape(), s2);
        let y = lowered.execute_f32_into(&x, &mut scratch);
        assert_eq!(y.shape().hw(), s2.hw());
    }

    /// Regression for the implicit-GEMM refactor: the executor arenas hold
    /// ONLY plan-slot storage, even after running conv-heavy frames — the
    /// materialized im2col column buffer and the pre-scatter tconv buffer
    /// are gone (their former fields no longer exist; this guards against
    /// side storage creeping back in under another name).
    #[test]
    fn scratch_allocates_only_plan_slots() {
        let mut rng = StdRng::seed_from_u64(36);
        let m = f32_module(&mut rng);
        let s = Shape4::new(1, 2, 8, 8);
        let lowered = lower(m, s, &LowerOptions::reference());
        let mut scratch = lowered.make_scratch_f32();
        let x = rand_tensor(s, &mut rng);
        let _ = lowered.execute_f32_into(&x, &mut scratch);
        assert_eq!(scratch.arena_elems(), scratch.plan().peak_arena_elems());

        let mq = i8_module(Bitwidth::W8, &mut rng);
        let lowered_q = lower(mq, s, &LowerOptions::reference());
        let mut qscratch = lowered_q.make_scratch_i8();
        let xq = QTensor::quantize(&rand_tensor(s, &mut rng), 6);
        let _ = lowered_q.execute_i8_into(&xq, &mut qscratch);
        assert_eq!(qscratch.arena_elems(), qscratch.plan().peak_arena_elems());
    }
}
