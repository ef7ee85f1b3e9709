//! The one executor: the only code outside [`crate::oracle`] that evaluates
//! a node of an inference graph, in either dtype.
//!
//! A [`crate::lower::Lowered`] program executes out of a per-worker arena
//! ([`FpScratch`] / [`QScratch`]) holding one image: one buffer in which every
//! node writes its value at its liveness-plan offset, so steady-state
//! inference allocates nothing and the arena holds the peak-live footprint.
//! A batch runs image by image. The executor carves a node's output and its
//! inputs out of the buffer with `split_at_mut` — the plan keeps every value
//! live at a step clear of that step's output, so no `unsafe` is needed.
//! Conv and transpose-conv nodes run their GEMM against panels packed once
//! at lowering time. An FP32 value is an NCHW map whose activation side is
//! gathered a strip of columns at a time or copied into row bands. An INT8
//! value is a bordered quad map ([`seneca_tensor::quad`]), the layout the
//! VNNI kernel reads in place; each producer writes the next map, border
//! included, and only the graph's output conv stores NCHW `i8`. The GEMM
//! work memory ([`ExecPlan::work_bytes`]) belongs to the arena too, sized
//! once for the plan on the calling thread. A concat's inputs are written in
//! place at their offsets of its value ([`crate::plan`]); only an input the
//! plan could not place is copied, by the concat's own step.
//!
//! Both dtypes also step node by node, one image at a time
//! ([`Lowered::execute_node_f32`] / [`Lowered::execute_node_i8`]), for the
//! callers that read an intermediate node's output while it is live: the
//! quantizer's calibration and fast-finetune, the oracle checks and the
//! benchmark's per-op probe. The INT8 steps take and give NCHW images at
//! their boundary ([`Lowered::load_input_i8`], [`Lowered::node_output_i8`]).
//! Whole-frame inference, the DPU runtime's included, runs
//! [`Lowered::execute_f32_into`] / [`Lowered::execute_i8_into`]. What the
//! executor computes is pinned by the naive [`crate::oracle`]: INT8 bit for
//! bit, FP32 within [`crate::oracle::F32_TOLERANCE`].

use crate::lower::{Lowered, PackedKernel};
use crate::module::{ConvKernel, DType, IrOp, Module};
use crate::plan::ExecPlan;
use seneca_tensor::activation::{relu_into, softmax_channels_into};
use seneca_tensor::gemm::{GemmEpilogue, PackElem, Work};
use seneca_tensor::igemm::{
    igemm_conv_quads, igemm_tconv2x2_quads, sgemm_conv_with, sgemm_tconv2x2_packed, QuadOut,
};
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::norm::batchnorm_inference_into;
use seneca_tensor::pool::maxpool2x2_into;
use seneca_tensor::quad::{maxpool2x2_quads, pack_nchw, unpack_nchw};
use seneca_tensor::{QTensor, QTensorView, Shape4, Tensor, TensorView};
use std::ops::Range;

/// Per-worker execution arena: one buffer holding every value of one image
/// at its plan offset (in INT8 as the kernels read it: bordered quad maps,
/// [`seneca_tensor::quad`]), and the GEMM work memory of the plan's convs, all
/// reused across frames, so steady-state inference allocates nothing. Built
/// by [`Lowered::make_scratch_f32`] / [`Lowered::make_scratch_i8`] on the
/// calling thread.
#[derive(Debug, Clone)]
pub struct Scratch<T: PackElem> {
    plan: ExecPlan,
    /// Per-node output shapes of one image.
    shapes: Vec<Shape4>,
    /// Per-node output fix positions (all zero in an FP32 arena).
    fps: Vec<i32>,
    arena: Vec<T>,
    /// The convs' and tconvs' strips and k-step offsets, sized from the
    /// plan: a worker thread's own (thread-local) work memory would start
    /// empty on every short-lived worker and regrow.
    work: Work<T>,
    /// The outputs of a batch of more than one image, image after image
    /// (empty until one runs).
    batch: Vec<T>,
    /// The last INT8 quad map [`Lowered::node_output_i8`] read, as NCHW:
    /// room for the largest value reserved with the arena, so that stepping
    /// never regrows it.
    view: Vec<T>,
}

/// The FP32 arena.
pub type FpScratch = Scratch<f32>;
/// The INT8 arena.
pub type QScratch = Scratch<i8>;

impl<T: PackElem> Scratch<T> {
    pub(crate) fn new(plan: ExecPlan, shapes: Vec<Shape4>, fps: Vec<i32>, view: usize) -> Self {
        let arena = vec![T::ZERO; plan.peak_arena_elems()];
        let (strips, offsets) = plan.work();
        let work = Work::new(strips, offsets);
        let view = Vec::with_capacity(view);
        Self { plan, shapes, fps, arena, work, batch: Vec::new(), view }
    }

    /// The execution plan this arena was built from.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// The geometry of the one image this arena holds.
    pub fn input_shape(&self) -> Shape4 {
        self.shapes[0]
    }

    /// Activation elements allocated by this arena: exactly the plan's
    /// footprint — there is no auxiliary column/repack/pre-scatter storage
    /// to hide (the strips are GEMM work memory, [`ExecPlan::work_bytes`]).
    pub fn arena_elems(&self) -> usize {
        self.arena.len()
    }
}

impl FpScratch {
    /// Seeds node 0 with one image of the arena's geometry.
    fn load(&mut self, x: &[f32]) {
        self.arena[self.plan.range_of(0)].copy_from_slice(x);
    }

    fn output_of(&self, id: usize) -> (Shape4, &[f32]) {
        (self.shapes[id], &self.arena[self.plan.range_of(id)])
    }

    /// Borrowed view of one node's output. Valid only while the node's
    /// value is live under the plan (always true for the graph output after
    /// a full walk).
    pub fn node_output(&self, id: usize) -> TensorView<'_> {
        let (shape, data) = self.output_of(id);
        TensorView::new(shape, data)
    }
}

/// The arena split around the range being written: the plan places every
/// value live at the same step (a node's inputs included) clear of it, so
/// each lies wholly below or wholly above and is read from there.
struct Values<'a, T> {
    below: &'a [T],
    above: &'a [T],
    above_at: usize,
}

/// Carves the range `out` out of `arena` with `split_at_mut`.
fn carve<T>(arena: &mut [T], out: Range<usize>) -> (&mut [T], Values<'_, T>) {
    let (below, rest) = arena.split_at_mut(out.start);
    let (out_buf, above) = rest.split_at_mut(out.len());
    (out_buf, Values { below, above, above_at: out.end })
}

impl<'a, T> Values<'a, T> {
    fn get(&self, r: Range<usize>) -> &'a [T] {
        if r.end <= self.below.len() {
            &self.below[r]
        } else {
            let at = r.start.checked_sub(self.above_at).expect("a value read overlaps the output");
            &self.above[at..][..r.len()]
        }
    }
}

impl Lowered {
    /// Runs an FP32 batch through the walk, image by image. The output of
    /// one image is read in the arena; a batch of more than one copies each
    /// image's output into the arena's batch buffer and returns that.
    fn run<'s>(&self, x: &Tensor, scratch: &'s mut FpScratch) -> (Shape4, &'s [f32]) {
        let (s, out) = (x.shape(), self.module().output);
        let image = s.with_n(1);
        self.fit(scratch, image);
        let per_image = scratch.plan.elems_of(out);
        scratch.batch.resize(if s.n == 1 { 0 } else { s.n * per_image }, 0.0);
        for (k, x_k) in x.data().chunks_exact(image.len()).enumerate() {
            scratch.load(x_k);
            for id in 1..self.module().nodes.len() {
                self.execute_node_f32(id, scratch);
            }
            if s.n > 1 {
                let Scratch { plan, arena, batch, .. } = &mut *scratch;
                batch[k * per_image..][..per_image].copy_from_slice(&arena[plan.range_of(out)]);
            }
        }
        match s.n {
            1 => scratch.output_of(out),
            n => (scratch.shapes[out].with_n(n), &scratch.batch),
        }
    }

    /// A concat's step: copies each input the plan did not place at its
    /// channel offset of the concat's value into that slot, a plain
    /// channel-range copy (a placed input is there already).
    fn copy_into_concat<T: PackElem>(&self, id: usize, scratch: &mut Scratch<T>) {
        let Scratch { plan, arena, .. } = scratch;
        let mut at = plan.range_of(id).start;
        for &x in &self.module().nodes[id].inputs {
            let (src, slot) = (plan.range_of(x), at..at + plan.elems_of(x));
            at = slot.end;
            if src != slot {
                let (out, values) = carve(arena, slot);
                out.copy_from_slice(values.get(src));
            }
        }
    }

    /// Executes an FP32 program, image by image; the returned view borrows
    /// the scratch and stays valid until the next frame. For a batch of more
    /// than one image it views the scratch's batch buffer, into which each
    /// image's output is copied as its walk ends (grown once to the batch).
    pub fn execute_f32_into<'s>(
        &self,
        input: &Tensor,
        scratch: &'s mut FpScratch,
    ) -> TensorView<'s> {
        let (shape, data) = self.run(input, scratch);
        TensorView::new(shape, data)
    }

    /// Allocating convenience wrapper around [`Lowered::execute_f32_into`].
    pub fn execute_f32(&self, input: &Tensor) -> Tensor {
        let mut scratch = self.make_scratch_for(input.shape());
        self.execute_f32_into(input, &mut scratch).to_tensor()
    }

    /// Seeds the input node's slot from a one-image frame, re-planning the
    /// arena first when the frame has another geometry (pairs with
    /// [`Lowered::execute_node_f32`]; calibration and fast-finetune step a
    /// program node by node and read each output while it is live).
    pub fn load_input_f32(&self, input: &Tensor, scratch: &mut FpScratch) {
        self.fit(scratch, input.shape());
        scratch.load(input.data());
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
        let writes = scratch.plan.writes(i);
        if matches!(node.op, IrOp::Input) || writes.is_empty() {
            return; // seeded by `load_input_f32` / written in place by its producers
        }
        let _sp = seneca_trace::span_bytes(
            "fp32-op",
            node.op.mnemonic(m.dtype),
            (writes.len() * std::mem::size_of::<f32>()) as u64,
        );
        if matches!(node.op, IrOp::Concat { .. }) {
            return self.copy_into_concat(i, scratch);
        }
        let Scratch { plan, shapes, arena, work, .. } = scratch;
        let (out, values) = carve(arena, writes);
        let view = |j: usize| (shapes[j], values.get(plan.range_of(j)));
        match &node.op {
            IrOp::Input | IrOp::Concat { .. } => unreachable!(),
            IrOp::Conv(a) => {
                let (xs, x) = view(node.inputs[0]);
                let ConvKernel::F32 { b, .. } = &a.kernel else {
                    panic!("INT8 kernel in an FP32 module")
                };
                let Some(PackedKernel::ConvF32 { pa, bn }) = &self.packs()[i] else {
                    panic!("conv {i} is not packed as an FP32 conv")
                };
                let epi = match (b.is_empty(), bn.is_empty(), a.relu) {
                    (true, true, false) => GemmEpilogue::None,
                    (false, true, false) => GemmEpilogue::Bias(b),
                    // BiasRelu with an empty slice is a plain ReLU (missing
                    // bias reads 0).
                    (_, true, true) => GemmEpilogue::BiasRelu(b),
                    // A carried BatchNorm: what the bias store, the BN pass
                    // and the ReLU pass computed, bit for bit.
                    (_, false, relu) => GemmEpilogue::BiasBn { bias: b, bn, relu },
                };
                sgemm_conv_with(pa, &ConvGeom::same_3x3(xs), x, out, epi, work);
            }
            IrOp::TConv(a) => {
                let (xs, x) = view(node.inputs[0]);
                assert!(!a.relu, "fused ReLU on an FP32 tconv is unsupported");
                let Some(PackedKernel::TConvF32 { pa, bias4 }) = &self.packs()[i] else {
                    panic!("tconv {i} is not packed as an FP32 tconv")
                };
                sgemm_tconv2x2_packed(pa, x, xs.h, xs.w, bias4, out, work);
            }
            IrOp::BatchNorm { bn } => {
                let (xs, x) = view(node.inputs[0]);
                batchnorm_inference_into(xs, x, bn, out);
            }
            IrOp::Relu => relu_into(view(node.inputs[0]).1, out),
            IrOp::MaxPool2x2 => {
                let (xs, x) = view(node.inputs[0]);
                maxpool2x2_into(xs, x, out);
            }
            IrOp::Dropout { .. } => out.copy_from_slice(view(node.inputs[0]).1),
            IrOp::Softmax => {
                let (xs, x) = view(node.inputs[0]);
                softmax_channels_into(xs, x, out);
            }
        }
    }

    /// Executes an INT8 program, image by image. The returned NCHW view
    /// borrows the arena and stays valid until the next frame (a batch's, as
    /// in [`Lowered::execute_f32_into`]).
    pub fn execute_i8_into<'s>(
        &self,
        input: &QTensor,
        scratch: &'s mut QScratch,
    ) -> QTensorView<'s> {
        assert_eq!(input.fix_pos(), self.fix_positions()[0], "input fix position");
        let (s, out) = (input.shape(), self.module().output);
        let image = s.with_n(1);
        self.fit(scratch, image);
        let per_image = scratch.shapes[out].len();
        scratch.batch.resize(if s.n == 1 { 0 } else { s.n * per_image }, 0);
        for (k, x) in input.data().chunks_exact(image.len()).enumerate() {
            self.load_i8(x, scratch);
            for id in 1..self.module().nodes.len() {
                self.execute_node_i8(id, scratch);
            }
            if s.n > 1 {
                let Scratch { plan, shapes, arena, batch, .. } = &mut *scratch;
                self.read_i8(out, (plan, shapes, arena), &mut batch[k * per_image..][..per_image]);
            }
        }
        match s.n {
            1 => self.node_output_i8(out, scratch),
            n => {
                let shape = scratch.shapes[out].with_n(n);
                QTensorView::new(shape, &scratch.batch, self.fix_positions()[out])
            }
        }
    }

    /// Allocating convenience wrapper around [`Lowered::execute_i8_into`].
    pub fn execute_i8(&self, input: &QTensor) -> QTensor {
        let mut scratch = self.make_scratch_i8_for(input.shape());
        self.execute_i8_into(input, &mut scratch).to_qtensor()
    }

    /// Seeds the input node's slot from a one-image quantised NCHW frame,
    /// re-planning the arena first when the frame has another geometry (pairs
    /// with [`Lowered::execute_node_i8`]).
    pub fn load_input_i8(&self, input: &QTensor, scratch: &mut QScratch) {
        assert_eq!(input.fix_pos(), self.fix_positions()[0], "input fix position");
        self.fit(scratch, input.shape());
        self.load_i8(input.data(), scratch);
    }

    /// Stores one NCHW image into the input node's quad map, border
    /// included.
    fn load_i8(&self, x: &[i8], scratch: &mut QScratch) {
        let map = self.quads().map(0, scratch.shapes[0]);
        pack_nchw(x, &self.quads().slots[0], map, &mut scratch.arena[scratch.plan.range_of(0)]);
    }

    /// Node `id`'s value as an NCHW image, into `dst`: the output conv's
    /// image copied, any other node's quad map converted.
    fn read_i8(
        &self,
        id: usize,
        (plan, shapes, arena): (&ExecPlan, &[Shape4], &[i8]),
        dst: &mut [i8],
    ) {
        let (value, quads) = (&arena[plan.range_of(id)], self.quads());
        if quads.nchw == Some(id) {
            dst.copy_from_slice(value);
        } else {
            unpack_nchw(value, quads.map(id, shapes[id]), &quads.slots[id], dst);
        }
    }

    /// One node's output as an NCHW view, valid while the node is live: the
    /// output conv's image where it lies, or the node's quad map converted
    /// into the arena's view buffer.
    pub fn node_output_i8<'s>(&self, id: usize, scratch: &'s mut QScratch) -> QTensorView<'s> {
        let Scratch { plan, shapes, fps, arena, view, .. } = scratch;
        let s = shapes[id];
        if self.quads().nchw == Some(id) {
            return QTensorView::new(s, &arena[plan.range_of(id)], fps[id]);
        }
        view.resize(s.len(), 0);
        self.read_i8(id, (plan, shapes, arena), view);
        QTensorView::new(s, view, fps[id])
    }

    /// Executes one INT8 node out of the scratch arena. Inputs must still
    /// be live under the plan — running ids in increasing order (as
    /// [`Lowered::execute_i8_into`] does) satisfies this, because a value's
    /// bytes are only reused after its last consumer has run. A concat whose
    /// inputs are both placed in it executes nothing.
    pub fn execute_node_i8(&self, id: usize, scratch: &mut QScratch) {
        let m = self.module();
        assert_eq!(m.dtype, DType::I8, "INT8 execution of a non-INT8 module");
        let (node, quads) = (&m.nodes[id], self.quads());
        let writes = scratch.plan.writes(id);
        if matches!(node.op, IrOp::Input) || writes.is_empty() {
            return; // seeded by `load_input_i8` / written in place by its producers
        }
        let _sp =
            seneca_trace::span_bytes("int8-op", node.op.mnemonic(m.dtype), writes.len() as u64);
        if matches!(node.op, IrOp::Concat { .. }) {
            return self.copy_into_concat(id, scratch);
        }
        let Scratch { plan, shapes, fps, arena, work, .. } = scratch;
        let (out, values) = carve(arena, writes);
        let j = node.inputs[0];
        let (g, x) = (quads.map(j, shapes[j]), values.get(plan.range_of(j)));
        match &node.op {
            IrOp::Input | IrOp::Concat { .. } => unreachable!(),
            IrOp::Conv(a) => {
                let ConvKernel::I8 { bias, in_fp, .. } = &a.kernel else {
                    panic!("FP32 kernel in an INT8 module")
                };
                debug_assert_eq!(fps[j], *in_fp, "qconv input fix position");
                let Some(PackedKernel::ConvI8(pa)) = &self.packs()[id] else {
                    panic!("conv {id} is not packed as an INT8 conv")
                };
                let y =
                    if quads.nchw == Some(id) { QuadOut::Nchw(out) } else { QuadOut::Quads(out) };
                igemm_conv_quads(pa, g, x, bias, a.kernel.shift(), a.relu, y, work);
            }
            IrOp::TConv(a) => {
                let ConvKernel::I8 { in_fp, .. } = &a.kernel else {
                    panic!("FP32 kernel in an INT8 module")
                };
                debug_assert_eq!(fps[j], *in_fp, "qtconv input fix position");
                let Some(PackedKernel::TConvI8 { pa, bias4 }) = &self.packs()[id] else {
                    panic!("tconv {id} is not packed as an INT8 tconv")
                };
                igemm_tconv2x2_quads(pa, g, x, bias4, a.kernel.shift(), a.relu, out, work);
            }
            IrOp::MaxPool2x2 => maxpool2x2_quads(g, x, out),
            IrOp::BatchNorm { .. } | IrOp::Relu | IrOp::Dropout { .. } | IrOp::Softmax => {
                panic!("{} unsupported in an INT8 module", node.op.mnemonic(m.dtype))
            }
        }
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
    use crate::module::ConvAttrs;
    use crate::oracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seneca_tensor::gemm::{igemm_fused_packed, KOrder, PackedA};
    use seneca_tensor::igemm::reads_map;
    use seneca_tensor::norm::BnState;
    use seneca_tensor::quad::{QuadMap, ZERO};
    use seneca_tensor::quantized::{choose_fix_pos, choose_fix_pos_bits, Bitwidth};

    fn rand_tensor(shape: Shape4, rng: &mut StdRng) -> Tensor {
        Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    /// Lowers `m` and checks every node against the oracle over `frames`,
    /// through one reused arena; the whole-program entry points, which run a
    /// batch image by image, must agree with the oracle's batch output.
    fn assert_f32_matches_oracle(m: &Module, frames: &[Tensor]) -> Lowered {
        let lowered = lower(m.clone(), frames[0].shape(), &LowerOptions::reference());
        let mut scratch = lowered.make_scratch_f32();
        for x in frames {
            oracle::check_f32(&lowered, &mut scratch, x);
            let want = oracle::run_f32(lowered.module(), x).swap_remove(lowered.module().output);
            let whole = lowered.execute_f32_into(x, &mut scratch);
            assert_eq!(whole.shape(), want.shape());
            oracle::assert_close_f32(whole.data(), want.data(), "batch output");
            assert_eq!(whole.data(), lowered.execute_f32(x).data());
        }
        lowered
    }

    /// The INT8 twin.
    fn assert_i8_matches_oracle(m: &Module, frames: &[QTensor]) -> Lowered {
        let lowered = lower(m.clone(), frames[0].shape(), &LowerOptions::reference());
        let mut scratch = lowered.make_scratch_i8();
        for x in frames {
            oracle::check_i8(&lowered, &mut scratch, x);
            let want = oracle::run_i8(lowered.module(), x).swap_remove(lowered.module().output);
            assert_eq!(lowered.execute_i8_into(x, &mut scratch).to_qtensor(), want);
            assert_eq!(lowered.execute_i8(x), want);
        }
        lowered
    }

    fn f32_conv(c_in: usize, c_out: usize, relu: bool, rng: &mut StdRng) -> IrOp {
        let w = rand_tensor(Shape4::new(c_out, c_in, 3, 3), rng);
        let b: Vec<f32> = (0..c_out).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
        IrOp::Conv(ConvAttrs { kernel: ConvKernel::F32 { w: w.into(), b, bn: None }, relu })
    }

    fn rand_bn(c: usize, rng: &mut StdRng) -> IrOp {
        let mut bn = BnState::new(c);
        for i in 0..c {
            bn.gamma[i] = rng.gen_range(0.5f32..1.5);
            bn.beta[i] = rng.gen_range(-0.3f32..0.3);
            bn.running_mean[i] = rng.gen_range(-0.3f32..0.3);
            bn.running_var[i] = rng.gen_range(0.3f32..1.5);
        }
        IrOp::BatchNorm { bn }
    }

    /// A small FP32 module covering every op: conv(+relu attr), standalone
    /// bn and relu (after a conv whose ReLU is already fused, so they stay
    /// passes), conv → bn → relu (carried into the conv's store), pool,
    /// tconv, concat, dropout, softmax.
    fn f32_module(rng: &mut StdRng) -> Module {
        let mut m = Module::new("exec-f32", DType::F32);
        let c1 = m.push(f32_conv(2, 4, true, rng), vec![0]);
        let b1 = m.push(rand_bn(4, rng), vec![c1]);
        let r1 = m.push(IrOp::Relu, vec![b1]);
        let p1 = m.push(IrOp::MaxPool2x2, vec![r1]);
        let c2 = m.push(f32_conv(4, 6, false, rng), vec![p1]);
        let b2 = m.push(rand_bn(6, rng), vec![c2]);
        let r2 = m.push(IrOp::Relu, vec![b2]);
        let wt = rand_tensor(Shape4::new(6, 4, 2, 2), rng);
        let bt: Vec<f32> = (0..4).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
        let t = m.push(
            IrOp::TConv(ConvAttrs {
                kernel: ConvKernel::F32 { w: wt.into(), b: bt, bn: None },
                relu: false,
            }),
            vec![r2],
        );
        let cat = m.push(IrOp::Concat {}, vec![r1, t]);
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
        let stats = lowered.stats();
        assert_eq!((stats.bn_fused, stats.relu_fused), (1, 1));
        let left = |op: &str| lowered.module().op_histogram().get(op).copied();
        assert_eq!((left("batchnorm"), left("relu")), (Some(1), Some(1)));
    }

    /// Lowering packs exactly one kernel per conv/tconv node, of the node's
    /// kind and dtype (an INT8 conv in channel quads, so that it can read
    /// its input's quad map in place), and none for any other node.
    #[test]
    fn lowering_packs_one_kernel_per_conv_and_tconv() {
        let mut rng = StdRng::seed_from_u64(38);
        let k = rand_qkernel(Shape4::new(4, 8, 3, 3), 4, 6, 5, Bitwidth::W8, &mut rng);
        let small = Shape4::new(1, 2, 8, 8);
        let cases = [
            (f32_module(&mut rng), small),
            (i8_module(Bitwidth::W8, &mut rng), small),
            (i8_module(Bitwidth::W4, &mut rng), small),
            (single_node_i8(IrOp::Conv(ConvAttrs::new(k)), vec![0], 6), Shape4::new(1, 8, 16, 16)),
        ];
        let mut band = 0;
        for (m, shape) in cases {
            let lowered = lower(m, shape, &LowerOptions::reference());
            let (m, packs) = (lowered.module(), lowered.packs());
            assert_eq!(packs.len(), m.nodes.len());
            for (id, (node, pack)) in m.nodes.iter().zip(packs).enumerate() {
                use PackedKernel as P;
                let input = lowered.shapes()[node.inputs.first().copied().unwrap_or(0)];
                let ok = match (&node.op, m.dtype, pack) {
                    (IrOp::Conv(_), DType::F32, Some(P::ConvF32 { .. }))
                    | (IrOp::TConv(_), DType::F32, Some(P::TConvF32 { .. }))
                    | (IrOp::TConv(_), DType::I8, Some(P::TConvI8 { .. })) => true,
                    (IrOp::Conv(_), DType::I8, Some(P::ConvI8(pa))) => {
                        band += usize::from(reads_map(input.w));
                        pa.order() == (KOrder::Conv { taps: 9 })
                    }
                    (op, _, None) => !matches!(op, IrOp::Conv(_) | IrOp::TConv(_)),
                    _ => false,
                };
                let kind = pack.as_ref().map(|p| p.bytes());
                assert!(ok, "node {id} ({}): packed {kind:?}", node.op.mnemonic(m.dtype));
            }
        }
        assert_eq!(band, 5, "every INT8 conv (widths 8 and 16) reads its map in place");
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
    /// skip, the skip and the tconv at the concat's fix position; `wbits`
    /// picks the bitwidth of the first conv and the tconv, the second conv
    /// stays W8.
    fn i8_module(wbits: Bitwidth, rng: &mut StdRng) -> Module {
        let mut m = Module::new("exec-i8", DType::I8);
        m.input_fp = 6;
        let conv = |kernel, relu| IrOp::Conv(ConvAttrs { kernel, relu });
        let k1 = rand_qkernel(Shape4::new(4, 2, 3, 3), 4, 6, 5, wbits, rng);
        let c1 = m.push(conv(k1, true), vec![0]);
        let k2 = rand_qkernel(Shape4::new(4, 4, 3, 3), 4, 5, 5, Bitwidth::W8, rng);
        let c2 = m.push(conv(k2, true), vec![c1]);
        let p1 = m.push(IrOp::MaxPool2x2, vec![c2]);
        let kt = rand_qkernel(Shape4::new(4, 3, 2, 2), 3, 5, 5, wbits, rng);
        let t = m.push(IrOp::TConv(ConvAttrs { kernel: kt, relu: false }), vec![p1]);
        let cat = m.push(IrOp::Concat {}, vec![c2, t]);
        m.output = cat;
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
        assert_eq!(lowered.execute_i8(&frames[0]).fix_pos(), 5);
    }

    /// Mixed-precision modules: the W4 conv and tconv run the INT8 panels,
    /// which hold their `[-8, 7]` weights, and match the oracle, which sees
    /// the same `i8` weights.
    #[test]
    fn mixed_w4_module_matches_the_oracle() {
        let mut rng = StdRng::seed_from_u64(35);
        let m = i8_module(Bitwidth::W4, &mut rng);
        let s = Shape4::new(1, 2, 8, 8);
        let x = QTensor::quantize(&rand_tensor(s, &mut rng), 6);
        let lowered = assert_i8_matches_oracle(&m, &[x]);
        // A panel read back through an identity `B`: `A * I` requantised by
        // shift 0 is `A`.
        let values = |pa: &PackedA<i8>| {
            let k = pa.k();
            let eye: Vec<i8> = (0..k * k).map(|i| i8::from(i % (k + 1) == 0)).collect();
            let mut a = vec![0i8; pa.m() * k];
            igemm_fused_packed(pa, k, &eye, &[], 0, false, &mut a);
            a
        };
        let mut w4 = Vec::new();
        for (node, pack) in lowered.module().nodes.iter().zip(lowered.packs()) {
            let (IrOp::Conv(a) | IrOp::TConv(a)) = &node.op else { continue };
            let ConvKernel::I8 { w, wbits: Bitwidth::W4, .. } = &a.kernel else { continue };
            let Some(PackedKernel::ConvI8(pa) | PackedKernel::TConvI8 { pa, .. }) = pack else {
                panic!("W4 {} not on INT8 panels", node.op.mnemonic(DType::I8))
            };
            let got = values(pa);
            assert!(got.iter().all(|v| (-8..=7).contains(v)), "W4 panel values");
            if matches!(node.op, IrOp::Conv(_)) {
                // Over the input map's 4 channels, the 2 real ones first.
                let ws = w.shape();
                let mut want = vec![0i8; ws.n * 4 * 9];
                for (src, dst) in w.data().chunks_exact(ws.c * 9).zip(want.chunks_exact_mut(36)) {
                    dst[..ws.c * 9].copy_from_slice(src);
                }
                assert_eq!(got, want, "conv panels hold the W4 weights");
            }
            w4.push(node.op.mnemonic(DType::I8));
        }
        assert_eq!(w4.len(), 2, "W4 conv + W4 tconv: {w4:?}");
    }

    /// A W4 kernel packs into the INT8 panels, so lowering checks that its
    /// weights lie in `[-8, 7]`: one weight of 8 panics for a conv that
    /// gathers, a tconv and a conv that reads its map in place alike.
    #[test]
    fn lowering_rejects_w4_weights_outside_the_4_bit_range() {
        let mut rng = StdRng::seed_from_u64(36);
        let m = i8_module(Bitwidth::W4, &mut rng);
        let k = rand_qkernel(Shape4::new(4, 8, 3, 3), 4, 6, 5, Bitwidth::W4, &mut rng);
        let conv = single_node_i8(IrOp::Conv(ConvAttrs::new(k)), vec![0], 6);
        let (small, odd, even) =
            (Shape4::new(1, 2, 8, 8), Shape4::new(1, 8, 7, 7), Shape4::new(1, 8, 8, 8));
        let cases = [(conv.clone(), 1, odd, false), (m, 4, small, false), (conv, 1, even, true)];
        for (mut m, id, shape, band) in cases {
            let lowered = lower(m.clone(), shape, &LowerOptions::reference());
            let input = lowered.shapes()[lowered.module().nodes[id].inputs[0]];
            let reads_band =
                matches!(&lowered.packs()[id], Some(PackedKernel::ConvI8(_))) && reads_map(input.w);
            assert_eq!(reads_band, band, "node {id}");
            let (IrOp::Conv(a) | IrOp::TConv(a)) = &mut m.nodes[id].op else { unreachable!() };
            let ConvKernel::I8 { w, .. } = &mut a.kernel else { unreachable!() };
            w.data_mut()[0] = 8;
            let lowering = || lower(m, shape, &LowerOptions::reference());
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(lowering))
                .expect_err("a W4 weight of 8 lowered");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("outside [-8, 7]"), "node {id}: {msg}");
        }
    }

    /// One-node INT8 module around `op` with the given input fix position.
    fn single_node_i8(op: IrOp, inputs: Vec<usize>, input_fp: i32) -> Module {
        let mut m = Module::new("single", DType::I8);
        m.input_fp = input_fp;
        m.push(op, inputs);
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
        let kernel = ConvKernel::F32 { w: w.clone().into(), b: b.clone(), bn: None };
        fm.push(IrOp::Conv(ConvAttrs { kernel, relu: false }), vec![0]);
        let y_ref = execute_f32(&fm, &x);

        let in_fp = choose_fix_pos(1.0);
        let out_fp = choose_fix_pos(y_ref.abs_max());
        let kernel = qkernel(&w, &b, in_fp, out_fp, Bitwidth::W8);
        let op = IrOp::Conv(ConvAttrs { kernel, relu: false });
        let m = single_node_i8(op, vec![0], in_fp);
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
        let op = IrOp::Conv(ConvAttrs { kernel, relu: true });
        let m = single_node_i8(op, vec![0], 6);
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
        let kernel = ConvKernel::F32 { w: w.clone().into(), b: b.clone(), bn: None };
        fm.push(IrOp::TConv(ConvAttrs { kernel, relu: false }), vec![0]);
        let y_ref = execute_f32(&fm, &x);

        let in_fp = choose_fix_pos(1.0);
        let out_fp = choose_fix_pos(y_ref.abs_max());
        let kernel = qkernel(&w, &b, in_fp, out_fp, Bitwidth::W8);
        let op = IrOp::TConv(ConvAttrs { kernel, relu: false });
        let m = single_node_i8(op, vec![0], in_fp);
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
        let m = single_node_i8(IrOp::MaxPool2x2, vec![0], 3);
        let y = assert_i8_matches_oracle(&m, std::slice::from_ref(&x)).execute_i8(&x);
        assert_eq!(y.fix_pos(), 3);
        assert_eq!(y.data(), &[9]);
    }

    /// A concat reading one value twice places neither slot: its step
    /// copies the value into both.
    #[test]
    fn qconcat_copies_a_value_it_reads_twice() {
        let x = QTensor::from_vec(Shape4::new(1, 1, 1, 2), vec![16, 33], 4);
        let m = single_node_i8(IrOp::Concat {}, vec![0, 0], 4);
        let lowered = assert_i8_matches_oracle(&m, std::slice::from_ref(&x));
        assert_eq!(lowered.plan().writes(1), lowered.plan().range_of(1));
        let y = lowered.execute_i8(&x);
        assert_eq!((y.fix_pos(), y.data()), (4, &[16, 33, 16, 33][..]));
    }

    /// A placed concat feeding a conv that reads its map in place, with another
    /// and an output concat around it, batch of two: the first concat's producers
    /// write its value in place (it writes nothing), the output concat
    /// places its conv and copies the value already placed in the first
    /// (bit for bit the oracle's concats); and the arena's work memory,
    /// sized once from the plan, is exactly what the GEMM driver asks for —
    /// running frames grows none of it.
    #[test]
    fn placed_concat_runs_on_the_arena_work_memory() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut m = Module::new("place", DType::I8);
        m.input_fp = 6;
        let conv = |kernel| IrOp::Conv(ConvAttrs { kernel, relu: true });
        let k1 = rand_qkernel(Shape4::new(8, 2, 3, 3), 8, 6, 5, Bitwidth::W8, &mut rng);
        let c1 = m.push(conv(k1), vec![0]);
        let k2 = rand_qkernel(Shape4::new(8, 8, 3, 3), 8, 5, 5, Bitwidth::W8, &mut rng);
        let c2 = m.push(conv(k2), vec![c1]);
        let cat = m.push(IrOp::Concat {}, vec![c1, c2]);
        let k3 = rand_qkernel(Shape4::new(4, 16, 3, 3), 4, 5, 5, Bitwidth::W8, &mut rng);
        let c3 = m.push(conv(k3), vec![cat]);
        let out = m.push(IrOp::Concat {}, vec![c3, c2]);
        let s = Shape4::new(2, 2, 16, 16);
        let frames: Vec<QTensor> =
            (0..2).map(|_| QTensor::quantize(&rand_tensor(s, &mut rng), 6)).collect();
        let lowered = assert_i8_matches_oracle(&m, &frames);
        let band = |id: usize| {
            let input = lowered.shapes()[lowered.module().nodes[id].inputs[0]];
            matches!(&lowered.packs()[id], Some(PackedKernel::ConvI8(_))) && reads_map(input.w)
        };
        assert!([c1, c2, c3].into_iter().all(band), "every conv at 16x16 reads its map in place");
        let plan = lowered.plan();
        // A bordered 16x16 plane per channel quad.
        let (r, plane) = (plan.range_of(cat), 18 * 18 * 4);
        let halves = (r.start..r.start + 2 * plane, r.start + 2 * plane..r.end);
        assert_eq!((plan.range_of(c1), plan.range_of(c2)), halves);
        assert!(plan.writes(cat).is_empty());
        let r = plan.range_of(out);
        assert_eq!(plan.range_of(c3), r.start..r.start + plane);
        assert_eq!(plan.writes(out), r.start + plane..r.end, "copies the placed c2");
        let mut scratch = lowered.make_scratch_i8();
        let sizes = |s: &QScratch| (s.work.strip_len(), s.work.offset_capacity());
        let planned = sizes(&scratch);
        let (strips, offsets) = scratch.plan.work();
        assert!(planned.0 == strips && planned.1 >= offsets, "{planned:?} vs {strips} {offsets}");
        // Reading their maps in place, the convs pack no strip.
        assert!(strips == 0 && offsets > 0);
        for x in &frames {
            lowered.execute_i8_into(x, &mut scratch);
            assert_eq!(sizes(&scratch), planned, "the driver grew the arena's work memory");
        }
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
    /// ONLY the plan's activation buffer, even after running conv-heavy
    /// frames — the materialized im2col column buffer and the pre-scatter
    /// tconv buffer are gone (their former fields no longer exist; this
    /// guards against side storage creeping back in under another name).
    #[test]
    fn scratch_allocates_only_the_plan_arena() {
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

    /// Appends a conv (`ws` 3x3) or tconv (`ws` 2x2) of random weights and
    /// bias reading `x` at fix position `in_fp`, W8 or W4 and ReLU-fused or
    /// not at random.
    fn random_layer(
        m: &mut Module,
        x: usize,
        ws: Shape4,
        fps: (i32, i32),
        rng: &mut StdRng,
    ) -> usize {
        let bits = if rng.gen_bool(0.5) { Bitwidth::W4 } else { Bitwidth::W8 };
        let tconv = ws.h == 2;
        let kernel = rand_qkernel(ws, if tconv { ws.c } else { ws.n }, fps.0, fps.1, bits, rng);
        let attrs = ConvAttrs { kernel, relu: rng.gen_bool(0.5) };
        m.push(if tconv { IrOp::TConv(attrs) } else { IrOp::Conv(attrs) }, vec![x])
    }

    /// [`random_layer`] for a `c_in -> c_out` conv of `x = (node, fix
    /// position)`, its output fix position following `k`, so that values
    /// stay spread over the `i8` range.
    fn random_conv(
        m: &mut Module,
        x: (usize, i32),
        c: (usize, usize),
        rng: &mut StdRng,
    ) -> (usize, i32) {
        let out_fp = (8 - (9 * c.0).ilog2() as i32 / 2).clamp(1, 7);
        (random_layer(m, x.0, Shape4::new(c.1, c.0, 3, 3), (x.1, out_fp), rng), out_fp)
    }

    /// A random INT8 U-Net: `c_in` input channels, `c << l` channels at level
    /// `l` of `depth`, `classes` output channels. Per level two convs and a
    /// pool, the bottom's two convs, then per level back up a tconv, a
    /// concat with the level's skip (at the skip's fix position) and two
    /// convs, then the output conv.
    fn random_unet_i8(
        (c_in, c, depth, classes): (usize, usize, usize, usize),
        rng: &mut StdRng,
    ) -> Module {
        let mut m = Module::new("unet-i8", DType::I8);
        m.input_fp = 6;
        let (mut x, mut ch, mut skips) = ((0, 6), c_in, Vec::new());
        for l in 0..depth {
            x = random_conv(&mut m, x, (ch, c << l), rng);
            x = random_conv(&mut m, x, (c << l, c << l), rng);
            skips.push(x);
            ch = c << l;
            x = (m.push(IrOp::MaxPool2x2, vec![x.0]), x.1);
        }
        x = random_conv(&mut m, x, (ch, c << depth), rng);
        x = random_conv(&mut m, x, (c << depth, c << depth), rng);
        ch = c << depth;
        for (l, skip) in skips.into_iter().enumerate().rev() {
            let cs = c << l;
            let t = random_layer(&mut m, x.0, Shape4::new(ch, cs, 2, 2), (x.1, skip.1), rng);
            let cat = m.push(IrOp::Concat {}, vec![skip.0, t]);
            x = random_conv(&mut m, (cat, skip.1), (2 * cs, cs), rng);
            x = random_conv(&mut m, x, (cs, cs), rng);
            ch = cs;
        }
        random_conv(&mut m, x, (ch, classes), rng);
        m
    }

    /// The executor against the oracle, bit for bit, on random INT8 U-Nets
    /// over every width from 1 to 34, odd and even, at heights 2 to 8: the
    /// deepest U-Net (up to 2 levels) the width and height pool to whole
    /// maps, so odd widths are read at the top or at the bottom level; top
    /// levels of 1, 3, 6, 11 and 22 channels (concat halves on and off the
    /// quad grid), W4 and W8 weights and ReLU on and off at random. Two
    /// frames through the stepped API (every node, [`oracle::check_i8`]),
    /// then a batch of two through [`Lowered::execute_i8_into`], all on one
    /// arena.
    #[test]
    fn random_unets_match_the_oracle_at_every_width() {
        for w in 1..=34usize {
            let mut rng = StdRng::seed_from_u64(500 + w as u64);
            let depth = w.trailing_zeros().min(2) as usize;
            let heights: Vec<usize> = (2..=8).filter(|h| h % (1 << depth) == 0).collect();
            let h = heights[rng.gen_range(0..heights.len())];
            let c = [1, 3, 6, 11, 22][w % 5];
            let (c_in, classes) = ([1, 3][w % 2], [6, 1, 4][w % 3]);
            let m = random_unet_i8((c_in, c, depth, classes), &mut rng);
            let s = Shape4::new(2, c_in, h, w);
            let x = QTensor::quantize(&rand_tensor(s, &mut rng), 6);
            let lowered = lower(m, s, &LowerOptions::reference());
            let mut scratch = lowered.make_scratch_i8();
            for _ in 0..2 {
                let x = QTensor::quantize(&rand_tensor(s.with_n(1), &mut rng), 6);
                oracle::check_i8(&lowered, &mut scratch, &x);
            }
            let want = oracle::run_i8(lowered.module(), &x).swap_remove(lowered.module().output);
            let got = lowered.execute_i8_into(&x, &mut scratch).to_qtensor();
            assert_eq!(got, want, "c{c_in} -> {c} depth {depth} at {h}x{w}");
            let live = got.data().iter().filter(|&&v| v != 0 && (-126..=126).contains(&v)).count();
            assert!(live > 0, "c{c_in} -> {c} depth {depth} at {h}x{w}: output dead or saturated");
        }
    }

    /// Whether every border byte of the quad map `map` of geometry `g` reads
    /// `0x80`.
    fn border_is_zero(map: &[i8], g: QuadMap) -> bool {
        map.chunks_exact(g.plane()).all(|plane| {
            plane.chunks_exact(g.row()).enumerate().all(|(y, r)| {
                let edge = [&r[..4], &r[r.len() - 4..]];
                let mut bytes: Box<dyn Iterator<Item = &i8>> = if y == 0 || y == g.h + 1 {
                    Box::new(r.iter())
                } else {
                    Box::new(edge.into_iter().flatten())
                };
                bytes.all(|&b| b == ZERO)
            })
        })
    }

    /// Slot reuse never leaks into a border: two frames, then a frame of
    /// another geometry (a re-planned arena) through one arena first filled
    /// with stale bytes, stepped node by node; before every conv and tconv
    /// reads its input map, that map's border reads `0x80` (each producer
    /// writes its own, over what the slot held before), and every node
    /// matches the oracle.
    #[test]
    fn borders_read_zero_before_every_conv_across_slot_reuse() {
        let mut rng = StdRng::seed_from_u64(77);
        let m = random_unet_i8((1, 6, 2, 6), &mut rng);
        let (a, b) = (Shape4::new(1, 1, 16, 12), Shape4::new(1, 1, 8, 20));
        let lowered = lower(m, a, &LowerOptions::reference());
        let mut scratch = lowered.make_scratch_i8();
        let (mut convs, mut reuses) = (0, 0);
        for (frame, s) in [a, a, b].into_iter().enumerate() {
            lowered.fit(&mut scratch, s);
            if frame != 1 {
                scratch.arena.fill(0x33);
            }
            let x = QTensor::quantize(&rand_tensor(s, &mut rng), 6);
            let want = oracle::run_i8(lowered.module(), &x);
            lowered.load_input_i8(&x, &mut scratch);
            for (id, node) in lowered.module().nodes.iter().enumerate().skip(1) {
                if matches!(node.op, IrOp::Conv(_) | IrOp::TConv(_)) {
                    let j = node.inputs[0];
                    let g = lowered.quads().map(j, scratch.shapes[j]);
                    let r = scratch.plan.range_of(j);
                    assert!(
                        border_is_zero(&scratch.arena[r.clone()], g),
                        "frame {frame} node {id}"
                    );
                    convs += 1;
                    // Another value held these bytes earlier in the walk.
                    let earlier = (1..j).any(|i| {
                        let o = scratch.plan.range_of(i);
                        o.start < r.end && r.start < o.end
                    });
                    reuses += usize::from(earlier);
                }
                lowered.execute_node_i8(id, &mut scratch);
                let got = lowered.node_output_i8(id, &mut scratch).to_qtensor();
                assert_eq!(got, want[id], "frame {frame} node {id}");
            }
        }
        assert!(convs > 30 && reuses > 5, "{convs} conv reads, {reuses} over reused slots");
    }
}
