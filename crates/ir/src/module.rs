//! The typed graph IR: one node vocabulary for every SENECA executor.
//!
//! A [`Module`] is a single-input / single-output DAG in topological order,
//! tagged with an explicit element dtype ([`DType`]). The FP32 inference
//! graph, the quantized INT8 graph and the DPU compiler all convert into
//! this one representation, run the same rewrite passes
//! ([`crate::passes`]) and lower through the same planner
//! ([`crate::plan::ExecPlan`]) — fusion and layout knowledge lives here
//! once instead of per-executor.
//!
//! Conv/TConv nodes carry their kernel as a [`ConvKernel`]: FP32 weights
//! plus bias, or INT8 weights plus accumulator-scale bias and the fix
//! positions the node was calibrated for. Quantisation is an attribute of
//! the node, not a separate graph type — per-layer bitwidth experiments
//! only have to touch this enum.

use crate::plan::ExecPlan;
use crate::shape::infer_shapes;
use seneca_tensor::norm::BnState;
use seneca_tensor::quantized::{Bitwidth, QTensor};
use seneca_tensor::{Shape4, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Element dtype of a module's activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit float (reference / GPU-baseline semantics).
    F32,
    /// Symmetric INT8 with power-of-two scales (DPU semantics).
    I8,
}

/// The weights of a (transpose) convolution, dtype-resolved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ConvKernel {
    /// FP32 weights and bias.
    F32 {
        /// Weights: `[C_out, C_in, 3, 3]` for conv, `[C_in, C_out, 2, 2]`
        /// for transpose conv. Shared, not owned: the rewrite passes and
        /// [`crate::lower`] work on copies of a module (the quantizer lowers
        /// the fused module while its caller still holds it), and a copy
        /// must not cost another set of FP32 weights.
        w: Arc<Tensor>,
        /// Bias (may be empty).
        b: Vec<f32>,
    },
    /// Integer weights, bias at accumulator scale, calibrated fix positions.
    /// The weight *bitwidth* is a per-node attribute: `W4` kernels store
    /// their weights as `i8` values confined to `[-8, 7]` (nibble packing
    /// happens in the lowered weight panels), so every unpacked execution
    /// path handles mixed W8/W4 graphs unchanged.
    I8 {
        /// Integer weights with their fix position (layouts as in `F32`).
        w: QTensor,
        /// Bias at accumulator scale (`in_fp + w.fix_pos()`).
        bias: Vec<i32>,
        /// Input activation fix position the node was calibrated for.
        in_fp: i32,
        /// Output activation fix position.
        out_fp: i32,
        /// Weight bitwidth (activations stay INT8 either way).
        wbits: Bitwidth,
    },
}

impl ConvKernel {
    /// `C_in` expected on the node input (`transpose` picks the tconv
    /// weight layout).
    pub fn c_in(&self, transpose: bool) -> usize {
        let s = match self {
            ConvKernel::F32 { w, .. } => w.shape(),
            ConvKernel::I8 { w, .. } => w.shape(),
        };
        if transpose {
            s.n
        } else {
            s.c
        }
    }

    /// `C_out` produced by the node.
    pub fn c_out(&self, transpose: bool) -> usize {
        let s = match self {
            ConvKernel::F32 { w, .. } => w.shape(),
            ConvKernel::I8 { w, .. } => w.shape(),
        };
        if transpose {
            s.c
        } else {
            s.n
        }
    }

    /// The INT8 requantisation shift (`in_fp + fp_w - out_fp`); panics on an
    /// FP32 kernel.
    pub fn shift(&self) -> i32 {
        match self {
            ConvKernel::I8 { w, in_fp, out_fp, .. } => in_fp + w.fix_pos() - out_fp,
            ConvKernel::F32 { .. } => panic!("shift() on an FP32 kernel"),
        }
    }

    /// Weight bitwidth of the kernel (`W8` for FP32 kernels, which have no
    /// narrower representation).
    pub fn wbits(&self) -> Bitwidth {
        match self {
            ConvKernel::I8 { wbits, .. } => *wbits,
            ConvKernel::F32 { .. } => Bitwidth::W8,
        }
    }
}

/// Layout of one pre-packed weight-panel slot, recorded at pack-slot
/// assignment time so the lowering and the executor agree on the panel
/// format without re-deriving it from the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PackFormat {
    /// `f32` panels ([`seneca_tensor::gemm::PackedA<f32>`]).
    F32,
    /// `i8` panels ([`seneca_tensor::gemm::PackedA<i8>`]).
    I8,
    /// Nibble-packed INT4 panels ([`seneca_tensor::gemm::PackedA4`]), two
    /// weights per byte — half the panel bytes of `I8`.
    I4,
}

/// A pack-slot assignment: where this node's pre-packed weight panels live
/// in the lowered program, and in which format they are materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackSlot {
    /// Index into the lowered program's pack table.
    pub slot: usize,
    /// Panel layout, derived from the kernel dtype and weight bitwidth.
    pub format: PackFormat,
}

/// Attributes shared by conv and transpose-conv nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvAttrs {
    /// The kernel (weights + bias + quantisation, dtype-resolved).
    pub kernel: ConvKernel,
    /// ReLU fused into the GEMM epilogue.
    pub relu: bool,
    /// Pack slot assigned by [`crate::passes::assign_pack_slots`]: index and
    /// format of this node's pre-packed weight panels in the lowered
    /// program. `None` until the pass runs (weights then pack per call).
    pub pack: Option<PackSlot>,
}

/// Requantisation attributes of an INT8 concat.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConcatQ {
    /// Right shift applied to the first input.
    pub shift_a: i32,
    /// Right shift applied to the second input.
    pub shift_b: i32,
    /// Resulting fix position.
    pub out_fp: i32,
}

/// IR operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum IrOp {
    /// Graph input placeholder (exactly one, always node 0).
    Input,
    /// 3x3 stride-1 pad-1 convolution.
    Conv(ConvAttrs),
    /// 2x2 stride-2 transpose convolution.
    TConv(ConvAttrs),
    /// Batch normalisation (inference form; FP32 modules only, folded away
    /// by [`crate::passes::fold_batchnorm`]).
    BatchNorm {
        /// Running statistics and affine parameters.
        bn: BnState,
    },
    /// Standalone ReLU (fused into the producing conv by
    /// [`crate::passes::fuse_relu`] when the edge is exclusive).
    Relu,
    /// 2x2 stride-2 max pool (fix position unchanged in INT8).
    MaxPool2x2,
    /// Channel concat of two inputs; INT8 modules carry alignment shifts.
    Concat {
        /// INT8 requantisation (None for FP32).
        requant: Option<ConcatQ>,
    },
    /// Dropout (identity at inference; stripped by
    /// [`crate::passes::strip_identities`]).
    Dropout {
        /// Drop rate recorded for provenance.
        rate: f32,
    },
    /// Channel-wise softmax (FP32 only; stripped for DPU-bound lowerings).
    Softmax,
}

impl IrOp {
    /// Trace/listing mnemonic, matching the historical per-executor names
    /// (`conv3x3` vs `qconv` etc.) so profiles stay comparable.
    pub fn mnemonic(&self, dtype: DType) -> &'static str {
        match (self, dtype) {
            (IrOp::Input, _) => "input",
            (IrOp::Conv(_), DType::F32) => "conv3x3",
            (IrOp::Conv(_), DType::I8) => "qconv",
            (IrOp::TConv(_), DType::F32) => "tconv2x2",
            (IrOp::TConv(_), DType::I8) => "qtconv",
            (IrOp::BatchNorm { .. }, _) => "batchnorm",
            (IrOp::Relu, _) => "relu",
            (IrOp::MaxPool2x2, DType::F32) => "maxpool2x2",
            (IrOp::MaxPool2x2, DType::I8) => "qmaxpool",
            (IrOp::Concat { .. }, DType::F32) => "concat",
            (IrOp::Concat { .. }, DType::I8) => "qconcat",
            (IrOp::Dropout { .. }, _) => "dropout",
            (IrOp::Softmax, _) => "softmax",
        }
    }
}

/// An IR node: operation plus input node ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IrNode {
    /// The operation.
    pub op: IrOp,
    /// Input node ids (empty for `Input`, two for `Concat`, else one).
    pub inputs: Vec<usize>,
}

/// A typed single-input / single-output inference DAG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Module {
    /// Nodes; `nodes[0]` is always [`IrOp::Input`], ids are vector indices.
    pub nodes: Vec<IrNode>,
    /// Id of the output node.
    pub output: usize,
    /// Human-readable model name.
    pub name: String,
    /// Activation dtype.
    pub dtype: DType,
    /// Fix position of the INT8 input (0 for FP32 modules).
    pub input_fp: i32,
    /// Fix position of the INT8 output (0 for FP32 modules).
    pub output_fp: i32,
}

impl Module {
    /// Creates an empty module of the given dtype containing only the input
    /// node.
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        Self {
            nodes: vec![IrNode { op: IrOp::Input, inputs: vec![] }],
            output: 0,
            name: name.into(),
            dtype,
            input_fp: 0,
            output_fp: 0,
        }
    }

    /// Appends a node and returns its id. Rejects forward references.
    pub fn push(&mut self, op: IrOp, inputs: Vec<usize>) -> usize {
        for &i in &inputs {
            assert!(i < self.nodes.len(), "forward reference in graph");
        }
        self.nodes.push(IrNode { op, inputs });
        self.output = self.nodes.len() - 1;
        self.output
    }

    /// Infers every node's output shape for a given input shape. Panics on
    /// structurally corrupt graphs (mismatched conv `C_in`, unequal concat
    /// geometries) rather than mis-executing.
    pub fn shapes(&self, input: Shape4) -> Vec<Shape4> {
        infer_shapes(self, input)
    }

    /// Output fix position per node (propagated through fix-transparent
    /// ops). All zero for FP32 modules.
    pub fn fix_positions(&self) -> Vec<i32> {
        let mut fps: Vec<i32> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let fp = match &node.op {
                IrOp::Input => self.input_fp,
                IrOp::Conv(a) | IrOp::TConv(a) => match &a.kernel {
                    ConvKernel::I8 { out_fp, .. } => *out_fp,
                    ConvKernel::F32 { .. } => 0,
                },
                IrOp::Concat { requant: Some(q) } => q.out_fp,
                IrOp::Concat { requant: None }
                | IrOp::BatchNorm { .. }
                | IrOp::Relu
                | IrOp::MaxPool2x2
                | IrOp::Dropout { .. }
                | IrOp::Softmax => fps[node.inputs[0]],
            };
            fps.push(fp);
        }
        fps
    }

    /// Lowers the module into a liveness-planned [`ExecPlan`] for the given
    /// input geometry.
    pub fn plan(&self, input: Shape4) -> ExecPlan {
        self.plan_padded(input, |c| c)
    }

    /// [`Module::plan`] over channel-padded element counts: node `i`
    /// contributes `n * h * w * pad_c(c)` elements. This is the single
    /// ICP-padding hook shared by the host executor arenas (`pad_c`
    /// identity) and the DPU compiler's DDR accounting
    /// (`pad_c = arch.pad_channels`), so the two can never drift.
    pub fn plan_padded(&self, input: Shape4, pad_c: impl Fn(usize) -> usize) -> ExecPlan {
        let shapes = self.shapes(input);
        let elems: Vec<usize> = shapes.iter().map(|s| s.n * s.hw() * pad_c(s.c)).collect();
        let inputs: Vec<&[usize]> = self.nodes.iter().map(|n| n.inputs.as_slice()).collect();
        let mut plan = ExecPlan::build(&inputs, &elems, self.output);
        plan.set_work_bytes(self.gemm_work_bytes(&shapes));
        plan
    }

    /// Peak per-frame GEMM work-buffer bytes: for each conv/tconv node, the
    /// strip buffers the driver's parallel parts pack activations into
    /// (`parts x strip`, a few hundred KB — there is no whole packed `B`; the
    /// weight panels are packed once at lowering and are not per-frame work).
    /// The buffers are reused node to node, so the plan's figure is the max,
    /// not the sum. Mirrors what the kernels actually allocate via
    /// [`seneca_tensor::gemm::strip_scratch_len`].
    fn gemm_work_bytes(&self, shapes: &[Shape4]) -> u64 {
        use seneca_tensor::gemm::{strip_scratch_len, NR};
        let es = match self.dtype {
            DType::F32 => 4,
            DType::I8 => 1,
        };
        let mut peak = 0;
        for (node, out) in self.nodes.iter().zip(shapes) {
            // Per image, not per batch: the per-image loop reuses the buffers.
            let s = shapes[*node.inputs.first().unwrap_or(&0)];
            // The implicit im2col GEMM is [C_out x C_in*9 x H*W]; a tconv's is
            // [4*C_out x C_in x H*W], its column parts cut on input rows.
            let len = match &node.op {
                IrOp::Conv(_) => strip_scratch_len(out.c, s.c * 9, s.hw(), NR, es),
                IrOp::TConv(_) => strip_scratch_len(4 * out.c, s.c, s.hw(), s.w, es),
                _ => continue,
            };
            peak = peak.max(len * es);
        }
        peak as u64
    }

    /// Number of nodes per mnemonic (listing/statistics helper).
    pub fn op_histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut h = std::collections::BTreeMap::new();
        for n in &self.nodes {
            *h.entry(n.op.mnemonic(self.dtype)).or_insert(0) += 1;
        }
        h
    }
}
