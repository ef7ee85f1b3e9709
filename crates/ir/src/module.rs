//! The typed graph IR: one node vocabulary for every SENECA executor.
//!
//! A [`Module`] is a single-input / single-output DAG in topological order,
//! tagged with an explicit element dtype ([`DType`]). The trained FP32
//! graph (`seneca_nn::Graph`) and the quantized INT8 graph
//! (`seneca_quant::QuantizedGraph`) *are* modules — each a typed holder of
//! one, checking the subset of [`IrOp`] its stage allows — so they run the
//! same rewrite passes ([`crate::passes`]), the DPU compiler reads the same
//! nodes, and everything lowers through the same planner
//! ([`crate::plan::ExecPlan`]): fusion and layout knowledge lives here once
//! instead of per-executor.
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
    /// FP32 weights and bias, and the inference BatchNorm the store applies.
    F32 {
        /// Weights: `[C_out, C_in, 3, 3]` for conv, `[C_in, C_out, 2, 2]`
        /// for transpose conv. Shared, not owned: the rewrite passes and
        /// [`crate::lower()`] work on copies of a module (the quantizer lowers
        /// the fused module while its caller still holds it), and a copy
        /// must not cost another set of FP32 weights.
        w: Arc<Tensor>,
        /// Bias (may be empty).
        b: Vec<f32>,
        /// An exclusive BatchNorm after this conv, carried into its GEMM
        /// store by [`crate::passes::fuse_batchnorm`] — applied to
        /// `conv + b`, before a fused ReLU, with the BN pass's own
        /// arithmetic (an exact rewrite, unlike
        /// [`crate::passes::fold_batchnorm`]). Conv only.
        bn: Option<BnState>,
    },
    /// Integer weights, bias at accumulator scale, calibrated fix positions.
    /// The weight *bitwidth* is a per-node attribute: `W4` kernels store
    /// their weights as `i8` values confined to `[-8, 7]` (the DPU deploys
    /// them at half a byte each, [`ConvKernel::weight_bytes`]), so every
    /// host execution path, the lowered INT8 panels included, runs mixed
    /// W8/W4 graphs unchanged.
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

    /// Deployed parameter bytes of an INT8 kernel: nibble-packed weights for
    /// W4, one byte per weight for W8, plus the INT32 bias words. Panics on
    /// an FP32 kernel.
    pub fn weight_bytes(&self) -> u64 {
        let ConvKernel::I8 { w, bias, wbits, .. } = self else {
            panic!("weight_bytes() on an FP32 kernel")
        };
        let elems = w.shape().len();
        let w_bytes = match wbits {
            Bitwidth::W8 => elems,
            Bitwidth::W4 => elems.div_ceil(2),
        };
        (w_bytes + 4 * bias.len()) as u64
    }
}

/// Attributes shared by conv and transpose-conv nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvAttrs {
    /// The kernel (weights + bias + quantisation, dtype-resolved).
    pub kernel: ConvKernel,
    /// ReLU fused into the GEMM epilogue (after a carried BatchNorm).
    pub relu: bool,
}

impl ConvAttrs {
    /// An unfused node: no ReLU in the store.
    pub fn new(kernel: ConvKernel) -> Self {
        Self { kernel, relu: false }
    }
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
    /// by [`crate::passes::fold_batchnorm`] or carried into the producing
    /// conv's store by [`crate::passes::fuse_batchnorm`]).
    BatchNorm {
        /// Running statistics and affine parameters.
        bn: BnState,
    },
    /// Standalone ReLU (fused into the producing conv by
    /// [`crate::passes::fuse_relu`] when the edge is exclusive).
    Relu,
    /// 2x2 stride-2 max pool (fix position unchanged in INT8).
    MaxPool2x2,
    /// Channel concat of two inputs. In an INT8 module both inputs sit at
    /// the concat's fix position (calibration gives the three one), so the
    /// plan lays the concat out by address ([`crate::plan`]).
    Concat {},
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

    /// Checks what every executor assumes of a module: node 0 is the only
    /// [`IrOp::Input`], each node reads earlier nodes only and as many as its
    /// op takes, and the output is a node. The typed holders of a module run
    /// this when they take one over (deserialisation included).
    pub fn check_structure(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let arity = match node.op {
                IrOp::Input => 0,
                IrOp::Concat { .. } => 2,
                _ => 1,
            };
            if (i == 0) != matches!(node.op, IrOp::Input)
                || node.inputs.len() != arity
                || node.inputs.iter().any(|&j| j >= i)
            {
                return Err(format!("node {i} ({}) is malformed", node.op.mnemonic(self.dtype)));
            }
        }
        if self.output >= self.nodes.len() {
            return Err(format!("output {} is not a node", self.output));
        }
        Ok(())
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
                IrOp::Concat {}
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

    /// The liveness-planned activation layout ([`ExecPlan`]) of one image of
    /// the given input geometry. It holds no GEMM work memory: that follows
    /// the packed kernels, so [`crate::lower::Lowered::plan`] adds it.
    pub fn plan(&self, input: Shape4) -> ExecPlan {
        self.plan_padded(input, |c| c)
    }

    /// [`Module::plan`] over channel-padded element counts: node `i`
    /// contributes `h * w * pad_c(c)` elements, a concat its inputs' (each
    /// input padded on its own in its slot). This is the single ICP-padding
    /// hook shared by the host executor arenas (`pad_c` identity) and the DPU
    /// compiler's DDR accounting (`pad_c = arch.pad_channels`), so the two
    /// can never drift.
    pub fn plan_padded(&self, input: Shape4, pad_c: impl Fn(usize) -> usize) -> ExecPlan {
        let shapes = self.shapes(input.with_n(1));
        let concat: Vec<bool> =
            self.nodes.iter().map(|n| matches!(n.op, IrOp::Concat { .. })).collect();
        let mut elems: Vec<usize> = Vec::with_capacity(shapes.len());
        for ((node, s), &cat) in self.nodes.iter().zip(&shapes).zip(&concat) {
            let e =
                if cat { node.inputs.iter().map(|&j| elems[j]).sum() } else { s.hw() * pad_c(s.c) };
            elems.push(e);
        }
        let inputs: Vec<&[usize]> = self.nodes.iter().map(|n| n.inputs.as_slice()).collect();
        ExecPlan::build(&inputs, &elems, &concat, self.output)
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
