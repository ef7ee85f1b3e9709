//! The one shape-inference pass.
//!
//! Every graph type delegates here — a full [`Module`] via
//! [`infer_shapes`], the export graph (`seneca_nn::Graph`, whose `shapes`
//! and `macs` are queried per throughput run) from a borrowed list of
//! lightweight [`ShapeOp`] descriptors via [`infer_shapes_ops`], so it need
//! not convert its weight tensors. Panic messages keep the per-dtype wording
//! (`conv C_in mismatch` vs `qconv C_in mismatch`) so corrupted-graph
//! diagnostics — and the tests that pin them — are unchanged.

use crate::module::{DType, IrOp, Module};
use seneca_tensor::Shape4;

/// Everything shape inference needs to know about one node — a weight-free
/// projection of [`IrOp`].
#[derive(Debug, Clone, Copy)]
pub enum ShapeOp {
    /// Graph input placeholder.
    Input,
    /// 3x3 same conv: `C` becomes `c_out` (input must carry `c_in`).
    Conv {
        /// Expected input channels.
        c_in: usize,
        /// Produced output channels.
        c_out: usize,
    },
    /// 2x2 stride-2 transpose conv: `C` becomes `c_out`, `H`/`W` double.
    TConv {
        /// Expected input channels.
        c_in: usize,
        /// Produced output channels.
        c_out: usize,
    },
    /// Shape-preserving op (BN, ReLU, dropout, softmax).
    PassThrough,
    /// 2x2 stride-2 max pool.
    MaxPool2x2,
    /// Channel concat of two inputs.
    Concat,
}

fn conv_label(dtype: DType, transpose: bool) -> &'static str {
    match (dtype, transpose) {
        (DType::F32, false) => "conv",
        (DType::I8, false) => "qconv",
        (DType::F32, true) => "tconv",
        (DType::I8, true) => "qtconv",
    }
}

/// Infers every node's output shape from weight-free descriptors. Panics on
/// structurally corrupt graphs (mismatched conv `C_in`, unequal concat
/// geometries) rather than mis-executing.
pub fn infer_shapes_ops(ops: &[(ShapeOp, &[usize])], dtype: DType, input: Shape4) -> Vec<Shape4> {
    let mut shapes: Vec<Shape4> = Vec::with_capacity(ops.len());
    for (op, inputs) in ops {
        let s = match *op {
            ShapeOp::Input => input,
            ShapeOp::Conv { c_in, c_out } => {
                let i: Shape4 = shapes[inputs[0]];
                assert_eq!(c_in, i.c, "{} C_in mismatch", conv_label(dtype, false));
                i.with_c(c_out)
            }
            ShapeOp::TConv { c_in, c_out } => {
                let i: Shape4 = shapes[inputs[0]];
                assert_eq!(c_in, i.c, "{} C_in mismatch", conv_label(dtype, true));
                i.with_c(c_out).upsampled2x2()
            }
            ShapeOp::PassThrough => shapes[inputs[0]],
            ShapeOp::MaxPool2x2 => shapes[inputs[0]].pooled2x2(),
            ShapeOp::Concat => {
                let a = shapes[inputs[0]];
                let b = shapes[inputs[1]];
                match dtype {
                    DType::F32 => {
                        assert_eq!((a.n, a.h, a.w), (b.n, b.h, b.w), "concat mismatch")
                    }
                    DType::I8 => {
                        assert_eq!((a.n, a.h, a.w), (b.n, b.h, b.w), "qconcat geometry mismatch")
                    }
                }
                a.with_c(a.c + b.c)
            }
        };
        shapes.push(s);
    }
    shapes
}

/// [`infer_shapes_ops`] over a full [`Module`].
pub fn infer_shapes(m: &Module, input: Shape4) -> Vec<Shape4> {
    let ops: Vec<(ShapeOp, &[usize])> = m
        .nodes
        .iter()
        .map(|node| {
            let op = match &node.op {
                IrOp::Input => ShapeOp::Input,
                IrOp::Conv(a) => {
                    ShapeOp::Conv { c_in: a.kernel.c_in(false), c_out: a.kernel.c_out(false) }
                }
                IrOp::TConv(a) => {
                    ShapeOp::TConv { c_in: a.kernel.c_in(true), c_out: a.kernel.c_out(true) }
                }
                IrOp::BatchNorm { .. } | IrOp::Relu | IrOp::Dropout { .. } | IrOp::Softmax => {
                    ShapeOp::PassThrough
                }
                IrOp::MaxPool2x2 => ShapeOp::MaxPool2x2,
                IrOp::Concat { .. } => ShapeOp::Concat,
            };
            (op, node.inputs.as_slice())
        })
        .collect();
    infer_shapes_ops(&ops, m.dtype, input)
}
