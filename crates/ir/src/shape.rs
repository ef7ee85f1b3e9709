//! The one shape-inference pass.
//!
//! Every graph type is a [`Module`] (the trained graph and the quantized
//! graph hold one), so [`infer_shapes`] is the only shape walk. Panic
//! messages keep the per-dtype wording (`conv C_in mismatch` vs `qconv C_in
//! mismatch`) so corrupted-graph diagnostics — and the tests that pin them —
//! name the executor that would have mis-run.

use crate::module::{DType, IrOp, Module};
use seneca_tensor::Shape4;

/// Infers every node's output shape for a given input shape. Panics on
/// structurally corrupt graphs (mismatched conv `C_in`, unequal concat
/// geometries) rather than mis-executing.
pub fn infer_shapes(m: &Module, input: Shape4) -> Vec<Shape4> {
    let q = if m.dtype == DType::I8 { "q" } else { "" };
    let mut shapes: Vec<Shape4> = Vec::with_capacity(m.nodes.len());
    for node in &m.nodes {
        let arg = |k: usize| shapes[node.inputs[k]];
        let s = match &node.op {
            IrOp::Input => input,
            IrOp::Conv(a) => {
                assert_eq!(a.kernel.c_in(false), arg(0).c, "{q}conv C_in mismatch");
                arg(0).with_c(a.kernel.c_out(false))
            }
            IrOp::TConv(a) => {
                assert_eq!(a.kernel.c_in(true), arg(0).c, "{q}tconv C_in mismatch");
                arg(0).with_c(a.kernel.c_out(true)).upsampled2x2()
            }
            IrOp::BatchNorm { .. } | IrOp::Relu | IrOp::Dropout { .. } | IrOp::Softmax => arg(0),
            IrOp::MaxPool2x2 => arg(0).pooled2x2(),
            IrOp::Concat { .. } => {
                let (a, b) = (arg(0), arg(1));
                let what =
                    if q.is_empty() { "concat mismatch" } else { "qconcat geometry mismatch" };
                assert_eq!((a.n, a.h, a.w), (b.n, b.h, b.w), "{what}");
                a.with_c(a.c + b.c)
            }
        };
        shapes.push(s);
    }
    shapes
}
